//! Round state and phase primitives of the event core: the paper's
//! synchronous round under injected faults, with retries, deadlines,
//! straggler rescue and between-round rescheduling.
//!
//! Production federated learning loses clients constantly — phones crash,
//! churn out of the cohort, drop packets and slow down under background
//! load. `ResilientRoundSim` is the crate-private state a round runs
//! against: the device cohort, the RNG stream, a [`FaultInjector`] that
//! decrees per-round fates, and the server-side countermeasures. Its
//! phase primitives (`phase1_device`, `rescue_phase`, `admission_phase`,
//! `robust_overlay`, `close_round`) are driven by
//! [`EventRoundSim`](crate::EventRoundSim), the only code that runs a
//! round. The countermeasures:
//!
//! * **Retries** — every model push/pull goes through
//!   [`LossyLink::transfer`] under a [`RetryPolicy`] (capped exponential
//!   backoff, per-attempt timeout), all simulated in round time;
//! * **Deadlines** — an optional per-round deadline cuts stragglers off
//!   with partial credit for the shards they finished;
//! * **Rescue** — once failures are detected, the failed users' unfinished
//!   shards are greedily reassigned (LPT) to the round's survivors, who
//!   receive an extra transfer and compute the remainder;
//! * **Rescheduling** — an optional scheduler re-plans the shard allocation
//!   every few rounds from [`OnlineProfiler`] estimates fitted to what the
//!   faulted cohort actually delivered.
//!
//! Determinism contract: with a quiet injector and the default
//! configuration, a round consumes the main RNG stream as the paper's
//! plain replay does (one comm sample + one compute call per
//! participating device, in device-index order), so the quiet
//! [`RoundSim`](crate::RoundSim) facade reproduces its historical
//! [`TimingReport`]s bit for bit. All fault-only randomness (loss
//! decisions, backoff jitter) comes from counter-based
//! [`DrawStream`](fedsched_faults::DrawStream)s.

use fedsched_bandit::{selection_stream, SelectionConfig, SelectionPolicy};
use fedsched_core::{CostMatrix, DeadlinePolicy, FedLbap, Schedule, Scheduler};
use fedsched_device::{Device, TrainingWorkload};
use fedsched_faults::{AdversaryPlan, DeviceFate, FaultInjector};
use fedsched_net::{Link, LossyLink, RetryPolicy};
use fedsched_profiler::{LinearProfile, OnlineProfiler};
use fedsched_robust::AggregatorKind;
use fedsched_telemetry::{Event, Probe};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::clock;
use crate::roundsim::{predict_user_time, TimingReport};

/// Cost profile assigned to devices the server knows nothing about (never
/// observed) or knows to be gone: large but finite, so cost matrices stay
/// valid while schedulers starve the device of work.
const PENALTY_FIXED_S: f64 = 1e6;
/// Per-sample slope of the penalty profile.
const PENALTY_PER_SAMPLE_S: f64 = 1e3;
/// Forgetting factor for the per-device online profilers: recent rounds
/// dominate, so estimates track thermal drift and contention.
const PROFILER_LAMBDA: f64 = 0.9;
/// Dimension of the proxy update vectors the timing simulator feeds the
/// robust aggregator (the real training engine aggregates full parameter
/// vectors; the timing path only needs enough coordinates to score).
const PROXY_DIM: usize = 8;

/// What one simulated round delivered under faults.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RoundOutcome {
    /// Global round index.
    pub round: usize,
    /// Shards scheduled this round.
    pub scheduled: usize,
    /// Shards completed by their originally assigned user (including
    /// partial credit for deadline-cut stragglers).
    pub completed: usize,
    /// Shards recovered by reassignment to survivors.
    pub rescued: usize,
    /// Shards lost outright (crashes, failed transfers, no rescue target).
    pub lost_shards: usize,
    /// Shards handed to mid-round-admitted arrivals (event engine with
    /// `AdmissionPolicy::MidRoundFill` only; 0 everywhere else).
    pub admitted: usize,
    /// Admitted shards the arrival actually completed (`<= admitted`).
    pub admit_done: usize,
    /// Admitted shards the arrival did *not* complete this round (its
    /// transfer failed); the device keeps the data, so they are carried,
    /// not lost twice: `carried = admitted - admit_done`.
    pub carried: usize,
    /// Fraction of planned-plus-admitted work aggregated:
    /// `(completed + rescued + admit_done) / (scheduled + admitted)`.
    /// Admitted work joins the *denominator* too, so mid-round joiners can
    /// never push coverage above 1.
    pub coverage: f64,
    /// Synchronous round time including any rescue phase.
    pub makespan_s: f64,
    /// Users that lost at least one shard in the primary phase.
    pub failed_users: usize,
    /// Users cut off by the round deadline.
    pub timed_out: usize,
    /// Updates the robust aggregator excluded this round (0 unless an
    /// adversary is configured).
    pub rejected_updates: usize,
}

/// Full report of a chaos run: plain timing plus per-round fault outcomes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChaosReport {
    /// Timing statistics, shape-compatible with [`RoundSim`](crate::RoundSim)
    /// output.
    pub timing: TimingReport,
    /// One outcome per simulated round.
    pub rounds: Vec<RoundOutcome>,
}

impl ChaosReport {
    /// Total shards lost across all rounds.
    pub fn total_lost(&self) -> usize {
        self.rounds.iter().map(|r| r.lost_shards).sum()
    }

    /// Total shards rescued across all rounds.
    pub fn total_rescued(&self) -> usize {
        self.rounds.iter().map(|r| r.rescued).sum()
    }

    /// Mean per-round coverage.
    pub fn mean_coverage(&self) -> f64 {
        if self.rounds.is_empty() {
            return 1.0;
        }
        self.rounds.iter().map(|r| r.coverage).sum::<f64>() / self.rounds.len() as f64
    }
}

/// Between-round rescheduling configuration.
struct Rescheduler {
    scheduler: Box<dyn Scheduler>,
    every: usize,
}

/// Online bandit-driven client-selection state (see
/// `ResilientRoundSim::with_selection`).
struct SelectionState {
    config: SelectionConfig,
    policy: Box<dyn SelectionPolicy>,
    /// Resolved selection-stream seed (config override or master seed).
    seed: u64,
    /// Battery SoC snapshot per device at selection time, for the reward's
    /// energy discount.
    soc_at_select: Vec<f64>,
    /// Arms picked for the round in flight (ascending device indices).
    last_selected: Vec<usize>,
}

/// Phase-1 result for one participating device.
///
/// Produced by `ResilientRoundSim::phase1_device` and consumed by
/// [`EventRoundSim`](crate::EventRoundSim)'s queue drain.
pub(crate) enum Phase1 {
    /// Delivered all its shards.
    Survivor {
        finish: f64,
        comm: f64,
        compute: f64,
        shards: usize,
    },
    /// Alive but cut off by the deadline; delivered `done` shards.
    Cut {
        comm: f64,
        done: usize,
        at_risk: usize,
    },
    /// Transfer never went through (retries exhausted).
    CommFail { elapsed: f64, shards: usize },
    /// Crashed or churned mid-compute at `t_fail`.
    Fail { t_fail: f64, shards: usize },
    /// Offline the whole round.
    Offline { shards: usize },
    /// Departed mid-round at `t` via the continuous churn process.
    /// Delivered `done` shards of partial credit before leaving; the
    /// remaining `at_risk` shards are orphaned and rescueable from `t`.
    Departed {
        t: f64,
        comm: f64,
        done: usize,
        at_risk: usize,
    },
}

impl Phase1 {
    /// This entry's contribution to crash detection, as
    /// `(responder candidate, failure candidate)` maxima feeding
    /// [`clock::crash_detection`](crate::clock::crash_detection).
    pub(crate) fn detection_bounds(&self, deadline_s: Option<f64>) -> (f64, f64) {
        match self {
            Phase1::Survivor { finish, .. } => (*finish, 0.0),
            Phase1::Cut { .. } => (deadline_s.unwrap_or(0.0), 0.0),
            Phase1::CommFail { elapsed, .. } => (0.0, *elapsed),
            Phase1::Fail { t_fail, .. } => (0.0, *t_fail),
            Phase1::Offline { .. } => (0.0, 0.0),
            // The server heard from the device until `t` (partial credit
            // was delivered), so a departure bounds detection like a
            // responder, not like a silent crash.
            Phase1::Departed { t, .. } => (*t, 0.0),
        }
    }
}

/// Order-independent per-round accumulators over phase-1 entries.
///
/// Everything in here is a sum, count or max, so absorbing entries in any
/// order yields the same tally — except [`RoundTally::pool`], which is
/// built in *absorption order* and therefore must be fed entries in device
/// index order (the rescue LPT ledger and its telemetry depend on pool
/// order). The event core absorbs in index order.
pub(crate) struct RoundTally {
    /// Shards completed by their originally assigned user.
    pub(crate) completed: usize,
    /// Users that lost at least one shard in phase 1.
    pub(crate) failed_users: usize,
    /// Users cut off by the round deadline.
    pub(crate) timed_out: usize,
    /// Unfinished shards awaiting rescue: `(original user, count)`.
    pub(crate) pool: Vec<(usize, usize)>,
    /// When the server has detected every failure and can reassign.
    pub(crate) detection: f64,
}

impl RoundTally {
    pub(crate) fn new() -> Self {
        RoundTally {
            completed: 0,
            failed_users: 0,
            timed_out: 0,
            pool: Vec::new(),
            detection: 0.0,
        }
    }

    /// Account one phase-1 entry. Returns `(total, busy, comm)`: `total`
    /// is what the server waits on, `busy` the user's own occupied time
    /// (they differ for crashed users, whose absence is only *noticed* at
    /// `crash_det`), `comm` the straggler's communication share if this
    /// entry ends up being the straggler.
    pub(crate) fn absorb(
        &mut self,
        user: usize,
        entry: &Phase1,
        deadline_s: Option<f64>,
        crash_det: f64,
    ) -> (f64, f64, f64) {
        match entry {
            Phase1::Survivor {
                finish,
                comm,
                shards,
                ..
            } => {
                self.completed += shards;
                (*finish, *finish, *comm)
            }
            Phase1::Cut {
                comm,
                done,
                at_risk,
            } => {
                self.completed += done;
                self.pool.push((user, *at_risk));
                let d = deadline_s.unwrap_or(0.0);
                self.detection = self.detection.max(d);
                self.failed_users += 1;
                self.timed_out += 1;
                (d, d, *comm)
            }
            Phase1::CommFail { elapsed, shards } => {
                self.pool.push((user, *shards));
                self.detection = self.detection.max(*elapsed);
                self.failed_users += 1;
                (*elapsed, *elapsed, *elapsed)
            }
            Phase1::Fail { t_fail, shards } => {
                self.pool.push((user, *shards));
                self.detection = self.detection.max(crash_det);
                self.failed_users += 1;
                (crash_det, *t_fail, 0.0)
            }
            Phase1::Offline { shards } => {
                self.pool.push((user, *shards));
                self.failed_users += 1;
                (0.0, 0.0, 0.0)
            }
            Phase1::Departed {
                t,
                comm,
                done,
                at_risk,
            } => {
                self.completed += done;
                self.pool.push((user, *at_risk));
                self.detection = self.detection.max(*t);
                self.failed_users += 1;
                (*t, *t, comm.min(*t))
            }
        }
    }

    /// Shards awaiting rescue.
    pub(crate) fn pool_total(&self) -> usize {
        self.pool.iter().map(|(_, s)| s).sum()
    }
}

/// Running straggler selection: strictly-greater comparison, so among
/// equal-time finishers the *first observed* wins. The event core
/// observes in `(time, seq)` pop order with sequence numbers assigned in
/// index order, so the winner is the lowest-index device among equal-time
/// finishers — the paper's index-order straggler scan.
pub(crate) struct StragglerTrack {
    pub(crate) worst: f64,
    pub(crate) worst_comm: f64,
    pub(crate) straggler: usize,
}

impl StragglerTrack {
    pub(crate) fn new() -> Self {
        StragglerTrack {
            worst: 0.0,
            worst_comm: 0.0,
            straggler: 0,
        }
    }

    pub(crate) fn observe(&mut self, user: usize, total: f64, comm: f64) {
        if total > self.worst {
            self.worst = total;
            self.worst_comm = comm;
            self.straggler = user;
        }
    }
}

/// Round state with a fault model and recovery controls: everything a
/// round reads and mutates, plus the phase primitives
/// [`EventRoundSim`](crate::EventRoundSim) drives.
pub(crate) struct ResilientRoundSim {
    devices: Vec<Device>,
    workload: TrainingWorkload,
    link: Link,
    model_bytes: f64,
    rng: StdRng,
    probe: Probe,
    rounds_done: usize,
    injector: FaultInjector,
    retry: RetryPolicy,
    deadline: DeadlinePolicy,
    rescue: bool,
    rescue_soc_floor: f64,
    rescheduler: Option<Rescheduler>,
    /// Per-device online profilers. Empty unless a rescheduler, priors or
    /// bandit selection reads them, so quiet cohorts carry no per-device
    /// profiler state.
    profilers: Vec<OnlineProfiler>,
    has_prior: bool,
    /// Devices the server has observed leaving for good.
    known_gone: Vec<bool>,
    aggregator: AggregatorKind,
    adversary: Option<AdversaryPlan>,
    /// Master seed, kept so the selection stream can inherit it.
    seed: u64,
    selection: Option<SelectionState>,
}

impl ResilientRoundSim {
    /// Positional constructor backing the
    /// [`SimBuilder`](crate::SimBuilder), the only public construction
    /// path.
    ///
    /// # Panics
    /// Panics if the injector was planned for a different cohort size.
    pub(crate) fn from_parts(
        devices: Vec<Device>,
        workload: TrainingWorkload,
        link: Link,
        model_bytes: f64,
        seed: u64,
        injector: FaultInjector,
    ) -> Self {
        assert_eq!(
            injector.plan().n_devices(),
            devices.len(),
            "fault plan/cohort size mismatch"
        );
        let n = devices.len();
        ResilientRoundSim {
            devices,
            workload,
            link,
            model_bytes,
            rng: StdRng::seed_from_u64(seed),
            probe: Probe::disabled(),
            rounds_done: 0,
            injector,
            retry: RetryPolicy::single_attempt(),
            deadline: DeadlinePolicy::Off,
            rescue: true,
            rescue_soc_floor: 0.0,
            rescheduler: None,
            profilers: Vec::new(),
            has_prior: false,
            known_gone: vec![false; n],
            aggregator: AggregatorKind::FedAvg,
            adversary: None,
            seed,
            selection: None,
        }
    }

    /// Attach a telemetry probe (builder form). Rounds emit the
    /// `round_start` / `user_span` / `round_end` timeline plus the fault
    /// vocabulary (`fault_injected`, `transfer_retry`, `user_timeout`,
    /// `shards_reassigned`, `round_degraded`).
    pub fn with_probe(mut self, probe: Probe) -> Self {
        for d in &mut self.devices {
            d.set_probe(probe.clone());
        }
        self.probe = probe;
        self
    }

    /// Set the retry policy applied to every transfer.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        retry.validate();
        self.retry = retry;
        self
    }

    /// Set the per-round deadline policy. `Fixed` applies a constant cutoff;
    /// `MeanFactor` / `Quantile` re-resolve the cutoff **every round** from
    /// side-effect-free predicted per-user times
    /// ([`predict_user_time`](crate::roundsim::predict_user_time)) on the
    /// *current* schedule and thermal state, so the deadline tightens or
    /// relaxes as the cohort drifts.
    ///
    /// # Panics
    /// Panics on a malformed policy (non-positive fixed deadline or mean
    /// factor, quantile outside `[0, 1]`) — the fallible path is
    /// [`SimBuilder::deadline`](crate::SimBuilder::deadline).
    pub fn with_deadline_policy(mut self, policy: DeadlinePolicy) -> Self {
        if let Err(rule) = policy.check() {
            panic!("{rule}");
        }
        self.deadline = policy;
        self
    }

    /// Overwrite the deadline for the *next* rounds with an
    /// already-resolved cutoff (or clear it). This is the coordination
    /// hook: the engine's global-deadline stage resolves one global
    /// deadline from population-pooled predictions and pushes it into every
    /// cohort before the cohorts run.
    pub fn set_deadline(&mut self, deadline_s: Option<f64>) {
        if let Some(d) = deadline_s {
            assert!(d > 0.0 && d.is_finite(), "deadline must be positive");
        }
        self.deadline = match deadline_s {
            Some(d) => DeadlinePolicy::Fixed(d),
            None => DeadlinePolicy::Off,
        };
    }

    /// The deadline resolved for the coming round: `Fixed` passes through,
    /// adaptive policies pool the predicted per-user times of the `active`
    /// set only. Idle users would predict `0.0` and
    /// [`DeadlinePolicy::resolve`] ignores non-positive entries, so leaving
    /// them out of the pool never changes the resolved cutoff.
    pub(crate) fn round_deadline_active(
        &self,
        current: &Schedule,
        active: &[usize],
    ) -> Option<f64> {
        match self.deadline {
            DeadlinePolicy::Off => None,
            DeadlinePolicy::Fixed(d) => Some(d),
            _ => {
                let comm = self.link.round_seconds(self.model_bytes);
                let predicted: Vec<f64> = active
                    .iter()
                    .map(|&j| {
                        let samples = (current.shards[j] as f64 * current.shard_size) as usize;
                        predict_user_time(&self.devices[j], &self.workload, comm, samples)
                    })
                    .collect();
                self.deadline.resolve(&predicted)
            }
        }
    }

    /// Disable mid-round straggler rescue (failed users' shards are lost).
    pub fn without_rescue(mut self) -> Self {
        self.rescue = false;
        self
    }

    /// Select the robust aggregation rule the server scores deliveries with.
    ///
    /// With the default [`AggregatorKind::FedAvg`] (or with no adversary
    /// configured) the robust layer is entirely inert: no extra telemetry,
    /// no RNG consumption, bit-identical traces. The fallible counterpart is
    /// [`SimBuilder::aggregator`](crate::SimBuilder::aggregator).
    ///
    /// # Panics
    /// Panics on an invalid kind (e.g. Multi-Krum with `k == 0`).
    pub fn with_aggregator(mut self, kind: AggregatorKind) -> Self {
        if let Err(rule) = kind.validate() {
            panic!("{rule}");
        }
        self.aggregator = kind;
        self
    }

    /// Attach an adversary plan: compromised devices submit attacked proxy
    /// updates which the configured aggregator scores every round
    /// (`update_rejected` / `robust_aggregate` telemetry, plus the
    /// [`RoundOutcome::rejected_updates`] counter). A quiet plan (zero
    /// attacker fraction) leaves the run byte-identical to no plan at all.
    ///
    /// # Panics
    /// Panics if the plan was generated for a different cohort size.
    pub fn with_adversary(mut self, plan: AdversaryPlan) -> Self {
        assert_eq!(
            plan.n_devices(),
            self.devices.len(),
            "adversary plan/cohort size mismatch"
        );
        self.adversary = Some(plan);
        self
    }

    /// Energy-aware rescue: never reassign orphaned shards to a survivor
    /// whose battery state of charge is below `floor` (in `[0, 1]`).
    ///
    /// Rescue work is *extra* drain a device's owner never signed up for;
    /// piling it onto a nearly-empty phone trades one lost allocation this
    /// round for a depleted (hence permanently lost) device in the next.
    /// The floor is checked against each survivor's SoC at rescue time —
    /// after this round's own training drain. The default floor of `0.0`
    /// accepts every survivor, preserving the pre-existing behaviour bit
    /// for bit.
    ///
    /// # Panics
    /// Panics if `floor` is outside `[0, 1]`.
    pub fn with_rescue_soc_floor(mut self, floor: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&floor) && floor.is_finite(),
            "rescue SoC floor must be in [0, 1], got {floor}"
        );
        self.rescue_soc_floor = floor;
        self
    }

    /// Re-plan the shard allocation with `scheduler` every `every` rounds,
    /// using online profiles fitted to observed (faulted) round behaviour.
    ///
    /// # Panics
    /// Panics if `every == 0`.
    pub fn with_rescheduler(mut self, scheduler: Box<dyn Scheduler>, every: usize) -> Self {
        assert!(every > 0, "rescheduling interval must be positive");
        self.rescheduler = Some(Rescheduler { scheduler, every });
        self.ensure_profilers();
        self
    }

    /// Warm-start the per-device online profilers from offline profiles, so
    /// the first reschedule has an estimate even for devices that have not
    /// been observed yet.
    ///
    /// # Panics
    /// Panics if `priors` does not match the cohort size.
    pub fn with_priors(mut self, priors: &[LinearProfile]) -> Self {
        assert_eq!(
            priors.len(),
            self.devices.len(),
            "priors/cohort size mismatch"
        );
        self.profilers = priors
            .iter()
            .map(|p| OnlineProfiler::with_prior(PROFILER_LAMBDA, p))
            .collect();
        self.has_prior = true;
        self
    }

    /// Enable online bandit-driven client selection: before every round a
    /// [`SelectionPolicy`] picks a `k`-device cohort among devices not
    /// known gone, the full shard load is re-split among the picked
    /// devices, and after the round each picked arm is credited a reward —
    /// observed throughput (samples per second) discounted by the round's
    /// battery drain, `0.0` for picked devices that delivered nothing.
    ///
    /// All selection randomness comes from a dedicated salted
    /// [`selection_stream`] keyed by `(selection seed, round)`, so runs
    /// replay byte-identically and never perturb the main RNG.
    ///
    /// # Panics
    /// Panics on an invalid config, or if a rescheduler is attached —
    /// selection owns the per-round re-plan. The fallible path is
    /// [`SimBuilder::selection`](crate::SimBuilder::selection).
    pub fn with_selection(mut self, config: SelectionConfig) -> Self {
        if let Err(rule) = config.validate() {
            panic!("{rule}");
        }
        assert!(
            self.rescheduler.is_none(),
            "selection re-plans the split every round; drop the rescheduler"
        );
        let n = self.devices.len();
        self.ensure_profilers();
        self.selection = Some(SelectionState {
            policy: config.policy.build(),
            seed: config.seed.resolve(self.seed),
            config,
            soc_at_select: vec![1.0; n],
            last_selected: Vec::new(),
        });
        self
    }

    /// Number of devices.
    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// Borrow the devices (e.g. to inspect battery drain afterwards).
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// The fault injector driving this run.
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Reset every device's thermal state (between experiment arms).
    pub fn cool_down(&mut self) {
        for d in &mut self.devices {
            d.cool_down();
        }
    }

    /// Allocate fresh per-device profilers unless priors already did.
    fn ensure_profilers(&mut self) {
        if self.profilers.is_empty() {
            self.profilers = vec![OnlineProfiler::new(PROFILER_LAMBDA); self.devices.len()];
        }
    }

    /// Emit this round's injected-fault telemetry (outage windows, group
    /// outages) and build the lossy link every transfer goes through.
    pub(crate) fn emit_round_faults(&self, round: usize) -> LossyLink {
        let outage_windows = self.injector.outages(round).to_vec();
        for &(s, e) in &outage_windows {
            self.probe.emit(|| Event::FaultInjected {
                round,
                device: None,
                kind: "outage".to_string(),
                magnitude: e - s,
            });
        }
        for &(group, duration_rounds) in self.injector.group_outages(round) {
            let members = self.injector.plan().group_members(group).len();
            self.probe.emit(|| Event::GroupOutage {
                round,
                group,
                members,
                duration_rounds,
            });
        }
        LossyLink::new(self.link, self.injector.loss_prob()).with_outages(outage_windows)
    }

    /// Phase 1 for one scheduled device: fate check, transfer under the
    /// retry policy, compute, deadline cut — with all per-user telemetry
    /// and profiler observations. Main-RNG consumption is one comm sample
    /// plus one compute call when no fault fires, so callers must invoke
    /// this in device index order over the scheduled (non-idle) users.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn phase1_device(
        &mut self,
        round: usize,
        j: usize,
        current: &Schedule,
        lossy: &LossyLink,
        deadline_s: Option<f64>,
        depart_at: Option<f64>,
        observed: &mut Vec<(usize, f64, f64)>,
    ) -> Phase1 {
        let k = current.shards[j];
        let samples = (k as f64 * current.shard_size) as usize;
        debug_assert!(samples > 0, "idle devices never enter phase 1");
        let fate = self.injector.fate(round, j);
        if !fate.is_online() {
            if matches!(fate, DeviceFate::Departed) {
                self.known_gone[j] = true;
            }
            self.probe.emit(|| Event::UserTimeout {
                round,
                user: j,
                cause: "offline".to_string(),
                shards_at_risk: k,
            });
            return Phase1::Offline { shards: k };
        }
        let cont = self.injector.contention(round, j);
        if cont > 1.0 {
            self.probe.emit(|| Event::FaultInjected {
                round,
                device: Some(j),
                kind: "contention".to_string(),
                magnitude: cont,
            });
        }
        let mut ds = self.injector.draw_stream(round, j);
        let transfer = lossy.transfer(
            self.model_bytes,
            0.0,
            &self.retry,
            &mut self.rng,
            &mut || ds.next_u01(),
        );
        for (i, &(el, cause)) in transfer.failures.iter().enumerate() {
            self.probe.emit(|| Event::TransferRetry {
                round,
                user: j,
                attempt: i + 1,
                cause: cause.as_str().to_string(),
                elapsed_s: el,
            });
        }
        if !transfer.delivered {
            self.probe.emit(|| Event::UserTimeout {
                round,
                user: j,
                cause: "comm".to_string(),
                shards_at_risk: k,
            });
            return Phase1::CommFail {
                elapsed: transfer.elapsed_s,
                shards: k,
            };
        }
        let comm = transfer.elapsed_s;
        let compute = self.devices[j].train_samples(&self.workload, samples)
            * cont
            * self.injector.slowdown(round, j);
        match fate {
            DeviceFate::Crash { at_frac } | DeviceFate::Depart { at_frac } => {
                let kind = if matches!(fate, DeviceFate::Depart { .. }) {
                    self.known_gone[j] = true;
                    "churn"
                } else {
                    "crash"
                };
                self.probe.emit(|| Event::FaultInjected {
                    round,
                    device: Some(j),
                    kind: kind.to_string(),
                    magnitude: at_frac,
                });
                self.probe.emit(|| Event::UserTimeout {
                    round,
                    user: j,
                    cause: kind.to_string(),
                    shards_at_risk: k,
                });
                Phase1::Fail {
                    t_fail: comm + at_frac * compute,
                    shards: k,
                }
            }
            _ => {
                let finish = comm + compute;
                // Mid-round process departure (`None` without a churn
                // process). Legacy fates take precedence above; a
                // departure fires only on the otherwise healthy path, and
                // only if it *strictly* precedes both the device's own
                // finish and any deadline (on a tie the deadline cut wins).
                if let Some(t_dep) = depart_at {
                    if t_dep < finish && deadline_s.is_none_or(|d| t_dep < d) {
                        self.known_gone[j] = true;
                        let cut = clock::deadline_cut(k, comm, compute, t_dep);
                        let done = if t_dep <= comm { 0 } else { cut.done };
                        if done > 0 {
                            self.probe.emit(|| Event::UserSpan {
                                round,
                                user: j,
                                compute_s: cut.span_compute,
                                comm_s: comm,
                            });
                            observed.push((j, done as f64 * current.shard_size, cut.span_compute));
                        }
                        self.probe.emit(|| Event::DeviceDepart {
                            round,
                            t_s: t_dep,
                            user: j,
                        });
                        self.probe.emit(|| Event::ShardsOrphaned {
                            round,
                            user: j,
                            shards: k - done,
                        });
                        return Phase1::Departed {
                            t: t_dep,
                            comm,
                            done,
                            at_risk: k - done,
                        };
                    }
                }
                match deadline_s {
                    Some(d) if finish > d => {
                        let cut = clock::deadline_cut(k, comm, compute, d);
                        self.probe.emit(|| Event::UserSpan {
                            round,
                            user: j,
                            compute_s: cut.span_compute,
                            comm_s: comm,
                        });
                        self.probe.emit(|| Event::UserTimeout {
                            round,
                            user: j,
                            cause: "deadline".to_string(),
                            shards_at_risk: k - cut.done,
                        });
                        observed.push((j, cut.done as f64 * current.shard_size, cut.span_compute));
                        Phase1::Cut {
                            comm,
                            done: cut.done,
                            at_risk: k - cut.done,
                        }
                    }
                    _ => {
                        self.probe.emit(|| Event::UserSpan {
                            round,
                            user: j,
                            compute_s: compute,
                            comm_s: comm,
                        });
                        observed.push((j, samples as f64, compute));
                        Phase1::Survivor {
                            finish,
                            comm,
                            compute,
                            shards: k,
                        }
                    }
                }
            }
        }
    }

    /// Phase 2: LPT-reassign the tally's unfinished pool to eligible
    /// survivors; each rescuer pays an extra transfer plus the reassigned
    /// compute, simulated on the real device model. Mutates the straggler
    /// track / per-user totals / profiler observations in place and
    /// returns the number of rescued shards.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn rescue_phase(
        &mut self,
        round: usize,
        lossy: &LossyLink,
        shard_size: f64,
        entries: &[(usize, Phase1)],
        tally: &RoundTally,
        track: &mut StragglerTrack,
        user_totals: &mut [f64],
        observed: &mut Vec<(usize, f64, f64)>,
    ) -> usize {
        let n = self.devices.len();
        struct Target {
            j: usize,
            avail: f64,
            per_shard: f64,
            assigned: usize,
        }
        let mut targets: Vec<Target> = entries
            .iter()
            .filter_map(|(j, e)| match e {
                Phase1::Survivor {
                    finish,
                    compute,
                    shards,
                    ..
                } if self.devices[*j].battery_soc() >= self.rescue_soc_floor => Some(Target {
                    j: *j,
                    avail: clock::rescue_available(*finish, tally.detection),
                    per_shard: compute / *shards as f64,
                    assigned: 0,
                }),
                _ => None,
            })
            .collect();
        if targets.is_empty() {
            return 0;
        }
        // `(from, to, shards)` reassignment ledger for telemetry.
        let mut ledger: Vec<(usize, usize, usize)> = Vec::new();
        for &(from, count) in &tally.pool {
            for _ in 0..count {
                let ti = targets
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        let ca = a.avail + (a.assigned + 1) as f64 * a.per_shard;
                        let cb = b.avail + (b.assigned + 1) as f64 * b.per_shard;
                        ca.partial_cmp(&cb).expect("finite rescue costs")
                    })
                    .map(|(i, _)| i)
                    .expect("targets non-empty");
                targets[ti].assigned += 1;
                let to = targets[ti].j;
                match ledger.iter_mut().find(|l| l.0 == from && l.1 == to) {
                    Some(l) => l.2 += 1,
                    None => ledger.push((from, to, 1)),
                }
            }
        }
        for &(from_user, to_user, shards) in &ledger {
            self.probe.emit(|| Event::ShardsReassigned {
                round,
                from_user,
                to_user,
                shards,
            });
        }
        // Execute in target index order so main-RNG consumption is a pure
        // function of the plan.
        let mut rescued = 0usize;
        for t in &targets {
            if t.assigned == 0 {
                continue;
            }
            let mut ds = self.injector.draw_stream(round, n + t.j);
            let transfer = lossy.transfer(
                self.model_bytes,
                t.avail,
                &self.retry,
                &mut self.rng,
                &mut || ds.next_u01(),
            );
            for (i, &(el, cause)) in transfer.failures.iter().enumerate() {
                self.probe.emit(|| Event::TransferRetry {
                    round,
                    user: t.j,
                    attempt: i + 1,
                    cause: cause.as_str().to_string(),
                    elapsed_s: el,
                });
            }
            if !transfer.delivered {
                self.probe.emit(|| Event::UserTimeout {
                    round,
                    user: t.j,
                    cause: "comm".to_string(),
                    shards_at_risk: t.assigned,
                });
                user_totals[t.j] += transfer.elapsed_s;
                track.observe(t.j, t.avail + transfer.elapsed_s, transfer.elapsed_s);
                continue;
            }
            let extra_samples = (t.assigned as f64 * shard_size) as usize;
            let cont = self.injector.contention(round, t.j);
            let compute = self.devices[t.j].train_samples(&self.workload, extra_samples)
                * cont
                * self.injector.slowdown(round, t.j);
            rescued += t.assigned;
            observed.push((t.j, extra_samples as f64, compute));
            user_totals[t.j] += transfer.elapsed_s + compute;
            track.observe(
                t.j,
                t.avail + transfer.elapsed_s + compute,
                transfer.elapsed_s,
            );
        }
        rescued
    }

    /// Robust aggregation overlay: when a (non-quiet) adversary is
    /// attached, the server scores every primary-phase delivery with the
    /// configured aggregator over low-dimensional proxy updates. The
    /// timing path has no parameter vectors, so deliveries are synthesized
    /// as a shared per-round direction plus per-user jitter — both from
    /// the plan's scoped draw streams — and the plan's attack transform is
    /// applied on top for compromised users. Nothing here touches the main
    /// RNG or round timing, and the whole block is skipped (zero events,
    /// zero draws) without an adversary, preserving trace byte-identity.
    pub(crate) fn robust_overlay(&self, round: usize, entries: &[(usize, Phase1)]) -> usize {
        let n = self.devices.len();
        let Some(plan) = &self.adversary else {
            return 0;
        };
        if plan.is_quiet() {
            return 0;
        }
        // `(user, shards delivered)` for phase-1 deliveries.
        let deliverers: Vec<(usize, usize)> = entries
            .iter()
            .filter_map(|(j, e)| match e {
                Phase1::Survivor { shards, .. } => Some((*j, *shards)),
                Phase1::Cut { done, .. } if *done > 0 => Some((*j, *done)),
                Phase1::Departed { done, .. } if *done > 0 => Some((*j, *done)),
                _ => None,
            })
            .collect();
        if deliverers.is_empty() {
            return 0;
        }
        let zeros = vec![0.0f32; PROXY_DIM];
        // Channels below `2 * n` are reserved for the plan's own attack
        // noise; proxy synthesis starts past them.
        let mut dir = plan.draw_stream(round, 2 * n);
        let direction: Vec<f32> = (0..PROXY_DIM)
            .map(|_| (dir.next_u01() * 2.0 - 1.0) as f32)
            .collect();
        let updates: Vec<(Vec<f32>, usize)> = deliverers
            .iter()
            .map(|&(j, shards)| {
                let mut jitter = plan.draw_stream(round, 2 * n + 1 + j);
                let mut u: Vec<f32> = direction
                    .iter()
                    .map(|&d| d + 0.1 * (jitter.next_u01() * 2.0 - 1.0) as f32)
                    .collect();
                plan.apply(round, j, &zeros, &mut u);
                (u, shards)
            })
            .collect();
        let agg = self.aggregator.build();
        let outcome = agg.aggregate(&updates);
        for &idx in &outcome.rejected {
            let user = deliverers[idx].0;
            let score = outcome.scores[idx];
            self.probe.emit(|| Event::UpdateRejected {
                round,
                user,
                aggregator: agg.name().to_string(),
                score,
            });
        }
        let rejected_updates = outcome.rejected.len();
        let mean_score = outcome.mean_score();
        self.probe.emit(|| Event::RobustAggregate {
            round,
            aggregator: agg.name().to_string(),
            n_updates: updates.len(),
            rejected: rejected_updates,
            mean_score,
        });
        rejected_updates
    }

    /// Close the round: degradation + round-end telemetry, advance the
    /// global round counter, fold `observed` into the online profilers,
    /// and produce the round's [`RoundOutcome`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn close_round(
        &mut self,
        round: usize,
        scheduled: usize,
        tally: &RoundTally,
        track: &StragglerTrack,
        rescued: usize,
        admitted: usize,
        admit_done: usize,
        rejected_updates: usize,
        observed: Vec<(usize, f64, f64)>,
    ) -> RoundOutcome {
        debug_assert!(admit_done <= admitted, "admission credit exceeds grant");
        let completed = tally.completed;
        let lost = tally.pool_total() - rescued;
        // Admitted work joins the denominator as well as the numerator, so
        // mid-round joiners can never push coverage above 1. With no churn
        // (`admitted == 0`) this is exactly the legacy formula.
        let coverage = if scheduled == 0 {
            1.0
        } else {
            (completed + rescued + admit_done) as f64 / (scheduled + admitted) as f64
        };
        if completed < scheduled {
            self.probe.emit(|| Event::RoundDegraded {
                round,
                scheduled,
                completed,
                rescued,
                lost,
                coverage,
            });
        }
        self.probe.emit(|| Event::RoundEnd {
            round,
            makespan_s: track.worst,
            straggler: track.straggler,
        });
        self.rounds_done += 1;
        if !self.profilers.is_empty() {
            for (j, samples, seconds) in observed {
                self.profilers[j].observe(samples, seconds);
            }
        }
        RoundOutcome {
            round,
            scheduled,
            completed,
            rescued,
            lost_shards: lost,
            admitted,
            admit_done,
            carried: admitted - admit_done,
            coverage,
            makespan_s: track.worst,
            failed_users: tally.failed_users,
            timed_out: tally.timed_out,
            rejected_updates,
        }
    }

    /// Between-round rescheduling: re-plan the *next* round from the
    /// online profiles fitted this round. Returns whether `current` was
    /// replaced — the caller rebuilds its active set when it was.
    pub(crate) fn maybe_reschedule(&mut self, current: &mut Schedule, orig_total: usize) -> bool {
        let n = self.devices.len();
        if let Some(rs) = &self.rescheduler {
            if self.rounds_done.is_multiple_of(rs.every) && orig_total > 0 {
                let comm_est = self.link.round_seconds(self.model_bytes);
                let profiles: Vec<LinearProfile> = (0..n)
                    .map(|j| {
                        if self.known_gone[j]
                            || (self.profilers[j].observations() == 0 && !self.has_prior)
                        {
                            LinearProfile::new(PENALTY_FIXED_S, PENALTY_PER_SAMPLE_S)
                        } else {
                            self.profilers[j].profile()
                        }
                    })
                    .collect();
                let costs = CostMatrix::from_profiles(
                    &profiles,
                    orig_total,
                    current.shard_size,
                    &vec![comm_est; n],
                );
                if let Ok(next) = rs.scheduler.schedule_traced(&costs, &self.probe) {
                    *current = next;
                    return true;
                }
            }
        }
        false
    }

    /// Bandit selection for the coming round: pick the cohort from devices
    /// not known gone, snapshot their SoC, emit `bandit_select`, and
    /// re-split the full shard load among the picked devices. Returns
    /// whether `current` was replaced — the caller rebuilds its active set
    /// when it was. A no-op without a policy attached, with nothing
    /// scheduled, or with every device known gone.
    pub(crate) fn selection_begin(&mut self, current: &mut Schedule, orig_total: usize) -> bool {
        let n = self.devices.len();
        let round = self.rounds_done;
        let Some(sel) = &mut self.selection else {
            return false;
        };
        if orig_total == 0 {
            return false;
        }
        let eligible: Vec<bool> = self.known_gone.iter().map(|&g| !g).collect();
        let avail = eligible.iter().filter(|&&e| e).count();
        if avail == 0 {
            return false;
        }
        let k = sel.config.k.min(avail);
        let mut stream = selection_stream(sel.seed, round as u64);
        let selected = sel.policy.select(&eligible, k, &mut stream);
        debug_assert!(!selected.is_empty(), "k >= 1 with an eligible device");
        for &j in &selected {
            sel.soc_at_select[j] = self.devices[j].battery_soc();
        }
        sel.last_selected = selected.clone();
        let policy_name = sel.policy.name();
        self.probe.emit(|| Event::BanditSelect {
            round,
            policy: policy_name.to_string(),
            k,
            selected: selected.clone(),
        });
        // Re-split the full load among the picked devices. Before any
        // profiler evidence exists the split is a plain equal division
        // (index-order remainder); afterwards the inner Fed-LBAP plans
        // over observed profiles, with unpicked/gone devices priced out
        // by the penalty profile and picked-but-unobserved devices given
        // the observed mean ("neutral") profile so exploration targets
        // are not starved before their first pull.
        let observed_profiles: Vec<LinearProfile> = selected
            .iter()
            .filter(|&&j| self.profilers[j].observations() > 0 || self.has_prior)
            .map(|&j| self.profilers[j].profile())
            .collect();
        if observed_profiles.is_empty() {
            let mut shards = vec![0usize; n];
            let base = orig_total / selected.len();
            let rem = orig_total % selected.len();
            for (i, &j) in selected.iter().enumerate() {
                shards[j] = base + usize::from(i < rem);
            }
            *current = Schedule::new(shards, current.shard_size);
            return true;
        }
        let m = observed_profiles.len() as f64;
        let neutral = LinearProfile::new(
            observed_profiles.iter().map(|p| p.fixed).sum::<f64>() / m,
            observed_profiles.iter().map(|p| p.per_sample).sum::<f64>() / m,
        );
        let comm_est = self.link.round_seconds(self.model_bytes);
        let profiles: Vec<LinearProfile> = (0..n)
            .map(|j| {
                if !selected.contains(&j) || self.known_gone[j] {
                    LinearProfile::new(PENALTY_FIXED_S, PENALTY_PER_SAMPLE_S)
                } else if self.profilers[j].observations() == 0 && !self.has_prior {
                    neutral.clone()
                } else {
                    self.profilers[j].profile()
                }
            })
            .collect();
        let costs = CostMatrix::from_profiles(
            &profiles,
            orig_total,
            current.shard_size,
            &vec![comm_est; n],
        );
        if let Ok(next) = FedLbap.schedule_traced(&costs, &self.probe) {
            *current = next;
            return true;
        }
        false
    }

    /// Credit this round's picked arms: observed throughput (samples per
    /// second over everything the server received from the device this
    /// round) discounted by the battery drawn since selection; picked
    /// devices that delivered nothing earn `0.0`. Emits one
    /// `bandit_reward` event per picked arm, in device-index order.
    pub(crate) fn selection_settle(&mut self, round: usize, observed: &[(usize, f64, f64)]) {
        let Some(sel) = &mut self.selection else {
            return;
        };
        if sel.last_selected.is_empty() {
            return;
        }
        let selected = std::mem::take(&mut sel.last_selected);
        for &j in &selected {
            let (mut samples, mut seconds) = (0.0f64, 0.0f64);
            for &(dev, s, t) in observed {
                if dev == j {
                    samples += s;
                    seconds += t;
                }
            }
            let soc_drop = (sel.soc_at_select[j] - self.devices[j].battery_soc()).max(0.0);
            let reward = if samples > 0.0 && seconds > 0.0 {
                (samples / seconds) / (1.0 + soc_drop)
            } else {
                0.0
            };
            sel.policy.update(j, reward);
            let mean = sel.policy.mean(j);
            let pulls = sel.policy.pulls(j) as usize;
            self.probe.emit(|| Event::BanditReward {
                round,
                user: j,
                reward,
                mean,
                pulls,
            });
        }
    }

    /// Whether a selection policy is attached (the round loop clones the
    /// observation list for reward settlement only when one is).
    pub(crate) fn selection_active(&self) -> bool {
        self.selection.is_some()
    }

    /// Round index the next per-round primitive call will use.
    pub(crate) fn current_round(&self) -> usize {
        self.rounds_done
    }

    /// Whether mid-round straggler rescue is enabled.
    pub(crate) fn rescue_enabled(&self) -> bool {
        self.rescue
    }

    /// Clone of the attached probe — the round loop emits round framing
    /// (`round_start`) itself before delegating to the primitives.
    pub(crate) fn probe_handle(&self) -> Probe {
        self.probe.clone()
    }

    /// Flip the server's "gone for good" flag for a device. The round loop
    /// sets it on a process departure (the rescheduler then starves the
    /// device exactly like a legacy `DeviceFate::Departed`) and clears it
    /// when the device re-arrives under a non-`Reject` admission policy.
    pub(crate) fn set_known_gone(&mut self, j: usize, gone: bool) {
        self.known_gone[j] = gone;
    }

    /// Mid-round admission: hand `shards` orphaned shards to an arrived
    /// `joiner`, starting at `start` (its arrival clamped by failure
    /// detection — [`clock::admission_start`]). The joiner pays a model
    /// transfer plus the assigned compute on the real device model, on
    /// fault channel `3n + 1 + joiner` (disjoint from phase-1 `0..n` and
    /// rescue `n..2n`). Honors the rescue SoC floor.
    ///
    /// Returns `None` when the joiner is ineligible (below the SoC floor:
    /// nothing is granted, nothing emitted), otherwise `Some(done)` — the
    /// shards actually completed (`0` when the transfer failed; the grant
    /// itself is then *carried*, not lost twice).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn admission_phase(
        &mut self,
        round: usize,
        lossy: &LossyLink,
        shard_size: f64,
        joiner: usize,
        start: f64,
        shards: usize,
        track: &mut StragglerTrack,
        user_totals: &mut [f64],
        observed: &mut Vec<(usize, f64, f64)>,
    ) -> Option<usize> {
        if self.devices[joiner].battery_soc() < self.rescue_soc_floor {
            return None;
        }
        self.probe.emit(|| Event::MidRoundAdmit {
            round,
            t_s: start,
            user: joiner,
            shards,
        });
        let n = self.devices.len();
        let mut ds = self.injector.draw_stream(round, 3 * n + 1 + joiner);
        let transfer = lossy.transfer(
            self.model_bytes,
            start,
            &self.retry,
            &mut self.rng,
            &mut || ds.next_u01(),
        );
        for (i, &(el, cause)) in transfer.failures.iter().enumerate() {
            self.probe.emit(|| Event::TransferRetry {
                round,
                user: joiner,
                attempt: i + 1,
                cause: cause.as_str().to_string(),
                elapsed_s: el,
            });
        }
        if !transfer.delivered {
            self.probe.emit(|| Event::UserTimeout {
                round,
                user: joiner,
                cause: "comm".to_string(),
                shards_at_risk: shards,
            });
            user_totals[joiner] += transfer.elapsed_s;
            track.observe(joiner, start + transfer.elapsed_s, transfer.elapsed_s);
            return Some(0);
        }
        let samples = (shards as f64 * shard_size) as usize;
        let cont = self.injector.contention(round, joiner);
        let compute = self.devices[joiner].train_samples(&self.workload, samples)
            * cont
            * self.injector.slowdown(round, joiner);
        observed.push((joiner, samples as f64, compute));
        user_totals[joiner] += transfer.elapsed_s + compute;
        track.observe(
            joiner,
            start + transfer.elapsed_s + compute,
            transfer.elapsed_s,
        );
        Some(shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{RoundConfig, SimBuilder};
    use crate::eventsim::EventRoundSim;
    use fedsched_device::Testbed;
    use fedsched_faults::FaultConfig;

    /// Run `rounds` rounds of `state` on the event core.
    fn run(state: ResilientRoundSim, schedule: &Schedule, rounds: usize) -> ChaosReport {
        EventRoundSim::new(state).run(schedule, rounds)
    }

    fn devices(seed: u64) -> Vec<Device> {
        Testbed::testbed_1(seed).devices().to_vec()
    }

    fn link() -> Link {
        Link::new(100.0, 100.0, 0.0, 0.05)
    }

    fn schedule() -> Schedule {
        Schedule::new(vec![10, 10, 10], 100.0)
    }

    /// The quiet `RoundSim` report of [`quiet_run_is_bit_identical_to_roundsim`],
    /// frozen (FNV-1a 64 of its `Debug` text) before every round ran on
    /// the event core.
    const QUIET_PIN: u64 = 0x4892c6d53932cb48;

    #[test]
    fn quiet_run_is_bit_identical_to_roundsim() {
        let config = RoundConfig::new(TrainingWorkload::lenet(), link(), 2.5e6, 11);
        let mut plain = SimBuilder::new(devices(11), config).build_sim().unwrap();
        let resilient = ResilientRoundSim::from_parts(
            devices(11),
            TrainingWorkload::lenet(),
            link(),
            2.5e6,
            11,
            FaultInjector::quiet(3),
        );
        let a = plain.run(&schedule(), 4);
        let b = run(resilient, &schedule(), 4);
        let got = fedsched_core::json::fnv1a64(format!("{a:?}").as_bytes());
        assert_eq!(got, QUIET_PIN, "quiet output drifted: {got:#018x}");
        assert_eq!(a, b.timing, "quiet chaos must not perturb the simulation");
        for r in &b.rounds {
            assert_eq!(r.completed, 30);
            assert_eq!(r.lost_shards, 0);
            assert_eq!(r.coverage, 1.0);
        }
    }

    #[test]
    fn same_seed_replays_identically() {
        let config = FaultConfig::none()
            .with_crash_prob(0.3)
            .with_loss_prob(0.1)
            .with_contention(0.2, 1.5);
        let run = || {
            let inj = FaultInjector::from_config(config.clone(), 3, 10, 77);
            let sim = ResilientRoundSim::from_parts(
                devices(7),
                TrainingWorkload::lenet(),
                link(),
                2.5e6,
                7,
                inj,
            )
            .with_retry(RetryPolicy::default_chaos())
            .with_deadline_policy(DeadlinePolicy::Fixed(60.0));
            run(sim, &schedule(), 10)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn shard_accounting_is_conserved_every_round() {
        let config = FaultConfig::none()
            .with_crash_prob(0.4)
            .with_churn_prob(0.05)
            .with_loss_prob(0.2)
            .with_outages(0.3, 40.0, 10.0);
        let inj = FaultInjector::from_config(config, 3, 12, 5);
        let sim = ResilientRoundSim::from_parts(
            devices(5),
            TrainingWorkload::lenet(),
            link(),
            2.5e6,
            5,
            inj,
        )
        .with_retry(RetryPolicy::default_chaos())
        .with_deadline_policy(DeadlinePolicy::Fixed(45.0));
        let report = run(sim, &schedule(), 12);
        for r in &report.rounds {
            assert_eq!(
                r.completed + r.rescued + r.lost_shards,
                r.scheduled,
                "round {}: {} + {} + {} != {}",
                r.round,
                r.completed,
                r.rescued,
                r.lost_shards,
                r.scheduled
            );
            assert!((0.0..=1.0).contains(&r.coverage));
        }
    }

    #[test]
    fn rescue_recovers_shards_lost_without_it() {
        let config = FaultConfig::none().with_crash_prob(0.35);
        let run = |rescue: bool| {
            let inj = FaultInjector::from_config(config.clone(), 3, 15, 21);
            let mut sim = ResilientRoundSim::from_parts(
                devices(21),
                TrainingWorkload::lenet(),
                link(),
                2.5e6,
                21,
                inj,
            )
            .with_deadline_policy(DeadlinePolicy::Fixed(60.0));
            if !rescue {
                sim = sim.without_rescue();
            }
            run(sim, &schedule(), 15)
        };
        let with = run(true);
        let without = run(false);
        assert!(without.total_lost() > 0, "chaos config should cause losses");
        assert!(
            with.total_lost() < without.total_lost(),
            "rescue {} !< no-rescue {}",
            with.total_lost(),
            without.total_lost()
        );
        assert_eq!(
            with.total_rescued() + with.total_lost(),
            without.total_lost()
        );
    }

    #[test]
    fn deadline_caps_phase_one_makespan() {
        let sim = ResilientRoundSim::from_parts(
            devices(9),
            TrainingWorkload::lenet(),
            link(),
            2.5e6,
            9,
            FaultInjector::quiet(3),
        )
        .with_deadline_policy(DeadlinePolicy::Fixed(5.0))
        .without_rescue();
        let report = run(sim, &schedule(), 3);
        for r in &report.rounds {
            assert!(r.makespan_s <= 5.0 + 1e-9, "makespan {}", r.makespan_s);
            assert!(r.timed_out > 0);
            assert!(r.lost_shards > 0);
        }
    }

    #[test]
    fn rescheduler_starves_departed_devices() {
        use fedsched_core::lbap::FedLbap;
        // Device 0 churns out in round 0 with certainty.
        let config = FaultConfig::none().with_churn_prob(1.0);
        let inj = FaultInjector::from_config(config, 3, 1, 2);
        let sim = ResilientRoundSim::from_parts(
            devices(13),
            TrainingWorkload::lenet(),
            link(),
            2.5e6,
            13,
            inj,
        )
        .with_rescheduler(Box::new(FedLbap), 1);
        let report = run(sim, &schedule(), 4);
        // After round 0 every device is known gone... all three churn in
        // round 0, so later rounds keep the old schedule only if the
        // scheduler fails; coverage must collapse to zero from round 1 on
        // (everyone is Departed).
        assert!(report.rounds[1..].iter().all(|r| r.completed == 0));
    }

    #[test]
    fn rescue_respects_battery_soc_floor() {
        // Find a seed whose plan crashes device 1 in round 0 and leaves
        // device 0 healthy, so device 0 is the round's only rescue target.
        let config = FaultConfig::none().with_crash_prob(0.5);
        let seed = (0..200u64)
            .find(|&s| {
                let inj = FaultInjector::from_config(config.clone(), 2, 1, s);
                matches!(inj.fate(0, 0), DeviceFate::Healthy)
                    && matches!(inj.fate(0, 1), DeviceFate::Crash { .. })
            })
            .expect("some seed crashes exactly device 1");
        let run = |floor: Option<f64>| {
            let mut devs = devices(31);
            devs.truncate(2);
            // The only survivor enters the round nearly empty.
            devs[0].set_battery_soc(0.05);
            let inj = FaultInjector::from_config(config.clone(), 2, 1, seed);
            let mut sim = ResilientRoundSim::from_parts(
                devs,
                TrainingWorkload::lenet(),
                link(),
                2.5e6,
                31,
                inj,
            );
            if let Some(f) = floor {
                sim = sim.with_rescue_soc_floor(f);
            }
            run(sim, &Schedule::new(vec![5, 5], 100.0), 1)
        };

        // Without a floor the critical device absorbs the orphaned shards.
        let greedy = run(None);
        assert_eq!(greedy.total_rescued(), 5);
        assert_eq!(greedy.total_lost(), 0);

        // With the floor it is protected: the shards are lost instead.
        let guarded = run(Some(0.3));
        assert_eq!(guarded.total_rescued(), 0);
        assert_eq!(guarded.total_lost(), 5);
        assert_eq!(guarded.rounds[0].completed, 5);

        // A floor below the survivor's SoC changes nothing.
        let permissive = run(Some(0.01));
        assert_eq!(permissive.total_rescued(), 5);
    }

    #[test]
    fn zero_soc_floor_is_bit_identical_to_default() {
        let config = FaultConfig::none().with_crash_prob(0.3).with_loss_prob(0.1);
        let run = |explicit_floor: bool| {
            let inj = FaultInjector::from_config(config.clone(), 3, 8, 17);
            let mut sim = ResilientRoundSim::from_parts(
                devices(17),
                TrainingWorkload::lenet(),
                link(),
                2.5e6,
                17,
                inj,
            )
            .with_retry(RetryPolicy::default_chaos());
            if explicit_floor {
                sim = sim.with_rescue_soc_floor(0.0);
            }
            run(sim, &schedule(), 8)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "rescue SoC floor must be in [0, 1]")]
    fn out_of_range_soc_floor_panics() {
        let _ = ResilientRoundSim::from_parts(
            devices(1),
            TrainingWorkload::lenet(),
            link(),
            2.5e6,
            1,
            FaultInjector::quiet(3),
        )
        .with_rescue_soc_floor(1.5);
    }

    #[test]
    fn probed_and_unprobed_chaos_runs_agree() {
        use fedsched_telemetry::EventLog;
        use std::sync::Arc;
        let config = FaultConfig::none()
            .with_crash_prob(0.3)
            .with_loss_prob(0.15);
        let run = |probe: Option<Probe>| {
            let inj = FaultInjector::from_config(config.clone(), 3, 8, 3);
            let mut sim = ResilientRoundSim::from_parts(
                devices(3),
                TrainingWorkload::lenet(),
                link(),
                2.5e6,
                3,
                inj,
            )
            .with_retry(RetryPolicy::default_chaos())
            .with_deadline_policy(DeadlinePolicy::Fixed(50.0));
            if let Some(p) = probe {
                sim = sim.with_probe(p);
            }
            run(sim, &schedule(), 8)
        };
        let log = Arc::new(EventLog::new());
        let plain = run(None);
        let probed = run(Some(Probe::attached(log.clone())));
        assert_eq!(plain, probed, "observation must not perturb the run");
        assert!(!log.is_empty());
    }

    #[test]
    fn quiet_adversary_is_bit_identical_to_no_adversary() {
        use fedsched_faults::{AdversaryConfig, AdversaryPlan};
        use fedsched_telemetry::EventLog;
        use std::sync::Arc;
        let config = FaultConfig::none().with_crash_prob(0.2).with_loss_prob(0.1);
        let run = |adversary: Option<AdversaryPlan>, kind: AggregatorKind| {
            let log = Arc::new(EventLog::new());
            let inj = FaultInjector::from_config(config.clone(), 3, 6, 41);
            let mut sim = ResilientRoundSim::from_parts(
                devices(41),
                TrainingWorkload::lenet(),
                link(),
                2.5e6,
                41,
                inj,
            )
            .with_probe(Probe::attached(log.clone()))
            .with_aggregator(kind);
            if let Some(plan) = adversary {
                sim = sim.with_adversary(plan);
            }
            let report = run(sim, &schedule(), 6);
            (report, log.to_jsonl())
        };
        let baseline = run(None, AggregatorKind::FedAvg);
        for kind in [
            AggregatorKind::FedAvg,
            AggregatorKind::TrimmedMean { trim: 1 },
            AggregatorKind::Median,
            AggregatorKind::Krum { f: 1 },
        ] {
            let quiet = AdversaryPlan::generate(AdversaryConfig::none(), 3, 6, 41);
            let got = run(Some(quiet), kind);
            assert_eq!(
                baseline,
                got,
                "{}: quiet adversary must be invisible",
                kind.name()
            );
        }
    }

    #[test]
    fn attacked_round_scores_and_rejects_updates() {
        use fedsched_faults::{AdversaryConfig, AdversaryPlan, AttackKind};
        use fedsched_telemetry::EventLog;
        use std::sync::Arc;
        let adv = AdversaryConfig::none().with_attackers(0.34, AttackKind::Boost { factor: 50.0 });
        // Find a seed whose plan compromises exactly one of the 3 devices,
        // so honest updates outnumber attacked ones and Krum can isolate it.
        let seed = (0..200u64)
            .find(|&s| {
                let p = AdversaryPlan::generate(adv, 3, 6, s);
                (0..3).filter(|&j| p.is_compromised(j)).count() == 1
            })
            .expect("some seed compromises exactly one device");
        let plan = AdversaryPlan::generate(adv, 3, 6, seed);
        let log = Arc::new(EventLog::new());
        let sim = ResilientRoundSim::from_parts(
            devices(9),
            TrainingWorkload::lenet(),
            link(),
            2.5e6,
            9,
            FaultInjector::quiet(3),
        )
        .with_probe(Probe::attached(log.clone()))
        .with_aggregator(AggregatorKind::MultiKrum { f: 1, k: 2 })
        .with_adversary(plan);
        let report = run(sim, &schedule(), 6);
        let total_rejected: usize = report.rounds.iter().map(|r| r.rejected_updates).sum();
        assert!(
            total_rejected > 0,
            "multi-krum must exclude boosted updates"
        );
        let events = log.events();
        assert!(events.iter().any(|e| e.kind() == "update_rejected"));
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind() == "robust_aggregate")
                .count(),
            6,
            "one robust_aggregate per round"
        );
    }

    #[test]
    fn group_outage_downs_the_domain_and_emits_events() {
        use fedsched_telemetry::EventLog;
        use std::sync::Arc;
        let config = FaultConfig::none().with_group_outages(1.0, 3, 1);
        let inj = FaultInjector::from_config(config, 6, 2, 23);
        let log = Arc::new(EventLog::new());
        let mut devs = devices(23);
        devs.extend(devices(24));
        devs.truncate(6);
        let sim =
            ResilientRoundSim::from_parts(devs, TrainingWorkload::lenet(), link(), 2.5e6, 23, inj)
                .with_probe(Probe::attached(log.clone()));
        let report = run(sim, &Schedule::new(vec![5; 6], 100.0), 2);
        // Probability 1 downs every domain every round: nothing completes.
        assert!(report.rounds.iter().all(|r| r.completed == 0));
        let outages: Vec<_> = log
            .events()
            .into_iter()
            .filter(|e| e.kind() == "group_outage")
            .collect();
        assert_eq!(outages.len(), 6, "3 groups x 2 rounds");
    }

    #[test]
    #[should_panic(expected = "adversary plan/cohort size mismatch")]
    fn wrong_adversary_arity_panics() {
        use fedsched_faults::{AdversaryConfig, AdversaryPlan};
        let plan = AdversaryPlan::generate(AdversaryConfig::none(), 5, 2, 1);
        let _ = ResilientRoundSim::from_parts(
            devices(1),
            TrainingWorkload::lenet(),
            link(),
            2.5e6,
            1,
            FaultInjector::quiet(3),
        )
        .with_adversary(plan);
    }

    #[test]
    #[should_panic(expected = "multi_krum needs k >= 1")]
    fn invalid_aggregator_kind_panics() {
        let _ = ResilientRoundSim::from_parts(
            devices(1),
            TrainingWorkload::lenet(),
            link(),
            2.5e6,
            1,
            FaultInjector::quiet(3),
        )
        .with_aggregator(AggregatorKind::MultiKrum { f: 1, k: 0 });
    }

    #[test]
    #[should_panic(expected = "fault plan/cohort size mismatch")]
    fn wrong_injector_arity_panics() {
        let _ = ResilientRoundSim::from_parts(
            devices(1),
            TrainingWorkload::lenet(),
            link(),
            2.5e6,
            1,
            FaultInjector::quiet(2),
        );
    }
}
