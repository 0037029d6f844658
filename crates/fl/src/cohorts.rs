//! The population engine: shard a large population into cohorts,
//! simulate cohorts concurrently, merge deterministically — with optional
//! population-level stages on top.
//!
//! A round is inherently sequential: one RNG stream consumed in
//! device-index order. [`ParallelRoundEngine`] scales it out by making the
//! **cohort** the unit of parallelism instead of the device. The population
//! is partitioned into fixed, contiguous cohorts ([`fixed_chunks`]); each
//! cohort owns a self-contained [`EventRoundSim`] (quiet, or fault-injected
//! when chaos is configured) seeded from [`derive_cohort_seed`], so a
//! cohort's timeline depends only on the master seed and its index — never
//! on which worker thread simulated it or in what order.
//!
//! # Stages
//!
//! The build target picks at most one population-level stage to run
//! around the cohorts; without one the cohorts fold straight into the
//! population:
//!
//! * **Global deadline** (`coordinator` target with a deadline policy):
//!   before each round the engine pools side-effect-free predicted
//!   per-user times across *every* cohort, resolves the
//!   [`DeadlinePolicy`] once, and pushes the single cutoff into every
//!   cohort ([`Event::GlobalDeadlineSet`]). After the round it names the
//!   cohorts that set the makespan or had users cut
//!   ([`Event::CohortStraggling`]). The `engine` and `hier` targets
//!   resolve deadlines per cohort instead.
//! * **Buffered async** (`coordinator` target with `buffered_async`): the
//!   cohorts simulate as usual, then aggregation is re-timed — each cohort
//!   reports in at its own cumulative pace, and the server merges every
//!   `buffer` arrivals with the FedAsync staleness discount
//!   ([`staleness_weight`], [`Event::AsyncMerge`]). Clocks, versions and
//!   the buffer persist across `run` calls.
//! * **Edge tier** (`hier` target with a non-trivial topology): edge
//!   aggregators reduce contiguous cohort spans and the server reduces the
//!   edges (see [`tier`](crate::tier)). The default topology — one edge
//!   per cohort, no backhaul, FedAvg at both tiers — has no tier at all
//!   and runs exactly the flat path.
//!
//! # Determinism contract
//!
//! * The engine's output is a pure function of (population, master seed,
//!   cohort size, chaos options, stage). Thread count affects wall-clock
//!   only: results are collected into index-ordered slots and merged by a
//!   fold in cohort order, so every report and the spliced event log are
//!   bit-identical at 1 thread and at N threads. Everything a stage adds
//!   is arithmetic over those outputs on the control thread.
//! * Cohort 0 continues the master RNG stream verbatim
//!   (`derive_cohort_seed(seed, 0) == seed`), so an engine whose cohort
//!   size covers the whole population produces byte-for-byte the output of
//!   the sequential `sim` / `resilient` targets built with the same master
//!   seed. `tests/parallel_identity.rs` pins this differentially.
//! * Cohort sims live as long as the engine: repeated [`run`] calls
//!   continue each cohort's RNG stream, thermal state and round numbering
//!   exactly like repeated runs of a long-lived sequential sim.
//!
//! # Merge semantics
//!
//! With more than one cohort the aggregates are defined as: per-round
//! makespan is the max across cohorts (a synchronous server waits for the
//! slowest cohort); per-user means are concatenated in population order;
//! the comm fraction is the participant-weighted mean of cohort comm
//! fractions; chaos round outcomes sum their shard counts and recompute
//! coverage. The edge tier folds with the same function (`fold`).
//! Telemetry from each cohort is buffered per-cohort during the parallel
//! phase and spliced into the engine's probe in cohort order, with user
//! indices remapped to population indices ([`Event::with_user_offset`]).
//!
//! [`run`]: ParallelRoundEngine::run

use std::ops::Range;
use std::sync::{Arc, Mutex};

use fedsched_bandit::SelectionConfig;
use fedsched_core::{DeadlinePolicy, EventQueue, Schedule};
use fedsched_device::{Device, TrainingWorkload};
use fedsched_faults::{AdversaryConfig, AdversaryPlan, FaultConfig, FaultInjector};
use fedsched_net::{Link, RetryPolicy};
use fedsched_parallel::{fixed_chunks, parallel_map_stealing, recommended_threads};
use fedsched_robust::AggregatorKind;
use fedsched_telemetry::{Event, EventLog, Probe};
use serde::Serialize;

use crate::asyncfl::staleness_weight;
use crate::builder::RoundConfig;
use crate::eventsim::{AdmissionPolicy, EventRoundSim};
use crate::resilient::{ResilientRoundSim, RoundOutcome};
use crate::roundsim::{predict_round_times, TimingReport};
use crate::tier::EdgeTier;

/// Former per-cohort execution-core choice, kept as a wire value.
///
/// Every round runs on the event core ([`EventRoundSim`]), so neither
/// kind selects any code: the value is accepted for wire compatibility
/// (spec fingerprints, stored snapshots) and by
/// [`SimBuilder::engine_kind`](crate::SimBuilder::engine_kind), which
/// still gates the configurations each kind used to accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The former device-sweep core (the default).
    #[default]
    Lockstep,
    /// The discrete-event core; required on engine-family targets for
    /// [`churn`](crate::SimBuilder::churn).
    EventDriven,
}

/// Default devices per cohort. Large enough that the per-cohort setup cost
/// is amortized, small enough that a 10k-device population spreads over
/// every worker of a typical pool.
pub const DEFAULT_COHORT_SIZE: usize = 64;

/// Most worker threads an engine runs, whatever was requested. Results do
/// not depend on the thread count, so the cap bounds what one job can ask
/// of the host without changing any output.
pub(crate) const MAX_ENGINE_THREADS: usize = 64;

/// Environment variable overriding the engine's default thread count.
pub const THREADS_ENV: &str = "FEDSCHED_THREADS";

/// Seed for cohort `cohort` derived from `master`.
///
/// Cohort 0 continues the master stream unchanged — this is what makes a
/// single-cohort engine bit-identical to a sequential sim seeded with
/// `master`. Later cohorts get decorrelated streams via splitmix64 over
/// `master ⊕ (cohort · φ64)`.
pub fn derive_cohort_seed(master: u64, cohort: usize) -> u64 {
    if cohort == 0 {
        return master;
    }
    // splitmix64 finalizer over the (master, cohort) pair.
    let mut z = master ^ (cohort as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Default thread count for new engines: `FEDSCHED_THREADS` when set to a
/// positive integer, otherwise [`recommended_threads`]. The env override
/// lets CI force a multi-worker pool on single-core runners (and vice
/// versa) without touching call sites.
pub fn default_engine_threads() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(recommended_threads)
}

/// Fault-model configuration for one scheduling domain (a sequential sim
/// or every engine cohort), built from the [`SimBuilder`](crate::SimBuilder)
/// knobs. The engine instantiates one injector per cohort from `config`,
/// planned for that cohort's size and derived seed.
#[derive(Debug, Clone)]
pub(crate) struct ChaosOptions {
    /// Fault probabilities (crash, loss, churn, contention, outages).
    pub(crate) config: FaultConfig,
    /// Rounds each cohort's fault plan is generated for. Running past this
    /// horizon is fault-free, exactly like `FaultPlan::generate`.
    pub(crate) planned_rounds: usize,
    /// Retry policy applied to every transfer.
    pub(crate) retry: RetryPolicy,
    /// Per-round deadline policy, resolved per cohort (adaptive policies
    /// pool *that cohort's* predicted times; the global-deadline stage
    /// pools the population instead).
    pub(crate) deadline: DeadlinePolicy,
    /// Whether mid-round straggler rescue is enabled.
    pub(crate) rescue: bool,
    /// Battery SoC floor below which survivors are exempt from rescue work.
    pub(crate) rescue_soc_floor: f64,
    /// Robust aggregation rule every cohort scores deliveries with
    /// (cohort-local scoring; population-level filtering is rolled up by
    /// [`fold`] into [`RoundOutcome::rejected_updates`]).
    pub(crate) aggregator: AggregatorKind,
    /// Adversary model and its planned horizon, instantiated per cohort:
    /// each cohort derives its own [`AdversaryPlan`] from the cohort's
    /// size and seed — exactly like fault plans.
    pub(crate) adversary: Option<(AdversaryConfig, usize)>,
    /// Mid-round arrival admission policy, applied to every cohort.
    pub(crate) admission: AdmissionPolicy,
    /// Online bandit-driven client selection, applied per cohort: each
    /// cohort's policy picks its own `k`-device sub-cohort every round.
    pub(crate) selection: Option<SelectionConfig>,
}

impl ChaosOptions {
    /// Chaos options with the resilient defaults: single-attempt transfers,
    /// no deadline, rescue enabled, no SoC floor.
    pub(crate) fn new(config: FaultConfig, planned_rounds: usize) -> Self {
        ChaosOptions {
            config,
            planned_rounds,
            retry: RetryPolicy::single_attempt(),
            deadline: DeadlinePolicy::Off,
            rescue: true,
            rescue_soc_floor: 0.0,
            aggregator: AggregatorKind::FedAvg,
            adversary: None,
            admission: AdmissionPolicy::default(),
            selection: None,
        }
    }

    /// Apply these options to the round state of one `n`-device domain
    /// with seed `seed`, from which its adversary plan derives.
    pub(crate) fn configure(
        &self,
        state: ResilientRoundSim,
        n: usize,
        seed: u64,
    ) -> ResilientRoundSim {
        let mut state = state
            .with_retry(self.retry)
            .with_deadline_policy(self.deadline)
            .with_rescue_soc_floor(self.rescue_soc_floor)
            .with_aggregator(self.aggregator);
        if !self.rescue {
            state = state.without_rescue();
        }
        if let Some((adv, adv_rounds)) = self.adversary {
            state = state.with_adversary(AdversaryPlan::generate(adv, n, adv_rounds, seed));
        }
        if let Some(selection) = self.selection {
            state = state.with_selection(selection);
        }
        state
    }
}

/// One cohort's contribution to an engine run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CohortReport {
    /// First population index of this cohort (inclusive).
    pub start: usize,
    /// One past the last population index of this cohort.
    pub end: usize,
    /// The cohort's derived RNG seed.
    pub seed: u64,
    /// The cohort's own timing report (user indices are cohort-local).
    pub timing: TimingReport,
    /// Per-round fault outcomes. On a quiet engine everything scheduled
    /// completes, so the report shape does not depend on whether chaos
    /// was configured.
    pub rounds: Vec<RoundOutcome>,
}

/// Aggregate result of one [`ParallelRoundEngine::run`] call, on every
/// population target.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EngineReport {
    /// Population-wide timing, shape-compatible with
    /// [`RoundSim`](crate::RoundSim) output:
    /// per-round makespan is the max across cohorts (across edges, backhaul
    /// included, when an edge tier runs), per-user means are in population
    /// order.
    pub timing: TimingReport,
    /// Population-wide per-round outcomes (shard counts summed across
    /// cohorts, coverage recomputed).
    pub rounds: Vec<RoundOutcome>,
    /// Per-cohort breakdowns, in cohort order.
    pub cohorts: Vec<CohortReport>,
}

impl EngineReport {
    /// Mean per-round coverage across the population.
    pub fn mean_coverage(&self) -> f64 {
        if self.rounds.is_empty() {
            return 1.0;
        }
        self.rounds.iter().map(|r| r.coverage).sum::<f64>() / self.rounds.len() as f64
    }

    /// Total shards lost across all rounds.
    pub fn total_lost(&self) -> usize {
        self.rounds.iter().map(|r| r.lost_shards).sum()
    }
}

/// Fold `(timing, rounds, participants)` items — cohorts into the
/// population, or edges into the server — into one timing report and one
/// outcome per round: makespans take the max, per-user means concatenate,
/// the comm fraction is the participant-weighted mean, shard counts sum
/// and coverage is recomputed. A single item passes through verbatim, so
/// one cohort (or one edge) is bit-identical to what it folds.
pub(crate) fn fold<'a>(
    mut items: impl ExactSizeIterator<Item = (&'a TimingReport, &'a [RoundOutcome], usize)>,
    rounds: usize,
    first_round: usize,
) -> (TimingReport, Vec<RoundOutcome>) {
    if items.len() == 1 {
        let (timing, item_rounds, _) = items.next().expect("one item");
        return (timing.clone(), item_rounds.to_vec());
    }

    let mut per_round_makespan = vec![0.0f64; rounds];
    let mut per_user_mean = Vec::new();
    let mut comm_weighted = 0.0f64;
    let mut total_participants = 0usize;
    let mut merged_rounds: Vec<RoundOutcome> = (0..rounds)
        .map(|r| RoundOutcome {
            round: first_round + r,
            scheduled: 0,
            completed: 0,
            rescued: 0,
            lost_shards: 0,
            admitted: 0,
            admit_done: 0,
            carried: 0,
            coverage: 1.0,
            makespan_s: 0.0,
            failed_users: 0,
            timed_out: 0,
            rejected_updates: 0,
        })
        .collect();

    for (timing, item_rounds, participants) in items {
        for (r, &m) in timing.per_round_makespan.iter().enumerate() {
            if m > per_round_makespan[r] {
                per_round_makespan[r] = m;
            }
        }
        per_user_mean.extend_from_slice(&timing.per_user_mean);
        comm_weighted += timing.comm_fraction * participants as f64;
        total_participants += participants;

        for (merged, outcome) in merged_rounds.iter_mut().zip(item_rounds) {
            debug_assert_eq!(merged.round, outcome.round, "round indices diverged");
            merged.scheduled += outcome.scheduled;
            merged.completed += outcome.completed;
            merged.rescued += outcome.rescued;
            merged.lost_shards += outcome.lost_shards;
            merged.admitted += outcome.admitted;
            merged.admit_done += outcome.admit_done;
            merged.carried += outcome.carried;
            merged.failed_users += outcome.failed_users;
            merged.timed_out += outcome.timed_out;
            merged.rejected_updates += outcome.rejected_updates;
            if outcome.makespan_s > merged.makespan_s {
                merged.makespan_s = outcome.makespan_s;
            }
        }
    }

    for merged in &mut merged_rounds {
        merged.coverage = if merged.scheduled == 0 {
            1.0
        } else {
            (merged.completed + merged.rescued + merged.admit_done) as f64
                / (merged.scheduled + merged.admitted) as f64
        };
    }

    (
        TimingReport {
            per_round_makespan,
            per_user_mean,
            comm_fraction: if total_participants == 0 {
                0.0
            } else {
                comm_weighted / total_participants as f64
            },
        },
        merged_rounds,
    )
}

/// A cohort and its long-lived simulator. The `Mutex` is never contended —
/// each work item touches exactly one slot — it exists to hand `&mut`
/// access to whichever worker claims the cohort.
struct CohortSlot {
    range: Range<usize>,
    seed: u64,
    sim: Mutex<Box<EventRoundSim>>,
    /// Per-cohort event buffer; `Some` iff the engine probe is enabled.
    log: Option<Arc<EventLog>>,
}

impl CohortSlot {
    /// Exclusive access to the cohort's simulator.
    fn sim(&self) -> std::sync::MutexGuard<'_, Box<EventRoundSim>> {
        self.sim
            .lock()
            .expect("cohort sim poisoned: an earlier run panicked")
    }
}

/// The buffered-async stage: FedBuff-style re-timing of cohort updates.
pub(crate) struct BufferedAsync {
    /// Updates per merge.
    buffer: usize,
    /// Base mixing rate.
    eta: f64,
    /// Server model version, bumped once per flush.
    server_version: usize,
    /// Per-cohort simulated clock: when the cohort last reported in.
    cohort_clock: Vec<f64>,
    /// Server version each cohort last pulled.
    cohort_pull_version: Vec<usize>,
    /// `(cohort, pull version)` of updates queued but not yet merged.
    pending: Vec<(usize, usize)>,
}

impl BufferedAsync {
    pub(crate) fn new(buffer: usize, eta: f64) -> Self {
        BufferedAsync {
            buffer,
            eta,
            server_version: 0,
            cohort_clock: Vec::new(),
            cohort_pull_version: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Re-time the cohort updates of `report` into buffered merges.
    ///
    /// Each cohort finishes its rounds back-to-back on its own clock;
    /// nobody waits for anybody. Completions enter one global
    /// simulated-time stream (an [`EventQueue`] keyed by `(time, seq)`),
    /// scheduled cohort-major so equal-time ties pop lowest-cohort first
    /// and a cohort's own rounds pop in round order. Every `buffer`
    /// arrivals the server flushes, discounting each update by its
    /// staleness ([`Event::AsyncMerge`]).
    fn retime(&mut self, report: &EngineReport, probe: &Probe) {
        let n_cohorts = report.cohorts.len();
        if self.cohort_clock.len() != n_cohorts {
            self.cohort_clock = vec![0.0; n_cohorts];
            self.cohort_pull_version = vec![0; n_cohorts];
        }
        let mut stream: EventQueue<usize> = EventQueue::new();
        for (c, cohort) in report.cohorts.iter().enumerate() {
            let mut t = self.cohort_clock[c];
            for &m in &cohort.timing.per_round_makespan {
                t += m;
                stream.schedule(t, c);
            }
            self.cohort_clock[c] = t;
        }
        while let Some((t, _seq, c)) = stream.pop() {
            self.pending.push((c, self.cohort_pull_version[c]));
            if self.pending.len() >= self.buffer {
                for (cohort, pull_version) in std::mem::take(&mut self.pending) {
                    let staleness = self.server_version - pull_version;
                    let weight = staleness_weight(self.eta, staleness);
                    probe.emit(|| Event::AsyncMerge {
                        t_s: t,
                        user: cohort,
                        staleness,
                        weight,
                    });
                }
                self.server_version += 1;
            }
            // The cohort pulls the freshest model before its next round.
            self.cohort_pull_version[c] = self.server_version;
        }
    }
}

/// The population-level stage a build target switches on; each target
/// runs at most one.
pub(crate) enum Stage {
    /// No stage: the cohorts fold straight into the population (the
    /// `engine` target, and `coordinator`/`hier` with their defaults).
    Flat,
    /// Deadline resolved once per round over the pooled population
    /// instead of per cohort.
    GlobalDeadline(DeadlinePolicy),
    /// Buffered-async re-timing of cohort updates.
    BufferedAsync(BufferedAsync),
    /// Edge aggregators above the cohorts.
    Tier(EdgeTier),
}

/// The one population engine behind the `engine`, `coordinator` and
/// `hier` targets. See the module docs for the stages, the determinism
/// contract and the merge semantics.
pub struct ParallelRoundEngine {
    /// Population, held until the first run builds the cohort sims.
    pending_devices: Vec<Device>,
    workload: TrainingWorkload,
    link: Link,
    model_bytes: f64,
    seed: u64,
    n: usize,
    cohort_size: usize,
    threads: usize,
    probe: Probe,
    chaos: Option<ChaosOptions>,
    stage: Stage,
    slots: Vec<CohortSlot>,
    rounds_done: usize,
}

impl ParallelRoundEngine {
    /// The constructor behind every population target of the
    /// [`SimBuilder`](crate::SimBuilder), the only public construction
    /// path. `cohort_size` and `threads` must be positive; `threads` is
    /// capped at [`MAX_ENGINE_THREADS`].
    pub(crate) fn from_parts(
        devices: Vec<Device>,
        config: RoundConfig,
        cohort_size: usize,
        threads: usize,
        probe: Probe,
        chaos: Option<ChaosOptions>,
        stage: Stage,
    ) -> Self {
        debug_assert!(cohort_size > 0 && threads > 0);
        let n = devices.len();
        ParallelRoundEngine {
            pending_devices: devices,
            workload: config.workload,
            link: config.link,
            model_bytes: config.model_bytes,
            seed: config.seed,
            n,
            cohort_size,
            threads: threads.min(MAX_ENGINE_THREADS),
            probe,
            chaos,
            stage,
            slots: Vec::new(),
            rounds_done: 0,
        }
    }

    /// Population size.
    pub fn n_devices(&self) -> usize {
        self.n
    }

    /// Number of cohorts the population partitions into.
    pub fn n_cohorts(&self) -> usize {
        self.n.div_ceil(self.cohort_size)
    }

    /// Worker threads used for the parallel phase.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Rounds simulated so far across all `run` calls.
    pub fn rounds_done(&self) -> usize {
        self.rounds_done
    }

    /// Snapshot of the population's devices in population order (e.g. to
    /// inspect battery drain afterwards). Clones — cohort sims keep the
    /// originals alive across runs.
    pub fn devices(&self) -> Vec<Device> {
        if self.slots.is_empty() {
            return self.pending_devices.clone();
        }
        let mut out = Vec::with_capacity(self.n);
        for slot in &self.slots {
            out.extend_from_slice(slot.sim().devices());
        }
        out
    }

    /// Reset every device's thermal state (between experiment arms).
    pub fn cool_down(&mut self) {
        for d in &mut self.pending_devices {
            d.cool_down();
        }
        for slot in &self.slots {
            slot.sim().cool_down();
        }
    }

    /// Build the per-cohort sims on first use.
    fn ensure_slots(&mut self) {
        if !self.slots.is_empty() || self.n == 0 {
            return;
        }
        let mut devices = std::mem::take(&mut self.pending_devices);
        let mut slots = Vec::with_capacity(self.n_cohorts());
        // Walk chunks back-to-front so each cohort can split off the tail,
        // releasing the population buffer as it empties so the population
        // is never held twice.
        let ranges: Vec<Range<usize>> = fixed_chunks(self.n, self.cohort_size).collect();
        let mut tails: Vec<Vec<Device>> = Vec::with_capacity(ranges.len());
        for range in ranges.iter().rev() {
            tails.push(devices.split_off(range.start));
            devices.shrink_to_fit();
        }
        tails.reverse();
        for (cohort, (range, cohort_devices)) in ranges.into_iter().zip(tails).enumerate() {
            let seed = derive_cohort_seed(self.seed, cohort);
            let log = self.probe.is_enabled().then(|| Arc::new(EventLog::new()));
            let cohort_probe = match &log {
                Some(log) => Probe::attached(log.clone() as Arc<_>),
                None => Probe::disabled(),
            };
            let injector = match &self.chaos {
                Some(opts) => FaultInjector::from_config(
                    opts.config.clone(),
                    range.len(),
                    opts.planned_rounds,
                    seed,
                ),
                None => FaultInjector::quiet(range.len()),
            };
            let state = ResilientRoundSim::from_parts(
                cohort_devices,
                self.workload,
                self.link,
                self.model_bytes,
                seed,
                injector,
            )
            .with_probe(cohort_probe);
            let sim = match &self.chaos {
                Some(opts) => {
                    let mut sim = EventRoundSim::new(opts.configure(state, range.len(), seed));
                    sim.set_admission(opts.admission);
                    sim
                }
                None => EventRoundSim::new(state).credit_idle_shards(),
            };
            slots.push(CohortSlot {
                range,
                seed,
                sim: Mutex::new(Box::new(sim)),
                log,
            });
        }
        self.slots = slots;
    }

    /// Simulate `rounds` synchronous rounds of `schedule` across the whole
    /// population, cohorts in parallel, then run the configured stage.
    /// Device state persists across calls. Zero rounds yield an empty
    /// report in every mode.
    ///
    /// Emission order on the control thread: with a global deadline, per
    /// round, [`Event::GlobalDeadlineSet`], the spliced cohort events,
    /// then [`Event::CohortStraggling`] per straggling cohort; otherwise
    /// the spliced cohort events of the whole call, then the
    /// [`Event::AsyncMerge`] ledger or the edge tier's events.
    ///
    /// # Panics
    /// Panics if the schedule's user count differs from the population.
    pub fn run(&mut self, schedule: &Schedule, rounds: usize) -> EngineReport {
        assert_eq!(
            schedule.shards.len(),
            self.n,
            "schedule/population size mismatch"
        );
        let first_round = self.rounds_done;
        // Taken out for the call so the arms can drive the cohorts.
        let mut stage = std::mem::replace(&mut self.stage, Stage::Flat);
        let report = match &mut stage {
            Stage::GlobalDeadline(policy) if rounds > 0 => {
                let first = self.run_deadline_round(schedule, *policy);
                let rest = (1..rounds)
                    .map(|_| self.run_deadline_round(schedule, *policy))
                    .collect();
                concat_rounds(first, rest)
            }
            Stage::Flat | Stage::GlobalDeadline(_) => self.run_cohorts(schedule, rounds).0,
            Stage::BufferedAsync(stage) => {
                let (report, _) = self.run_cohorts(schedule, rounds);
                stage.retime(&report, &self.probe);
                report
            }
            Stage::Tier(tier) => {
                let (mut report, participants) = self.run_cohorts(schedule, rounds);
                tier.reduce(&mut report, &participants, rounds, first_round, &self.probe);
                report
            }
        };
        self.stage = stage;
        report
    }

    /// The parallel phase: every cohort simulates `rounds` rounds, its
    /// events are spliced in cohort order, and the cohorts fold into the
    /// population. Also returns each cohort's participant count, the
    /// weight it carried in the fold.
    fn run_cohorts(&mut self, schedule: &Schedule, rounds: usize) -> (EngineReport, Vec<usize>) {
        self.ensure_slots();
        let slots = &self.slots;
        let first_round = self.rounds_done;
        let runs = parallel_map_stealing(slots.len(), self.threads, |c| {
            let slot = &slots[c];
            let sub = Schedule::new(
                schedule.shards[slot.range.clone()].to_vec(),
                schedule.shard_size,
            );
            let report = slot.sim().run(&sub, rounds);
            let events: Vec<Event> = match &slot.log {
                Some(log) => log
                    .take()
                    .into_iter()
                    .map(|ev| ev.with_user_offset(slot.range.start))
                    .collect(),
                None => Vec::new(),
            };
            (report, events, sub.active_users())
        });

        let mut cohorts = Vec::with_capacity(runs.len());
        let mut participants = Vec::with_capacity(runs.len());
        for (slot, (report, events, active)) in self.slots.iter().zip(runs) {
            // Each buffer is internally ordered, so splicing in cohort
            // order makes the stream a function of the master seed alone.
            for ev in events {
                self.probe.emit(|| ev);
            }
            cohorts.push(CohortReport {
                start: slot.range.start,
                end: slot.range.end,
                seed: slot.seed,
                timing: report.timing,
                rounds: report.rounds,
            });
            participants.push(active);
        }
        let items = cohorts
            .iter()
            .zip(&participants)
            .map(|(c, &p)| (&c.timing, c.rounds.as_slice(), p));
        let (timing, merged) = fold(items, rounds, first_round);
        self.rounds_done += rounds;
        let report = EngineReport {
            timing,
            rounds: merged,
            cohorts,
        };
        (report, participants)
    }

    /// One round under the global deadline: resolve one cutoff over the
    /// pooled predictions, push it into every cohort, run, and name the
    /// straggling cohorts.
    fn run_deadline_round(&mut self, schedule: &Schedule, policy: DeadlinePolicy) -> EngineReport {
        let round = self.rounds_done;
        // Predictions are side-effect-free (clones, no RNG), so the
        // resolution is invisible to the simulated timeline.
        let predicted = self.predicted_user_times(schedule);
        let deadline_s = policy.resolve(&predicted);
        let pooled = predicted
            .iter()
            .filter(|t| t.is_finite() && **t > 0.0)
            .count();
        self.ensure_slots();
        for slot in &self.slots {
            slot.sim().set_deadline(deadline_s);
        }
        let cohorts = self.n_cohorts();
        self.probe.emit(|| Event::GlobalDeadlineSet {
            round,
            policy: policy.name().to_string(),
            deadline_s,
            pooled,
            cohorts,
        });

        let (report, _) = self.run_cohorts(schedule, 1);
        let pop_max = report.timing.per_round_makespan[0];
        for (cohort, c) in report.cohorts.iter().enumerate() {
            let makespan_s = c.timing.per_round_makespan[0];
            let timed_out = c.rounds[0].timed_out;
            if (pop_max > 0.0 && makespan_s == pop_max) || timed_out > 0 {
                self.probe.emit(|| Event::CohortStraggling {
                    round,
                    cohort,
                    makespan_s,
                    deadline_s,
                    timed_out,
                });
            }
        }
        report
    }

    /// Side-effect-free per-user predicted round times for `schedule`,
    /// pooled over the *whole population* in population order. Built from a
    /// snapshot of current device state (thermal throttling included) and
    /// never draws from any RNG — calling it does not perturb the simulated
    /// timeline. The global-deadline stage resolves adaptive
    /// [`DeadlinePolicy`] values against this pool.
    pub fn predicted_user_times(&self, schedule: &Schedule) -> Vec<f64> {
        assert_eq!(
            schedule.shards.len(),
            self.n,
            "schedule/population size mismatch"
        );
        predict_round_times(
            &self.devices(),
            &self.workload,
            &self.link,
            self.model_bytes,
            schedule,
        )
    }
}

/// Concatenate consecutive single-round reports into one multi-round
/// report: makespans and outcomes concatenate, per-user means average
/// over rounds, the comm fraction is the per-round mean.
fn concat_rounds(mut acc: EngineReport, rest: Vec<EngineReport>) -> EngineReport {
    if rest.is_empty() {
        return acc;
    }
    let r = (rest.len() + 1) as f64;
    let mut user_totals = acc.timing.per_user_mean.clone();
    let mut comm_sum = acc.timing.comm_fraction;
    let mut cohort_user_totals: Vec<Vec<f64>> = acc
        .cohorts
        .iter()
        .map(|c| c.timing.per_user_mean.clone())
        .collect();
    let mut cohort_comm_sums: Vec<f64> =
        acc.cohorts.iter().map(|c| c.timing.comm_fraction).collect();
    for rep in rest {
        acc.timing
            .per_round_makespan
            .extend(rep.timing.per_round_makespan);
        for (total, mean) in user_totals.iter_mut().zip(&rep.timing.per_user_mean) {
            *total += mean;
        }
        comm_sum += rep.timing.comm_fraction;
        acc.rounds.extend(rep.rounds);
        for (c, cohort) in rep.cohorts.into_iter().enumerate() {
            acc.cohorts[c]
                .timing
                .per_round_makespan
                .extend(cohort.timing.per_round_makespan);
            for (total, mean) in cohort_user_totals[c]
                .iter_mut()
                .zip(&cohort.timing.per_user_mean)
            {
                *total += mean;
            }
            cohort_comm_sums[c] += cohort.timing.comm_fraction;
            acc.cohorts[c].rounds.extend(cohort.rounds);
        }
    }
    acc.timing.per_user_mean = user_totals.into_iter().map(|t| t / r).collect();
    acc.timing.comm_fraction = comm_sum / r;
    for (c, cohort) in acc.cohorts.iter_mut().enumerate() {
        cohort.timing.per_user_mean = cohort_user_totals[c].iter().map(|t| t / r).collect();
        cohort.timing.comm_fraction = cohort_comm_sums[c] / r;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SimBuilder;
    use fedsched_device::{DeviceModel, Testbed};
    use fedsched_faults::FaultConfig;

    const MODEL_BYTES: f64 = 2.5e6;

    fn population(n: usize, seed: u64) -> Vec<Device> {
        let models = DeviceModel::all();
        (0..n)
            .map(|i| {
                Device::from_model(
                    models[i % models.len()],
                    seed.wrapping_add(i as u64 * 0x9E37_79B9),
                )
            })
            .collect()
    }

    fn config(seed: u64) -> RoundConfig {
        RoundConfig::new(
            TrainingWorkload::lenet(),
            Link::wifi_campus(),
            MODEL_BYTES,
            seed,
        )
    }

    /// A builder over the mixed population of `n` devices.
    fn builder(n: usize, seed: u64) -> SimBuilder {
        SimBuilder::new(population(n, seed), config(seed))
    }

    fn uniform_schedule(n: usize, shards: usize) -> Schedule {
        Schedule::new(vec![shards; n], 100.0)
    }

    /// The events `log` recorded, filtered to one kind.
    fn events_of(log: &EventLog, kind: &str) -> Vec<Event> {
        log.events()
            .into_iter()
            .filter(|e| e.kind() == kind)
            .collect()
    }

    #[test]
    fn cohort_seed_zero_is_master() {
        assert_eq!(derive_cohort_seed(42, 0), 42);
        assert_ne!(derive_cohort_seed(42, 1), 42);
        assert_ne!(derive_cohort_seed(42, 1), derive_cohort_seed(42, 2));
        assert_ne!(derive_cohort_seed(42, 1), derive_cohort_seed(43, 1));
    }

    /// FNV-1a 64 of a report's `Debug` text.
    fn fingerprint(report: &impl std::fmt::Debug) -> u64 {
        fedsched_core::json::fnv1a64(format!("{report:?}").as_bytes())
    }

    /// Frozen sequential `RoundSim` timing of the single-cohort scenario.
    const SINGLE_QUIET_PIN: u64 = 0xf61a4e40ab145e7e;
    /// Frozen sequential `ResilientRoundSim` report of the single-cohort
    /// chaos scenario.
    const SINGLE_CHAOS_PIN: u64 = 0x68e5322d1150e4e7;

    #[test]
    fn single_cohort_engine_matches_sequential_roundsim() {
        let tb = Testbed::testbed_1(7);
        let schedule = Schedule::new(vec![10, 10, 10], 100.0);
        let mut reference = SimBuilder::new(tb.devices().to_vec(), config(7))
            .build_sim()
            .unwrap();
        let expected = reference.run(&schedule, 4);
        let got = fingerprint(&expected);
        assert_eq!(got, SINGLE_QUIET_PIN, "{got:#018x}");

        for threads in [1, 4] {
            let mut eng = SimBuilder::new(tb.devices().to_vec(), config(7))
                .threads(threads)
                .build_engine()
                .unwrap();
            let report = eng.run(&schedule, 4);
            assert_eq!(report.timing, expected, "threads={threads}");
            assert_eq!(report.cohorts.len(), 1);
        }
    }

    #[test]
    fn thread_count_never_changes_results() {
        let n = 53; // several cohorts of 8, last one ragged
        let schedule = uniform_schedule(n, 3);
        let run = |threads: usize| {
            builder(n, 11)
                .cohort_size(8)
                .threads(threads)
                .build_engine()
                .unwrap()
                .run(&schedule, 3)
        };
        let baseline = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), baseline, "threads={threads}");
        }
    }

    #[test]
    fn worker_threads_are_capped_whatever_was_requested() {
        // Never runs a round: the cap must hold before any thread starts.
        let requested = 1_000_000;
        for target in ["engine", "coordinator", "hier"] {
            let b = builder(8, 1).threads(requested);
            let eng = match target {
                "engine" => b.build_engine(),
                "coordinator" => b.build_coordinator(),
                _ => b.build_hier(),
            }
            .unwrap();
            assert!(eng.threads() <= MAX_ENGINE_THREADS, "{target}");
        }
        // The wire form still carries what was asked for.
        let spec = crate::JobSpec::new(
            crate::BuildTarget::Engine,
            crate::DeviceSetSpec::Testbed { preset: 1, seed: 1 },
            TrainingWorkload::lenet(),
            Link::wifi_campus(),
            MODEL_BYTES,
            1,
        );
        let mut spec = spec;
        spec.threads = Some(requested);
        let back = SimBuilder::from_spec(&spec)
            .unwrap()
            .to_spec(crate::BuildTarget::Engine)
            .unwrap();
        assert_eq!(back.threads, Some(requested));
    }

    #[test]
    fn spliced_event_log_is_thread_invariant_and_population_indexed() {
        let n = 20;
        let schedule = uniform_schedule(n, 2);
        let traced = |threads: usize, rounds: usize| {
            let log = Arc::new(EventLog::new());
            builder(n, 3)
                .cohort_size(6)
                .threads(threads)
                .probe(Probe::attached(log.clone()))
                .build_engine()
                .unwrap()
                .run(&schedule, rounds);
            log
        };
        let one = traced(1, 2).to_jsonl();
        assert_eq!(
            one,
            traced(4, 2).to_jsonl(),
            "JSONL must not depend on thread count"
        );

        // User spans must cover the full population index range, proving
        // the per-cohort indices were remapped.
        let users: Vec<usize> = traced(4, 1)
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::UserSpan { user, .. } => Some(*user),
                _ => None,
            })
            .collect();
        assert_eq!(users.iter().max(), Some(&(n - 1)));
        assert_eq!(users.iter().min(), Some(&0));
        assert_eq!(users.len(), n);
    }

    #[test]
    fn merged_timing_matches_cohort_fold() {
        let n = 30;
        let schedule = uniform_schedule(n, 2);
        let report = builder(n, 5)
            .cohort_size(7)
            .build_engine()
            .unwrap()
            .run(&schedule, 3);
        assert_eq!(report.cohorts.len(), 5);
        assert_eq!(report.timing.per_user_mean.len(), n);
        for r in 0..3 {
            let max = report
                .cohorts
                .iter()
                .map(|c| c.timing.per_round_makespan[r])
                .fold(0.0f64, f64::max);
            assert_eq!(report.timing.per_round_makespan[r], max);
            assert_eq!(report.rounds[r].scheduled, 2 * n);
            assert_eq!(report.rounds[r].coverage, 1.0);
        }
        // Per-user means concatenate in population order.
        let concat: Vec<f64> = report
            .cohorts
            .iter()
            .flat_map(|c| c.timing.per_user_mean.iter().copied())
            .collect();
        assert_eq!(report.timing.per_user_mean, concat);
    }

    #[test]
    fn chaos_engine_is_thread_invariant() {
        let n = 24;
        let schedule = uniform_schedule(n, 2);
        let run = |threads: usize| {
            builder(n, 19)
                .cohort_size(5)
                .threads(threads)
                .faults(
                    FaultConfig::none().with_crash_prob(0.2).with_loss_prob(0.1),
                    4,
                )
                .retry(RetryPolicy::default_chaos())
                .build_engine()
                .unwrap()
                .run(&schedule, 4)
        };
        let baseline = run(1);
        assert_eq!(run(4), baseline);
        assert_eq!(run(8), baseline);
        // The fault model actually fired somewhere.
        assert!(
            baseline.total_lost() > 0 || baseline.rounds.iter().any(|r| r.rescued > 0),
            "chaos config should perturb at least one cohort"
        );
    }

    #[test]
    fn single_cohort_chaos_matches_sequential_resilient() {
        let n = 9;
        let schedule = uniform_schedule(n, 2);
        let faults = FaultConfig::none().with_crash_prob(0.3);
        let mut reference = SimBuilder::new(population(n, 13), config(13))
            .injector(FaultInjector::from_config(faults.clone(), n, 3, 13))
            .build_resilient()
            .unwrap();
        let expected = reference.run(&schedule, 3);
        let got = fingerprint(&expected);
        assert_eq!(got, SINGLE_CHAOS_PIN, "{got:#018x}");

        let report = builder(n, 13)
            .cohort_size(n)
            .threads(4)
            .faults(faults, 3)
            .build_engine()
            .unwrap()
            .run(&schedule, 3);
        assert_eq!(report.timing, expected.timing);
        assert_eq!(report.rounds, expected.rounds);
    }

    #[test]
    fn repeated_runs_continue_cohort_state() {
        let n = 12;
        let schedule = uniform_schedule(n, 2);
        let mk = || builder(n, 23).cohort_size(4).build_engine().unwrap();
        // One engine run twice == a fresh engine run for the total span,
        // because cohort sims (RNG, thermal state, round indices) persist.
        let mut eng = mk();
        let first = eng.run(&schedule, 2);
        let second = eng.run(&schedule, 2);
        assert_eq!(eng.rounds_done(), 4);
        assert_eq!(second.rounds[0].round, 2);

        let whole = mk().run(&schedule, 4);
        assert_eq!(
            whole.timing.per_round_makespan[..2],
            first.timing.per_round_makespan[..]
        );
        assert_eq!(
            whole.timing.per_round_makespan[2..],
            second.timing.per_round_makespan[..]
        );
    }

    #[test]
    fn empty_population_yields_empty_report() {
        let mut eng = builder(0, 1).build_engine().unwrap();
        let report = eng.run(&Schedule::new(vec![], 100.0), 2);
        assert_eq!(report.timing.per_round_makespan, vec![0.0, 0.0]);
        assert!(report.timing.per_user_mean.is_empty());
        assert_eq!(report.timing.comm_fraction, 0.0);
        assert_eq!(report.rounds.len(), 2);
        assert!(report.cohorts.is_empty());
    }

    #[test]
    fn zero_rounds_yield_an_empty_report_in_every_mode() {
        let n = 16;
        let schedule = uniform_schedule(n, 2);
        for mode in ["plain", "edges", "global deadline", "buffered async"] {
            let b = builder(n, 3).cohort_size(4);
            let mut eng = match mode {
                "plain" => b.build_engine(),
                "edges" => b
                    .edges(2)
                    .edge_link(Link::edge_backhaul())
                    .server_aggregator(AggregatorKind::Median)
                    .build_hier(),
                "global deadline" => b
                    .deadline(DeadlinePolicy::Quantile(0.5))
                    .build_coordinator(),
                _ => b.buffered_async(2, 0.5).build_coordinator(),
            }
            .unwrap();
            let report = eng.run(&schedule, 0);
            assert!(report.rounds.is_empty(), "{mode}");
            assert!(report.timing.per_round_makespan.is_empty(), "{mode}");
            assert_eq!(eng.rounds_done(), 0, "{mode}");
            // The engine carries on normally afterwards.
            assert_eq!(eng.run(&schedule, 1).rounds.len(), 1, "{mode}");
        }
    }

    #[test]
    fn devices_snapshot_preserves_population_order_and_drain() {
        let n = 10;
        let schedule = uniform_schedule(n, 3);
        let mut eng = builder(n, 31).cohort_size(3).build_engine().unwrap();
        let before = eng.devices();
        assert_eq!(before.len(), n);
        eng.run(&schedule, 2);
        let after = eng.devices();
        assert_eq!(after.len(), n);
        for (b, a) in before.iter().zip(&after) {
            assert!(
                a.battery_soc() < b.battery_soc(),
                "training must drain each device"
            );
        }
    }

    #[test]
    #[should_panic(expected = "population size mismatch")]
    fn wrong_schedule_arity_panics() {
        let mut eng = builder(5, 1).build_engine().unwrap();
        let _ = eng.run(&Schedule::new(vec![1; 4], 100.0), 1);
    }

    /// The global-deadline and buffered-async stages (`coordinator` target).
    mod stages {
        use super::*;

        #[test]
        fn off_policy_coordinator_is_the_engine_verbatim() {
            let n = 24;
            let schedule = uniform_schedule(n, 2);
            let expected = builder(n, 5)
                .cohort_size(6)
                .build_engine()
                .unwrap()
                .run(&schedule, 3);
            let report = builder(n, 5)
                .cohort_size(6)
                .build_coordinator()
                .unwrap()
                .run(&schedule, 3);
            assert_eq!(report, expected);
        }

        #[test]
        fn global_deadline_is_pushed_into_every_cohort() {
            let n = 20;
            let schedule = uniform_schedule(n, 3);
            let log = Arc::new(EventLog::new());
            let report = builder(n, 11)
                .cohort_size(5)
                .deadline(DeadlinePolicy::Quantile(0.5))
                .probe(Probe::attached(log.clone()))
                .build_coordinator()
                .unwrap()
                .run(&schedule, 3);
            // A median cutoff over a heterogeneous population must cut someone.
            assert!(
                report.rounds.iter().any(|r| r.timed_out > 0),
                "median deadline should cut stragglers"
            );
            let deadlines = events_of(&log, "global_deadline_set");
            assert_eq!(deadlines.len(), 3);
            for (r, ev) in deadlines.iter().enumerate() {
                let Event::GlobalDeadlineSet {
                    round,
                    deadline_s,
                    cohorts,
                    ..
                } = ev
                else {
                    unreachable!()
                };
                assert_eq!((*round, *cohorts), (r, 4));
                let d = deadline_s.expect("quantile policy always resolves");
                let outcome = &report.rounds[r];
                assert!(outcome.makespan_s <= d * (1.0 + 1e-9) || outcome.rescued > 0);
            }
            // Every round names at least one straggling cohort.
            let straggling = events_of(&log, "cohort_straggling");
            for r in 0..3 {
                assert!(straggling
                    .iter()
                    .any(|e| matches!(e, Event::CohortStraggling { round, .. } if *round == r)));
            }
        }

        #[test]
        fn deadline_coordinator_is_thread_invariant() {
            let n = 30;
            let schedule = uniform_schedule(n, 2);
            let run = |threads: usize| {
                let report = builder(n, 13)
                    .cohort_size(7)
                    .threads(threads)
                    .deadline(DeadlinePolicy::MeanFactor(1.2))
                    .build_coordinator()
                    .unwrap()
                    .run(&schedule, 3);
                format!("{report:?}")
            };
            let baseline = run(1);
            assert_eq!(run(4), baseline);
            assert_eq!(run(8), baseline);
        }

        /// `(t_s, cohort, staleness, weight)` of every async merge in `log`.
        fn merges(log: &EventLog) -> Vec<(f64, usize, usize, f64)> {
            events_of(log, "async_merge")
                .into_iter()
                .map(|e| match e {
                    Event::AsyncMerge {
                        t_s,
                        user,
                        staleness,
                        weight,
                    } => (t_s, user, staleness, weight),
                    _ => unreachable!(),
                })
                .collect()
        }

        #[test]
        fn buffered_async_merges_with_staleness_discount() {
            let n = 24;
            let schedule = uniform_schedule(n, 2);
            let log = Arc::new(EventLog::new());
            let report = builder(n, 17)
                .cohort_size(6)
                .buffered_async(2, 0.6)
                .probe(Probe::attached(log.clone()))
                .build_coordinator()
                .unwrap()
                .run(&schedule, 3);
            // 4 cohorts x 3 rounds = 12 arrivals, buffer 2 => 6 flushes.
            let merges = merges(&log);
            assert_eq!(merges.len(), 12);
            for &(_, _, staleness, weight) in &merges {
                assert!((weight - staleness_weight(0.6, staleness)).abs() < 1e-12);
            }
            // Async span: nobody waits, so the slowest cohort's own total is
            // never more than the barrier span (sum of per-round maxes).
            let barrier_span: f64 = report.timing.per_round_makespan.iter().sum();
            let async_span = report
                .cohorts
                .iter()
                .map(|c| c.timing.per_round_makespan.iter().sum::<f64>())
                .fold(0.0, f64::max);
            assert!(async_span <= barrier_span + 1e-9);
            assert!(async_span > 0.0);
            // Merge times never decrease.
            for pair in merges.windows(2) {
                assert!(pair[1].0 >= pair[0].0);
            }
        }

        #[test]
        fn async_state_persists_across_runs() {
            let n = 12;
            let schedule = uniform_schedule(n, 2);
            let traced = || {
                let log = Arc::new(EventLog::new());
                let eng = builder(n, 29)
                    .cohort_size(4)
                    .buffered_async(3, 0.5)
                    .probe(Probe::attached(log.clone()))
                    .build_coordinator()
                    .unwrap();
                (eng, log)
            };
            let (mut split, split_log) = traced();
            split.run(&schedule, 2);
            split.run(&schedule, 2);
            let (mut whole, whole_log) = traced();
            whole.run(&schedule, 4);
            assert_eq!(merges(&split_log), merges(&whole_log));
        }
    }
}
