//! Deterministic, seedable fault injection for the simulation stack.
//!
//! Production federated learning treats client churn and communication
//! failure as the norm, not the exception (Bonawitz et al., SysML'19): phones
//! crash mid-round, leave the cohort, lose packets, and slow down when a
//! background app grabs the CPU. This crate models all of that as a
//! **precomputed plan** derived from a seed, so a chaos run replays
//! byte-identically:
//!
//! * [`FaultConfig`] — the knobs: per-round crash/churn/contention
//!   probabilities, per-transfer loss probability, network-outage windows;
//! * [`FaultPlan`] — the materialized per-round, per-device fate table,
//!   generated once from `(config, n_devices, n_rounds, seed)`;
//! * [`FaultInjector`] — the query interface the round controller consumes:
//!   [`FaultInjector::fate`], [`FaultInjector::contention`],
//!   [`FaultInjector::outages`], plus counter-based auxiliary randomness
//!   ([`DrawStream`]) for per-transfer loss decisions and retry jitter.
//!
//! The auxiliary draws are *hash-derived*, not taken from the simulation's
//! main RNG: a fault-free configuration therefore consumes exactly the same
//! main-RNG stream as a fault-free simulator, which is what keeps a quiet
//! run of the round engine bit-identical to the paper's plain replay.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;

pub use adversary::{AdversaryConfig, AdversaryPlan, AttackKind};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// Continuous mid-round churn process: per-device exponential departure
/// and arrival clocks, sampled per round from a hash-derived counter
/// stream (never the plan's main RNG, so adding churn leaves every other
/// fate byte-identical).
///
/// Each round, each device draws one departure time and one arrival time
/// `t = -ln(1 - u) / rate` (exponential with the given rate, in simulated
/// seconds from round start). The event *fires* iff the rate is positive
/// and `t < horizon_s`; the draws themselves always happen, so two
/// configs with the same seed disagree only where their rates do. How a
/// fired cell is interpreted (orphaning, rescue, admission) is the round
/// controller's business — see `fl::eventsim`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ChurnConfig {
    /// Rate (events per simulated second) of the per-device departure
    /// clock. Zero disables departures.
    pub depart_rate: f64,
    /// Rate of the per-device arrival (rejoin) clock for devices that are
    /// currently out of the cohort. Zero disables arrivals.
    pub arrive_rate: f64,
    /// Churn events beyond this many seconds from round start do not fire
    /// this round (set it near the expected round makespan).
    pub horizon_s: f64,
}

impl ChurnConfig {
    /// Symmetric process: equal departure and arrival rates.
    pub fn symmetric(rate: f64, horizon_s: f64) -> Self {
        ChurnConfig {
            depart_rate: rate,
            arrive_rate: rate,
            horizon_s,
        }
    }

    /// True when this process can never fire an event.
    pub fn is_quiet(&self) -> bool {
        self.depart_rate == 0.0 && self.arrive_rate == 0.0
    }

    /// Check every knob is in range.
    ///
    /// # Panics
    /// Panics on negative or non-finite rates, or a non-positive horizon
    /// while any rate is positive.
    pub fn validate(&self) {
        for (name, r) in [
            ("depart_rate", self.depart_rate),
            ("arrive_rate", self.arrive_rate),
        ] {
            assert!(
                r >= 0.0 && r.is_finite(),
                "{name} must be a finite non-negative rate, got {r}"
            );
        }
        if !self.is_quiet() {
            assert!(
                self.horizon_s > 0.0 && self.horizon_s.is_finite(),
                "churn horizon must be positive while a rate is nonzero"
            );
        }
    }
}

/// Performance-drift process: a per-device multiplicative slowdown random
/// walk, sampled from a hash-derived counter stream (never the plan's main
/// RNG, so adding drift leaves every other fate byte-identical).
///
/// Each device carries a log-slowdown state starting at 0. Every round the
/// state takes a Gaussian step of scale [`DriftConfig::sigma`] (Box–Muller
/// over two stream draws per cell, drawn whether or not the walk is
/// clamped) and is reflected into `[-ln(max_slowdown), ln(max_slowdown)]`.
/// The resulting multiplier `exp(state)` scales the device's compute time
/// exactly like contention does — so a drifting device slows down (or
/// speeds up) *gradually and persistently*, which is what an online
/// selection policy can learn and a static plan cannot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DriftConfig {
    /// Per-round standard deviation of the log-slowdown step. Zero
    /// disables the process (no timeline is generated at all).
    pub sigma: f64,
    /// Hard cap on the multiplier: the walk is reflected so the slowdown
    /// stays within `[1/max_slowdown, max_slowdown]`. Must be `>= 1`.
    pub max_slowdown: f64,
}

impl DriftConfig {
    /// A walk with step scale `sigma` capped at `max_slowdown`.
    pub fn new(sigma: f64, max_slowdown: f64) -> Self {
        DriftConfig {
            sigma,
            max_slowdown,
        }
    }

    /// True when this process can never move a device off multiplier 1.
    pub fn is_quiet(&self) -> bool {
        self.sigma == 0.0
    }

    /// Check every knob is in range.
    ///
    /// # Panics
    /// Panics on a negative or non-finite sigma, or a cap below 1 while
    /// sigma is positive.
    pub fn validate(&self) {
        assert!(
            self.sigma >= 0.0 && self.sigma.is_finite(),
            "drift sigma must be a finite non-negative step scale, got {}",
            self.sigma
        );
        if !self.is_quiet() {
            assert!(
                self.max_slowdown >= 1.0 && self.max_slowdown.is_finite(),
                "drift max_slowdown must be >= 1 while sigma is nonzero"
            );
        }
    }
}

/// Fault-model knobs. All probabilities are per device per round (crash,
/// churn, contention) or per transfer attempt (loss); an all-zero config
/// injects nothing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultConfig {
    /// Probability a healthy device crashes mid-round (reboots after
    /// [`FaultConfig::reboot_rounds`] rounds).
    pub crash_prob: f64,
    /// Rounds a crashed device stays offline before rejoining.
    pub reboot_rounds: usize,
    /// Probability a healthy device leaves the cohort mid-round, permanently.
    pub churn_prob: f64,
    /// Probability a background app contends for CPU this round.
    pub contention_prob: f64,
    /// Compute-time multiplier while contended (>= 1).
    pub contention_factor: f64,
    /// Probability any single transfer attempt is lost.
    pub loss_prob: f64,
    /// Probability a network outage window opens this round.
    pub outage_prob: f64,
    /// Outage start times are drawn uniformly in `[0, horizon)` seconds from
    /// round start (set it near the expected round makespan).
    pub outage_horizon_s: f64,
    /// Duration of each outage window, seconds.
    pub outage_duration_s: f64,
    /// Probability per round that an idle failure domain goes down,
    /// taking its whole device group offline for
    /// [`FaultConfig::group_outage_rounds`] rounds.
    pub group_outage_prob: f64,
    /// Number of failure domains devices are partitioned into
    /// (`device % group_count`). Ignored while
    /// [`FaultConfig::group_outage_prob`] is zero.
    pub group_count: usize,
    /// Rounds a downed failure domain stays offline.
    pub group_outage_rounds: usize,
    /// Continuous mid-round arrival/departure process. `None` (the
    /// default) generates no churn timeline at all, keeping legacy plans
    /// byte-identical. Only the event-driven engine interprets it.
    pub churn_process: Option<ChurnConfig>,
    /// Per-device performance-drift walk. `None` (the default) generates
    /// no drift timeline at all, keeping legacy plans byte-identical.
    pub drift: Option<DriftConfig>,
}

impl FaultConfig {
    /// A configuration that injects nothing at all.
    pub fn none() -> Self {
        FaultConfig {
            crash_prob: 0.0,
            reboot_rounds: 1,
            churn_prob: 0.0,
            contention_prob: 0.0,
            contention_factor: 1.0,
            loss_prob: 0.0,
            outage_prob: 0.0,
            outage_horizon_s: 0.0,
            outage_duration_s: 0.0,
            group_outage_prob: 0.0,
            group_count: 1,
            group_outage_rounds: 1,
            churn_process: None,
            drift: None,
        }
    }

    /// Start from [`FaultConfig::none`] and set the crash probability.
    pub fn with_crash_prob(mut self, p: f64) -> Self {
        self.crash_prob = p;
        self
    }

    /// Set the per-transfer loss probability.
    pub fn with_loss_prob(mut self, p: f64) -> Self {
        self.loss_prob = p;
        self
    }

    /// Set the per-round churn probability.
    ///
    /// **Deprecated path** — this is the legacy round-boundary fate table:
    /// the whole round's departure is decided by one per-round coin and
    /// lowered onto a mid-round crash-like fate. Prefer
    /// [`FaultConfig::with_churn_process`], which models arrivals and
    /// departures as timed events on the simulated clock. The knob is kept
    /// (not removed) because existing plans must replay byte-identically;
    /// [`FaultConfig::lower_churn_prob`] bridges a legacy config onto the
    /// event process at matched per-round intensity.
    pub fn with_churn_prob(mut self, p: f64) -> Self {
        self.churn_prob = p;
        self
    }

    /// Set the continuous mid-round arrival/departure process.
    pub fn with_churn_process(mut self, churn: ChurnConfig) -> Self {
        self.churn_process = Some(churn);
        self
    }

    /// Set the per-device performance-drift walk.
    pub fn with_drift(mut self, drift: DriftConfig) -> Self {
        self.drift = Some(drift);
        self
    }

    /// Bridge the legacy per-round churn fate path onto the event process:
    /// moves [`FaultConfig::churn_prob`] `p` into an equivalent-intensity
    /// departure process over `horizon_s` (rate `-ln(1-p)/horizon`, so the
    /// probability of at least one departure event per round-horizon equals
    /// `p`), with no arrivals — matching the legacy "departures are
    /// permanent" semantics.
    ///
    /// Lowering a config with `churn_prob == 0` is the identity on the
    /// generated plan: the resulting quiet process draws nothing.
    ///
    /// # Panics
    /// Panics when `churn_prob == 1` (no finite rate reproduces a certain
    /// departure) or when `horizon_s` is not positive and finite.
    pub fn lower_churn_prob(mut self, horizon_s: f64) -> Self {
        assert!(
            self.churn_prob < 1.0,
            "churn_prob 1.0 has no finite-rate equivalent"
        );
        assert!(
            horizon_s > 0.0 && horizon_s.is_finite(),
            "lowering horizon must be positive"
        );
        let rate = -(1.0 - self.churn_prob).ln() / horizon_s;
        self.churn_prob = 0.0;
        if rate > 0.0 {
            self.churn_process = Some(ChurnConfig {
                depart_rate: rate,
                arrive_rate: 0.0,
                horizon_s,
            });
        }
        self
    }

    /// Set the contention probability and slowdown factor.
    pub fn with_contention(mut self, prob: f64, factor: f64) -> Self {
        self.contention_prob = prob;
        self.contention_factor = factor;
        self
    }

    /// Set the outage probability and window shape.
    pub fn with_outages(mut self, prob: f64, horizon_s: f64, duration_s: f64) -> Self {
        self.outage_prob = prob;
        self.outage_horizon_s = horizon_s;
        self.outage_duration_s = duration_s;
        self
    }

    /// Set the correlated failure-domain knobs: each round, each idle
    /// domain goes down with probability `prob`, forcing every device in
    /// it (`device % groups`) offline for `duration_rounds` rounds.
    pub fn with_group_outages(mut self, prob: f64, groups: usize, duration_rounds: usize) -> Self {
        self.group_outage_prob = prob;
        self.group_count = groups;
        self.group_outage_rounds = duration_rounds;
        self
    }

    /// True when this configuration can never inject a fault.
    pub fn is_quiet(&self) -> bool {
        self.crash_prob == 0.0
            && self.churn_prob == 0.0
            && self.contention_prob == 0.0
            && self.loss_prob == 0.0
            && self.outage_prob == 0.0
            && self.group_outage_prob == 0.0
            && self
                .churn_process
                .as_ref()
                .is_none_or(ChurnConfig::is_quiet)
            && self.drift.as_ref().is_none_or(DriftConfig::is_quiet)
    }

    /// Check every knob is in range.
    ///
    /// # Panics
    /// Panics on probabilities outside `[0, 1]`, a contention factor below
    /// 1, or negative durations.
    pub fn validate(&self) {
        for (name, p) in [
            ("crash_prob", self.crash_prob),
            ("churn_prob", self.churn_prob),
            ("contention_prob", self.contention_prob),
            ("loss_prob", self.loss_prob),
            ("outage_prob", self.outage_prob),
            ("group_outage_prob", self.group_outage_prob),
        ] {
            assert!(
                (0.0..=1.0).contains(&p) && p.is_finite(),
                "{name} must be a probability, got {p}"
            );
        }
        assert!(
            self.contention_factor >= 1.0 && self.contention_factor.is_finite(),
            "contention_factor must be >= 1"
        );
        assert!(
            self.outage_horizon_s >= 0.0 && self.outage_duration_s >= 0.0,
            "outage windows must be non-negative"
        );
        if self.group_outage_prob > 0.0 {
            assert!(
                self.group_count >= 1,
                "group outages need at least one failure domain"
            );
            assert!(
                self.group_outage_rounds >= 1,
                "group outage duration must be at least one round"
            );
        }
        if let Some(churn) = &self.churn_process {
            churn.validate();
        }
        if let Some(drift) = &self.drift {
            drift.validate();
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// What the plan decrees for one device in one round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum DeviceFate {
    /// Participates normally.
    Healthy,
    /// Crashes mid-round after completing this fraction of its local
    /// compute; its partial work is lost and it reboots later.
    Crash {
        /// Fraction of local compute completed when the crash hits, in
        /// `[0, 1)`.
        at_frac: f64,
    },
    /// Leaves the cohort mid-round (same in-round effect as a crash) and
    /// never returns.
    Depart {
        /// Fraction of local compute completed at departure, in `[0, 1)`.
        at_frac: f64,
    },
    /// Offline this whole round (rebooting after a crash).
    Offline,
    /// Permanently gone (churned out in an earlier round).
    Departed,
}

impl DeviceFate {
    /// Whether the device is available at round start.
    pub fn is_online(&self) -> bool {
        !matches!(self, DeviceFate::Offline | DeviceFate::Departed)
    }
}

/// The materialized fault schedule: per-round per-device fates, contention
/// multipliers and per-round outage windows, all derived from one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    config: FaultConfig,
    n_devices: usize,
    n_rounds: usize,
    seed: u64,
    /// Row-major `[round * n_devices + device]`.
    fates: Vec<DeviceFate>,
    /// Compute-time multipliers, same layout as `fates`.
    contention: Vec<f64>,
    /// Per-round outage windows `(start_s, end_s)` relative to round start.
    outages: Vec<Vec<(f64, f64)>>,
    /// Failure-domain outages *starting* each round: `(group, duration_rounds)`.
    group_outages: Vec<Vec<(usize, usize)>>,
    /// Devices departed by the end of the plan (fate carried past the
    /// planned horizon).
    departed_at_end: Vec<bool>,
    /// Mid-round departure times, row-major like `fates`; empty unless a
    /// churn process is configured. `Some(t)` = the device's departure
    /// clock fired `t` seconds into the round.
    churn_departs: Vec<Option<f64>>,
    /// Mid-round arrival times, same layout as `churn_departs`.
    churn_arrives: Vec<Option<f64>>,
    /// Compute-slowdown multipliers from the drift walk, row-major like
    /// `fates`; empty unless a drift process is configured.
    drift_walk: Vec<f64>,
}

impl FaultPlan {
    /// Generate a plan. Draw counts per cell are fixed regardless of which
    /// faults fire, so two configs with the same seed disagree only where
    /// their probabilities do.
    ///
    /// # Panics
    /// Panics via [`FaultConfig::validate`] on an invalid config, or when
    /// `n_devices == 0`.
    pub fn generate(config: FaultConfig, n_devices: usize, n_rounds: usize, seed: u64) -> Self {
        config.validate();
        assert!(n_devices > 0, "fault plan needs at least one device");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fates = Vec::with_capacity(n_devices * n_rounds);
        let mut contention = Vec::with_capacity(n_devices * n_rounds);
        let mut outages = Vec::with_capacity(n_rounds);
        let mut offline_for = vec![0usize; n_devices];
        let mut departed = vec![false; n_devices];

        for _round in 0..n_rounds {
            let outage_u: f64 = rng.gen();
            let start_u: f64 = rng.gen();
            let mut windows = Vec::new();
            if outage_u < config.outage_prob {
                let start = start_u * config.outage_horizon_s;
                windows.push((start, start + config.outage_duration_s));
            }
            outages.push(windows);

            for j in 0..n_devices {
                // Fixed draw order: crash, fraction, churn, contention.
                let crash_u: f64 = rng.gen();
                let frac_u: f64 = rng.gen();
                let churn_u: f64 = rng.gen();
                let cont_u: f64 = rng.gen();

                let fate = if departed[j] {
                    DeviceFate::Departed
                } else if offline_for[j] > 0 {
                    offline_for[j] -= 1;
                    DeviceFate::Offline
                } else if churn_u < config.churn_prob {
                    departed[j] = true;
                    DeviceFate::Depart { at_frac: frac_u }
                } else if crash_u < config.crash_prob {
                    offline_for[j] = config.reboot_rounds;
                    DeviceFate::Crash { at_frac: frac_u }
                } else {
                    DeviceFate::Healthy
                };
                fates.push(fate);
                contention.push(if fate.is_online() && cont_u < config.contention_prob {
                    config.contention_factor
                } else {
                    1.0
                });
            }
        }

        // Correlated failure domains are overlaid *after* the per-device
        // loop, from a separate salted draw stream: the main-RNG draw order
        // above is frozen, so plans without group outages stay byte-identical
        // to plans generated before the knob existed.
        let mut group_outages = vec![Vec::new(); n_rounds];
        if config.group_outage_prob > 0.0 {
            let n_groups = config.group_count.min(n_devices);
            let mut stream = DrawStream::new(seed ^ 0x6f75_7461_6765_5f67); // "g_outage"
            let mut down_for = vec![0usize; n_groups];
            for (round, round_outages) in group_outages.iter_mut().enumerate() {
                for (group, remaining) in down_for.iter_mut().enumerate() {
                    // One draw per (round, group) regardless of what fires,
                    // so plans with the same seed disagree only where their
                    // probabilities do.
                    let u = stream.next_u01();
                    if *remaining == 0 && u < config.group_outage_prob {
                        *remaining = config.group_outage_rounds;
                        round_outages.push((group, config.group_outage_rounds));
                    }
                    if *remaining > 0 {
                        *remaining -= 1;
                        for j in (group..n_devices).step_by(n_groups) {
                            let cell = round * n_devices + j;
                            if fates[cell] != DeviceFate::Departed {
                                fates[cell] = DeviceFate::Offline;
                                contention[cell] = 1.0;
                            }
                        }
                    }
                }
            }
        }

        // The continuous churn timeline is overlaid from its own salted
        // stream, after the frozen draws above, for the same reason as the
        // group outages: configs without a churn process generate not a
        // single extra draw, so legacy plans stay byte-identical. Both
        // clocks are sampled for every (round, device) cell regardless of
        // whether they fire.
        let mut churn_departs = Vec::new();
        let mut churn_arrives = Vec::new();
        if let Some(churn) = config.churn_process.as_ref().filter(|c| !c.is_quiet()) {
            let mut stream = DrawStream::new(seed ^ 0x6368_7572_6e5f_6576); // "churn_ev"
            let exp_sample = |rate: f64, u: f64, horizon: f64| {
                if rate <= 0.0 {
                    return None;
                }
                let t = -(1.0 - u).ln() / rate;
                (t < horizon).then_some(t)
            };
            churn_departs.reserve(n_devices * n_rounds);
            churn_arrives.reserve(n_devices * n_rounds);
            for _round in 0..n_rounds {
                for _j in 0..n_devices {
                    let dep_u = stream.next_u01();
                    let arr_u = stream.next_u01();
                    churn_departs.push(exp_sample(churn.depart_rate, dep_u, churn.horizon_s));
                    churn_arrives.push(exp_sample(churn.arrive_rate, arr_u, churn.horizon_s));
                }
            }
        }

        // Performance drift is overlaid from its own salted stream, after
        // every frozen draw above: configs without drift generate not a
        // single extra draw. Two stream draws per (round, device) cell
        // regardless of clamping, so two plans with the same seed disagree
        // only where their sigmas do.
        let mut drift_walk = Vec::new();
        if let Some(drift) = config.drift.as_ref().filter(|d| !d.is_quiet()) {
            let mut stream = DrawStream::new(seed ^ 0x6472_6966_745f_7277); // "drift_rw"
            let bound = drift.max_slowdown.ln();
            let mut state = vec![0.0f64; n_devices];
            drift_walk.reserve(n_devices * n_rounds);
            for _round in 0..n_rounds {
                for s in state.iter_mut() {
                    let u1 = stream.next_u01();
                    let u2 = stream.next_u01();
                    // Box–Muller; u1 == 0 degenerates to a zero step.
                    let g =
                        (-2.0 * (1.0 - u1).ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    *s += drift.sigma * g;
                    // Reflect into [-bound, bound] so the multiplier stays
                    // within [1/max_slowdown, max_slowdown].
                    if *s > bound {
                        *s = 2.0 * bound - *s;
                    }
                    if *s < -bound {
                        *s = -2.0 * bound - *s;
                    }
                    *s = s.clamp(-bound, bound);
                    drift_walk.push(s.exp());
                }
            }
        }

        FaultPlan {
            config,
            n_devices,
            n_rounds,
            seed,
            fates,
            contention,
            outages,
            group_outages,
            departed_at_end: departed,
            churn_departs,
            churn_arrives,
            drift_walk,
        }
    }

    /// The configuration this plan was generated from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Number of devices covered.
    pub fn n_devices(&self) -> usize {
        self.n_devices
    }

    /// Number of rounds planned. Rounds past the horizon are fault-free
    /// (departed devices stay departed).
    pub fn n_rounds(&self) -> usize {
        self.n_rounds
    }

    /// Fate of `device` in `round`.
    ///
    /// # Panics
    /// Panics if `device >= n_devices`.
    pub fn fate(&self, round: usize, device: usize) -> DeviceFate {
        assert!(device < self.n_devices, "device index out of range");
        if round >= self.n_rounds {
            return if self.departed_at_end[device] {
                DeviceFate::Departed
            } else {
                DeviceFate::Healthy
            };
        }
        self.fates[round * self.n_devices + device]
    }

    /// Compute-time multiplier for `device` in `round` (1.0 = no
    /// contention).
    pub fn contention(&self, round: usize, device: usize) -> f64 {
        assert!(device < self.n_devices, "device index out of range");
        if round >= self.n_rounds {
            return 1.0;
        }
        self.contention[round * self.n_devices + device]
    }

    /// Network outage windows for `round`, `(start_s, end_s)` from round
    /// start.
    pub fn outages(&self, round: usize) -> &[(f64, f64)] {
        if round >= self.n_rounds {
            return &[];
        }
        &self.outages[round]
    }

    /// Failure-domain outages *starting* in `round`: `(group, duration_rounds)`
    /// pairs. Devices in a downed group are [`DeviceFate::Offline`] for the
    /// window (already reflected in [`FaultPlan::fate`]); this query exists
    /// for telemetry.
    pub fn group_outages(&self, round: usize) -> &[(usize, usize)] {
        if round >= self.n_rounds {
            return &[];
        }
        &self.group_outages[round]
    }

    /// Failure domain `device` belongs to, or `None` when the config has no
    /// group outages.
    pub fn group_of(&self, device: usize) -> Option<usize> {
        assert!(device < self.n_devices, "device index out of range");
        if self.config.group_outage_prob == 0.0 {
            return None;
        }
        Some(device % self.config.group_count.min(self.n_devices))
    }

    /// Devices in failure domain `group` (`device % group_count`).
    pub fn group_members(&self, group: usize) -> Vec<usize> {
        let n_groups = self.config.group_count.min(self.n_devices).max(1);
        (group..self.n_devices).step_by(n_groups).collect()
    }

    /// Whether this plan carries a live churn timeline.
    pub fn churn_active(&self) -> bool {
        !self.churn_departs.is_empty()
    }

    /// Mid-round departure time of `device` in `round`, seconds from round
    /// start, if its departure clock fires within the churn horizon.
    /// Always `None` past the planned horizon or without a churn process.
    ///
    /// # Panics
    /// Panics if `device >= n_devices`.
    pub fn departure_at(&self, round: usize, device: usize) -> Option<f64> {
        assert!(device < self.n_devices, "device index out of range");
        if !self.churn_active() || round >= self.n_rounds {
            return None;
        }
        self.churn_departs[round * self.n_devices + device]
    }

    /// Mid-round arrival (rejoin) time of `device` in `round` — meaningful
    /// only when the device is out of the cohort at round start; the round
    /// controller ignores the cell otherwise. Same bounds behaviour as
    /// [`FaultPlan::departure_at`].
    ///
    /// # Panics
    /// Panics if `device >= n_devices`.
    pub fn arrival_at(&self, round: usize, device: usize) -> Option<f64> {
        assert!(device < self.n_devices, "device index out of range");
        if !self.churn_active() || round >= self.n_rounds {
            return None;
        }
        self.churn_arrives[round * self.n_devices + device]
    }

    /// Whether this plan carries a live drift timeline.
    pub fn drift_active(&self) -> bool {
        !self.drift_walk.is_empty()
    }

    /// Compute-slowdown multiplier for `device` in `round` from the drift
    /// walk (1.0 = no drift configured, or past the planned horizon).
    /// Composes multiplicatively with [`FaultPlan::contention`].
    ///
    /// # Panics
    /// Panics if `device >= n_devices`.
    pub fn slowdown(&self, round: usize, device: usize) -> f64 {
        assert!(device < self.n_devices, "device index out of range");
        if !self.drift_active() || round >= self.n_rounds {
            return 1.0;
        }
        self.drift_walk[round * self.n_devices + device]
    }

    /// A stable 64-bit digest of the whole plan — two plans with the same
    /// fingerprint injected the same faults. Used by replay-identity tests.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64; // FNV offset basis
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        };
        mix(self.n_devices as u64);
        mix(self.n_rounds as u64);
        for fate in &self.fates {
            let (tag, frac) = match fate {
                DeviceFate::Healthy => (0u64, 0.0),
                DeviceFate::Crash { at_frac } => (1, *at_frac),
                DeviceFate::Depart { at_frac } => (2, *at_frac),
                DeviceFate::Offline => (3, 0.0),
                DeviceFate::Departed => (4, 0.0),
            };
            mix(tag);
            mix(frac.to_bits());
        }
        for c in &self.contention {
            mix(c.to_bits());
        }
        for windows in &self.outages {
            for (s, e) in windows {
                mix(s.to_bits());
                mix(e.to_bits());
            }
        }
        for starts in &self.group_outages {
            for (g, d) in starts {
                mix(*g as u64);
                mix(*d as u64);
            }
        }
        // Churn cells are mixed only when a timeline exists, so legacy
        // fingerprints (no churn process) are unchanged by the knob.
        for cell in self.churn_departs.iter().chain(&self.churn_arrives) {
            match cell {
                Some(t) => {
                    mix(1);
                    mix(t.to_bits());
                }
                None => mix(0),
            }
        }
        // Same rule for drift cells: mixed only when the walk exists.
        for s in &self.drift_walk {
            mix(s.to_bits());
        }
        h
    }
}

/// Counter-based deterministic uniform stream (splitmix64). Independent of
/// the simulation's main RNG, so consuming it never perturbs jitter or
/// training randomness — the property that keeps fault-free chaos runs
/// bit-identical to the plain simulator.
#[derive(Debug, Clone)]
pub struct DrawStream {
    state: u64,
}

impl DrawStream {
    /// A stream seeded from an arbitrary value.
    pub fn new(seed: u64) -> Self {
        DrawStream { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Next uniform value in `[0, 1)`.
    pub fn next_u01(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// The query interface a round controller consumes: plan lookups plus
/// derived auxiliary draw streams for per-transfer decisions.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Wrap an existing plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan }
    }

    /// Generate a plan and wrap it.
    pub fn from_config(config: FaultConfig, n_devices: usize, n_rounds: usize, seed: u64) -> Self {
        FaultInjector::new(FaultPlan::generate(config, n_devices, n_rounds, seed))
    }

    /// An injector that never injects anything (for `n_devices` devices).
    pub fn quiet(n_devices: usize) -> Self {
        FaultInjector::from_config(FaultConfig::none(), n_devices, 0, 0)
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Fate of `device` in `round` (see [`FaultPlan::fate`]).
    pub fn fate(&self, round: usize, device: usize) -> DeviceFate {
        self.plan.fate(round, device)
    }

    /// Contention multiplier (see [`FaultPlan::contention`]).
    pub fn contention(&self, round: usize, device: usize) -> f64 {
        self.plan.contention(round, device)
    }

    /// Outage windows for `round`.
    pub fn outages(&self, round: usize) -> &[(f64, f64)] {
        self.plan.outages(round)
    }

    /// Failure-domain outages starting in `round` (see
    /// [`FaultPlan::group_outages`]).
    pub fn group_outages(&self, round: usize) -> &[(usize, usize)] {
        self.plan.group_outages(round)
    }

    /// Failure domain of `device` (see [`FaultPlan::group_of`]).
    pub fn group_of(&self, device: usize) -> Option<usize> {
        self.plan.group_of(device)
    }

    /// Per-transfer loss probability from the config.
    pub fn loss_prob(&self) -> f64 {
        self.plan.config.loss_prob
    }

    /// Whether the plan carries a live churn timeline (see
    /// [`FaultPlan::churn_active`]).
    pub fn churn_active(&self) -> bool {
        self.plan.churn_active()
    }

    /// Mid-round departure time (see [`FaultPlan::departure_at`]).
    pub fn departure_at(&self, round: usize, device: usize) -> Option<f64> {
        self.plan.departure_at(round, device)
    }

    /// Mid-round arrival time (see [`FaultPlan::arrival_at`]).
    pub fn arrival_at(&self, round: usize, device: usize) -> Option<f64> {
        self.plan.arrival_at(round, device)
    }

    /// Whether the plan carries a live drift timeline (see
    /// [`FaultPlan::drift_active`]).
    pub fn drift_active(&self) -> bool {
        self.plan.drift_active()
    }

    /// Drift slowdown multiplier (see [`FaultPlan::slowdown`]).
    pub fn slowdown(&self, round: usize, device: usize) -> f64 {
        self.plan.slowdown(round, device)
    }

    /// A deterministic draw stream scoped to `(round, channel)` — use a
    /// distinct `channel` per logical consumer (e.g. device index for
    /// phase-1 transfers, `n_devices + index` for rescue transfers) so
    /// streams never alias.
    pub fn draw_stream(&self, round: usize, channel: usize) -> DrawStream {
        let seed = self
            .plan
            .seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add((round as u64) << 32)
            .wrapping_add(channel as u64 + 1);
        DrawStream::new(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos_config() -> FaultConfig {
        FaultConfig::none()
            .with_crash_prob(0.3)
            .with_churn_prob(0.05)
            .with_loss_prob(0.1)
            .with_contention(0.2, 1.5)
            .with_outages(0.25, 30.0, 5.0)
    }

    #[test]
    fn same_seed_gives_identical_plans() {
        let a = FaultPlan::generate(chaos_config(), 6, 40, 42);
        let b = FaultPlan::generate(chaos_config(), 6, 40, 42);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::generate(chaos_config(), 6, 40, 1);
        let b = FaultPlan::generate(chaos_config(), 6, 40, 2);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn quiet_plan_is_all_healthy() {
        let plan = FaultPlan::generate(FaultConfig::none(), 4, 20, 7);
        for r in 0..25 {
            for j in 0..4 {
                assert_eq!(plan.fate(r, j), DeviceFate::Healthy);
                assert_eq!(plan.contention(r, j), 1.0);
            }
            assert!(plan.outages(r).is_empty());
        }
        assert!(FaultConfig::none().is_quiet());
        assert!(!chaos_config().is_quiet());
    }

    #[test]
    fn crash_is_followed_by_reboot_rounds_offline() {
        let mut config = FaultConfig::none().with_crash_prob(1.0);
        config.reboot_rounds = 2;
        let plan = FaultPlan::generate(config, 1, 6, 3);
        // Round 0 crashes, rounds 1-2 offline, round 3 crashes again, ...
        assert!(matches!(plan.fate(0, 0), DeviceFate::Crash { .. }));
        assert_eq!(plan.fate(1, 0), DeviceFate::Offline);
        assert_eq!(plan.fate(2, 0), DeviceFate::Offline);
        assert!(matches!(plan.fate(3, 0), DeviceFate::Crash { .. }));
    }

    #[test]
    fn churn_is_permanent_and_carries_past_horizon() {
        let config = FaultConfig::none().with_churn_prob(1.0);
        let plan = FaultPlan::generate(config, 2, 3, 5);
        assert!(matches!(plan.fate(0, 0), DeviceFate::Depart { .. }));
        assert_eq!(plan.fate(1, 0), DeviceFate::Departed);
        assert_eq!(plan.fate(2, 1), DeviceFate::Departed);
        // Past the planned horizon the departure sticks.
        assert_eq!(plan.fate(10, 0), DeviceFate::Departed);
    }

    #[test]
    fn crash_fractions_are_valid() {
        let plan = FaultPlan::generate(chaos_config(), 8, 50, 11);
        for r in 0..50 {
            for j in 0..8 {
                if let DeviceFate::Crash { at_frac } | DeviceFate::Depart { at_frac } =
                    plan.fate(r, j)
                {
                    assert!((0.0..1.0).contains(&at_frac));
                }
            }
        }
    }

    #[test]
    fn contention_only_hits_online_devices() {
        let config = chaos_config().with_contention(1.0, 2.0);
        let plan = FaultPlan::generate(config, 4, 30, 13);
        for r in 0..30 {
            for j in 0..4 {
                let c = plan.contention(r, j);
                if plan.fate(r, j).is_online() {
                    assert_eq!(c, 2.0);
                } else {
                    assert_eq!(c, 1.0);
                }
            }
        }
    }

    #[test]
    fn outage_windows_respect_config_shape() {
        let config = FaultConfig::none().with_outages(1.0, 20.0, 4.0);
        let plan = FaultPlan::generate(config, 2, 10, 17);
        for r in 0..10 {
            let windows = plan.outages(r);
            assert_eq!(windows.len(), 1);
            let (s, e) = windows[0];
            assert!((0.0..20.0).contains(&s));
            assert!((e - s - 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn draw_streams_are_deterministic_and_scoped() {
        let inj = FaultInjector::from_config(chaos_config(), 3, 10, 99);
        let a: Vec<f64> = {
            let mut s = inj.draw_stream(2, 1);
            (0..5).map(|_| s.next_u01()).collect()
        };
        let b: Vec<f64> = {
            let mut s = inj.draw_stream(2, 1);
            (0..5).map(|_| s.next_u01()).collect()
        };
        assert_eq!(a, b);
        let mut other = inj.draw_stream(2, 2);
        assert_ne!(a[0], other.next_u01());
        for v in a {
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn group_outage_takes_down_whole_domain() {
        let config = FaultConfig::none().with_group_outages(1.0, 2, 2);
        let plan = FaultPlan::generate(config, 6, 4, 21);
        // With prob 1 both groups go down at round 0 for 2 rounds, come back
        // up at round 2 and immediately go down again.
        for r in 0..4 {
            let starts = plan.group_outages(r);
            if r % 2 == 0 {
                assert_eq!(starts, &[(0, 2), (1, 2)], "round {r}");
            } else {
                assert!(starts.is_empty(), "round {r}");
            }
            for j in 0..6 {
                assert_eq!(plan.fate(r, j), DeviceFate::Offline, "round {r} dev {j}");
                assert_eq!(plan.contention(r, j), 1.0);
            }
        }
        assert_eq!(plan.group_of(0), Some(0));
        assert_eq!(plan.group_of(3), Some(1));
        assert_eq!(plan.group_members(1), vec![1, 3, 5]);
    }

    #[test]
    fn group_outages_leave_base_faults_byte_identical() {
        // Adding the group-outage knob must not disturb the main draw
        // stream: a plan without group outages is unchanged, and one *with*
        // them differs only in the overlaid cells.
        let base = FaultPlan::generate(chaos_config(), 6, 40, 42);
        let overlaid = FaultPlan::generate(chaos_config().with_group_outages(0.3, 3, 2), 6, 40, 42);
        for r in 0..40 {
            for j in 0..6 {
                let (b, o) = (base.fate(r, j), overlaid.fate(r, j));
                if b != o {
                    assert_eq!(o, DeviceFate::Offline, "round {r} dev {j}: {b:?} -> {o:?}");
                }
            }
        }
        assert_ne!(base.fingerprint(), overlaid.fingerprint());
    }

    #[test]
    fn quiet_configs_report_group_outages() {
        assert!(FaultConfig::none().is_quiet());
        assert!(!FaultConfig::none().with_group_outages(0.1, 2, 1).is_quiet());
        let plan = FaultPlan::generate(FaultConfig::none(), 3, 5, 1);
        assert!(plan.group_outages(0).is_empty());
        assert_eq!(plan.group_of(0), None);
    }

    #[test]
    fn churn_process_leaves_base_plan_byte_identical() {
        // The churn timeline comes from its own salted stream: every fate,
        // contention cell and outage window of the base plan is unchanged,
        // and only the fingerprint (which mixes the new cells) moves.
        let base = FaultPlan::generate(chaos_config(), 6, 40, 42);
        let churned = FaultPlan::generate(
            chaos_config().with_churn_process(ChurnConfig::symmetric(0.02, 50.0)),
            6,
            40,
            42,
        );
        for r in 0..40 {
            for j in 0..6 {
                assert_eq!(base.fate(r, j), churned.fate(r, j), "round {r} dev {j}");
                assert_eq!(base.contention(r, j), churned.contention(r, j));
            }
            assert_eq!(base.outages(r), churned.outages(r));
        }
        assert!(churned.churn_active());
        assert!(!base.churn_active());
        assert_ne!(base.fingerprint(), churned.fingerprint());
    }

    #[test]
    fn quiet_churn_process_draws_nothing() {
        // Rate 0 generates no timeline at all: the plan (and fingerprint)
        // is byte-identical to one with no churn process configured.
        let base = FaultPlan::generate(chaos_config(), 6, 40, 42);
        let quiet = FaultPlan::generate(
            chaos_config().with_churn_process(ChurnConfig::symmetric(0.0, 50.0)),
            6,
            40,
            42,
        );
        assert!(!quiet.churn_active());
        assert_eq!(base.fingerprint(), quiet.fingerprint());
        assert_eq!(quiet.departure_at(0, 0), None);
        assert_eq!(quiet.arrival_at(0, 0), None);
        assert!(FaultConfig::none()
            .with_churn_process(ChurnConfig::symmetric(0.0, 50.0))
            .is_quiet());
        assert!(!FaultConfig::none()
            .with_churn_process(ChurnConfig::symmetric(0.1, 50.0))
            .is_quiet());
    }

    #[test]
    fn churn_times_replay_and_respect_the_horizon() {
        let config = FaultConfig::none().with_churn_process(ChurnConfig {
            depart_rate: 0.05,
            arrive_rate: 0.02,
            horizon_s: 40.0,
        });
        let a = FaultPlan::generate(config.clone(), 5, 30, 9);
        let b = FaultPlan::generate(config, 5, 30, 9);
        assert_eq!(a, b);
        let mut fired = 0usize;
        for r in 0..30 {
            for j in 0..5 {
                assert_eq!(a.departure_at(r, j), b.departure_at(r, j));
                for t in [a.departure_at(r, j), a.arrival_at(r, j)]
                    .into_iter()
                    .flatten()
                {
                    assert!((0.0..40.0).contains(&t), "churn time {t} out of horizon");
                    fired += 1;
                }
            }
        }
        assert!(fired > 0, "a nonzero-rate process must fire somewhere");
        // Past the planned horizon nothing fires.
        assert_eq!(a.departure_at(30, 0), None);
        assert_eq!(a.arrival_at(30, 0), None);
    }

    #[test]
    fn lowering_legacy_churn_matches_per_round_intensity() {
        // The bridge converts churn_prob p into a departure process whose
        // probability of firing within the horizon is exactly p; check the
        // empirical per-cell departure frequency over many cells.
        let p = 0.3;
        let lowered = FaultConfig::none()
            .with_churn_prob(p)
            .lower_churn_prob(25.0);
        assert_eq!(lowered.churn_prob, 0.0);
        let churn = lowered.churn_process.expect("bridge installs a process");
        assert_eq!(churn.arrive_rate, 0.0);
        let plan = FaultPlan::generate(lowered, 40, 250, 77);
        let mut fired = 0usize;
        let cells = 40 * 250;
        for r in 0..250 {
            for j in 0..40 {
                if plan.departure_at(r, j).is_some() {
                    fired += 1;
                }
            }
        }
        let freq = fired as f64 / cells as f64;
        assert!(
            (freq - p).abs() < 0.02,
            "lowered departure frequency {freq} far from churn_prob {p}"
        );
    }

    #[test]
    fn lowering_zero_churn_is_the_identity() {
        let base = FaultPlan::generate(chaos_config().with_churn_prob(0.0), 6, 40, 42);
        let lowered = FaultPlan::generate(
            chaos_config().with_churn_prob(0.0).lower_churn_prob(25.0),
            6,
            40,
            42,
        );
        assert_eq!(base.fingerprint(), lowered.fingerprint());
        assert!(!lowered.churn_active());
    }

    #[test]
    fn legacy_boundary_churn_fingerprint_is_pinned() {
        // Plans that churn only through the legacy per-round fate table
        // must replay byte-identically forever: pin the digest so neither
        // the main draw order nor the fingerprint mix can silently move.
        let plan = FaultPlan::generate(FaultConfig::none().with_churn_prob(0.5), 4, 6, 42);
        assert_eq!(plan.fingerprint(), 0xf3e7_e07b_714d_7223);
        let replay = FaultPlan::generate(FaultConfig::none().with_churn_prob(0.5), 4, 6, 42);
        assert_eq!(plan.fingerprint(), replay.fingerprint());
    }

    #[test]
    fn drift_leaves_base_plan_byte_identical() {
        // The drift walk comes from its own salted stream: every fate,
        // contention cell and outage window of the base plan is unchanged,
        // and only the fingerprint (which mixes the new cells) moves.
        let base = FaultPlan::generate(chaos_config(), 6, 40, 42);
        let drifted = FaultPlan::generate(
            chaos_config().with_drift(DriftConfig::new(0.1, 4.0)),
            6,
            40,
            42,
        );
        for r in 0..40 {
            for j in 0..6 {
                assert_eq!(base.fate(r, j), drifted.fate(r, j), "round {r} dev {j}");
                assert_eq!(base.contention(r, j), drifted.contention(r, j));
            }
            assert_eq!(base.outages(r), drifted.outages(r));
        }
        assert!(drifted.drift_active());
        assert!(!base.drift_active());
        assert_ne!(base.fingerprint(), drifted.fingerprint());
    }

    #[test]
    fn quiet_drift_draws_nothing() {
        // Sigma 0 generates no timeline at all: the plan (and fingerprint)
        // is byte-identical to one with no drift configured.
        let base = FaultPlan::generate(chaos_config(), 6, 40, 42);
        let quiet = FaultPlan::generate(
            chaos_config().with_drift(DriftConfig::new(0.0, 4.0)),
            6,
            40,
            42,
        );
        assert!(!quiet.drift_active());
        assert_eq!(base.fingerprint(), quiet.fingerprint());
        assert_eq!(quiet.slowdown(0, 0), 1.0);
        assert!(FaultConfig::none()
            .with_drift(DriftConfig::new(0.0, 4.0))
            .is_quiet());
        assert!(!FaultConfig::none()
            .with_drift(DriftConfig::new(0.1, 4.0))
            .is_quiet());
    }

    #[test]
    fn drift_replays_respects_caps_and_actually_moves() {
        let config = FaultConfig::none().with_drift(DriftConfig::new(0.2, 3.0));
        let a = FaultPlan::generate(config.clone(), 5, 60, 9);
        let b = FaultPlan::generate(config, 5, 60, 9);
        assert_eq!(a, b);
        let mut moved = false;
        for r in 0..60 {
            for j in 0..5 {
                let s = a.slowdown(r, j);
                assert_eq!(s, b.slowdown(r, j));
                assert!(
                    (1.0 / 3.0 - 1e-12..=3.0 + 1e-12).contains(&s),
                    "slowdown {s} breaches the cap"
                );
                if (s - 1.0).abs() > 0.05 {
                    moved = true;
                }
            }
        }
        assert!(moved, "a nonzero-sigma walk must move somewhere");
        // Past the planned horizon nothing drifts.
        assert_eq!(a.slowdown(60, 0), 1.0);
    }

    #[test]
    fn drift_is_persistent_round_to_round() {
        // A walk is correlated: the round-to-round change of the walk is
        // much smaller than its excursion from 1, so a slow device stays
        // slow long enough to be learnable.
        let plan = FaultPlan::generate(
            FaultConfig::none().with_drift(DriftConfig::new(0.05, 4.0)),
            4,
            80,
            7,
        );
        let mut step_sum = 0.0f64;
        let mut excursion = 0.0f64;
        for j in 0..4 {
            for r in 1..80 {
                step_sum += (plan.slowdown(r, j).ln() - plan.slowdown(r - 1, j).ln()).abs();
                excursion = excursion.max((plan.slowdown(r, j).ln()).abs());
            }
        }
        let mean_step = step_sum / (4.0 * 79.0);
        assert!(
            excursion > 2.0 * mean_step,
            "walk excursion {excursion} should dwarf the mean step {mean_step}"
        );
    }

    #[test]
    #[should_panic(expected = "drift sigma")]
    fn negative_drift_sigma_rejected() {
        let _ = FaultPlan::generate(
            FaultConfig::none().with_drift(DriftConfig::new(-0.1, 2.0)),
            2,
            5,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "max_slowdown must be >= 1")]
    fn sub_unit_drift_cap_rejected() {
        let _ = FaultPlan::generate(
            FaultConfig::none().with_drift(DriftConfig::new(0.1, 0.5)),
            2,
            5,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "finite non-negative rate")]
    fn negative_churn_rate_rejected() {
        let _ = FaultPlan::generate(
            FaultConfig::none().with_churn_process(ChurnConfig::symmetric(-0.1, 10.0)),
            2,
            5,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_churn_horizon_rejected() {
        let _ = FaultPlan::generate(
            FaultConfig::none().with_churn_process(ChurnConfig::symmetric(0.1, 0.0)),
            2,
            5,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "failure domain")]
    fn zero_group_count_rejected() {
        let _ = FaultPlan::generate(FaultConfig::none().with_group_outages(0.5, 0, 1), 4, 5, 0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_rejected() {
        let _ = FaultPlan::generate(FaultConfig::none().with_crash_prob(1.5), 2, 5, 0);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_cohort_rejected() {
        let _ = FaultPlan::generate(FaultConfig::none(), 0, 5, 0);
    }
}
