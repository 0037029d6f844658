//! One shared, fallible construction surface for every simulator in this
//! crate.
//!
//! Historically each sim grew its own positional constructor plus a trail
//! of panicking `with_*` builders; call sites repeated the same five
//! arguments in the same order and learned about bad configuration at
//! runtime, mid-panic. [`SimBuilder`] replaces that: one [`RoundConfig`]
//! carries the knobs every path shares (workload, link, payload size,
//! seed), chainable setters record intent without validating eagerly, and
//! the terminal `build_*` methods validate everything at once, returning a
//! typed [`ConfigError`] instead of panicking. The old positional
//! constructors went through a `#[deprecated]`-shim cycle and are gone;
//! the builder — and its wire twin, [`JobSpec`](crate::spec::JobSpec) —
//! is the only construction path.
//!
//! ```
//! use fedsched_fl::{RoundConfig, SimBuilder};
//! use fedsched_device::Testbed;
//! use fedsched_net::Link;
//! use fedsched_device::TrainingWorkload;
//!
//! let config = RoundConfig::new(TrainingWorkload::lenet(), Link::wifi_campus(), 2.5e6, 7);
//! let sim = SimBuilder::new(Testbed::testbed_1(7).devices().to_vec(), config)
//!     .build_sim()
//!     .unwrap();
//! # let _ = sim;
//! ```

use std::fmt;

use fedsched_bandit::SelectionConfig;
use fedsched_core::{DeadlinePolicy, Scheduler};
use fedsched_device::{Device, TrainingWorkload};
use fedsched_faults::{AdversaryConfig, ChurnConfig, FaultConfig, FaultInjector};
use fedsched_net::{Link, RetryPolicy};
use fedsched_profiler::LinearProfile;
use fedsched_robust::AggregatorKind;
use fedsched_telemetry::Probe;

use crate::cohorts::{
    default_engine_threads, BufferedAsync, ChaosOptions, EngineKind, ParallelRoundEngine, Stage,
    DEFAULT_COHORT_SIZE,
};
use crate::eventsim::{AdmissionPolicy, EventRoundSim};
use crate::resilient::ResilientRoundSim;
use crate::roundsim::RoundSim;
use crate::tier::EdgeTier;

/// Why a simulator could not be built or reconfigured.
///
/// Every variant has a stable machine-readable [`cause_code`] (snake_case,
/// never reworded) so scripts can branch on failures without parsing the
/// human-oriented `Display` text.
///
/// [`cause_code`]: ConfigError::cause_code
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Cohort size of zero devices.
    ZeroCohortSize,
    /// Worker pool of zero threads.
    ZeroThreads,
    /// Every user in a federated training setup is idle.
    EmptyAssignment,
    /// Malformed deadline policy; the payload is the violated rule.
    InvalidDeadline(&'static str),
    /// Rescue SoC floor outside `[0, 1]`.
    InvalidSocFloor(f64),
    /// Malformed retry policy; the payload is the violated rule.
    InvalidRetry(&'static str),
    /// Malformed buffered-async options; the payload is the violated rule.
    InvalidAsync(&'static str),
    /// A knob that the requested build target does not support; the
    /// payload names the knob.
    UnsupportedOption(&'static str),
    /// A per-device input whose length does not match the cohort.
    ArityMismatch {
        /// What was mis-sized (e.g. `"priors"`, `"fault plan"`).
        what: &'static str,
        /// The cohort size.
        expected: usize,
        /// The length actually supplied.
        got: usize,
    },
    /// Rescheduling interval of zero rounds.
    ZeroRescheduleInterval,
    /// Malformed robust-aggregator kind; the payload is the violated rule.
    InvalidAggregator(&'static str),
    /// Malformed adversary configuration; the payload is the violated rule.
    InvalidAdversary(&'static str),
    /// Malformed churn process or admission policy combination; the
    /// payload is the violated rule.
    InvalidChurn(&'static str),
    /// Malformed hierarchical topology (edge/cohort geometry); the
    /// payload is the violated rule.
    InvalidTopology(&'static str),
    /// A configuration that cannot be expressed as a wire
    /// [`JobSpec`](crate::spec::JobSpec) — it carries host-side objects
    /// (custom injectors, reschedulers, priors, ad-hoc device fleets) with
    /// no serial form. The payload names the offending knob.
    NotSerializable(&'static str),
    /// A wire [`JobSpec`](crate::spec::JobSpec) document that is
    /// malformed: bad JSON shape, an unknown field, or an unrecognized
    /// tag value. The payload describes the problem.
    InvalidSpec(String),
    /// Malformed online client-selection configuration (bad policy
    /// parameter, zero cohort) or a knob combination selection cannot
    /// coexist with; the payload is the violated rule.
    InvalidSelection(&'static str),
}

impl ConfigError {
    /// Stable machine-readable cause tag.
    ///
    /// The strings are `pub const`s in [`fedsched_core::causes`] — one
    /// exhaustive table shared with the wire layer, so the code a script
    /// matches in-process is byte-for-byte the code `fedsched-serve`
    /// returns in HTTP error bodies.
    pub fn cause_code(&self) -> &'static str {
        use fedsched_core::causes;
        match self {
            ConfigError::ZeroCohortSize => causes::ZERO_COHORT_SIZE,
            ConfigError::ZeroThreads => causes::ZERO_THREADS,
            ConfigError::EmptyAssignment => causes::EMPTY_ASSIGNMENT,
            ConfigError::InvalidDeadline(_) => causes::INVALID_DEADLINE,
            ConfigError::InvalidSocFloor(_) => causes::INVALID_SOC_FLOOR,
            ConfigError::InvalidRetry(_) => causes::INVALID_RETRY,
            ConfigError::InvalidAsync(_) => causes::INVALID_ASYNC,
            ConfigError::UnsupportedOption(_) => causes::UNSUPPORTED_OPTION,
            ConfigError::ArityMismatch { .. } => causes::ARITY_MISMATCH,
            ConfigError::ZeroRescheduleInterval => causes::ZERO_RESCHEDULE_INTERVAL,
            ConfigError::InvalidAggregator(_) => causes::INVALID_AGGREGATOR,
            ConfigError::InvalidAdversary(_) => causes::INVALID_ADVERSARY,
            ConfigError::InvalidChurn(_) => causes::INVALID_CHURN,
            ConfigError::InvalidTopology(_) => causes::INVALID_TOPOLOGY,
            ConfigError::NotSerializable(_) => causes::NOT_SERIALIZABLE,
            ConfigError::InvalidSpec(_) => causes::INVALID_SPEC,
            ConfigError::InvalidSelection(_) => causes::INVALID_SELECTION,
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroCohortSize => write!(f, "cohort size must be positive"),
            ConfigError::ZeroThreads => write!(f, "thread count must be positive"),
            ConfigError::EmptyAssignment => {
                write!(f, "federated run needs at least one user with data")
            }
            ConfigError::InvalidDeadline(rule) => write!(f, "invalid deadline policy: {rule}"),
            ConfigError::InvalidSocFloor(floor) => {
                write!(f, "rescue SoC floor must be in [0, 1], got {floor}")
            }
            ConfigError::InvalidRetry(rule) => write!(f, "invalid retry policy: {rule}"),
            ConfigError::InvalidAsync(rule) => write!(f, "invalid async options: {rule}"),
            ConfigError::UnsupportedOption(what) => {
                write!(f, "{what} is not supported by this build target")
            }
            ConfigError::ArityMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what} sized for {got} devices, cohort has {expected}"),
            ConfigError::ZeroRescheduleInterval => {
                write!(f, "rescheduling interval must be positive")
            }
            ConfigError::InvalidAggregator(rule) => {
                write!(f, "invalid robust aggregator: {rule}")
            }
            ConfigError::InvalidAdversary(rule) => {
                write!(f, "invalid adversary config: {rule}")
            }
            ConfigError::InvalidChurn(rule) => {
                write!(f, "invalid churn config: {rule}")
            }
            ConfigError::InvalidTopology(rule) => {
                write!(f, "invalid hierarchical topology: {rule}")
            }
            ConfigError::NotSerializable(what) => {
                write!(f, "{what} has no wire form and cannot appear in a job spec")
            }
            ConfigError::InvalidSpec(problem) => {
                write!(f, "invalid job spec: {problem}")
            }
            ConfigError::InvalidSelection(rule) => {
                write!(f, "invalid selection config: {rule}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The four knobs every round-level simulator shares: what each device
/// computes, how bytes move, how many bytes move, and the master seed.
#[derive(Debug, Clone, Copy)]
pub struct RoundConfig {
    /// Device-side training workload (per-sample cost model).
    pub workload: TrainingWorkload,
    /// Uplink/downlink model.
    pub link: Link,
    /// Transfer payload per direction, bytes.
    pub model_bytes: f64,
    /// Master RNG seed; everything stochastic derives from it.
    pub seed: u64,
}

impl RoundConfig {
    /// Bundle the shared simulator knobs.
    pub fn new(workload: TrainingWorkload, link: Link, model_bytes: f64, seed: u64) -> Self {
        RoundConfig {
            workload,
            link,
            model_bytes,
            seed,
        }
    }
}

/// Online client-selection choice recorded by [`SimBuilder::selection`].
///
/// [`Selection::Off`] — the default — schedules every device every round,
/// exactly today's behaviour; [`Selection::Bandit`] lets a bandit policy
/// pick a `k`-device cohort online before the inner scheduler splits
/// shards, feeding observed round outcomes back as rewards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Selection {
    /// No online selection: the full fleet is scheduled each round.
    Off,
    /// Bandit-driven cohort selection with the given configuration.
    Bandit(SelectionConfig),
}

/// Buffered-async coordination knobs recorded by
/// [`SimBuilder::buffered_async`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct AsyncOptions {
    pub(crate) buffer: usize,
    pub(crate) eta: f64,
}

/// One builder for every simulator: the quiet [`RoundSim`] facade, the
/// [`EventRoundSim`] round engine (the `resilient` and `event_sim`
/// targets) and the [`ParallelRoundEngine`] population engine (the
/// `engine`, `coordinator` and `hier` targets).
///
/// Setters are infallible and record raw values; each terminal `build_*`
/// validates the full configuration against its target and rejects knobs
/// the target cannot honour with
/// [`ConfigError::UnsupportedOption`] — a deadline on a plain
/// [`RoundSim`] is an error, not a silent no-op.
///
/// Which knobs each target honours (mirrors the README migration table):
///
/// | Knob | `sim` | `resilient` | `event_sim` | `engine` | `coordinator` | `hier` |
/// |------|:-----:|:-----------:|:-----------:|:--------:|:-------------:|:------:|
/// | [`probe`](SimBuilder::probe) | ✓ | ✓ | ✓ | ✓ | ✓ | ✓ |
/// | [`deadline`](SimBuilder::deadline) | — | ✓ | ✓ | ✓ | ✓¹ | ✓ |
/// | [`retry`](SimBuilder::retry), [`no_rescue`](SimBuilder::no_rescue), [`rescue_soc_floor`](SimBuilder::rescue_soc_floor), [`faults`](SimBuilder::faults) | — | ✓ | ✓ | ✓ | ✓ | ✓ |
/// | [`injector`](SimBuilder::injector), [`rescheduler`](SimBuilder::rescheduler), [`priors`](SimBuilder::priors) ² | — | ✓ | ✓ | — | — | — |
/// | [`aggregator`](SimBuilder::aggregator), [`adversary`](SimBuilder::adversary) | — | ✓ | ✓ | ✓ | ✓ | ✓ |
/// | [`cohort_size`](SimBuilder::cohort_size), [`threads`](SimBuilder::threads) | — | — | — | ✓ | ✓ | ✓ |
/// | [`engine_kind`](SimBuilder::engine_kind) ⁴ | — | — | ✓⁴ | ✓ | ✓ | ✓ |
/// | [`churn`](SimBuilder::churn), [`admission`](SimBuilder::admission) ³ | — | — | ✓ | ✓³ | ✓³ | ✓³ |
/// | [`selection`](SimBuilder::selection) | — | ✓ | ✓ | ✓ | ✓ | ✓ |
/// | [`buffered_async`](SimBuilder::buffered_async) | — | — | — | — | ✓¹ | — |
/// | [`edges`](SimBuilder::edges), [`edge_link`](SimBuilder::edge_link), [`edge_aggregator`](SimBuilder::edge_aggregator), [`server_aggregator`](SimBuilder::server_aggregator) | — | — | — | — | — | ✓ |
///
/// ¹ a coordinator takes a deadline *or* `buffered_async`, not both; its
///   deadline is one population-wide cutoff per round, where `engine` and
///   `hier` resolve deadlines per cohort.
/// ² ad-hoc injected objects; accepted in-process but rejected by
///   [`SimBuilder::to_spec`] with `"not_serializable"` — they have no
///   wire form.
/// ³ `build_event_sim`, or the engine-family targets with
///   [`EngineKind::EventDriven`].
/// ⁴ accepted for wire compatibility; selects nothing. Every round runs
///   on the event core; the value only gates churn as in ³, and
///   `build_event_sim` accepts only [`EngineKind::EventDriven`].
///
/// Every “—” cell is a typed [`ConfigError`], never a silent drop.
pub struct SimBuilder {
    pub(crate) devices: Vec<Device>,
    pub(crate) config: RoundConfig,
    pub(crate) probe: Probe,
    pub(crate) deadline: DeadlinePolicy,
    pub(crate) retry: Option<RetryPolicy>,
    pub(crate) rescue: bool,
    pub(crate) rescue_soc_floor: f64,
    pub(crate) faults: Option<(FaultConfig, usize)>,
    pub(crate) injector: Option<FaultInjector>,
    pub(crate) rescheduler: Option<(Box<dyn Scheduler>, usize)>,
    pub(crate) priors: Option<Vec<LinearProfile>>,
    pub(crate) cohort_size: Option<usize>,
    pub(crate) threads: Option<usize>,
    pub(crate) async_opts: Option<AsyncOptions>,
    pub(crate) aggregator: Option<AggregatorKind>,
    pub(crate) adversary: Option<(AdversaryConfig, usize)>,
    pub(crate) engine_kind: Option<EngineKind>,
    pub(crate) churn: Option<ChurnConfig>,
    pub(crate) admission: Option<AdmissionPolicy>,
    pub(crate) selection: Option<SelectionConfig>,
    pub(crate) edges: Option<usize>,
    pub(crate) edge_link: Option<Link>,
    pub(crate) edge_aggregator: Option<AggregatorKind>,
    pub(crate) server_aggregator: Option<AggregatorKind>,
    /// Remembered by [`SimBuilder::from_spec`] so
    /// [`SimBuilder::to_spec`] can serialize the fleet back out; `None`
    /// for ad-hoc `Vec<Device>` fleets, which have no wire form.
    pub(crate) device_spec: Option<crate::spec::DeviceSetSpec>,
}

impl SimBuilder {
    /// Start building over `devices` with the shared `config`.
    pub fn new(devices: Vec<Device>, config: RoundConfig) -> Self {
        SimBuilder {
            devices,
            config,
            probe: Probe::disabled(),
            deadline: DeadlinePolicy::Off,
            retry: None,
            rescue: true,
            rescue_soc_floor: 0.0,
            faults: None,
            injector: None,
            rescheduler: None,
            priors: None,
            cohort_size: None,
            threads: None,
            async_opts: None,
            aggregator: None,
            adversary: None,
            engine_kind: None,
            churn: None,
            admission: None,
            selection: None,
            edges: None,
            edge_link: None,
            edge_aggregator: None,
            server_aggregator: None,
            device_spec: None,
        }
    }

    /// Attach a telemetry probe. Valid for every build target.
    pub fn probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// Set the per-round deadline policy. On [`build_resilient`] adaptive
    /// policies resolve against the cohort's own predicted times each
    /// round; on [`build_engine`] against each cohort separately; on
    /// [`build_coordinator`] against the pooled population
    /// (the tentpole difference).
    ///
    /// [`build_resilient`]: SimBuilder::build_resilient
    /// [`build_engine`]: SimBuilder::build_engine
    /// [`build_coordinator`]: SimBuilder::build_coordinator
    pub fn deadline(mut self, policy: DeadlinePolicy) -> Self {
        self.deadline = policy;
        self
    }

    /// Set the transfer retry policy (every target but `sim`).
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Disable mid-round straggler rescue.
    pub fn no_rescue(mut self) -> Self {
        self.rescue = false;
        self
    }

    /// Energy-aware rescue floor: survivors below this SoC are exempt.
    pub fn rescue_soc_floor(mut self, floor: f64) -> Self {
        self.rescue_soc_floor = floor;
        self
    }

    /// Inject faults drawn from `config`, planned for `planned_rounds`.
    /// On the population targets each cohort derives its own injector.
    pub fn faults(mut self, config: FaultConfig, planned_rounds: usize) -> Self {
        self.faults = Some((config, planned_rounds));
        self
    }

    /// Use a pre-built fault injector (resilient target only). Overrides
    /// [`faults`](SimBuilder::faults); lets callers decouple the fault-plan
    /// seed from the simulation seed.
    pub fn injector(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Re-plan the shard allocation every `every` rounds (resilient only).
    pub fn rescheduler(mut self, scheduler: Box<dyn Scheduler>, every: usize) -> Self {
        self.rescheduler = Some((scheduler, every));
        self
    }

    /// Warm-start online profilers from offline priors (resilient only).
    pub fn priors(mut self, priors: Vec<LinearProfile>) -> Self {
        self.priors = Some(priors);
        self
    }

    /// Devices per cohort (engine/coordinator/hier only).
    pub fn cohort_size(mut self, size: usize) -> Self {
        self.cohort_size = Some(size);
        self
    }

    /// Worker threads (engine/coordinator/hier only). Never changes
    /// results; the engine runs at most 64 whatever is requested.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Select the robust aggregation rule the server scores deliveries
    /// with (every target but `sim`). [`AggregatorKind::FedAvg`] —
    /// the default — keeps today's behaviour bit for bit; any other kind
    /// forces the fault-tolerant path so rejections have somewhere to go.
    ///
    /// Tier naming: unqualified `aggregator` always means the **device
    /// tier** — the rule applied to per-device deliveries — on every
    /// target, including [`build_hier`](SimBuilder::build_hier). The
    /// two-tier hierarchy layers
    /// [`edge_aggregator`](SimBuilder::edge_aggregator) and
    /// [`server_aggregator`](SimBuilder::server_aggregator) *on top* for
    /// its edge and root tiers; there is no unqualified server-tier
    /// alias, so a flat config ported to `build_hier` keeps its meaning.
    pub fn aggregator(mut self, kind: AggregatorKind) -> Self {
        self.aggregator = Some(kind);
        self
    }

    /// Attach an adversary model planned for `planned_rounds`
    /// (every target but `sim`). On the population targets each
    /// cohort derives its own `AdversaryPlan` from the cohort seed,
    /// mirroring per-cohort fault injectors.
    pub fn adversary(mut self, config: AdversaryConfig, planned_rounds: usize) -> Self {
        self.adversary = Some((config, planned_rounds));
        self
    }

    /// Record an [`EngineKind`] (engine/coordinator/hier, and
    /// `EventDriven` on `build_event_sim`). Accepted for wire
    /// compatibility; it selects nothing — every round runs on the event
    /// core. Engine-family targets still accept
    /// [`churn`](SimBuilder::churn) only with [`EngineKind::EventDriven`].
    pub fn engine_kind(mut self, kind: EngineKind) -> Self {
        self.engine_kind = Some(kind);
        self
    }

    /// Continuous mid-round churn: devices arrive and depart inside
    /// rounds at seed-derived exponential times
    /// ([`build_event_sim`](SimBuilder::build_event_sim), or an
    /// engine/coordinator/hier with [`EngineKind::EventDriven`]). Requires
    /// a fault source ([`faults`](SimBuilder::faults)) because churn
    /// timelines ride on the fault plan; the other targets reject the knob
    /// with [`ConfigError::UnsupportedOption`].
    ///
    /// ```
    /// use fedsched_device::{Testbed, TrainingWorkload};
    /// use fedsched_faults::{ChurnConfig, FaultConfig};
    /// use fedsched_fl::{EngineKind, RoundConfig, SimBuilder};
    /// use fedsched_net::Link;
    ///
    /// let config = RoundConfig::new(TrainingWorkload::lenet(), Link::wifi_campus(), 2.5e6, 7);
    /// let engine = SimBuilder::new(Testbed::testbed_1(7).devices().to_vec(), config)
    ///     .faults(FaultConfig::none(), 4)
    ///     .churn(ChurnConfig::symmetric(0.05, 60.0)) // events/s per device, horizon
    ///     .engine_kind(EngineKind::EventDriven)
    ///     .build_engine()?;
    /// # let _ = engine;
    /// # Ok::<(), fedsched_fl::ConfigError>(())
    /// ```
    pub fn churn(mut self, config: ChurnConfig) -> Self {
        self.churn = Some(config);
        self
    }

    /// What to do with devices that arrive mid-round (the targets that
    /// accept [`churn`](SimBuilder::churn), which it requires):
    /// [`AdmissionPolicy::Reject`] logs and drops,
    /// [`AdmissionPolicy::NextRound`] parks arrivals for the following
    /// round, and [`AdmissionPolicy::MidRoundFill`] additionally grants
    /// the earliest arrival whatever shards rescue could not place.
    ///
    /// ```
    /// use fedsched_device::{Testbed, TrainingWorkload};
    /// use fedsched_faults::{ChurnConfig, FaultConfig};
    /// use fedsched_fl::{AdmissionPolicy, RoundConfig, SimBuilder};
    /// use fedsched_net::Link;
    ///
    /// let config = RoundConfig::new(TrainingWorkload::lenet(), Link::wifi_campus(), 2.5e6, 7);
    /// let sim = SimBuilder::new(Testbed::testbed_1(7).devices().to_vec(), config)
    ///     .faults(FaultConfig::none(), 4)
    ///     .churn(ChurnConfig::symmetric(0.05, 60.0))
    ///     .admission(AdmissionPolicy::MidRoundFill)
    ///     .build_event_sim()?;
    /// # let _ = sim;
    /// # Ok::<(), fedsched_fl::ConfigError>(())
    /// ```
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Online bandit-driven client selection
    /// (resilient/event_sim/engine/coordinator/hier). Each round the
    /// policy picks a `k`-device cohort per scheduling domain, the inner
    /// scheduler splits the full shard load among the picked devices, and
    /// observed round outcomes (throughput discounted by battery drain)
    /// feed back as arm rewards. [`Selection::Off`] — the default —
    /// keeps today's schedule-everyone behaviour bit for bit.
    ///
    /// Selection re-plans the shard split every round itself, so it
    /// cannot be combined with [`rescheduler`](SimBuilder::rescheduler);
    /// that combination is a typed [`ConfigError::InvalidSelection`].
    ///
    /// ```
    /// use fedsched_bandit::{PolicyKind, SelectionConfig};
    /// use fedsched_device::{Testbed, TrainingWorkload};
    /// use fedsched_fl::{RoundConfig, Selection, SimBuilder};
    /// use fedsched_net::Link;
    ///
    /// let config = RoundConfig::new(TrainingWorkload::lenet(), Link::wifi_campus(), 2.5e6, 7);
    /// let sim = SimBuilder::new(Testbed::testbed_1(7).devices().to_vec(), config)
    ///     .selection(Selection::Bandit(SelectionConfig::new(
    ///         PolicyKind::Ucb1 { c: 1.0 },
    ///         2,
    ///     )))
    ///     .build_resilient()?;
    /// # let _ = sim;
    /// # Ok::<(), fedsched_fl::ConfigError>(())
    /// ```
    pub fn selection(mut self, selection: Selection) -> Self {
        self.selection = match selection {
            Selection::Off => None,
            Selection::Bandit(config) => Some(config),
        };
        self
    }

    /// Number of edge aggregators in a two-tier topology (`hier` target
    /// only, [`build_hier`](SimBuilder::build_hier)). Cohorts are split
    /// across edges in balanced contiguous spans; defaults to one edge
    /// per cohort, the parity topology that is byte-identical to the
    /// flat engine.
    pub fn edges(mut self, edges: usize) -> Self {
        self.edges = Some(edges);
        self
    }

    /// Edge→server backhaul link (`hier` target only): each edge's round
    /// makespan gains one sampled transfer of the model payload, drawn
    /// from the edge's own RNG stream.
    pub fn edge_link(mut self, link: Link) -> Self {
        self.edge_link = Some(link);
        self
    }

    /// Robust aggregation rule applied at the *edge* tier over per-cohort
    /// proxy updates (`hier` target only).
    pub fn edge_aggregator(mut self, kind: AggregatorKind) -> Self {
        self.edge_aggregator = Some(kind);
        self
    }

    /// Robust aggregation rule applied at the *server* tier over
    /// per-edge proxy updates (`hier` target only).
    pub fn server_aggregator(mut self, kind: AggregatorKind) -> Self {
        self.server_aggregator = Some(kind);
        self
    }

    /// Coordinate cohorts through a buffered asynchronous aggregator
    /// (`coordinator` target only): merge as soon as `buffer` cohort
    /// updates are queued, discounting each by FedAsync staleness weight
    /// with base rate `eta`.
    pub fn buffered_async(mut self, buffer: usize, eta: f64) -> Self {
        self.async_opts = Some(AsyncOptions { buffer, eta });
        self
    }

    /// Reject hierarchy knobs on every non-hierarchical build target —
    /// dropping a topology silently would fake a two-tier run.
    fn reject_hier(&self) -> Result<(), ConfigError> {
        if self.edges.is_some() {
            return Err(ConfigError::UnsupportedOption("edges"));
        }
        if self.edge_link.is_some() {
            return Err(ConfigError::UnsupportedOption("edge_link"));
        }
        if self.edge_aggregator.is_some() {
            return Err(ConfigError::UnsupportedOption("edge_aggregator"));
        }
        if self.server_aggregator.is_some() {
            return Err(ConfigError::UnsupportedOption("server_aggregator"));
        }
        Ok(())
    }

    /// Reject the host objects only the sequential targets take: an
    /// injector, a rescheduler or priors configure one sim, not a
    /// population of cohorts.
    fn reject_host_objects(&self) -> Result<(), ConfigError> {
        if self.injector.is_some() {
            return Err(ConfigError::UnsupportedOption("injector"));
        }
        if self.rescheduler.is_some() {
            return Err(ConfigError::UnsupportedOption("rescheduler"));
        }
        if self.priors.is_some() {
            return Err(ConfigError::UnsupportedOption("priors"));
        }
        Ok(())
    }

    /// True iff some knob needs fault machinery.
    fn wants_chaos(&self) -> bool {
        self.faults.is_some()
            || self.injector.is_some()
            || self.retry.is_some()
            || !self.deadline.is_off()
            || !self.rescue
            || self.rescue_soc_floor > 0.0
            || self.rescheduler.is_some()
            || self.priors.is_some()
            || self.aggregator.is_some_and(|k| !k.is_fedavg())
            || self.adversary.is_some()
            || self.churn.is_some()
            || self.admission.is_some()
            || self.selection.is_some()
    }

    /// The first chaos-only knob set, for precise error payloads.
    fn first_chaos_option(&self) -> &'static str {
        if self.faults.is_some() {
            "faults"
        } else if self.injector.is_some() {
            "injector"
        } else if self.retry.is_some() {
            "retry"
        } else if !self.deadline.is_off() {
            "deadline"
        } else if !self.rescue {
            "no_rescue"
        } else if self.rescue_soc_floor > 0.0 {
            "rescue_soc_floor"
        } else if self.rescheduler.is_some() {
            "rescheduler"
        } else if self.priors.is_some() {
            "priors"
        } else if self.adversary.is_some() {
            "adversary"
        } else if self.churn.is_some() {
            "churn"
        } else if self.admission.is_some() {
            "admission"
        } else if self.selection.is_some() {
            "selection"
        } else {
            "aggregator"
        }
    }

    /// Validate the online-selection config and its knob interactions.
    /// Selection owns the per-round shard split, so a periodic
    /// rescheduler alongside it is a contradiction, not a composition.
    fn check_selection(&self) -> Result<Option<SelectionConfig>, ConfigError> {
        if let Some(config) = &self.selection {
            config.validate().map_err(ConfigError::InvalidSelection)?;
            if self.rescheduler.is_some() {
                return Err(ConfigError::InvalidSelection(
                    "selection re-plans the split every round; drop the rescheduler",
                ));
            }
        }
        Ok(self.selection)
    }

    /// Validate the churn/admission knob combination and, when a churn
    /// process is configured, fold it into the fault config so per-cohort
    /// injectors derive their churn timelines from cohort seeds.
    fn take_churn(&mut self) -> Result<Option<AdmissionPolicy>, ConfigError> {
        let admission = self.admission.take();
        if admission.is_some() && self.churn.is_none() {
            return Err(ConfigError::InvalidChurn(
                "admission requires a churn process",
            ));
        }
        if let Some(cfg) = self.churn.take() {
            let rate_ok = |r: f64| r.is_finite() && r >= 0.0;
            if !rate_ok(cfg.depart_rate) || !rate_ok(cfg.arrive_rate) {
                return Err(ConfigError::InvalidChurn(
                    "rates must be finite and non-negative",
                ));
            }
            if (cfg.depart_rate > 0.0 || cfg.arrive_rate > 0.0)
                && !(cfg.horizon_s > 0.0 && cfg.horizon_s.is_finite())
            {
                return Err(ConfigError::InvalidChurn(
                    "horizon must be positive while a rate is nonzero",
                ));
            }
            match &mut self.faults {
                Some((fc, _)) => *fc = fc.clone().with_churn_process(cfg),
                None => {
                    return Err(ConfigError::InvalidChurn(
                        "churn requires a fault source (faults(..))",
                    ))
                }
            }
        }
        Ok(admission)
    }

    /// True iff a churn timeline reached this builder by any route — the
    /// `churn(..)` knob, a fault config carrying a churn process, or a
    /// pre-built injector whose plan has churn cells. Targets without
    /// churn support reject all of them.
    fn carries_churn(&self) -> bool {
        self.churn.is_some()
            || self
                .faults
                .as_ref()
                .is_some_and(|(fc, _)| fc.churn_process.is_some_and(|c| !c.is_quiet()))
            || self
                .injector
                .as_ref()
                .is_some_and(|inj| inj.plan().churn_active())
    }

    fn check_aggregator(&self) -> Result<AggregatorKind, ConfigError> {
        let kind = self.aggregator.unwrap_or_default();
        kind.validate().map_err(ConfigError::InvalidAggregator)?;
        Ok(kind)
    }

    fn check_adversary(&self) -> Result<Option<(AdversaryConfig, usize)>, ConfigError> {
        if let Some((config, _)) = &self.adversary {
            config.check().map_err(ConfigError::InvalidAdversary)?;
        }
        Ok(self.adversary)
    }

    fn check_deadline(&self) -> Result<(), ConfigError> {
        self.deadline.check().map_err(ConfigError::InvalidDeadline)
    }

    fn check_retry(&self) -> Result<(), ConfigError> {
        if let Some(retry) = &self.retry {
            retry.check().map_err(ConfigError::InvalidRetry)?;
        }
        Ok(())
    }

    fn check_soc_floor(&self) -> Result<(), ConfigError> {
        let floor = self.rescue_soc_floor;
        if (0.0..=1.0).contains(&floor) && floor.is_finite() {
            Ok(())
        } else {
            Err(ConfigError::InvalidSocFloor(floor))
        }
    }

    fn check_async(&self) -> Result<Option<BufferedAsync>, ConfigError> {
        match self.async_opts {
            None => Ok(None),
            Some(AsyncOptions { buffer, eta }) => {
                if buffer == 0 {
                    return Err(ConfigError::InvalidAsync(
                        "buffer must hold at least one update",
                    ));
                }
                if !(eta > 0.0 && eta.is_finite()) {
                    return Err(ConfigError::InvalidAsync("eta must be positive and finite"));
                }
                Ok(Some(BufferedAsync::new(buffer, eta)))
            }
        }
    }

    /// Build the quiet sequential [`RoundSim`] facade. Rejects every fault,
    /// deadline, cohort and async knob — the quiet sim reports timing only,
    /// and dropping them silently would fake fidelity.
    pub fn build_sim(self) -> Result<RoundSim, ConfigError> {
        self.reject_hier()?;
        if self.wants_chaos() {
            return Err(ConfigError::UnsupportedOption(self.first_chaos_option()));
        }
        // With no chaos knob set, the round state is quiet.
        let state = self.build_round_state()?;
        Ok(RoundSim::new(
            EventRoundSim::new(state).credit_idle_shards(),
        ))
    }

    /// Build a sequential fault-tolerant [`EventRoundSim`] — the
    /// `resilient` target. With no fault source configured the injector is
    /// quiet, and the run reproduces [`RoundSim`]'s timing bit for bit.
    ///
    /// Churn by any route — the [`churn`](SimBuilder::churn) knob, a fault
    /// config with a churn process, or an injector with churn cells — is
    /// rejected rather than silently ignored; so is
    /// [`admission`](SimBuilder::admission). Use
    /// [`build_event_sim`](SimBuilder::build_event_sim) for churn.
    pub fn build_resilient(self) -> Result<EventRoundSim, ConfigError> {
        if self.carries_churn() {
            return Err(ConfigError::UnsupportedOption("churn"));
        }
        if self.admission.is_some() {
            return Err(ConfigError::UnsupportedOption("admission"));
        }
        Ok(EventRoundSim::new(self.build_round_state()?))
    }

    /// The round state behind [`build_resilient`](SimBuilder::build_resilient)
    /// and [`build_event_sim`](SimBuilder::build_event_sim), minus the
    /// churn rejections — `build_event_sim` reaches it after folding churn
    /// into the fault config.
    fn build_round_state(self) -> Result<ResilientRoundSim, ConfigError> {
        self.reject_hier()?;
        if self.cohort_size.is_some() {
            return Err(ConfigError::UnsupportedOption("cohort_size"));
        }
        if self.threads.is_some() {
            return Err(ConfigError::UnsupportedOption("threads"));
        }
        if self.async_opts.is_some() {
            return Err(ConfigError::UnsupportedOption("buffered_async"));
        }
        if self.engine_kind.is_some() {
            return Err(ConfigError::UnsupportedOption("engine_kind"));
        }
        self.check_deadline()?;
        self.check_retry()?;
        self.check_soc_floor()?;
        let aggregator = self.check_aggregator()?;
        let adversary = self.check_adversary()?;
        let selection = self.check_selection()?;
        let n = self.devices.len();
        if let Some((_, every)) = &self.rescheduler {
            if *every == 0 {
                return Err(ConfigError::ZeroRescheduleInterval);
            }
        }
        if let Some(priors) = &self.priors {
            if priors.len() != n {
                return Err(ConfigError::ArityMismatch {
                    what: "priors",
                    expected: n,
                    got: priors.len(),
                });
            }
        }
        let c = self.config;
        let opts = self.chaos_options(aggregator, adversary, selection);
        let injector = match (self.injector, &self.faults) {
            (Some(injector), _) => injector,
            (None, Some((config, planned))) => {
                FaultInjector::from_config(config.clone(), n, *planned, c.seed)
            }
            (None, None) => FaultInjector::quiet(n),
        };
        if injector.plan().n_devices() != n {
            return Err(ConfigError::ArityMismatch {
                what: "fault plan",
                expected: n,
                got: injector.plan().n_devices(),
            });
        }
        let state = ResilientRoundSim::from_parts(
            self.devices,
            c.workload,
            c.link,
            c.model_bytes,
            c.seed,
            injector,
        )
        .with_probe(self.probe);
        let mut sim = opts.configure(state, n, c.seed);
        if let Some((scheduler, every)) = self.rescheduler {
            sim = sim.with_rescheduler(scheduler, every);
        }
        if let Some(priors) = self.priors {
            sim = sim.with_priors(&priors);
        }
        Ok(sim)
    }

    /// Build a sequential [`EventRoundSim`] — the `event_sim` target: the
    /// `resilient` target plus the [`churn`](SimBuilder::churn) and
    /// [`admission`](SimBuilder::admission) knobs. Every fault, deadline,
    /// rescue, rescheduler and adversary knob is honoured; requesting
    /// [`EngineKind::Lockstep`] here is rejected.
    pub fn build_event_sim(mut self) -> Result<EventRoundSim, ConfigError> {
        if self.engine_kind == Some(EngineKind::Lockstep) {
            return Err(ConfigError::UnsupportedOption("engine_kind"));
        }
        self.engine_kind = None;
        let admission = self.take_churn()?;
        let mut sim = EventRoundSim::new(self.build_round_state()?);
        if let Some(policy) = admission {
            sim.set_admission(policy);
        }
        Ok(sim)
    }

    /// Build a [`ParallelRoundEngine`] — the `engine` target. Fault and
    /// deadline knobs apply to every cohort; adaptive deadlines resolve
    /// *per cohort* (use [`build_coordinator`](SimBuilder::build_coordinator)
    /// for one population-pooled deadline).
    pub fn build_engine(self) -> Result<ParallelRoundEngine, ConfigError> {
        self.reject_hier()?;
        self.reject_host_objects()?;
        if self.async_opts.is_some() {
            return Err(ConfigError::UnsupportedOption("buffered_async"));
        }
        self.build_population(|_, _| Ok(Stage::Flat))
    }

    /// Build the `coordinator` target: a [`ParallelRoundEngine`] with a
    /// cross-cohort control loop. The deadline policy resolves against the
    /// *pooled population* predictions (one global straggler cutoff per
    /// round), or, with [`buffered_async`](SimBuilder::buffered_async),
    /// cohort updates merge through a staleness-discounted buffer; the two
    /// do not combine, since async mode has no global barrier.
    pub fn build_coordinator(self) -> Result<ParallelRoundEngine, ConfigError> {
        self.reject_hier()?;
        self.reject_host_objects()?;
        let buffered_async = self.check_async()?;
        let policy = self.deadline;
        if !policy.is_off() && buffered_async.is_some() {
            return Err(ConfigError::InvalidAsync(
                "global deadline policies require barrier mode",
            ));
        }
        // The global stage owns deadline resolution: cohorts must not also
        // resolve per-cohort, so their own policy stays Off. A global
        // deadline makes every cohort fault-capable (quiet chaos options).
        let mut builder = self;
        builder.deadline = DeadlinePolicy::Off;
        builder.async_opts = None;
        policy.check().map_err(ConfigError::InvalidDeadline)?;
        let stage = match buffered_async {
            Some(stage) => Stage::BufferedAsync(stage),
            None if policy.is_off() => Stage::Flat,
            None => Stage::GlobalDeadline(policy),
        };
        builder.build_population(|_, _| Ok(stage))
    }

    /// Build the `hier` target: a [`ParallelRoundEngine`] whose edge
    /// aggregators reduce balanced contiguous cohort spans and whose
    /// server reduces the edge aggregates. The cohorts honour every engine
    /// knob (faults, per-cohort deadlines, churn with
    /// [`EngineKind::EventDriven`]); topology knobs add on top. The
    /// defaults — one edge per cohort, no backhaul link, FedAvg at both
    /// tiers — add no tier, so reports *and traces* are
    /// [`build_engine`](SimBuilder::build_engine)'s at every thread count.
    pub fn build_hier(self) -> Result<ParallelRoundEngine, ConfigError> {
        self.reject_host_objects()?;
        if self.async_opts.is_some() {
            return Err(ConfigError::UnsupportedOption("buffered_async"));
        }
        for tier in [self.edge_aggregator, self.server_aggregator] {
            tier.unwrap_or_default()
                .validate()
                .map_err(ConfigError::InvalidAggregator)?;
        }
        if self.edges == Some(0) {
            return Err(ConfigError::InvalidTopology(
                "hierarchy needs at least one edge aggregator",
            ));
        }
        self.build_population(|builder, n_cohorts| {
            let edges = builder.edges.unwrap_or(n_cohorts);
            if edges > n_cohorts {
                return Err(ConfigError::InvalidTopology(
                    "more edge aggregators than cohorts",
                ));
            }
            let tier = EdgeTier::new(
                edges,
                n_cohorts,
                builder.edge_link,
                builder.edge_aggregator.unwrap_or_default(),
                builder.server_aggregator.unwrap_or_default(),
                builder.config.model_bytes,
                builder.config.seed,
            );
            Ok(tier.map_or(Stage::Flat, Stage::Tier))
        })
    }

    /// The validated fault and recovery knobs as per-domain
    /// [`ChaosOptions`] (admission aside, which only engines carry).
    fn chaos_options(
        &self,
        aggregator: AggregatorKind,
        adversary: Option<(AdversaryConfig, usize)>,
        selection: Option<SelectionConfig>,
    ) -> ChaosOptions {
        let (config, planned) = self
            .faults
            .clone()
            .unwrap_or_else(|| (FaultConfig::none(), 0));
        ChaosOptions {
            retry: self.retry.unwrap_or_else(RetryPolicy::single_attempt),
            deadline: self.deadline,
            rescue: self.rescue,
            rescue_soc_floor: self.rescue_soc_floor,
            aggregator,
            adversary,
            selection,
            ..ChaosOptions::new(config, planned)
        }
    }

    /// The one constructor behind the three population targets: validate
    /// the shared knobs, then let the target pick its stage from the
    /// validated builder and the cohort count, and assemble the engine.
    fn build_population(
        mut self,
        stage: impl FnOnce(&Self, usize) -> Result<Stage, ConfigError>,
    ) -> Result<ParallelRoundEngine, ConfigError> {
        // Churn is accepted only with an explicit event-driven engine kind,
        // the configurations that accepted it before every cohort ran on
        // the event core.
        let admission = if self.engine_kind == Some(EngineKind::EventDriven) {
            self.take_churn()?
        } else {
            if self.carries_churn() {
                return Err(ConfigError::UnsupportedOption("churn"));
            }
            if self.admission.is_some() {
                return Err(ConfigError::UnsupportedOption("admission"));
            }
            None
        };
        self.check_deadline()?;
        self.check_retry()?;
        self.check_soc_floor()?;
        let aggregator = self.check_aggregator()?;
        let adversary = self.check_adversary()?;
        let selection = self.check_selection()?;
        let cohort_size = self.cohort_size.unwrap_or(DEFAULT_COHORT_SIZE);
        if cohort_size == 0 {
            return Err(ConfigError::ZeroCohortSize);
        }
        let threads = self.threads.unwrap_or_else(default_engine_threads);
        if threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        let stage = stage(&self, self.devices.len().div_ceil(cohort_size))?;
        let wants_chaos = self.faults.is_some()
            || self.retry.is_some()
            || !self.deadline.is_off()
            || !self.rescue
            || self.rescue_soc_floor > 0.0
            || !aggregator.is_fedavg()
            || adversary.is_some()
            || selection.is_some()
            || matches!(stage, Stage::GlobalDeadline(_));
        let chaos = wants_chaos.then(|| ChaosOptions {
            admission: admission.unwrap_or_default(),
            ..self.chaos_options(aggregator, adversary, selection)
        });
        Ok(ParallelRoundEngine::from_parts(
            self.devices,
            self.config,
            cohort_size,
            threads,
            self.probe,
            chaos,
            stage,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsched_core::Schedule;
    use fedsched_device::Testbed;

    fn config(seed: u64) -> RoundConfig {
        RoundConfig::new(TrainingWorkload::lenet(), Link::wifi_campus(), 2.5e6, seed)
    }

    fn devices(seed: u64) -> Vec<Device> {
        Testbed::testbed_1(seed).devices().to_vec()
    }

    fn schedule() -> Schedule {
        Schedule::new(vec![10, 10, 10], 100.0)
    }

    #[test]
    fn builder_sim_is_deterministic_per_seed() {
        let mut a = SimBuilder::new(devices(7), config(7)).build_sim().unwrap();
        let mut b = SimBuilder::new(devices(7), config(7)).build_sim().unwrap();
        assert_eq!(a.run(&schedule(), 3), b.run(&schedule(), 3));
    }

    /// FNV-1a 64 of a report's `Debug` text.
    fn fingerprint(report: &impl std::fmt::Debug) -> u64 {
        fedsched_core::json::fnv1a64(format!("{report:?}").as_bytes())
    }

    /// Frozen quiet `RoundSim` timing of the default-injector scenario.
    const QUIET_PIN: u64 = 0xfc4a7c97b88ba264;
    /// Frozen `resilient` target report of the chaos scenario.
    const CHAOS_PIN: u64 = 0x532afed815fad77e;

    #[test]
    fn builder_resilient_defaults_to_quiet_injector() {
        let mut quiet = SimBuilder::new(devices(9), config(9))
            .build_resilient()
            .unwrap();
        let mut plain = SimBuilder::new(devices(9), config(9)).build_sim().unwrap();
        let report = quiet.run(&schedule(), 3);
        let plain = plain.run(&schedule(), 3);
        let got = fingerprint(&plain);
        assert_eq!(got, QUIET_PIN, "{got:#018x}");
        assert_eq!(report.timing, plain);
        assert!(report.rounds.iter().all(|r| r.lost_shards == 0));
    }

    #[test]
    fn unsupported_knobs_are_rejected_not_dropped() {
        let err = SimBuilder::new(devices(1), config(1))
            .deadline(DeadlinePolicy::Fixed(10.0))
            .build_sim()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("deadline"));
        assert_eq!(err.cause_code(), "unsupported_option");

        let err = SimBuilder::new(devices(1), config(1))
            .cohort_size(4)
            .build_resilient()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("cohort_size"));

        let err = SimBuilder::new(devices(1), config(1))
            .buffered_async(2, 0.5)
            .build_engine()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("buffered_async"));

        let err = SimBuilder::new(devices(1), config(1))
            .aggregator(AggregatorKind::Median)
            .build_sim()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("aggregator"));

        let err = SimBuilder::new(devices(1), config(1))
            .adversary(AdversaryConfig::none(), 4)
            .build_sim()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("adversary"));
    }

    #[test]
    fn invalid_values_map_to_typed_errors() {
        let err = SimBuilder::new(devices(1), config(1))
            .cohort_size(0)
            .build_engine()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::ZeroCohortSize);
        assert_eq!(err.cause_code(), "zero_cohort_size");

        let err = SimBuilder::new(devices(1), config(1))
            .threads(0)
            .build_engine()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::ZeroThreads);

        let err = SimBuilder::new(devices(1), config(1))
            .deadline(DeadlinePolicy::Fixed(-1.0))
            .build_resilient()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_deadline");

        let err = SimBuilder::new(devices(1), config(1))
            .rescue_soc_floor(1.5)
            .build_resilient()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::InvalidSocFloor(1.5));

        let err = SimBuilder::new(devices(1), config(1))
            .priors(Vec::new())
            .build_resilient()
            .err()
            .unwrap();
        assert_eq!(
            err,
            ConfigError::ArityMismatch {
                what: "priors",
                expected: 3,
                got: 0
            }
        );

        let err = SimBuilder::new(devices(1), config(1))
            .buffered_async(0, 0.5)
            .build_coordinator()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_async");

        let err = SimBuilder::new(devices(1), config(1))
            .aggregator(AggregatorKind::MultiKrum { f: 1, k: 0 })
            .build_resilient()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_aggregator");

        let err = SimBuilder::new(devices(1), config(1))
            .adversary(
                AdversaryConfig::none().with_attackers(1.5, fedsched_faults::AttackKind::SignFlip),
                4,
            )
            .build_engine()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_adversary");

        let err = SimBuilder::new(devices(1), config(1))
            .deadline(DeadlinePolicy::MeanFactor(1.5))
            .buffered_async(2, 0.5)
            .build_coordinator()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_async");
    }

    #[test]
    fn event_sim_matches_resilient_bit_for_bit() {
        use fedsched_faults::FaultConfig;
        let chaos = FaultConfig::none().with_crash_prob(0.3).with_loss_prob(0.2);
        let mut resilient = SimBuilder::new(devices(11), config(11))
            .faults(chaos.clone(), 4)
            .deadline(DeadlinePolicy::Fixed(55.0))
            .build_resilient()
            .unwrap();
        let mut event = SimBuilder::new(devices(11), config(11))
            .faults(chaos, 4)
            .deadline(DeadlinePolicy::Fixed(55.0))
            .build_event_sim()
            .unwrap();
        let a = resilient.run(&schedule(), 4);
        let got = fingerprint(&a);
        assert_eq!(got, CHAOS_PIN, "{got:#018x}");
        assert_eq!(a, event.run(&schedule(), 4));
    }

    #[test]
    fn engine_kind_is_rejected_where_meaningless() {
        let err = SimBuilder::new(devices(1), config(1))
            .engine_kind(EngineKind::EventDriven)
            .build_sim()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("engine_kind"));

        let err = SimBuilder::new(devices(1), config(1))
            .engine_kind(EngineKind::EventDriven)
            .build_resilient()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("engine_kind"));

        // The event-sim target never accepted the lockstep wire value.
        let err = SimBuilder::new(devices(1), config(1))
            .engine_kind(EngineKind::Lockstep)
            .build_event_sim()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("engine_kind"));
    }

    #[test]
    fn churn_is_rejected_without_an_event_driven_target() {
        use fedsched_faults::ChurnConfig;
        let churn = ChurnConfig::symmetric(0.05, 60.0);

        let err = SimBuilder::new(devices(1), config(1))
            .faults(FaultConfig::none(), 4)
            .churn(churn)
            .build_resilient()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("churn"));

        // A churn process smuggled in through the fault config is caught
        // too — the timeline would otherwise be silently ignored.
        let err = SimBuilder::new(devices(1), config(1))
            .faults(FaultConfig::none().with_churn_process(churn), 4)
            .build_resilient()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("churn"));

        // The engine with the default engine kind rejects as well; an
        // explicit event-driven kind accepts.
        let err = SimBuilder::new(devices(1), config(1))
            .faults(FaultConfig::none(), 4)
            .churn(churn)
            .build_engine()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("churn"));
        assert!(SimBuilder::new(devices(1), config(1))
            .faults(FaultConfig::none(), 4)
            .churn(churn)
            .engine_kind(EngineKind::EventDriven)
            .build_engine()
            .is_ok());

        let err = SimBuilder::new(devices(1), config(1))
            .faults(FaultConfig::none(), 4)
            .churn(churn)
            .admission(crate::AdmissionPolicy::MidRoundFill)
            .build_resilient()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("churn"));
    }

    #[test]
    fn malformed_churn_combinations_are_typed() {
        use fedsched_faults::ChurnConfig;

        // Churn with no fault source has no plan to ride on.
        let err = SimBuilder::new(devices(1), config(1))
            .churn(ChurnConfig::symmetric(0.05, 60.0))
            .build_event_sim()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_churn");

        // Admission without churn is a contradiction.
        let err = SimBuilder::new(devices(1), config(1))
            .faults(FaultConfig::none(), 4)
            .admission(crate::AdmissionPolicy::NextRound)
            .build_event_sim()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_churn");

        // Malformed numeric knobs.
        let err = SimBuilder::new(devices(1), config(1))
            .faults(FaultConfig::none(), 4)
            .churn(ChurnConfig::symmetric(-1.0, 60.0))
            .build_event_sim()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_churn");
        let err = SimBuilder::new(devices(1), config(1))
            .faults(FaultConfig::none(), 4)
            .churn(ChurnConfig::symmetric(0.05, 0.0))
            .build_event_sim()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_churn");
    }

    #[test]
    fn selection_gating_and_validation_are_typed() {
        use fedsched_bandit::{PolicyKind, SelectionConfig};
        use fedsched_core::FedLbap;
        let ucb = SelectionConfig::new(PolicyKind::Ucb1 { c: 1.0 }, 2);

        // The plain sim has no selection machinery: typed rejection.
        let err = SimBuilder::new(devices(1), config(1))
            .selection(Selection::Bandit(ucb))
            .build_sim()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("selection"));

        // Selection::Off is the default, not a chaos trigger.
        assert!(SimBuilder::new(devices(1), config(1))
            .selection(Selection::Off)
            .build_sim()
            .is_ok());

        // Malformed knobs map to invalid_selection on every chaos target.
        let zero_k = SelectionConfig::new(PolicyKind::ThompsonSampling, 0);
        let err = SimBuilder::new(devices(1), config(1))
            .selection(Selection::Bandit(zero_k))
            .build_resilient()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_selection");
        let bad_eps = SelectionConfig::new(PolicyKind::EpsilonGreedy { epsilon: 1.5 }, 2);
        let err = SimBuilder::new(devices(1), config(1))
            .selection(Selection::Bandit(bad_eps))
            .build_engine()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_selection");

        // Selection owns the per-round re-plan; a periodic rescheduler
        // alongside it is a contradiction.
        let err = SimBuilder::new(devices(1), config(1))
            .selection(Selection::Bandit(ucb))
            .rescheduler(Box::new(FedLbap), 2)
            .build_resilient()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_selection");

        // Every chaos-capable target accepts a valid config.
        assert!(SimBuilder::new(devices(1), config(1))
            .selection(Selection::Bandit(ucb))
            .build_resilient()
            .is_ok());
        assert!(SimBuilder::new(devices(1), config(1))
            .selection(Selection::Bandit(ucb))
            .build_event_sim()
            .is_ok());
        assert!(SimBuilder::new(devices(1), config(1))
            .selection(Selection::Bandit(ucb))
            .build_engine()
            .is_ok());
        assert!(SimBuilder::new(devices(1), config(1))
            .selection(Selection::Bandit(ucb))
            .build_coordinator()
            .is_ok());
        assert!(SimBuilder::new(devices(1), config(1))
            .selection(Selection::Bandit(ucb))
            .build_hier()
            .is_ok());
    }

    #[test]
    fn hier_knobs_are_rejected_off_the_hier_target() {
        let err = SimBuilder::new(devices(1), config(1))
            .edges(2)
            .build_sim()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("edges"));

        let err = SimBuilder::new(devices(1), config(1))
            .edge_link(Link::lte_tmobile())
            .build_resilient()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("edge_link"));

        let err = SimBuilder::new(devices(1), config(1))
            .edge_aggregator(AggregatorKind::Median)
            .build_engine()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("edge_aggregator"));

        let err = SimBuilder::new(devices(1), config(1))
            .server_aggregator(AggregatorKind::Median)
            .build_coordinator()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("server_aggregator"));

        let err = SimBuilder::new(devices(1), config(1))
            .edges(1)
            .build_event_sim()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("edges"));
    }

    #[test]
    fn malformed_topologies_are_typed() {
        let err = SimBuilder::new(devices(1), config(1))
            .edges(0)
            .build_hier()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_topology");

        // testbed_1 has 3 devices => 1 cohort at the default cohort size.
        let err = SimBuilder::new(devices(1), config(1))
            .edges(2)
            .build_hier()
            .err()
            .unwrap();
        assert_eq!(
            err,
            ConfigError::InvalidTopology("more edge aggregators than cohorts")
        );

        // Hier still rejects knobs the engine core cannot honour.
        let err = SimBuilder::new(devices(1), config(1))
            .buffered_async(2, 0.5)
            .build_hier()
            .err()
            .unwrap();
        assert_eq!(err, ConfigError::UnsupportedOption("buffered_async"));

        // Tier aggregators are validated like the device-tier one.
        let err = SimBuilder::new(devices(1), config(1))
            .edge_aggregator(AggregatorKind::MultiKrum { f: 1, k: 0 })
            .build_hier()
            .err()
            .unwrap();
        assert_eq!(err.cause_code(), "invalid_aggregator");
    }

    #[test]
    fn hier_defaults_build_and_report_parity_shape() {
        use fedsched_telemetry::EventLog;
        use std::sync::Arc;
        let log = Arc::new(EventLog::new());
        let mut hier = SimBuilder::new(devices(3), config(3))
            .probe(Probe::attached(log.clone()))
            .build_hier()
            .unwrap();
        let report = hier.run(&schedule(), 2);
        let mut flat = SimBuilder::new(devices(3), config(3))
            .build_engine()
            .unwrap();
        assert_eq!(report, flat.run(&schedule(), 2));
        // The default topology adds no tier, so it narrates none.
        let jsonl = log.to_jsonl();
        assert!(!jsonl.contains("edge_reduce") && !jsonl.contains("robust_aggregate"));
    }

    #[test]
    fn display_and_cause_codes_are_stable() {
        let cases: Vec<(ConfigError, &str)> = vec![
            (ConfigError::ZeroCohortSize, "zero_cohort_size"),
            (ConfigError::ZeroThreads, "zero_threads"),
            (ConfigError::EmptyAssignment, "empty_assignment"),
            (ConfigError::InvalidDeadline("x"), "invalid_deadline"),
            (ConfigError::InvalidSocFloor(2.0), "invalid_soc_floor"),
            (ConfigError::InvalidRetry("x"), "invalid_retry"),
            (ConfigError::InvalidAsync("x"), "invalid_async"),
            (ConfigError::UnsupportedOption("x"), "unsupported_option"),
            (
                ConfigError::ArityMismatch {
                    what: "priors",
                    expected: 3,
                    got: 1,
                },
                "arity_mismatch",
            ),
            (
                ConfigError::ZeroRescheduleInterval,
                "zero_reschedule_interval",
            ),
            (ConfigError::InvalidAggregator("x"), "invalid_aggregator"),
            (ConfigError::InvalidAdversary("x"), "invalid_adversary"),
            (ConfigError::InvalidChurn("x"), "invalid_churn"),
            (ConfigError::InvalidTopology("x"), "invalid_topology"),
            (ConfigError::NotSerializable("x"), "not_serializable"),
            (ConfigError::InvalidSpec("bad".to_string()), "invalid_spec"),
            (ConfigError::InvalidSelection("x"), "invalid_selection"),
        ];
        for (err, code) in cases {
            assert_eq!(err.cause_code(), code);
            assert!(!err.to_string().is_empty());
            let _: &dyn std::error::Error = &err;
        }
    }
}
