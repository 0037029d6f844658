//! The federated-learning runtime: FedAvg aggregation, simulated cohorts,
//! one round engine and one population engine for time, and one trainer
//! for accuracy.
//!
//! The paper's experiments decompose cleanly into *time* and *accuracy*:
//!
//! * [`eventsim::EventRoundSim`] is the one round engine. It replays a
//!   schedule against the device simulator and link models to measure
//!   simulated round times (Figs. 5 and 7, Table II) — no actual ML runs,
//!   so 50-round sweeps cost milliseconds. Device thermal state persists
//!   across rounds, exactly like the paper's continuously-training
//!   phones. A fault model rides on the same core — crashes, churn, lossy
//!   links, retries, deadlines and mid-round straggler rescue — and a
//!   quiet run is timing-identical to the paper's plain replay, which
//!   [`roundsim::RoundSim`] exposes as a quiet facade.
//! * [`cohorts::ParallelRoundEngine`] is the one population engine. It
//!   runs one event round engine per cohort, in parallel, and folds the
//!   cohorts into one [`EngineReport`]. A pooled global deadline,
//!   buffered-async re-timing or an edge tier ([`tier`]) is an optional
//!   stage of the same run, at most one per engine, picked by the
//!   `coordinator` and `hier` build targets.
//! * [`engine`] actually trains: synchronous FedAvg over `fedsched-nn`
//!   networks on partitioned synthetic data (Figs. 2, 3 and 6, Tables III
//!   and V). Clients train in parallel on scoped threads; aggregation is
//!   weighted by sample count (McMahan et al.) and deterministic.
//!
//! [`assign`] bridges scheduler output to concrete training data: IID
//! schedules slice the (device-preloaded) global dataset, non-IID schedules
//! subset each user's class-restricted local data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod asyncfl;
pub mod builder;
pub mod clock;
pub mod cohorts;
pub mod engine;
pub mod eventsim;
pub mod metrics;
pub mod resilient;
pub mod roundsim;
pub mod server;
pub mod spec;
pub mod tier;

pub use assign::{assignment_from_schedule_iid, assignment_from_schedule_noniid};
pub use asyncfl::{staleness_weight, AsyncFlOutcome, AsyncFlSetup};
pub use builder::{ConfigError, RoundConfig, Selection, SimBuilder};
pub use cohorts::{
    default_engine_threads, derive_cohort_seed, CohortReport, EngineKind, EngineReport,
    ParallelRoundEngine, DEFAULT_COHORT_SIZE, THREADS_ENV,
};
pub use engine::{FlOutcome, FlSetup};
pub use eventsim::{AdmissionPolicy, EventRoundSim};
pub use metrics::{analyze_round, cosine_similarity, DivergenceReport};
pub use resilient::{ChaosReport, RoundOutcome};
pub use roundsim::{RoundSim, TimingReport};
pub use server::fedavg_aggregate;
pub use spec::{BuildTarget, BuiltSim, DeviceSetSpec, JobSpec, RoundDigest, SPEC_VERSION};
pub use tier::{derive_edge_seed, edge_cohort_ranges};

// Re-exported so downstream builder call sites need only this crate.
pub use fedsched_bandit::{MaybeSeeded, PolicyKind, SelectionConfig, SelectionPolicy};
pub use fedsched_core::DeadlinePolicy;
pub use fedsched_faults::{AdversaryConfig, AdversaryPlan, AttackKind, ChurnConfig, DriftConfig};
pub use fedsched_robust::{AggregatorKind, RobustAggregator, RobustOutcome};
