//! The paper's core contribution: data-allocation scheduling for federated
//! learning on heterogeneous mobile devices.
//!
//! Federated learning rounds are synchronous: the server waits for the
//! slowest participant, so the per-epoch *makespan* is set by the straggler.
//! The paper's key idea is to use **the amount of training data as a tunable
//! knob** — deliberately *unbalancing* load so that slow (or thermally
//! throttled) devices receive less data:
//!
//! * [`lbap::FedLbap`] solves problem **P1** (IID data): jointly partition
//!   `D` data shards and assign them to `n` users to minimize the makespan.
//!   A binary search over the sorted cost matrix finds the minimal threshold
//!   `c*` admitting a feasible assignment, in `O(ns log ns)` (paper
//!   Algorithm 1).
//! * [`minavg::FedMinAvg`] solves problem **P2** (non-IID data): greedy
//!   min-average-cost shard placement where each user carries an *accuracy
//!   cost* [`acc::AccuracyCost`] (Eq. 6) reflecting how skewed its class
//!   distribution is, discounted when it contributes classes nobody else has
//!   (paper Algorithm 2, a bin-packing-with-item-fragmentation variant).
//! * [`baselines`] implements the paper's comparison points: `Proportional`
//!   (data ∝ mean CPU frequency), `Random`, and `Equal` (FedAvg's default).
//! * [`exact`] is a dynamic-programming *exact* makespan minimizer in
//!   `O(n s^2)`, used to validate Fed-LBAP's optimality in tests and to
//!   report optimality gaps in the benchmarks.
//!
//! Inputs come in through [`cost::CostMatrix`] (built from
//! [`fedsched_profiler::CostProfile`]s plus per-user communication costs),
//! outputs through [`schedule::Schedule`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acc;
pub mod analysis;
pub mod baselines;
pub mod causes;
pub mod cost;
pub mod dropout;
pub mod events;
pub mod exact;
pub mod json;
pub mod lbap;
pub mod minavg;
pub mod schedule;

pub use acc::AccuracyCost;
pub use analysis::{analyze, ScheduleAnalysis};
pub use baselines::{EqualScheduler, ProportionalScheduler, RandomScheduler};
pub use cost::CostMatrix;
pub use dropout::{DeadlineDropout, DeadlinePolicy, DropReport};
pub use events::{EventQueue, Parking};
pub use exact::ExactMinMax;
pub use json::{JsonError, JsonValue};
pub use lbap::FedLbap;
pub use minavg::{FedMinAvg, MinAvgProblem, UserSpec};
pub use schedule::{Schedule, ScheduleError, Scheduler};
