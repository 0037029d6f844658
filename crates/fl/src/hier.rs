//! Two-tier hierarchical aggregation: edge aggregators reduce their
//! cohorts locally, the server reduces edge aggregates.
//!
//! [`HierEngine`] wraps a [`ParallelRoundEngine`] without touching its
//! cohort geometry, seed derivation, or per-cohort sims — every cohort
//! still runs the exact [`EventRoundSim`](crate::EventRoundSim) round
//! engine of the flat engine. The hierarchy is a
//! *reduction topology* layered on top: cohorts are grouped into
//! contiguous edge spans, each edge folds its cohorts' round results with
//! the same merge arithmetic the flat engine uses, and the server folds
//! the edge aggregates.
//!
//! # Determinism and parity contract
//!
//! The fold at both tiers reproduces the flat engine's merge semantics
//! *exactly*, including the single-item verbatim passthrough. Two
//! consequences, pinned by `tests/hier_identity.rs`:
//!
//! * **One edge per cohort** (the default topology): the edge tier is all
//!   passthroughs, so the server fold sees the same inputs in the same
//!   order as the flat merge — the report is **byte-identical** to the
//!   flat [`Coordinator`](crate::Coordinator) / engine at every thread
//!   count, and no hierarchy events are emitted, so traces match too.
//! * **One edge total**: the edge fold IS the flat merge and the server
//!   tier is a passthrough — byte-identical again.
//!
//! Intermediate geometries regroup floating-point reductions, so the
//! float fields (`comm_fraction`, merged `per_round_makespan` /
//! `coverage`) may differ in the last bits; every *integer* field and
//! every *max*-folded makespan is identical for **all** geometries
//! (max and integer addition are associative), which the topology
//! proptests assert.
//!
//! # Edge links and tier-level robust aggregation
//!
//! An optional edge→server backhaul [`Link`] adds one sampled transfer
//! per edge per round to that edge's makespan. Each edge draws from its
//! own persistent RNG stream seeded by [`derive_edge_seed`] — disjoint
//! from the master and every cohort stream by construction — so backhaul
//! sampling never perturbs device-tier results and is itself independent
//! of thread count and cohort geometry.
//!
//! [`AggregatorKind`] composes at either tier. Tier aggregation scores
//! deterministic proxy vectors built from the round outcomes (no RNG),
//! emits [`Event::RobustAggregate`] per reduction, and records rejection
//! counts as *additive bookkeeping* in the [`HierReport`] — it never
//! rewrites the shard/coverage accounting, so the conservation identities
//! the differential suite checks survive any tier aggregator.

use std::ops::Range;

use fedsched_core::Schedule;
use fedsched_device::Device;
use fedsched_net::Link;
use fedsched_robust::AggregatorKind;
use fedsched_telemetry::Event;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use crate::cohorts::{CohortReport, EngineReport, ParallelRoundEngine};
use crate::resilient::RoundOutcome;
use crate::roundsim::TimingReport;

/// Derive the backhaul RNG seed for `edge` from the master seed.
///
/// Same splitmix64 finalizer as
/// [`derive_cohort_seed`](crate::derive_cohort_seed) but salted so edge
/// streams are disjoint from every cohort stream, and — unlike cohort 0 —
/// edge 0 does *not* pass the master through: backhaul sampling is a new
/// stream, never a continuation of a device-tier one.
pub fn derive_edge_seed(master: u64, edge: usize) -> u64 {
    let mut z =
        (master ^ 0xED6E_A66E_0000_0001) ^ (edge as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Balanced contiguous split of `n_cohorts` cohort indices across
/// `edges` edge aggregators: edge `i` covers
/// `[i*q + min(i, r), (i+1)*q + min(i+1, r))` where `q = n_cohorts /
/// edges`, `r = n_cohorts % edges` — the first `r` edges get one extra
/// cohort. Valid iff `1 <= edges <= n_cohorts` (or both are zero).
pub fn edge_cohort_ranges(n_cohorts: usize, edges: usize) -> Vec<Range<usize>> {
    assert!(
        edges <= n_cohorts,
        "edge layout needs edges <= n_cohorts ({edges} > {n_cohorts})"
    );
    let q = n_cohorts.checked_div(edges).unwrap_or(0);
    let r = n_cohorts.checked_rem(edges).unwrap_or(0);
    (0..edges)
        .map(|i| (i * q + i.min(r))..((i + 1) * q + (i + 1).min(r)))
        .collect()
}

/// One edge aggregator's reduced view of its cohorts, after any backhaul
/// link time is added.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EdgeReport {
    /// First cohort index this edge reduces (inclusive).
    pub cohort_start: usize,
    /// One past the last cohort index this edge reduces.
    pub cohort_end: usize,
    /// First population device index under this edge (inclusive).
    pub start: usize,
    /// One past the last population device index under this edge.
    pub end: usize,
    /// The edge's backhaul RNG seed (from [`derive_edge_seed`]).
    pub seed: u64,
    /// The edge's reduced timing (same merge arithmetic as the flat
    /// engine; backhaul seconds folded into each round's makespan).
    pub timing: TimingReport,
    /// The edge's reduced per-round outcomes.
    pub rounds: Vec<RoundOutcome>,
}

/// Aggregate result of one [`HierEngine::run`] call.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HierReport {
    /// Server-tier timing: the edge aggregates folded with the flat
    /// engine's merge arithmetic. Byte-identical to the flat
    /// [`EngineReport`](crate::EngineReport) timing in parity topologies.
    pub timing: TimingReport,
    /// Server-tier per-round outcomes.
    pub rounds: Vec<RoundOutcome>,
    /// Per-edge breakdowns, in edge order.
    pub edges: Vec<EdgeReport>,
    /// Per-cohort breakdowns, exactly as the flat engine reports them.
    pub cohorts: Vec<CohortReport>,
    /// Proxy updates the edge-tier aggregator excluded, summed over
    /// edges and rounds. Bookkeeping only — never folded back into the
    /// shard/coverage accounting.
    pub edge_rejections: usize,
    /// Proxy updates the server-tier aggregator excluded, summed over
    /// rounds. Bookkeeping only.
    pub server_rejections: usize,
}

/// Mirror of the flat engine's merge arithmetic over
/// `(timing, rounds, participants)` items — one per cohort at the edge
/// tier, one per edge at the server tier. Must stay operation-for-
/// operation identical to `cohorts::merge_runs`, single-item verbatim
/// passthrough included; the parity suite depends on it.
fn fold_tier(
    items: &[(&TimingReport, &[RoundOutcome], usize)],
    rounds: usize,
    first_round: usize,
) -> (TimingReport, Vec<RoundOutcome>) {
    let single = items.len() == 1;

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
        comm_weighted += timing.comm_fraction * *participants as f64;
        total_participants += participants;

        for (merged, outcome) in merged_rounds.iter_mut().zip(*item_rounds) {
            debug_assert_eq!(merged.round, outcome.round, "tier round indices diverged");
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

    if single {
        (items[0].0.clone(), items[0].1.to_vec())
    } else {
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
}

/// Deterministic proxy update for tier-level robust scoring: an 8-dim
/// feature vector of the round outcome, weighted by participants (floored
/// at 1 so idle cohorts still count as an update). No RNG anywhere —
/// tier aggregation can never perturb device-tier streams.
fn proxy_update(outcome: &RoundOutcome, participants: usize) -> (Vec<f32>, usize) {
    (
        vec![
            outcome.makespan_s as f32,
            outcome.coverage as f32,
            outcome.completed as f32,
            outcome.rescued as f32,
            outcome.lost_shards as f32,
            (outcome.failed_users + outcome.timed_out) as f32,
            outcome.rejected_updates as f32,
            participants as f32,
        ],
        participants.max(1),
    )
}

/// Two-tier hierarchical round engine. Construct through
/// [`SimBuilder::build_hier`](crate::SimBuilder::build_hier).
pub struct HierEngine {
    engine: ParallelRoundEngine,
    edges: usize,
    edge_link: Option<Link>,
    edge_aggregator: AggregatorKind,
    server_aggregator: AggregatorKind,
    model_bytes: f64,
    seed: u64,
    /// One persistent backhaul RNG per edge, seeded by
    /// [`derive_edge_seed`]; streams continue across `run` calls exactly
    /// like the device-tier sim RNGs.
    edge_rngs: Vec<StdRng>,
}

impl HierEngine {
    pub(crate) fn from_parts(
        engine: ParallelRoundEngine,
        edges: usize,
        edge_link: Option<Link>,
        edge_aggregator: AggregatorKind,
        server_aggregator: AggregatorKind,
        model_bytes: f64,
        seed: u64,
    ) -> Self {
        let edge_rngs = (0..edges)
            .map(|e| StdRng::seed_from_u64(derive_edge_seed(seed, e)))
            .collect();
        HierEngine {
            engine,
            edges,
            edge_link,
            edge_aggregator,
            server_aggregator,
            model_bytes,
            seed,
            edge_rngs,
        }
    }

    /// Devices in the population.
    pub fn n_devices(&self) -> usize {
        self.engine.n_devices()
    }

    /// Cohorts the population partitions into.
    pub fn n_cohorts(&self) -> usize {
        self.engine.n_cohorts()
    }

    /// Edge aggregators in the topology.
    pub fn n_edges(&self) -> usize {
        self.edges
    }

    /// Worker threads used for the parallel phase.
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// Rounds simulated so far across all `run` calls.
    pub fn rounds_done(&self) -> usize {
        self.engine.rounds_done()
    }

    /// The edge→server backhaul link, if one is configured.
    pub fn edge_link(&self) -> Option<Link> {
        self.edge_link
    }

    /// The edge-tier aggregation rule.
    pub fn edge_aggregator(&self) -> AggregatorKind {
        self.edge_aggregator
    }

    /// The server-tier aggregation rule.
    pub fn server_aggregator(&self) -> AggregatorKind {
        self.server_aggregator
    }

    /// Cohort index span of every edge, in edge order.
    pub fn edge_layout(&self) -> Vec<Range<usize>> {
        edge_cohort_ranges(self.engine.n_cohorts(), self.edges)
    }

    /// Snapshot the population (cohort sims are flushed back first).
    pub fn devices(&self) -> Vec<Device> {
        self.engine.devices()
    }

    /// Idle the population between training sessions.
    pub fn cool_down(&mut self) {
        self.engine.cool_down();
    }

    /// True iff the topology adds nothing over the flat engine: one edge
    /// per cohort, no backhaul link, FedAvg at both tiers. In that case
    /// no hierarchy events are emitted, so traces — not just reports —
    /// stay byte-identical to the flat path.
    fn trivial_topology(&self) -> bool {
        self.edges == self.engine.n_cohorts()
            && self.edge_link.is_none()
            && self.edge_aggregator.is_fedavg()
            && self.server_aggregator.is_fedavg()
    }

    /// Simulate `rounds` rounds of `schedule`: run the flat engine
    /// unchanged, then reduce cohorts per edge and edges at the server.
    ///
    /// Emission order (non-trivial topologies only), per round in
    /// ascending edge order on the control thread — the single trace
    /// writer once the engine's parallel phase has been spliced:
    /// [`Event::EdgeReduce`] per edge, then an edge-tier
    /// [`Event::RobustAggregate`] per edge (non-FedAvg edge tier), then
    /// one server-tier [`Event::RobustAggregate`] (non-FedAvg server
    /// tier).
    ///
    /// # Panics
    ///
    /// Panics when `schedule` arity does not match the population (the
    /// flat engine's contract).
    pub fn run(&mut self, schedule: &Schedule, rounds: usize) -> HierReport {
        let first_round = self.engine.rounds_done();
        let flat = self.engine.run(schedule, rounds);
        let probe = self.engine.probe_handle();
        let trivial = self.trivial_topology();

        // Participants per cohort: active users in the cohort's schedule
        // slice — the same weights the flat merge uses.
        let participants: Vec<usize> = flat
            .cohorts
            .iter()
            .map(|c| {
                schedule.shards[c.start..c.end]
                    .iter()
                    .filter(|&&s| s > 0)
                    .count()
            })
            .collect();

        let layout = edge_cohort_ranges(flat.cohorts.len(), self.edges);
        let mut edge_reports = Vec::with_capacity(self.edges);
        let mut edge_links: Vec<Vec<f64>> = Vec::with_capacity(self.edges);
        for (e, span) in layout.iter().enumerate() {
            let items: Vec<(&TimingReport, &[RoundOutcome], usize)> = span
                .clone()
                .map(|c| {
                    let cohort = &flat.cohorts[c];
                    (&cohort.timing, cohort.rounds.as_slice(), participants[c])
                })
                .collect();
            let (mut timing, mut edge_rounds) = fold_tier(&items, rounds, first_round);

            // Backhaul: one sampled edge→server transfer per round, added
            // to the edge's makespan. Sampling only happens when a link is
            // configured, so parity topologies draw nothing (and dodge the
            // −0.0 + 0.0 bit hazard entirely).
            let links = if let Some(link) = self.edge_link {
                let rng = &mut self.edge_rngs[e];
                (0..rounds)
                    .map(|r| {
                        let s = link.sample_round_seconds(self.model_bytes, rng);
                        timing.per_round_makespan[r] += s;
                        edge_rounds[r].makespan_s += s;
                        s
                    })
                    .collect()
            } else {
                vec![0.0; rounds]
            };
            edge_links.push(links);

            let (start, end) = if span.is_empty() {
                (0, 0)
            } else {
                (
                    flat.cohorts[span.start].start,
                    flat.cohorts[span.end - 1].end,
                )
            };
            edge_reports.push(EdgeReport {
                cohort_start: span.start,
                cohort_end: span.end,
                start,
                end,
                seed: derive_edge_seed(self.engine_seed(), e),
                timing,
                rounds: edge_rounds,
            });
        }

        // Server tier: fold the edge aggregates with the same arithmetic.
        let edge_participants: Vec<usize> = layout
            .iter()
            .map(|span| span.clone().map(|c| participants[c]).sum())
            .collect();
        let server_items: Vec<(&TimingReport, &[RoundOutcome], usize)> = edge_reports
            .iter()
            .enumerate()
            .map(|(e, er)| (&er.timing, er.rounds.as_slice(), edge_participants[e]))
            .collect();
        let (timing, server_rounds) = fold_tier(&server_items, rounds, first_round);

        // Tier-level robust scoring + event emission, all on this thread.
        let mut edge_rejections = 0usize;
        let mut server_rejections = 0usize;
        let edge_rule = (!self.edge_aggregator.is_fedavg()).then(|| self.edge_aggregator.build());
        let server_rule =
            (!self.server_aggregator.is_fedavg()).then(|| self.server_aggregator.build());
        // `r` indexes several parallel per-round structures (edge timings,
        // backhaul draws, cohort outcomes), so a plain range is clearest.
        #[allow(clippy::needless_range_loop)]
        for r in 0..rounds {
            for (e, er) in edge_reports.iter().enumerate() {
                if !trivial {
                    probe.emit(|| Event::EdgeReduce {
                        round: first_round + r,
                        edge: e,
                        cohorts: er.cohort_end - er.cohort_start,
                        devices: er.end - er.start,
                        makespan_s: er.timing.per_round_makespan[r],
                        link_s: edge_links[e][r],
                    });
                }
                if let Some(rule) = &edge_rule {
                    let updates: Vec<(Vec<f32>, usize)> = (er.cohort_start..er.cohort_end)
                        .map(|c| proxy_update(&flat.cohorts[c].rounds[r], participants[c]))
                        .collect();
                    if !updates.is_empty() {
                        let outcome = rule.aggregate(&updates);
                        edge_rejections += outcome.rejected.len();
                        probe.emit(|| Event::RobustAggregate {
                            round: first_round + r,
                            aggregator: rule.name().to_string(),
                            n_updates: updates.len(),
                            rejected: outcome.rejected.len(),
                            mean_score: outcome.mean_score(),
                        });
                    }
                }
            }
            if let Some(rule) = &server_rule {
                let updates: Vec<(Vec<f32>, usize)> = edge_reports
                    .iter()
                    .enumerate()
                    .map(|(e, er)| proxy_update(&er.rounds[r], edge_participants[e]))
                    .collect();
                if !updates.is_empty() {
                    let outcome = rule.aggregate(&updates);
                    server_rejections += outcome.rejected.len();
                    probe.emit(|| Event::RobustAggregate {
                        round: first_round + r,
                        aggregator: rule.name().to_string(),
                        n_updates: updates.len(),
                        rejected: outcome.rejected.len(),
                        mean_score: outcome.mean_score(),
                    });
                }
            }
        }

        HierReport {
            timing,
            rounds: server_rounds,
            edges: edge_reports,
            cohorts: flat.cohorts,
            edge_rejections,
            server_rejections,
        }
    }

    /// The flat engine's view of the same run, for parity checks: the
    /// server-tier fold of a [`HierReport`] reshaped as an
    /// [`EngineReport`].
    pub fn as_engine_report(report: &HierReport) -> EngineReport {
        EngineReport {
            timing: report.timing.clone(),
            rounds: report.rounds.clone(),
            cohorts: report.cohorts.clone(),
        }
    }

    fn engine_seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_seed_has_no_passthrough_and_distinct_streams() {
        let master = 2020;
        assert_ne!(derive_edge_seed(master, 0), master);
        let seeds: Vec<u64> = (0..64).map(|e| derive_edge_seed(master, e)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
        // Disjoint from the cohort stream family on the same master.
        for e in 0..64usize {
            for c in 0..64usize {
                assert_ne!(
                    derive_edge_seed(master, e),
                    crate::derive_cohort_seed(master, c)
                );
            }
        }
    }

    #[test]
    fn edge_layout_is_balanced_contiguous_and_total() {
        for n_cohorts in 0..24usize {
            for edges in 0..=n_cohorts {
                let spans = edge_cohort_ranges(n_cohorts, edges);
                assert_eq!(spans.len(), edges);
                let mut next = 0;
                for span in &spans {
                    assert_eq!(span.start, next, "spans must be contiguous");
                    assert!(span.end >= span.start);
                    next = span.end;
                }
                if edges > 0 {
                    assert_eq!(next, n_cohorts, "spans must cover every cohort");
                    let sizes: Vec<usize> = spans.iter().map(|s| s.len()).collect();
                    let min = *sizes.iter().min().unwrap();
                    let max = *sizes.iter().max().unwrap();
                    assert!(max - min <= 1, "split must be balanced: {sizes:?}");
                    assert!(min >= 1, "every edge must own a cohort");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "edge layout needs edges <= n_cohorts")]
    fn edge_layout_rejects_more_edges_than_cohorts() {
        let _ = edge_cohort_ranges(2, 3);
    }

    #[test]
    fn fold_tier_single_item_is_verbatim_passthrough() {
        let timing = TimingReport {
            per_round_makespan: vec![3.5, 4.25],
            per_user_mean: vec![1.0, 2.0, 3.0],
            comm_fraction: 0.123456789,
        };
        let rounds = vec![
            RoundOutcome {
                round: 7,
                scheduled: 9,
                completed: 8,
                rescued: 1,
                lost_shards: 0,
                admitted: 0,
                admit_done: 0,
                carried: 0,
                coverage: 1.0,
                makespan_s: 3.5,
                failed_users: 0,
                timed_out: 0,
                rejected_updates: 0,
            },
            RoundOutcome {
                round: 8,
                scheduled: 9,
                completed: 7,
                rescued: 0,
                lost_shards: 2,
                admitted: 0,
                admit_done: 0,
                carried: 0,
                coverage: 7.0 / 9.0,
                makespan_s: 4.25,
                failed_users: 1,
                timed_out: 0,
                rejected_updates: 0,
            },
        ];
        let (t, r) = fold_tier(&[(&timing, rounds.as_slice(), 3)], 2, 7);
        assert_eq!(t, timing);
        assert_eq!(r, rounds);
    }

    #[test]
    fn proxy_updates_are_deterministic_and_weighted() {
        let outcome = RoundOutcome {
            round: 0,
            scheduled: 10,
            completed: 9,
            rescued: 1,
            lost_shards: 0,
            admitted: 0,
            admit_done: 0,
            carried: 0,
            coverage: 1.0,
            makespan_s: 12.5,
            failed_users: 0,
            timed_out: 0,
            rejected_updates: 0,
        };
        let (v1, w1) = proxy_update(&outcome, 4);
        let (v2, w2) = proxy_update(&outcome, 4);
        assert_eq!(v1, v2);
        assert_eq!(w1, 4);
        assert_eq!(v1.len(), 8);
        let (_, w0) = proxy_update(&outcome, 0);
        assert_eq!(w0, 1, "idle cohorts still count as one update");
        assert_eq!(w2, 4);
    }
}
