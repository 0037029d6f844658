//! The edge tier of a two-tier topology: edge aggregators reduce their
//! cohorts locally, the server reduces the edge aggregates.
//!
//! `EdgeTier` is an optional stage of the
//! [`ParallelRoundEngine`](crate::ParallelRoundEngine) (the `hier` target).
//! It never touches cohort geometry, seed derivation or the per-cohort
//! sims: cohorts are grouped into contiguous edge spans, each edge folds
//! its cohorts' round results with the population fold, and the server
//! folds the edge aggregates with the same function.
//!
//! # Parity contract
//!
//! A tier exists only for a non-trivial topology. With one edge per
//! cohort, no backhaul link and FedAvg at both tiers (the default) the
//! engine runs no tier at all, so reports *and traces* are the flat
//! engine's. One edge total is byte-identical too: the edge fold is the
//! flat fold and the server fold a single-item passthrough.
//! Intermediate geometries regroup floating-point reductions, so the
//! comm fraction may differ in the last bits; every integer field and
//! every max-folded makespan is identical for **all** geometries (max and
//! integer addition are associative), which the topology proptests
//! assert (`tests/hier_identity.rs`).
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
//! deterministic proxy vectors built from the round outcomes (no RNG) and
//! emits [`Event::RobustAggregate`] per reduction, whose `rejected` count
//! is the tier's bookkeeping — it never rewrites the shard/coverage
//! accounting, so the conservation identities survive any tier
//! aggregator.

use std::ops::Range;

use fedsched_net::Link;
use fedsched_robust::{AggregatorKind, RobustAggregator};
use fedsched_telemetry::{Event, Probe};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cohorts::{fold, EngineReport};
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

/// Score one tier reduction with `rule` and narrate it.
fn score(rule: &dyn RobustAggregator, updates: &[(Vec<f32>, usize)], round: usize, probe: &Probe) {
    if updates.is_empty() {
        return;
    }
    let outcome = rule.aggregate(updates);
    probe.emit(|| Event::RobustAggregate {
        round,
        aggregator: rule.name().to_string(),
        n_updates: updates.len(),
        rejected: outcome.rejected.len(),
        mean_score: outcome.mean_score(),
    });
}

/// The edge-tier stage of a non-trivial two-tier topology.
pub(crate) struct EdgeTier {
    edges: usize,
    link: Option<Link>,
    edge_aggregator: AggregatorKind,
    server_aggregator: AggregatorKind,
    model_bytes: f64,
    /// One persistent backhaul RNG per edge, seeded by
    /// [`derive_edge_seed`]; streams continue across `run` calls exactly
    /// like the device-tier sim RNGs. Empty without a link.
    rngs: Vec<StdRng>,
}

impl EdgeTier {
    /// A tier of `edges` aggregators, or `None` when the topology adds
    /// nothing over the flat engine (one edge per cohort, no link, FedAvg
    /// at both tiers).
    pub(crate) fn new(
        edges: usize,
        n_cohorts: usize,
        link: Option<Link>,
        edge_aggregator: AggregatorKind,
        server_aggregator: AggregatorKind,
        model_bytes: f64,
        seed: u64,
    ) -> Option<Self> {
        if edges == n_cohorts
            && link.is_none()
            && edge_aggregator.is_fedavg()
            && server_aggregator.is_fedavg()
        {
            return None;
        }
        let rngs = match link {
            Some(_) => (0..edges)
                .map(|e| StdRng::seed_from_u64(derive_edge_seed(seed, e)))
                .collect(),
            None => Vec::new(),
        };
        Some(EdgeTier {
            edges,
            link,
            edge_aggregator,
            server_aggregator,
            model_bytes,
            rngs,
        })
    }

    /// Reduce the cohorts of `report` per edge, then the edges at the
    /// server, replacing the report's population timing and outcomes with
    /// the server fold. `participants` holds each cohort's weight from the
    /// population fold.
    ///
    /// Emission order, per round in ascending edge order:
    /// [`Event::EdgeReduce`] per edge, then an edge-tier
    /// [`Event::RobustAggregate`] per edge (non-FedAvg edge tier), then
    /// one server-tier [`Event::RobustAggregate`] (non-FedAvg server
    /// tier).
    pub(crate) fn reduce(
        &mut self,
        report: &mut EngineReport,
        participants: &[usize],
        rounds: usize,
        first_round: usize,
        probe: &Probe,
    ) {
        let cohorts = &report.cohorts;
        let layout = edge_cohort_ranges(cohorts.len(), self.edges);

        // Edge tier: fold each span, then add one sampled backhaul
        // transfer per round. Sampling happens only with a link, so a
        // link-free topology draws nothing.
        let mut edges: Vec<(TimingReport, Vec<RoundOutcome>, usize)> =
            Vec::with_capacity(self.edges);
        let mut links = vec![vec![0.0; rounds]; self.edges];
        for (e, span) in layout.iter().enumerate() {
            let items = span.clone().map(|c| {
                let cohort = &cohorts[c];
                (&cohort.timing, cohort.rounds.as_slice(), participants[c])
            });
            let (mut timing, mut edge_rounds) = fold(items, rounds, first_round);
            if let Some(link) = self.link {
                for r in 0..rounds {
                    let s = link.sample_round_seconds(self.model_bytes, &mut self.rngs[e]);
                    timing.per_round_makespan[r] += s;
                    edge_rounds[r].makespan_s += s;
                    links[e][r] = s;
                }
            }
            let edge_participants = span.clone().map(|c| participants[c]).sum();
            edges.push((timing, edge_rounds, edge_participants));
        }

        let edge_rule = (!self.edge_aggregator.is_fedavg()).then(|| self.edge_aggregator.build());
        let server_rule =
            (!self.server_aggregator.is_fedavg()).then(|| self.server_aggregator.build());
        for r in 0..rounds {
            let round = first_round + r;
            for (e, span) in layout.iter().enumerate() {
                let devices = if span.is_empty() {
                    0
                } else {
                    cohorts[span.end - 1].end - cohorts[span.start].start
                };
                probe.emit(|| Event::EdgeReduce {
                    round,
                    edge: e,
                    cohorts: span.len(),
                    devices,
                    makespan_s: edges[e].0.per_round_makespan[r],
                    link_s: links[e][r],
                });
                if let Some(rule) = &edge_rule {
                    let updates: Vec<_> = span
                        .clone()
                        .map(|c| proxy_update(&cohorts[c].rounds[r], participants[c]))
                        .collect();
                    score(rule.as_ref(), &updates, round, probe);
                }
            }
            if let Some(rule) = &server_rule {
                let updates: Vec<_> = edges
                    .iter()
                    .map(|(_, edge_rounds, p)| proxy_update(&edge_rounds[r], *p))
                    .collect();
                score(rule.as_ref(), &updates, round, probe);
            }
        }

        let items = edges
            .iter()
            .map(|(timing, edge_rounds, p)| (timing, edge_rounds.as_slice(), *p));
        let (timing, server_rounds) = fold(items, rounds, first_round);
        report.timing = timing;
        report.rounds = server_rounds;
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
    fn fold_single_item_is_verbatim_passthrough() {
        let timing = TimingReport {
            per_round_makespan: vec![3.5, 4.25],
            per_user_mean: vec![1.0, 2.0, 3.0],
            comm_fraction: 0.123456789,
        };
        let outcome =
            |round, completed, lost_shards, coverage, makespan_s, failed_users| RoundOutcome {
                round,
                scheduled: 9,
                completed,
                rescued: 0,
                lost_shards,
                admitted: 0,
                admit_done: 0,
                carried: 0,
                coverage,
                makespan_s,
                failed_users,
                timed_out: 0,
                rejected_updates: 0,
            };
        let rounds = vec![
            outcome(7, 9, 0, 1.0, 3.5, 0),
            outcome(8, 7, 2, 7.0 / 9.0, 4.25, 1),
        ];
        let (t, r) = fold([(&timing, rounds.as_slice(), 3)].into_iter(), 2, 7);
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
