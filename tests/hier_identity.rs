//! Differential suite for the `hier` target (the population engine with
//! an edge tier) and the SoA device arena.
//!
//! The hierarchy's contract is that it is a *reduction topology*, not a
//! simulator: cohorts run the exact flat code paths, and with one edge
//! per cohort (the default, which runs no tier) or one edge total, the
//! report and the telemetry stream are **byte-identical** to the flat
//! engine at every thread count — quiet, chaos and attacked arms alike.
//! Intermediate geometries regroup float reductions, so only
//! `comm_fraction` may move in the last bits; every integer field, every
//! max-folded makespan, the recomputed coverage and the concatenated
//! per-user means stay exact, which the topology proptest pins for random
//! geometry. Edge spans and backhaul draws are read from the
//! `edge_reduce` events, and a non-trivial topology replays a frozen
//! output.
//!
//! The arena's contract is that it is a *storage layout*: a population
//! built through [`DeviceArena`] must drive a simulation to the same
//! bytes as the scalar `Vec<Device>` construction it replaces.

use std::sync::Arc;

use proptest::prelude::*;

use fedsched::core::json::fnv1a64;
use fedsched::core::Schedule;
use fedsched::device::{Device, DeviceArena, DeviceModel, Testbed, TrainingWorkload};
use fedsched::faults::{AdversaryConfig, AttackKind, FaultConfig};
use fedsched::fl::{AggregatorKind, RoundConfig, SimBuilder};
use fedsched::net::{Link, RetryPolicy};
use fedsched::telemetry::{Event, EventLog, Probe};

const SEED: u64 = 2020;
const MODEL_BYTES: f64 = 2.5e6;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn round_config(seed: u64) -> RoundConfig {
    RoundConfig::new(
        TrainingWorkload::lenet(),
        Link::wifi_campus(),
        MODEL_BYTES,
        seed,
    )
}

/// A mixed-model population of `n` devices (cycling Table I presets).
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

fn uniform(n: usize, shards: usize) -> Schedule {
    Schedule::new(vec![shards; n], 100.0)
}

/// `(round, edge, cohorts, devices, link_s)` of every edge reduction
/// `log` recorded.
fn edge_reductions(log: &EventLog) -> Vec<(usize, usize, usize, usize, f64)> {
    log.events()
        .into_iter()
        .filter_map(|e| match e {
            Event::EdgeReduce {
                round,
                edge,
                cohorts,
                devices,
                link_s,
                ..
            } => Some((round, edge, cohorts, devices, link_s)),
            _ => None,
        })
        .collect()
}

/// Flat engine run: report debug string + trace bytes.
fn flat_run(
    devices: Vec<Device>,
    schedule: &Schedule,
    rounds: usize,
    cohort_size: usize,
    threads: usize,
) -> (String, String) {
    let log = Arc::new(EventLog::new());
    let mut eng = SimBuilder::new(devices, round_config(SEED))
        .cohort_size(cohort_size)
        .threads(threads)
        .probe(Probe::attached(log.clone()))
        .build_engine()
        .expect("flat engine config is valid");
    let report = eng.run(schedule, rounds);
    (format!("{report:?}"), log.to_jsonl())
}

/// Default-topology hier run (one edge per cohort, no link, FedAvg at
/// both tiers): report debug string + trace bytes.
fn hier_run(
    devices: Vec<Device>,
    schedule: &Schedule,
    rounds: usize,
    cohort_size: usize,
    threads: usize,
) -> (String, String) {
    let log = Arc::new(EventLog::new());
    let mut eng = SimBuilder::new(devices, round_config(SEED))
        .cohort_size(cohort_size)
        .threads(threads)
        .probe(Probe::attached(log.clone()))
        .build_hier()
        .expect("hier engine config is valid");
    let report = eng.run(schedule, rounds);
    (format!("{report:?}"), log.to_jsonl())
}

#[test]
fn every_testbed_preset_is_bit_identical_flat_vs_hier() {
    for preset in 1..=3usize {
        let tb = Testbed::by_index(preset, SEED);
        let n = tb.devices().len();
        let schedule = uniform(n, 10);
        for threads in THREAD_COUNTS {
            let (want_report, want_jsonl) =
                flat_run(tb.devices().to_vec(), &schedule, 3, 2, threads);
            assert!(!want_jsonl.is_empty());
            let (report, jsonl) = hier_run(tb.devices().to_vec(), &schedule, 3, 2, threads);
            assert_eq!(
                report, want_report,
                "testbed {preset}, threads {threads}: report diverged"
            );
            assert_eq!(
                jsonl, want_jsonl,
                "testbed {preset}, threads {threads}: trace bytes diverged"
            );
        }
    }

    // The four-preset Table I cohort from the golden scenario, too.
    let tb = Testbed::new(
        &[
            DeviceModel::Nexus6,
            DeviceModel::Nexus6P,
            DeviceModel::Mate10,
            DeviceModel::Pixel2,
        ],
        SEED,
    );
    let schedule = uniform(4, 10);
    for threads in THREAD_COUNTS {
        let want = flat_run(tb.devices().to_vec(), &schedule, 3, 2, threads);
        let got = hier_run(tb.devices().to_vec(), &schedule, 3, 2, threads);
        assert_eq!(got, want, "table1 cohort, threads {threads}");
    }
}

#[test]
fn chaos_plan_is_bit_identical_flat_vs_hier() {
    let n = 8;
    let rounds = 4;
    let schedule = uniform(n, 3);
    let config = FaultConfig::none()
        .with_crash_prob(0.25)
        .with_loss_prob(0.15)
        .with_churn_prob(0.05);
    let retry = RetryPolicy::default_chaos();

    let chaos_builder = |devices| {
        SimBuilder::new(devices, round_config(SEED))
            .cohort_size(4)
            .faults(config.clone(), rounds)
            .retry(retry)
    };

    for threads in THREAD_COUNTS {
        let flat_log = Arc::new(EventLog::new());
        let mut flat = chaos_builder(population(n, SEED))
            .threads(threads)
            .probe(Probe::attached(flat_log.clone()))
            .build_engine()
            .expect("chaos engine config is valid");
        let want = (
            format!("{:?}", flat.run(&schedule, rounds)),
            flat_log.to_jsonl(),
        );
        assert!(
            want.1.contains("fault_injected") || want.1.contains("transfer_retry"),
            "chaos config produced a quiet trace"
        );

        let hier_log = Arc::new(EventLog::new());
        let mut hier = chaos_builder(population(n, SEED))
            .threads(threads)
            .probe(Probe::attached(hier_log.clone()))
            .build_hier()
            .expect("chaos hier config is valid");
        let report = hier.run(&schedule, rounds);
        let got = (format!("{report:?}"), hier_log.to_jsonl());
        assert_eq!(got.0, want.0, "threads {threads}: chaos report diverged");
        assert_eq!(got.1, want.1, "threads {threads}: chaos trace diverged");
    }
}

#[test]
fn attacked_arm_is_bit_identical_flat_vs_hier() {
    let n = 8;
    let rounds = 3;
    let schedule = uniform(n, 3);
    let config = FaultConfig::none()
        .with_loss_prob(0.1)
        .with_group_outages(0.5, 2, 1);
    let adversary = AdversaryConfig::none()
        .with_attackers(0.5, AttackKind::SignFlip)
        .with_collusion(1);

    let attack_builder = |devices| {
        SimBuilder::new(devices, round_config(SEED))
            .cohort_size(4)
            .faults(config.clone(), rounds)
            .adversary(adversary, rounds)
            .aggregator(AggregatorKind::TrimmedMean { trim: 1 })
            .retry(RetryPolicy::default_chaos())
    };

    for threads in THREAD_COUNTS {
        let flat_log = Arc::new(EventLog::new());
        let mut flat = attack_builder(population(n, SEED))
            .threads(threads)
            .probe(Probe::attached(flat_log.clone()))
            .build_engine()
            .expect("attack engine config is valid");
        let want = (
            format!("{:?}", flat.run(&schedule, rounds)),
            flat_log.to_jsonl(),
        );
        assert!(
            want.1.contains("update_rejected"),
            "attack arm rejected nothing"
        );

        let hier_log = Arc::new(EventLog::new());
        let mut hier = attack_builder(population(n, SEED))
            .threads(threads)
            .probe(Probe::attached(hier_log.clone()))
            .build_hier()
            .expect("attack hier config is valid");
        let report = hier.run(&schedule, rounds);
        let got = (format!("{report:?}"), hier_log.to_jsonl());
        assert_eq!(got.0, want.0, "threads {threads}: attack report diverged");
        assert_eq!(got.1, want.1, "threads {threads}: attack trace diverged");
    }
}

/// One edge total is the other parity topology: the edge fold *is* the
/// flat merge and the server tier is a passthrough.
#[test]
fn single_edge_topology_report_matches_flat() {
    let n = 12;
    let schedule = uniform(n, 2);
    let (want_report, _) = flat_run(population(n, SEED), &schedule, 3, 4, 2);
    let log = Arc::new(EventLog::new());
    let mut eng = SimBuilder::new(population(n, SEED), round_config(SEED))
        .cohort_size(4)
        .threads(2)
        .edges(1)
        .probe(Probe::attached(log.clone()))
        .build_hier()
        .expect("single-edge config is valid");
    let report = eng.run(&schedule, 3);
    // One edge reducing all three cohorts, every round.
    let reductions = edge_reductions(&log);
    assert_eq!(reductions.len(), 3);
    assert!(reductions
        .iter()
        .all(|&(_, edge, cohorts, devices, _)| (edge, cohorts, devices) == (0, 3, n)));
    assert_eq!(
        format!("{report:?}"),
        want_report,
        "single-edge topology diverged from flat"
    );
}

/// A backhaul link only ever *adds* edge→server transfer time to the
/// hierarchy's makespans; the device tier underneath is untouched.
#[test]
fn edge_link_adds_backhaul_without_touching_the_device_tier() {
    let n = 16;
    let schedule = uniform(n, 2);
    let build = |link: Option<Link>| {
        let log = Arc::new(EventLog::new());
        let mut b = SimBuilder::new(population(n, SEED), round_config(SEED))
            .cohort_size(4)
            .threads(2)
            .edges(2)
            .probe(Probe::attached(log.clone()));
        if let Some(link) = link {
            b = b.edge_link(link);
        }
        let report = b
            .build_hier()
            .expect("edge-link config is valid")
            .run(&schedule, 3);
        (report, log)
    };
    let (dry, dry_log) = build(None);
    let (wet, wet_log) = build(Some(Link::edge_backhaul()));

    // Device tier: cohorts identical to the bit.
    assert_eq!(
        format!("{:?}", wet.cohorts),
        format!("{:?}", dry.cohorts),
        "backhaul sampling leaked into the device tier"
    );
    // Hierarchy tier: every round strictly slower, outcomes otherwise equal.
    for r in 0..3 {
        assert!(
            wet.timing.per_round_makespan[r] > dry.timing.per_round_makespan[r],
            "round {r}: backhaul added no time"
        );
        assert_eq!(wet.rounds[r].scheduled, dry.rounds[r].scheduled);
        assert_eq!(wet.rounds[r].completed, dry.rounds[r].completed);
        assert_eq!(wet.rounds[r].coverage, dry.rounds[r].coverage);
    }
    // Every edge draws one backhaul transfer per round, and only then.
    let wet_links = edge_reductions(&wet_log);
    assert_eq!(wet_links.len(), 2 * 3);
    assert!(wet_links.iter().all(|&(.., link_s)| link_s > 0.0));
    assert!(edge_reductions(&dry_log)
        .iter()
        .all(|&(.., link_s)| link_s == 0.0));
}

/// Tier-level robust aggregation is additive bookkeeping: it emits
/// events and counts rejections but never rewrites the shard/coverage
/// accounting the fold produced.
#[test]
fn tier_aggregators_never_rewrite_the_fold() {
    let n = 16;
    let schedule = uniform(n, 2);
    let build = |robust: bool| {
        let log = Arc::new(EventLog::new());
        let mut b = SimBuilder::new(population(n, SEED), round_config(SEED))
            .cohort_size(4)
            .threads(2)
            .edges(2)
            .probe(Probe::attached(log.clone()));
        if robust {
            b = b
                .edge_aggregator(AggregatorKind::TrimmedMean { trim: 1 })
                .server_aggregator(AggregatorKind::Median);
        }
        (
            b.build_hier().expect("tier-aggregator config is valid"),
            log,
        )
    };
    let (mut plain_eng, _) = build(false);
    let plain = plain_eng.run(&schedule, 3);
    let (mut robust_eng, log) = build(true);
    let robust = robust_eng.run(&schedule, 3);

    assert_eq!(
        format!("{:?}", robust.timing),
        format!("{:?}", plain.timing)
    );
    assert_eq!(
        format!("{:?}", robust.rounds),
        format!("{:?}", plain.rounds)
    );
    let jsonl = log.to_jsonl();
    assert!(
        jsonl.contains("\"ev\":\"edge_reduce\""),
        "non-trivial topology must narrate edge reductions:\n{jsonl}"
    );
    assert!(
        jsonl.contains("\"ev\":\"robust_aggregate\""),
        "tier aggregators must narrate their scoring:\n{jsonl}"
    );
}

/// Frozen output of a two-edge topology with a backhaul link, a
/// trimmed-mean edge tier and a median server tier, under chaos.
const NON_TRIVIAL_HIER_PIN: u64 = 0xf9d6e73cdb4be8b0;

#[test]
fn non_trivial_hier_matches_frozen_output() {
    let n = 16;
    let rounds = 3;
    let schedule = uniform(n, 2);
    let config = FaultConfig::none().with_crash_prob(0.2).with_loss_prob(0.1);
    for threads in [1, 4] {
        let log = Arc::new(EventLog::new());
        let mut eng = SimBuilder::new(population(n, SEED), round_config(SEED))
            .cohort_size(4)
            .threads(threads)
            .faults(config.clone(), rounds)
            .retry(RetryPolicy::default_chaos())
            .edges(2)
            .edge_link(Link::edge_backhaul())
            .edge_aggregator(AggregatorKind::TrimmedMean { trim: 1 })
            .server_aggregator(AggregatorKind::Median)
            .probe(Probe::attached(log.clone()))
            .build_hier()
            .expect("non-trivial hier config is valid");
        let report = eng.run(&schedule, rounds);
        let jsonl = log.to_jsonl();
        assert!(jsonl.contains("\"ev\":\"edge_reduce\""));
        let text = format!("{report:?}");
        let got = fnv1a64(format!("{text}{jsonl}").as_bytes());
        assert_eq!(
            got, NON_TRIVIAL_HIER_PIN,
            "threads {threads}: output fingerprint {got:#018x}"
        );
    }
}

/// Arena-vs-scalar bit-identity on the golden chaos scenario: the same
/// population built through [`DeviceArena`] must produce the same trace
/// bytes as the scalar construction (`tests/golden/chaos_multicohort.jsonl`
/// pins the scalar side).
#[test]
fn arena_population_replays_golden_scenarios_bit_identically() {
    let scenario = |devices: Vec<Device>| {
        let log = Arc::new(EventLog::new());
        let config = FaultConfig::none()
            .with_crash_prob(0.25)
            .with_loss_prob(0.15);
        let mut engine = SimBuilder::new(
            devices,
            RoundConfig::new(
                TrainingWorkload::lenet(),
                Link::new(100.0, 100.0, 0.0, 0.0),
                MODEL_BYTES,
                SEED,
            ),
        )
        .cohort_size(4)
        .threads(4)
        .faults(config, 3)
        .retry(RetryPolicy::default_chaos())
        .probe(Probe::attached(log.clone()))
        .build_engine()
        .expect("golden chaos engine config is valid");
        let _ = engine.run(&uniform(8, 3), 3);
        log.to_jsonl()
    };

    let models = DeviceModel::all();
    let arena = DeviceArena::from_models((0..8).map(|i| {
        (
            models[i % models.len()],
            SEED.wrapping_add(i as u64 * 0x9E37_79B9),
        )
    }));
    let want = scenario(population(8, SEED));
    assert!(want.contains("fault_injected") || want.contains("transfer_retry"));
    assert_eq!(
        scenario(arena.into_devices()),
        want,
        "arena-built population diverged from scalar construction"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random topology geometry: the hierarchy conserves every integer
    /// field and every max-folded float through the edge tier, keeps the
    /// device tier verbatim, is thread-invariant, and collapses to full
    /// byte-identity in the parity topologies (one edge per cohort, one
    /// edge total) — degenerate single-device and single-edge geometries
    /// included.
    #[test]
    fn topology_invariants_hold_for_random_geometry(
        n in 1usize..40,
        cohort_size in 1usize..12,
        edge_sel in 0usize..64,
        threads in 1usize..8,
        seed in 0u64..500,
        shards in 0usize..3,
    ) {
        let rounds = 2;
        let n_cohorts = n.div_ceil(cohort_size);
        let edges = 1 + edge_sel % n_cohorts;
        let schedule = uniform(n, shards);
        let run = |threads: usize| {
            let log = Arc::new(EventLog::new());
            let report = SimBuilder::new(population(n, seed), round_config(seed))
                .cohort_size(cohort_size)
                .threads(threads)
                .edges(edges)
                .probe(Probe::attached(log.clone()))
                .build_hier()
                .expect("random topology config is valid")
                .run(&schedule, rounds);
            (report, log)
        };
        let (report, log) = run(threads);
        let flat = SimBuilder::new(population(n, seed), round_config(seed))
            .cohort_size(cohort_size)
            .threads(1)
            .build_engine()
            .expect("flat reference config is valid")
            .run(&schedule, rounds);

        // Device tier is the flat engine verbatim.
        prop_assert_eq!(
            format!("{:?}", &report.cohorts),
            format!("{:?}", &flat.cohorts)
        );

        // Every round, the edge spans partition cohorts and devices; the
        // one-edge-per-cohort topology runs no tier and narrates none.
        let reductions = edge_reductions(&log);
        if edges == n_cohorts {
            prop_assert!(reductions.is_empty());
        } else {
            prop_assert_eq!(reductions.len(), rounds * edges);
            for (r, round) in reductions.chunks(edges).enumerate() {
                let mut covered = (0, 0);
                for (e, &(at, edge, cohorts, devices, _)) in round.iter().enumerate() {
                    prop_assert_eq!((at, edge), (r, e));
                    prop_assert!(cohorts >= 1);
                    covered = (covered.0 + cohorts, covered.1 + devices);
                }
                prop_assert_eq!(covered, (n_cohorts, n));
            }
        }

        // Conservation through the edge tier: integer sums, max-folded
        // makespans, recomputed coverage and concatenated per-user means
        // are associative, so they match the flat merge exactly for every
        // geometry. Only comm_fraction may regroup.
        for r in 0..rounds {
            prop_assert_eq!(report.rounds[r].scheduled, flat.rounds[r].scheduled);
            prop_assert_eq!(report.rounds[r].completed, flat.rounds[r].completed);
            prop_assert_eq!(report.rounds[r].rescued, flat.rounds[r].rescued);
            prop_assert_eq!(report.rounds[r].lost_shards, flat.rounds[r].lost_shards);
            prop_assert_eq!(
                report.rounds[r].makespan_s.to_bits(),
                flat.rounds[r].makespan_s.to_bits()
            );
            prop_assert_eq!(
                report.rounds[r].coverage.to_bits(),
                flat.rounds[r].coverage.to_bits()
            );
            prop_assert_eq!(
                report.timing.per_round_makespan[r].to_bits(),
                flat.timing.per_round_makespan[r].to_bits()
            );
        }
        prop_assert_eq!(
            report.timing.per_user_mean.len(),
            flat.timing.per_user_mean.len()
        );
        for (a, b) in report
            .timing
            .per_user_mean
            .iter()
            .zip(&flat.timing.per_user_mean)
        {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        let diff = (report.timing.comm_fraction - flat.timing.comm_fraction).abs();
        prop_assert!(
            diff <= 1e-12 * flat.timing.comm_fraction.abs().max(1.0),
            "comm_fraction drifted: {} vs {}",
            report.timing.comm_fraction,
            flat.timing.comm_fraction
        );

        // Parity topologies collapse to full byte-identity.
        if edges == n_cohorts || edges == 1 {
            prop_assert_eq!(
                format!("{report:?}"),
                format!("{report:?}", report = flat)
            );
        }

        // Thread count is invisible, down to the trace bytes.
        let (sequential, sequential_log) = run(1);
        prop_assert_eq!(format!("{report:?}"), format!("{sequential:?}"));
        prop_assert_eq!(log.to_jsonl(), sequential_log.to_jsonl());
    }
}
