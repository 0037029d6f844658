//! Differential bit-identity tests for the parallel multi-cohort engine.
//!
//! The engine's contract is that parallelism is *invisible*: for any thread
//! count, its reports and spliced telemetry stream are byte-identical to
//! the sequential reference — the quiet `sim` target or the `resilient`
//! target when one cohort covers the population, and the engine's own
//! single-threaded run otherwise. The sequential references are frozen as
//! FNV-1a fingerprints (report `Debug` text followed by the JSONL trace)
//! of their output before every round ran on the event core. These tests
//! pin that for every Table I testbed preset, a chaos fault plan, and a
//! proptest sweep over random population geometries.

use std::sync::Arc;

use proptest::prelude::*;

use fedsched::core::json::fnv1a64;
use fedsched::core::Schedule;
use fedsched::device::{Device, DeviceModel, Testbed, TrainingWorkload};
use fedsched::faults::FaultConfig;
use fedsched::fl::{default_engine_threads, RoundConfig, SimBuilder};
use fedsched::net::{Link, RetryPolicy};
use fedsched::telemetry::{EventLog, Probe};

const SEED: u64 = 2020;
const MODEL_BYTES: f64 = 2.5e6;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn link() -> Link {
    Link::wifi_campus()
}

fn round_config(seed: u64) -> RoundConfig {
    RoundConfig::new(TrainingWorkload::lenet(), link(), MODEL_BYTES, seed)
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

/// FNV-1a 64 over a run's report `Debug` text followed by its JSONL
/// trace: the frozen form of a reference output.
fn assert_pinned(what: &str, (report, jsonl): &(String, String), pin: u64) {
    let got = fnv1a64(format!("{report}{jsonl}").as_bytes());
    assert_eq!(
        got, pin,
        "{what}: output fingerprint {got:#018x} != pinned {pin:#018x}"
    );
}

/// Sequential quiet reference: report + JSONL from the `RoundSim` facade.
fn sequential_quiet(devices: Vec<Device>, schedule: &Schedule, rounds: usize) -> (String, String) {
    let log = Arc::new(EventLog::new());
    let mut sim = SimBuilder::new(devices, round_config(SEED))
        .probe(Probe::attached(log.clone()))
        .build_sim()
        .expect("quiet sim config is valid");
    let report = sim.run(schedule, rounds);
    (format!("{report:?}"), log.to_jsonl())
}

/// Engine quiet run at `threads`: timing debug string + JSONL.
fn engine_quiet(
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
        .expect("quiet engine config is valid");
    let report = eng.run(schedule, rounds);
    (format!("{:?}", report.timing), log.to_jsonl())
}

/// Frozen quiet `RoundSim` outputs for testbed presets 1, 2 and 3.
const PRESET_PINS: [u64; 3] = [0x42453a7ff0dae5a1, 0x8b2970e7a36d7dff, 0xf3760e64874c2cea];

#[test]
fn every_testbed_preset_is_bit_identical_to_sequential_roundsim() {
    for preset in 1..=3usize {
        let tb = Testbed::by_index(preset, SEED);
        let n = tb.devices().len();
        let schedule = uniform(n, 10);
        let want = sequential_quiet(tb.devices().to_vec(), &schedule, 3);
        assert_pinned(
            &format!("testbed {preset} sim"),
            &want,
            PRESET_PINS[preset - 1],
        );
        let (want_report, want_jsonl) = want;
        assert!(!want_jsonl.is_empty());

        for threads in THREAD_COUNTS {
            let (report, jsonl) = engine_quiet(tb.devices().to_vec(), &schedule, 3, n, threads);
            assert_eq!(
                report, want_report,
                "testbed {preset}, threads {threads}: timing diverged"
            );
            assert_eq!(
                jsonl, want_jsonl,
                "testbed {preset}, threads {threads}: trace bytes diverged"
            );
        }
    }
}

/// Frozen lockstep `ResilientRoundSim` output of the chaos scenario.
const CHAOS_RESILIENT_PIN: u64 = 0x6f8791bf236ffe03;

#[test]
fn chaos_fault_plan_is_bit_identical_to_sequential_resilient() {
    let n = 8;
    let rounds = 4;
    let schedule = uniform(n, 3);
    let config = FaultConfig::none()
        .with_crash_prob(0.25)
        .with_loss_prob(0.15)
        .with_churn_prob(0.05);
    let retry = RetryPolicy::default_chaos();

    let want = {
        let log = Arc::new(EventLog::new());
        let mut sim = SimBuilder::new(population(n, SEED), round_config(SEED))
            .faults(config.clone(), rounds)
            .retry(retry)
            .probe(Probe::attached(log.clone()))
            .build_resilient()
            .expect("chaos sim config is valid");
        let report = sim.run(&schedule, rounds);
        (format!("{report:?}"), log.to_jsonl())
    };
    // The plan must actually contain faults, or this test proves nothing.
    assert!(
        want.1.contains("fault_injected") || want.1.contains("transfer_retry"),
        "chaos config produced a quiet trace"
    );
    assert_pinned("chaos resilient target", &want, CHAOS_RESILIENT_PIN);

    for threads in THREAD_COUNTS {
        let log = Arc::new(EventLog::new());
        let mut eng = SimBuilder::new(population(n, SEED), round_config(SEED))
            .cohort_size(n)
            .threads(threads)
            .faults(config.clone(), rounds)
            .retry(retry)
            .probe(Probe::attached(log.clone()))
            .build_engine()
            .expect("chaos engine config is valid");
        let report = eng.run(&schedule, rounds);
        let got = (
            format!(
                "{:?}",
                fedsched::fl::ChaosReport {
                    timing: report.timing.clone(),
                    rounds: report.rounds.clone(),
                }
            ),
            log.to_jsonl(),
        );
        assert_eq!(got.0, want.0, "threads {threads}: chaos report diverged");
        assert_eq!(got.1, want.1, "threads {threads}: chaos trace diverged");
    }
}

/// An engine built without `with_threads` uses the pool that
/// `FEDSCHED_THREADS` (or the host's recommendation) dictates — CI runs
/// this suite once with the variable unset and once forced to 4 and 8, so
/// the *default* pool is exercised at several widths, and must still match
/// the explicit single-threaded run byte-for-byte.
#[test]
fn default_worker_pool_matches_explicit_single_thread() {
    let n = 41;
    let schedule = uniform(n, 2);
    let log = Arc::new(EventLog::new());
    let mut eng = SimBuilder::new(population(n, SEED), round_config(SEED))
        .cohort_size(6)
        .probe(Probe::attached(log.clone()))
        .build_engine()
        .expect("default-pool engine config is valid");
    assert_eq!(eng.threads(), default_engine_threads());
    let report = eng.run(&schedule, 2);

    let (want_report, want_jsonl) = engine_quiet(population(n, SEED), &schedule, 2, 6, 1);
    assert_eq!(format!("{:?}", report.timing), want_report);
    assert_eq!(log.to_jsonl(), want_jsonl);
}

#[test]
fn multi_cohort_runs_are_thread_invariant() {
    let n = 57; // ragged: 8 cohorts of 8 devices minus the tail
    let schedule = uniform(n, 2);
    let (base_report, base_jsonl) = engine_quiet(population(n, SEED), &schedule, 3, 8, 1);
    for threads in [2, 4, 8] {
        let (report, jsonl) = engine_quiet(population(n, SEED), &schedule, 3, 8, threads);
        assert_eq!(report, base_report, "threads {threads}");
        assert_eq!(jsonl, base_jsonl, "threads {threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random (population, cohort size, threads, seed) geometry: the engine
    /// never panics, conserves shards, keeps makespan parity with its
    /// cohorts, and matches its own single-threaded run exactly.
    #[test]
    fn engine_invariants_hold_for_random_geometry(
        n in 1usize..48,
        cohort_size in 1usize..16,
        threads in 1usize..8,
        seed in 0u64..500,
        shards in 1usize..4,
    ) {
        let rounds = 2;
        let schedule = uniform(n, shards);
        let run = |threads: usize| {
            SimBuilder::new(population(n, seed), round_config(seed))
                .cohort_size(cohort_size)
                .threads(threads)
                .build_engine()
                .expect("random geometry config is valid")
                .run(&schedule, rounds)
        };
        let report = run(threads);

        // Shard conservation: every cohort slice of the schedule is
        // simulated exactly once, so scheduled totals match the population
        // schedule each round.
        prop_assert_eq!(report.cohorts.len(), n.div_ceil(cohort_size));
        for round in &report.rounds {
            prop_assert_eq!(round.scheduled, schedule.total_shards());
            prop_assert_eq!(round.completed + round.rescued, round.scheduled);
            prop_assert_eq!(round.lost_shards, 0);
        }
        let device_total: usize = report
            .cohorts
            .iter()
            .map(|c| c.end - c.start)
            .sum();
        prop_assert_eq!(device_total, n);
        prop_assert_eq!(report.timing.per_user_mean.len(), n);

        // Makespan parity: the merged per-round makespan is exactly the
        // worst cohort's.
        for r in 0..rounds {
            let worst = report
                .cohorts
                .iter()
                .map(|c| c.timing.per_round_makespan[r])
                .fold(0.0f64, f64::max);
            prop_assert_eq!(report.timing.per_round_makespan[r], worst);
            prop_assert!(report.timing.per_round_makespan[r] > 0.0);
        }

        // Thread invariance, differentially against the sequential run.
        prop_assert_eq!(run(1), report);
    }
}
