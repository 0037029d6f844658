//! Differential tests for the `coordinator` target: the population engine
//! with its global-deadline or buffered-async stage.
//!
//! Three contracts are pinned here. First, coordination is *opt-in*: with
//! the deadline policy off and no async buffer, the `coordinator` target's
//! report and spliced telemetry stream are byte-identical to the `engine`
//! target's, at every thread count. Second, coordination is
//! *deterministic*: global-deadline and buffered-async runs produce
//! identical reports and traces whether the cohorts execute on 1, 2, 4 or
//! 8 threads, and the async merge ledger (the `async_merge` events) obeys
//! the staleness-discount arithmetic exactly. Third, both stages replay
//! frozen reference outputs.

use std::sync::Arc;

use fedsched::core::json::fnv1a64;
use fedsched::core::Schedule;
use fedsched::device::{Device, DeviceModel, TrainingWorkload};
use fedsched::faults::FaultConfig;
use fedsched::fl::{staleness_weight, DeadlinePolicy, RoundConfig, SimBuilder};
use fedsched::net::{Link, RetryPolicy};
use fedsched::telemetry::{Event, EventLog, Probe};

const SEED: u64 = 7313;
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

fn chaos_plan() -> FaultConfig {
    FaultConfig::none()
        .with_crash_prob(0.2)
        .with_loss_prob(0.1)
        .with_churn_prob(0.05)
}

#[test]
fn off_coordinator_is_byte_identical_to_engine_at_every_thread_count() {
    let n = 24;
    let rounds = 3;
    let schedule = uniform(n, 5);

    for threads in THREAD_COUNTS {
        let (want_report, want_jsonl) = {
            let log = Arc::new(EventLog::new());
            let mut eng = SimBuilder::new(population(n, SEED), round_config(SEED))
                .cohort_size(6)
                .threads(threads)
                .faults(chaos_plan(), rounds)
                .retry(RetryPolicy::default_chaos())
                .probe(Probe::attached(log.clone()))
                .build_engine()
                .expect("engine config is valid");
            let report = eng.run(&schedule, rounds);
            (format!("{report:?}"), log.to_jsonl())
        };

        let (got_report, got_jsonl) = {
            let log = Arc::new(EventLog::new());
            let mut coord = SimBuilder::new(population(n, SEED), round_config(SEED))
                .cohort_size(6)
                .threads(threads)
                .faults(chaos_plan(), rounds)
                .retry(RetryPolicy::default_chaos())
                .probe(Probe::attached(log.clone()))
                .build_coordinator()
                .expect("coordinator config is valid");
            let report = coord.run(&schedule, rounds);
            (format!("{report:?}"), log.to_jsonl())
        };

        assert!(!want_jsonl.is_empty());
        assert_eq!(
            got_report, want_report,
            "threads {threads}: report diverged"
        );
        assert_eq!(
            got_jsonl, want_jsonl,
            "threads {threads}: trace bytes diverged"
        );
    }
}

/// One global-deadline coordinator run at `threads`, Debug report + trace.
fn deadline_run(n: usize, rounds: usize, threads: usize) -> (String, String) {
    let schedule = uniform(n, 5);
    let log = Arc::new(EventLog::new());
    let mut coord = SimBuilder::new(population(n, SEED), round_config(SEED))
        .cohort_size(6)
        .threads(threads)
        .deadline(DeadlinePolicy::MeanFactor(1.1))
        .probe(Probe::attached(log.clone()))
        .build_coordinator()
        .expect("coordinator config is valid");
    let report = coord.run(&schedule, rounds);
    (format!("{report:?}"), log.to_jsonl())
}

#[test]
fn global_deadline_run_is_thread_invariant_down_to_trace_bytes() {
    let n = 24;
    let rounds = 3;
    let (want_report, want_jsonl) = deadline_run(n, rounds, 1);
    assert!(want_jsonl.contains("global_deadline_set"));

    for threads in &THREAD_COUNTS[1..] {
        let (report, jsonl) = deadline_run(n, rounds, *threads);
        assert_eq!(report, want_report, "threads {threads}: report diverged");
        assert_eq!(jsonl, want_jsonl, "threads {threads}: trace bytes diverged");
    }
}

/// One buffered-async coordinator run at `threads`, Debug report + trace.
fn async_run(n: usize, rounds: usize, threads: usize) -> (String, String) {
    let schedule = uniform(n, 5);
    let log = Arc::new(EventLog::new());
    let mut coord = SimBuilder::new(population(n, SEED), round_config(SEED))
        .cohort_size(6)
        .threads(threads)
        .buffered_async(3, 0.5)
        .probe(Probe::attached(log.clone()))
        .build_coordinator()
        .expect("coordinator config is valid");
    let report = coord.run(&schedule, rounds);
    (format!("{report:?}"), log.to_jsonl())
}

#[test]
fn buffered_async_run_is_thread_invariant_down_to_trace_bytes() {
    let n = 24;
    let rounds = 4;
    let (want_report, want_jsonl) = async_run(n, rounds, 1);
    assert!(want_jsonl.contains("async_merge"));

    for threads in &THREAD_COUNTS[1..] {
        let (report, jsonl) = async_run(n, rounds, *threads);
        assert_eq!(report, want_report, "threads {threads}: report diverged");
        assert_eq!(jsonl, want_jsonl, "threads {threads}: trace bytes diverged");
    }
}

#[test]
fn async_merge_ledger_obeys_staleness_discount_arithmetic() {
    let n = 24; // 4 cohorts of 6
    let rounds = 3;
    let eta = 0.5;
    let buffer = 3;
    let schedule = uniform(n, 5);
    let log = Arc::new(EventLog::new());
    let mut coord = SimBuilder::new(population(n, SEED), round_config(SEED))
        .cohort_size(6)
        .buffered_async(buffer, eta)
        .probe(Probe::attached(log.clone()))
        .build_coordinator()
        .expect("coordinator config is valid");
    coord.run(&schedule, rounds);
    let merges: Vec<(f64, usize, usize, f64)> = log
        .events()
        .into_iter()
        .filter_map(|e| match e {
            Event::AsyncMerge {
                t_s,
                user,
                staleness,
                weight,
            } => Some((t_s, user, staleness, weight)),
            _ => None,
        })
        .collect();

    // Every cohort/round update lands in some flush: 4 cohorts x 3 rounds
    // of updates, merged `buffer` at a time, each flush one server version
    // newer than the last.
    assert_eq!(merges.len(), 4 * rounds);
    let flushes: Vec<&[(f64, usize, usize, f64)]> = merges.chunks(buffer).collect();
    assert_eq!(flushes.len(), 4 * rounds / buffer);

    let mut last_t = f64::NEG_INFINITY;
    for (version, flush) in flushes.iter().enumerate() {
        for &(t_s, cohort, staleness, weight) in *flush {
            assert!(t_s >= last_t, "merges must flush in time order");
            last_t = t_s;
            assert_eq!(t_s, flush[0].0, "one flush, one simulated time");
            assert!(staleness <= version, "no update is staler than the server");
            assert_eq!(
                weight,
                staleness_weight(eta, staleness),
                "weight must equal eta / (1 + staleness)"
            );
            assert!(cohort < 4);
        }
    }
}

/// FNV-1a 64 of a run's report text followed by its trace bytes.
fn fingerprint(report: &str, jsonl: &str) -> u64 {
    fnv1a64(format!("{report}{jsonl}").as_bytes())
}

/// Frozen output of the chaos run under a pooled `Quantile(0.5)` deadline.
const GLOBAL_DEADLINE_PIN: u64 = 0x0d318c61b9f33473;
/// Frozen output of three consecutive buffered-async calls.
const BUFFERED_ASYNC_PIN: u64 = 0xef9a6c0d7981ce01;

#[test]
fn global_deadline_coordinator_matches_frozen_output() {
    let n = 24;
    let rounds = 3;
    let schedule = uniform(n, 5);
    for threads in [1, 4] {
        let log = Arc::new(EventLog::new());
        let mut coord = SimBuilder::new(population(n, SEED), round_config(SEED))
            .cohort_size(6)
            .threads(threads)
            .faults(chaos_plan(), rounds)
            .retry(RetryPolicy::default_chaos())
            .deadline(DeadlinePolicy::Quantile(0.5))
            .probe(Probe::attached(log.clone()))
            .build_coordinator()
            .expect("coordinator config is valid");
        let report = coord.run(&schedule, rounds);
        let jsonl = log.to_jsonl();
        assert!(jsonl.contains("global_deadline_set"));
        let got = fingerprint(&format!("{report:?}"), &jsonl);
        assert_eq!(
            got, GLOBAL_DEADLINE_PIN,
            "threads {threads}: output fingerprint {got:#018x}"
        );
    }
}

#[test]
fn buffered_async_coordinator_matches_frozen_output() {
    let n = 24;
    let schedule = uniform(n, 5);
    for threads in [1, 4] {
        let log = Arc::new(EventLog::new());
        let mut coord = SimBuilder::new(population(n, SEED), round_config(SEED))
            .cohort_size(6)
            .threads(threads)
            .faults(chaos_plan(), 6)
            .retry(RetryPolicy::default_chaos())
            .buffered_async(2, 0.5)
            .probe(Probe::attached(log.clone()))
            .build_coordinator()
            .expect("coordinator config is valid");
        // Three calls, so the buffer, clocks and versions carry over.
        let mut text = String::new();
        for _ in 0..3 {
            let report = coord.run(&schedule, 2);
            text.push_str(&format!("{report:?}"));
        }
        let jsonl = log.to_jsonl();
        assert!(jsonl.contains("async_merge"));
        let got = fingerprint(&text, &jsonl);
        assert_eq!(
            got, BUFFERED_ASYNC_PIN,
            "threads {threads}: output fingerprint {got:#018x}"
        );
    }
}
