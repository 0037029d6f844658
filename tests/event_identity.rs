//! Event-core bit-identity tests against frozen reference outputs.
//!
//! Every round runs on the discrete-event core. Before that core became
//! the only round engine, a lockstep device scan ran the same rounds and
//! the two were pinned byte-identical. The lockstep outputs of the
//! scenarios below are frozen as FNV-1a fingerprints of the report
//! `Debug` text followed by the JSONL trace; the event core must keep
//! reproducing them for every Table I testbed preset, under chaos fault
//! plans, under adversary attack, hosted by the coordinator, and at 1, 2,
//! 4 and 8 worker threads. CI re-runs this suite with `FEDSCHED_THREADS`
//! forced to 4 and 8 so the default pool is exercised at several widths
//! too.

use std::sync::Arc;

use proptest::prelude::*;

use fedsched::core::json::fnv1a64;
use fedsched::core::Schedule;
use fedsched::device::{Device, DeviceModel, Testbed, TrainingWorkload};
use fedsched::faults::{AdversaryConfig, AttackKind, FaultConfig};
use fedsched::fl::{
    AdmissionPolicy, AggregatorKind, ChurnConfig, DeadlinePolicy, EngineKind, EngineReport,
    RoundConfig, SimBuilder,
};
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

fn chaos_plan() -> FaultConfig {
    FaultConfig::none()
        .with_crash_prob(0.25)
        .with_loss_prob(0.15)
        .with_churn_prob(0.05)
}

/// FNV-1a 64 over a run's report `Debug` text followed by its JSONL
/// trace: the frozen form of a reference output.
fn fingerprint((report, jsonl): &(String, String)) -> u64 {
    fnv1a64(format!("{report}{jsonl}").as_bytes())
}

fn assert_pinned(what: &str, run: &(String, String), pin: u64) {
    let got = fingerprint(run);
    assert_eq!(
        got, pin,
        "{what}: output fingerprint {got:#018x} != pinned {pin:#018x}"
    );
}

/// Run the engine with `customize`d knobs and return
/// `(debug-formatted report, trace bytes)`.
fn engine_run(
    devices: Vec<Device>,
    schedule: &Schedule,
    rounds: usize,
    customize: impl FnOnce(SimBuilder) -> SimBuilder,
) -> (String, String) {
    let log = Arc::new(EventLog::new());
    let mut eng = customize(SimBuilder::new(devices, round_config(SEED)))
        .probe(Probe::attached(log.clone()))
        .build_engine()
        .expect("engine config is valid");
    let report = eng.run(schedule, rounds);
    (format!("{report:?}"), log.to_jsonl())
}

/// Frozen reference outputs of the quiet `RoundSim` for testbed presets
/// 1, 2 and 3 (10 shards per device, 3 rounds).
const PRESET_PINS: [u64; 3] = [0x42453a7ff0dae5a1, 0x8b2970e7a36d7dff, 0xf3760e64874c2cea];

#[test]
fn every_testbed_preset_event_engine_matches_sequential_roundsim() {
    for preset in 1..=3usize {
        let tb = Testbed::by_index(preset, SEED);
        let n = tb.devices().len();
        let schedule = uniform(n, 10);

        // Sequential quiet reference: the `RoundSim` facade.
        let want = {
            let log = Arc::new(EventLog::new());
            let mut sim = SimBuilder::new(tb.devices().to_vec(), round_config(SEED))
                .probe(Probe::attached(log.clone()))
                .build_sim()
                .expect("quiet sim config is valid");
            let report = sim.run(&schedule, 3);
            (format!("{report:?}"), log.to_jsonl())
        };
        assert!(!want.1.is_empty());
        assert_pinned(
            &format!("testbed {preset} sim"),
            &want,
            PRESET_PINS[preset - 1],
        );

        for threads in THREAD_COUNTS {
            let log = Arc::new(EventLog::new());
            let mut eng = SimBuilder::new(tb.devices().to_vec(), round_config(SEED))
                .cohort_size(n)
                .threads(threads)
                .probe(Probe::attached(log.clone()))
                .build_engine()
                .expect("quiet engine config is valid");
            let report = eng.run(&schedule, 3);
            assert_eq!(
                format!("{:?}", report.timing),
                want.0,
                "testbed {preset}, threads {threads}: timing diverged"
            );
            assert_eq!(
                log.to_jsonl(),
                want.1,
                "testbed {preset}, threads {threads}: trace bytes diverged"
            );
        }
    }
}

/// Frozen single-threaded lockstep engine output of the chaos scenario.
const CHAOS_ENGINE_PIN: u64 = 0xe3cf160fe36e7c2b;

#[test]
fn chaos_plan_event_engine_is_bit_identical_at_every_thread_count() {
    let n = 8;
    let rounds = 4;
    let schedule = uniform(n, 3);
    let knobs = |b: SimBuilder| {
        b.cohort_size(n)
            .faults(chaos_plan(), rounds)
            .retry(RetryPolicy::default_chaos())
            .deadline(DeadlinePolicy::MeanFactor(2.0))
    };

    for threads in THREAD_COUNTS {
        let got = engine_run(population(n, SEED), &schedule, rounds, |b| {
            knobs(b).threads(threads)
        });
        // The plan must actually contain faults, or this test proves nothing.
        assert!(
            got.1.contains("fault_injected") || got.1.contains("transfer_retry"),
            "chaos config produced a quiet trace"
        );
        assert_pinned(
            &format!("chaos engine, threads {threads}"),
            &got,
            CHAOS_ENGINE_PIN,
        );
    }
}

/// Frozen lockstep `ResilientRoundSim` output with every knob engaged.
const FULL_KNOB_PIN: u64 = 0x6ea545cc39126174;

#[test]
fn sequential_event_sim_matches_resilient_with_every_knob_engaged() {
    let n = 10;
    let rounds = 5;
    let schedule = uniform(n, 3);
    let build = |devices: Vec<Device>| {
        SimBuilder::new(devices, round_config(SEED))
            .faults(chaos_plan(), rounds)
            .retry(RetryPolicy::default_chaos())
            .deadline(DeadlinePolicy::MeanFactor(1.5))
            .rescue_soc_floor(0.1)
            .aggregator(AggregatorKind::TrimmedMean { trim: 1 })
            .adversary(
                AdversaryConfig::none().with_attackers(0.3, AttackKind::SignFlip),
                rounds,
            )
    };

    let resilient = {
        let log = Arc::new(EventLog::new());
        let mut sim = build(population(n, SEED))
            .probe(Probe::attached(log.clone()))
            .build_resilient()
            .expect("resilient config is valid");
        (format!("{:?}", sim.run(&schedule, rounds)), log.to_jsonl())
    };
    let event = {
        let log = Arc::new(EventLog::new());
        let mut sim = build(population(n, SEED))
            .probe(Probe::attached(log.clone()))
            .build_event_sim()
            .expect("event sim config is valid");
        (format!("{:?}", sim.run(&schedule, rounds)), log.to_jsonl())
    };
    assert_pinned("full-knob resilient target", &resilient, FULL_KNOB_PIN);
    assert_pinned("full-knob event_sim target", &event, FULL_KNOB_PIN);
}

/// Frozen single-threaded lockstep engine output under attack.
const ATTACKED_ENGINE_PIN: u64 = 0x197385eb2dd7bb51;

#[test]
fn attacked_event_engine_is_bit_identical_at_every_thread_count() {
    let n = 8;
    let rounds = 3;
    let schedule = uniform(n, 3);
    let knobs = |b: SimBuilder| {
        b.cohort_size(4)
            .faults(
                FaultConfig::none().with_crash_prob(0.2).with_loss_prob(0.1),
                rounds,
            )
            .aggregator(AggregatorKind::TrimmedMean { trim: 1 })
            .adversary(
                AdversaryConfig::none().with_attackers(0.5, AttackKind::SignFlip),
                rounds,
            )
    };

    for threads in THREAD_COUNTS {
        let got = engine_run(population(n, SEED), &schedule, rounds, |b| {
            knobs(b).threads(threads)
        });
        assert!(
            got.1.contains("robust_aggregate"),
            "attack preset must engage the robust layer"
        );
        assert_pinned(
            &format!("attacked engine, threads {threads}"),
            &got,
            ATTACKED_ENGINE_PIN,
        );
    }
}

/// Frozen single-threaded lockstep engine output of the churn-free
/// scenario the quiet churn process must leave untouched.
const QUIET_CHURN_PIN: u64 = 0xdf890ba12824e393;

/// A configured-but-quiet churn process (both rates zero) must be
/// strictly inert: the engine with the churn and admission knobs engaged
/// replays the churn-free run byte-for-byte at every thread count — no
/// extra RNG draws, no extra queue events, no trace bytes.
#[test]
fn zero_rate_churn_event_engine_is_bit_identical_at_every_thread_count() {
    let n = 8;
    let rounds = 4;
    let schedule = uniform(n, 3);
    let knobs = |b: SimBuilder| {
        b.cohort_size(4)
            .faults(chaos_plan(), rounds)
            .retry(RetryPolicy::default_chaos())
            .deadline(DeadlinePolicy::MeanFactor(2.0))
    };

    let churn_free = engine_run(population(n, SEED), &schedule, rounds, |b| {
        knobs(b).threads(1)
    });
    assert_pinned("churn-free engine", &churn_free, QUIET_CHURN_PIN);

    for threads in THREAD_COUNTS {
        let got = engine_run(population(n, SEED), &schedule, rounds, |b| {
            knobs(b)
                .threads(threads)
                .churn(ChurnConfig::symmetric(0.0, 60.0))
                .admission(AdmissionPolicy::MidRoundFill)
                .engine_kind(EngineKind::EventDriven)
        });
        assert_pinned(
            &format!("quiet-churn engine, threads {threads}"),
            &got,
            QUIET_CHURN_PIN,
        );
    }
}

/// Frozen single-threaded lockstep coordinator output.
const COORDINATOR_PIN: u64 = 0x6db657eaf175e6be;

/// The coordinator report text the pin froze, rebuilt from the engine
/// report plus the coordination events: per round, the deadline of its
/// `global_deadline_set` and the cohorts of its `cohort_straggling`
/// events, then the barrier span (the sum of round makespans).
fn coordinator_text(report: &EngineReport, events: &[Event]) -> String {
    let deadlines: Vec<Option<f64>> = events
        .iter()
        .filter_map(|e| match e {
            Event::GlobalDeadlineSet { deadline_s, .. } => Some(*deadline_s),
            _ => None,
        })
        .collect();
    let rounds: Vec<String> = report
        .rounds
        .iter()
        .enumerate()
        .map(|(r, outcome)| {
            let straggling: Vec<usize> = events
                .iter()
                .filter_map(|e| match e {
                    Event::CohortStraggling { round, cohort, .. } if *round == outcome.round => {
                        Some(*cohort)
                    }
                    _ => None,
                })
                .collect();
            let makespans: Vec<f64> = report
                .cohorts
                .iter()
                .map(|c| c.timing.per_round_makespan[r])
                .collect();
            format!(
                "GlobalRoundOutcome {{ outcome: {outcome:?}, deadline_s: {:?}, \
                 straggling_cohorts: {straggling:?}, cohort_makespans: {makespans:?} }}",
                deadlines[r]
            )
        })
        .collect();
    let span_s: f64 = report.timing.per_round_makespan.iter().sum();
    format!(
        "CoordinatorReport {{ engine: {report:?}, global_rounds: [{}], merges: [], \
         span_s: {span_s:?} }}",
        rounds.join(", ")
    )
}

/// The coordinator resolves one global deadline against pooled
/// predictions and pushes it into every cohort before the round runs —
/// the event cohorts must accept it through the `set_deadline` seam and
/// replay the frozen round byte-identically.
#[test]
fn coordinator_hosts_event_cohorts_unchanged() {
    let n = 24;
    let rounds = 3;
    let schedule = uniform(n, 5);
    for threads in THREAD_COUNTS {
        let log = Arc::new(EventLog::new());
        let mut coord = SimBuilder::new(population(n, SEED), round_config(SEED))
            .cohort_size(6)
            .threads(threads)
            .faults(chaos_plan(), rounds)
            .retry(RetryPolicy::default_chaos())
            .deadline(DeadlinePolicy::MeanFactor(1.5))
            .probe(Probe::attached(log.clone()))
            .build_coordinator()
            .expect("coordinator config is valid");
        let report = coord.run(&schedule, rounds);
        let got = (coordinator_text(&report, &log.events()), log.to_jsonl());
        assert_pinned(
            &format!("coordinator, threads {threads}"),
            &got,
            COORDINATOR_PIN,
        );
    }
}

/// Seeded `(population, cohort size, threads, seed, shards, crash %)`
/// geometries and the frozen lockstep engine output of each.
const GEOMETRY_PINS: [(usize, usize, usize, u64, usize, u32, u64); 8] = [
    (1, 1, 1, 0, 1, 0, 0x7c4bcb21bd5bd494),
    (7, 3, 2, 17, 2, 10, 0x5b0cd915fae29012),
    (13, 5, 4, 101, 3, 34, 0x4c8d7b906577c876),
    (19, 11, 7, 250, 1, 20, 0x1ea3a47575c02db8),
    (24, 4, 3, 333, 2, 0, 0x7731a6979e51cc6d),
    (31, 8, 5, 404, 3, 25, 0x2a24cd0792a3b489),
    (36, 1, 6, 57, 1, 30, 0x5ce0ea2f34dac51f),
    (39, 10, 2, 499, 2, 15, 0xc8b463d3479d213c),
];

/// Fixed (population, cohort size, threads, seed, fault mix) geometries:
/// the engine's report and trace equal the frozen lockstep output
/// exactly, including chaotic configurations with rescue.
#[test]
fn event_engine_matches_lockstep_for_random_geometry() {
    let rounds = 2;
    for (n, cohort_size, threads, seed, shards, crash_pct, pin) in GEOMETRY_PINS {
        let schedule = uniform(n, shards);
        let config = FaultConfig::none()
            .with_crash_prob(f64::from(crash_pct) / 100.0)
            .with_loss_prob(0.1);
        let log = Arc::new(EventLog::new());
        let report = SimBuilder::new(population(n, seed), round_config(seed))
            .cohort_size(cohort_size)
            .threads(threads)
            .faults(config, rounds)
            .retry(RetryPolicy::default_chaos())
            .probe(Probe::attached(log.clone()))
            .build_engine()
            .expect("geometry config is valid")
            .run(&schedule, rounds);
        let got = (format!("{report:?}"), log.to_jsonl());
        assert_pinned(
            &format!("geometry n={n} cohort={cohort_size} threads={threads} seed={seed}"),
            &got,
            pin,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random churn-process geometry: for every interleaving of mid-round
    /// arrivals and departures, (a) per-round double-entry accounting
    /// balances — `completed + admit_done + lost + rescued + carried ==
    /// scheduled + admitted` — with coverage capped at 1, and (b) the
    /// churned report and trace are thread-invariant.
    #[test]
    fn churned_event_engine_conserves_shards_and_is_thread_invariant(
        n in 2usize..24,
        cohort_size in 1usize..8,
        seed in 0u64..200,
        depart_pct in 0u32..12,
        arrive_pct in 0u32..12,
    ) {
        let rounds = 2;
        let schedule = uniform(n, 3);
        let churn = ChurnConfig {
            depart_rate: f64::from(depart_pct) / 100.0,
            arrive_rate: f64::from(arrive_pct) / 100.0,
            horizon_s: 60.0,
        };
        let run = |threads: usize| {
            let log = Arc::new(EventLog::new());
            let mut eng = SimBuilder::new(population(n, seed), round_config(seed))
                .cohort_size(cohort_size)
                .threads(threads)
                .faults(
                    FaultConfig::none().with_crash_prob(0.15).with_loss_prob(0.1),
                    rounds,
                )
                .retry(RetryPolicy::default_chaos())
                .churn(churn)
                .admission(AdmissionPolicy::MidRoundFill)
                .engine_kind(EngineKind::EventDriven)
                .probe(Probe::attached(log.clone()))
                .build_engine()
                .expect("churned geometry config is valid");
            let report = eng.run(&schedule, rounds);
            (report, log.to_jsonl())
        };

        let (want, want_jsonl) = run(1);
        for r in &want.rounds {
            prop_assert_eq!(
                r.completed + r.admit_done + r.lost_shards + r.rescued + r.carried,
                r.scheduled + r.admitted
            );
            prop_assert!(r.coverage <= 1.0, "round {} coverage {}", r.round, r.coverage);
            prop_assert_eq!(r.carried, r.admitted - r.admit_done);
        }
        for threads in [2usize, 4, 8] {
            let (got, got_jsonl) = run(threads);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(&got_jsonl, &want_jsonl);
        }
    }
}
