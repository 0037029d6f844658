//! Differential tests for the unified [`SimBuilder`] surface.
//!
//! The positional constructors are gone; the builder's identity contract
//! is now pinned against its *wire twin*: for every Table I testbed
//! preset and every build target, a simulator built in-process from the
//! builder must produce reports and telemetry streams byte-identical to
//! one built from the equivalent [`JobSpec`] after a round-trip through
//! canonical JSON. The error half of the contract is pinned too: invalid
//! knobs surface as typed [`ConfigError`]s with stable `cause_code`s at
//! the facade level, never as silently-dropped options.
//!
//! The `sim`, `resilient` and `engine` outputs are also frozen as FNV-1a
//! fingerprints (stepped digests followed by the JSONL trace) captured
//! before every round ran on the event core.

use std::sync::Arc;

use fedsched::core::json::fnv1a64;
use fedsched::core::Schedule;
use fedsched::device::TrainingWorkload;
use fedsched::faults::{FaultConfig, FaultInjector};
use fedsched::fl::{BuildTarget, DeadlinePolicy, DeviceSetSpec, JobSpec, RoundConfig, SimBuilder};
use fedsched::net::{Link, RetryPolicy};
use fedsched::telemetry::{EventLog, Probe};

const SEED: u64 = 4047;
const MODEL_BYTES: f64 = 2.5e6;
const ROUNDS: usize = 3;

fn round_config(seed: u64) -> RoundConfig {
    RoundConfig::new(
        TrainingWorkload::lenet(),
        Link::wifi_campus(),
        MODEL_BYTES,
        seed,
    )
}

fn base_spec(target: BuildTarget, preset: usize) -> JobSpec {
    JobSpec::new(
        target,
        DeviceSetSpec::Testbed { preset, seed: SEED },
        TrainingWorkload::lenet(),
        Link::wifi_campus(),
        MODEL_BYTES,
        SEED,
    )
}

fn uniform(n: usize, shards: usize) -> Schedule {
    Schedule::new(vec![shards; n], 100.0)
}

fn preset_size(preset: usize) -> usize {
    [3, 6, 10][preset - 1]
}

/// Run `spec` two ways — directly via `SimBuilder::from_spec`, and after
/// a canonical-JSON round-trip — and return `(report_debug, jsonl)` for
/// each. Both must be byte-identical for every preset.
fn run_both_ways(spec: &JobSpec, schedule: &Schedule) -> ((String, String), (String, String)) {
    let run = |spec: &JobSpec| {
        let log = Arc::new(EventLog::new());
        let mut sim = spec
            .build(Probe::attached(log.clone()))
            .expect("spec is valid");
        let digests: Vec<String> = (0..ROUNDS)
            .map(|_| format!("{:?}", sim.step(schedule)))
            .collect();
        (digests.join("\n"), log.to_jsonl())
    };
    let direct = run(spec);
    let rewired = run(&JobSpec::parse(&spec.canonical_json()).expect("canonical JSON decodes"));
    (direct, rewired)
}

fn assert_pinned(what: &str, (digests, jsonl): &(String, String), pin: u64) {
    let got = fnv1a64(format!("{digests}{jsonl}").as_bytes());
    assert_eq!(
        got, pin,
        "{what}: output fingerprint {got:#018x} != pinned {pin:#018x}"
    );
}

/// Frozen `sim` target outputs for presets 1, 2 and 3.
const SIM_PINS: [u64; 3] = [0x4ae166420f1411b9, 0x220f805a8b705012, 0x434d549d5747e824];
/// Frozen `resilient` target outputs for presets 1, 2 and 3.
const RESILIENT_PINS: [u64; 3] = [0xe6a39c6ddb2c6900, 0x7629dccfbc20879e, 0xe3b5cdebbf14b389];
/// Frozen `engine` target outputs for presets 1, 2 and 3.
const ENGINE_PINS: [u64; 3] = [0xc3b604e92d63b02d, 0x45e98c285da1914a, 0xff5bd99de693abef];

#[test]
fn builder_sim_is_bit_identical_to_wire_spec_for_every_preset() {
    for preset in 1..=3usize {
        let spec = base_spec(BuildTarget::Sim, preset);
        let schedule = uniform(preset_size(preset), 8);
        let (direct, rewired) = run_both_ways(&spec, &schedule);
        assert!(!direct.1.is_empty());
        assert_pinned(
            &format!("sim preset {preset}"),
            &direct,
            SIM_PINS[preset - 1],
        );
        assert_eq!(direct, rewired, "preset {preset}: wire round-trip diverged");
    }
}

#[test]
fn builder_resilient_is_bit_identical_to_wire_spec_for_every_preset() {
    let faults = FaultConfig::none()
        .with_crash_prob(0.3)
        .with_loss_prob(0.2)
        .with_churn_prob(0.1);

    for preset in 1..=3usize {
        let mut spec = base_spec(BuildTarget::Resilient, preset);
        spec.faults = Some((faults.clone(), ROUNDS));
        spec.retry = Some(RetryPolicy::default_chaos());
        spec.deadline = Some(DeadlinePolicy::Fixed(60.0));
        let schedule = uniform(preset_size(preset), 4);
        let (direct, rewired) = run_both_ways(&spec, &schedule);
        assert!(!direct.1.is_empty());
        assert_pinned(
            &format!("resilient preset {preset}"),
            &direct,
            RESILIENT_PINS[preset - 1],
        );
        assert_eq!(direct, rewired, "preset {preset}: wire round-trip diverged");
    }
}

#[test]
fn builder_engine_is_bit_identical_to_wire_spec_for_every_preset() {
    for preset in 1..=3usize {
        let mut spec = base_spec(BuildTarget::Engine, preset);
        spec.cohort_size = Some(3);
        spec.threads = Some(4);
        let schedule = uniform(preset_size(preset), 6);
        let (direct, rewired) = run_both_ways(&spec, &schedule);
        assert!(!direct.1.is_empty());
        assert_pinned(
            &format!("engine preset {preset}"),
            &direct,
            ENGINE_PINS[preset - 1],
        );
        assert_eq!(direct, rewired, "preset {preset}: wire round-trip diverged");
    }
}

#[test]
fn stepped_spec_sim_matches_builder_batch_run() {
    // One global round per step must replay the exact per-round makespans
    // of a batched in-process run — the invariant the serve crate's
    // restore-by-replay leans on.
    for preset in 1..=3usize {
        let mut spec = base_spec(BuildTarget::Engine, preset);
        spec.cohort_size = Some(3);
        spec.threads = Some(2);
        let schedule = uniform(preset_size(preset), 6);

        let mut stepped = spec.build(Probe::disabled()).expect("spec is valid");
        let makespans: Vec<f64> = (0..ROUNDS)
            .map(|_| stepped.step(&schedule).makespan_s)
            .collect();

        let mut batch = SimBuilder::from_spec(&spec)
            .expect("spec is valid")
            .build_engine()
            .expect("engine config is valid");
        let report = batch.run(&schedule, ROUNDS);
        assert_eq!(
            report.timing.per_round_makespan, makespans,
            "preset {preset}: stepped makespans diverged from batch run"
        );
    }
}

#[test]
fn facade_level_config_errors_carry_stable_cause_codes() {
    let spec = base_spec(BuildTarget::Sim, 1);
    let builder = || SimBuilder::from_spec(&spec).expect("base spec is valid");
    let n = preset_size(1);

    let cases: Vec<(&str, fedsched::fl::ConfigError)> = vec![
        (
            "zero_cohort_size",
            builder().cohort_size(0).build_engine().err().unwrap(),
        ),
        (
            "zero_threads",
            builder().threads(0).build_engine().err().unwrap(),
        ),
        (
            "invalid_deadline",
            builder()
                .deadline(DeadlinePolicy::Fixed(-1.0))
                .build_resilient()
                .err()
                .unwrap(),
        ),
        (
            "invalid_soc_floor",
            builder()
                .rescue_soc_floor(1.5)
                .build_resilient()
                .err()
                .unwrap(),
        ),
        (
            "invalid_async",
            builder()
                .buffered_async(0, 0.5)
                .build_coordinator()
                .err()
                .unwrap(),
        ),
        (
            "invalid_async",
            builder()
                .buffered_async(2, 0.5)
                .deadline(DeadlinePolicy::Quantile(0.9))
                .build_coordinator()
                .err()
                .unwrap(),
        ),
        (
            "unsupported_option",
            builder().threads(2).build_sim().err().unwrap(),
        ),
        (
            "unsupported_option",
            builder()
                .injector(FaultInjector::quiet(n))
                .build_engine()
                .err()
                .unwrap(),
        ),
        (
            "not_serializable",
            builder()
                .injector(FaultInjector::quiet(n))
                .to_spec(BuildTarget::Resilient)
                .err()
                .unwrap(),
        ),
        (
            "not_serializable",
            SimBuilder::new(
                fedsched::device::Testbed::testbed_1(SEED)
                    .devices()
                    .to_vec(),
                round_config(SEED),
            )
            .to_spec(BuildTarget::Sim)
            .err()
            .unwrap(),
        ),
        (
            "invalid_spec",
            JobSpec::parse("{\"version\":1}").err().unwrap(),
        ),
    ];
    for (want, err) in cases {
        assert_eq!(err.cause_code(), want, "wrong cause for {err}");
        assert!(!format!("{err}").is_empty());
    }
}
