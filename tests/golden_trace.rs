//! Golden-trace snapshot over the four Table I device presets.
//!
//! A fixed-seed scenario — Fed-LBAP scheduling followed by a three-round
//! replay on a Nexus 6 / Nexus 6P / Mate 10 / Pixel 2 cohort — must produce
//! a telemetry JSONL stream that is (a) byte-identical across invocations
//! and (b) byte-identical to the checked-in snapshot. Any change to event
//! serialization, the device models, or the schedulers that shifts the
//! trace shows up here as a readable diff.
//!
//! To regenerate the snapshot after an *intentional* behaviour change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! then commit the updated snapshots under `tests/golden/` together with
//! the change that caused it.

use std::path::PathBuf;
use std::sync::Arc;

use fedsched::core::json::fnv1a64;
use fedsched::core::{CostMatrix, FedLbap, Scheduler};
use fedsched::device::{Device, DeviceModel, Testbed, TrainingWorkload};
use fedsched::faults::FaultConfig;
use fedsched::fl::{DeadlinePolicy, EngineKind, RoundConfig, SimBuilder};
use fedsched::net::{Link, RetryPolicy};
use fedsched::telemetry::{EventLog, Probe};

const SEED: u64 = 2020;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/table1_presets.jsonl")
}

fn chaos_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chaos_multicohort.jsonl")
}

fn attack_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/attacked_multicohort.jsonl")
}

fn event_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/event_multicohort.jsonl")
}

fn churn_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/churn_multicohort.jsonl")
}

fn hier_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/hier_multicohort.jsonl")
}

/// Which build target replays a golden scenario. Every target must
/// produce the same bytes: `Sim` is the quiet facade, `EventSim` the
/// full event-core target, `Hier` layers the default (trivial) two-tier
/// topology on top.
#[derive(Clone, Copy)]
enum ReplayPath {
    Sim,
    EventSim,
    Hier,
}

/// Run the fixed scenario and return its telemetry stream as JSONL.
fn trace_with(path: ReplayPath) -> String {
    let log = Arc::new(EventLog::new());
    let probe = Probe::attached(log.clone());

    let testbed = Testbed::new(
        &[
            DeviceModel::Nexus6,
            DeviceModel::Nexus6P,
            DeviceModel::Mate10,
            DeviceModel::Pixel2,
        ],
        SEED,
    );
    // VGG6 at 6000 samples is heavy enough to drive the cohort through its
    // thermal transitions (Nexus 6P big-cluster shutdown, Nexus 6 trips).
    let wl = TrainingWorkload::vgg6();
    let profiles = testbed.profiles_for(&wl);
    let costs = CostMatrix::from_profiles(&profiles, 60, 100.0, &[0.5; 4]);
    let schedule = FedLbap.schedule_traced(&costs, &probe).expect("feasible");

    let builder = SimBuilder::new(
        testbed.devices().to_vec(),
        RoundConfig::new(wl, Link::new(100.0, 100.0, 0.0, 0.0), 2.5e6, SEED),
    )
    .probe(probe);
    match path {
        ReplayPath::Sim => {
            let mut sim = builder.build_sim().expect("golden sim config is valid");
            let _ = sim.run(&schedule, 3);
        }
        ReplayPath::EventSim => {
            let mut sim = builder
                .build_event_sim()
                .expect("golden sim config is valid");
            let _ = sim.run(&schedule, 3);
        }
        ReplayPath::Hier => {
            let mut sim = builder.build_hier().expect("golden sim config is valid");
            let _ = sim.run(&schedule, 3);
        }
    }
    log.to_jsonl()
}

fn trace() -> String {
    trace_with(ReplayPath::Sim)
}

/// Chaos preset: a two-cohort parallel engine run under crashes, packet
/// loss and retries. Pins the resilient path's event vocabulary *and* the
/// engine's cohort splicing (user-index remapping, cohort-ordered merge) in
/// golden form — the engine guarantees these bytes are thread-invariant.
fn chaos_trace_with(hier: bool) -> String {
    let log = Arc::new(EventLog::new());
    let models = DeviceModel::all();
    let devices: Vec<Device> = (0..8)
        .map(|i| {
            Device::from_model(
                models[i % models.len()],
                SEED.wrapping_add(i as u64 * 0x9E37_79B9),
            )
        })
        .collect();
    let config = FaultConfig::none()
        .with_crash_prob(0.25)
        .with_loss_prob(0.15);
    let builder = SimBuilder::new(
        devices,
        RoundConfig::new(
            TrainingWorkload::lenet(),
            Link::new(100.0, 100.0, 0.0, 0.0),
            2.5e6,
            SEED,
        ),
    )
    .cohort_size(4)
    .threads(4)
    .faults(config, 3)
    .retry(RetryPolicy::default_chaos())
    .probe(Probe::attached(log.clone()));
    let schedule = fedsched::core::Schedule::new(vec![3; 8], 100.0);
    if hier {
        let mut engine = builder
            .build_hier()
            .expect("golden chaos hier config is valid");
        let _ = engine.run(&schedule, 3);
    } else {
        let mut engine = builder
            .build_engine()
            .expect("golden chaos engine config is valid");
        let _ = engine.run(&schedule, 3);
    }
    log.to_jsonl()
}

fn chaos_trace() -> String {
    chaos_trace_with(false)
}

/// Byzantine preset: the same two-cohort engine under a sign-flip adversary
/// with trimmed-mean aggregation and correlated group outages. Pins the
/// robustness event vocabulary (`update_rejected`, `robust_aggregate`,
/// `group_outage`) and the per-cohort adversary-plan derivation in golden
/// form.
fn attack_trace_with(hier: bool) -> String {
    use fedsched::faults::{AdversaryConfig, AttackKind};
    use fedsched::fl::AggregatorKind;
    let log = Arc::new(EventLog::new());
    let models = DeviceModel::all();
    let devices: Vec<Device> = (0..8)
        .map(|i| {
            Device::from_model(
                models[i % models.len()],
                SEED.wrapping_add(i as u64 * 0x9E37_79B9),
            )
        })
        .collect();
    let config = FaultConfig::none()
        .with_loss_prob(0.1)
        .with_group_outages(0.5, 2, 1);
    let adversary = AdversaryConfig::none()
        .with_attackers(0.5, AttackKind::SignFlip)
        .with_collusion(1);
    let builder = SimBuilder::new(
        devices,
        RoundConfig::new(
            TrainingWorkload::lenet(),
            Link::new(100.0, 100.0, 0.0, 0.0),
            2.5e6,
            SEED,
        ),
    )
    .cohort_size(4)
    .threads(4)
    .faults(config, 3)
    .adversary(adversary, 3)
    .aggregator(AggregatorKind::TrimmedMean { trim: 1 })
    .retry(RetryPolicy::default_chaos())
    .probe(Probe::attached(log.clone()));
    let schedule = fedsched::core::Schedule::new(vec![3; 8], 100.0);
    if hier {
        let mut engine = builder
            .build_hier()
            .expect("golden attack hier config is valid");
        let _ = engine.run(&schedule, 3);
    } else {
        let mut engine = builder
            .build_engine()
            .expect("golden attack engine config is valid");
        let _ = engine.run(&schedule, 3);
    }
    log.to_jsonl()
}

fn attack_trace() -> String {
    attack_trace_with(false)
}

/// Event preset: a two-cohort *event-driven* engine under crashes, churn,
/// packet loss and a fixed deadline tight enough to cut stragglers, so
/// the mid-round rescue ledger engages. Pins the full event vocabulary —
/// deadline cuts, `shards_reassigned`, retries — as produced by the
/// discrete-event drain, in golden form.
fn event_trace() -> String {
    let log = Arc::new(EventLog::new());
    let models = DeviceModel::all();
    let devices: Vec<Device> = (0..8)
        .map(|i| {
            Device::from_model(
                models[i % models.len()],
                SEED.wrapping_add(i as u64 * 0x9E37_79B9),
            )
        })
        .collect();
    let config = FaultConfig::none()
        .with_crash_prob(0.3)
        .with_loss_prob(0.15)
        .with_churn_prob(0.1);
    let mut engine = SimBuilder::new(
        devices,
        RoundConfig::new(
            TrainingWorkload::lenet(),
            Link::new(100.0, 100.0, 0.0, 0.0),
            2.5e6,
            SEED,
        ),
    )
    .cohort_size(4)
    .threads(4)
    .faults(config, 3)
    .retry(RetryPolicy::default_chaos())
    .deadline(DeadlinePolicy::Fixed(55.0))
    .probe(Probe::attached(log.clone()))
    .build_engine()
    .expect("golden event engine config is valid");
    let _ = engine.run(&fedsched::core::Schedule::new(vec![3; 8], 100.0), 3);
    log.to_jsonl()
}

/// Churn preset: a two-cohort event-driven engine under a continuous
/// arrival/departure process with mid-round admission. Pins the churn
/// event vocabulary — `device_depart`, `shards_orphaned`, `device_arrive`,
/// `mid_round_admit` — and the per-cohort churn-timeline derivation in
/// golden form; the engine guarantees these bytes are thread-invariant.
fn churn_trace() -> String {
    use fedsched::faults::ChurnConfig;
    use fedsched::fl::AdmissionPolicy;
    let log = Arc::new(EventLog::new());
    let models = DeviceModel::all();
    let devices: Vec<Device> = (0..8)
        .map(|i| {
            Device::from_model(
                models[i % models.len()],
                SEED.wrapping_add(i as u64 * 0x9E37_79B9),
            )
        })
        .collect();
    let config = FaultConfig::none().with_loss_prob(0.1);
    let mut engine = SimBuilder::new(
        devices,
        RoundConfig::new(
            TrainingWorkload::lenet(),
            Link::new(100.0, 100.0, 0.0, 0.0),
            2.5e6,
            SEED,
        ),
    )
    .cohort_size(4)
    .threads(4)
    .faults(config, 3)
    .churn(ChurnConfig::symmetric(0.25, 60.0))
    .admission(AdmissionPolicy::MidRoundFill)
    .retry(RetryPolicy::default_chaos())
    .engine_kind(EngineKind::EventDriven)
    .probe(Probe::attached(log.clone()))
    .build_engine()
    .expect("golden churn engine config is valid");
    let _ = engine.run(&fedsched::core::Schedule::new(vec![3; 8], 100.0), 3);
    log.to_jsonl()
}

/// Hierarchy preset: a four-cohort quiet engine under a *non-trivial*
/// two-tier topology — two edge aggregators, a jittered backhaul link,
/// trimmed-mean at the edge tier and median at the server tier. Pins the
/// hierarchy event vocabulary (`edge_reduce`, tier-level
/// `robust_aggregate`) and the edge-seed derivation in golden form; the
/// engine guarantees these bytes are thread-invariant.
fn hier_trace() -> String {
    use fedsched::fl::AggregatorKind;
    let log = Arc::new(EventLog::new());
    let models = DeviceModel::all();
    let devices: Vec<Device> = (0..8)
        .map(|i| {
            Device::from_model(
                models[i % models.len()],
                SEED.wrapping_add(i as u64 * 0x9E37_79B9),
            )
        })
        .collect();
    let mut engine = SimBuilder::new(
        devices,
        RoundConfig::new(
            TrainingWorkload::lenet(),
            Link::new(100.0, 100.0, 0.0, 0.0),
            2.5e6,
            SEED,
        ),
    )
    .cohort_size(2)
    .threads(4)
    .edges(2)
    .edge_link(Link::edge_backhaul())
    .edge_aggregator(AggregatorKind::TrimmedMean { trim: 1 })
    .server_aggregator(AggregatorKind::Median)
    .probe(Probe::attached(log.clone()))
    .build_hier()
    .expect("golden hier engine config is valid");
    let _ = engine.run(&fedsched::core::Schedule::new(vec![3; 8], 100.0), 3);
    log.to_jsonl()
}

/// Compare `got` against the snapshot at `path`, regenerating when
/// `UPDATE_GOLDEN` is set; on mismatch, report the first differing line.
fn assert_matches_golden(got: &str, path: &PathBuf) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, got).expect("write golden snapshot");
        return;
    }
    let want = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); generate it with UPDATE_GOLDEN=1 cargo test --test golden_trace",
            path.display()
        )
    });
    if got != want {
        let first_diff = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map(|i| {
                format!(
                    "first differing line {}:\n  got:  {}\n  want: {}",
                    i + 1,
                    got.lines().nth(i).unwrap_or(""),
                    want.lines().nth(i).unwrap_or("")
                )
            })
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: got {}, want {}",
                    got.lines().count(),
                    want.lines().count()
                )
            });
        panic!(
            "telemetry trace diverged from {}.\n{first_diff}\n\
             If the change is intentional, regenerate with UPDATE_GOLDEN=1 cargo test --test golden_trace",
            path.display()
        );
    }
}

#[test]
fn trace_is_byte_identical_across_invocations() {
    assert_eq!(trace(), trace(), "same seed must give the same bytes");
}

#[test]
fn trace_matches_golden_snapshot() {
    let got = trace();
    assert!(
        got.contains("\"ev\":\"schedule_decision\""),
        "missing decision:\n{got}"
    );
    assert!(
        got.contains("\"ev\":\"round_end\""),
        "missing round_end:\n{got}"
    );
    assert_matches_golden(&got, &golden_path());
}

#[test]
fn chaos_trace_is_byte_identical_across_invocations() {
    assert_eq!(
        chaos_trace(),
        chaos_trace(),
        "same seed must give the same bytes"
    );
}

#[test]
fn chaos_trace_matches_golden_snapshot() {
    let got = chaos_trace();
    assert!(
        got.contains("\"ev\":\"fault_injected\"") || got.contains("\"ev\":\"transfer_retry\""),
        "chaos preset produced a quiet trace:\n{got}"
    );
    assert!(
        got.contains("\"ev\":\"round_end\""),
        "missing round_end:\n{got}"
    );
    assert_matches_golden(&got, &chaos_golden_path());
}

#[test]
fn attack_trace_is_byte_identical_across_invocations() {
    assert_eq!(
        attack_trace(),
        attack_trace(),
        "same seed must give the same bytes"
    );
}

#[test]
fn attack_trace_matches_golden_snapshot() {
    let got = attack_trace();
    assert!(
        got.contains("\"ev\":\"robust_aggregate\""),
        "attack preset never scored a round:\n{got}"
    );
    assert!(
        got.contains("\"ev\":\"update_rejected\""),
        "attack preset rejected nothing:\n{got}"
    );
    assert!(
        got.contains("\"ev\":\"group_outage\""),
        "attack preset never downed a failure domain:\n{got}"
    );
    assert_matches_golden(&got, &attack_golden_path());
}

/// FNV-1a 64 fingerprints of the `table1_presets`, `chaos_multicohort`
/// and `attacked_multicohort` traces as the lockstep scan produced them
/// before every round ran on the event core — the fingerprints of the
/// checked-in snapshots.
const TABLE1_PIN: u64 = 0x2dfa4e0ec75478fe;
const CHAOS_PIN: u64 = 0xd172e4a19acb0d6b;
const ATTACK_PIN: u64 = 0x6a5cc407cee64fac;

fn assert_pinned(what: &str, trace: &str, pin: u64) {
    let got = fnv1a64(trace.as_bytes());
    assert_eq!(
        got, pin,
        "{what}: trace fingerprint {got:#018x} != pinned {pin:#018x}"
    );
}

/// Every pre-existing golden scenario must replay the frozen lockstep
/// bytes through the event core: the `event_sim` target for the Table I
/// scenario, the parallel engine for the chaos and attack scenarios.
#[test]
fn golden_scenarios_replay_byte_identical_through_event_path() {
    assert_pinned(
        "table1_presets via event_sim",
        &trace_with(ReplayPath::EventSim),
        TABLE1_PIN,
    );
    assert_pinned("table1_presets via sim", &trace(), TABLE1_PIN);
    assert_pinned("chaos_multicohort via engine", &chaos_trace(), CHAOS_PIN);
    assert_pinned(
        "attacked_multicohort via engine",
        &attack_trace(),
        ATTACK_PIN,
    );
}

/// The default hierarchical topology (one edge per cohort, no backhaul,
/// FedAvg tiers) is *trivial*: it runs no edge tier, so it emits no
/// hierarchy events and its cohorts are the flat engine verbatim. Every
/// pre-existing golden scenario must replay byte-identically through the
/// `hier` target — extending the golden guarantee to the hierarchy without
/// new snapshots.
#[test]
fn golden_scenarios_replay_byte_identical_through_hier_engine() {
    assert_eq!(
        trace_with(ReplayPath::Hier),
        trace(),
        "table1_presets golden diverged through the hier engine"
    );
    assert_eq!(
        chaos_trace_with(true),
        chaos_trace(),
        "chaos_multicohort golden diverged through the hier engine"
    );
    assert_eq!(
        attack_trace_with(true),
        attack_trace(),
        "attacked_multicohort golden diverged through the hier engine"
    );
}

#[test]
fn churn_trace_is_byte_identical_across_invocations() {
    assert_eq!(
        churn_trace(),
        churn_trace(),
        "same seed must give the same bytes"
    );
}

#[test]
fn churn_trace_matches_golden_snapshot() {
    let got = churn_trace();
    for ev in fedsched::telemetry::CHURN_KINDS {
        assert!(
            got.contains(&format!("\"ev\":\"{ev}\"")),
            "churn preset never emitted {ev}:\n{got}"
        );
    }
    assert!(
        got.contains("\"ev\":\"round_end\""),
        "missing round_end:\n{got}"
    );
    assert_matches_golden(&got, &churn_golden_path());
}

#[test]
fn hier_trace_is_byte_identical_across_invocations() {
    assert_eq!(
        hier_trace(),
        hier_trace(),
        "same seed must give the same bytes"
    );
}

#[test]
fn hier_trace_matches_golden_snapshot() {
    let got = hier_trace();
    assert!(
        got.contains("\"ev\":\"edge_reduce\""),
        "hier preset never narrated an edge reduction:\n{got}"
    );
    assert!(
        got.contains("\"ev\":\"robust_aggregate\""),
        "hier preset never scored a tier reduction:\n{got}"
    );
    assert!(
        got.contains("\"ev\":\"round_end\""),
        "missing round_end:\n{got}"
    );
    assert_matches_golden(&got, &hier_golden_path());
}

#[test]
fn event_trace_is_byte_identical_across_invocations() {
    assert_eq!(
        event_trace(),
        event_trace(),
        "same seed must give the same bytes"
    );
}

#[test]
fn event_trace_matches_golden_snapshot() {
    let got = event_trace();
    assert!(
        got.contains("\"ev\":\"fault_injected\""),
        "event preset produced a quiet trace:\n{got}"
    );
    assert!(
        got.contains("\"ev\":\"shards_reassigned\""),
        "event preset never engaged mid-round rescue:\n{got}"
    );
    assert!(
        got.contains("\"ev\":\"round_end\""),
        "missing round_end:\n{got}"
    );
    assert_matches_golden(&got, &event_golden_path());
}
