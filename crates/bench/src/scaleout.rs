//! Scale-out sweep — the parallel multi-cohort engine from 10 to 10,000
//! devices (companion to the engine; not a paper figure).
//!
//! The paper's testbeds stop at ten devices; production federated learning
//! populations are 10³–10⁴ per round. This sweep measures two things about
//! [`ParallelRoundEngine`] as the population grows:
//!
//! * **Speedup** — wall-clock time of the identical simulation at 1, 2, 4
//!   (and at paper scale 8) worker threads. Cohorts are embarrassingly
//!   parallel, so large populations should approach linear scaling while
//!   tiny ones expose the fixed overhead honestly.
//! * **Parity** — every thread count must produce an [`EngineReport`] that
//!   is `==` (bit-for-bit, floats included) to the single-threaded run.
//!   The sweep records this instead of assuming it, so a scheduling
//!   regression shows up as a failed run, not a quietly different number.
//!
//! A probe micro-bench rides along: the device hot loop (thermal stepping
//! inside `train_samples`) timed with a telemetry probe attached vs
//! detached, quantifying the "disabled telemetry is free" claim at the
//! other end of the scale.

use std::sync::Arc;
use std::time::Instant;

use fedsched_core::Schedule;
use fedsched_device::{Device, DeviceArena, DeviceModel, TrainingWorkload};
use fedsched_fl::{
    derive_cohort_seed, DeadlinePolicy, EngineReport, ParallelRoundEngine, RoundConfig,
    RoundOutcome, SimBuilder, TimingReport, DEFAULT_COHORT_SIZE,
};
use fedsched_net::{model_transfer_bytes, Link};
use fedsched_profiler::ModelArch;
use fedsched_telemetry::{EventLog, NullRecorder, Probe};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::SHARD_SIZE;
use crate::report::Table;
use crate::scale::Scale;

/// Shards per device per round: small, so the sweep measures engine
/// scaling, not one long device loop.
const SHARDS_PER_DEVICE: usize = 2;

/// One thread count's measurement at one population size.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadPoint {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Single-thread wall time divided by this wall time.
    pub speedup: f64,
}

/// All thread counts at one population size.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Devices simulated.
    pub population: usize,
    /// Cohorts the population partitioned into.
    pub cohorts: usize,
    /// Mean per-round makespan (identical across thread counts).
    pub mean_makespan_s: f64,
    /// One measurement per thread count, ascending.
    pub threads: Vec<ThreadPoint>,
    /// Whether every thread count reproduced the single-thread report
    /// exactly (floats compared with `==`).
    pub parity: bool,
}

impl ScalePoint {
    /// Look up the measurement at a thread count.
    pub fn at_threads(&self, threads: usize) -> Option<&ThreadPoint> {
        self.threads.iter().find(|t| t.threads == threads)
    }
}

/// The probe micro-bench: device hot loop with telemetry on vs off.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeOverhead {
    /// Nanoseconds per trained sample, probe detached.
    pub detached_ns: f64,
    /// Nanoseconds per trained sample, probe attached to a null recorder.
    pub attached_ns: f64,
}

/// One population size's coordination comparison: per-cohort deadlines vs
/// one global pooled deadline vs buffered-async aggregation, over a
/// *clustered* population (cohorts homogeneous by device model) where the
/// difference between pooling scopes is starkest.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinationPoint {
    /// Devices simulated.
    pub population: usize,
    /// Cohorts the population partitioned into.
    pub cohorts: usize,
    /// Total population makespan with each cohort resolving its own
    /// mean-factor deadline from its local predicted times.
    pub per_cohort_makespan_s: f64,
    /// Shards lost to the per-cohort deadlines.
    pub per_cohort_lost: usize,
    /// Total population makespan under the coordinator's single global
    /// deadline pooled over every cohort's predictions.
    pub global_makespan_s: f64,
    /// Shards lost to the global deadline.
    pub global_lost: usize,
    /// Simulated span of the buffered-async run (slowest cohort's busy
    /// time — nobody waits at a barrier).
    pub async_span_s: f64,
    /// Shards lost in the async run.
    pub async_lost: usize,
    /// Staleness-discounted merges the async aggregator performed.
    pub async_merges: usize,
}

/// The event engine at one sparse-participation geometry: `active` of
/// `population` devices hold shards, the rest are parked, so the
/// discrete-event drain pays O(active) per round. Its report is checked
/// against the frozen output in [`EVENT_PINS`].
#[derive(Debug, Clone, PartialEq)]
pub struct EventEnginePoint {
    /// Devices simulated.
    pub population: usize,
    /// Devices actually holding shards each round.
    pub active: usize,
    /// Rounds simulated.
    pub rounds: usize,
    /// Wall-clock seconds for the `EventRoundSim` run (best of 3).
    pub event_wall_s: f64,
    /// FNV-1a 64 of the report's `Debug` text.
    pub fingerprint: u64,
    /// Whether the fingerprint equals the pinned one for this geometry
    /// (`false` for a geometry without a pin).
    pub parity: bool,
}

/// Frozen report fingerprints of the sparse-participation run, captured
/// from the lockstep device scan before every round ran on the event
/// core: `(population, active, rounds, seed, fingerprint)`. Covers the
/// smoke and paper sweeps and `exp_scale --event-check`.
pub const EVENT_PINS: [(usize, usize, usize, u64, u64); 3] = [
    (1_000, 10, 20, 7, 0x66d9_166d_f394_ee5c),
    (1_000, 10, 20, 42, 0x587b_63ca_3bb4_2747),
    (10_000, 25, 100, 42, 0x73d5_d843_c106_8aa9),
];

/// Flat-vs-hierarchical parity at one population size: the `hier` target
/// in its default one-edge-per-cohort topology must reproduce the flat
/// engine's report byte for byte at every thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct HierParityPoint {
    /// Devices simulated.
    pub population: usize,
    /// Cohorts (= edges in the parity topology).
    pub cohorts: usize,
    /// Thread counts checked.
    pub thread_counts: Vec<usize>,
    /// Whether every thread count's hierarchical report matched the flat
    /// single-threaded baseline exactly (floats compared with `==`).
    pub parity: bool,
    /// Wall-clock seconds of the flat single-threaded baseline.
    pub flat_wall_s: f64,
    /// Wall-clock seconds of the single-threaded hierarchical run.
    pub hier_wall_s: f64,
}

/// The million-device arm: an arena-backed quiet sweep over a sparse
/// active set, replicating the engine's per-cohort arithmetic exactly
/// (see [`mega_run`]) so it stays differential-testable against the
/// `hier` target at small n.
#[derive(Debug, Clone, PartialEq)]
pub struct MegaScalePoint {
    /// Devices in the population.
    pub population: usize,
    /// Devices holding shards each round.
    pub active: usize,
    /// Rounds simulated.
    pub rounds: usize,
    /// Cohorts the population partitions into.
    pub cohorts: usize,
    /// Wall-clock seconds for the whole sweep, population build included.
    pub wall_s: f64,
    /// Estimated resident bytes of the device population after the run.
    pub resident_bytes: usize,
    /// Devices that were actually inflated to full simulator state
    /// (should equal the active set).
    pub inflated: usize,
    /// Mean per-round makespan.
    pub mean_makespan_s: f64,
    /// Whether every round reported full coverage (quiet sweep: must).
    pub full_coverage: bool,
}

/// A [`MegaScalePoint`] together with the report it folded, for parity
/// checks against the real engines.
#[derive(Debug, Clone, PartialEq)]
pub struct MegaRun {
    /// The measurements.
    pub point: MegaScalePoint,
    /// Population-wide timing, engine-shaped.
    pub timing: TimingReport,
    /// Population-wide per-round outcomes, engine-shaped.
    pub rounds: Vec<RoundOutcome>,
}

/// The full sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleoutSweep {
    /// One point per population size, ascending.
    pub points: Vec<ScalePoint>,
    /// Rounds simulated per run.
    pub rounds: usize,
    /// Devices per cohort.
    pub cohort_size: usize,
    /// Physical parallelism of the host: speedup is bounded by this, so a
    /// single-core CI runner reporting ~1.0x is healthy, not a regression.
    pub host_threads: usize,
    /// The probe micro-bench result.
    pub probe: ProbeOverhead,
    /// Deadline-scope comparison, one point per population size.
    pub coordination: Vec<CoordinationPoint>,
    /// Event engine under sparse participation, against its pin.
    pub event: EventEnginePoint,
    /// Flat-vs-hierarchical byte-identity check.
    pub hier: HierParityPoint,
    /// The arena-backed mega-scale arm.
    pub mega: MegaScalePoint,
}

/// A mixed-model population of `n` devices cycling the Table I presets.
pub fn population(n: usize, seed: u64) -> Vec<Device> {
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

/// A population sorted so each cohort is homogeneous: the slowest model
/// fills whole cohorts instead of hiding inside mixed ones. This is the
/// regime where deadline-pooling scope matters most — a slow cohort's
/// local mean-factor deadline drifts far above the population's.
pub fn clustered_population(n: usize, seed: u64) -> Vec<Device> {
    let models = DeviceModel::all();
    (0..n)
        .map(|i| {
            Device::from_model(
                models[(i * models.len()) / n.max(1)],
                seed.wrapping_add(i as u64 * 0x9E37_79B9),
            )
        })
        .collect()
}

/// Mean-factor slack shared by both deadline arms.
const DEADLINE_FACTOR: f64 = 1.2;
/// Buffered-async mixing rate.
const ASYNC_ETA: f64 = 0.5;

/// Measure the three coordination arms at one population size.
pub fn coordination_point(n: usize, seed: u64, rounds: usize) -> CoordinationPoint {
    let schedule = Schedule::new(vec![SHARDS_PER_DEVICE; n], SHARD_SIZE);
    let cohorts = n.div_ceil(DEFAULT_COHORT_SIZE);
    let builder = || {
        SimBuilder::new(
            clustered_population(n, seed),
            RoundConfig::new(
                TrainingWorkload::lenet(),
                Link::wifi_campus(),
                model_transfer_bytes(&ModelArch::lenet()),
                seed,
            ),
        )
    };

    // Both deadline arms use Deadline-Dropout semantics (no rescue):
    // stragglers past the deadline are cut and their shards counted lost,
    // so the deadline bounds the round instead of triggering mid-round
    // shard redistribution inside an already-slow cohort.
    //
    // Arm 1: every cohort resolves its own deadline from local predictions.
    let mut per_cohort = builder()
        .deadline(DeadlinePolicy::MeanFactor(DEADLINE_FACTOR))
        .no_rescue()
        .build_engine()
        .expect("per-cohort deadline engine config is valid");
    let per_report = per_cohort.run(&schedule, rounds);

    // Arm 2: the coordinator pools all predictions into one deadline.
    let mut global = builder()
        .deadline(DeadlinePolicy::MeanFactor(DEADLINE_FACTOR))
        .no_rescue()
        .build_coordinator()
        .expect("global deadline coordinator config is valid");
    let global_report = global.run(&schedule, rounds);

    // Arm 3: no barrier at all — buffered staleness-weighted aggregation.
    // The merge ledger is the `async_merge` event stream.
    let ledger = Arc::new(EventLog::new());
    let mut buffered = builder()
        .buffered_async((cohorts / 2).max(1), ASYNC_ETA)
        .probe(Probe::attached(ledger.clone()))
        .build_coordinator()
        .expect("buffered-async coordinator config is valid");
    let async_report = buffered.run(&schedule, rounds);
    // Nobody waits in async mode: the span is the slowest cohort's own
    // busy time.
    let async_span_s = async_report
        .cohorts
        .iter()
        .map(|c| c.timing.per_round_makespan.iter().sum::<f64>())
        .fold(0.0, f64::max);

    CoordinationPoint {
        population: n,
        cohorts,
        per_cohort_makespan_s: per_report.timing.per_round_makespan.iter().sum(),
        per_cohort_lost: per_report.total_lost(),
        global_makespan_s: global_report.timing.per_round_makespan.iter().sum(),
        global_lost: global_report.total_lost(),
        async_span_s,
        async_lost: async_report.total_lost(),
        async_merges: ledger
            .events()
            .iter()
            .filter(|e| e.kind() == "async_merge")
            .count(),
    }
}

/// Measure the event engine under sparse participation: `active` of `n`
/// devices hold one small shard per round, the rest are parked. The
/// report is fingerprinted and checked against [`EVENT_PINS`].
pub fn event_point(n: usize, active: usize, rounds: usize, seed: u64) -> EventEnginePoint {
    // One single-sample shard per active device keeps the simulation work
    // (thermal stepping, comm draws) small relative to the per-round
    // bookkeeping.
    let mut shards = vec![0usize; n];
    for s in shards.iter_mut().take(active) {
        *s = 1;
    }
    let schedule = Schedule::new(shards, 1.0);

    // Wall times at this scale sit in the low milliseconds where OS
    // jitter is visible, so the run is timed best-of-3 over fresh sims
    // (device thermal state persists across `run` calls, so reusing one
    // sim would not replay the same simulation).
    const REPS: usize = 3;
    let mut event_wall_s = f64::INFINITY;
    let mut report = None;
    for _ in 0..REPS {
        let mut event = SimBuilder::new(
            population(n, seed),
            RoundConfig::new(
                TrainingWorkload::lenet(),
                Link::wifi_campus(),
                model_transfer_bytes(&ModelArch::lenet()),
                seed,
            ),
        )
        .build_event_sim()
        .expect("valid event sim config");
        let start = Instant::now();
        let got = event.run(&schedule, rounds);
        event_wall_s = event_wall_s.min(start.elapsed().as_secs_f64());
        report = Some(got);
    }
    let report = report.expect("at least one repetition");
    let fingerprint = fedsched_core::json::fnv1a64(format!("{report:?}").as_bytes());
    EventEnginePoint {
        population: n,
        active,
        rounds,
        event_wall_s,
        fingerprint,
        parity: EVENT_PINS.contains(&(n, active, rounds, seed, fingerprint)),
    }
}

/// Measure flat-vs-hierarchical byte-identity at one population size:
/// the default one-edge-per-cohort `hier` target against the flat
/// engine's single-threaded baseline, at every requested thread count.
pub fn hier_point(n: usize, seed: u64, rounds: usize, thread_counts: &[usize]) -> HierParityPoint {
    let schedule = Schedule::new(vec![SHARDS_PER_DEVICE; n], SHARD_SIZE);
    let config = RoundConfig::new(
        TrainingWorkload::lenet(),
        Link::wifi_campus(),
        model_transfer_bytes(&ModelArch::lenet()),
        seed,
    );

    let mut flat = SimBuilder::new(population(n, seed), config)
        .threads(1)
        .build_engine()
        .expect("valid flat engine config");
    let start = Instant::now();
    let baseline = flat.run(&schedule, rounds);
    let flat_wall_s = start.elapsed().as_secs_f64();

    let mut parity = true;
    let mut hier_wall_s = 0.0;
    for &t in thread_counts {
        let mut hier = SimBuilder::new(population(n, seed), config)
            .threads(t)
            .build_hier()
            .expect("valid hier engine config");
        let start = Instant::now();
        let report = hier.run(&schedule, rounds);
        let wall = start.elapsed().as_secs_f64();
        if t == 1 {
            hier_wall_s = wall;
        }
        let same = report.timing == baseline.timing
            && report.rounds == baseline.rounds
            && report.cohorts == baseline.cohorts;
        assert!(
            same,
            "threads={t}, n={n}: hierarchical report diverged from flat"
        );
        parity &= same;
    }

    HierParityPoint {
        population: n,
        cohorts: n.div_ceil(DEFAULT_COHORT_SIZE),
        thread_counts: thread_counts.to_vec(),
        parity,
        flat_wall_s,
        hier_wall_s,
    }
}

/// A sparse schedule: `active` of `n` devices hold one single-sample
/// shard, spread evenly across the population (and therefore across
/// cohorts).
pub fn sparse_schedule(n: usize, active: usize) -> Schedule {
    let mut shards = vec![0usize; n];
    if let Some(stride) = n.checked_div(active) {
        let stride = stride.max(1);
        for slot in 0..active {
            shards[(slot * stride).min(n - 1)] = 1;
        }
    }
    Schedule::new(shards, 1.0)
}

/// One cohort of the arena-backed quiet sweep: replicates
/// the quiet round's arithmetic exactly — comm sampled before compute,
/// idle users skipped without an RNG draw, strictly-greater straggler
/// update, `straggler_comm` accumulated per round — against the cohort's
/// own seeded RNG stream. Only active devices inflate.
#[allow(clippy::too_many_arguments)]
fn sweep_cohort(
    arena: &mut DeviceArena,
    wl: &TrainingWorkload,
    link: Link,
    model_bytes: f64,
    start: usize,
    sub: &[usize],
    shard_size: f64,
    seed: u64,
    rounds: usize,
) -> TimingReport {
    let active: Vec<(usize, usize)> = sub
        .iter()
        .enumerate()
        .filter_map(|(j, &k)| {
            let samples = (k as f64 * shard_size) as usize;
            (samples > 0).then_some((start + j, samples))
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut per_round = Vec::with_capacity(rounds);
    let mut user_totals = vec![0.0f64; sub.len()];
    let mut straggler_comm = 0.0f64;
    for _ in 0..rounds {
        let mut worst = 0.0f64;
        let mut worst_comm = 0.0f64;
        for &(g, samples) in &active {
            let comm = link.sample_round_seconds(model_bytes, &mut rng);
            let compute = arena.device(g).train_samples(wl, samples);
            let total = comm + compute;
            user_totals[g - start] += total;
            if total > worst {
                worst = total;
                worst_comm = comm;
            }
        }
        per_round.push(worst);
        straggler_comm += if worst > 0.0 { worst_comm / worst } else { 0.0 };
    }
    TimingReport {
        per_round_makespan: per_round,
        per_user_mean: user_totals.iter().map(|t| t / rounds as f64).collect(),
        comm_fraction: if rounds == 0 {
            0.0
        } else {
            straggler_comm / rounds as f64
        },
    }
}

/// The arena-backed quiet sweep: the engine's cohort geometry, seed
/// derivation, per-cohort round loop and merge fold replicated over a
/// [`DeviceArena`], touching only devices that hold shards. The output is
/// engine-shaped and byte-identical to a real `hier` or `engine` run of
/// the same scenario — `mega_matches_hier` and the
/// differential suite pin that — while the resident population stays at
/// tens of bytes per pristine device, which is what lets the sweep reach
/// a million devices.
pub fn mega_run(n: usize, active: usize, rounds: usize, seed: u64) -> MegaRun {
    let schedule = sparse_schedule(n, active);
    let wl = TrainingWorkload::lenet();
    let link = Link::wifi_campus();
    let model_bytes = model_transfer_bytes(&ModelArch::lenet());
    let models = DeviceModel::all();

    let start_t = Instant::now();
    let mut arena = DeviceArena::from_models((0..n).map(|i| {
        (
            models[i % models.len()],
            seed.wrapping_add(i as u64 * 0x9E37_79B9),
        )
    }));
    let n_cohorts = n.div_ceil(DEFAULT_COHORT_SIZE);

    // Fold accumulators, mirroring the engine's merge: max per-round
    // makespan, population-ordered user means, participant-weighted comm
    // fraction, integer sums with coverage recomputed at the end.
    let mut per_round_makespan = vec![0.0f64; rounds];
    let mut per_user_mean = Vec::with_capacity(n);
    let mut comm_weighted = 0.0f64;
    let mut total_participants = 0usize;
    let mut merged: Vec<RoundOutcome> = (0..rounds)
        .map(|r| RoundOutcome {
            round: r,
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
    let mut single_timing = None;

    for c in 0..n_cohorts {
        let lo = c * DEFAULT_COHORT_SIZE;
        let hi = ((c + 1) * DEFAULT_COHORT_SIZE).min(n);
        let sub = &schedule.shards[lo..hi];
        let scheduled: usize = sub.iter().sum();
        let participants = sub.iter().filter(|&&k| k > 0).count();
        let timing = sweep_cohort(
            &mut arena,
            &wl,
            link,
            model_bytes,
            lo,
            sub,
            schedule.shard_size,
            derive_cohort_seed(seed, c),
            rounds,
        );

        for (r, &m) in timing.per_round_makespan.iter().enumerate() {
            if m > per_round_makespan[r] {
                per_round_makespan[r] = m;
            }
        }
        per_user_mean.extend_from_slice(&timing.per_user_mean);
        comm_weighted += timing.comm_fraction * participants as f64;
        total_participants += participants;
        // Quiet cohorts synthesize full-coverage outcomes: everything
        // scheduled completes, makespan comes straight from timing.
        for (r, out) in merged.iter_mut().enumerate() {
            out.scheduled += scheduled;
            out.completed += scheduled;
            let m = timing.per_round_makespan[r];
            if m > out.makespan_s {
                out.makespan_s = m;
            }
        }
        if n_cohorts == 1 {
            single_timing = Some(timing);
        }
    }

    for out in &mut merged {
        out.coverage = if out.scheduled == 0 {
            1.0
        } else {
            (out.completed + out.rescued + out.admit_done) as f64
                / (out.scheduled + out.admitted) as f64
        };
    }

    // Single cohort: the engine passes the cohort report through
    // verbatim, so the fold must too (the weighted comm fraction would
    // multiply and divide by the same participant count — not always a
    // bit-level no-op).
    let timing = match single_timing {
        Some(t) => t,
        None => TimingReport {
            per_round_makespan,
            per_user_mean,
            comm_fraction: if total_participants == 0 {
                0.0
            } else {
                comm_weighted / total_participants as f64
            },
        },
    };

    let wall_s = start_t.elapsed().as_secs_f64();
    let point = MegaScalePoint {
        population: n,
        active: schedule.active_users(),
        rounds,
        cohorts: n_cohorts,
        wall_s,
        resident_bytes: arena.resident_bytes(),
        inflated: arena.n_inflated(),
        mean_makespan_s: timing.mean_makespan(),
        full_coverage: merged.iter().all(|r| r.coverage == 1.0),
    };
    MegaRun {
        point,
        timing,
        rounds: merged,
    }
}

/// Differential gate for the mega sweep: run the same sparse scenario
/// through the real `hier` target (scalar devices, default parity
/// topology) and demand byte-identical timing and outcomes.
pub fn mega_matches_hier(n: usize, active: usize, rounds: usize, seed: u64) -> bool {
    let mega = mega_run(n, active, rounds, seed);
    let mut hier = SimBuilder::new(
        population(n, seed),
        RoundConfig::new(
            TrainingWorkload::lenet(),
            Link::wifi_campus(),
            model_transfer_bytes(&ModelArch::lenet()),
            seed,
        ),
    )
    .build_hier()
    .expect("valid hier engine config");
    let report = hier.run(&sparse_schedule(n, active), rounds);
    report.timing == mega.timing && report.rounds == mega.rounds
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); `None` where procfs is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn engine(n: usize, seed: u64, threads: usize) -> ParallelRoundEngine {
    SimBuilder::new(
        population(n, seed),
        RoundConfig::new(
            TrainingWorkload::lenet(),
            Link::wifi_campus(),
            model_transfer_bytes(&ModelArch::lenet()),
            seed,
        ),
    )
    .threads(threads)
    .build_engine()
    .expect("valid engine config")
}

/// Time one full engine run, returning the report and wall seconds.
fn timed_run(n: usize, seed: u64, threads: usize, rounds: usize) -> (EngineReport, f64) {
    let schedule = Schedule::new(vec![SHARDS_PER_DEVICE; n], SHARD_SIZE);
    let mut eng = engine(n, seed, threads);
    let start = Instant::now();
    let report = eng.run(&schedule, rounds);
    (report, start.elapsed().as_secs_f64())
}

/// Time the device hot loop (`train_samples`) with and without a probe.
pub fn probe_overhead(seed: u64) -> ProbeOverhead {
    let wl = TrainingWorkload::lenet();
    let samples_per_call = 200usize;
    let calls = 50usize;
    let time_one = |probe: Probe| -> f64 {
        let mut device = Device::from_model(DeviceModel::Pixel2, seed);
        device.set_probe(probe);
        let start = Instant::now();
        for _ in 0..calls {
            let _ = device.train_samples(&wl, samples_per_call);
        }
        start.elapsed().as_secs_f64() * 1e9 / (calls * samples_per_call) as f64
    };
    ProbeOverhead {
        detached_ns: time_one(Probe::disabled()),
        attached_ns: time_one(Probe::attached(Arc::new(NullRecorder))),
    }
}

/// Run the sweep: populations 10 → 1,000 at smoke scale, 10 → 10,000 at
/// paper scale; threads 1/2/4 (plus 8 at paper scale).
///
/// # Panics
/// Panics if any thread count's report diverges from the single-threaded
/// run — that would be an engine determinism bug, not a measurement.
pub fn run(scale: Scale, seed: u64) -> ScaleoutSweep {
    let populations: Vec<usize> = scale.pick(vec![10, 100, 1_000], vec![10, 100, 1_000, 10_000]);
    let thread_counts: Vec<usize> = scale.pick(vec![1, 2, 4], vec![1, 2, 4, 8]);
    let rounds = 2;

    let mut points = Vec::new();
    for n in populations {
        let (baseline, base_wall) = timed_run(n, seed, 1, rounds);
        let mut threads = vec![ThreadPoint {
            threads: 1,
            wall_s: base_wall,
            speedup: 1.0,
        }];
        let mut parity = true;
        for &t in thread_counts.iter().filter(|&&t| t > 1) {
            let (report, wall_s) = timed_run(n, seed, t, rounds);
            let same = report == baseline;
            assert!(same, "threads={t}, n={n}: report diverged from sequential");
            parity &= same;
            threads.push(ThreadPoint {
                threads: t,
                wall_s,
                speedup: base_wall / wall_s.max(f64::EPSILON),
            });
        }
        points.push(ScalePoint {
            population: n,
            cohorts: n.div_ceil(DEFAULT_COHORT_SIZE),
            mean_makespan_s: baseline.timing.mean_makespan(),
            threads,
            parity,
        });
    }
    let coordination = scale
        .pick(vec![10, 100, 1_000], vec![10, 100, 1_000, 10_000])
        .into_iter()
        .map(|n| coordination_point(n, seed, rounds))
        .collect();

    let (event_pop, event_active, event_rounds) = scale.pick((1_000, 10, 20), (10_000, 25, 100));
    let (hier_pop, hier_threads) = scale.pick((1_000, vec![1, 2, 4]), (10_000, vec![1, 2, 4, 8]));
    let (mega_pop, mega_active, mega_rounds) =
        scale.pick((10_000, 100, 10), (1_000_000, 1_000, 100));
    ScaleoutSweep {
        points,
        rounds,
        cohort_size: DEFAULT_COHORT_SIZE,
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        probe: probe_overhead(seed),
        coordination,
        event: event_point(event_pop, event_active, event_rounds, seed),
        hier: hier_point(hier_pop, seed, rounds, &hier_threads),
        mega: mega_run(mega_pop, mega_active, mega_rounds, seed).point,
    }
}

/// Render the sweep as one table per population plus the probe numbers.
pub fn render(sweep: &ScaleoutSweep) -> String {
    let mut out = String::from("## Scale-out — parallel multi-cohort engine\n\n");
    out.push_str(&format!(
        "LeNet over WiFi, {} shards/device, {} rounds, cohorts of {}; every \
         thread count verified bit-identical to the single-threaded run. \
         Host parallelism: {} core(s) — speedup saturates there.\n\n",
        SHARDS_PER_DEVICE, sweep.rounds, sweep.cohort_size, sweep.host_threads,
    ));
    let mut t = Table::new(vec![
        "population",
        "cohorts",
        "threads",
        "wall [ms]",
        "speedup",
        "parity",
    ]);
    for point in &sweep.points {
        for tp in &point.threads {
            t.row(vec![
                point.population.to_string(),
                point.cohorts.to_string(),
                tp.threads.to_string(),
                format!("{:.2}", tp.wall_s * 1e3),
                format!("{:.2}x", tp.speedup),
                if point.parity { "ok" } else { "DIVERGED" }.to_string(),
            ]);
        }
    }
    out.push_str(&t.render());

    out.push_str(&format!(
        "\n### Deadline scope — per-cohort vs global vs buffered async\n\n\
         Clustered population (cohorts homogeneous by model), mean-factor \
         {DEADLINE_FACTOR} deadlines, async eta {ASYNC_ETA}. A slow cohort \
         sets its own generous local deadline; the coordinator's pooled \
         deadline cuts it to the population average instead.\n\n",
    ));
    let mut c = Table::new(vec![
        "population",
        "cohorts",
        "per-cohort [s]",
        "lost",
        "global [s]",
        "lost",
        "async span [s]",
        "lost",
        "merges",
    ]);
    for p in &sweep.coordination {
        c.row(vec![
            p.population.to_string(),
            p.cohorts.to_string(),
            format!("{:.1}", p.per_cohort_makespan_s),
            p.per_cohort_lost.to_string(),
            format!("{:.1}", p.global_makespan_s),
            p.global_lost.to_string(),
            format!("{:.1}", p.async_span_s),
            p.async_lost.to_string(),
            p.async_merges.to_string(),
        ]);
    }
    out.push_str(&c.render());
    let ev = &sweep.event;
    out.push_str(&format!(
        "\n### Event engine — sparse participation\n\n\
         {} of {} devices hold shards for {} rounds. The discrete-event \
         queue only touches devices whose events fire.\n\n\
         event {:.2} ms, report {} the pinned reference.\n",
        ev.active,
        ev.population,
        ev.rounds,
        ev.event_wall_s * 1e3,
        if ev.parity {
            "matches"
        } else {
            "DIVERGED from"
        },
    ));
    let h = &sweep.hier;
    out.push_str(&format!(
        "\n### Two-tier hierarchy — flat-vs-hierarchical byte-identity\n\n\
         {} devices, {} cohorts (= edges, one per cohort), threads {:?}: \
         every hierarchical report {} the flat single-threaded baseline. \
         Flat {:.2} ms vs hierarchical {:.2} ms at one thread.\n",
        h.population,
        h.cohorts,
        h.thread_counts,
        if h.parity { "matched" } else { "DIVERGED from" },
        h.flat_wall_s * 1e3,
        h.hier_wall_s * 1e3,
    ));
    let m = &sweep.mega;
    out.push_str(&format!(
        "\n### Mega-scale — arena-backed sparse sweep\n\n\
         {} devices ({} cohorts), {} active per round, {} rounds: \
         {:.1} s wall, {} devices inflated, {:.1} MB resident \
         ({:.1} B/device), coverage {}.\n",
        m.population,
        m.cohorts,
        m.active,
        m.rounds,
        m.wall_s,
        m.inflated,
        m.resident_bytes as f64 / 1e6,
        m.resident_bytes as f64 / m.population.max(1) as f64,
        if m.full_coverage {
            "full"
        } else {
            "INCOMPLETE"
        },
    ));
    out.push_str(&format!(
        "\nDevice hot loop (train_samples, LeNet): {:.1} ns/sample with the \
         probe detached vs {:.1} ns/sample attached to a null recorder.\n",
        sweep.probe.detached_ns, sweep.probe.attached_ns,
    ));
    out.push_str(
        "\nFinding: cohort-level parallelism only pays once the population \
         dwarfs the cohort size (single-cohort runs are pure spawn \
         overhead), speedup is capped by host cores, and the determinism \
         contract holds at every point: thread count changes wall-clock \
         only, never a simulated number.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> &'static ScaleoutSweep {
        use std::sync::OnceLock;
        static CACHE: OnceLock<ScaleoutSweep> = OnceLock::new();
        CACHE.get_or_init(|| run(Scale::Smoke, 7))
    }

    #[test]
    fn every_point_keeps_makespan_parity() {
        for point in &sweep().points {
            assert!(point.parity, "population {} diverged", point.population);
            assert!(point.mean_makespan_s > 0.0);
        }
    }

    #[test]
    fn sweep_covers_the_population_range() {
        let pops: Vec<usize> = sweep().points.iter().map(|p| p.population).collect();
        assert_eq!(pops, vec![10, 100, 1_000]);
        for point in &sweep().points {
            assert_eq!(
                point.cohorts,
                point.population.div_ceil(DEFAULT_COHORT_SIZE)
            );
            let threads: Vec<usize> = point.threads.iter().map(|t| t.threads).collect();
            assert_eq!(threads, vec![1, 2, 4]);
            assert_eq!(point.at_threads(1).unwrap().speedup, 1.0);
            for tp in &point.threads {
                assert!(tp.wall_s > 0.0);
                assert!(tp.speedup > 0.0);
            }
        }
    }

    #[test]
    fn probe_micro_bench_produces_sane_numbers() {
        let probe = &sweep().probe;
        assert!(probe.detached_ns > 0.0);
        assert!(probe.attached_ns > 0.0);
    }

    #[test]
    fn global_deadline_strictly_beats_per_cohort_at_thousand_devices() {
        for point in &sweep().coordination {
            assert!(point.per_cohort_makespan_s > 0.0);
            assert!(point.global_makespan_s > 0.0);
            assert!(point.async_span_s > 0.0);
            if point.population >= 1_000 {
                assert!(
                    point.global_makespan_s < point.per_cohort_makespan_s,
                    "population {}: global deadline {:.2}s must beat \
                     per-cohort {:.2}s",
                    point.population,
                    point.global_makespan_s,
                    point.per_cohort_makespan_s,
                );
            }
        }
    }

    #[test]
    fn render_emits_rows_and_probe_numbers() {
        let s = render(sweep());
        assert!(s.contains("| 1000"), "missing 1000-device rows:\n{s}");
        assert!(s.contains("ns/sample"));
        assert!(s.contains("parity"));
        assert!(!s.contains("DIVERGED"));
    }

    #[test]
    fn event_arm_keeps_report_parity_under_sparse_participation() {
        let ev = &sweep().event;
        assert!(
            ev.parity,
            "event engine diverged from its pin: {:#018x}",
            ev.fingerprint
        );
        assert_eq!(ev.population, 1_000);
        assert_eq!(ev.active, 10);
        assert!(ev.event_wall_s > 0.0);
    }

    #[test]
    fn hier_arm_keeps_byte_identity_at_every_thread_count() {
        let h = &sweep().hier;
        assert!(h.parity, "hierarchical engine diverged from flat");
        assert_eq!(h.population, 1_000);
        assert_eq!(h.thread_counts, vec![1, 2, 4]);
        assert!(h.flat_wall_s > 0.0);
        assert!(h.hier_wall_s > 0.0);
    }

    #[test]
    fn mega_arm_inflates_only_the_active_set() {
        let m = &sweep().mega;
        assert_eq!(m.population, 10_000);
        assert_eq!(m.active, 100);
        assert_eq!(m.inflated, m.active, "idle devices must stay pristine");
        assert!(m.full_coverage);
        assert!(m.mean_makespan_s > 0.0);
        // Resident cost must stay far below full materialization:
        // pristine columns plus the inflated active set only.
        let per_device = m.resident_bytes as f64 / m.population as f64;
        assert!(per_device < 128.0, "resident {per_device:.1} B/device");
    }

    #[test]
    fn mega_sweep_is_byte_identical_to_the_hier_engine_at_small_n() {
        assert!(mega_matches_hier(200, 20, 3, 7));
        // Degenerate geometries: single cohort (passthrough fold) and a
        // fully idle population.
        assert!(mega_matches_hier(40, 5, 2, 7));
        assert!(mega_matches_hier(130, 0, 2, 7));
    }

    #[test]
    fn sparse_schedule_spreads_the_active_set() {
        let s = sparse_schedule(1_000, 10);
        assert_eq!(s.active_users(), 10);
        // Spread across cohorts, not packed into the first one.
        let first_cohort: usize = s.shards[..DEFAULT_COHORT_SIZE].iter().sum();
        assert!(first_cohort < 10);
        assert_eq!(sparse_schedule(100, 0).active_users(), 0);
    }

    #[test]
    fn render_reports_hierarchy_and_mega_sections() {
        let s = render(sweep());
        assert!(s.contains("Two-tier hierarchy"), "missing section:\n{s}");
        assert!(s.contains("Mega-scale"), "missing section:\n{s}");
        assert!(s.contains("matched"), "parity not rendered:\n{s}");
    }

    #[test]
    fn render_reports_the_event_comparison() {
        let s = render(sweep());
        assert!(
            s.contains("Event engine — sparse participation"),
            "missing section:\n{s}"
        );
        assert!(
            s.contains("report matches the pinned reference"),
            "parity not rendered:\n{s}"
        );
    }
}
