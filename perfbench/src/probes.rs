//! Layer probes: the layers a workload reaches only through black-box
//! calls (`BuiltSim::step`, `EventRoundSim::run`, `FlSetup::run`), timed
//! through their own public entry points on inputs shaped like the
//! workload that uses them. Every traced run runs every probe; where a
//! workload exercises a layer directly, its traced pass overrides the
//! probe's value. Metrics only one workload can measure (the HTTP client's
//! and the model's) are recorded as absent on the others.

use std::sync::Arc;
use std::time::Instant;

use fedsched::bandit::{selection_stream, SelectionPolicy, Ucb1};
use fedsched::core::json::JsonValue;
use fedsched::core::{CostMatrix, EventQueue, ExactMinMax, FedLbap, FedMinAvg, Scheduler};
use fedsched::data::{Dataset, DatasetKind, Scenario};
use fedsched::device::{Device, DeviceModel, Testbed, TrainingWorkload};
use fedsched::faults::{ChurnConfig, FaultPlan};
use fedsched::fl::AggregatorKind;
use fedsched::fl::{DeviceSetSpec, JobSpec};
use fedsched::nn::ModelKind;
use fedsched::parallel::parallel_map;
use fedsched::profiler::{LinearProfile, OnlineProfiler};
use fedsched::serve::{DirStore, StateStore, Supervisor};
use fedsched::telemetry::{EventLog, Probe};

use crate::stats::{loglog_slope, median, rss_bytes};
use crate::{fleet, iid, noniid, serve, Ctx, Outcome};

/// Median seconds of `reps` calls of `f`.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Fastest of `reps` calls of `f`, seconds: the scaling fits use the
/// minimum, which noise can only raise.
fn time_min<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Linear per-model profiles, cycled to any cohort size.
fn linear_profiles(n: usize, seed: u64) -> Vec<LinearProfile> {
    let models = iid::cycled_models(4);
    let tabulated = Testbed::new(&models, seed).profiles_for(&TrainingWorkload::lenet());
    let priors = iid::linear_priors(
        &tabulated,
        (iid::SHARDS as f64 * iid::SHARD) / iid::DEVICES as f64,
    );
    priors.into_iter().cycle().take(n).collect()
}

fn core(ctx: &Ctx, out: &mut Outcome) {
    // Cost matrix and Fed-LBAP at the iid_resched shape.
    let testbed = Testbed::new(&iid::cycled_models(iid::DEVICES), ctx.seed);
    let start = Instant::now();
    let profiles = testbed.profiles_for(&TrainingWorkload::lenet());
    out.set(
        "profiler.offline_ms_per_device",
        start.elapsed().as_secs_f64() * 1000.0 / iid::DEVICES as f64,
    );
    let costs =
        CostMatrix::from_profiles(&profiles, iid::SHARDS, iid::SHARD, &iid::comm(iid::DEVICES));
    out.set(
        "core.cost_matrix.build_ms",
        time_median(5, || {
            CostMatrix::from_profiles(&profiles, iid::SHARDS, iid::SHARD, &iid::comm(iid::DEVICES))
        }) * 1000.0,
    );
    out.set(
        "core.lbap.solve_ms",
        time_median(5, || FedLbap.schedule(&costs)) * 1000.0,
    );

    // Fed-LBAP over an (n, s) grid bracketing iid_resched, fitted against
    // n*s*log(n*s); the exact DP is timed and cross-checked at the small end.
    let linear = linear_profiles(200, ctx.seed);
    let mut points = Vec::new();
    let mut grid = Vec::new();
    for n in [25, 50, 100, 200] {
        for s in [1_500, 3_000, 6_000, 12_000] {
            let costs = CostMatrix::from_profiles(&linear[..n], s, iid::SHARD, &iid::comm(n));
            let secs = time_min(3, || FedLbap.schedule(&costs));
            let ns = (n * s) as f64;
            points.push((ns * ns.ln(), secs));
            grid.push(format!("{n}x{s}:{:.3}ms", secs * 1000.0));
        }
    }
    out.set("core.lbap.exponent", loglog_slope(&points));
    out.note("core.lbap.grid", grid.join(" "));
    let small = CostMatrix::from_profiles(&linear[..25], 1_500, iid::SHARD, &iid::comm(25));
    let mut exact = None;
    out.set(
        "core.exact.solve_ms",
        time_min(1, || exact = Some(ExactMinMax.schedule(&small))) * 1000.0,
    );
    let makespan = |s: &fedsched::core::Schedule| {
        s.shards
            .iter()
            .enumerate()
            .map(|(j, &k)| small.cost(j, k))
            .fold(0.0, f64::max)
    };
    out.check(
        "probe: Fed-LBAP equals the exact DP at the grid's small end",
        match (FedLbap.schedule(&small), exact.expect("exact ran")) {
            (Ok(a), Ok(b)) => makespan(&a) == makespan(&b),
            _ => false,
        },
    );

    // Fed-MinAvg at the noniid_train shape, and over an (n, m) grid
    // bracketing it, fitted against m*n.
    let scenario = Scenario::s3();
    let (train, _) = Dataset::generate_split(DatasetKind::MnistLike, noniid::N_TRAIN, 1, ctx.seed);
    let partition = scenario.partition(&train, ctx.seed);
    let s3 = Testbed::new(&noniid::s3_models(), ctx.seed).profiles_for(&TrainingWorkload::lenet());
    let problem = noniid::minavg_problem(s3, &scenario, &partition, iid::comm(1)[0]);
    out.set(
        "core.minavg.solve_ms",
        time_median(5, || FedMinAvg.schedule(&problem)) * 1000.0,
    );
    let mut points = Vec::new();
    for users in [10, 20, 40, 80] {
        for shards in [60, 120, 240, 480] {
            // The scenario's users cycled up to `users`, with room for all shards.
            let p = fedsched::core::MinAvgProblem {
                users: problem
                    .users
                    .iter()
                    .cycle()
                    .zip(linear_profiles(users, ctx.seed))
                    .map(|(u, profile)| fedsched::core::UserSpec {
                        profile,
                        comm: u.comm,
                        classes: u.classes.clone(),
                        capacity_shards: shards,
                    })
                    .collect(),
                total_shards: shards,
                shard_size: problem.shard_size,
                acc: problem.acc,
            };
            let secs = time_min(3, || FedMinAvg.schedule(&p));
            points.push(((users * shards) as f64, secs));
        }
    }
    out.set("core.minavg.exponent", loglog_slope(&points));

    // Event queue: schedule then pop, per operation pair.
    const EVENTS: usize = 100_000;
    let mut draws = fedsched::faults::DrawStream::new(ctx.seed);
    let times: Vec<f64> = (0..EVENTS).map(|_| draws.next_u01() * 1000.0).collect();
    let secs = time_median(5, || {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        popped
    });
    out.set("core.events.op_ns", secs * 1e9 / EVENTS as f64);
}

fn json_and_spec(ctx: &Ctx, out: &mut Outcome) {
    let docs: Vec<String> = (0..200)
        .map(|i| serve::job_request(ctx.seed, i).canonical_json())
        .collect();
    let bytes: usize = docs.iter().map(String::len).sum();
    let mb = bytes as f64 / 1e6;
    let parsed: Vec<JsonValue> = docs
        .iter()
        .filter_map(|d| JsonValue::parse(d).ok())
        .collect();
    out.check("probe: job documents parse", parsed.len() == docs.len());
    let decode = time_median(5, || {
        docs.iter().filter(|d| JsonValue::parse(d).is_ok()).count()
    });
    let encode = time_median(5, || parsed.iter().map(|v| v.encode().len()).sum::<usize>());
    out.set("core.json.decode_mb_s", mb / decode);
    out.set("core.json.encode_mb_s", mb / encode);
    let text = fleet::spec(ctx.seed).canonical_json();
    out.set(
        "fl.spec.parse_us",
        time_median(200, || JobSpec::parse(&text)) * 1e6,
    );
}

fn device_and_faults(ctx: &Ctx, out: &mut Outcome) {
    let wl = TrainingWorkload::lenet();
    let mut device = Device::from_model(DeviceModel::Pixel2, ctx.seed);
    const SAMPLES: usize = 6_000;
    out.set(
        "device.train_ns_per_sample",
        time_median(5, || device.train_samples(&wl, SAMPLES)) * 1e9 / SAMPLES as f64,
    );

    let fleet_spec = DeviceSetSpec::Replicated {
        preset: 3,
        copies: fleet::COPIES,
        seed: ctx.seed,
    };
    let before = rss_bytes();
    let start = Instant::now();
    let devices = fleet_spec.build();
    out.set(
        "device.population_build_ms",
        start.elapsed().as_secs_f64() * 1000.0,
    );
    out.set(
        "device.bytes_per_device",
        (rss_bytes() - before) / fleet::DEVICES as f64,
    );
    out.check("probe: fleet population builds", devices.is_ok());
    drop(devices);

    let config = fleet::fault_config().with_churn_process(ChurnConfig::symmetric(0.01, 60.0));
    let before = rss_bytes();
    let start = Instant::now();
    let plan = FaultPlan::generate(config, fleet::DEVICES, fleet::ROUNDS, ctx.seed);
    out.set(
        "faults.plan_build_ms",
        start.elapsed().as_secs_f64() * 1000.0,
    );
    out.set("faults.plan_bytes", rss_bytes() - before);
    drop(plan);

    let mut observer = OnlineProfiler::new(0.9);
    const OBS: usize = 100_000;
    let start = Instant::now();
    for i in 0..OBS {
        let samples = 1000.0 + (i % 97) as f64 * 10.0;
        observer.observe(samples, 2.0 + samples * 1e-3);
    }
    out.set(
        "profiler.online_observe_ns",
        start.elapsed().as_secs_f64() * 1e9 / OBS as f64,
    );
}

fn bandit_and_robust(ctx: &Ctx, out: &mut Outcome) {
    const ARMS: usize = 64;
    const K: usize = 8;
    const ROUNDS: usize = 2_000;
    let mut policy = Ucb1::new(1.0);
    let eligible = vec![true; ARMS];
    let (mut select_s, mut update_s, mut updates) = (0.0, 0.0, 0usize);
    for round in 0..ROUNDS {
        let mut stream = selection_stream(ctx.seed, round as u64);
        let start = Instant::now();
        let picked = policy.select(&eligible, K, &mut stream);
        select_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        for &arm in &picked {
            policy.update(arm, -((arm % 7) as f64) - stream.next_u01());
        }
        update_s += start.elapsed().as_secs_f64();
        updates += picked.len();
    }
    out.set("bandit.select_us", select_s * 1e6 / ROUNDS as f64);
    out.set("bandit.update_ns", update_s * 1e9 / updates as f64);

    // Trimmed mean over one cohort's proxy updates.
    let aggregator = AggregatorKind::TrimmedMean { trim: 1 }.build();
    let mut draws = fedsched::faults::DrawStream::new(ctx.seed ^ 0xA66);
    let updates: Vec<(Vec<f32>, usize)> = (0..fleet::COHORT)
        .map(|i| ((0..8).map(|_| draws.next_u01() as f32).collect(), 100 + i))
        .collect();
    out.set(
        "robust.aggregate_us",
        time_median(501, || aggregator.aggregate(&updates)) * 1e6,
    );
}

fn data_nn_parallel(ctx: &Ctx, out: &mut Outcome) {
    let kind = DatasetKind::MnistLike;
    let start = Instant::now();
    let (train, test) = Dataset::generate_split(kind, noniid::N_TRAIN, noniid::N_TEST, ctx.seed);
    out.set("data.generate_ms", start.elapsed().as_secs_f64() * 1000.0);
    let scenario = Scenario::s3();
    out.set(
        "data.partition_ms",
        time_median(5, || scenario.partition(&train, ctx.seed)) * 1000.0,
    );

    let mut net = ModelKind::LeNet.build(kind.dims(), ctx.seed);
    let batches: Vec<(Vec<f32>, Vec<usize>)> = (0..40)
        .map(|b| train.batch(&(b * 20..b * 20 + 20).collect::<Vec<_>>()))
        .collect();
    let mut next = batches.iter().cycle();
    out.set(
        "nn.train_batch_ms",
        time_median(40, || {
            let (x, y) = next.next().expect("cycle never ends");
            net.train_batch(x, y)
        }) * 1000.0,
    );
    let (x, y) = test.batch(&(0..1000).collect::<Vec<_>>());
    out.set(
        "nn.eval_ms_per_1k",
        time_median(3, || net.accuracy(&x, &y)) * 1000.0,
    );

    out.set(
        "parallel.map_overhead_us",
        time_median(1001, || parallel_map(2, 2, |i| i)) * 1e6,
    );
}

/// Count transfer retries per round in a short telemetry-attached replay
/// of the fleet workload.
fn fleet_retries(ctx: &Ctx, out: &mut Outcome) {
    const ROUNDS: usize = 2;
    let log = Arc::new(EventLog::new());
    let built = fleet::spec(ctx.seed).build(Probe::attached(log.clone()));
    out.op(built.is_ok());
    if let Ok(mut sim) = built {
        let schedule = fleet::schedule();
        for _ in 0..ROUNDS {
            sim.step(&schedule);
        }
    }
    let retries = log
        .events()
        .iter()
        .filter(|e| e.kind() == "transfer_retry")
        .count();
    out.set("net.retries_per_round", retries as f64 / ROUNDS as f64);
}

/// The serve layer in process: supervisor calls on the serve_mixed job
/// mix, and its store. `http_p50_ms` holds serve_mixed's client-side p50
/// per request class, which the in-process p50s are subtracted from.
fn serve_layer(ctx: &Ctx, out: &mut Outcome, http_p50_ms: Option<[f64; 4]>) {
    const JOBS: usize = 12;
    let requests: Vec<_> = (0..JOBS).map(|i| serve::job_request(ctx.seed, i)).collect();
    // On disk like the server binary's `--state-dir`, so the HTTP overhead
    // below excludes the store's writes.
    let Ok(store) = DirStore::open(ctx.tmp.join("supervisor-probe")) else {
        out.check("probe: supervisor store opens", false);
        return;
    };
    let sup = Supervisor::new(Arc::new(store));
    // In-process latency (ms) per call: create, advance, telemetry, info,
    // snapshot and delete.
    let mut lat: [Vec<f64>; 6] = Default::default();
    let mut all_ok = true;
    let mut call = |i: usize, f: &mut dyn FnMut() -> bool| {
        let start = Instant::now();
        all_ok &= f();
        lat[i].push(start.elapsed().as_secs_f64() * 1000.0);
    };
    for request in &requests {
        let mut id = None;
        call(0, &mut || {
            id = sup
                .create_job(request.clone())
                .ok()
                .map(|(info, _)| info.job_id);
            id.is_some()
        });
        let Some(id) = id else { continue };
        let mut events = 0;
        for round in 1..=serve::JOB_ROUNDS {
            call(1, &mut || sup.advance(&id, 1).is_ok());
            if round % 4 == 0 {
                call(2, &mut || {
                    let tail = sup.telemetry(&id, events);
                    events += tail.as_ref().map_or(0, |t| t.lines().count());
                    tail.is_ok()
                });
            }
        }
        call(3, &mut || sup.info(&id).is_ok());
        call(4, &mut || sup.snapshot(&id).is_ok());
        call(5, &mut || sup.delete(&id).is_ok());
    }
    out.check("probe: in-process supervisor serves the job mix", all_ok);
    out.set("serve.supervisor.create_us", median(&lat[0]) * 1000.0);
    out.set("serve.supervisor.advance_us", median(&lat[1]) * 1000.0);
    out.set("serve.supervisor.telemetry_us", median(&lat[2]) * 1000.0);
    let in_process = [
        median(&lat[0]),
        median(&lat[1]),
        median(&[&lat[2][..], &lat[3][..]].concat()),
        median(&[&lat[4][..], &lat[5][..]].concat()),
    ];

    if let Some(http) = http_p50_ms {
        for (c, name) in HTTP_OVERHEAD.into_iter().enumerate() {
            out.set(name, (http[c] - in_process[c]) * 1000.0);
        }
    }

    // The snapshot store, on disk inside the checkout.
    let Ok(store) = DirStore::open(ctx.tmp.join("store-probe")) else {
        out.check("probe: snapshot store opens", false);
        return;
    };
    let doc = requests[0].canonical_json();
    let ids: Vec<String> = (0..200).map(|i| format!("j{i:016x}")).collect();
    let per_op = |f: &dyn Fn(&str) -> bool| {
        let start = Instant::now();
        let ok = ids.iter().all(|id| f(id));
        (ok, start.elapsed().as_secs_f64() * 1e6 / ids.len() as f64)
    };
    let (put_ok, put_us) = per_op(&|id| store.put(id, &doc).is_ok());
    let (get_ok, get_us) = per_op(&|id| matches!(store.get(id), Ok(Some(d)) if d == doc));
    let (del_ok, del_us) = per_op(&|id| store.delete(id).is_ok());
    out.check(
        "probe: snapshot store round-trips",
        put_ok && get_ok && del_ok,
    );
    out.set("serve.store.put_us", put_us);
    out.set("serve.store.get_us", get_us);
    out.set("serve.store.delete_us", del_us);

    // JSONL encoding of one job's telemetry.
    let log = Arc::new(EventLog::new());
    if let Ok(mut sim) = requests[1].spec.build(Probe::attached(log.clone())) {
        for _ in 0..serve::JOB_ROUNDS {
            sim.step(&requests[1].schedule);
        }
    }
    let bytes = log.to_jsonl().len() as f64;
    out.set(
        "telemetry.jsonl_encode_mb_s",
        bytes / 1e6 / time_median(21, || log.to_jsonl()),
    );
}

const HTTP_OVERHEAD: [&str; 4] = [
    "serve.http.overhead_us.submit",
    "serve.http.overhead_us.advance",
    "serve.http.overhead_us.read",
    "serve.http.overhead_us.write",
];

/// Metrics of serve_mixed's HTTP client and server process.
const HTTP_CLIENT: [&str; 12] = [
    "jobs_per_s",
    "serve.advances_per_wall_s",
    "submit_p50_ms",
    "submit_p90_ms",
    "advance_p50_ms",
    "advance_p99_ms",
    "read_p50_ms",
    "read_p99_ms",
    "write_p50_ms",
    "write_p90_ms",
    "serve.threads_peak",
    "serve.requests_failed",
];

/// Run every probe. `plain` is the workload's untraced pass; serve_mixed
/// hands its client-side p50s to the HTTP overhead metrics.
pub fn run(ctx: &Ctx, workload: &str, plain: &Outcome) -> Outcome {
    let mut out = Outcome::default();
    core(ctx, &mut out);
    json_and_spec(ctx, &mut out);
    device_and_faults(ctx, &mut out);
    bandit_and_robust(ctx, &mut out);
    data_nn_parallel(ctx, &mut out);
    if workload == "fleet_chaos" {
        fleet_retries(ctx, &mut out);
    } else {
        // The other simulator workloads configure no lossy link.
        out.set("net.retries_per_round", 0.0);
    }
    let http = (workload == "serve_mixed").then(|| {
        [
            "submit_p50_ms",
            "advance_p50_ms",
            "read_p50_ms",
            "write_p50_ms",
        ]
        .map(|m| plain.get(m).unwrap_or(f64::NAN))
    });
    serve_layer(ctx, &mut out, http);
    if workload != "serve_mixed" {
        let why = "only serve_mixed drives the HTTP server";
        for name in HTTP_CLIENT.into_iter().chain(HTTP_OVERHEAD) {
            out.absent(name, why);
        }
    }
    if workload != "noniid_train" {
        let why = "only noniid_train trains a model with FedAvg";
        out.absent("final_accuracy", why);
        out.absent("fl.fedavg.round_ms", why);
    }
    out
}
