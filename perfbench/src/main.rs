//! The fedsched benchmark: four workloads through the production path.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --serve-bin <path>
//! ```
//!
//! * `noniid_train` — S(III) profiling, a Fed-MinAvg plan and real LeNet
//!   FedAvg on the class-restricted partition;
//! * `iid_resched` — 100 devices, Fed-LBAP re-planned from online profiles
//!   every round on the event engine;
//! * `fleet_chaos` — a 100k-device hierarchical fleet under crashes, loss,
//!   drift, churn, attackers and UCB1 selection, built from `JobSpec` text;
//! * `serve_mixed` — the `fedsched-serve` binary under two closed-loop
//!   client connections running whole job lifecycles.
//!
//! With `--trace 0` the last stdout line holds the end-to-end metrics. With
//! `--trace 1` the workload runs twice in one process, untraced and then
//! with spans around every call into the program, followed by the layer
//! probes; the last line then holds the per-layer metrics, including the
//! tracing overhead. Spans and run metadata go to `.bench_out/`.

mod fleet;
mod http;
mod iid;
mod noniid;
mod probes;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use trace::Tracer;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_makespan_s", "s"),
    ("sim_coverage", "ratio"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("core.cost_matrix.build_ms", "ms"),
    ("core.lbap.solve_ms", "ms"),
    ("core.lbap.exponent", "exponent"),
    ("core.exact.solve_ms", "ms"),
    ("core.minavg.solve_ms", "ms"),
    ("core.minavg.exponent", "exponent"),
    ("core.events.op_ns", "ns"),
    ("core.json.decode_mb_s", "MB/s"),
    ("core.json.encode_mb_s", "MB/s"),
    ("profiler.offline_ms_per_device", "ms"),
    ("profiler.online_observe_ns", "ns"),
    ("device.train_ns_per_sample", "ns"),
    ("device.population_build_ms", "ms"),
    ("device.bytes_per_device", "B"),
    ("faults.plan_build_ms", "ms"),
    ("faults.plan_bytes", "B"),
    ("bandit.select_us", "us"),
    ("bandit.update_ns", "ns"),
    ("robust.aggregate_us", "us"),
    ("net.retries_per_round", "count"),
    ("data.generate_ms", "ms"),
    ("data.partition_ms", "ms"),
    ("nn.train_batch_ms", "ms"),
    ("nn.eval_ms_per_1k", "ms"),
    ("parallel.cpu_util", "ratio"),
    ("parallel.map_overhead_us", "us"),
    ("fl.spec.parse_us", "us"),
    ("fl.build_ms", "ms"),
    ("fl.step_ms.p50", "ms"),
    ("fl.step_ms.p99", "ms"),
    ("fl.fedavg.round_ms", "ms"),
    ("fl.report.shards_lost", "count"),
    ("fl.report.rescues", "count"),
    ("telemetry.events_per_round", "count"),
    ("telemetry.jsonl_encode_mb_s", "MB/s"),
    ("serve.supervisor.create_us", "us"),
    ("serve.supervisor.advance_us", "us"),
    ("serve.supervisor.telemetry_us", "us"),
    ("serve.http.overhead_us.submit", "us"),
    ("serve.http.overhead_us.advance", "us"),
    ("serve.http.overhead_us.read", "us"),
    ("serve.http.overhead_us.write", "us"),
    ("serve.store.put_us", "us"),
    ("serve.store.get_us", "us"),
    ("serve.store.delete_us", "us"),
    ("serve.threads_peak", "count"),
    ("serve.requests_failed", "count"),
    ("serve.advances_per_wall_s", "1/s"),
    ("final_accuracy", "ratio"),
    ("jobs_per_s", "1/s"),
    ("submit_p50_ms", "ms"),
    ("submit_p90_ms", "ms"),
    ("advance_p50_ms", "ms"),
    ("advance_p99_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("error_ratio", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("setup_s.traced", "s"),
    ("rounds_per_s.traced", "1/s"),
    ("sim_makespan_s.traced", "s"),
    ("sim_coverage.traced", "ratio"),
];

/// What the workload functions get: the seed, the run length and the
/// tracer (off for end-to-end runs).
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    pub serve_bin: PathBuf,
    /// Scratch directory inside the checkout, removed at exit.
    pub tmp: PathBuf,
}

/// Everything one workload pass produced.
#[derive(Default)]
pub struct Outcome {
    /// Named metric values (end-to-end and workload-derived per-layer).
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations attempted and failed, output checks included.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks by name.
    pub checks: Vec<(String, bool)>,
    /// Sample counts and percentiles behind reported order statistics.
    pub notes: Vec<(String, String)>,
    /// Per-layer metrics this workload does not exercise, with the reason.
    pub absent: Vec<(&'static str, &'static str)>,
    /// Digest of the simulated outputs, equal between traced and untraced
    /// passes of one seed.
    pub digest: u64,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Record one output check; a failed check counts as a failed operation.
    /// Checks of one name repeated across episodes are listed once, and
    /// pass only if every repeat passed.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("check failed: {name}");
        }
        self.op(ok);
        match self.checks.iter_mut().find(|(n, _)| *n == name) {
            Some((_, all)) => *all &= ok,
            None => self.checks.push((name, ok)),
        }
    }

    /// Record one operation of the workload.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Check that every episode produced the same simulated outputs and
    /// keep that digest.
    pub fn same_digests(&mut self, what: &str, digests: &[u64]) {
        self.check(
            format!("{what}: every episode gives identical outputs"),
            digests.windows(2).all(|w| w[0] == w[1]),
        );
        self.digest = digests[0];
    }

    /// Set metric `name` to the median duration of the spans called
    /// `span`, in milliseconds times `scale`; untraced passes set nothing.
    pub fn from_spans(&mut self, tracer: &Tracer, name: &'static str, span: &str, scale: f64) {
        let durations = tracer.durations_ms(span);
        if !durations.is_empty() {
            self.set(name, stats::median(&durations) * scale);
        }
    }

    /// Record that this workload does not exercise metric `name`.
    pub fn absent(&mut self, name: &'static str, reason: &'static str) {
        self.absent.push((name, reason));
    }

    pub fn note(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.notes.push((key.into(), value.into()));
    }

    /// Record an order statistic of `samples` as metric `name`, noting the
    /// percentile actually used and the sample count. A tail the sample
    /// cannot support (fewer than ten samples beyond it) falls back to the
    /// highest percentile it does support.
    pub fn percentile(&mut self, name: &'static str, samples: &[f64], wanted: f64) {
        let q = if wanted <= 0.5 {
            wanted
        } else {
            stats::supported_tail(samples.len(), wanted)
        };
        self.set(name, stats::quantile(samples, q));
        self.note(name, format!("p{} of n={}", q * 100.0, samples.len()));
    }
}

/// Episodes every run completes, whatever its length.
const MIN_EPISODES: usize = 3;

/// Run `episode` until the run length is used up, and at least
/// `MIN_EPISODES` times. An episode is one set-up followed by a fixed
/// amount of work, so every episode of a seed does the same work. Returns
/// the episodes and the median of their peak resident sets in MB.
pub fn episodes<E>(ctx: &Ctx, mut episode: impl FnMut() -> E) -> (Vec<E>, f64) {
    let start = std::time::Instant::now();
    let mut done = Vec::new();
    let mut peaks = Vec::new();
    while done.len() < MIN_EPISODES || start.elapsed().as_secs_f64() < ctx.seconds {
        stats::reset_peak_rss();
        done.push(ctx.tracer.span("episode", &mut episode));
        peaks.push(stats::peak_rss_mb());
    }
    (done, stats::median(&peaks))
}

/// Record the host timings of a run of episodes: `setup_s`, and from the
/// run phases (`rounds` rounds each) `rounds_per_s` and `parallel.cpu_util`.
/// Timings are medians over the quiet units (see [`stats::quiet_median`]).
pub fn episode_timings(
    out: &mut Outcome,
    setups: &[stats::Timing],
    runs: &[stats::Timing],
    rounds: usize,
) {
    let run_s = stats::quiet_median(runs);
    out.set("setup_s", stats::quiet_median(setups));
    out.note("setup_s", format!("quiet median of n={}", setups.len()));
    let walls: Vec<String> = setups
        .iter()
        .map(|u| format!("{:.3}s@{:.3}", u.wall, u.steal))
        .collect();
    out.note("set-ups (wall @ host steal)", walls.join(" "));
    out.set("rounds_per_s", rounds as f64 / run_s);
    let (cpu, wall) = runs
        .iter()
        .fold((0.0, 0.0), |(c, w), u| (c + u.cpu, w + u.wall));
    out.set("parallel.cpu_util", cpu / wall / stats::host_cores() as f64);
    let walls: Vec<String> = runs
        .iter()
        .map(|u| format!("{:.3}s@{:.3}", u.wall, u.steal))
        .collect();
    out.note("episodes (run wall @ host steal)", walls.join(" "));
}

/// Run `f` and measure it.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, stats::Timing) {
    let (cpu, steal) = (stats::cpu_seconds("self"), stats::host_steal_seconds());
    let start = std::time::Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    let timing = stats::Timing {
        wall,
        cpu: stats::cpu_seconds("self") - cpu,
        steal: (stats::host_steal_seconds() - steal) / (wall * stats::host_cores() as f64),
    };
    (out, timing)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <noniid_train|iid_resched|fleet_chaos|serve_mixed> \
         --seed <n> --seconds <s> --trace <0|1> --serve-bin <path>"
    );
    ExitCode::from(2)
}

fn run_workload(name: &str, ctx: &Ctx) -> Option<Outcome> {
    Some(match name {
        "noniid_train" => noniid::run(ctx),
        "iid_resched" => iid::run(ctx),
        "fleet_chaos" => fleet::run(ctx),
        "serve_mixed" => serve::run(ctx),
        _ => return None,
    })
}

fn json_str(s: &str) -> String {
    fedsched::core::json::str(s).encode()
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut serve_bin = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => traced = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced), Some(serve_bin)) =
        (workload, seed, seconds, traced, serve_bin)
    else {
        return usage();
    };

    let out_dir = PathBuf::from(".bench_out");
    let tmp = out_dir.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let mut ctx = Ctx {
        seed,
        seconds,
        tracer: Tracer::off(),
        serve_bin,
        tmp: tmp.clone(),
    };

    let (started, steal0) = (std::time::Instant::now(), stats::host_steal_seconds());
    let Some(plain) = run_workload(&workload, &ctx) else {
        let _ = std::fs::remove_dir_all(&tmp);
        return usage();
    };
    let (report, catalog) = if traced {
        ctx.tracer = Tracer::on(seed);
        let traced_out = run_workload(&workload, &ctx).expect("workload name already checked");
        let span_path = out_dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
        if let Err(e) = std::fs::write(&span_path, ctx.tracer.to_jsonl()) {
            eprintln!("cannot write {}: {e}", span_path.display());
        }
        let spans = ctx.tracer.spans().len();
        ctx.tracer = Tracer::off();
        let probes = probes::run(&ctx, &workload, &plain);
        (
            layer_report(plain, traced_out, probes, spans),
            &PER_LAYER[..],
        )
    } else {
        (plain, &END_TO_END[..])
    };
    let _ = std::fs::remove_dir_all(&tmp);

    // Share of the host's CPU time the hypervisor gave to other guests
    // during the run: high values explain slow, noisy runs.
    let steal = (stats::host_steal_seconds() - steal0)
        / (started.elapsed().as_secs_f64() * stats::host_cores() as f64);
    let meta = metadata(&workload, seed, seconds, traced, steal, &report);
    println!("{meta}");
    let _ = std::fs::write(
        out_dir.join(format!(
            "meta-{workload}-seed{seed}-trace{}.json",
            traced as u8
        )),
        &meta,
    );
    println!("{}", result_line(&report, catalog));
    ExitCode::SUCCESS
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `catalog` with its unit. A metric recorded as absent is printed as 0
/// (the metadata says why); any other missing or non-finite metric makes
/// the run incorrect and is printed as `null`.
fn result_line(report: &Outcome, catalog: &[(&str, &str)]) -> String {
    let mut metrics = String::new();
    let mut complete = true;
    for (i, (name, unit)) in catalog.iter().enumerate() {
        let value = match report.get(name) {
            Some(v) => v.is_finite().then_some(v),
            None => report.absent.iter().any(|(n, _)| n == name).then_some(0.0),
        };
        complete &= value.is_some();
        let value = value.map_or("null".to_string(), |v| v.to_string());
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    let correct = complete && report.failed == 0 && report.checks.iter().all(|(_, ok)| *ok);
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.attempted.max(1),
        report.failed
    )
}

/// Merge the untraced pass, the traced pass and the probes into the
/// per-layer report.
fn layer_report(plain: Outcome, traced: Outcome, probes: Outcome, spans: usize) -> Outcome {
    let mut report = Outcome {
        attempted: plain.attempted + traced.attempted + probes.attempted,
        failed: plain.failed + traced.failed + probes.failed,
        checks: plain.checks.clone(),
        notes: traced.notes.clone(),
        absent: probes.absent,
        ..Outcome::default()
    };
    report.checks.extend(traced.checks.iter().cloned());
    report.checks.extend(probes.checks);
    report.notes.extend(probes.notes);
    report.check(
        "traced and untraced outputs identical",
        plain.digest == traced.digest,
    );

    // The probes fill in the layers the workload reaches only through
    // black-box calls; the traced pass's own numbers take precedence.
    for (name, value) in probes
        .metrics
        .into_iter()
        .chain(traced.metrics.iter().copied())
    {
        report.set(name, value);
    }
    for (suffixed, base) in [
        ("setup_s.traced", "setup_s"),
        ("rounds_per_s.traced", "rounds_per_s"),
        ("sim_makespan_s.traced", "sim_makespan_s"),
        ("sim_coverage.traced", "sim_coverage"),
    ] {
        report.set(suffixed, traced.get(base).unwrap_or(f64::NAN));
    }
    // On serve_mixed the spans run in the client, which the server's CPU
    // time does not see, so the overhead is taken from the wall-clock rate.
    let rate = |o: &Outcome| {
        o.get("serve.advances_per_wall_s")
            .or_else(|| o.get("rounds_per_s"))
    };
    let (plain_rate, traced_rate) = (rate(&plain), rate(&traced));
    let overhead = match (plain_rate, traced_rate) {
        (Some(p), Some(t)) => (p - t) / p * 100.0,
        _ => f64::NAN,
    };
    report.set("trace.overhead_pct", overhead);
    report.set("trace.spans", spans as f64);
    report.set(
        "error_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report
}

fn metadata(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    steal: f64,
    report: &Outcome,
) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let mut fields = vec![
        format!("\"workload\":{}", json_str(workload)),
        format!("\"seed\":{seed}"),
        format!("\"seconds\":{seconds}"),
        format!("\"trace\":{}", traced as u8),
        format!("\"host_cores\":{}", stats::host_cores()),
        format!("\"host_steal_share\":{steal:.4}"),
        format!("\"rustc\":{}", json_str(&env("PERFBENCH_RUSTC"))),
        format!("\"commit\":{}", json_str(&env("PERFBENCH_COMMIT"))),
        format!(
            "\"source_digest\":{}",
            json_str(&env("PERFBENCH_SOURCE_DIGEST"))
        ),
    ];
    let checks: Vec<String> = report
        .checks
        .iter()
        .map(|(name, ok)| format!("{}:{ok}", json_str(name)))
        .collect();
    fields.push(format!("\"checks\":{{{}}}", checks.join(",")));
    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    fields.push(format!("\"samples\":{{{}}}", notes.join(",")));
    let absent: Vec<String> = report
        .absent
        .iter()
        .map(|(name, why)| format!("{}:{}", json_str(name), json_str(why)))
        .collect();
    fields.push(format!("\"absent\":{{{}}}", absent.join(",")));
    format!("{{\"meta\":{{{}}}}}", fields.join(","))
}
