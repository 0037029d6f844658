//! `serve_mixed`: the `fedsched-serve` binary under whole job lifecycles.
//!
//! The production server runs as a child process with its state directory
//! inside the checkout. One client process keeps two closed-loop
//! connections busy; each runs job after job: `POST /jobs`, 16 advances of
//! one round with a telemetry tail (`GET ..?from=`) after every fourth,
//! `GET /jobs/{id}`, `POST ../snapshot` and `DELETE`. Jobs cycle through a
//! resilient sim with crashes on testbed 1, an event sim with loss and
//! churn on testbed 2 and the parallel engine on testbed 3, at 5 shards
//! per device. After the timed phase every job is replayed in process
//! with `JobSpec::build` and `step`; its makespans and telemetry bytes
//! must equal what the server returned.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fedsched::core::json::{fnv1a64, JsonValue};
use fedsched::core::Schedule;
use fedsched::device::TrainingWorkload;
use fedsched::faults::{ChurnConfig, FaultConfig};
use fedsched::fl::{BuildTarget, DeviceSetSpec, JobSpec};
use fedsched::net::{model_transfer_bytes, Link};
use fedsched::profiler::ModelArch;
use fedsched::serve::JobRequest;
use fedsched::telemetry::{EventLog, Probe};

use crate::http::request;
use crate::stats::{self, cpu_seconds, host_cores, median, proc_status, quiet_median};
use crate::trace::Tracer;
use crate::{fleet, timed, Ctx, Outcome};

/// Rounds per job, each advanced by its own request.
pub const JOB_ROUNDS: usize = 16;
/// A telemetry tail follows every `TELEMETRY_EVERY`-th advance.
const TELEMETRY_EVERY: usize = 4;
const SHARDS_PER_DEVICE: usize = 5;
const CONNECTIONS: usize = 2;
/// Server start-ups per run; the median is `setup_s`. A start-up takes
/// about 2 ms, so many are cheap and steady the median.
const SETUP_REPS: usize = 101;
/// The first jobs, which every run completes: the simulated metrics
/// cover exactly these.
pub const FIXED_JOBS: usize = 30;
/// Job requests generated before the timed phase; a run stops early if it
/// uses them all.
const MAX_JOBS: usize = 4_000;

/// Job `index` of the mix for `seed`.
pub fn job_request(seed: u64, index: usize) -> JobRequest {
    let job_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index as u64;
    let (target, preset) = match index % 3 {
        0 => (BuildTarget::Resilient, 1),
        1 => (BuildTarget::EventSim, 2),
        _ => (BuildTarget::Engine, 3),
    };
    let mut spec = JobSpec::new(
        target,
        DeviceSetSpec::Testbed {
            preset,
            seed: job_seed,
        },
        TrainingWorkload::lenet(),
        Link::wifi_campus(),
        model_transfer_bytes(&ModelArch::lenet()),
        job_seed,
    );
    match target {
        BuildTarget::Resilient => {
            spec.faults = Some((FaultConfig::none().with_crash_prob(0.1), JOB_ROUNDS));
        }
        BuildTarget::EventSim => {
            spec.faults = Some((FaultConfig::none().with_loss_prob(0.05), JOB_ROUNDS));
            spec.churn = Some(ChurnConfig::symmetric(0.01, 60.0));
        }
        _ => {
            spec.cohort_size = Some(5);
            spec.threads = Some(2);
        }
    }
    let n = spec.devices.n_devices().expect("presets 1..=3 are valid");
    JobRequest {
        spec,
        schedule: Schedule::new(vec![SHARDS_PER_DEVICE; n], 100.0),
        rounds_total: JOB_ROUNDS,
    }
}

/// What the client saw of one finished job.
#[derive(Debug, Clone)]
pub struct JobSeen {
    pub index: usize,
    pub makespans: Vec<f64>,
    pub telemetry_hash: u64,
    pub telemetry_events: usize,
}

/// Client-side results of driving a server.
#[derive(Default)]
pub struct ClientStats {
    /// Latency samples in ms per class: submit, advance, read, write.
    pub latency_ms: [Vec<f64>; 4],
    pub jobs: Vec<JobSeen>,
    /// Each advance: seconds from the start of the drive at which it
    /// completed, and its latency in ms.
    pub advances: Vec<(f64, f64)>,
    /// Seconds from the start of the drive at which each job completed.
    pub job_done_s: Vec<f64>,
    /// Host steal share in each whole one-second window of the drive.
    pub window_steal: Vec<f64>,
    /// CPU seconds the server used in each whole one-second window.
    pub window_server_cpu: Vec<f64>,
    pub requests: u64,
    pub failed: u64,
    pub wall_s: f64,
}

impl ClientStats {
    /// The quiet windows among the drive's whole one-second windows, picked
    /// by host steal alone (see [`stats::quiet_units`]), or `None` when the
    /// drive was shorter than three windows.
    fn quiet_windows(&self) -> Option<Vec<usize>> {
        (self.window_steal.len() >= 3).then(|| stats::quiet_units(&self.window_steal))
    }

    /// Completions per second of `done_s`: the median count over the
    /// quiet windows, or the plain average over a short drive.
    fn rate(&self, done_s: impl Iterator<Item = f64>, quiet: Option<&[usize]>) -> f64 {
        match quiet {
            Some(quiet) => {
                let counts = window_counts(done_s, self.window_steal.len());
                median(&quiet.iter().map(|&w| counts[w]).collect::<Vec<_>>())
            }
            None => done_s.count() as f64 / self.wall_s,
        }
    }

    /// Completions of `done_s` per second of server CPU time: the median
    /// over the quiet windows in which the server ran, or the whole
    /// drive's ratio over a short drive. `server_cpu` is the server's CPU
    /// seconds over the whole drive.
    fn cpu_rate(
        &self,
        done_s: impl Iterator<Item = f64>,
        quiet: Option<&[usize]>,
        server_cpu: f64,
    ) -> f64 {
        match quiet {
            Some(quiet) => {
                let counts = window_counts(done_s, self.window_steal.len());
                let rates: Vec<f64> = quiet
                    .iter()
                    .filter(|&&w| self.window_server_cpu[w] > 0.0)
                    .map(|&w| counts[w] / self.window_server_cpu[w])
                    .collect();
                median(&rates)
            }
            None => done_s.count() as f64 / server_cpu,
        }
    }
}

/// Completions per whole one-second window.
fn window_counts(done_s: impl Iterator<Item = f64>, windows: usize) -> Vec<f64> {
    let mut counts = vec![0.0; windows];
    for t in done_s {
        if let Some(c) = counts.get_mut(t as usize) {
            *c += 1.0;
        }
    }
    counts
}

/// One client connection's view of the server.
struct Client<'a> {
    addr: SocketAddr,
    tracer: &'a Tracer,
    /// When the drive started; completion times are relative to it.
    t0: Instant,
    stats: &'a mut ClientStats,
}

impl Client<'_> {
    /// One request of latency class `class` (0 submit, 1 advance, 2 read,
    /// 3 write); non-2xx replies and transport errors count as failures.
    fn call(
        &mut self,
        class: usize,
        span: &'static str,
        method: &str,
        path: &str,
        body: &str,
    ) -> Option<String> {
        let start = Instant::now();
        let reply = self
            .tracer
            .span(span, || request(self.addr, method, path, body));
        self.stats.latency_ms[class].push(start.elapsed().as_secs_f64() * 1000.0);
        self.stats.requests += 1;
        match reply {
            Ok((status, body)) if (200..300).contains(&status) => Some(body),
            Ok((status, body)) => {
                eprintln!("{method} {path}: HTTP {status}: {body}");
                self.stats.failed += 1;
                None
            }
            Err(e) => {
                eprintln!("{method} {path}: {e}");
                self.stats.failed += 1;
                None
            }
        }
    }

    /// Run one whole job lifecycle; `None` if any request failed.
    fn lifecycle(&mut self, index: usize, body: &str) -> Option<JobSeen> {
        let reply = self.call(0, "serve.http.submit", "POST", "/jobs", body)?;
        let id = JsonValue::parse(&reply)
            .ok()?
            .get("job")?
            .get("job_id")?
            .as_str()
            .ok()?
            .to_string();
        let mut makespans = Vec::with_capacity(JOB_ROUNDS);
        let mut telemetry = String::new();
        let mut events = 0;
        for round in 1..=JOB_ROUNDS {
            let path = format!("/jobs/{id}/advance");
            let reply = self.call(1, "serve.http.advance", "POST", &path, "")?;
            let reply = JsonValue::parse(&reply).ok()?;
            makespans.push(reply.get("last_makespan_s")?.as_f64().ok()?);
            let latency = self.stats.latency_ms[1].last().copied().unwrap_or(f64::NAN);
            self.stats
                .advances
                .push((self.t0.elapsed().as_secs_f64(), latency));
            if round % TELEMETRY_EVERY == 0 {
                let path = format!("/jobs/{id}/telemetry?from={events}");
                let tail = self.call(2, "serve.http.telemetry", "GET", &path, "")?;
                events += tail.lines().count();
                telemetry.push_str(&tail);
            }
        }
        let info = self.call(2, "serve.http.info", "GET", &format!("/jobs/{id}"), "")?;
        let done = JsonValue::parse(&info)
            .ok()?
            .get("completed_rounds")?
            .as_usize()
            .ok()?;
        let path = format!("/jobs/{id}/snapshot");
        self.call(3, "serve.http.snapshot", "POST", &path, "")?;
        self.call(3, "serve.http.delete", "DELETE", &format!("/jobs/{id}"), "")?;
        self.stats.job_done_s.push(self.t0.elapsed().as_secs_f64());
        (done == JOB_ROUNDS).then(|| JobSeen {
            index,
            makespans,
            telemetry_hash: fnv1a64(telemetry.as_bytes()),
            telemetry_events: events,
        })
    }
}

/// Drive the server at `addr` (process `server_pid`) with `connections`
/// closed-loop clients taking jobs from `bodies` in order, until `seconds`
/// have passed (and at least `min_jobs` were started) or the bodies run
/// out.
fn drive(
    addr: SocketAddr,
    server_pid: &str,
    bodies: &[String],
    connections: usize,
    seconds: f64,
    min_jobs: usize,
    tracer: &Tracer,
) -> ClientStats {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let merged = Mutex::new(ClientStats::default());
    let finished = AtomicBool::new(false);
    let marks = std::thread::scope(|scope| {
        // Host steal and server CPU time at every whole second of the drive.
        let sampler = scope.spawn(|| {
            let mark = || (stats::host_steal_seconds(), cpu_seconds(server_pid));
            let mut marks = vec![mark()];
            while !finished.load(Ordering::Relaxed) {
                let next_mark = start + Duration::from_secs(marks.len() as u64);
                match next_mark.checked_duration_since(Instant::now()) {
                    Some(wait) => std::thread::sleep(wait.min(Duration::from_millis(50))),
                    None => marks.push(mark()),
                }
            }
            marks
        });
        let clients: Vec<_> = (0..connections)
            .map(|_| {
                scope.spawn(|| {
                    let mut stats = ClientStats::default();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= bodies.len()
                            || (index >= min_jobs && start.elapsed().as_secs_f64() >= seconds)
                        {
                            break;
                        }
                        let mut client = Client {
                            addr,
                            tracer,
                            t0: start,
                            stats: &mut stats,
                        };
                        let body = &bodies[index];
                        if let Some(seen) =
                            tracer.span("serve.job", || client.lifecycle(index, body))
                        {
                            stats.jobs.push(seen);
                        }
                    }
                    let mut all = merged.lock().expect("client merge lock");
                    for (a, b) in all.latency_ms.iter_mut().zip(stats.latency_ms) {
                        a.extend(b);
                    }
                    all.jobs.extend(stats.jobs);
                    all.advances.extend(stats.advances);
                    all.job_done_s.extend(stats.job_done_s);
                    all.requests += stats.requests;
                    all.failed += stats.failed;
                })
            })
            .collect();
        for client in clients {
            client.join().expect("client thread");
        }
        finished.store(true, Ordering::Relaxed);
        sampler.join().expect("steal sampler thread")
    });
    let mut stats = merged.into_inner().expect("client merge lock");
    stats.wall_s = start.elapsed().as_secs_f64();
    stats.jobs.sort_by_key(|j| j.index);
    let windows = (stats.wall_s.floor() as usize).min(marks.len().saturating_sub(1));
    (stats.window_steal, stats.window_server_cpu) = marks
        .windows(2)
        .take(windows)
        .map(|w| {
            (
                (w[1].0 - w[0].0) / stats::host_cores() as f64,
                w[1].1 - w[0].1,
            )
        })
        .unzip();
    stats
}

/// A running `fedsched-serve` child, killed and reaped on drop.
struct ServerProcess {
    child: Child,
    addr: SocketAddr,
}

impl ServerProcess {
    /// Start the server and wait until `/healthz` answers 200.
    fn start(bin: &Path, state_dir: &Path) -> std::io::Result<Self> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--state-dir"])
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        BufReader::new(stdout).read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(format!("unexpected banner `{line}`")));
        };
        let server = ServerProcess { child, addr };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match request(addr, "GET", "/healthz", "") {
                Ok((200, _)) => return Ok(server),
                _ if Instant::now() > deadline => {
                    return Err(std::io::Error::other("server never became healthy"))
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Run `f` with the calling thread, and every process it starts, on one
/// CPU: the first this thread may use. Where the affinity cannot be read
/// or set, `f` runs unpinned.
fn on_one_cpu<T>(f: impl FnOnce() -> T) -> T {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: pid 0 is the calling thread, and the call writes at most
    // `size` bytes, the length of `allowed`.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return f();
    }
    let Some(word) = allowed.iter().position(|&w| w != 0) else {
        return f();
    };
    let mut one = [0u64; 16];
    one[word] = 1 << allowed[word].trailing_zeros();
    // SAFETY: the call reads `size` bytes, the length of `one`.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return f();
    }
    let result = f();
    // SAFETY: the call reads `size` bytes, the length of `allowed`.
    unsafe { sched_setaffinity(0, size, allowed.as_ptr()) };
    result
}

/// One job replayed in process.
pub struct Replay {
    pub makespans: Vec<f64>,
    pub telemetry_hash: u64,
    pub details: Vec<String>,
    pub retries: usize,
    pub build_ms: f64,
    pub step_ms: Vec<f64>,
}

/// Replay `request` in process with telemetry attached, as the server
/// does.
pub fn replay(request: &JobRequest, tracer: &Tracer) -> Option<Replay> {
    let log = Arc::new(EventLog::new());
    let (sim, build) = timed(|| {
        tracer.span("fl.build", || {
            request.spec.build(Probe::attached(log.clone()))
        })
    });
    let mut sim = sim.ok()?;
    let mut out = Replay {
        makespans: Vec::new(),
        telemetry_hash: 0,
        details: Vec::new(),
        retries: 0,
        build_ms: build.wall * 1000.0,
        step_ms: Vec::new(),
    };
    for _ in 0..request.rounds_total {
        let (digest, step) = timed(|| tracer.span("fl.step", || sim.step(&request.schedule)));
        out.step_ms.push(step.wall * 1000.0);
        out.makespans.push(digest.makespan_s);
        out.details.push(digest.detail);
    }
    let jsonl = log.to_jsonl();
    out.retries = jsonl
        .lines()
        .filter(|l| l.contains("\"transfer_retry\""))
        .count();
    out.telemetry_hash = fnv1a64(jsonl.as_bytes());
    Some(out)
}

/// Replay every seen job on `CONNECTIONS` threads, returning the replays
/// in job order.
fn replay_all(seed: u64, jobs: &[JobSeen], tracer: &Tracer) -> Vec<Option<Replay>> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Replay>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..CONNECTIONS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let r = replay(&job_request(seed, job.index), tracer);
                *slots[i].lock().expect("replay slot lock") = r;
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("replay slot lock"))
        .collect()
}

/// Peak thread count of process `pid`, sampled until `stop` is set.
fn sample_threads(pid: &str, stop: &AtomicBool) -> usize {
    let mut peak = 0.0f64;
    while !stop.load(Ordering::Relaxed) {
        peak = peak.max(proc_status(pid, "Threads").unwrap_or(0.0));
        std::thread::sleep(Duration::from_millis(5));
    }
    peak as usize
}

/// Record the client-side metrics of `stats` on `out`. Throughput and the
/// advance median come from the quiet windows; the other percentiles
/// cover every request. `server_cpu` is the server's CPU seconds over the
/// drive.
fn client_metrics(out: &mut Outcome, stats: &ClientStats, server_cpu: f64) {
    let quiet = stats.quiet_windows();
    let quiet = quiet.as_deref();
    let advanced_s = || stats.advances.iter().map(|a| a.0);
    out.set(
        "jobs_per_s",
        stats.rate(stats.job_done_s.iter().copied(), quiet),
    );
    out.set("serve.advances_per_wall_s", stats.rate(advanced_s(), quiet));
    out.set(
        "rounds_per_s",
        stats.cpu_rate(advanced_s(), quiet, server_cpu),
    );
    let advance_ms: Vec<f64> = match quiet {
        Some(quiet) => stats
            .advances
            .iter()
            .filter(|a| quiet.contains(&(a.0 as usize)))
            .map(|a| a.1)
            .collect(),
        None => stats.latency_ms[1].clone(),
    };
    out.percentile("advance_p50_ms", &advance_ms, 0.5);
    let [submit, advance, read, write] = &stats.latency_ms;
    out.percentile("submit_p50_ms", submit, 0.5);
    out.percentile("submit_p90_ms", submit, 0.9);
    out.percentile("advance_p99_ms", advance, 0.99);
    out.percentile("read_p50_ms", read, 0.5);
    out.percentile("read_p99_ms", read, 0.99);
    out.percentile("write_p50_ms", write, 0.5);
    out.percentile("write_p90_ms", write, 0.9);
    out.set("serve.requests_failed", stats.failed as f64);
    let steal: Vec<String> = stats
        .window_steal
        .iter()
        .map(|s| format!("{s:.3}"))
        .collect();
    out.note("window host steal", steal.join(" "));
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let t = &ctx.tracer;
    let bodies: Vec<String> = (0..MAX_JOBS)
        .map(|i| job_request(ctx.seed, i).canonical_json())
        .collect();
    let state_dir = ctx.tmp.join("serve-state");

    let mut setups = Vec::new();
    let mut start = || {
        let _ = std::fs::remove_dir_all(&state_dir);
        let (started, setup) = timed(|| {
            t.span("serve.spawn", || {
                ServerProcess::start(&ctx.serve_bin, &state_dir)
            })
        });
        out.op(started.is_ok());
        if let Err(e) = &started {
            eprintln!("cannot start {}: {e}", ctx.serve_bin.display());
        }
        (started.ok(), setup)
    };
    // A start-up is a chain of hand-offs between this thread and the new
    // process. Across cores, each waits for the other guests of a shared
    // host by an amount that varies from minute to minute; on one core
    // the chain is the program's own work.
    on_one_cpu(|| {
        for _ in 0..SETUP_REPS {
            if let (Some(_server), setup) = start() {
                setups.push(setup);
            }
        }
    });
    // The drive's server runs on every core.
    let Some(server) = start().0 else {
        out.check("serve: server starts", false);
        return out;
    };

    let pid = server.pid();
    let stop = AtomicBool::new(false);
    let (stats, threads_peak, server_cpu, client_cpu) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_threads(&pid, &stop));
        let (cpu_server, cpu_client) = (cpu_seconds(&pid), cpu_seconds("self"));
        let stats = drive(
            server.addr,
            &pid,
            &bodies,
            CONNECTIONS,
            ctx.seconds,
            FIXED_JOBS,
            t,
        );
        let cpu = (
            cpu_seconds(&pid) - cpu_server,
            cpu_seconds("self") - cpu_client,
        );
        stop.store(true, Ordering::Relaxed);
        (stats, sampler.join().expect("sampler thread"), cpu.0, cpu.1)
    });
    let server_rss_mb = proc_status(&pid, "VmHWM").unwrap_or(f64::NAN) / 1024.0;
    drop(server);
    let _ = std::fs::remove_dir_all(&state_dir);

    out.attempted += stats.requests;
    out.failed += stats.failed;
    out.check(
        "serve: the first jobs completed",
        stats
            .jobs
            .iter()
            .take_while(|j| j.index < FIXED_JOBS)
            .count()
            == FIXED_JOBS,
    );

    // The replay runs after the timed phase.
    let replays = t.span("serve.replay", || replay_all(ctx.seed, &stats.jobs, t));
    let mut matched = 0;
    for (seen, replay) in stats.jobs.iter().zip(&replays) {
        let same = replay.as_ref().is_some_and(|r| {
            r.telemetry_hash == seen.telemetry_hash
                && r.makespans.len() == seen.makespans.len()
                && r.makespans
                    .iter()
                    .zip(&seen.makespans)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        matched += same as usize;
        out.op(same);
    }
    out.check(
        "serve: every job's makespans and telemetry equal an in-process replay",
        matched == stats.jobs.len(),
    );

    let fixed: Vec<&Replay> = replays.iter().take(FIXED_JOBS).flatten().collect();
    let shards: Vec<(usize, usize, usize, usize)> = fixed
        .iter()
        .flat_map(|r| r.details.iter().filter_map(|d| fleet::round_shards(d)))
        .collect();
    let (credited, scheduled) = shards.iter().fold((0, 0), |(c, s), r| (c + r.0, s + r.1));
    let coverage = credited as f64 / scheduled as f64;
    out.check("serve: coverage in [0, 1]", (0.0..=1.0).contains(&coverage));
    let fixed_rounds = (FIXED_JOBS * JOB_ROUNDS) as f64;

    out.set("setup_s", quiet_median(&setups));
    client_metrics(&mut out, &stats, server_cpu);
    out.set("peak_rss_mb", server_rss_mb);
    out.set(
        "sim_makespan_s",
        stats.jobs[..FIXED_JOBS.min(stats.jobs.len())]
            .iter()
            .flat_map(|j| j.makespans.iter())
            .sum(),
    );
    out.set("sim_coverage", coverage);
    out.set(
        "parallel.cpu_util",
        (server_cpu + client_cpu) / stats.wall_s / host_cores() as f64,
    );
    out.set("serve.threads_peak", threads_peak as f64);
    let all: Vec<&Replay> = replays.iter().flatten().collect();
    out.set(
        "fl.build_ms",
        median(&all.iter().map(|r| r.build_ms).collect::<Vec<_>>()),
    );
    let steps: Vec<f64> = all.iter().flat_map(|r| r.step_ms.iter().copied()).collect();
    out.percentile("fl.step_ms.p50", &steps, 0.5);
    out.percentile("fl.step_ms.p99", &steps, 0.99);
    out.set(
        "fl.report.shards_lost",
        shards.iter().map(|r| r.2).sum::<usize>() as f64 / fixed_rounds,
    );
    out.set(
        "fl.report.rescues",
        shards.iter().map(|r| r.3).sum::<usize>() as f64 / fixed_rounds,
    );
    out.set(
        "net.retries_per_round",
        fixed.iter().map(|r| r.retries).sum::<usize>() as f64 / fixed_rounds,
    );
    let events: usize = stats.jobs.iter().map(|j| j.telemetry_events).sum();
    out.set(
        "telemetry.events_per_round",
        events as f64 / (stats.jobs.len() * JOB_ROUNDS) as f64,
    );
    let setup_walls: Vec<f64> = setups.iter().map(|u| u.wall).collect();
    out.note(
        "setup_s",
        format!(
            "quiet median of n={}; all start-ups p25 {:.6} s, p75 {:.6} s",
            setups.len(),
            stats::quantile(&setup_walls, 0.25),
            stats::quantile(&setup_walls, 0.75)
        ),
    );
    out.note(
        "rounds_per_s",
        format!(
            "advances per server CPU second, quiet median of {} one-second windows",
            stats.window_steal.len()
        ),
    );
    out.note("jobs", stats.jobs.len().to_string());
    out.note("requests", stats.requests.to_string());
    out.digest = fnv1a64(
        format!(
            "{:?}",
            stats.jobs[..FIXED_JOBS.min(stats.jobs.len())]
                .iter()
                .map(|j| (
                    j.telemetry_hash,
                    j.makespans.iter().map(|m| m.to_bits()).collect::<Vec<_>>()
                ))
                .collect::<Vec<_>>()
        )
        .as_bytes(),
    );
    out
}
