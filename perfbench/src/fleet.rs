//! `fleet_chaos`: a sparse, population-bound fleet under every fault layer.
//!
//! `JobSpec` text for a hierarchical 100k-device fleet (testbed 3
//! replicated 10,000 times) is parsed and built, then stepped one global
//! round at a time with `BuiltSim::step`. 1,000 evenly spread devices hold
//! 5 shards each, so 1% of the fleet is active. Crashes, transfer loss,
//! performance drift, symmetric churn, sign-flip attackers behind a
//! trimmed mean and UCB1 selection are all on.

use fedsched::core::json::fnv1a64;
use fedsched::core::Schedule;
use fedsched::device::TrainingWorkload;
use fedsched::faults::{ChurnConfig, DriftConfig, FaultConfig};
use fedsched::fl::{
    AdversaryConfig, AggregatorKind, AttackKind, BuildTarget, DeviceSetSpec, EngineKind, JobSpec,
    PolicyKind, SelectionConfig,
};
use fedsched::net::{model_transfer_bytes, Link};
use fedsched::profiler::ModelArch;
use fedsched::telemetry::Probe;

use crate::stats::Timing;
use crate::{episode_timings, episodes, timed, Ctx, Outcome};

pub const COPIES: usize = 10_000;
pub const DEVICES: usize = 10 * COPIES;
/// Every `STRIDE`-th device holds `SHARDS_EACH` shards.
const STRIDE: usize = 100;
const SHARDS_EACH: usize = 5;
const SHARD: f64 = 100.0;
pub const COHORT: usize = 64;
/// Rounds per episode; the fault and adversary plans cover exactly these.
pub const ROUNDS: usize = 30;
/// Set-ups timed back to back at the start of each episode, each building
/// the 100k fleet after the previous one was dropped. Those of the first
/// episode are a warm-up and not counted: until the process has stepped a
/// fleet, a build takes about twice as long (0.15-0.19 s against 0.08 s),
/// by an amount that varies from process to process.
const SETUPS_PER_EPISODE: usize = 6;

/// The fault model of the workload.
pub fn fault_config() -> FaultConfig {
    FaultConfig::none()
        .with_crash_prob(0.05)
        .with_loss_prob(0.05)
        .with_drift(DriftConfig::new(0.2, 6.0))
}

/// The workload's job spec for `seed`.
pub fn spec(seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(
        BuildTarget::Hier,
        DeviceSetSpec::Replicated {
            preset: 3,
            copies: COPIES,
            seed,
        },
        TrainingWorkload::lenet(),
        Link::wifi_campus(),
        model_transfer_bytes(&ModelArch::lenet()),
        seed,
    );
    spec.faults = Some((fault_config(), ROUNDS));
    spec.churn = Some(ChurnConfig::symmetric(0.01, 60.0));
    spec.adversary = Some((
        AdversaryConfig::none().with_attackers(0.1, AttackKind::SignFlip),
        ROUNDS,
    ));
    spec.aggregator = Some(AggregatorKind::TrimmedMean { trim: 1 });
    spec.selection = Some(SelectionConfig::new(PolicyKind::Ucb1 { c: 1.0 }, 8));
    spec.engine_kind = Some(EngineKind::EventDriven);
    spec.cohort_size = Some(COHORT);
    spec.threads = Some(2);
    spec
}

pub fn schedule() -> Schedule {
    let shards = (0..DEVICES)
        .map(|i| if i % STRIDE == 0 { SHARDS_EACH } else { 0 })
        .collect();
    Schedule::new(shards, SHARD)
}

/// Integer field `name: N` of the first `RoundOutcome` in a round report's
/// `Debug` rendering.
fn outcome_field(detail: &str, name: &str) -> Option<usize> {
    let block = &detail[detail.find("RoundOutcome {")?..];
    let block = &block[..block.find('}')?];
    let at = block.find(&format!(" {name}: "))? + name.len() + 3;
    block[at..]
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// `(credited, scheduled, lost, rescued)` shards of one round, from its
/// report.
pub fn round_shards(detail: &str) -> Option<(usize, usize, usize, usize)> {
    let f = |name| outcome_field(detail, name);
    Some((
        f("completed")? + f("rescued")? + f("admit_done")?,
        f("scheduled")? + f("admitted")?,
        f("lost_shards")?,
        f("rescued")?,
    ))
}

/// One episode's measurements.
struct Episode {
    run: Timing,
    steps: Vec<Timing>,
    /// Per round: `(credited, scheduled, lost, rescued)` shards.
    shards: Vec<(usize, usize, usize, usize)>,
    sim_makespan_s: f64,
    digest: u64,
}

/// Parse and build the fleet `SETUPS_PER_EPISODE` times, timing each.
fn setups(out: &mut Outcome, text: &str, setups: &mut Vec<Timing>) {
    for _ in 0..SETUPS_PER_EPISODE {
        let (built, setup) =
            timed(|| JobSpec::parse(text).and_then(|s| s.build(Probe::disabled())));
        out.op(built.is_ok());
        setups.push(setup);
    }
}

fn episode(ctx: &Ctx, out: &mut Outcome, text: &str, schedule: &Schedule) -> Option<Episode> {
    let t = &ctx.tracer;
    let built = t.span("setup", || {
        let spec = t.span("fl.spec.parse", || JobSpec::parse(text))?;
        t.span("fl.build", || spec.build(Probe::disabled()))
    });
    out.op(built.is_ok());
    let mut sim = built.ok()?;
    let mut steps = Vec::with_capacity(ROUNDS);
    let mut shards = Vec::with_capacity(ROUNDS);
    let mut makespans = Vec::with_capacity(ROUNDS);
    let mut digests = Vec::with_capacity(ROUNDS);
    let ((), run) = timed(|| {
        for _ in 0..ROUNDS {
            let (digest, step) = timed(|| t.span("fl.step", || sim.step(schedule)));
            steps.push(step);
            let counted = round_shards(&digest.detail);
            out.op(counted.is_some() && digest.makespan_s.is_finite());
            shards.push(counted.unwrap_or_default());
            makespans.push(digest.makespan_s);
            digests.push(fnv1a64(digest.detail.as_bytes()));
        }
    });
    t.span("fl.drop", || drop(sim));
    out.check(
        "fleet: every round's coverage is in [0, 1]",
        shards.iter().all(|r| r.1 > 0 && r.0 <= r.1),
    );
    Some(Episode {
        run,
        steps,
        shards,
        sim_makespan_s: makespans.iter().sum(),
        digest: fnv1a64(format!("{digests:?}").as_bytes()),
    })
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let text = spec(ctx.seed).canonical_json();
    let schedule = schedule();
    let mut setup_times = Vec::new();
    let (eps, peak_rss_mb) = episodes(ctx, || {
        setups(&mut out, &text, &mut setup_times);
        episode(ctx, &mut out, &text, &schedule)
    });
    let eps: Vec<Episode> = eps.into_iter().flatten().collect();
    if eps.is_empty() {
        out.check("fleet: spec builds", false);
        return out;
    }
    let runs: Vec<Timing> = eps.iter().map(|e| e.run).collect();
    let step_ms: Vec<f64> = eps
        .iter()
        .flat_map(|e| e.steps.iter().map(|s| s.wall * 1000.0))
        .collect();
    let shards = &eps[0].shards;
    let (credited, scheduled) = shards.iter().fold((0, 0), |(c, s), r| (c + r.0, s + r.1));

    out.same_digests("fleet", &eps.iter().map(|e| e.digest).collect::<Vec<_>>());
    episode_timings(&mut out, &setup_times[SETUPS_PER_EPISODE..], &runs, ROUNDS);
    out.set("peak_rss_mb", peak_rss_mb);
    out.set("sim_makespan_s", eps[0].sim_makespan_s);
    out.set("sim_coverage", credited as f64 / scheduled as f64);
    out.from_spans(&ctx.tracer, "fl.spec.parse_us", "fl.spec.parse", 1000.0);
    out.from_spans(&ctx.tracer, "fl.build_ms", "fl.build", 1.0);
    out.percentile("fl.step_ms.p50", &step_ms, 0.5);
    out.percentile("fl.step_ms.p99", &step_ms, 0.99);
    let per_round = |f: fn(&(usize, usize, usize, usize)) -> usize| {
        shards.iter().map(f).sum::<usize>() as f64 / ROUNDS as f64
    };
    out.set("fl.report.shards_lost", per_round(|r| r.2));
    out.set("fl.report.rescues", per_round(|r| r.3));
    out.set("telemetry.events_per_round", 0.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_first_outcome() {
        let detail = "HierReport { timing: TimingReport { x: 1 }, rounds: [RoundOutcome { \
                      round: 3, scheduled: 50, completed: 40, rescued: 5, lost_shards: 5, \
                      admitted: 2, admit_done: 1, carried: 1, coverage: 0.8 }, RoundOutcome { \
                      round: 4, scheduled: 9 }] }";
        assert_eq!(round_shards(detail), Some((46, 52, 5, 5)));
        assert_eq!(round_shards("no outcome here"), None);
    }
}
