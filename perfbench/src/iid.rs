//! `iid_resched`: the paper's IID algorithm at 10x its largest testbed.
//!
//! 100 devices (Table I models cycled) train 6,000 shards of 100 samples
//! every round. Offline profiles become the online profilers' priors and
//! the initial Fed-LBAP plan; the event engine then rebuilds the cost
//! matrix and re-plans with Fed-LBAP from online profiles after every
//! round.

use fedsched::core::{CostMatrix, ExactMinMax, FedLbap, Schedule, Scheduler};
use fedsched::device::{DeviceModel, Testbed, TrainingWorkload};
use fedsched::fl::{EventRoundSim, RoundConfig, RoundOutcome, SimBuilder};
use fedsched::net::{model_transfer_bytes, Link};
use fedsched::profiler::{CostProfile, LinearProfile, ModelArch, TabulatedProfile};

use crate::stats::Timing;
use crate::{episode_timings, episodes, timed, Ctx, Outcome};

pub const DEVICES: usize = 100;
pub const SHARDS: usize = 6_000;
pub const SHARD: f64 = 100.0;
/// Rounds per episode, in one `run` call: a re-plan carries over to the
/// next round only within one call.
pub const ROUNDS: usize = 20;
/// The small instance checked against the exact DP.
const SMALL_DEVICES: usize = 8;
const SMALL_SHARDS: usize = 40;

/// Table I models cycled to `n` devices.
pub fn cycled_models(n: usize) -> Vec<DeviceModel> {
    DeviceModel::all().into_iter().cycle().take(n).collect()
}

/// Linear priors fitted to tabulated profiles around the per-device load.
pub fn linear_priors(profiles: &[TabulatedProfile], per_device: f64) -> Vec<LinearProfile> {
    let (lo, hi) = (per_device * 0.4, per_device * 1.6);
    profiles
        .iter()
        .map(|p| {
            let slope = (p.time_for(hi) - p.time_for(lo)) / (hi - lo);
            LinearProfile::new(p.time_for(lo) - slope * lo, slope)
        })
        .collect()
}

/// Per-device round-trip transfer time of the LeNet model over campus WiFi.
pub fn comm(n: usize) -> Vec<f64> {
    let link = Link::wifi_campus();
    vec![link.round_seconds(model_transfer_bytes(&ModelArch::lenet())); n]
}

/// Makespan of `schedule` under `costs`.
fn makespan(costs: &CostMatrix, schedule: &Schedule) -> f64 {
    schedule
        .shards
        .iter()
        .enumerate()
        .map(|(j, &k)| costs.cost(j, k))
        .fold(0.0, f64::max)
}

struct Ready {
    sim: EventRoundSim,
    schedule: Schedule,
}

fn setup(ctx: &Ctx, out: &mut Outcome) -> Ready {
    let t = &ctx.tracer;
    let wl = TrainingWorkload::lenet();
    let testbed = Testbed::new(&cycled_models(DEVICES), ctx.seed);
    let profiles = t.span("profiler.offline", || testbed.profiles_for(&wl));
    let priors = linear_priors(&profiles, SHARDS as f64 * SHARD / DEVICES as f64);
    let costs = t.span("core.cost_matrix.build", || {
        CostMatrix::from_profiles(&profiles, SHARDS, SHARD, &comm(DEVICES))
    });
    let plan = t.span("core.lbap.schedule", || FedLbap.schedule(&costs));
    out.op(plan.is_ok());
    let schedule = plan.unwrap_or_else(|_| Schedule::new(vec![SHARDS / DEVICES; DEVICES], SHARD));
    let link = Link::wifi_campus();
    let bytes = model_transfer_bytes(&ModelArch::lenet());
    let sim = t
        .span("fl.build", || {
            SimBuilder::new(
                testbed.devices().to_vec(),
                RoundConfig::new(wl, link, bytes, ctx.seed),
            )
            .priors(priors)
            .rescheduler(Box::new(FedLbap), 1)
            .build_event_sim()
        })
        .expect("rescheduling event sim config is valid");
    Ready { sim, schedule }
}

/// Fed-LBAP against the exact DP on a small instance drawn from the seed.
fn lbap_matches_exact(seed: u64) -> bool {
    let testbed = Testbed::new(&cycled_models(SMALL_DEVICES), seed);
    let profiles = testbed.profiles_for(&TrainingWorkload::lenet());
    let costs = CostMatrix::from_profiles(&profiles, SMALL_SHARDS, SHARD, &comm(SMALL_DEVICES));
    match (FedLbap.schedule(&costs), ExactMinMax.schedule(&costs)) {
        (Ok(a), Ok(b)) => makespan(&costs, &a) == makespan(&costs, &b),
        _ => false,
    }
}

/// One episode's measurements.
struct Episode {
    setup: Timing,
    run: Timing,
    outcomes: Vec<RoundOutcome>,
    sim_makespan_s: f64,
    digest: u64,
}

fn episode(ctx: &Ctx, out: &mut Outcome) -> Episode {
    let t = &ctx.tracer;
    let (ready, setup) = timed(|| t.span("setup", || setup(ctx, out)));
    let Ready { mut sim, schedule } = ready;
    let (report, run) = timed(|| t.span("fl.event_sim.run", || sim.run(&schedule, ROUNDS)));
    out.op(report.rounds.len() == ROUNDS);
    out.check(
        "iid: every round conserves total shards",
        report.rounds.iter().all(|o| {
            o.scheduled == SHARDS && o.completed + o.rescued + o.lost_shards == o.scheduled
        }),
    );
    Episode {
        setup,
        run,
        sim_makespan_s: report.timing.per_round_makespan.iter().sum(),
        digest: fedsched::core::json::fnv1a64(format!("{report:?}").as_bytes()),
        outcomes: report.rounds,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    out.check(
        "iid: Fed-LBAP makespan equals the exact DP optimum",
        lbap_matches_exact(ctx.seed),
    );
    let (eps, peak_rss_mb) = episodes(ctx, || episode(ctx, &mut out));
    let setups: Vec<Timing> = eps.iter().map(|e| e.setup).collect();
    let runs: Vec<Timing> = eps.iter().map(|e| e.run).collect();
    let round_ms: Vec<f64> = runs
        .iter()
        .map(|r| r.wall * 1000.0 / ROUNDS as f64)
        .collect();
    let outcomes = &eps[0].outcomes;
    let coverage = outcomes.iter().map(|o| o.coverage).sum::<f64>() / ROUNDS as f64;
    out.check("iid: coverage in [0, 1]", (0.0..=1.0).contains(&coverage));

    out.same_digests("iid", &eps.iter().map(|e| e.digest).collect::<Vec<_>>());
    episode_timings(&mut out, &setups, &runs, ROUNDS);
    out.set("peak_rss_mb", peak_rss_mb);
    out.set("sim_makespan_s", eps[0].sim_makespan_s);
    out.set("sim_coverage", coverage);
    let t = &ctx.tracer;
    out.from_spans(t, "fl.build_ms", "fl.build", 1.0);
    out.from_spans(
        t,
        "core.cost_matrix.build_ms",
        "core.cost_matrix.build",
        1.0,
    );
    out.from_spans(t, "core.lbap.solve_ms", "core.lbap.schedule", 1.0);
    let per_device = 1.0 / DEVICES as f64;
    out.from_spans(
        t,
        "profiler.offline_ms_per_device",
        "profiler.offline",
        per_device,
    );
    out.percentile("fl.step_ms.p50", &round_ms, 0.5);
    out.percentile("fl.step_ms.p99", &round_ms, 0.99);
    let per_round = |f: fn(&RoundOutcome) -> usize| {
        outcomes.iter().map(f).sum::<usize>() as f64 / ROUNDS as f64
    };
    out.set("fl.report.shards_lost", per_round(|o| o.lost_shards));
    out.set("fl.report.rescues", per_round(|o| o.rescued));
    out.set("telemetry.events_per_round", 0.0);
    out
}
