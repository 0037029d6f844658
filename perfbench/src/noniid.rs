//! `noniid_train`: the paper's non-IID path end to end.
//!
//! Scenario S(III) (10 devices, Table IV class sets) on MNIST-like data:
//! offline profiling, a Fed-MinAvg plan at the paper's alpha/beta, the
//! plan's simulated round times from `SimBuilder::build_sim`, then real
//! LeNet FedAvg (`FlSetup::run`) on the class-restricted partition. Each
//! episode does all of that once; every episode must end at the same
//! accuracy.

use fedsched::core::{AccuracyCost, FedMinAvg, MinAvgProblem, Schedule, UserSpec};
use fedsched::data::{Dataset, DatasetKind, Partition, Scenario};
use fedsched::device::{DeviceModel, Testbed, TrainingWorkload};
use fedsched::fl::{assignment_from_schedule_noniid, FlSetup, RoundConfig, SimBuilder};
use fedsched::net::{model_transfer_bytes, Link};
use fedsched::nn::ModelKind;
use fedsched::profiler::ModelArch;

use crate::stats::{median, Timing};
use crate::{episode_timings, episodes, timed, Ctx, Outcome};

/// Training pool and test set sizes.
pub const N_TRAIN: usize = 10_000;
pub const N_TEST: usize = 1_000;
/// Samples per shard, as in the paper.
const SHARD: f64 = 100.0;
/// Share of the cohort's capacity the plan must place each round, so the
/// scheduler has room to trade time against class coverage.
const LOAD: f64 = 0.6;
/// The paper's accuracy-cost weight and coverage discount at this scale.
const ALPHA: f64 = 1000.0;
const BETA: f64 = 2.0;
/// FedAvg rounds per training run: one keeps episodes short, so a run
/// holds enough of them for a steady median.
pub const ROUNDS: usize = 1;
/// Rounds of the plan the round simulator times.
const SIM_ROUNDS: usize = 20;

/// Inputs to a ready training run.
struct Ready {
    train: Dataset,
    test: Dataset,
    capacities: Vec<usize>,
    total_shards: usize,
    schedule: Schedule,
    sim_makespans: Vec<f64>,
    assignment: Vec<Vec<usize>>,
}

/// The S(III) cohort's device models, in scenario order.
pub fn s3_models() -> Vec<DeviceModel> {
    Scenario::s3()
        .users
        .iter()
        .map(|u| {
            DeviceModel::all()
                .into_iter()
                .find(|m| m.name() == u.device)
                .expect("scenario names a Table I model")
        })
        .collect()
}

/// Fed-MinAvg problem over the partition: each user's capacity is its own
/// local data.
pub fn minavg_problem<P>(
    profiles: Vec<P>,
    scenario: &Scenario,
    partition: &Partition,
    comm: f64,
) -> MinAvgProblem<P> {
    let capacities: Vec<usize> = partition
        .sizes()
        .iter()
        .map(|&n| (n as f64 / SHARD) as usize)
        .collect();
    let total_shards = (capacities.iter().sum::<usize>() as f64 * LOAD) as usize;
    let users = profiles
        .into_iter()
        .zip(scenario.class_sets())
        .zip(&capacities)
        .map(|((profile, classes), &capacity_shards)| UserSpec {
            profile,
            comm,
            classes,
            capacity_shards,
        })
        .collect();
    MinAvgProblem {
        users,
        total_shards,
        shard_size: SHARD,
        acc: AccuracyCost::new(10, ALPHA, BETA),
    }
}

fn setup(ctx: &Ctx, out: &mut Outcome) -> Ready {
    let t = &ctx.tracer;
    let seed = ctx.seed;
    let wl = TrainingWorkload::lenet();
    let link = Link::wifi_campus();
    let bytes = model_transfer_bytes(&ModelArch::lenet());
    let scenario = Scenario::s3();

    let (train, test) = t.span("data.generate", || {
        Dataset::generate_split(DatasetKind::MnistLike, N_TRAIN, N_TEST, seed)
    });
    let partition = t.span("data.partition", || scenario.partition(&train, seed));
    let testbed = Testbed::new(&s3_models(), seed);
    let profiles = t.span("profiler.offline", || testbed.profiles_for(&wl));
    let problem = minavg_problem(profiles, &scenario, &partition, link.round_seconds(bytes));
    let plan = t.span("core.minavg.schedule", || FedMinAvg.schedule(&problem));
    out.op(plan.is_ok());
    let schedule = plan
        .map(|o| o.schedule)
        .unwrap_or_else(|_| Schedule::new(vec![0; problem.users.len()], SHARD));
    let mut sim = t
        .span("fl.build", || {
            SimBuilder::new(
                testbed.devices().to_vec(),
                RoundConfig::new(wl, link, bytes, seed),
            )
            .build_sim()
        })
        .expect("quiet round sim config is valid");
    let report = t.span("fl.sim.run", || sim.run(&schedule, SIM_ROUNDS));
    let assignment = t.span("fl.assign", || {
        assignment_from_schedule_noniid(&partition, &schedule, seed)
    });
    Ready {
        train,
        test,
        capacities: problem.users.iter().map(|u| u.capacity_shards).collect(),
        total_shards: problem.total_shards,
        schedule,
        sim_makespans: report.per_round_makespan,
        assignment,
    }
}

/// One episode's measurements.
struct Episode {
    setup: Timing,
    run: Timing,
    accuracy: f64,
    coverage: f64,
    sim_makespan_s: f64,
    digest: u64,
}

fn episode(ctx: &Ctx, out: &mut Outcome) -> Episode {
    let t = &ctx.tracer;
    let (ready, setup) = timed(|| t.span("setup", || setup(ctx, out)));
    let placed: usize = ready.schedule.shards.iter().sum();
    out.check(
        "noniid: plan places every shard",
        placed == ready.total_shards,
    );
    out.check(
        "noniid: plan respects capacities",
        ready
            .schedule
            .shards
            .iter()
            .zip(&ready.capacities)
            .all(|(s, c)| s <= c),
    );
    let assigned: usize = ready.assignment.iter().map(Vec::len).sum();
    let coverage = assigned as f64 / (placed as f64 * SHARD);
    out.check(
        "noniid: coverage in (0, 1]",
        coverage > 0.0 && coverage <= 1.0,
    );

    let fedavg = FlSetup::new(
        &ready.train,
        &ready.test,
        ready.assignment.clone(),
        ModelKind::LeNet,
        ROUNDS,
        ctx.seed,
    );
    let (trained, run) = timed(|| t.span("fl.fedavg.run", || fedavg.try_run()));
    out.op(trained.is_ok());
    let accuracy = trained.map_or(f64::NAN, |o| o.final_accuracy);
    out.check(
        "noniid: accuracy in [0, 1]",
        (0.0..=1.0).contains(&accuracy),
    );
    let sim_makespan_s = ready.sim_makespans.iter().sum();
    Episode {
        setup,
        run,
        accuracy,
        coverage,
        sim_makespan_s,
        digest: fedsched::core::json::fnv1a64(
            format!(
                "{:?}{:?}{}",
                ready.schedule.shards,
                ready.sim_makespans,
                accuracy.to_bits()
            )
            .as_bytes(),
        ),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (eps, peak_rss_mb) = episodes(ctx, || episode(ctx, &mut out));
    let setups: Vec<Timing> = eps.iter().map(|e| e.setup).collect();
    let runs: Vec<Timing> = eps.iter().map(|e| e.run).collect();
    let round_ms: Vec<f64> = runs
        .iter()
        .map(|r| r.wall * 1000.0 / ROUNDS as f64)
        .collect();

    out.same_digests("noniid", &eps.iter().map(|e| e.digest).collect::<Vec<_>>());
    episode_timings(&mut out, &setups, &runs, ROUNDS);
    out.set("peak_rss_mb", peak_rss_mb);
    out.set("sim_makespan_s", eps[0].sim_makespan_s);
    out.set("sim_coverage", eps[0].coverage);
    out.set("final_accuracy", eps[0].accuracy);
    let t = &ctx.tracer;
    out.from_spans(t, "fl.build_ms", "fl.build", 1.0);
    out.from_spans(t, "data.generate_ms", "data.generate", 1.0);
    out.from_spans(t, "data.partition_ms", "data.partition", 1.0);
    out.from_spans(t, "core.minavg.solve_ms", "core.minavg.schedule", 1.0);
    let per_device = 1.0 / Scenario::s3().len() as f64;
    out.from_spans(
        t,
        "profiler.offline_ms_per_device",
        "profiler.offline",
        per_device,
    );
    out.set("fl.fedavg.round_ms", median(&round_ms));
    out.percentile("fl.step_ms.p50", &round_ms, 0.5);
    out.percentile("fl.step_ms.p99", &round_ms, 0.99);
    out.set("fl.report.shards_lost", 0.0);
    out.set("fl.report.rescues", 0.0);
    out.set("telemetry.events_per_round", 0.0);
    out
}
