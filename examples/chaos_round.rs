//! Chaos round walkthrough: a Fed-LBAP schedule replayed under injected
//! faults, with and without mid-round straggler rescue.
//!
//! A seeded [`FaultPlan`] decrees crashes, churn, lossy transfers and CPU
//! contention; the `resilient` simulator retries transfers, detects dead
//! users and reassigns their shards to survivors. The run is fully
//! deterministic: the same seed replays the same chaos, byte for byte.
//!
//! ```text
//! cargo run --release --example chaos_round
//! ```
//!
//! [`FaultPlan`]: fedsched::faults::FaultPlan

use std::sync::Arc;

use fedsched::core::{CostMatrix, FedLbap, Scheduler};
use fedsched::device::{Testbed, TrainingWorkload};
use fedsched::faults::{FaultConfig, FaultInjector};
use fedsched::fl::{RoundConfig, SimBuilder};
use fedsched::net::{model_transfer_bytes, Link, RetryPolicy};
use fedsched::profiler::ModelArch;
use fedsched::telemetry::{Event, EventLog, MetricsRegistry, Probe};

fn main() {
    let testbed = Testbed::testbed_2(7); // 2x N6, 2x N6P, Mate10, Pixel2
    let workload = TrainingWorkload::lenet();
    let link = Link::wifi_campus();
    let bytes = model_transfer_bytes(&ModelArch::lenet());
    let rounds = 5;

    // A balanced Fed-LBAP schedule over 12K samples, shards of 100.
    let total_shards = 120;
    let profiles = testbed.profiles_for(&workload);
    let comm = vec![link.round_seconds(bytes); testbed.len()];
    let costs = CostMatrix::from_profiles(&profiles, total_shards, 100.0, &comm);
    let schedule = FedLbap.schedule(&costs).expect("schedulable");

    // A stormy round: 20% crash chance per device per round, occasional
    // churn, 10% per-attempt transfer loss, background-app contention.
    let config = FaultConfig::none()
        .with_crash_prob(0.2)
        .with_churn_prob(0.05)
        .with_loss_prob(0.1)
        .with_contention(0.25, 1.6);
    let injector = || FaultInjector::from_config(config.clone(), testbed.len(), rounds, 1313);

    println!(
        "devices: {:?}",
        testbed
            .models()
            .iter()
            .map(|m| m.name())
            .collect::<Vec<_>>()
    );
    println!("schedule: {:?} shards", schedule.shards);
    println!(
        "fault plan fingerprint: {:#018x}\n",
        injector().plan().fingerprint()
    );

    for rescue in [false, true] {
        let log = Arc::new(EventLog::new());
        let mut builder = SimBuilder::new(
            testbed.devices().to_vec(),
            RoundConfig::new(workload, link, bytes, 7),
        )
        .injector(injector())
        .retry(RetryPolicy::default_chaos())
        .probe(Probe::attached(log.clone()));
        if !rescue {
            builder = builder.no_rescue();
        }
        let mut sim = builder.build_resilient().expect("valid chaos config");
        let report = sim.run(&schedule, rounds);

        println!(
            "--- {} ---",
            if rescue {
                "with mid-round rescue"
            } else {
                "no rescue (losses stand)"
            }
        );
        for r in &report.rounds {
            println!(
                "round {}: {:>5.1}s  completed {:>3}  rescued {:>2}  lost {:>2}  coverage {:.2}",
                r.round, r.makespan_s, r.completed, r.rescued, r.lost_shards, r.coverage
            );
        }

        // The telemetry stream carries the whole story: who crashed, what
        // was retried, which shards moved where.
        let events = log.events();
        let retries = events
            .iter()
            .filter(|e| matches!(e, Event::TransferRetry { .. }))
            .count();
        for e in events.iter() {
            if let Event::ShardsReassigned {
                round,
                from_user,
                to_user,
                shards,
            } = e
            {
                println!("         round {round}: {shards} shards moved {from_user} -> {to_user}");
            }
        }
        let mut metrics = MetricsRegistry::new();
        metrics.ingest(events.iter());
        println!(
            "totals: rescued {}, lost {}, coverage {:.2}, {} transfer retries, {} faults injected\n",
            report.total_rescued(),
            report.total_lost(),
            report.mean_coverage(),
            retries,
            metrics.counter("faults_injected"),
        );
    }
}
