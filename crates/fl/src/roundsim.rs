//! Time-only round simulation: replay a schedule on the device simulator.
//!
//! Used by the computation-time experiments (Figs. 5 and 7, Table II), where
//! no actual ML needs to run — the round time of a synchronous FL epoch is
//! `max_j (T_j^c(D_j) + T_j^u(M) + T_j^d(M))`, with computation produced by
//! the thermal-aware device model and communication by the link model.
//! [`RoundSim`] is the quiet facade over the one round engine,
//! [`EventRoundSim`]: no faults, no deadline, timing only.

use fedsched_core::Schedule;
use fedsched_device::{Device, TrainingWorkload};
use fedsched_net::Link;
use fedsched_telemetry::Probe;
use serde::Serialize;

use crate::eventsim::EventRoundSim;

/// Timing statistics over simulated rounds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimingReport {
    /// Synchronous round time (straggler) for every round.
    pub per_round_makespan: Vec<f64>,
    /// Mean per-user total time across rounds (computation + comm).
    pub per_user_mean: Vec<f64>,
    /// Mean fraction of the makespan spent on communication by the
    /// straggler.
    pub comm_fraction: f64,
}

impl TimingReport {
    /// Mean makespan across rounds.
    pub fn mean_makespan(&self) -> f64 {
        if self.per_round_makespan.is_empty() {
            return 0.0;
        }
        self.per_round_makespan.iter().sum::<f64>() / self.per_round_makespan.len() as f64
    }

    /// Total synchronous time over all rounds.
    pub fn total_time(&self) -> f64 {
        self.per_round_makespan.iter().sum()
    }
}

/// Replays schedules against a device cohort: the quiet facade over
/// [`EventRoundSim`], reporting timing only.
pub struct RoundSim {
    inner: EventRoundSim,
}

impl RoundSim {
    /// Wrap a quiet event core; built by
    /// [`SimBuilder::build_sim`](crate::SimBuilder::build_sim), the only
    /// public construction path.
    pub(crate) fn new(inner: EventRoundSim) -> Self {
        RoundSim { inner }
    }

    /// Number of devices.
    pub fn n_devices(&self) -> usize {
        self.inner.n_devices()
    }

    /// Borrow the devices (e.g. to inspect battery drain afterwards).
    pub fn devices(&self) -> &[Device] {
        self.inner.devices()
    }

    /// Simulate `rounds` synchronous rounds under `schedule`. Device
    /// thermal state persists across rounds (continuous training); call
    /// [`RoundSim::cool_down`] between experiments. With a probe attached
    /// the rounds emit `round_start` / `user_span` / `round_end`, and every
    /// device emits its own thermal/battery events.
    ///
    /// # Panics
    /// Panics if the schedule's user count differs from the cohort size.
    pub fn run(&mut self, schedule: &Schedule, rounds: usize) -> TimingReport {
        self.inner.run(schedule, rounds).timing
    }

    /// Reset every device's thermal state (between experiment arms).
    pub fn cool_down(&mut self) {
        self.inner.cool_down();
    }
}

/// Predicted per-user round times for `schedule` on `devices`, with zero
/// side effects: communication is the link's deterministic expectation (no
/// jitter draw) and computation runs on *clones* of the devices with
/// telemetry detached, so neither the RNG stream, the thermal state, nor
/// the event log of the real simulation is perturbed. Idle users predict
/// `0.0`.
///
/// This is the pooling input for the population-wide
/// [`DeadlinePolicy`](fedsched_core::DeadlinePolicy) resolution in
/// the population engine's global-deadline stage.
pub fn predict_round_times(
    devices: &[Device],
    workload: &TrainingWorkload,
    link: &Link,
    model_bytes: f64,
    schedule: &Schedule,
) -> Vec<f64> {
    debug_assert_eq!(devices.len(), schedule.shards.len());
    let comm = link.round_seconds(model_bytes);
    schedule
        .shards
        .iter()
        .zip(devices)
        .map(|(&k, device)| {
            let samples = (k as f64 * schedule.shard_size) as usize;
            predict_user_time(device, workload, comm, samples)
        })
        .collect()
}

/// Predicted round time for one user: `comm` (the link's deterministic
/// per-round expectation) plus speculative training of `samples` on a
/// clone of the device. Idle users (`samples == 0`) predict `0.0`.
///
/// Shared by [`predict_round_times`] and the round engine's
/// active-set-only deadline resolution, so both resolve deadlines from
/// the same per-user predictor.
pub fn predict_user_time(
    device: &Device,
    workload: &TrainingWorkload,
    comm: f64,
    samples: usize,
) -> f64 {
    if samples == 0 {
        return 0.0;
    }
    // Clones share the Arc-backed probe with the original — detach it so
    // speculative training never reaches the event log.
    let mut scratch = device.clone();
    scratch.set_probe(Probe::disabled());
    comm + scratch.train_samples(workload, samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{RoundConfig, SimBuilder};
    use fedsched_device::{DeviceModel, Testbed};
    use fedsched_telemetry::Event;

    fn build(devices: Vec<Device>, link: Link, seed: u64, probe: Probe) -> RoundSim {
        let config = RoundConfig::new(TrainingWorkload::lenet(), link, 2.5e6, seed);
        SimBuilder::new(devices, config)
            .probe(probe)
            .build_sim()
            .unwrap()
    }

    fn sim_with(seed: u64, probe: Probe) -> RoundSim {
        let devices = Testbed::testbed_1(seed).devices().to_vec();
        build(devices, Link::new(100.0, 100.0, 0.0, 0.0), seed, probe)
    }

    fn sim(seed: u64) -> RoundSim {
        sim_with(seed, Probe::disabled())
    }

    #[test]
    fn makespan_is_worst_user() {
        let mut s = sim(1);
        let schedule = Schedule::new(vec![10, 10, 10], 100.0);
        let report = s.run(&schedule, 2);
        assert_eq!(report.per_round_makespan.len(), 2);
        for &m in &report.per_round_makespan {
            assert!(m > 0.0);
        }
        // Per-user means never exceed the worst makespan.
        let max_makespan = report
            .per_round_makespan
            .iter()
            .cloned()
            .fold(0.0, f64::max);
        for &t in &report.per_user_mean {
            assert!(t <= max_makespan * 1.01);
        }
    }

    #[test]
    fn idle_users_cost_nothing() {
        let mut s = sim(2);
        let schedule = Schedule::new(vec![30, 0, 0], 100.0);
        let report = s.run(&schedule, 1);
        assert_eq!(report.per_user_mean[1], 0.0);
        assert_eq!(report.per_user_mean[2], 0.0);
    }

    #[test]
    fn unbalanced_schedule_beats_equal_on_heterogeneous_cohort() {
        // Pixel2 is ~1.8x faster than Mate10: giving it more work must cut
        // the makespan vs an equal split.
        let equal = Schedule::new(vec![20, 20, 20], 100.0);
        let tilted = Schedule::new(vec![24, 14, 22], 100.0);
        let me = sim(3).run(&equal, 3).mean_makespan();
        let mt = sim(3).run(&tilted, 3).mean_makespan();
        assert!(mt < me, "tilted {mt} !< equal {me}");
    }

    #[test]
    fn comm_fraction_is_small_for_lenet_wifi() {
        // Paper Observation 3: ~5% average comm share.
        let mut s = build(
            Testbed::testbed_1(4).devices().to_vec(),
            Link::wifi_campus(),
            4,
            Probe::disabled(),
        );
        let report = s.run(&Schedule::new(vec![10, 10, 10], 100.0), 3);
        assert!(report.comm_fraction < 0.10, "{}", report.comm_fraction);
        assert!(report.comm_fraction > 0.0);
    }

    #[test]
    fn thermal_state_persists_across_rounds() {
        // A Nexus6P-only cohort slows down in later rounds as it heats.
        let mut s = build(
            vec![Device::from_model(DeviceModel::Nexus6P, 5)],
            Link::new(1000.0, 1000.0, 0.0, 0.0),
            5,
            Probe::disabled(),
        );
        let report = s.run(&Schedule::new(vec![20], 100.0), 5);
        let first = report.per_round_makespan[0];
        let last = *report.per_round_makespan.last().unwrap();
        assert!(last > first * 1.5, "first {first}, last {last}");
    }

    #[test]
    fn probe_records_round_timeline() {
        use fedsched_telemetry::EventLog;
        use std::sync::Arc;
        let log = Arc::new(EventLog::new());
        let mut s = sim_with(9, Probe::attached(log.clone()));
        let report = s.run(&Schedule::new(vec![10, 0, 10], 100.0), 2);

        let events = log.events();
        let starts: Vec<(usize, usize)> = events
            .iter()
            .filter_map(|e| match e {
                Event::RoundStart { round, n_users } => Some((*round, *n_users)),
                _ => None,
            })
            .collect();
        assert_eq!(starts, vec![(0, 2), (1, 2)]);

        // Each round: spans only for participating users, and the round_end
        // makespan matches the worst span and the timing report.
        for round in 0..2usize {
            let spans: Vec<(usize, f64)> = events
                .iter()
                .filter_map(|e| match e {
                    Event::UserSpan {
                        round: r,
                        user,
                        compute_s,
                        comm_s,
                    } if *r == round => Some((*user, compute_s + comm_s)),
                    _ => None,
                })
                .collect();
            assert_eq!(
                spans.iter().map(|(u, _)| *u).collect::<Vec<_>>(),
                vec![0, 2]
            );
            let (makespan, straggler) = events
                .iter()
                .find_map(|e| match e {
                    Event::RoundEnd {
                        round: r,
                        makespan_s,
                        straggler,
                    } if *r == round => Some((*makespan_s, *straggler)),
                    _ => None,
                })
                .expect("round_end");
            let worst = spans
                .iter()
                .cloned()
                .fold((0usize, 0.0f64), |a, b| if b.1 > a.1 { b } else { a });
            assert_eq!(straggler, worst.0);
            assert!((makespan - worst.1).abs() < 1e-12);
            assert!((makespan - report.per_round_makespan[round]).abs() < 1e-12);
        }

        // A second run continues the round numbering.
        s.run(&Schedule::new(vec![5, 5, 5], 100.0), 1);
        assert!(log.events().iter().any(|e| matches!(
            e,
            Event::RoundStart {
                round: 2,
                n_users: 3
            }
        )));
    }

    #[test]
    fn probed_and_unprobed_runs_agree() {
        use fedsched_telemetry::EventLog;
        use std::sync::Arc;
        let schedule = Schedule::new(vec![10, 10, 10], 100.0);
        let plain = sim(12).run(&schedule, 2);
        let probed = sim_with(12, Probe::attached(Arc::new(EventLog::new()))).run(&schedule, 2);
        assert_eq!(plain, probed, "observation must not perturb timing");
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_schedule_arity_panics() {
        let mut s = sim(6);
        let _ = s.run(&Schedule::new(vec![1, 1], 100.0), 1);
    }
}
