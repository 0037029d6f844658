//! Regenerates the scale-out sweep: the parallel multi-cohort engine from
//! 10 to 10,000 devices across worker thread counts (1M devices with the
//! arena-backed mega arm at `--scale paper`).
//!
//! `--event-check` runs only the event engine's sparse-participation arm
//! as a CI gate: the 1k- and 10k-device reports must match their pinned
//! fingerprints (`scaleout::EVENT_PINS`).
//!
//! `--hier-check` runs the hierarchical-aggregation gate: flat-vs-hier
//! byte-identity at 1k devices across thread counts, then the arena
//! sweep against the real `hier` target at 100k devices under wall-clock
//! and peak-RSS budgets.
use std::time::Instant;

use fedsched_bench::{scaleout, Scale};

/// Wall-clock budget for the 100k hier-check arm, seconds.
const HIER_CHECK_WALL_BUDGET_S: f64 = 120.0;
/// Peak-RSS budget for the 100k hier-check arm, bytes.
const HIER_CHECK_RSS_BUDGET: u64 = 4 * 1024 * 1024 * 1024;

fn main() {
    if std::env::args().any(|a| a == "--hier-check") {
        let small = scaleout::hier_point(1_000, 42, 2, &[1, 2, 4]);
        assert!(
            small.parity,
            "hierarchical engine diverged from flat at 1k devices"
        );
        let start = Instant::now();
        assert!(
            scaleout::mega_matches_hier(100_000, 250, 10, 42),
            "arena sweep diverged from the hier target at 100k devices"
        );
        let wall_s = start.elapsed().as_secs_f64();
        assert!(
            wall_s < HIER_CHECK_WALL_BUDGET_S,
            "100k hier check took {wall_s:.1} s, budget {HIER_CHECK_WALL_BUDGET_S} s"
        );
        match scaleout::peak_rss_bytes() {
            Some(rss) => {
                assert!(
                    rss < HIER_CHECK_RSS_BUDGET,
                    "peak RSS {} MB over the {} MB budget",
                    rss / (1024 * 1024),
                    HIER_CHECK_RSS_BUDGET / (1024 * 1024),
                );
                println!(
                    "[exp_scale] hier check ok: 1k byte-identity at threads \
                     1/2/4; 100k arena-vs-hier parity in {wall_s:.1} s, peak \
                     RSS {} MB",
                    rss / (1024 * 1024),
                );
            }
            None => println!(
                "[exp_scale] hier check ok: 1k byte-identity at threads \
                 1/2/4; 100k arena-vs-hier parity in {wall_s:.1} s (no \
                 procfs, RSS budget skipped)",
            ),
        }
        return;
    }
    if std::env::args().any(|a| a == "--event-check") {
        let small = scaleout::event_point(1_000, 10, 20, 42);
        assert!(
            small.parity,
            "event engine diverged from its pin at 1k devices ({:#018x})",
            small.fingerprint
        );
        let big = scaleout::event_point(10_000, 25, 100, 42);
        assert!(
            big.parity,
            "event engine diverged from its pin at 10k devices ({:#018x})",
            big.fingerprint
        );
        println!(
            "[exp_scale] event check ok: 1k and 10k reports match their \
             pinned fingerprints; 10k run {:.2} ms",
            big.event_wall_s * 1e3,
        );
        return;
    }
    let scale = Scale::from_args();
    eprintln!("[exp_scale] scale = {}", scale.name());
    let sweep = scaleout::run(scale, 42);
    println!("{}", scaleout::render(&sweep));
}
