//! The simulated-clock vocabulary of a round: deadline cuts, crash
//! detection, rescue availability and admission start.
//!
//! These helpers are the round's time arithmetic in one place. The phase
//! primitives of the round state and the event queue drain of
//! [`EventRoundSim`](crate::EventRoundSim) — the one round engine — both
//! call them, so every instant a round schedules or reports comes from a
//! single time source.
//!
//! All times are simulated seconds, relative to the round's start.

/// What a per-round deadline leaves of a straggler's work.
///
/// A device that would finish at `comm + compute > deadline_s` is cut off
/// at the deadline with partial credit: the shards completed by then
/// (never all of them — a cut user is by definition unfinished), and the
/// compute span it actually occupied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineCut {
    /// Shards completed before the cutoff (strictly less than scheduled).
    pub done: usize,
    /// Compute seconds spent before the cutoff (`deadline - comm`,
    /// clamped at zero for a device whose transfer alone blew the
    /// deadline).
    pub span_compute: f64,
}

/// Resolve the partial credit for a device cut by `deadline_s`.
///
/// `shards` is the device's scheduled shard count (must be positive),
/// `comm` its completed transfer time and `compute` its full training
/// time. Progress is linear in compute time — the paper's cost model is
/// per-sample affine, so shards complete at a uniform rate.
pub fn deadline_cut(shards: usize, comm: f64, compute: f64, deadline_s: f64) -> DeadlineCut {
    debug_assert!(shards > 0, "deadline cut needs scheduled work");
    let progress = if compute > 0.0 {
        ((deadline_s - comm) / compute).clamp(0.0, 1.0)
    } else {
        0.0
    };
    DeadlineCut {
        done: ((shards as f64 * progress).floor() as usize).min(shards - 1),
        span_compute: (deadline_s - comm).max(0.0),
    }
}

/// When the server notices that crashed users are gone.
///
/// With a deadline set, absence is detected at the deadline. Without one,
/// the server only notices once everyone who will respond has responded
/// (`responder_max`); if *nobody* responds, the last failure itself bounds
/// the wait (`fail_max`).
pub fn crash_detection(deadline_s: Option<f64>, responder_max: f64, fail_max: f64) -> f64 {
    deadline_s.unwrap_or(if responder_max > 0.0 {
        responder_max
    } else {
        fail_max
    })
}

/// When a rescue transfer to a survivor can start: not before the
/// survivor's own finish, and not before the server has detected the
/// failures whose shards it is inheriting.
pub fn rescue_available(finish: f64, detection: f64) -> f64 {
    finish.max(detection)
}

/// When a mid-round-admitted arrival can start on orphaned work: not
/// before it arrived, and not before the server has detected the failures
/// that orphaned the shards it is inheriting. Same shape as
/// [`rescue_available`], named separately because the first operand is an
/// arrival timestamp, not a survivor finish.
pub fn admission_start(arrive_s: f64, detection: f64) -> f64 {
    arrive_s.max(detection)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_is_proportional_to_compute_progress() {
        // 10 shards, 2s comm, 10s compute, cut at 7s: 5s of compute done
        // out of 10 => half the shards.
        let cut = deadline_cut(10, 2.0, 10.0, 7.0);
        assert_eq!(cut.done, 5);
        assert_eq!(cut.span_compute, 5.0);
    }

    #[test]
    fn cut_never_awards_all_shards() {
        // Progress rounds to 100% but a cut user is by definition
        // unfinished: cap at shards - 1.
        let cut = deadline_cut(4, 0.0, 10.0, 9.999_999_999);
        assert_eq!(cut.done, 3);
    }

    #[test]
    fn cut_with_comm_past_deadline_is_zero() {
        let cut = deadline_cut(5, 8.0, 10.0, 6.0);
        assert_eq!(cut.done, 0);
        assert_eq!(cut.span_compute, 0.0);
    }

    #[test]
    fn cut_with_zero_compute_makes_no_progress() {
        let cut = deadline_cut(3, 1.0, 0.0, 5.0);
        assert_eq!(cut.done, 0);
        assert_eq!(cut.span_compute, 4.0);
    }

    #[test]
    fn detection_prefers_deadline_then_responders_then_failures() {
        assert_eq!(crash_detection(Some(30.0), 100.0, 50.0), 30.0);
        assert_eq!(crash_detection(None, 100.0, 50.0), 100.0);
        assert_eq!(crash_detection(None, 0.0, 50.0), 50.0);
        assert_eq!(crash_detection(None, 0.0, 0.0), 0.0);
    }

    #[test]
    fn rescue_waits_for_both_finish_and_detection() {
        assert_eq!(rescue_available(10.0, 4.0), 10.0);
        assert_eq!(rescue_available(4.0, 10.0), 10.0);
    }

    #[test]
    fn admission_waits_for_both_arrival_and_detection() {
        assert_eq!(admission_start(12.0, 4.0), 12.0);
        assert_eq!(admission_start(4.0, 12.0), 12.0);
        assert_eq!(admission_start(5.0, 5.0), 5.0);
    }
}
