//! Order statistics, power-law fits and process counters read from `/proc`.

/// Sorted copy of `xs` (total order; NaN never occurs in timings).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let v = sorted(xs);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The tail a sample of `n` supports: the highest of `wanted` that leaves
/// at least ten samples beyond it, or the median when none does.
pub fn supported_tail(n: usize, wanted: f64) -> f64 {
    let beyond = |q: f64| (n as f64 * (1.0 - q)).floor() as usize;
    if beyond(wanted) >= 10 {
        return wanted;
    }
    [0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|&q| q < wanted && beyond(q) >= 10)
        .unwrap_or(0.5)
}

/// Least-squares slope of `ln y` against `ln x`: the measured exponent of
/// a power law `y ~ x^k`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (lx, ly): (Vec<f64>, Vec<f64>) = points.iter().map(|&(x, y)| (x.ln(), y.ln())).unzip();
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let sxy: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    sxy / sxx
}

/// Read a numeric field such as `VmHWM` (in kB) or `Threads` from
/// `/proc/<pid>/status`.
pub fn proc_status(pid: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of this process, MB.
pub fn peak_rss_mb() -> f64 {
    proc_status("self", "VmHWM").unwrap_or(0.0) / 1024.0
}

/// Restart this process's peak resident set from its current size, so
/// each episode's peak can be read on its own. Where the kernel does not
/// support it the peak simply keeps its lifetime value.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Current resident set of this process, bytes.
pub fn rss_bytes() -> f64 {
    proc_status("self", "VmRSS").unwrap_or(0.0) * 1024.0
}

/// User plus system CPU seconds consumed so far by process `pid`.
pub fn cpu_seconds(pid: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (100 per second).
    let rest = text.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// CPU time the hypervisor gave to other guests so far, seconds summed
/// over all cores (the `steal` column of `/proc/stat`); 0 where absent.
pub fn host_steal_seconds() -> f64 {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    text.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Wall, CPU and host-steal measurements of one timed unit of work.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Wall seconds.
    pub wall: f64,
    /// CPU seconds of this process.
    pub cpu: f64,
    /// Share of the host's CPU time the hypervisor gave to other guests
    /// meanwhile.
    pub steal: f64,
}

/// Steal shares are compared in steps of this size: the kernel counts
/// steal in 10 ms ticks, so over a one-second unit on two cores smaller
/// differences are counting noise.
const STEAL_STEP: f64 = 0.02;

/// Indices of the quiet units of a run: those during which the host steal
/// was within one step of the run's lowest. Units are picked by steal
/// alone, never by the value they measure.
pub fn quiet_units(steal: &[f64]) -> Vec<usize> {
    let step = |s: f64| (s / STEAL_STEP).floor();
    let lowest = steal.iter().map(|&s| step(s)).fold(f64::INFINITY, f64::min);
    (0..steal.len())
        .filter(|&i| step(steal[i]) <= lowest + 1.0)
        .collect()
}

/// Median wall time over the quiet units of a run. Other guests on a
/// shared host slow some units of a run and never speed any up, so the
/// units that ran while the hypervisor took the least CPU time are the
/// repeatable ones; on a quiet host every unit counts.
pub fn quiet_median(units: &[Timing]) -> f64 {
    let steal: Vec<f64> = units.iter().map(|u| u.steal).collect();
    let quiet: Vec<f64> = quiet_units(&steal).iter().map(|&i| units[i].wall).collect();
    median(&quiet)
}

/// Cores this host offers the benchmark.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn quiet_units_ignore_the_measured_value() {
        let unit = |wall, steal| Timing {
            wall,
            cpu: 0.0,
            steal,
        };
        let units = [
            unit(5.0, 0.3),
            unit(2.0, 0.0),
            unit(9.0, 0.03),
            unit(1.0, 0.2),
            unit(4.0, 0.01),
        ];
        assert_eq!(quiet_units(&[0.3, 0.0, 0.03, 0.2, 0.01]), vec![1, 2, 4]);
        assert_eq!(quiet_median(&units), 4.0);
        assert_eq!(quiet_median(&units[..1]), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(2000, 0.99), 0.99);
        assert_eq!(supported_tail(150, 0.99), 0.9);
        assert_eq!(supported_tail(12, 0.99), 0.5);
    }

    #[test]
    fn slope_recovers_exponent() {
        let pts: Vec<(f64, f64)> = [1.0, 2.0, 4.0, 8.0]
            .iter()
            .map(|&x| (x, 3.0 * x * x))
            .collect();
        assert!((loglog_slope(&pts) - 2.0).abs() < 1e-12);
    }
}
