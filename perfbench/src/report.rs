//! What one run measured, and how it is printed: a table for people,
//! then one JSON object as the last line of standard output.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Samples per sub-window the timed window is cut into for latency:
/// enough that each sub-window's tail is its p90. Median and tail are
/// medians over the sub-windows, so a burst of interference from outside
/// the benchmark moves a few sub-windows, not the result.
const SAMPLES_PER_SUB_WINDOW: usize = 100;
/// At most this many sub-windows.
const MAX_SUB_WINDOWS: usize = 100;

/// A latency sample set, summarized as a median plus a tail.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Samples summarized.
    pub samples: usize,
    /// Median, nearest rank.
    pub p50: f64,
    /// The tail value at [`Summary::tail_pct`].
    pub tail: f64,
    /// The highest percentile from a fixed ladder that leaves at least
    /// ten samples beyond it; 50 when fewer than twenty samples exist.
    pub tail_pct: f64,
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 8] = [99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Nearest-rank percentile of sorted data.
fn rank(sorted: &[f64], pct: f64) -> f64 {
    let r = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[r.clamp(1, sorted.len()) - 1]
}

/// Summarizes `xs`, or `None` for an empty set.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail_pct = tail_pct(n);
    Some(Summary { samples: n, p50: rank(&sorted, 50.0), tail: rank(&sorted, tail_pct), tail_pct })
}

/// The highest ladder percentile that leaves ten of `n` samples beyond
/// it, or 50.
fn tail_pct(n: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n - ((p / 100.0) * n as f64).ceil() as usize >= 10)
        .unwrap_or(50.0)
}

/// The median of `xs` (nearest rank), or `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    summarize(xs).map(|s| s.p50)
}

/// A latency sample set reduced to a median and a tail.
#[derive(Debug, Default)]
struct Latency {
    p50: f64,
    tail: f64,
    tail_pct: f64,
    samples: usize,
    /// Whether both are medians over sub-windows.
    windowed: bool,
}

/// One per-layer figure of a traced run.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many spans or events it was computed from.
    pub samples: u64,
}

impl Layer {
    /// A layer figure.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Self {
        Self { name: name.into(), value, unit, samples }
    }
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// The workload's name.
    pub workload: &'static str,
    /// Loop type, connection count or rate, and input size.
    pub shape: String,
    /// Set-up times, one per repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Start of the timed window.
    pub start: Option<Instant>,
    /// Length of the timed window.
    pub window: Duration,
    /// Stream items carried by commands sent inside the window, with the
    /// instant each command was acknowledged.
    pub acks: Vec<(Instant, u64)>,
    /// `push`/`push_batch` latencies in ms (multipass: whole jobs), with
    /// the instant each command was sent.
    pub push: Vec<(Instant, f64)>,
    /// `observe` latencies in ms (multipass: whole jobs), likewise.
    pub observe: Vec<(Instant, f64)>,
    /// Commands (or jobs) attempted.
    pub attempted: u64,
    /// Error responses, transcript mismatches and bound violations.
    pub errors: u64,
    /// Colorings returned and checked.
    pub colorings: u64,
    /// Of those, how many were improper for the graph so far.
    pub improper: u64,
    /// Largest `colors` value returned.
    pub max_colors: u64,
    /// Largest model-space figure returned.
    pub peak_space_bits: u64,
    /// Passes over the input: Σ over the grid for multipass, 1 for the
    /// one-pass workloads.
    pub passes: u64,
    /// Peak resident set of the server or worker processes, in MiB.
    pub rss_mib: f64,
    /// Per-layer figures (traced runs only).
    pub layers: Vec<Layer>,
}

impl Report {
    /// Records a failed check: counted in `errors`, the first twenty
    /// logged to stderr.
    pub fn problem(&mut self, what: impl Into<String>) {
        if self.errors < 20 {
            eprintln!("perfbench: {}: {}", self.workload, what.into());
        }
        self.errors += 1;
    }

    /// Starts the timed window.
    pub fn timed(&mut self, start: Instant, window: Duration) {
        self.start = Some(start);
        self.window = window;
    }

    /// Counts `items` carried by a command sent at `sent` and
    /// acknowledged at `acked`, if it was sent inside the window.
    pub fn ack(&mut self, sent: Instant, acked: Instant, items: u64) {
        let start = self.start.expect("timed() before ack()");
        if sent < start + self.window {
            self.acks.push((acked, items));
        }
    }

    /// Which of `subs` equal sub-windows an instant falls in (instants
    /// after the window belong to the last one).
    fn sub_window(&self, at: Instant, subs: usize) -> usize {
        let start = self.start.expect("timed() before use");
        let sub = self.window / subs as u32;
        let i = at.saturating_duration_since(start).as_nanos() / sub.as_nanos().max(1);
        (i as usize).min(subs - 1)
    }

    /// Items carried by the commands sent inside the window, per second
    /// from the window's start until the last of them was acknowledged —
    /// in an open loop past saturation, the rate the server sustained.
    fn items_per_s(&self) -> (f64, u64, f64) {
        let start = self.start.expect("timed() before use");
        let items: u64 = self.acks.iter().map(|&(_, n)| n).sum();
        let last = self.acks.iter().map(|&(at, _)| at).max().unwrap_or(start);
        let secs = (last - start).as_secs_f64();
        (if secs > 0.0 { items as f64 / secs } else { 0.0 }, items, secs)
    }

    /// Median latency and tail, each a median over sub-windows of about
    /// [`SAMPLES_PER_SUB_WINDOW`] samples of that sub-window's figure. The
    /// tail percentile is the highest one that leaves ten samples beyond
    /// it in the median sub-window. With fewer than two sub-windows of
    /// twenty samples, both are taken over all samples at once.
    fn latency(&self, xs: &[(Instant, f64)]) -> Option<Latency> {
        let all: Vec<f64> = xs.iter().map(|&(_, ms)| ms).collect();
        let whole = summarize(&all)?;
        let subs = (xs.len() / SAMPLES_PER_SUB_WINDOW).clamp(1, MAX_SUB_WINDOWS);
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); subs];
        for &(at, ms) in xs {
            per[self.sub_window(at, subs)].push(ms);
        }
        // Sub-windows the loop spent mostly stalled (a tenant turnover)
        // hold too few samples for a tail; leave them out.
        per.retain(|v| v.len() >= 20);
        if per.len() < 2 {
            let Summary { p50, tail, tail_pct, samples } = whole;
            return Some(Latency { p50, tail, tail_pct, samples, windowed: false });
        }
        let p50 = median(&per.iter().filter_map(|v| median(v)).collect::<Vec<_>>())?;
        let mut counts: Vec<usize> = per.iter().map(Vec::len).collect();
        counts.sort_unstable();
        let pct = tail_pct(counts[counts.len() / 2]);
        let tails: Vec<f64> = per
            .iter_mut()
            .map(|v| {
                v.sort_by(f64::total_cmp);
                rank(v, pct)
            })
            .collect();
        let tail = median(&tails)?;
        Some(Latency { p50, tail, tail_pct: pct, samples: whole.samples, windowed: true })
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors == 0 && self.attempted > 0
    }

    /// Prints the table and, as the last line, the JSON result.
    pub fn print(&self, traced: bool) {
        println!("workload {}: {}", self.workload, self.shape);
        let rate = |x: u64, of: u64| if of == 0 { 0.0 } else { x as f64 / of as f64 };
        println!(
            "  error_rate {} ratio ({} of {} commands)   improper_rate {} ratio ({} of {} colorings)",
            rate(self.errors, self.attempted),
            self.errors,
            self.attempted,
            rate(self.improper, self.colorings),
            self.improper,
            self.colorings
        );
        let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
        if traced {
            for l in &self.layers {
                println!("  {:<36} {:>16.4} {:<6} samples {}", l.name, l.value, l.unit, l.samples);
                metrics.push((l.name.clone(), l.value, l.unit));
            }
        } else {
            for (name, value, unit, note) in self.end_to_end() {
                println!("  {name:<16} {value:>16.4} {unit:<8} {note}");
                metrics.push((name.to_string(), value, unit));
            }
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.errors
        );
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(json, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        json.push_str("}}");
        println!("{json}");
    }

    /// The end-to-end metrics with their units and sample notes.
    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str, String)> {
        let mut out = Vec::new();
        let setup = summarize(&self.setup_s);
        out.push((
            "setup_s",
            setup.map_or(0.0, |s| s.p50),
            "s",
            format!("median of {} set-ups", self.setup_s.len()),
        ));
        let (per_s, items, secs) = self.items_per_s();
        out.push((
            "items_per_s",
            per_s,
            "items/s",
            format!("{items} items acknowledged in {secs:.3} s"),
        ));
        for (p50_name, tail_name, xs) in [
            ("push_p50_ms", "push_tail_ms", &self.push),
            ("observe_p50_ms", "observe_tail_ms", &self.observe),
        ] {
            let l = self.latency(xs).unwrap_or_default();
            let n = l.samples;
            let how = if l.windowed { "median of sub-window" } else { "all samples," };
            out.push((p50_name, l.p50, "ms", format!("{how} p50; {n} samples")));
            out.push((tail_name, l.tail, "ms", format!("{how} p{}; {n} samples", l.tail_pct)));
        }
        out.push(("max_colors", self.max_colors as f64, "count", String::new()));
        out.push(("peak_space_bits", self.peak_space_bits as f64, "bits", String::new()));
        out.push(("passes", self.passes as f64, "count", String::new()));
        out.push(("server_rss_mib", self.rss_mib, "MiB", "peak VmHWM / ru_maxrss".to_string()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&xs).unwrap();
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.p50, 500.0);
        let few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(summarize(&few).unwrap().tail_pct, 50.0);
        let some: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(summarize(&some).unwrap().tail_pct, 80.0);
    }
}
