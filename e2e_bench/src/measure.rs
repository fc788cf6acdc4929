//! Accounting helpers shared by every workload: the percentile rule, open-loop
//! latency from due times, generator lateness, the backlog-growth test, span
//! self-time and the "parts add up" remainders.

use std::time::{Duration, Instant};

/// Samples a reported tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// The percentile rule: the highest ladder percentile at or below `wanted`
/// that leaves at least [`MIN_BEYOND`] samples beyond it (the median when
/// none does).
pub fn tail_percentile(n: usize, wanted: f64) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= wanted)
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Median and tail of one set of samples, with the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail: f64,
    /// The percentile `tail` was read at (after the percentile rule).
    pub tail_pct: f64,
}

/// Summarise `samples`, reading the tail at `wanted` or, when too few
/// samples lie beyond it, the highest percentile the rule allows.
pub fn summarize(samples: &[f64], wanted: f64) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_pct = tail_percentile(sorted.len(), wanted);
    Summary {
        count: sorted.len(),
        p50: percentile_sorted(&sorted, 50.0),
        tail: percentile_sorted(&sorted, tail_pct),
        tail_pct,
    }
}

/// Median of a non-empty set of samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Milliseconds between two instants, signed (`end` may precede `start`).
pub fn ms_between(start: Instant, end: Instant) -> f64 {
    match end.checked_duration_since(start) {
        Some(d) => d.as_secs_f64() * 1e3,
        None => -(start.duration_since(end).as_secs_f64() * 1e3),
    }
}

/// The schedule of an open-loop generator: request `i` is due at
/// `start + i / rate`, whatever the server is doing.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub rate_per_s: f64,
}

impl Schedule {
    pub fn due(&self, index: usize) -> Instant {
        self.start + Duration::from_secs_f64(index as f64 / self.rate_per_s)
    }
}

/// Open-loop latency: completion measured from the due time, so a stall also
/// charges the wait it imposes on every request due during it.
pub fn latency_from_due_ms(due: Instant, completed: Instant) -> f64 {
    ms_between(due, completed)
}

/// How late the generator sent a request (never negative: it sleeps until due).
pub fn lateness_ms(due: Instant, sent: Instant) -> f64 {
    ms_between(due, sent).max(0.0)
}

/// Latency ratio above which the last quarter of a run counts as a growing
/// backlog relative to its first quarter.
pub const BACKLOG_GROWTH_LIMIT: f64 = 1.5;

/// Backlog-growth test over latencies in request order: the median latency
/// of the last quarter over that of the first quarter. A server that keeps
/// up reads near 1; one that falls behind reads well above it.
pub fn backlog_growth(latencies_in_order: &[f64]) -> f64 {
    let quarter = latencies_in_order.len() / 4;
    if quarter == 0 {
        return 1.0;
    }
    let first = median(&latencies_in_order[..quarter]);
    let last = median(&latencies_in_order[latencies_in_order.len() - quarter..]);
    last / first.max(1e-9)
}

/// Whether latencies in request order show a growing backlog: the last
/// quarter's median is over [`BACKLOG_GROWTH_LIMIT`] times the first
/// quarter's and has climbed past half the latency limit. (A server that
/// coalesces requests may settle at a higher but steady latency; that is
/// judged by the tail, not here.)
pub fn backlog_grows(latencies_in_order: &[f64], limit_ms: f64) -> bool {
    let quarter = latencies_in_order.len() / 4;
    quarter > 0
        && backlog_growth(latencies_in_order) > BACKLOG_GROWTH_LIMIT
        && median(&latencies_in_order[latencies_in_order.len() - quarter..]) > 0.5 * limit_ms
}

/// A recorded interval: `[start_ms, end_ms]` on a run-relative clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub start_ms: f64,
    pub end_ms: f64,
}

/// A span's self time: its duration minus the part of it its children cover
/// (children may overlap each other; covered time is counted once).
pub fn self_time_ms(span: Interval, children: &[Interval]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|c| (c.start_ms.max(span.start_ms), c.end_ms.min(span.end_ms)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = f64::NEG_INFINITY;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (span.end_ms - span.start_ms) - covered
}

/// `pipeline.overlap_ratio`: the serial work of an epoch (prepare plus
/// forward, summed over its batches) over the epoch's wall time. Above 1 the
/// streamed executor overlapped stages; 1 means no overlap.
pub fn overlap_ratio(prepare_ms: f64, forward_ms: f64, epoch_ms: f64) -> f64 {
    (prepare_ms + forward_ms) / epoch_ms
}

/// `serve.unattributed_ms`: drain time the per-batch costs do not explain.
pub fn unattributed_ms(
    drain_ms: f64,
    misses: f64,
    prepare_ms_per_batch: f64,
    executed: f64,
    forward_ms_per_batch: f64,
) -> f64 {
    drain_ms - (misses * prepare_ms_per_batch + executed * forward_ms_per_batch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000, 99.0), 99.0);
        // 999 samples leave 9 beyond p99: fall back to p95.
        assert_eq!(tail_percentile(999, 99.0), 95.0);
        assert_eq!(tail_percentile(100, 99.0), 90.0);
        assert_eq!(tail_percentile(10_000, 99.0), 99.0);
        assert_eq!(tail_percentile(100_000, 99.9), 99.9);
        // Never above what was asked for.
        assert_eq!(tail_percentile(100_000, 90.0), 90.0);
        // Too few samples for any tail: the median.
        assert_eq!(tail_percentile(5, 99.0), 50.0);
        for n in [20, 57, 100, 333, 1000, 4321] {
            let p = tail_percentile(n, 99.0);
            assert!(
                p == 50.0 || samples_beyond(n, p) >= MIN_BEYOND,
                "n={n} p={p}"
            );
        }
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = summarize(&v, 99.0);
        assert_eq!(s.count, 200);
        assert_eq!(s.p50, 100.0);
        assert_eq!(s.tail_pct, 95.0);
        assert_eq!(s.tail, 190.0);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let t0 = Instant::now();
        let sched = Schedule {
            start: t0,
            rate_per_s: 100.0,
        };
        let due = sched.due(3);
        assert!((ms_between(t0, due) - 30.0).abs() < 1e-6);
        // Served 5 ms after it was due: 5 ms, however late it was sent.
        let done = due + Duration::from_millis(5);
        assert!((latency_from_due_ms(due, done) - 5.0).abs() < 1e-6);
        // Sent 2 ms late: lateness 2 ms; sending early reads 0.
        assert!((lateness_ms(due, due + Duration::from_millis(2)) - 2.0).abs() < 1e-6);
        assert_eq!(lateness_ms(due + Duration::from_millis(1), due), 0.0);
    }

    #[test]
    fn backlog_growth_separates_steady_from_falling_behind() {
        let steady: Vec<f64> = (0..400).map(|i| 5.0 + (i % 7) as f64 * 0.1).collect();
        assert!(backlog_growth(&steady) < 1.1);
        assert!(!backlog_grows(&steady, 25.0));
        // Latency climbing linearly: the queue grows.
        let growing: Vec<f64> = (0..400).map(|i| 2.0 + i as f64 * 0.05).collect();
        assert!(backlog_growth(&growing) > BACKLOG_GROWTH_LIMIT);
        assert!(backlog_grows(&growing, 25.0));
        // Settling from 4 ms to a steady 8 ms is not a growing backlog.
        let settles: Vec<f64> = (0..400).map(|i| if i < 100 { 4.0 } else { 8.0 }).collect();
        assert!(backlog_growth(&settles) > BACKLOG_GROWTH_LIMIT);
        assert!(!backlog_grows(&settles, 25.0));
        assert!(!backlog_grows(&[], 25.0));
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let span = Interval {
            start_ms: 0.0,
            end_ms: 10.0,
        };
        assert_eq!(self_time_ms(span, &[]), 10.0);
        let children = [
            Interval {
                start_ms: 1.0,
                end_ms: 4.0,
            },
            // Overlaps the first child: [3, 5] adds only 1 ms.
            Interval {
                start_ms: 3.0,
                end_ms: 5.0,
            },
            // Sticks out past the parent: only [9, 10] counts.
            Interval {
                start_ms: 9.0,
                end_ms: 12.0,
            },
        ];
        assert!((self_time_ms(span, &children) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn remainders_add_up() {
        assert!((overlap_ratio(30.0, 45.0, 50.0) - 1.5).abs() < 1e-12);
        assert!((overlap_ratio(20.0, 30.0, 50.0) - 1.0).abs() < 1e-12);
        // 2 misses × 3 ms + 5 executed × 2 ms = 16 ms of a 20 ms drain.
        assert!((unattributed_ms(20.0, 2.0, 3.0, 5.0, 2.0) - 4.0).abs() < 1e-12);
    }
}
