//! Quantiles, the class-boundary guard, span self time and the
//! reconciliation arithmetic.

/// The `q` quantile of ascending `sorted` values, interpolating
/// linearly between order statistics (`q` in `[0, 1]`). `NaN` when
/// empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// How many ascending `sorted` values lie strictly above `threshold`.
pub fn beyond(sorted: &[f64], threshold: f64) -> usize {
    sorted.len() - sorted.partition_point(|&x| x <= threshold)
}

/// One class of a workload's request mix (a backend or a grid size):
/// its share of the timed requests and its median latency.
#[derive(Debug, Clone)]
pub struct Class {
    pub name: String,
    pub count: usize,
    pub median: f64,
}

/// Percentile points that must keep clear of class boundaries.
pub const GUARDED: [f64; 2] = [0.5, 0.9];

/// Required distance between a guarded percentile and a boundary.
pub const BOUNDARY_MARGIN: f64 = 0.05;

/// The class boundaries of a mix, as cumulative shares: classes are
/// ordered by median latency, and a boundary sits where one class's
/// requests end and the next, slower, class's begin. A percentile near
/// such a boundary flips between the two classes' latencies from run to
/// run.
pub fn class_boundaries(classes: &[Class]) -> Vec<f64> {
    let total: usize = classes.iter().map(|c| c.count).sum();
    let mut ordered: Vec<&Class> = classes.iter().filter(|c| c.count > 0).collect();
    ordered.sort_by(|a, b| a.median.total_cmp(&b.median));
    let mut cumulative = 0;
    let mut out = Vec::new();
    for class in ordered.iter().take(ordered.len().saturating_sub(1)) {
        cumulative += class.count;
        out.push(cumulative as f64 / total as f64);
    }
    out
}

/// Every `(percentile, boundary)` pair closer than
/// [`BOUNDARY_MARGIN`]; empty when the mix is safe to report.
pub fn boundary_violations(classes: &[Class]) -> Vec<(f64, f64)> {
    let boundaries = class_boundaries(classes);
    let mut out = Vec::new();
    for q in GUARDED {
        for &b in &boundaries {
            if (q - b).abs() < BOUNDARY_MARGIN {
                out.push((q, b));
            }
        }
    }
    out
}

/// A span's interval, `[start, end)` in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub start: u64,
    pub end: u64,
}

/// A span's self time: its duration minus the part of it that its
/// children's intervals cover (overlapping children count once).
pub fn self_time(span: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = span.start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (span.end - span.start) - covered
}

/// The reconciliation line: the end-to-end median minus the sum of the
/// layers' median self times. What remains is work no traced layer
/// owns (sockets, scheduling, the client) — or tracing's own cost when
/// negative.
pub fn reconcile(e2e_us: f64, layers_us: &[(String, f64)]) -> f64 {
    e2e_us - layers_us.iter().map(|(_, us)| us).sum::<f64>()
}

/// Relative overhead of a traced run over an untraced one.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    (traced - untraced) / untraced * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[5.0], 0.9), 5.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn beyond_counts_strictly_greater_samples() {
        let v = [1.0, 2.0, 2.0, 3.0, 4.0];
        assert_eq!(beyond(&v, 2.0), 2);
        assert_eq!(beyond(&v, 4.0), 0);
        assert_eq!(beyond(&v, 0.5), 5);
    }

    fn class(name: &str, count: usize, median: f64) -> Class {
        Class {
            name: name.into(),
            count,
            median,
        }
    }

    #[test]
    fn an_even_backend_split_puts_the_median_on_a_boundary() {
        let even = [class("analytic", 50, 0.2), class("simulation", 50, 0.6)];
        assert_eq!(class_boundaries(&even), vec![0.5]);
        assert_eq!(boundary_violations(&even), vec![(0.5, 0.5)]);
        // 30/70: the boundary is 20 points from p50 and 60 from p90.
        let skewed = [class("analytic", 30, 0.2), class("simulation", 70, 0.6)];
        assert!(boundary_violations(&skewed).is_empty());
        // Order follows latency, not listing: a slow 88% class leaves
        // its boundary at 12%, a fast 88% class at 88% — near p90.
        let fast_bulk = [class("slow", 12, 0.9), class("fast", 88, 0.1)];
        assert_eq!(class_boundaries(&fast_bulk), vec![0.88]);
        assert_eq!(boundary_violations(&fast_bulk).len(), 1);
        assert!(boundary_violations(&[class("only", 10, 1.0)]).is_empty());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = Interval { start: 0, end: 100 };
        assert_eq!(self_time(span, &[]), 100);
        let kids = [
            Interval { start: 10, end: 30 },
            Interval { start: 20, end: 40 },
            Interval {
                start: 90,
                end: 120,
            },
        ];
        // Covered: [10, 40) and [90, 100) → 40 of 100.
        assert_eq!(self_time(span, &kids), 60);
    }

    #[test]
    fn reconciliation_is_the_unattributed_remainder() {
        let layers = vec![("a".to_string(), 120.0), ("b".to_string(), 30.5)];
        assert_eq!(reconcile(200.0, &layers), 49.5);
        assert_eq!(reconcile(100.0, &layers), -50.5);
        assert!((overhead_pct(110.0, 100.0) - 10.0).abs() < 1e-9);
    }
}
