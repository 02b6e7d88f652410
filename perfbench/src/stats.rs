//! Measurement helpers: percentiles, the tail-percentile rule, open-loop
//! schedule accounting, verdict digests and span self time. Everything
//! here is pure so the unit tests at the bottom pin the arithmetic.

/// Nearest-rank quantile of `sorted` (ascending) at `q` in `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank quantile `q` of `n`
/// samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The tail percentiles a report may name, highest first.
pub const TAIL_CANDIDATES: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// The highest candidate percentile that still has at least ten samples
/// beyond it — the tail a report may honestly claim for `n` samples.
/// `None` below 20 samples, where even the median has fewer than ten.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// Sorted copy of the samples.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of the samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// Open-loop request timing: `scheduled` is when the request was due,
/// `sent` when the generator actually sent it, `done` when its reply
/// arrived (all in seconds on one clock). Latency counts from the
/// scheduled time, so a stall that delays later sends is charged to every
/// request it delayed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpenLoopSample {
    pub scheduled: f64,
    pub sent: f64,
    pub done: f64,
}

impl OpenLoopSample {
    /// Latency from the scheduled send time.
    pub fn latency(&self) -> f64 {
        self.done - self.scheduled
    }

    /// How far behind schedule the generator sent this request.
    pub fn lateness(&self) -> f64 {
        (self.sent - self.scheduled).max(0.0)
    }
}

/// Scheduled send time of request `i` at `rate` requests per second.
pub fn scheduled_at(i: u64, rate: f64) -> f64 {
    i as f64 / rate
}

/// Summary of one open-loop phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpenLoopSummary {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// Largest lateness of any send.
    pub max_lateness: f64,
    /// Mean lateness over the last quarter of sends minus that over the
    /// first quarter: positive when the generator keeps falling further
    /// behind (a growing backlog).
    pub lateness_growth: f64,
    pub completed: usize,
}

/// Summarises an open-loop phase (samples in send order).
pub fn summarize_open_loop(samples: &[OpenLoopSample]) -> OpenLoopSummary {
    assert!(!samples.is_empty(), "open-loop phase sent nothing");
    let lat: Vec<f64> = samples.iter().map(OpenLoopSample::latency).collect();
    let s = sorted(&lat);
    let quarter = (samples.len() / 4).max(1);
    let mean = |xs: &[OpenLoopSample]| {
        xs.iter().map(OpenLoopSample::lateness).sum::<f64>() / xs.len() as f64
    };
    OpenLoopSummary {
        p50: quantile(&s, 0.5),
        p90: quantile(&s, 0.9),
        p99: quantile(&s, 0.99),
        max_lateness: samples
            .iter()
            .map(OpenLoopSample::lateness)
            .fold(0.0, f64::max),
        lateness_growth: mean(&samples[samples.len() - quarter..]) - mean(&samples[..quarter]),
        completed: samples.len(),
    }
}

/// The median over `windows` equal windows (in send order) of each
/// window's latency quantile `q`. A host stall that lasts less than half
/// the phase then moves the result by at most a window's worth, while a
/// slower program moves every window.
pub fn windowed_quantile(samples: &[OpenLoopSample], windows: usize, q: f64) -> f64 {
    let per = samples.len().div_ceil(windows.max(1)).max(1);
    let per_window: Vec<f64> = samples
        .chunks(per)
        .map(|w| {
            quantile(
                &sorted(&w.iter().map(OpenLoopSample::latency).collect::<Vec<_>>()),
                q,
            )
        })
        .collect();
    median(&per_window)
}

/// The rate at which a latency score crosses `slo`, from scores measured
/// at ascending `rates`: log-log interpolation between the last rate of
/// the passing prefix and the first rate over the limit. The top rate when
/// every rate passes. When even the first rate fails, the first rate
/// scaled down by how far it missed (`rate × slo / score`), so a slow
/// host reads as a low rate rather than as no result.
pub fn slo_crossing(rates: &[f64], scores: &[f64], slo: f64) -> f64 {
    assert!(
        !rates.is_empty() && rates.len() == scores.len(),
        "one score per rate"
    );
    match scores.iter().position(|&s| s.is_nan() || s > slo) {
        None => rates[rates.len() - 1],
        Some(0) if scores[0].is_finite() => rates[0] * slo / scores[0],
        Some(0) => 0.0,
        Some(i) => {
            let (r0, r1) = (rates[i - 1], rates[i]);
            let (s0, s1) = (scores[i - 1].max(1e-9), scores[i]);
            if !s1.is_finite() {
                return r0;
            }
            let t = (slo.ln() - s0.ln()) / (s1.ln() - s0.ln());
            r0 * (r1 / r0).powf(t.clamp(0.0, 1.0))
        }
    }
}

/// 64-bit FNV-1a, the verdict-digest hash (stable across builds and runs).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A model's verdict digest: per-predicate truth counts, a hash of every
/// segment atom's verdict in segment order, a hash of the rendered true
/// atoms and hashes of the source-query answers. Two solves agree iff
/// their digests are equal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// `(predicate, true, false, unknown)`, sorted by predicate name.
    pub counts: Vec<(String, usize, usize, usize)>,
    /// Hash of the verdicts in chase-segment order (the chase is shared by
    /// every engine, so the order is too).
    pub verdict_hash: u64,
    /// Hash of `render_true()`; `None` when not computed (rendering deep
    /// Skolem terms costs more than a load, so not every load pays it).
    pub render_hash: Option<u64>,
    /// One `(answer count, hash of the sorted rendered tuples)` per source
    /// query, in source order.
    pub answers: Vec<(usize, u64)>,
}

impl Digest {
    /// Line form, one fact per line, as the oracle process prints it.
    pub fn to_lines(&self) -> String {
        let mut out = String::new();
        for (p, t, f, u) in &self.counts {
            out.push_str(&format!("count {p} {t} {f} {u}\n"));
        }
        out.push_str(&format!("verdicts {}\n", self.verdict_hash));
        if let Some(h) = self.render_hash {
            out.push_str(&format!("render {h}\n"));
        }
        for (n, h) in &self.answers {
            out.push_str(&format!("answer {n} {h}\n"));
        }
        out
    }

    /// Parses [`Digest::to_lines`]; ignores lines of other kinds.
    pub fn from_lines(text: &str) -> Result<Digest, String> {
        let mut d = Digest::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize| -> Result<u64, String> {
                f.get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| format!("bad digest line `{line}`"))
            };
            match f.first() {
                Some(&"count") => d.counts.push((
                    f.get(1).ok_or("count without predicate")?.to_string(),
                    num(2)? as usize,
                    num(3)? as usize,
                    num(4)? as usize,
                )),
                Some(&"verdicts") => d.verdict_hash = num(1)?,
                Some(&"render") => d.render_hash = Some(num(1)?),
                Some(&"answer") => d.answers.push((num(1)? as usize, num(2)?)),
                _ => {}
            }
        }
        Ok(d)
    }

    /// Equality on everything `other` computed: a digest without a render
    /// hash matches on counts, verdicts and answers alone.
    pub fn matches(&self, other: &Digest) -> bool {
        self.counts == other.counts
            && self.verdict_hash == other.verdict_hash
            && self.answers == other.answers
            && (other.render_hash.is_none() || self.render_hash == other.render_hash)
    }
}

/// A recorded span: `[start, end)` in nanoseconds on one clock, with the
/// index of the span that caused it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_tail(19), None);
        assert_eq!(highest_supported_tail(20), Some(0.5));
        assert_eq!(highest_supported_tail(99), Some(0.5));
        // 100 loads: exactly ten samples lie beyond p90.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(highest_supported_tail(100), Some(0.9));
        assert_eq!(highest_supported_tail(999), Some(0.9));
        assert_eq!(highest_supported_tail(1000), Some(0.99));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn open_loop_latency_counts_from_schedule() {
        // Request due at 1.0 s, sent late at 1.004 s, answered at 1.005 s:
        // the user waited 5 ms, not the 1 ms the server saw.
        let s = OpenLoopSample {
            scheduled: 1.0,
            sent: 1.004,
            done: 1.005,
        };
        assert!((s.latency() - 0.005).abs() < 1e-12);
        assert!((s.lateness() - 0.004).abs() < 1e-12);
        // Early sends never report negative lateness.
        let early = OpenLoopSample {
            scheduled: 2.0,
            sent: 1.9999,
            done: 2.0001,
        };
        assert_eq!(early.lateness(), 0.0);
        assert_eq!(scheduled_at(500, 1000.0), 0.5);
    }

    #[test]
    fn lateness_growth_detects_a_backlog() {
        let on_time: Vec<OpenLoopSample> = (0..100)
            .map(|i| {
                let t = scheduled_at(i, 100.0);
                OpenLoopSample {
                    scheduled: t,
                    sent: t,
                    done: t + 0.0002,
                }
            })
            .collect();
        let s = summarize_open_loop(&on_time);
        assert_eq!(s.lateness_growth, 0.0);
        assert_eq!(s.max_lateness, 0.0);
        assert!((s.p99 - 0.0002).abs() < 1e-9);
        // A server needing 15 ms per request at 100 req/s falls 5 ms
        // further behind with every request.
        let mut behind = Vec::new();
        let mut free_at = 0.0f64;
        for i in 0..100 {
            let t = scheduled_at(i, 100.0);
            let sent = t.max(free_at);
            free_at = sent + 0.015;
            behind.push(OpenLoopSample {
                scheduled: t,
                sent,
                done: free_at,
            });
        }
        let s = summarize_open_loop(&behind);
        assert!(s.lateness_growth > 0.3, "{s:?}");
        assert!(s.p99 > s.p50 && s.p50 > 0.015);
        assert_eq!(s.completed, 100);
    }

    #[test]
    fn windowed_quantile_discounts_a_short_stall() {
        let at = |i: u64, lat: f64| OpenLoopSample {
            scheduled: scheduled_at(i, 1000.0),
            sent: scheduled_at(i, 1000.0),
            done: scheduled_at(i, 1000.0) + lat,
        };
        // 800 reads at 100 µs, the first 300 of them stalled to 5 ms.
        let samples: Vec<_> = (0..800)
            .map(|i| at(i, if i < 300 { 0.005 } else { 0.0001 }))
            .collect();
        assert!((summarize_open_loop(&samples).p99 - 0.005).abs() < 1e-9);
        assert!((windowed_quantile(&samples, 8, 0.99) - 0.0001).abs() < 1e-9);
        // A uniformly slower stream moves the windowed value with it.
        let slow: Vec<_> = (0..800).map(|i| at(i, 0.0002)).collect();
        assert!((windowed_quantile(&slow, 8, 0.5) - 0.0002).abs() < 1e-9);
    }

    #[test]
    fn slo_crossing_interpolates_between_pass_and_fail() {
        let rates = [1000.0, 2000.0, 4000.0];
        // Crosses exactly halfway in log space between 2000 and 4000.
        let x = slo_crossing(&rates, &[0.0001, 0.0005, 0.002], 0.001);
        assert!((x - 2000.0 * 2f64.sqrt()).abs() < 1e-6, "{x}");
        assert_eq!(slo_crossing(&rates, &[0.0001; 3], 0.001), 4000.0);
        // Even the first rate misses by 2x: half the first rate.
        assert_eq!(slo_crossing(&rates, &[0.002, 0.0001, 0.0001], 0.001), 500.0);
        // A saturated rate (no verdict) stops at the last passing one.
        assert_eq!(
            slo_crossing(&rates, &[0.0001, f64::INFINITY, f64::INFINITY], 0.001),
            1000.0
        );
        // Only the passing prefix counts.
        let x = slo_crossing(&rates, &[0.0001, 0.01, 0.0001], 0.001);
        assert!(x > 1000.0 && x < 2000.0);
    }

    #[test]
    fn digests_round_trip_and_compare() {
        let d = Digest {
            counts: vec![("p".into(), 3, 1, 0), ("win".into(), 5, 4, 2)],
            verdict_hash: fnv1a(&[1, 0, 2]),
            render_hash: Some(fnv1a(b"p(a)\np(b)")),
            answers: vec![(2, fnv1a(b"a\nb")), (0, fnv1a(b""))],
        };
        let back = Digest::from_lines(&d.to_lines()).unwrap();
        assert_eq!(back, d);
        assert!(d.matches(&back));
        let mut other = d.clone();
        other.counts[1].3 = 3;
        assert!(!d.matches(&other));
        let mut other = d.clone();
        other.verdict_hash ^= 1;
        assert!(!d.matches(&other));
        let mut other = d.clone();
        other.render_hash = Some(1);
        assert!(!d.matches(&other));
        // A quick digest (no render hash) still compares everything else.
        let mut quick = d.clone();
        quick.render_hash = None;
        assert!(d.matches(&quick));
        quick.answers[0].0 = 3;
        assert!(!d.matches(&quick));
        assert_ne!(fnv1a(b"win(n1)"), fnv1a(b"win(n2)"));
        assert!(Digest::from_lines("render x").is_err());
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let span = |name, start, end, parent| Span {
            name,
            start,
            end,
            parent,
            op: 0,
        };
        let spans = vec![
            span("op", 0, 100, None),
            span("chase", 10, 40, Some(0)),
            span("ground", 30, 60, Some(0)), // overlaps chase by 10
            span("match", 12, 20, Some(1)),
            span("late", 90, 120, Some(0)), // runs past its parent's end
        ];
        let st = self_times(&spans);
        // op: 100 minus the union [10,60) ∪ [90,100) = 60 covered.
        assert_eq!(st[0], 40);
        assert_eq!(st[1], 22);
        assert_eq!(st[2], 30);
        assert_eq!(st[3], 8);
        assert_eq!(st[4], 30);
    }
}
