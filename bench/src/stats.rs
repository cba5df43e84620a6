//! Measurement arithmetic: the shared monotonic clock, percentiles,
//! window aggregation, the open-loop pacer and the quartile spread the
//! noise bounds are set from.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds on the process-wide monotonic clock. Every generator,
/// wrapper and control thread stamps with this one clock, so spans taken
/// on different threads subtract meaningfully.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending slice, by linear
/// interpolation between the two nearest ranks. 0 for an empty slice.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of an unordered slice (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 0.5)
}

/// Mean of a slice (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method): rank `i·(n+1)/4`, interpolated,
/// clamped to the sample. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The distance between the first and third quartile as a share of the
/// median: the run-to-run spread the benchmark's bounds are set from.
pub fn quartile_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// Width of the windows throughput, the over-limit share and the late
/// share are reduced over.
pub const WINDOW_NS: u64 = 250_000_000;

/// Latency samples of one phase, stamped with their completion time so
/// they can be cut into fixed windows afterwards. Preallocated: `push`
/// never allocates until `capacity` is exceeded (then samples are
/// dropped and counted, never reallocated mid-phase).
pub struct LatencyLog {
    /// (completion time, latency), both in ns on [`now_ns`]'s clock.
    samples: Vec<(u64, u32)>,
    dropped: u64,
}

/// The window latency percentiles are taken over before the median over
/// windows: long enough to hold 1 000 samples at `samples_per_s` (ten
/// beyond the p99), never shorter than 25 ms. Short on purpose: this
/// host deschedules a busy thread for 1–8 ms several times a second, and
/// only windows shorter than the gap between two such stalls can show
/// the program's own tail instead of the host's.
pub fn latency_window_ns(samples_per_s: f64) -> u64 {
    ((1_000.0 / samples_per_s.max(1.0)) * 1e9).max(25e6) as u64
}

/// What a [`LatencyLog`] reduces to.
#[derive(Debug, Clone, Default)]
pub struct LatencySummary {
    /// Median over windows of each window's p50, µs.
    pub p50_us: f64,
    /// Lower quartile over windows of each window's p99, µs: the tail a
    /// user sees in the quieter quarter of the run. On the reference VM a
    /// third of all 25-ms windows contain a host stall long enough to own
    /// that window's p99, so the *median* window flips between two modes
    /// from run to run (spread 0.2–0.35) where the lower quartile holds
    /// still (0.04–0.22). A slowdown of the program's own tail moves
    /// every window, and with them this quartile.
    pub p99_us: f64,
    /// Median over windows of each window's p99, µs: includes whatever
    /// disturbs half the windows.
    pub p99_median_us: f64,
    /// The plain p99 of every sample, µs: includes every host stall and
    /// every backlog. On `map_churn` it came out between 0.1 and 18 ms
    /// from one run to the next of the same commit, which no bound can
    /// hold, so it is a per-layer metric.
    pub p99_all_us: f64,
    /// Samples summarised.
    pub samples: u64,
    /// Windows that held enough samples for a p99.
    pub windows: usize,
}

impl LatencyLog {
    pub fn with_capacity(capacity: usize) -> LatencyLog {
        LatencyLog {
            samples: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    #[inline]
    pub fn push(&mut self, done_ns: u64, latency_ns: u64) {
        if self.samples.len() < self.samples.capacity() {
            self.samples
                .push((done_ns, latency_ns.min(u32::MAX as u64) as u32));
        } else {
            self.dropped += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples that did not fit the preallocated buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The share of samples slower than `limit_ns` in the median
    /// `window_ns` window (by completion time) from `start_ns`: what the
    /// whole phase's share would be without the windows a host stall fell
    /// into. (On the reference VM one 300-ms hiccup — 5 % of a 6-s phase —
    /// turns up in about one run in twenty.)
    pub fn over_limit_share(&self, start_ns: u64, window_ns: u64, limit_ns: u64) -> f64 {
        let mut windows: Vec<(u64, u64)> = Vec::new();
        for &(done, lat) in &self.samples {
            let w = (done.saturating_sub(start_ns) / window_ns.max(1)) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, (0, 0));
            }
            windows[w].0 += 1;
            windows[w].1 += u64::from(lat as u64 > limit_ns);
        }
        let shares: Vec<f64> = windows
            .iter()
            .filter(|(n, _)| *n > 0)
            .map(|(n, over)| *over as f64 / *n as f64)
            .collect();
        median(&shares)
    }

    /// Cuts the samples into `window_ns` windows starting at `start_ns`
    /// and reduces each to its p50 and p99. Windows with fewer than 100
    /// samples (no p99 to speak of) are merged into the whole-phase
    /// fallback: when no window qualifies, the whole log is one window.
    pub fn summarize(&self, start_ns: u64, window_ns: u64) -> LatencySummary {
        let mut buckets: Vec<Vec<f64>> = Vec::new();
        for &(done, lat) in &self.samples {
            let w = (done.saturating_sub(start_ns) / window_ns.max(1)) as usize;
            if buckets.len() <= w {
                buckets.resize_with(w + 1, Vec::new);
            }
            buckets[w].push(lat as f64 / 1_000.0);
        }
        let mut p50s = Vec::new();
        let mut p99s = Vec::new();
        for b in buckets.iter_mut().filter(|b| b.len() >= 100) {
            b.sort_by(f64::total_cmp);
            p50s.push(percentile_sorted(b, 0.50));
            p99s.push(percentile_sorted(b, 0.99));
        }
        let mut all: Vec<f64> = self
            .samples
            .iter()
            .map(|&(_, l)| l as f64 / 1_000.0)
            .collect();
        all.sort_by(f64::total_cmp);
        if p50s.is_empty() && !all.is_empty() {
            p50s.push(percentile_sorted(&all, 0.50));
            p99s.push(percentile_sorted(&all, 0.99));
        }
        p99s.sort_by(f64::total_cmp);
        LatencySummary {
            p50_us: median(&p50s),
            p99_us: percentile_sorted(&p99s, 0.25),
            p99_median_us: percentile_sorted(&p99s, 0.5),
            p99_all_us: percentile_sorted(&all, 0.99),
            samples: self.samples.len() as u64,
            windows: p50s.len(),
        }
    }
}

/// Completions counted per fixed window; throughput is the median
/// window's rate, so a preempted window cannot move it either.
pub struct RateWindows {
    start_ns: u64,
    window_ns: u64,
    counts: Vec<u64>,
}

impl RateWindows {
    /// Windows of `window_ns` from `start_ns`, preallocated for
    /// `max_windows`; completions past the last window are ignored.
    pub fn new(start_ns: u64, window_ns: u64, max_windows: usize) -> RateWindows {
        RateWindows {
            start_ns,
            window_ns: window_ns.max(1),
            counts: vec![0; max_windows],
        }
    }

    #[inline]
    pub fn add(&mut self, done_ns: u64, n: u64) {
        let w = (done_ns.saturating_sub(self.start_ns) / self.window_ns) as usize;
        if let Some(c) = self.counts.get_mut(w) {
            *c += n;
        }
    }

    /// Median completions per second over the windows that ended before
    /// `end_ns` (the last, partial window is left out).
    pub fn median_rate(&self, end_ns: u64) -> f64 {
        let full = (end_ns.saturating_sub(self.start_ns) / self.window_ns) as usize;
        let rates: Vec<f64> = self.counts[..full.min(self.counts.len())]
            .iter()
            .map(|c| *c as f64 * 1e9 / self.window_ns as f64)
            .collect();
        median(&rates)
    }
}

/// The open-loop schedule: operation `k` is due at `start + k·interval`
/// whatever happened to the operations before it. The generator asks
/// which operations are due *now*; one that stalled (preempted, blocked
/// in a syscall) is handed every operation it missed, each still carrying
/// its original due time, so the stall shows up in their latencies
/// instead of vanishing (no coordinated omission).
pub struct Pacer {
    start_ns: u64,
    interval_ns: f64,
    next: u64,
}

impl Pacer {
    /// `rate` operations per second from `start_ns`.
    pub fn new(start_ns: u64, rate: f64) -> Pacer {
        Pacer {
            start_ns,
            interval_ns: 1e9 / rate.max(1e-9),
            next: 0,
        }
    }

    /// When operation `k` is due.
    #[inline]
    pub fn due_ns(&self, k: u64) -> u64 {
        self.start_ns + (k as f64 * self.interval_ns) as u64
    }

    /// The next operation if it is due at `now_ns`, with its due time;
    /// advances the schedule.
    #[inline]
    pub fn take_due(&mut self, now_ns: u64) -> Option<(u64, u64)> {
        let due = self.due_ns(self.next);
        if due <= now_ns {
            let k = self.next;
            self.next += 1;
            Some((k, due))
        } else {
            None
        }
    }
}

/// How late the generator ran: send time minus due time per operation.
#[derive(Debug, Clone)]
pub struct Lateness {
    pub sends: u64,
    /// Sends more than [`Lateness::LATE_NS`] after their due time.
    pub late: u64,
    pub max_late_ns: u64,
    /// (sends, late) per [`WINDOW_NS`] of due time, from the first send.
    windows: Vec<(u32, u32)>,
    first_due_ns: u64,
}

impl Default for Lateness {
    fn default() -> Lateness {
        Lateness {
            sends: 0,
            late: 0,
            max_late_ns: 0,
            // Four minutes' worth: `record` does not allocate in a run.
            windows: Vec::with_capacity(1024),
            first_due_ns: 0,
        }
    }
}

impl Lateness {
    /// A send this far behind its due time counts as late.
    pub const LATE_NS: u64 = 200_000;

    #[inline]
    pub fn record(&mut self, due_ns: u64, sent_ns: u64) {
        let d = sent_ns.saturating_sub(due_ns);
        if self.sends == 0 {
            self.first_due_ns = due_ns;
        }
        let w = (due_ns.saturating_sub(self.first_due_ns) / WINDOW_NS) as usize;
        if self.windows.len() <= w {
            self.windows.resize(w + 1, (0, 0));
        }
        self.sends += 1;
        self.windows[w].0 += 1;
        if d > Self::LATE_NS {
            self.late += 1;
            self.windows[w].1 += 1;
        }
        self.max_late_ns = self.max_late_ns.max(d);
    }

    /// The share of late sends in the median window. A generator that
    /// cannot keep its schedule is late in every window; a host stall
    /// makes it late in one, and that one stall (150 ms of a 2-s phase is
    /// 0.07) is not a reason to call the whole run invalid — the sends it
    /// delayed are timed from their due times all the same.
    pub fn late_share(&self) -> f64 {
        let shares: Vec<f64> = self
            .windows
            .iter()
            .filter(|(n, _)| *n > 0)
            .map(|(n, late)| f64::from(*late) / f64::from(*n))
            .collect();
        median(&shares)
    }
}
