//! Weighted histograms over logarithmic bins.
//!
//! Figures 5 and 7 show "percent of client demand" per log-scaled
//! client–LDNS-distance bin; [`Histogram`] with [`LogBins`] reproduces that
//! view directly.

use serde::{Deserialize, Serialize};

/// Logarithmically spaced bins spanning `[lo, hi)` with `per_decade` bins
/// per factor of ten. Values below `lo` are clamped into the first bin
/// (the paper's distance figures start at 10 miles and fold everything
/// closer into the left edge).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogBins {
    /// Lower edge of the first bin; must be positive.
    pub lo: f64,
    /// Upper edge of the last bin.
    pub hi: f64,
    /// Bins per decade.
    pub per_decade: usize,
}

impl LogBins {
    /// The bin layout used by the paper's distance histograms:
    /// 10 to 12,500 miles (the antipodal max), 8 bins per decade.
    pub fn paper_distance_miles() -> Self {
        LogBins {
            lo: 10.0,
            hi: 12_500.0,
            per_decade: 8,
        }
    }

    fn count(&self) -> usize {
        let decades = (self.hi / self.lo).log10();
        (decades * self.per_decade as f64).ceil() as usize
    }

    fn index(&self, value: f64) -> Option<usize> {
        if value >= self.hi {
            return None;
        }
        let v = value.max(self.lo);
        let idx = ((v / self.lo).log10() * self.per_decade as f64).floor() as usize;
        Some(idx.min(self.count() - 1))
    }

    fn edges(&self, idx: usize) -> (f64, f64) {
        let lo = self.lo * 10f64.powf(idx as f64 / self.per_decade as f64);
        let hi = self.lo * 10f64.powf((idx + 1) as f64 / self.per_decade as f64);
        (lo, hi.min(self.hi))
    }
}

/// One rendered histogram bar.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Bar {
    /// Lower bin edge (inclusive).
    pub lo: f64,
    /// Upper bin edge (exclusive).
    pub hi: f64,
    /// Total weight in the bin.
    pub weight: f64,
    /// Weight as a percentage of total weight across all bins + overflow.
    pub percent: f64,
}

/// A weighted histogram.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    bins: LogBins,
    weights: Vec<f64>,
    /// Weight of observations at/above the top edge.
    overflow: f64,
}

impl Histogram {
    /// Creates a histogram with logarithmic bins.
    pub fn log(bins: LogBins) -> Self {
        assert!(
            bins.lo > 0.0 && bins.hi > bins.lo && bins.per_decade > 0,
            "invalid log bins"
        );
        let n = bins.count();
        Histogram {
            bins,
            weights: vec![0.0; n],
            overflow: 0.0,
        }
    }

    /// Adds a weighted observation. Values at/above the top edge are
    /// counted in the overflow bucket; values below the bottom edge fall in
    /// the first bin.
    pub fn add(&mut self, value: f64, weight: f64) {
        if !value.is_finite() || weight <= 0.0 {
            return;
        }
        match self.bins.index(value) {
            Some(i) => self.weights[i] += weight,
            None => self.overflow += weight,
        }
    }

    /// Total weight including overflow.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum::<f64>() + self.overflow
    }

    /// Weight captured by the overflow bucket.
    pub fn overflow_weight(&self) -> f64 {
        self.overflow
    }

    /// Renders the bars with percentages of total weight.
    pub fn bars(&self) -> Vec<Bar> {
        let total = self.total_weight();
        let denom = if total > 0.0 { total } else { 1.0 };
        self.weights
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let (lo, hi) = self.bins.edges(i);
                Bar {
                    lo,
                    hi,
                    weight: *w,
                    percent: 100.0 * w / denom,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_bins_have_geometric_edges() {
        let lb = LogBins {
            lo: 10.0,
            hi: 1000.0,
            per_decade: 1,
        };
        let h = Histogram::log(lb);
        let bars = h.bars();
        assert_eq!(bars.len(), 2);
        assert!((bars[0].lo - 10.0).abs() < 1e-9);
        assert!((bars[0].hi - 100.0).abs() < 1e-6);
        assert!((bars[1].hi - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn log_binning_places_values() {
        let mut h = Histogram::log(LogBins {
            lo: 10.0,
            hi: 10_000.0,
            per_decade: 1,
        });
        h.add(15.0, 1.0); // [10, 100)
        h.add(150.0, 1.0); // [100, 1000)
        h.add(5000.0, 1.0); // [1000, 10000)
        h.add(3.0, 1.0); // clamped into first bin
        h.add(20_000.0, 1.0); // overflow
        let bars = h.bars();
        assert_eq!(bars[0].weight, 2.0);
        assert_eq!(bars[1].weight, 1.0);
        assert_eq!(bars[2].weight, 1.0);
        assert_eq!(h.overflow_weight(), 1.0);
    }

    #[test]
    fn percentages_sum_to_100() {
        let mut h = Histogram::log(LogBins::paper_distance_miles());
        for v in [12.0, 40.0, 180.0, 950.0, 4200.0, 11_000.0] {
            h.add(v, 2.5);
        }
        let sum: f64 = h.bars().iter().map(|b| b.percent).sum();
        assert!(
            (sum - 100.0).abs() < 1e-9,
            "sum {sum} (no overflow expected)"
        );
    }

    #[test]
    fn bad_inputs_are_ignored() {
        let mut h = Histogram::log(LogBins::paper_distance_miles());
        h.add(f64::NAN, 1.0);
        h.add(50.0, 0.0);
        h.add(50.0, -1.0);
        assert_eq!(h.total_weight(), 0.0);
    }
}
