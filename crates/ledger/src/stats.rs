//! Sample statistics: the percentile rule, bounded-memory subsampling and
//! FNV-1a digests.

/// Tail percentiles the rule may pick from, lowest first: the share of
/// samples beyond each as `1 / n`, the quantile and its label.
const TAILS: [(usize, f64, &str); 4] = [
    (10, 0.90, "p90"),
    (100, 0.99, "p99"),
    (1_000, 0.999, "p99.9"),
    (10_000, 0.9999, "p99.99"),
];

/// Samples that must lie beyond a percentile before it is quoted.
pub const MIN_BEYOND: usize = 10;

/// The tail percentile a [`Summary`] quotes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Quantile in `(0, 1)`.
    pub q: f64,
    /// Its label, e.g. `"p99"`.
    pub label: &'static str,
    /// The sample at that quantile.
    pub value: f64,
}

/// Median, the highest trustworthy tail percentile and the extremes of
/// one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Highest percentile with at least [`MIN_BEYOND`] samples beyond
    /// it, or `None` when there are too few samples for any.
    pub tail: Option<Tail>,
    /// Largest sample.
    pub max: f64,
}

/// Nearest-rank quantile of ascending `sorted` (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of ascending `sorted`: the mean of the middle pair for even
/// counts, so two-sample sets do not collapse onto one of them.
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest tail quantile that leaves at least [`MIN_BEYOND`] of `n`
/// samples beyond it.
pub fn tail_for(n: usize) -> Option<(f64, &'static str)> {
    TAILS
        .iter()
        .rev()
        .find(|(one_in, _, _)| n / one_in >= MIN_BEYOND)
        .map(|(_, q, label)| (*q, *label))
}

/// Sorts `samples` and summarises them. `None` for an empty set.
pub fn summarize(samples: &mut [f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let tail = tail_for(samples.len()).map(|(q, label)| Tail {
        q,
        label,
        value: quantile(samples, q),
    });
    Some(Summary {
        n: samples.len(),
        p50: median(samples),
        tail,
        max: samples[samples.len() - 1],
    })
}

/// An evenly strided subsample, at most `capacity` long, of a stream whose
/// length is not known in advance. Every value is kept until the buffer
/// fills; then every other kept value is dropped and the stride doubles.
/// The harness's memory therefore does not grow with the tick count of a
/// time-limited window (and `peak_rss_mb` stays the program's), while a
/// median over ≥ capacity / 2 evenly spaced samples loses nothing that
/// matters. Values are nanoseconds, stored as `u32` (saturating at 4.29 s).
#[derive(Debug, Clone)]
pub struct Strided {
    samples: Vec<u32>,
    capacity: usize,
    stride: u64,
    seen: u64,
}

impl Strided {
    /// An empty subsample keeping at most `capacity` values (rounded up
    /// to an even number, so halving keeps the stride's phase).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_multiple_of(2);
        Self {
            samples: Vec::with_capacity(capacity),
            capacity,
            stride: 1,
            seen: 0,
        }
    }

    /// Offers the stream's next value.
    pub fn push(&mut self, value_ns: u64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.samples.len() == self.capacity {
                let mut index = 0usize;
                self.samples.retain(|_| {
                    index += 1;
                    index % 2 == 1
                });
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.samples
                    .push(u32::try_from(value_ns).unwrap_or(u32::MAX));
            }
        }
        self.seen += 1;
    }

    /// Values offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Distance, in stream positions, between kept values.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// The kept values as `f64`, divided by `div` (1e3 for µs, 1e6 for ms).
    pub fn scaled(&self, div: f64) -> Vec<f64> {
        self.samples.iter().map(|&ns| f64::from(ns) / div).collect()
    }

    /// [`summarize`] over the kept values.
    pub fn summarize(&self, div: f64) -> Option<Summary> {
        summarize(&mut self.scaled(div))
    }
}

/// FNV-1a over 64-bit words; the exact-repeat digest of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in, byte by byte.
    pub fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}
