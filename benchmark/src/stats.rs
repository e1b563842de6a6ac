//! Order statistics for timings: a percentile together with the sample
//! count behind it, and the median with quartiles across repeats.

/// A percentile needs at least this many samples beyond it before the
/// benchmark reports it.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile and the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// Samples the percentile was read from.
    pub n: usize,
    /// Samples ranked strictly beyond it.
    pub beyond: usize,
}

/// The nearest-rank `q` percentile (`0 < q <= 1`) of an ascending
/// sample. An empty sample reads 0 with `n == 0`.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> Percentile {
    let n = sorted.len();
    if n == 0 {
        return Percentile {
            value: 0.0,
            n,
            beyond: 0,
        };
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Percentile {
        value: sorted[rank - 1].into(),
        n,
        beyond: n - rank,
    }
}

/// Sort a sample in place and read one percentile off it.
pub fn percentile_of<T: Copy + Into<f64> + Ord>(sample: &mut [T], q: f64) -> Percentile {
    sample.sort_unstable();
    percentile(sample, q)
}

/// Median and quartiles of a set of repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub p75: f64,
}

/// Median and quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so in-run spreads read the same
/// way as spreads taken across runs. One value is its own spread; an
/// empty set reads all zeros.
pub fn spread(values: &[f64]) -> Spread {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => Spread {
            p25: 0.0,
            median: 0.0,
            p75: 0.0,
        },
        1 => Spread {
            p25: v[0],
            median: v[0],
            p75: v[0],
        },
        len => {
            let quartile = |i: usize| {
                let m = len + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Spread {
                p25: quartile(1),
                median: quartile(2),
                p75: quartile(3),
            }
        }
    }
}

/// The median of a set of values (see [`spread`]).
pub fn median(values: &[f64]) -> f64 {
    spread(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_of_a_thousand_has_ten_beyond() {
        let sample: Vec<u32> = (1..=1000).collect();
        let p = percentile(&sample, 0.99);
        assert_eq!(p.value, 990.0);
        assert_eq!((p.n, p.beyond), (1000, MIN_BEYOND));
        let short: Vec<u32> = (1..=999).collect();
        assert!(percentile(&short, 0.99).beyond < MIN_BEYOND);
    }

    #[test]
    fn nearest_rank_edges() {
        let mut sample = vec![5u32, 1, 3];
        let p50 = percentile_of(&mut sample, 0.5);
        assert_eq!((p50.value, p50.beyond), (3.0, 1));
        assert_eq!(percentile(&sample, 1.0).value, 5.0);
        assert_eq!(percentile(&sample, 1e-9).value, 1.0);
        assert_eq!(percentile::<u32>(&[], 0.5).n, 0);
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s = spread(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.p25, s.median, s.p75), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = spread(&[3.0, 1.0, 2.0]);
        assert_eq!((s.p25, s.median, s.p75), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = spread(&[2.0, 1.0]);
        assert_eq!((s.p25, s.median, s.p75), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0]), 4.0);
    }
}
