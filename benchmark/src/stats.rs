//! The harness's own order statistics (it must not share a latency recorder
//! with the program it measures).

/// Percentile `q` in `[0, 1]` of an ascending slice, by linear interpolation
/// between closest ranks. `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let below = sorted[rank.floor() as usize];
            let above = sorted[rank.ceil() as usize];
            below + (above - below) * rank.fract()
        }
    }
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of an unsorted sample. `NaN` when empty.
pub fn median(mut values: Vec<f64>) -> f64 {
    sort(&mut values);
    percentile(&values, 0.5)
}

/// Tail estimate that one stall cannot own: the phase is cut into three equal
/// time segments, `q` is taken inside each, and the median of the three is
/// reported. `samples` are `(scheduled offset in ns, value)`.
pub fn segmented_percentile(samples: &[(u64, f64)], span_ns: u64, q: f64) -> f64 {
    let mut segments: [Vec<f64>; 3] = Default::default();
    for &(at, value) in samples {
        let slot = (u128::from(at) * 3 / u128::from(span_ns.max(1))).min(2) as usize;
        segments[slot].push(value);
    }
    let per_segment = segments
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(|mut s| {
            sort(&mut s);
            percentile(&s, q)
        })
        .collect();
    median(per_segment)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn one_stalled_segment_does_not_set_the_tail() {
        // Segment 0 stalls (all 100 ms); segments 1 and 2 sit at 1 ms.
        let samples: Vec<(u64, f64)> =
            (0..300).map(|i| (i, if i < 100 { 100.0 } else { 1.0 })).collect();
        assert_eq!(segmented_percentile(&samples, 300, 0.99), 1.0);
    }
}
