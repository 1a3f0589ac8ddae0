//! The numeric helpers every metric goes through: the virtual 30 fps
//! schedule, a percentile that refuses to be under-sampled, and medians.

/// One camera frame interval at 30 fps, in nanoseconds.
pub const FRAME_INTERVAL_NS: f64 = 1e9 / 30.0;

/// A percentile is only reported when at least this many independent
/// samples lie beyond it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Latency of every tick on an open-loop schedule in *virtual* time.
///
/// Cameras send on a fixed schedule whatever the server does, so tick `k`
/// is due at `k · period`. Ticks run back to back on the real clock and
/// only their service times are taken from it:
/// `start_k = max(due_k, done_{k-1})`, `done_k = start_k + service_k`, and
/// every frame of tick `k` has latency `done_k − due_k`. A stall is thereby
/// charged to the ticks queued behind it, and no wall-clock sleep exists for
/// a noisy neighbour to land in. The virtual generator is never late.
pub fn virtual_latencies_ns(service_ns: &[u64], period_ns: f64) -> Vec<f64> {
    let mut done_prev = 0.0f64;
    service_ns
        .iter()
        .enumerate()
        .map(|(k, &service)| {
            let due = k as f64 * period_ns;
            let done = due.max(done_prev) + service as f64;
            done_prev = done;
            done - due
        })
        .collect()
}

/// Work still queued when the tick after the last one falls due, in
/// nanoseconds (zero when the server kept up).
pub fn backlog_end_ns(service_ns: &[u64], period_ns: f64) -> f64 {
    let Some(last) = virtual_latencies_ns(service_ns, period_ns).pop() else {
        return 0.0;
    };
    (last - period_ns).max(0.0)
}

/// Weighted nearest-rank percentile over `(value, weight)` samples.
///
/// Each sample is one tick (the independent unit: all frames of a tick
/// share its latency) weighted by the frames it carried, so the result is a
/// percentile over frames. Zero-weight samples are ignored.
///
/// # Errors
///
/// Refuses when fewer than [`MIN_SAMPLES_BEYOND`] ticks lie beyond the
/// requested percentile: a "p99" over 30 ticks is the maximum, not a p99.
pub fn percentile(samples: &[(f64, u32)], p: f64) -> Result<f64, String> {
    assert!((0.0..1.0).contains(&p), "percentile must be in [0, 1)");
    let mut sorted: Vec<(f64, u32)> = samples.iter().copied().filter(|s| s.1 > 0).collect();
    let beyond = (sorted.len() as f64 * (1.0 - p) + 1e-9).floor() as usize;
    if beyond < MIN_SAMPLES_BEYOND {
        return Err(format!(
            "p{:.0} over {} samples has {} beyond it; {} are required",
            p * 100.0,
            sorted.len(),
            beyond,
            MIN_SAMPLES_BEYOND
        ));
    }
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = sorted.iter().map(|s| u64::from(s.1)).sum();
    let rank = ((p * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (value, weight) in sorted {
        seen += u64::from(weight);
        if seen >= rank {
            return Ok(value);
        }
    }
    unreachable!("rank never exceeds the total weight")
}

/// Element `k` of the result is the smallest `k`-th element over `repeats`.
///
/// Every repeat of a pass does identical work at index `k` (same frames,
/// fresh engine), and on a shared host interference only ever adds time, so
/// the fastest repeat is the best estimate of what the work itself costs. A
/// whole-pass figure, or a per-pass p99 (the 10th slowest of 1,000 ticks),
/// is otherwise mostly made of the host's stalls: on the development host
/// single passes of one run differed by ±15 %.
pub fn fastest_of(repeats: &[&[u64]]) -> Vec<u64> {
    let n = repeats.first().map_or(0, |r| r.len());
    assert!(
        repeats.iter().all(|r| r.len() == n),
        "repeats differ in length"
    );
    (0..n)
        .map(|k| {
            repeats
                .iter()
                .map(|r| r[k])
                .min()
                .expect("at least one repeat")
        })
        .collect()
}

/// Median of a small set of per-pass values (mean of the middle two when
/// the count is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(min, max)` of a set of per-pass values.
pub fn spread(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_charges_a_stall_to_the_ticks_behind_it() {
        // Period 10. Tick 1 stalls for 25: it finishes at 35, so tick 2
        // (due 20) starts at 35 and tick 3 (due 30) at 38.
        let lat = virtual_latencies_ns(&[4, 25, 3, 2, 1], 10.0);
        assert_eq!(lat, vec![4.0, 25.0, 18.0, 10.0, 1.0]);
        // A server that keeps up sees only its own service time.
        assert_eq!(virtual_latencies_ns(&[4, 5, 6], 10.0), vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn backlog_is_what_the_next_tick_would_wait_for() {
        assert_eq!(backlog_end_ns(&[4, 5], 10.0), 0.0);
        // Tick 1 is due at 10 and done at 10 + 25 = 35; the next tick is
        // due at 20 and would wait 15.
        assert_eq!(backlog_end_ns(&[4, 25], 10.0), 15.0);
    }

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let ticks: Vec<(f64, u32)> = (0..999).map(|i| (i as f64, 1)).collect();
        assert!(percentile(&ticks, 0.99).is_err());
        let ticks: Vec<(f64, u32)> = (0..1000).map(|i| (i as f64, 1)).collect();
        assert_eq!(percentile(&ticks, 0.99), Ok(989.0));
        assert_eq!(percentile(&ticks, 0.5), Ok(499.0));
        // The old serve bench's shape: 30 ticks cannot carry a p99.
        let ticks: Vec<(f64, u32)> = (0..30).map(|i| (i as f64, 1)).collect();
        assert!(percentile(&ticks, 0.99).is_err());
    }

    #[test]
    fn percentile_weights_ticks_by_their_frames() {
        // 20 one-frame ticks at 1.0 and 20 three-frame ticks at 2.0: 25 %
        // of frames are at 1.0, so the frame median is 2.0.
        let mut ticks = vec![(1.0, 1); 20];
        ticks.extend(vec![(2.0, 3); 20]);
        assert_eq!(percentile(&ticks, 0.5), Ok(2.0));
        assert_eq!(percentile(&ticks, 0.2), Ok(1.0));
        // Silent ticks are not samples.
        ticks.extend(vec![(9.0, 0); 100]);
        assert_eq!(percentile(&ticks, 0.5), Ok(2.0));
    }

    #[test]
    fn fastest_of_takes_each_index_from_its_quietest_repeat() {
        let a = [5, 9, 3];
        let b = [6, 2, 4];
        assert_eq!(fastest_of(&[&a, &b]), vec![5, 2, 3]);
        assert_eq!(fastest_of(&[&a]), a.to_vec());
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
