//! The linear K-Hop run-scanning kernel.
//!
//! Algorithm 2 of the paper models the healthy cluster as a graph and finds
//! its connected components with a DFS — but on a K-Hop line the components
//! have a much simpler characterisation: two healthy positions stay connected
//! exactly when no run of `K` or more *consecutive* faulty positions lies
//! between them (the farthest backup link reaches distance `K`, bypassing up
//! to `K − 1` failures). The healthy components are therefore the maximal
//! runs of healthy positions *not* severed by a `≥ K` fault run, and a single
//! left-to-right scan discovers them with no graph, no DFS and no
//! allocations.
//!
//! This module is that scan, shared by every consumer of the component
//! structure: the orchestrator's `orchestrate_dcn_free` cuts TP groups from
//! the runs, [`KHopRing::healthy_segments`](crate::KHopRing::healthy_segments)
//! materialises them as ring segments, and the utilization fast path counts
//! their healthy nodes without materialising anything. The graph + DFS
//! formulation survives as a `#[cfg(test)]` oracle in the orchestrator,
//! pinned bit-for-bit to this kernel by proptests.

/// Consumer of a K-Hop run scan.
///
/// The kernel walks the positions in ascending order and reports every
/// healthy item via [`healthy`](Self::healthy); whenever a run of `K`
/// consecutive faulty positions is crossed it calls [`cut`](Self::cut)
/// exactly once — the line is severed there, so the healthy items before and
/// after the cut belong to different components. A cut may be reported before
/// the first healthy item (a leading fault run) or after the last one; sinks
/// must treat cutting an empty run as a no-op.
pub trait RunSink<T> {
    /// The next healthy item, in scan order.
    fn healthy(&mut self, item: T);
    /// `K` consecutive faulty positions: the current run (if any) ends here.
    fn cut(&mut self);
}

/// Runs the linear K-Hop scan over `items`, classifying each with `faulty`
/// and feeding the run structure to `sink`. O(items), allocation-free.
///
/// `k` is the hop reach: a run of *fewer than* `k` consecutive faulty items
/// is bypassed by backup links; `k` or more sever the line.
pub fn scan_khop_runs<T, I, F, S>(items: I, k: usize, faulty: F, sink: &mut S)
where
    I: IntoIterator<Item = T>,
    F: FnMut(&T) -> bool,
    S: RunSink<T>,
{
    scan_khop_runs_from(0, items, k, faulty, sink);
}

/// [`scan_khop_runs`] resumed mid-line: `gap` is the number of consecutive
/// faulty positions immediately before `items` (a gap of `k` or more has
/// already been cut). Returns the trailing gap, so a line scanned in pieces
/// reports exactly what one scan of the whole line would.
pub fn scan_khop_runs_from<T, I, F, S>(
    mut gap: usize,
    items: I,
    k: usize,
    mut faulty: F,
    sink: &mut S,
) -> usize
where
    I: IntoIterator<Item = T>,
    F: FnMut(&T) -> bool,
    S: RunSink<T>,
{
    assert!(k > 0, "K must be at least 1");
    for item in items {
        if faulty(&item) {
            gap += 1;
            if gap == k {
                sink.cut();
            }
        } else {
            gap = 0;
            sink.healthy(item);
        }
    }
    gap
}

/// A [`RunSink`] that only counts: healthy items per run, plus the first and
/// last healthy positions of the whole scan (for the closed-ring wraparound
/// merge). Used by the utilization fast paths, which never need the nodes
/// themselves.
#[derive(Debug, Default)]
pub struct RunCounter {
    /// Healthy-item count of every completed (non-empty) run, in scan order.
    pub runs: Vec<usize>,
    /// Scan position of the first healthy item, if any.
    pub first_healthy: Option<usize>,
    /// Scan position of the last healthy item seen so far.
    pub last_healthy: usize,
    current: usize,
}

impl RunCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Closes the trailing run; call once after the scan.
    pub fn finish(&mut self) {
        if self.current > 0 {
            self.runs.push(self.current);
            self.current = 0;
        }
    }
}

impl RunSink<usize> for RunCounter {
    fn healthy(&mut self, pos: usize) {
        if self.first_healthy.is_none() {
            self.first_healthy = Some(pos);
        }
        self.last_healthy = pos;
        self.current += 1;
    }

    fn cut(&mut self) {
        if self.current > 0 {
            self.runs.push(self.current);
            self.current = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(len: usize, k: usize, faulty: &[usize]) -> Vec<usize> {
        let mut counter = RunCounter::new();
        scan_khop_runs(0..len, k, |&i| faulty.contains(&i), &mut counter);
        counter.finish();
        counter.runs
    }

    #[test]
    fn healthy_line_is_one_run() {
        assert_eq!(runs(10, 2, &[]), vec![10]);
    }

    #[test]
    fn short_fault_runs_are_bypassed() {
        assert_eq!(runs(10, 2, &[4]), vec![9]);
        assert_eq!(runs(10, 3, &[4, 5]), vec![8]);
    }

    #[test]
    fn k_consecutive_faults_cut_the_line() {
        assert_eq!(runs(10, 2, &[4, 5]), vec![4, 4]);
        assert_eq!(runs(10, 1, &[4]), vec![4, 5]);
    }

    #[test]
    fn leading_and_trailing_fault_runs_do_not_create_empty_runs() {
        assert_eq!(runs(10, 2, &[0, 1, 8, 9]), vec![6]);
        assert_eq!(runs(4, 2, &[0, 1, 2, 3]), Vec::<usize>::new());
    }

    #[test]
    fn counter_tracks_scan_extremes() {
        let mut counter = RunCounter::new();
        scan_khop_runs(0..10, 2, |&i| !(2..=7).contains(&i), &mut counter);
        counter.finish();
        assert_eq!(counter.first_healthy, Some(2));
        assert_eq!(counter.last_healthy, 7);
    }

    #[test]
    fn a_line_scanned_in_pieces_matches_one_scan() {
        let faulty = [3usize, 4, 9, 10, 11, 15];
        let whole = runs(20, 2, &faulty);
        for split in 0..=20 {
            let mut counter = RunCounter::new();
            let gap = scan_khop_runs_from(0, 0..split, 2, |i| faulty.contains(i), &mut counter);
            scan_khop_runs_from(gap, split..20, 2, |i| faulty.contains(i), &mut counter);
            counter.finish();
            assert_eq!(counter.runs, whole, "split at {split}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_k_is_rejected() {
        let mut counter = RunCounter::new();
        scan_khop_runs(0..4, 0, |_| false, &mut counter);
    }
}
