//! PFN lists — the payload of XEMEM attachment replies.
//!
//! When an enclave serves a remote attachment it walks its page tables and
//! produces the list of physical frames backing the segment (paper §4.3).
//! The wire representation the paper implies is a flat array of frame
//! numbers (8 bytes per page); [`PfnList`] stores runs of contiguous
//! frames internally so huge lists stay cheap in host memory, and exposes
//! both the flat wire size (used for transfer-cost accounting) and the
//! compressed size (used by the PFN-list-compression ablation bench).

use crate::types::Pfn;
use serde::{Deserialize, Serialize};

/// A run of physically contiguous frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PfnRun {
    /// First frame of the run.
    pub start: Pfn,
    /// Number of frames.
    pub len: u64,
}

/// An ordered list of physical frames, run-length encoded.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PfnList {
    runs: Vec<PfnRun>,
    pages: u64,
}

impl PfnList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from an explicit frame sequence, merging adjacent frames into
    /// runs.
    pub fn from_pages(pfns: impl IntoIterator<Item = Pfn>) -> Self {
        let mut list = PfnList::new();
        for pfn in pfns {
            list.push_run(pfn, 1);
        }
        list
    }

    /// Append `len` frames starting at `start`, merging with the previous
    /// run when adjacent.
    pub fn push_run(&mut self, start: Pfn, len: u64) {
        if len == 0 {
            return;
        }
        self.pages += len;
        if let Some(last) = self.runs.last_mut() {
            if last.start.0 + last.len == start.0 {
                last.len += len;
                return;
            }
        }
        self.runs.push(PfnRun { start, len });
    }

    /// Append another list.
    pub fn extend(&mut self, other: &PfnList) {
        for run in &other.runs {
            self.push_run(run.start, run.len);
        }
    }

    /// Total number of 4 KiB frames.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// True when no frames are present.
    pub fn is_empty(&self) -> bool {
        self.pages == 0
    }

    /// Number of contiguous runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The runs themselves.
    pub fn runs(&self) -> &[PfnRun] {
        &self.runs
    }

    /// Iterate over every frame in order.
    pub fn iter_pages(&self) -> impl Iterator<Item = Pfn> + '_ {
        self.runs
            .iter()
            .flat_map(|r| (0..r.len).map(move |i| r.start.offset(i)))
    }

    /// The frame at page index `idx`, if in range.
    pub fn page(&self, mut idx: u64) -> Option<Pfn> {
        for run in &self.runs {
            if idx < run.len {
                return Some(run.start.offset(idx));
            }
            idx -= run.len;
        }
        None
    }

    /// A sub-list covering pages `[first, first + count)`.
    pub fn slice(&self, first: u64, count: u64) -> Option<PfnList> {
        if first + count > self.pages {
            return None;
        }
        let mut out = PfnList::new();
        let mut skip = first;
        let mut need = count;
        for run in &self.runs {
            if need == 0 {
                break;
            }
            if skip >= run.len {
                skip -= run.len;
                continue;
            }
            let avail = run.len - skip;
            let take = avail.min(need);
            out.push_run(run.start.offset(skip), take);
            need -= take;
            skip = 0;
        }
        Some(out)
    }

    /// True when every run starts past the end of the one before it: the
    /// frames ascend and none repeats.
    pub fn is_ascending(&self) -> bool {
        self.runs
            .windows(2)
            .all(|w| w[0].start.0 + w[0].len <= w[1].start.0)
    }

    /// Frames of `self` in order, minus every frame appearing anywhere in
    /// `other` — set subtraction over run lists, O(runs) when `other`
    /// ascends and O(runs·log runs) otherwise. Used by migration and the
    /// frame-quarantine paths to drop frames from a process's owned list
    /// without materializing per-page hash sets.
    pub fn subtract(&self, other: &PfnList) -> PfnList {
        if !other.is_ascending() {
            let mut runs = other.runs.clone();
            runs.sort_unstable_by_key(|r| r.start);
            runs.dedup_by(|next, kept| {
                let overlaps = next.start.0 <= kept.start.0 + kept.len;
                if overlaps {
                    kept.len = kept.len.max(next.start.0 + next.len - kept.start.0);
                }
                overlaps
            });
            let pages = runs.iter().map(|r| r.len).sum();
            return self.subtract(&PfnList { runs, pages });
        }
        let gone = &other.runs;
        let mut out = PfnList {
            runs: Vec::with_capacity(self.runs.len() + gone.len()),
            pages: 0,
        };
        for run in &self.runs {
            let mut s = run.start.0;
            let e = run.start.0 + run.len;
            let mut i = gone.partition_point(|g| g.start.0 + g.len <= s);
            while s < e {
                if i >= gone.len() || gone[i].start.0 >= e {
                    out.push_run(Pfn(s), e - s);
                    break;
                }
                let (gs, ge) = (gone[i].start.0, gone[i].start.0 + gone[i].len);
                if gs > s {
                    out.push_run(Pfn(s), gs - s);
                }
                s = s.max(ge);
                i += 1;
            }
        }
        out
    }

    /// Size of the flat wire representation (8 bytes per page) — what the
    /// paper's implementation ships between enclaves, used for transfer
    /// cost accounting.
    pub fn wire_bytes(&self) -> u64 {
        self.pages * 8
    }

    /// Size of the run-length-encoded representation (16 bytes per run),
    /// for the compression ablation.
    pub fn compressed_bytes(&self) -> u64 {
        self.runs.len() as u64 * 16
    }
}

impl FromIterator<Pfn> for PfnList {
    fn from_iter<T: IntoIterator<Item = Pfn>>(iter: T) -> Self {
        PfnList::from_pages(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_frames_merge_into_runs() {
        let list = PfnList::from_pages([Pfn(5), Pfn(6), Pfn(7), Pfn(9), Pfn(10)]);
        assert_eq!(list.pages(), 5);
        assert_eq!(list.run_count(), 2);
        assert_eq!(
            list.runs()[0],
            PfnRun {
                start: Pfn(5),
                len: 3
            }
        );
        assert_eq!(
            list.runs()[1],
            PfnRun {
                start: Pfn(9),
                len: 2
            }
        );
    }

    #[test]
    fn iteration_round_trips() {
        let pfns = vec![Pfn(1), Pfn(2), Pfn(100), Pfn(3), Pfn(4)];
        let list = PfnList::from_pages(pfns.clone());
        let back: Vec<Pfn> = list.iter_pages().collect();
        assert_eq!(back, pfns);
    }

    #[test]
    fn indexing_across_runs() {
        let list = PfnList::from_pages([Pfn(10), Pfn(11), Pfn(50)]);
        assert_eq!(list.page(0), Some(Pfn(10)));
        assert_eq!(list.page(1), Some(Pfn(11)));
        assert_eq!(list.page(2), Some(Pfn(50)));
        assert_eq!(list.page(3), None);
    }

    #[test]
    fn slicing_respects_run_boundaries() {
        let list = PfnList::from_pages([Pfn(10), Pfn(11), Pfn(12), Pfn(50), Pfn(51)]);
        let mid = list.slice(1, 3).unwrap();
        let pfns: Vec<Pfn> = mid.iter_pages().collect();
        assert_eq!(pfns, vec![Pfn(11), Pfn(12), Pfn(50)]);
        assert!(list.slice(3, 3).is_none());
        assert_eq!(list.slice(0, 0).unwrap().pages(), 0);
    }

    #[test]
    fn wire_and_compressed_sizes() {
        // One fully contiguous 1024-page run: flat = 8 KiB, RLE = 16 bytes.
        let mut list = PfnList::new();
        list.push_run(Pfn(0), 1024);
        assert_eq!(list.wire_bytes(), 8192);
        assert_eq!(list.compressed_bytes(), 16);
        // Fully scattered: RLE degenerates to 2x flat.
        let scattered = PfnList::from_pages((0..64).map(|i| Pfn(i * 2)));
        assert_eq!(scattered.wire_bytes(), 512);
        assert_eq!(scattered.compressed_bytes(), 1024);
    }

    #[test]
    fn extend_merges_boundary_runs() {
        let mut a = PfnList::from_pages([Pfn(1), Pfn(2)]);
        let b = PfnList::from_pages([Pfn(3), Pfn(9)]);
        a.extend(&b);
        assert_eq!(a.run_count(), 2);
        assert_eq!(a.pages(), 4);
    }

    #[test]
    fn subtract_removes_frames_preserving_order() {
        let owned = PfnList::from_pages((0..10).map(Pfn).chain([Pfn(50), Pfn(51)]));
        let mut retained = PfnList::new();
        retained.push_run(Pfn(3), 4); // 3..7
        retained.push_run(Pfn(51), 1);
        let rest = owned.subtract(&retained);
        let back: Vec<u64> = rest.iter_pages().map(|p| p.0).collect();
        assert_eq!(back, vec![0, 1, 2, 7, 8, 9, 50]);
        // Subtracting everything leaves nothing; subtracting nothing is id.
        assert!(owned.subtract(&owned).is_empty());
        assert_eq!(owned.subtract(&PfnList::new()), owned);
    }

    #[test]
    fn zero_length_push_is_a_noop() {
        let mut list = PfnList::new();
        list.push_run(Pfn(5), 0);
        assert!(list.is_empty());
        assert_eq!(list.run_count(), 0);
    }
}
