//! Per-enclave physical frame allocation.
//!
//! Pisces hands each enclave a disjoint frame range; the enclave's kernel
//! allocates from its range with a [`FrameAllocator`]. The allocator is a
//! first-fit bitmap allocator with an optional *scatter* policy that
//! deliberately fragments allocations — the paper notes that host frames
//! mapped through XEMEM "are not guaranteed to be contiguous", which is
//! what makes the Palacios memory map grow one red-black-tree entry per
//! page; the scatter policy lets tests and benches reproduce that regime on
//! demand.
//!
//! An allocator manages one or more disjoint frame ranges, each tagged
//! with a [`MemTier`]. The first range is the enclave's *home* range (the
//! partition Pisces carved for it); additional ranges are reserved slices
//! of other tiers (remote-NUMA, CXL expander, NVM) used as migration
//! destinations. Keeping every tier's frames inside the owning enclave's
//! allocator is what lets migration reuse the existing teardown machinery
//! unchanged: frames allocated in any tier free back through the same
//! `free`/`free_run`/`free_list` paths that process exit and crash
//! quarantine already use. General allocation (`alloc`, `alloc_pages`,
//! `alloc_contiguous`) scans ranges in declaration order — home first —
//! so single-range allocators behave exactly as they always did.

use crate::error::MemError;
use crate::pfn_list::PfnList;
use crate::types::Pfn;
use xemem_sim::MemTier;

/// Allocation placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// First-fit: allocations tend to be contiguous runs.
    #[default]
    FirstFit,
    /// Stride-scatter: successive frames are deliberately non-adjacent,
    /// modelling a long-running kernel's fragmented free pool.
    Scatter,
}

/// One contiguous frame range managed by a [`FrameAllocator`].
#[derive(Debug, Clone)]
struct RangeAlloc {
    tier: MemTier,
    base: Pfn,
    frames: u64,
    /// One bit per frame; `true` = allocated.
    bitmap: Vec<u64>,
    free: u64,
    policy: Placement,
    /// Scan start. First-fit keeps it at or below the lowest free frame
    /// (allocation moves it past what it took, frees pull it back), so a
    /// scan from it finds the lowest free frame without rescanning the
    /// full front of the range. Scatter jumps it by a fixed stride.
    cursor: u64,
}

impl RangeAlloc {
    fn new(tier: MemTier, base: Pfn, frames: u64, policy: Placement) -> Self {
        let words = frames.div_ceil(64) as usize;
        RangeAlloc {
            tier,
            base,
            frames,
            bitmap: vec![0; words],
            free: frames,
            policy,
            cursor: 0,
        }
    }

    #[inline]
    fn contains(&self, pfn: Pfn) -> bool {
        pfn.0 >= self.base.0 && pfn.0 - self.base.0 < self.frames
    }

    /// The bitmap words covering frames `[idx, idx + len)`, as
    /// `(word index, mask of the covered bits)` pairs.
    fn word_masks(idx: u64, len: u64) -> impl Iterator<Item = (usize, u64)> {
        let end = idx + len;
        let mut i = idx;
        std::iter::from_fn(move || {
            if i >= end {
                return None;
            }
            let bit = i % 64;
            let span = (64 - bit).min(end - i);
            let mask = if span == 64 {
                !0u64
            } else {
                ((1u64 << span) - 1) << bit
            };
            let word = (i / 64) as usize;
            i += span;
            Some((word, mask))
        })
    }

    /// Mark frames `[idx, idx + len)` allocated, word-wise.
    fn set_run(&mut self, idx: u64, len: u64) {
        for (word, mask) in Self::word_masks(idx, len) {
            self.bitmap[word] |= mask;
        }
    }

    /// First free frame index in `[from, to)`: all-allocated words are
    /// skipped whole, a mixed word is resolved by a trailing-zero count.
    fn next_free(&self, from: u64, to: u64) -> Option<u64> {
        let mut i = from;
        while i < to {
            let free = !self.bitmap[(i / 64) as usize] >> (i % 64);
            if free != 0 {
                let at = i + u64::from(free.trailing_zeros());
                return (at < to).then_some(at);
            }
            i = (i / 64 + 1) * 64;
        }
        None
    }

    /// First allocated frame index in `[from, to)`, or `to`: the mirror of
    /// [`RangeAlloc::next_free`], skipping all-free words.
    fn next_used(&self, from: u64, to: u64) -> u64 {
        let mut i = from;
        while i < to {
            let used = self.bitmap[(i / 64) as usize] >> (i % 64);
            if used != 0 {
                return (i + u64::from(used.trailing_zeros())).min(to);
            }
            i = (i / 64 + 1) * 64;
        }
        to
    }

    fn alloc(&mut self) -> Result<Pfn, MemError> {
        if self.free == 0 {
            return Err(MemError::OutOfFrames {
                requested: 1,
                available: 0,
            });
        }
        if self.policy == Placement::Scatter {
            // Jump the cursor by a large odd stride co-prime with most
            // range sizes so consecutive allocations land far apart.
            self.cursor = (self.cursor + 2_654_435_761) % self.frames;
        }
        let idx = self
            .next_free(self.cursor, self.frames)
            .or_else(|| self.next_free(0, self.cursor))
            .expect("free count said a frame was available");
        self.set_run(idx, 1);
        self.free -= 1;
        if self.policy == Placement::FirstFit {
            self.cursor = (idx + 1) % self.frames;
        }
        Ok(self.base.offset(idx))
    }

    /// Allocate up to `n` frames — exactly those, in exactly the order,
    /// that `n` successive [`RangeAlloc::alloc`] calls would return, and
    /// leaving the same cursor — appending them to `out`. Returns how many
    /// were taken (fewer than `n` only when the range runs dry). First-fit
    /// takes the lowest free stretches from the cursor, whole; scatter
    /// keeps its frame-at-a-time stride.
    fn alloc_upto(&mut self, n: u64, out: &mut PfnList) -> u64 {
        let want = n.min(self.free);
        if self.policy == Placement::Scatter {
            for _ in 0..want {
                let pfn = self.alloc().expect("free count said a frame was available");
                out.push_run(pfn, 1);
            }
            return want;
        }
        let mut taken = 0;
        while taken < want {
            let s = self
                .next_free(self.cursor, self.frames)
                .expect("no free frame lies below the first-fit cursor");
            let e = self.next_used(s, self.frames.min(s + (want - taken)));
            self.set_run(s, e - s);
            out.push_run(self.base.offset(s), e - s);
            taken += e - s;
            self.cursor = e % self.frames;
        }
        self.free -= taken;
        taken
    }

    /// The lowest-addressed run of `n` free frames (first fit), found a
    /// free stretch at a time from the first-fit cursor, below which no
    /// frame is free.
    fn alloc_contiguous(&mut self, n: u64) -> Result<Pfn, MemError> {
        if self.free < n {
            return Err(MemError::OutOfFrames {
                requested: n,
                available: self.free,
            });
        }
        let mut at = match self.policy {
            Placement::FirstFit => self.cursor,
            Placement::Scatter => 0,
        };
        while let Some(s) = self.next_free(at, self.frames) {
            if s + n > self.frames {
                break;
            }
            let e = self.next_used(s, s + n);
            if e - s == n {
                self.set_run(s, n);
                self.free -= n;
                return Ok(self.base.offset(s));
            }
            at = e;
        }
        Err(MemError::OutOfFrames {
            requested: n,
            available: self.free,
        })
    }

    /// Verify that `len` frames from `start` (all inside this range) are
    /// allocated, word-wise. Errors name the first offending frame.
    fn check_run(&self, start: Pfn, len: u64) -> Result<(), MemError> {
        for (word, mask) in Self::word_masks(start.0 - self.base.0, len) {
            let missing = !self.bitmap[word] & mask;
            if missing != 0 {
                let first = word as u64 * 64 + u64::from(missing.trailing_zeros());
                return Err(MemError::BadFree(self.base.offset(first)));
            }
        }
        Ok(())
    }

    /// Clear a validated run, word-wise.
    fn clear_run(&mut self, start: Pfn, len: u64) {
        let idx = start.0 - self.base.0;
        for (word, mask) in Self::word_masks(idx, len) {
            self.bitmap[word] &= !mask;
        }
        self.free += len;
        if self.policy == Placement::FirstFit && idx < self.cursor {
            self.cursor = idx;
        }
    }

    fn is_allocated(&self, pfn: Pfn) -> bool {
        let idx = pfn.0 - self.base.0;
        self.bitmap[(idx / 64) as usize] & (1 << (idx % 64)) != 0
    }
}

/// A bitmap frame allocator over one or more disjoint, tier-tagged frame
/// ranges.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    ranges: Vec<RangeAlloc>,
    policy: Placement,
}

impl FrameAllocator {
    /// An allocator managing `frames` local-DRAM frames starting at
    /// `base` — the single-range form every pre-tier call site uses.
    pub fn new(base: Pfn, frames: u64) -> Self {
        Self::with_policy(base, frames, Placement::FirstFit)
    }

    /// Same, with an explicit placement policy.
    pub fn with_policy(base: Pfn, frames: u64, policy: Placement) -> Self {
        FrameAllocator {
            ranges: vec![RangeAlloc::new(MemTier::LocalDram, base, frames, policy)],
            policy,
        }
    }

    /// Single-range constructor with an explicit home tier (an enclave
    /// whose partition was carved from CXL or NVM capacity).
    pub fn new_in(tier: MemTier, base: Pfn, frames: u64) -> Self {
        FrameAllocator {
            ranges: vec![RangeAlloc::new(tier, base, frames, Placement::FirstFit)],
            policy: Placement::FirstFit,
        }
    }

    /// Append a reserved frame range in `tier`. Ranges must be disjoint;
    /// general allocation scans them in the order they were pushed.
    pub fn push_range(&mut self, tier: MemTier, base: Pfn, frames: u64) {
        debug_assert!(
            !self
                .ranges
                .iter()
                .any(|r| base.0 < r.base.0 + r.frames && r.base.0 < base.0 + frames),
            "tier ranges must be disjoint"
        );
        self.ranges
            .push(RangeAlloc::new(tier, base, frames, self.policy));
    }

    /// First frame of the home range.
    pub fn base(&self) -> Pfn {
        self.ranges[0].base
    }

    /// Total frames managed across all ranges.
    pub fn total(&self) -> u64 {
        self.ranges.iter().map(|r| r.frames).sum()
    }

    /// Frames currently free across all ranges.
    pub fn free_frames(&self) -> u64 {
        self.ranges.iter().map(|r| r.free).sum()
    }

    /// The tier of the home (first) range.
    pub fn home_tier(&self) -> MemTier {
        self.ranges[0].tier
    }

    /// True when this allocator has at least one range in `tier`.
    pub fn has_tier(&self, tier: MemTier) -> bool {
        self.ranges.iter().any(|r| r.tier == tier)
    }

    /// Free frames in ranges of `tier`.
    pub fn free_frames_in(&self, tier: MemTier) -> u64 {
        self.ranges
            .iter()
            .filter(|r| r.tier == tier)
            .map(|r| r.free)
            .sum()
    }

    /// The tier of the range containing `pfn`, if this allocator manages
    /// it.
    pub fn tier_of(&self, pfn: Pfn) -> Option<MemTier> {
        self.ranges.iter().find(|r| r.contains(pfn)).map(|r| r.tier)
    }

    /// The ranges managed, as `(tier, base, frames)` triples in
    /// declaration order.
    pub fn ranges(&self) -> impl Iterator<Item = (MemTier, Pfn, u64)> + '_ {
        self.ranges.iter().map(|r| (r.tier, r.base, r.frames))
    }

    /// Allocate a single frame (any range, home first).
    pub fn alloc(&mut self) -> Result<Pfn, MemError> {
        for r in &mut self.ranges {
            if r.free > 0 {
                return r.alloc();
            }
        }
        Err(MemError::OutOfFrames {
            requested: 1,
            available: 0,
        })
    }

    /// Allocate up to `n` frames — the frames `n` successive
    /// [`FrameAllocator::alloc`] calls would return, in the same order and
    /// leaving the same cursors — as runs. Returns fewer than `n` frames
    /// only when every range ran dry.
    pub fn alloc_upto(&mut self, n: u64) -> PfnList {
        let mut out = PfnList::new();
        for r in &mut self.ranges {
            r.alloc_upto(n - out.pages(), &mut out);
        }
        out
    }

    /// Allocate `n` frames, not necessarily contiguous, in allocation
    /// order; all or nothing.
    pub fn alloc_pages(&mut self, n: u64) -> Result<PfnList, MemError> {
        if self.free_frames() < n {
            return Err(MemError::OutOfFrames {
                requested: n,
                available: self.free_frames(),
            });
        }
        Ok(self.alloc_upto(n))
    }

    /// Allocate `n` *contiguous* frames (first-fit over runs, any
    /// range). Used for Palacios guest memory blocks, which the paper
    /// notes are large contiguous regions.
    pub fn alloc_contiguous(&mut self, n: u64) -> Result<Pfn, MemError> {
        if n == 0 {
            return Err(MemError::OutOfFrames {
                requested: 0,
                available: self.free_frames(),
            });
        }
        let mut last = None;
        for r in &mut self.ranges {
            match r.alloc_contiguous(n) {
                Ok(p) => return Ok(p),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or(MemError::OutOfFrames {
            requested: n,
            available: 0,
        }))
    }

    /// Allocate `n` frames from ranges of `tier` only: one contiguous run
    /// when the tier has one (first fit, ranges in order), otherwise the
    /// frames successive single-frame allocations would pick, range by
    /// range. Either way the result is a handful of runs, which is what
    /// keeps `migrate_extent` O(extents) on the host side.
    pub fn alloc_pages_in(&mut self, tier: MemTier, n: u64) -> Result<PfnList, MemError> {
        let available = self.free_frames_in(tier);
        if available < n || n == 0 {
            return Err(MemError::OutOfFrames {
                requested: n,
                available,
            });
        }
        let mut out = PfnList::new();
        let run = (self.ranges.iter_mut())
            .filter(|r| r.tier == tier)
            .find_map(|r| r.alloc_contiguous(n).ok());
        if let Some(start) = run {
            out.push_run(start, n);
            return Ok(out);
        }
        for r in self.ranges.iter_mut().filter(|r| r.tier == tier) {
            r.alloc_upto(n - out.pages(), &mut out);
        }
        debug_assert_eq!(out.pages(), n);
        Ok(out)
    }

    /// Free a previously allocated frame.
    pub fn free(&mut self, pfn: Pfn) -> Result<(), MemError> {
        self.free_run(pfn, 1)
    }

    /// Free `len` consecutive frames starting at `start`, operating on
    /// whole bitmap words — the extent fast path for teardown/reaper
    /// frees. Validate-then-commit: on `BadFree` (naming the first frame
    /// that is out of range or not allocated) nothing has been freed.
    pub fn free_run(&mut self, start: Pfn, len: u64) -> Result<(), MemError> {
        self.check_run(start, len)?;
        self.clear_run(start, len);
        Ok(())
    }

    /// Free every frame of a run-length-encoded list. Validate-then-commit
    /// across the *whole* list (including a check that no frame appears
    /// twice): on error nothing has been freed.
    pub fn free_list(&mut self, list: &PfnList) -> Result<(), MemError> {
        // Reject duplicate frames across runs up front — committed runs
        // would otherwise corrupt the free count.
        let mut spans: Vec<(u64, u64)> = list
            .runs()
            .iter()
            .map(|r| (r.start.0, r.start.0 + r.len))
            .collect();
        spans.sort_unstable();
        for pair in spans.windows(2) {
            if pair[1].0 < pair[0].1 {
                return Err(MemError::BadFree(Pfn(pair[1].0)));
            }
        }
        for run in list.runs() {
            self.check_run(run.start, run.len)?;
        }
        for run in list.runs() {
            self.clear_run(run.start, run.len);
        }
        Ok(())
    }

    /// Verify that `len` frames from `start` are all managed and
    /// allocated, splitting the run across adjacent ranges when needed
    /// (a list run can legitimately cross a tier boundary after
    /// migration coalescing). Errors name the first offending frame.
    fn check_run(&self, start: Pfn, len: u64) -> Result<(), MemError> {
        // Coverage first, over the whole run, so an out-of-range tail is
        // named ahead of any allocation hole (matching the single-range
        // bounds-before-bits order).
        let mut at = start;
        let mut remaining = len;
        while remaining > 0 {
            let r = self
                .ranges
                .iter()
                .find(|r| r.contains(at))
                .ok_or(MemError::BadFree(at))?;
            let span = remaining.min(r.base.0 + r.frames - at.0);
            at = Pfn(at.0 + span);
            remaining -= span;
        }
        let mut at = start;
        let mut remaining = len;
        while remaining > 0 {
            let r = self
                .ranges
                .iter()
                .find(|r| r.contains(at))
                .expect("coverage pass verified the run");
            let span = remaining.min(r.base.0 + r.frames - at.0);
            r.check_run(at, span)?;
            at = Pfn(at.0 + span);
            remaining -= span;
        }
        Ok(())
    }

    /// Clear a validated run, word-wise, splitting across ranges.
    fn clear_run(&mut self, start: Pfn, len: u64) {
        let mut at = start;
        let mut remaining = len;
        while remaining > 0 {
            let r = self
                .ranges
                .iter_mut()
                .find(|r| r.contains(at))
                .expect("clear_run on a checked run");
            let span = remaining.min(r.base.0 + r.frames - at.0);
            r.clear_run(at, span);
            at = Pfn(at.0 + span);
            remaining -= span;
        }
    }

    /// Classify the pages of a run-length list by the tier of the range
    /// holding them, splitting runs at range boundaries — O(runs ×
    /// ranges), never per page. Pages this allocator does not manage are
    /// counted under the home tier (callers only classify frames they
    /// own, so this is a defensive default, not a real case).
    pub fn pages_by_tier(&self, list: &PfnList) -> [u64; MemTier::COUNT] {
        let mut out = [0u64; MemTier::COUNT];
        for run in list.runs() {
            let mut at = run.start;
            let mut remaining = run.len;
            while remaining > 0 {
                match self.ranges.iter().find(|r| r.contains(at)) {
                    Some(r) => {
                        let span = remaining.min(r.base.0 + r.frames - at.0);
                        out[r.tier.index()] += span;
                        at = Pfn(at.0 + span);
                        remaining -= span;
                    }
                    None => {
                        out[self.home_tier().index()] += remaining;
                        break;
                    }
                }
            }
        }
        out
    }

    /// True when the frame is currently allocated by this allocator.
    pub fn is_allocated(&self, pfn: Pfn) -> bool {
        self.ranges
            .iter()
            .find(|r| r.contains(pfn))
            .map(|r| r.is_allocated(pfn))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pfn_list::PfnRun;

    #[test]
    fn first_fit_allocates_contiguously() {
        let mut a = FrameAllocator::new(Pfn(100), 32);
        let pages = a.alloc_pages(4).unwrap();
        assert_eq!(
            pages.runs(),
            [PfnRun {
                start: Pfn(100),
                len: 4
            }]
        );
        assert_eq!(a.free_frames(), 28);
    }

    #[test]
    fn scatter_allocates_non_adjacent() {
        let mut a = FrameAllocator::with_policy(Pfn(0), 1024, Placement::Scatter);
        let pages: Vec<Pfn> = a.alloc_pages(8).unwrap().iter_pages().collect();
        let adjacent = pages.windows(2).filter(|w| w[1].0 == w[0].0 + 1).count();
        assert!(adjacent < 2, "scatter produced contiguous run: {pages:?}");
    }

    #[test]
    fn contiguous_skips_holes() {
        let mut a = FrameAllocator::new(Pfn(0), 16);
        a.alloc_pages(3).unwrap(); // frames 0,1,2
        a.free(Pfn(1)).unwrap(); // hole at 1
        let run = a.alloc_contiguous(4).unwrap();
        assert_eq!(run, Pfn(3), "run must start after the fragmented prefix");
        assert!(a.is_allocated(Pfn(6)));
        assert!(!a.is_allocated(Pfn(1)));
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut a = FrameAllocator::new(Pfn(0), 4);
        a.alloc_pages(4).unwrap();
        assert!(matches!(a.alloc(), Err(MemError::OutOfFrames { .. })));
        assert!(matches!(
            a.alloc_pages(1),
            Err(MemError::OutOfFrames { .. })
        ));
        assert!(matches!(
            a.alloc_contiguous(1),
            Err(MemError::OutOfFrames { .. })
        ));
    }

    #[test]
    fn double_free_and_foreign_free_rejected() {
        let mut a = FrameAllocator::new(Pfn(10), 4);
        let p = a.alloc().unwrap();
        a.free(p).unwrap();
        assert_eq!(a.free(p), Err(MemError::BadFree(p)));
        assert_eq!(a.free(Pfn(9)), Err(MemError::BadFree(Pfn(9))));
        assert_eq!(a.free(Pfn(14)), Err(MemError::BadFree(Pfn(14))));
    }

    #[test]
    fn free_then_realloc_reuses_frames() {
        let mut a = FrameAllocator::new(Pfn(0), 4);
        let pages = a.alloc_pages(4).unwrap();
        a.free_list(&pages).unwrap();
        assert_eq!(a.free_frames(), 4);
        let again = a.alloc_pages(4).unwrap();
        assert_eq!(again, pages);
    }

    #[test]
    fn free_run_is_atomic_and_word_wise() {
        let mut a = FrameAllocator::new(Pfn(0), 200);
        a.alloc_pages(150).unwrap();
        a.free(Pfn(100)).unwrap(); // hole mid-run
                                   // Run touching the hole fails, naming the hole, freeing nothing.
        assert_eq!(a.free_run(Pfn(90), 20), Err(MemError::BadFree(Pfn(100))));
        assert_eq!(a.free_frames(), 51);
        assert!(a.is_allocated(Pfn(90)));
        // A clean run crossing word boundaries frees in one shot.
        a.free_run(Pfn(0), 90).unwrap();
        assert_eq!(a.free_frames(), 141);
        assert!(!a.is_allocated(Pfn(63)));
        assert!(!a.is_allocated(Pfn(64)));
        // Out-of-range and double frees are still rejected.
        assert_eq!(a.free_run(Pfn(199), 2), Err(MemError::BadFree(Pfn(200))));
        assert_eq!(a.free_run(Pfn(0), 1), Err(MemError::BadFree(Pfn(0))));
    }

    #[test]
    fn free_list_frees_all_runs_or_nothing() {
        let mut a = FrameAllocator::new(Pfn(0), 128);
        a.alloc_pages(64).unwrap();
        let mut list = PfnList::new();
        list.push_run(Pfn(0), 10);
        list.push_run(Pfn(20), 10);
        a.free_list(&list).unwrap();
        assert_eq!(a.free_frames(), 84);
        // A list with an unallocated frame frees nothing.
        let mut bad = PfnList::new();
        bad.push_run(Pfn(30), 5);
        bad.push_run(Pfn(18), 4); // 20/21 already freed above
        assert_eq!(a.free_list(&bad), Err(MemError::BadFree(Pfn(20))));
        assert!(a.is_allocated(Pfn(30)));
        // Duplicate frames across runs are rejected up front.
        let mut dup = PfnList::new();
        dup.push_run(Pfn(40), 4);
        dup.push_run(Pfn(42), 4);
        assert_eq!(a.free_list(&dup), Err(MemError::BadFree(Pfn(42))));
        assert!(a.is_allocated(Pfn(40)));
    }

    #[test]
    fn contiguous_run_crossing_bitmap_words() {
        let mut a = FrameAllocator::new(Pfn(0), 200);
        // Occupy frames 0..60, leaving a run crossing the 64-bit word edge.
        a.alloc_pages(60).unwrap();
        let run = a.alloc_contiguous(10).unwrap();
        assert_eq!(run, Pfn(60));
        for i in 60..70 {
            assert!(a.is_allocated(Pfn(i)));
        }
    }

    // ------------------------------------------------------------------
    // Tiered ranges
    // ------------------------------------------------------------------

    #[test]
    fn single_range_defaults_to_local_dram() {
        let a = FrameAllocator::new(Pfn(0), 16);
        assert_eq!(a.home_tier(), MemTier::LocalDram);
        assert_eq!(a.tier_of(Pfn(5)), Some(MemTier::LocalDram));
        assert_eq!(a.tier_of(Pfn(16)), None);
        assert!(!a.has_tier(MemTier::Nvm));
    }

    #[test]
    fn tier_ranges_account_separately() {
        let mut a = FrameAllocator::new(Pfn(0), 64);
        a.push_range(MemTier::Nvm, Pfn(1000), 32);
        assert_eq!(a.total(), 96);
        assert_eq!(a.free_frames(), 96);
        assert_eq!(a.free_frames_in(MemTier::Nvm), 32);
        assert_eq!(a.tier_of(Pfn(1010)), Some(MemTier::Nvm));
        let got = a.alloc_pages_in(MemTier::Nvm, 8).unwrap();
        assert_eq!(
            got.runs(),
            [PfnRun {
                start: Pfn(1000),
                len: 8
            }],
            "one run"
        );
        assert_eq!(a.free_frames_in(MemTier::Nvm), 24);
        assert_eq!(a.free_frames_in(MemTier::LocalDram), 64);
        // Frees route back to the owning range.
        for p in got.iter_pages() {
            a.free(p).unwrap();
        }
        assert_eq!(a.free_frames_in(MemTier::Nvm), 32);
    }

    #[test]
    fn alloc_in_missing_tier_is_out_of_frames() {
        let mut a = FrameAllocator::new(Pfn(0), 16);
        assert_eq!(
            a.alloc_pages_in(MemTier::Cxl, 1),
            Err(MemError::OutOfFrames {
                requested: 1,
                available: 0
            })
        );
    }

    #[test]
    fn general_alloc_spills_home_first_then_reserve() {
        let mut a = FrameAllocator::new(Pfn(0), 4);
        a.push_range(MemTier::Cxl, Pfn(100), 4);
        let pages = a.alloc_pages(6).unwrap();
        assert_eq!(
            pages.runs(),
            [
                PfnRun {
                    start: Pfn(0),
                    len: 4
                },
                PfnRun {
                    start: Pfn(100),
                    len: 2
                }
            ]
        );
    }

    #[test]
    fn free_list_spanning_tiers_routes_per_range() {
        // Adjacent ranges: a run in a PfnList could legitimately cross
        // the boundary after migration coalescing; the free must split.
        let mut a = FrameAllocator::new(Pfn(0), 64);
        a.push_range(MemTier::Cxl, Pfn(64), 64);
        a.alloc_pages(64).unwrap();
        a.alloc_pages_in(MemTier::Cxl, 64).unwrap();
        let mut list = PfnList::new();
        list.push_run(Pfn(60), 8); // 60..64 DRAM, 64..68 CXL
        a.free_list(&list).unwrap();
        assert_eq!(a.free_frames_in(MemTier::LocalDram), 4);
        assert_eq!(a.free_frames_in(MemTier::Cxl), 4);
        // And a run running past the last range frees nothing.
        let mut bad = PfnList::new();
        bad.push_run(Pfn(126), 4);
        assert_eq!(a.free_list(&bad), Err(MemError::BadFree(Pfn(128))));
        assert!(a.is_allocated(Pfn(126)));
    }

    #[test]
    fn fragmented_tier_alloc_falls_back_to_frames() {
        let mut a = FrameAllocator::new(Pfn(0), 4);
        a.push_range(MemTier::Nvm, Pfn(100), 8);
        let run = a.alloc_pages_in(MemTier::Nvm, 8).unwrap();
        // Free alternating frames, then ask for 4: no contiguous run
        // exists, the fallback hands out the freed singles in order.
        for p in run.iter_pages().step_by(2) {
            a.free(p).unwrap();
        }
        let got = a.alloc_pages_in(MemTier::Nvm, 4).unwrap();
        let frames: Vec<Pfn> = got.iter_pages().collect();
        assert_eq!(frames, [Pfn(100), Pfn(102), Pfn(104), Pfn(106)]);
        assert_eq!(a.free_frames_in(MemTier::Nvm), 0);
    }
}
