//! Page tables with x86-64 leaf sizes and per-page semantics, stored as
//! extents.
//!
//! A mapping is a set of leaves of 4 KiB, 2 MiB or 1 GiB, each aligned to
//! its size; Kitten maps process memory with large pages where possible,
//! while XEMEM attachments install 4 KiB leaves, one frame per page — the
//! per-page work the paper's throughput numbers measure, and what the
//! *virtual-time* model charges.
//!
//! The *host* pays per extent. The table is one ordered map from first
//! virtual page to maximal extents: runs of leaves that are virtually and
//! physically contiguous, of one leaf size and one set of flags. Two
//! extents are merged exactly when they meet in both address spaces with
//! equal flags and size, so the stored form is a function of the current
//! mapping alone, never of the calls that produced it. Every operation
//! finds the extents it touches in O(log n) and then costs O(1) per
//! extent, whatever the number of pages. So [`PageTable::remap`], which
//! re-points the resident pages of a range onto new frames in place (tier
//! migration, attachment remap), leaves exactly the table an unmap and a
//! `map_list` per resident run would. It reads the new frames through one
//! forward cursor over their list and allocates nothing of its own;
//! [`PageTable::walk_remap`] finds, in one pass before it, the frames it
//! will replace, the first hole and whether it would refuse the range.
//!
//! Every observable — translations and leaf sizes, `walk_range` output
//! and [`WalkStats`], freed-frame order, validate-then-commit, error
//! values and addresses, `leaf_count` — is that of one discrete leaf per
//! page (per large page), which `tests/page_table_model.rs` checks
//! against a per-leaf model.

use crate::error::MemError;
use crate::pfn_list::{PfnList, PfnRun};
use crate::types::{PageSize, Pfn, PhysAddr, VirtAddr, PAGE_SIZE};
use serde::{Deserialize, Serialize};
use std::collections::btree_map::{BTreeMap, Entry};

/// Page protection / attribute flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PteFlags(u8);

impl PteFlags {
    /// Readable.
    pub const READ: PteFlags = PteFlags(1);
    /// Writable.
    pub const WRITE: PteFlags = PteFlags(2);
    /// User-accessible.
    pub const USER: PteFlags = PteFlags(4);

    /// Read+write+user — the common data mapping.
    pub fn rw_user() -> PteFlags {
        PteFlags(1 | 2 | 4)
    }

    /// Read-only user mapping.
    pub fn ro_user() -> PteFlags {
        PteFlags(1 | 4)
    }

    /// True when all bits of `other` are present.
    pub fn contains(self, other: PteFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// True when the mapping permits writes.
    pub fn writable(self) -> bool {
        self.contains(PteFlags::WRITE)
    }
}

/// Statistics from a range walk: real structural work performed, used by
/// kernels to charge virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkStats {
    /// 4 KiB page translations produced.
    pub pages: u64,
    /// Leaf PTEs actually visited (a 2 MiB leaf covers 512 pages but is
    /// one visit; 4 KiB leaves count one visit per page).
    pub leaves_visited: u64,
}

/// `pages` 4 KiB pages of leaves of one `size` and `flags`, backed by the
/// frames from `pfn` on. Keyed by its first page; an extent of large
/// leaves starts and ends on leaf boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    pages: u64,
    pfn: Pfn,
    flags: PteFlags,
    size: PageSize,
}

impl Extent {
    /// The part from page `skip` on, `pages` long.
    fn part(self, skip: u64, pages: u64) -> Extent {
        Extent {
            pages,
            pfn: self.pfn.offset(skip),
            ..self
        }
    }

    /// True when `next`, starting `self.pages` pages after this extent,
    /// continues it: adjacent frames, equal flags, equal leaf size.
    fn merges_with(&self, next: &Extent) -> bool {
        self.pfn.offset(self.pages) == next.pfn
            && self.flags == next.flags
            && self.size == next.size
    }

    /// Leaves of this extent's size that pages `[lo, hi)` touch.
    fn leaves_in(&self, lo: u64, hi: u64) -> u64 {
        let per = self.size.frames();
        (hi.next_multiple_of(per) - lo / per * per) / per
    }
}

/// The address of page number `page`.
fn page_va(page: u64) -> VirtAddr {
    VirtAddr(page * PAGE_SIZE)
}

/// Refuse, with a `MappingConflict` at `page`, the leaf of `ext` holding
/// `page` when it reaches outside pages `[lo, hi)`: re-pointing part of a
/// leaf would split it.
fn whole_leaf(page: u64, ext: &Extent, lo: u64, hi: u64) -> Result<(), MemError> {
    let per = ext.size.frames();
    let leaf = page / per * per;
    if leaf < lo || leaf + per > hi {
        return Err(MemError::MappingConflict(page_va(page)));
    }
    Ok(())
}

/// Which frames of a new list [`PageTable::remap`] gives each resident
/// run of its range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frames {
    /// The next ones: the list holds one frame per resident page, in
    /// address order (tier migration).
    Packed,
    /// Those at the run's offset into the range: the list holds one frame
    /// per page of the range (attachment remap).
    AtOffset,
}

/// What one pass over a range finds before [`PageTable::remap`] of the
/// same range re-points it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemapWalk {
    /// The frames backing the resident pages, in address order: those of
    /// [`PageTable::walk_resident`], which `remap` replaces.
    pub resident: PfnList,
    /// The first unmapped page of the range, if any.
    pub hole: Option<VirtAddr>,
    /// `remap`'s refusal: a `MappingConflict` at the range's first (or
    /// else last) page when a large leaf there reaches past the range.
    pub whole: Result<(), MemError>,
}

/// A forward cursor over the frames of a list.
struct Cursor<'a> {
    runs: std::slice::Iter<'a, PfnRun>,
    /// What is left of the current run.
    run: PfnRun,
    /// Frames of the list before the cursor.
    at: u64,
}

impl<'a> Cursor<'a> {
    fn new(list: &'a PfnList) -> Self {
        let run = PfnRun {
            start: Pfn(0),
            len: 0,
        };
        Cursor {
            runs: list.runs().iter(),
            run,
            at: 0,
        }
    }

    /// The next frames, at most `n` and at most the rest of one run.
    fn next(&mut self, n: u64) -> PfnRun {
        while self.run.len == 0 {
            self.run = *self.runs.next().expect("one new frame per page");
        }
        let take = PfnRun {
            start: self.run.start,
            len: n.min(self.run.len),
        };
        self.run.start = self.run.start.offset(take.len);
        self.run.len -= take.len;
        self.at += take.len;
        take
    }

    /// Move forward to frame `at` of the list.
    fn seek(&mut self, at: u64) {
        while self.at < at {
            self.next(at - self.at);
        }
    }
}

/// A page table.
#[derive(Debug, Default)]
pub struct PageTable {
    /// Maximal extents keyed by first page: disjoint, and no extent
    /// merges with one that starts where it ends.
    extents: BTreeMap<u64, Extent>,
    leaf_count: u64,
}

impl PageTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of leaf mappings installed (one per 4 KiB page, one per
    /// large-page leaf).
    pub fn leaf_count(&self) -> u64 {
        self.leaf_count
    }

    /// The extent holding `page`, with its first page.
    fn find(&self, page: u64) -> Option<(u64, Extent)> {
        let (&start, &ext) = self.extents.range(..=page).next_back()?;
        (page < start + ext.pages).then_some((start, ext))
    }

    /// The leaf holding `page`: its first page, and the leaf as an extent
    /// of its own.
    fn find_leaf(&self, page: u64) -> Option<(u64, Extent)> {
        let (start, ext) = self.find(page)?;
        let per = ext.size.frames();
        let leaf = page / per * per;
        Some((leaf, ext.part(leaf - start, per)))
    }

    /// The extents meeting pages `[lo, hi)`, whole, in address order,
    /// each with its first page. A range inside one extent costs one
    /// search.
    fn meeting(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, Extent)> + '_ {
        let head = self.find(lo);
        let rest = head.map_or(lo, |(start, ext)| start + ext.pages);
        let tail = (rest < hi).then(|| self.extents.range(rest..hi));
        head.into_iter()
            .chain(tail.into_iter().flatten().map(|(&s, &e)| (s, e)))
    }

    /// The mapped parts of pages `[lo, hi)`, clipped to it, in address
    /// order, each with its first page.
    fn overlapping(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, Extent)> + '_ {
        self.meeting(lo, hi).filter_map(move |(s, e)| {
            let (from, to) = (s.max(lo), (s + e.pages).min(hi));
            (from < to).then(|| (from, e.part(from - s, to - from)))
        })
    }

    /// Map `ext` at `page`, where nothing is mapped, merging it with the
    /// extents it continues and that continue it.
    fn insert(&mut self, mut page: u64, mut ext: Extent) {
        if let Some((&start, prev)) = self.extents.range_mut(..page).next_back() {
            if start + prev.pages == page && prev.merges_with(&ext) {
                prev.pages += ext.pages;
                (page, ext) = (start, *prev);
            }
        }
        if let Entry::Occupied(next) = self.extents.entry(page + ext.pages) {
            if ext.merges_with(next.get()) {
                ext.pages += next.remove().pages;
            }
        }
        self.extents.insert(page, ext);
    }

    /// Unmap pages `[lo, hi)`, handing each removed part to `removed` in
    /// address order, with its first page. Extents reaching past either
    /// end keep their outer parts, which stay maximal.
    fn cut(&mut self, lo: u64, hi: u64, mut removed: impl FnMut(u64, Extent)) {
        if lo >= hi {
            return;
        }
        // The part of each extent in the range goes; a part past `hi`
        // (at most one) is put back after.
        let mut tail = None;
        let mut take = |start: u64, ext: Extent| {
            let end = start + ext.pages;
            removed(start, ext.part(0, end.min(hi) - start));
            if end > hi {
                tail = Some(ext.part(hi - start, end - hi));
            }
        };
        if let Some((&start, ext)) = self.extents.range_mut(..lo).next_back() {
            if start + ext.pages > lo {
                let rest = ext.part(lo - start, start + ext.pages - lo);
                ext.pages = lo - start;
                take(lo, rest);
            }
        }
        for (start, ext) in self.extents.extract_if(lo..hi, |_, _| true) {
            take(start, ext);
        }
        if let Some(ext) = tail {
            self.extents.insert(hi, ext);
        }
    }

    /// Install a mapping of the given size.
    pub fn map(
        &mut self,
        va: VirtAddr,
        pfn: Pfn,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<(), MemError> {
        if !va.is_aligned(size) {
            return Err(MemError::Misaligned(va, size));
        }
        let (page, pages) = (va.0 / PAGE_SIZE, size.frames());
        if let Some((_, old)) = self.overlapping(page, page + pages).next() {
            // Only a leaf of the same size can sit exactly where this one
            // would; any other leaf in the way is a conflict.
            return Err(if old.size == size {
                MemError::AlreadyMapped(va)
            } else {
                MemError::MappingConflict(va)
            });
        }
        self.insert(
            page,
            Extent {
                pages,
                pfn,
                flags,
                size,
            },
        );
        self.leaf_count += 1;
        Ok(())
    }

    /// Map `pfns.len()` 4 KiB pages starting at `va`, one frame per page,
    /// in order. Returns the number of PTEs written.
    pub fn map_pages(
        &mut self,
        va: VirtAddr,
        pfns: impl IntoIterator<Item = Pfn>,
        flags: PteFlags,
    ) -> Result<u64, MemError> {
        let list: PfnList = pfns.into_iter().collect();
        self.map_list(va, &list, flags)
    }

    /// Map a whole PFN list of 4 KiB pages at `va`: the extent fast path
    /// behind every XEMEM attach, one insertion per run of the list.
    /// Validate-then-commit — on error nothing was installed, and the
    /// error is the one the per-page [`PageTable::map`] loop would hit
    /// first. Returns the number of (4 KiB) PTEs written.
    pub fn map_list(
        &mut self,
        va: VirtAddr,
        list: &PfnList,
        flags: PteFlags,
    ) -> Result<u64, MemError> {
        self.map_runs(va, list.runs(), list.pages(), flags)
    }

    /// Map `pages` physically contiguous 4 KiB frames starting at
    /// (`va`, `start`), like [`PageTable::map_list`] with a one-run list.
    pub fn map_extent(
        &mut self,
        va: VirtAddr,
        start: Pfn,
        pages: u64,
        flags: PteFlags,
    ) -> Result<u64, MemError> {
        self.map_runs(va, &[PfnRun { start, len: pages }], pages, flags)
    }

    /// Map `pages` physically contiguous frames from (`va`, `start`) as
    /// [`PageTable::map_extent`] does, but with a 2 MiB leaf wherever a
    /// page and its frame are both 2 MiB-aligned and a whole leaf
    /// remains — how Kitten maps its static image and the FWK its
    /// huge-page attachments. Validate-then-commit: a misaligned `va` is
    /// `Misaligned`, a mapped page in the range a `MappingConflict` at the
    /// first one. Returns the number of leaves written.
    pub fn map_extent_large(
        &mut self,
        va: VirtAddr,
        start: Pfn,
        pages: u64,
        flags: PteFlags,
    ) -> Result<u64, MemError> {
        if !va.is_aligned(PageSize::Size4K) {
            return Err(MemError::Misaligned(va, PageSize::Size4K));
        }
        let (first, per) = (va.0 / PAGE_SIZE, PageSize::Size2M.frames());
        if let Some((page, _)) = self.overlapping(first, first + pages).next() {
            return Err(MemError::MappingConflict(page_va(page)));
        }
        // Pages and frames reach 2 MiB boundaries together or never.
        let co_aligned = first % per == start.0 % per;
        let (mut off, mut leaves) = (0, 0);
        while off < pages {
            let (page, left) = (first + off, pages - off);
            let (n, size) = match page % per {
                0 if co_aligned && left >= per => (per, PageSize::Size2M),
                into_leaf if co_aligned && into_leaf > 0 => {
                    ((per - into_leaf).min(left), PageSize::Size4K)
                }
                _ => (left, PageSize::Size4K),
            };
            let ext = Extent {
                pages: n,
                pfn: start.offset(off),
                flags,
                size,
            };
            self.insert(page, ext);
            leaves += n / size.frames();
            off += n;
        }
        self.leaf_count += leaves;
        Ok(leaves)
    }

    /// Map the frames of `runs` (`pages` in all) at consecutive pages from
    /// `va`. Validate-then-commit.
    fn map_runs(
        &mut self,
        va: VirtAddr,
        runs: &[PfnRun],
        pages: u64,
        flags: PteFlags,
    ) -> Result<u64, MemError> {
        if pages == 0 {
            return Ok(0);
        }
        if !va.is_aligned(PageSize::Size4K) {
            return Err(MemError::Misaligned(va, PageSize::Size4K));
        }
        let first = va.0 / PAGE_SIZE;
        if let Some((page, old)) = self.overlapping(first, first + pages).next() {
            return Err(if old.size == PageSize::Size4K {
                MemError::AlreadyMapped(page_va(page))
            } else {
                MemError::MappingConflict(page_va(page))
            });
        }
        let mut page = first;
        for run in runs {
            let ext = Extent {
                pages: run.len,
                pfn: run.start,
                flags,
                size: PageSize::Size4K,
            };
            self.insert(page, ext);
            page += run.len;
        }
        self.leaf_count += pages;
        Ok(pages)
    }

    /// Remove the leaf containing `va`. Returns the leaf's frame and
    /// size.
    pub fn unmap(&mut self, va: VirtAddr) -> Result<(Pfn, PageSize), MemError> {
        let (leaf, ext) = self
            .find_leaf(va.0 / PAGE_SIZE)
            .ok_or(MemError::NotMapped(va))?;
        self.cut(leaf, leaf + ext.pages, |_, _| {});
        self.leaf_count -= 1;
        Ok((ext.pfn, ext.size))
    }

    /// Unmap `pages` consecutive 4 KiB pages starting at `va`, returning
    /// the freed frames in address order. Validate-then-commit: on error
    /// (a hole, or a large-page leaf in the range) nothing has been
    /// unmapped.
    pub fn unmap_pages(&mut self, va: VirtAddr, pages: u64) -> Result<PfnList, MemError> {
        let first = va.0 / PAGE_SIZE;
        let end = first + pages;
        let mut at = first;
        for (page, ext) in self.overlapping(first, end) {
            if page > at {
                return Err(MemError::NotMapped(page_va(at)));
            }
            if ext.size != PageSize::Size4K {
                return Err(MemError::MappingConflict(page_va(page)));
            }
            at = page + ext.pages;
        }
        if at < end {
            return Err(MemError::NotMapped(page_va(at)));
        }
        let mut out = PfnList::new();
        self.cut(first, end, |_, ext| out.push_run(ext.pfn, ext.pages));
        self.leaf_count -= pages;
        Ok(out)
    }

    /// Unmap whatever is resident in `[va, va + pages * 4 KiB)`, skipping
    /// holes — the teardown/reaper path. Returns the freed frames and the
    /// number of *leaves* cleared (one per 4 KiB page, one per large-page
    /// leaf — the count the per-page translate-then-unmap loop would
    /// produce). A large-page leaf overlapping the range is removed whole
    /// and all of its frames are reported.
    pub fn unmap_resident(&mut self, va: VirtAddr, pages: u64) -> (PfnList, u64) {
        let mut out = PfnList::new();
        let mut cleared = 0;
        if pages > 0 {
            let (first, last) = (va.0 / PAGE_SIZE, va.0 / PAGE_SIZE + pages - 1);
            // Widen the range to the bounds of the leaves at its ends.
            let lo = self.find_leaf(first).map_or(first, |(leaf, _)| leaf);
            let hi = self
                .find_leaf(last)
                .map_or(last + 1, |(leaf, ext)| leaf + ext.pages);
            self.cut(lo, hi, |_, ext| {
                out.push_run(ext.pfn, ext.pages);
                cleared += ext.pages / ext.size.frames();
            });
        }
        self.leaf_count -= cleared;
        (out, cleared)
    }

    /// Re-point the resident pages of `[va, va + pages * 4 KiB)` onto the
    /// frames of `new` in place, leaving holes unmapped — the migration
    /// and attachment-remap path. Resident runs (one extent's part of the
    /// range each) take their frames in address order through one
    /// forward cursor over `new`, as `take` says, keep their flags and
    /// become 4 KiB leaves; `replaced` sees each run's old frames, in
    /// address order. Validate-then-commit: a large leaf reaching past
    /// either end is refused as [`PageTable::walk_remap`] reports it, and
    /// nothing changes. Returns the number of pages re-pointed.
    ///
    /// # Panics
    ///
    /// When `new` runs out of frames.
    pub fn remap(
        &mut self,
        va: VirtAddr,
        pages: u64,
        new: &PfnList,
        take: Frames,
        mut replaced: impl FnMut(Pfn, u64),
    ) -> Result<u64, MemError> {
        let (lo, hi) = (va.0 / PAGE_SIZE, va.0 / PAGE_SIZE + pages);
        if lo < hi {
            for end in [lo, hi - 1] {
                if let Some((_, ext)) = self.find(end) {
                    whole_leaf(end, &ext, lo, hi)?;
                }
            }
        }
        let mut frames = Cursor::new(new);
        let (mut at, mut repointed) = (lo, 0);
        while at < hi {
            let Some((page, ext)) = self.overlapping(at, hi).next() else {
                break;
            };
            replaced(ext.pfn, ext.pages);
            let end = page + ext.pages;
            self.cut(page, end, |_, _| {});
            if take == Frames::AtOffset {
                frames.seek(page - lo);
            }
            // A run may merge with the next one still to re-point; the
            // search from `end` finds that one's part all the same.
            let mut p = page;
            while p < end {
                let run = frames.next(end - p);
                let leaves = Extent {
                    pages: run.len,
                    pfn: run.start,
                    size: PageSize::Size4K,
                    ..ext
                };
                self.insert(p, leaves);
                p += run.len;
            }
            self.leaf_count += ext.pages - ext.pages / ext.size.frames();
            repointed += ext.pages;
            at = end;
        }
        Ok(repointed)
    }

    /// Translate a virtual address to (physical address, flags, leaf size).
    pub fn translate(&self, va: VirtAddr) -> Option<(PhysAddr, PteFlags, PageSize)> {
        let page = va.0 / PAGE_SIZE;
        let (start, ext) = self.find(page)?;
        let pa = ext.pfn.offset(page - start).base() + va.page_offset();
        Some((pa, ext.flags, ext.size))
    }

    /// Translate `va` to its physical address and flags, with the bytes
    /// from `va` to the end of its extent: contiguous in virtual and
    /// physical memory alike, under the same flags.
    pub fn translate_span(&self, va: VirtAddr) -> Option<(PhysAddr, PteFlags, u64)> {
        let page = va.0 / PAGE_SIZE;
        let (start, ext) = self.find(page)?;
        let pa = ext.pfn.offset(page - start).base() + va.page_offset();
        Some((pa, ext.flags, (start + ext.pages) * PAGE_SIZE - va.0))
    }

    /// Produce the PFN list for the `len.div_ceil(4 KiB)` pages from the
    /// page of `va` — the export-side operation of the XEMEM protocol.
    /// Every page must be mapped; a hole is reported at its page plus
    /// `va`'s offset. Returns the list and the real structural work
    /// performed, computed per extent and equal to the per-leaf walk's.
    pub fn walk_range(&self, va: VirtAddr, len: u64) -> Result<(PfnList, WalkStats), MemError> {
        let first = va.0 / PAGE_SIZE;
        let end = first + len.div_ceil(PAGE_SIZE);
        let hole = |page: u64| MemError::NotMapped(page_va(page) + va.page_offset());
        let mut list = PfnList::new();
        let mut stats = WalkStats::default();
        let mut at = first;
        for (page, ext) in self.overlapping(first, end) {
            if page > at {
                return Err(hole(at));
            }
            list.push_run(ext.pfn, ext.pages);
            stats.pages += ext.pages;
            stats.leaves_visited += ext.leaves_in(page, page + ext.pages);
            at = page + ext.pages;
        }
        if at < end {
            return Err(hole(at));
        }
        Ok((list, stats))
    }

    /// Frames backing the resident pages of `[va, va + pages * 4 KiB)`,
    /// in address order, skipping holes — the frame-retention walk.
    pub fn walk_resident(&self, va: VirtAddr, pages: u64) -> PfnList {
        let first = va.0 / PAGE_SIZE;
        let mut out = PfnList::new();
        for (_, ext) in self.overlapping(first, first + pages) {
            out.push_run(ext.pfn, ext.pages);
        }
        out
    }

    /// What [`PageTable::remap`] of the same range would find, from one
    /// pass over its extents: the frames it would replace, the first hole,
    /// and its refusal when a large leaf at the range's first (or else
    /// last) page reaches past the range.
    pub fn walk_remap(&self, va: VirtAddr, pages: u64) -> RemapWalk {
        let (lo, hi) = (va.0 / PAGE_SIZE, va.0 / PAGE_SIZE + pages);
        let mut walk = RemapWalk {
            resident: PfnList::new(),
            hole: None,
            whole: Ok(()),
        };
        // The extents holding the range's first and last pages.
        let (mut at, mut ends) = (lo, [None, None]);
        for (start, ext) in self.meeting(lo, hi) {
            let (from, to) = (start.max(lo), (start + ext.pages).min(hi));
            if from >= to {
                continue;
            }
            if from > at {
                walk.hole.get_or_insert(page_va(at));
            }
            walk.resident
                .push_run(ext.pfn.offset(from - start), to - from);
            if start <= lo {
                ends[0] = Some((lo, ext));
            }
            if to == hi {
                ends[1] = Some((hi - 1, ext));
            }
            at = to;
        }
        if at < hi {
            walk.hole.get_or_insert(page_va(at));
        }
        walk.whole =
            (ends.iter().flatten()).try_for_each(|(page, ext)| whole_leaf(*page, ext, lo, hi));
        walk
    }

    /// The unmapped sub-ranges of `[va, va + pages * 4 KiB)`, as
    /// `(page_offset_from_va, run_length)` pairs in address order —
    /// the demand-fault hole finder.
    pub fn find_unmapped(&self, va: VirtAddr, pages: u64) -> Vec<(u64, u64)> {
        let first = va.0 / PAGE_SIZE;
        let end = first + pages;
        let mut out = Vec::new();
        let mut at = first;
        for (page, ext) in self.overlapping(first, end) {
            if page > at {
                out.push((at - first, page - at));
            }
            at = page + ext.pages;
        }
        if at < end {
            out.push((at - first, end - at));
        }
        out
    }

    /// Change the flags on the leaf containing `va`.
    pub fn protect(&mut self, va: VirtAddr, flags: PteFlags) -> Result<(), MemError> {
        let (leaf, ext) = self
            .find_leaf(va.0 / PAGE_SIZE)
            .ok_or(MemError::NotMapped(va))?;
        self.cut(leaf, leaf + ext.pages, |_, _| {});
        self.insert(leaf, Extent { flags, ..ext });
        Ok(())
    }

    /// The runs of 4 KiB leaves inside the 2 MiB-aligned chunk containing
    /// `va`, in address order, as `(address of the run's first page,
    /// frames, flags)`; empty unless the chunk holds 4 KiB mappings.
    /// Extents are canonical (see the module docs), so two tables with the
    /// same mappings report the same runs, however they were built.
    pub fn chunk_runs(&self, va: VirtAddr) -> Vec<(VirtAddr, PfnRun, PteFlags)> {
        let per = PageSize::Size2M.frames();
        let base = va.0 / PAGE_SIZE / per * per;
        self.overlapping(base, base + per)
            .filter(|(_, ext)| ext.size == PageSize::Size4K)
            .map(|(page, ext)| {
                let run = PfnRun {
                    start: ext.pfn,
                    len: ext.pages,
                };
                (page_va(page), run, ext.flags)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K4: u64 = 4096;
    const M2: u64 = 2 << 20;
    const G1: u64 = 1 << 30;

    #[test]
    fn map_translate_4k() {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr(0x4000),
            Pfn(7),
            PageSize::Size4K,
            PteFlags::rw_user(),
        )
        .unwrap();
        let (pa, flags, size) = pt.translate(VirtAddr(0x4123)).unwrap();
        assert_eq!(pa.0, 7 * K4 + 0x123);
        assert!(flags.writable());
        assert_eq!(size, PageSize::Size4K);
        assert!(pt.translate(VirtAddr(0x5000)).is_none());
        assert_eq!(pt.leaf_count(), 1);
    }

    #[test]
    fn map_translate_large_pages() {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr(M2),
            Pfn(512),
            PageSize::Size2M,
            PteFlags::rw_user(),
        )
        .unwrap();
        pt.map(
            VirtAddr(G1),
            Pfn(1 << 18),
            PageSize::Size1G,
            PteFlags::ro_user(),
        )
        .unwrap();
        // Offset inside the 2 MiB page.
        let (pa, _, sz) = pt.translate(VirtAddr(M2 + 0x12345)).unwrap();
        assert_eq!(pa.0, 512 * K4 + 0x12345);
        assert_eq!(sz, PageSize::Size2M);
        // Offset inside the 1 GiB page.
        let (pa, flags, sz) = pt.translate(VirtAddr(G1 + 0xABCDE)).unwrap();
        assert_eq!(pa.0, (1u64 << 30) + 0xABCDE);
        assert_eq!(sz, PageSize::Size1G);
        assert!(!flags.writable());
    }

    #[test]
    fn misalignment_rejected() {
        let mut pt = PageTable::new();
        assert_eq!(
            pt.map(
                VirtAddr(0x1000),
                Pfn(0),
                PageSize::Size2M,
                PteFlags::rw_user()
            ),
            Err(MemError::Misaligned(VirtAddr(0x1000), PageSize::Size2M))
        );
    }

    #[test]
    fn double_map_rejected() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr(0), Pfn(1), PageSize::Size4K, PteFlags::rw_user())
            .unwrap();
        assert_eq!(
            pt.map(VirtAddr(0), Pfn(2), PageSize::Size4K, PteFlags::rw_user()),
            Err(MemError::AlreadyMapped(VirtAddr(0)))
        );
    }

    #[test]
    fn conflict_between_leaf_sizes_rejected() {
        let mut pt = PageTable::new();
        // 2 MiB leaf at level 1, then a 4 KiB map inside it must conflict.
        pt.map(VirtAddr(0), Pfn(0), PageSize::Size2M, PteFlags::rw_user())
            .unwrap();
        assert_eq!(
            pt.map(
                VirtAddr(0x3000),
                Pfn(9),
                PageSize::Size4K,
                PteFlags::rw_user()
            ),
            Err(MemError::MappingConflict(VirtAddr(0x3000)))
        );
        // And the reverse: 4 KiB mapping first, then 2 MiB over it.
        let mut pt2 = PageTable::new();
        pt2.map(
            VirtAddr(0x1000),
            Pfn(3),
            PageSize::Size4K,
            PteFlags::rw_user(),
        )
        .unwrap();
        assert_eq!(
            pt2.map(VirtAddr(0), Pfn(0), PageSize::Size2M, PteFlags::rw_user()),
            Err(MemError::MappingConflict(VirtAddr(0)))
        );
    }

    #[test]
    fn two_mib_map_over_leaf_run_conflicts() {
        let mut pt = PageTable::new();
        pt.map_extent(VirtAddr(0x1000), Pfn(3), 4, PteFlags::rw_user())
            .unwrap();
        assert_eq!(
            pt.map(VirtAddr(0), Pfn(0), PageSize::Size2M, PteFlags::rw_user()),
            Err(MemError::MappingConflict(VirtAddr(0)))
        );
    }

    #[test]
    fn unmap_restores_unmapped_state() {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr(0x8000),
            Pfn(42),
            PageSize::Size4K,
            PteFlags::rw_user(),
        )
        .unwrap();
        let (pfn, size) = pt.unmap(VirtAddr(0x8000)).unwrap();
        assert_eq!((pfn, size), (Pfn(42), PageSize::Size4K));
        assert!(pt.translate(VirtAddr(0x8000)).is_none());
        assert_eq!(
            pt.unmap(VirtAddr(0x8000)),
            Err(MemError::NotMapped(VirtAddr(0x8000)))
        );
        assert_eq!(pt.leaf_count(), 0);
    }

    #[test]
    fn map_pages_installs_in_order() {
        let mut pt = PageTable::new();
        let pfns = vec![Pfn(10), Pfn(99), Pfn(5)];
        let n = pt
            .map_pages(VirtAddr(0x10000), pfns.clone(), PteFlags::rw_user())
            .unwrap();
        assert_eq!(n, 3);
        for (i, pfn) in pfns.iter().enumerate() {
            let (pa, _, _) = pt.translate(VirtAddr(0x10000 + i as u64 * K4)).unwrap();
            assert_eq!(pa.pfn(), *pfn);
        }
        let freed = pt.unmap_pages(VirtAddr(0x10000), 3).unwrap();
        assert_eq!(freed, PfnList::from_pages(pfns));
    }

    #[test]
    fn map_extent_spans_chunks_and_unmaps_whole() {
        let mut pt = PageTable::new();
        // 3 chunks' worth of pages starting mid-chunk: crosses two 2 MiB
        // boundaries.
        let base = VirtAddr(M2 - 8 * K4);
        let pages = 512 + 300;
        pt.map_extent(base, Pfn(0x9000), pages, PteFlags::rw_user())
            .unwrap();
        assert_eq!(pt.leaf_count(), pages);
        // Every page translates to the right frame.
        for i in [0, 7, 8, 511, 512, pages - 1] {
            let (pa, _, sz) = pt.translate(base + i * K4).unwrap();
            assert_eq!(pa.pfn(), Pfn(0x9000 + i), "page {i}");
            assert_eq!(sz, PageSize::Size4K);
        }
        assert!(pt.translate(base + pages * K4).is_none());
        assert!(pt.translate(VirtAddr(base.0 - K4)).is_none());
        // Walk agrees and is one run.
        let (list, stats) = pt.walk_range(base, pages * K4).unwrap();
        assert_eq!(list.run_count(), 1);
        assert_eq!(stats.pages, pages);
        assert_eq!(stats.leaves_visited, pages);
        // Strict unmap returns the same frames and empties the table.
        let freed = pt.unmap_pages(base, pages).unwrap();
        assert_eq!(freed, list);
        assert_eq!(pt.leaf_count(), 0);
    }

    #[test]
    fn map_extent_rejects_overlap_without_partial_install() {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr(4 * K4),
            Pfn(1),
            PageSize::Size4K,
            PteFlags::rw_user(),
        )
        .unwrap();
        // Overlapping extent fails at the clashing page...
        assert_eq!(
            pt.map_extent(VirtAddr(0), Pfn(100), 8, PteFlags::rw_user()),
            Err(MemError::AlreadyMapped(VirtAddr(4 * K4)))
        );
        // ...and the pages before the clash were NOT installed.
        assert!(pt.translate(VirtAddr(0)).is_none());
        assert_eq!(pt.leaf_count(), 1);
    }

    #[test]
    fn unmap_pages_is_atomic_on_error() {
        let mut pt = PageTable::new();
        pt.map_extent(VirtAddr(0), Pfn(50), 3, PteFlags::rw_user())
            .unwrap();
        // Page 3 is a hole: strict unmap of 5 pages fails...
        assert_eq!(
            pt.unmap_pages(VirtAddr(0), 5),
            Err(MemError::NotMapped(VirtAddr(3 * K4)))
        );
        // ...and nothing was unmapped.
        assert_eq!(pt.leaf_count(), 3);
        assert!(pt.translate(VirtAddr(0)).is_some());
        assert!(pt.translate(VirtAddr(2 * K4)).is_some());
    }

    #[test]
    fn unmap_middle_of_run_splits_it() {
        let mut pt = PageTable::new();
        pt.map_extent(VirtAddr(0), Pfn(100), 8, PteFlags::rw_user())
            .unwrap();
        let (pfn, size) = pt.unmap(VirtAddr(3 * K4)).unwrap();
        assert_eq!((pfn, size), (Pfn(103), PageSize::Size4K));
        assert_eq!(pt.leaf_count(), 7);
        assert!(pt.translate(VirtAddr(3 * K4)).is_none());
        for i in [0u64, 1, 2, 4, 5, 6, 7] {
            let (pa, _, _) = pt.translate(VirtAddr(i * K4)).unwrap();
            assert_eq!(pa.pfn(), Pfn(100 + i));
        }
        assert_eq!(pt.chunk_runs(VirtAddr(0)).len(), 2);
    }

    #[test]
    fn unmap_resident_skips_holes_and_counts_leaves() {
        let mut pt = PageTable::new();
        pt.map_extent(VirtAddr(0), Pfn(10), 2, PteFlags::rw_user())
            .unwrap();
        pt.map_extent(VirtAddr(4 * K4), Pfn(20), 2, PteFlags::rw_user())
            .unwrap();
        let (freed, cleared) = pt.unmap_resident(VirtAddr(0), 6);
        assert_eq!(cleared, 4);
        let frames: Vec<Pfn> = freed.iter_pages().collect();
        assert_eq!(frames, vec![Pfn(10), Pfn(11), Pfn(20), Pfn(21)]);
        assert_eq!(pt.leaf_count(), 0);
    }

    #[test]
    fn find_unmapped_reports_hole_runs() {
        let mut pt = PageTable::new();
        pt.map_extent(VirtAddr(2 * K4), Pfn(7), 3, PteFlags::rw_user())
            .unwrap();
        let holes = pt.find_unmapped(VirtAddr(0), 8);
        assert_eq!(holes, vec![(0, 2), (5, 3)]);
        assert!(pt.find_unmapped(VirtAddr(2 * K4), 3).is_empty());
    }

    #[test]
    fn walk_resident_collects_only_mapped_frames() {
        let mut pt = PageTable::new();
        pt.map_extent(VirtAddr(0), Pfn(5), 2, PteFlags::rw_user())
            .unwrap();
        pt.map(
            VirtAddr(5 * K4),
            Pfn(90),
            PageSize::Size4K,
            PteFlags::rw_user(),
        )
        .unwrap();
        let resident = pt.walk_resident(VirtAddr(0), 8);
        let frames: Vec<Pfn> = resident.iter_pages().collect();
        assert_eq!(frames, vec![Pfn(5), Pfn(6), Pfn(90)]);
    }

    #[test]
    fn walk_range_produces_pfn_list_and_stats() {
        let mut pt = PageTable::new();
        // Contiguous then discontiguous 4 KiB pages.
        pt.map_pages(
            VirtAddr(0),
            vec![Pfn(100), Pfn(101), Pfn(500)],
            PteFlags::rw_user(),
        )
        .unwrap();
        let (list, stats) = pt.walk_range(VirtAddr(0), 3 * K4).unwrap();
        assert_eq!(list.pages(), 3);
        assert_eq!(stats.pages, 3);
        assert_eq!(stats.leaves_visited, 3);
        let pfns: Vec<Pfn> = list.iter_pages().collect();
        assert_eq!(pfns, vec![Pfn(100), Pfn(101), Pfn(500)]);
    }

    #[test]
    fn walk_range_across_a_large_page_visits_one_leaf() {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr(0),
            Pfn(0x1000),
            PageSize::Size2M,
            PteFlags::rw_user(),
        )
        .unwrap();
        let (list, stats) = pt.walk_range(VirtAddr(0), M2).unwrap();
        assert_eq!(list.pages(), 512);
        assert_eq!(stats.leaves_visited, 1);
        assert_eq!(list.iter_pages().next(), Some(Pfn(0x1000)));
    }

    #[test]
    fn walk_range_partial_large_page_from_offset() {
        let mut pt = PageTable::new();
        pt.map(
            VirtAddr(0),
            Pfn(0x1000),
            PageSize::Size2M,
            PteFlags::rw_user(),
        )
        .unwrap();
        // Start 16 KiB into the large page, take 8 KiB.
        let (list, _) = pt.walk_range(VirtAddr(0x4000), 2 * K4).unwrap();
        let pfns: Vec<Pfn> = list.iter_pages().collect();
        assert_eq!(pfns, vec![Pfn(0x1004), Pfn(0x1005)]);
    }

    #[test]
    fn walk_of_hole_errors() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr(0), Pfn(1), PageSize::Size4K, PteFlags::rw_user())
            .unwrap();
        let err = pt.walk_range(VirtAddr(0), 2 * K4).unwrap_err();
        assert_eq!(err, MemError::NotMapped(VirtAddr(K4)));
    }

    #[test]
    fn protect_changes_flags() {
        let mut pt = PageTable::new();
        pt.map(VirtAddr(0), Pfn(1), PageSize::Size4K, PteFlags::rw_user())
            .unwrap();
        pt.protect(VirtAddr(0), PteFlags::ro_user()).unwrap();
        let (_, flags, _) = pt.translate(VirtAddr(0)).unwrap();
        assert!(!flags.writable());
        assert_eq!(
            pt.protect(VirtAddr(K4), PteFlags::ro_user()),
            Err(MemError::NotMapped(VirtAddr(K4)))
        );
    }

    #[test]
    fn protect_one_page_of_a_run() {
        let mut pt = PageTable::new();
        pt.map_extent(VirtAddr(0), Pfn(40), 4, PteFlags::rw_user())
            .unwrap();
        pt.protect(VirtAddr(2 * K4), PteFlags::ro_user()).unwrap();
        let (_, flags, _) = pt.translate(VirtAddr(2 * K4)).unwrap();
        assert!(!flags.writable());
        let (_, flags, _) = pt.translate(VirtAddr(K4)).unwrap();
        assert!(flags.writable());
        assert_eq!(pt.leaf_count(), 4);
        assert_eq!(pt.chunk_runs(VirtAddr(0)).len(), 3);
        // Restoring the flags merges the chunk back into one run.
        pt.protect(VirtAddr(2 * K4), PteFlags::rw_user()).unwrap();
        assert_eq!(
            pt.chunk_runs(VirtAddr(0)),
            vec![(
                VirtAddr(0),
                PfnRun {
                    start: Pfn(40),
                    len: 4
                },
                PteFlags::rw_user()
            )]
        );
    }

    #[test]
    fn contiguous_gib_list_is_one_extent() {
        // A 1 GiB list of one run, starting mid-chunk so it crosses 513
        // chunk boundaries, is stored, walked and unmapped as one extent.
        let mut pt = PageTable::new();
        let va = VirtAddr(G1 + 8 * K4);
        let pages = G1 / K4;
        let mut list = PfnList::new();
        list.push_run(Pfn(1 << 20), pages);
        assert_eq!(pt.map_list(va, &list, PteFlags::rw_user()), Ok(pages));
        assert_eq!(pt.extents.len(), 1);
        assert_eq!(pt.leaf_count(), pages);
        let (walked, stats) = pt.walk_range(va, G1).unwrap();
        assert_eq!(walked, list);
        assert_eq!(
            stats,
            WalkStats {
                pages,
                leaves_visited: pages
            }
        );
        assert_eq!(
            pt.translate_span(va + 5),
            Some((Pfn(1 << 20).base() + 5, PteFlags::rw_user(), G1 - 5))
        );
        assert_eq!(pt.unmap_pages(va, pages), Ok(list));
        assert!(pt.extents.is_empty());
        assert_eq!(pt.leaf_count(), 0);
    }

    #[test]
    fn adjacent_large_leaves_merge_and_split_per_leaf() {
        // Four physically contiguous 2 MiB leaves are one extent; each
        // still unmaps, protects and walks as a leaf of its own.
        let mut pt = PageTable::new();
        let rw = PteFlags::rw_user();
        for i in 0..4 {
            pt.map(VirtAddr(i * M2), Pfn(512 * i), PageSize::Size2M, rw)
                .unwrap();
        }
        assert_eq!(pt.extents.len(), 1);
        assert_eq!(pt.leaf_count(), 4);
        let (_, stats) = pt.walk_range(VirtAddr(M2 - K4), 2 * K4 + M2).unwrap();
        assert_eq!(stats.leaves_visited, 3);
        pt.protect(VirtAddr(M2 + 7 * K4), PteFlags::ro_user())
            .unwrap();
        assert_eq!(pt.extents.len(), 3);
        assert_eq!(
            pt.unmap(VirtAddr(2 * M2 + K4)),
            Ok((Pfn(1024), PageSize::Size2M))
        );
        pt.protect(VirtAddr(M2), rw).unwrap();
        assert_eq!(pt.extents.len(), 2);
        assert_eq!(
            pt.unmap_resident(VirtAddr(M2 - K4), 2),
            (PfnList::from_pages((0..1024).map(Pfn)), 2)
        );
        assert_eq!(pt.leaf_count(), 1);
    }

    #[test]
    fn chunk_forgets_its_history() {
        // A two-run list 8 pages past a 2 MiB boundary, torn down, then a
        // one-run list at the same address: the chunk must hold exactly
        // that one run, as if the first list had never been mapped.
        let mut pt = PageTable::new();
        let va = VirtAddr(M2 + 8 * K4);
        let mut two = PfnList::new();
        two.push_run(Pfn(100), 4);
        two.push_run(Pfn(300), 4);
        pt.map_list(va, &two, PteFlags::rw_user()).unwrap();
        assert_eq!(pt.chunk_runs(va).len(), 2);
        assert_eq!(pt.unmap_resident(va, 8), (two, 8));
        // The emptied chunk is gone: a 2 MiB leaf fits there again.
        assert!(pt.chunk_runs(va).is_empty());
        pt.map(
            VirtAddr(M2),
            Pfn(0x400),
            PageSize::Size2M,
            PteFlags::rw_user(),
        )
        .unwrap();
        assert_eq!(pt.unmap(VirtAddr(M2)), Ok((Pfn(0x400), PageSize::Size2M)));
        let mut one = PfnList::new();
        one.push_run(Pfn(500), 8);
        pt.map_list(va, &one, PteFlags::rw_user()).unwrap();
        assert_eq!(
            pt.chunk_runs(va),
            vec![(
                va,
                PfnRun {
                    start: Pfn(500),
                    len: 8
                },
                PteFlags::rw_user()
            )]
        );
        assert_eq!(pt.leaf_count(), 8);
    }

    #[test]
    fn large_extents_take_2m_leaves_only_where_page_and_frame_align() {
        let mut pt = PageTable::new();
        let rw = PteFlags::rw_user();
        // 8 pages of fill-in, one 2 MiB leaf, then a 4 KiB tail of 8.
        let va = VirtAddr(M2 - 8 * K4);
        assert_eq!(pt.map_extent_large(va, Pfn(504), 528, rw), Ok(17));
        let sizes = [0, 8, 519, 520].map(|i| pt.translate(va + i * K4).unwrap().2);
        assert_eq!(
            sizes.map(|s| s == PageSize::Size2M),
            [false, true, true, false]
        );
        // Frames one off the pages' alignment: 4 KiB leaves throughout.
        let skewed = VirtAddr(8 * M2);
        assert_eq!(pt.map_extent_large(skewed, Pfn(4097), 600, rw), Ok(600));
        assert_eq!(pt.leaf_count(), 617);
        // Overlap is refused whole, at the first mapped page.
        assert_eq!(
            pt.map_extent_large(VirtAddr(0), Pfn(0), 1024, rw),
            Err(MemError::MappingConflict(va))
        );
        assert_eq!(pt.leaf_count(), 617);
    }

    #[test]
    fn remap_repoints_resident_pages_in_place() {
        let mut pt = PageTable::new();
        let (rw, ro) = (PteFlags::rw_user(), PteFlags::ro_user());
        // A read-only 4 KiB page, a hole, then a 2 MiB leaf.
        pt.map(VirtAddr(M2 - 2 * K4), Pfn(7), PageSize::Size4K, ro)
            .unwrap();
        pt.map(VirtAddr(M2), Pfn(512), PageSize::Size2M, rw)
            .unwrap();
        let (va, pages) = (VirtAddr(M2 - 2 * K4), 514);
        let old = PfnList::from_pages([7].into_iter().chain(512..1024).map(Pfn));
        // Cutting the large leaf is refused at the range's last page, and
        // changes nothing.
        let cut = MemError::MappingConflict(VirtAddr(2 * M2 - 2 * K4));
        let walk = pt.walk_remap(va, pages - 1);
        let hole = Some(va + K4);
        assert_eq!((walk.hole, walk.whole), (hole, Err(cut.clone())));
        let any = PfnList::from_pages((0..pages).map(Pfn));
        assert_eq!(
            pt.remap(va, pages - 1, &any, Frames::Packed, |_, _| {}),
            Err(cut)
        );
        assert_eq!(pt.leaf_count(), 2);
        let walk = pt.walk_remap(va, pages);
        assert_eq!(
            (&walk.resident, walk.hole, walk.whole),
            (&old, hole, Ok(()))
        );
        // Frames by offset, from a list of three runs: page `off` of the
        // range takes frame 1000 + off, except the last eight, which take
        // 3000 on.
        let mut new = PfnList::new();
        new.push_run(Pfn(1000), 100);
        new.push_run(Pfn(1100), pages - 108);
        new.push_run(Pfn(3000), 8);
        let mut replaced = PfnList::new();
        let moved = pt.remap(va, pages, &new, Frames::AtOffset, |pfn, n| {
            replaced.push_run(pfn, n)
        });
        assert_eq!((moved, replaced), (Ok(513), old));
        assert_eq!(
            pt.translate(va),
            Some((Pfn(1000).base(), ro, PageSize::Size4K))
        );
        assert!(pt.translate(va + K4).is_none());
        assert_eq!(
            pt.translate(VirtAddr(2 * M2 - K4)),
            Some((Pfn(3007).base(), rw, PageSize::Size4K))
        );
        assert_eq!(pt.leaf_count(), 513);
        let mut want = PfnList::new();
        want.push_run(Pfn(1000), 1);
        want.push_run(Pfn(1002), 504);
        want.push_run(Pfn(3000), 8);
        assert_eq!(pt.walk_resident(va, pages), want);
        // Packed frames: resident pages take the list's frames in turn.
        let packed = PfnList::from_pages((5000..5000 + 513).map(Pfn));
        let moved = pt.remap(va, pages, &packed, Frames::Packed, |_, _| {});
        assert_eq!(moved, Ok(513));
        let mut want = PfnList::new();
        want.push_run(Pfn(5000), 1);
        want.push_run(Pfn(5001), 512);
        assert_eq!(pt.walk_resident(va, pages), want);
        assert_eq!(pt.translate(va + 2 * K4).unwrap().0, Pfn(5001).base());
    }
}
