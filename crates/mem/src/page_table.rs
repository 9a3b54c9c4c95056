//! A real four-level page table (x86-64 shaped).
//!
//! Levels are numbered 3 (top, PML4-like) down to 0 (leaf page table).
//! Leaves may sit at level 0 (4 KiB), level 1 (2 MiB) or level 2 (1 GiB).
//! Kitten maps process memory with large pages where possible; XEMEM
//! attachments install 4 KiB mappings one frame at a time, which is exactly
//! the per-page work the paper's throughput numbers measure.
//!
//! # Run-list chunks
//!
//! The *virtual-time* model charges per page — that is the paper's result —
//! but the *host* pays per extent. Level-0 tables are never materialized:
//! the 4 KiB leaves of a 2 MiB chunk live in the chunk's level-1 entry as
//! its sorted, disjoint, maximally merged runs (`LeafRun`s), where two runs
//! are merged exactly when their slots and frames are contiguous and their
//! flags are equal. A chunk whose last page is unmapped goes back to an
//! empty entry. The representation is therefore a function of the current
//! mapping alone, never of the calls that produced it — no sequence of
//! unaligned, fragmented or partial operations leaves a chunk that later
//! calls pay for.
//!
//! Every operation descends once per 2 MiB chunk it touches. Inside a
//! chunk of `r` runs a read costs O(log r) plus O(1) per run it returns,
//! and a write rebuilds the chunk in O(r) — a lone run, the common case,
//! is stored inline, so it allocates nothing. An operation over `p` pages
//! therefore costs O(p / 512 + runs in the chunks it touches) host time,
//! never O(p).
//! Every observable — translations, `walk_range` output and
//! [`WalkStats`], freed-frame order, error values and addresses,
//! `leaf_count` — is that of one discrete leaf per 4 KiB page, which
//! `tests/extent_equivalence.rs` checks against a per-page model.

use crate::error::MemError;
use crate::pfn_list::{PfnList, PfnRun};
use crate::types::{PageSize, Pfn, PhysAddr, VirtAddr, PAGE_SIZE};
use serde::{Deserialize, Serialize};

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

    /// Set union.
    pub fn union(self, other: PteFlags) -> PteFlags {
        PteFlags(self.0 | other.0)
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

/// A large-page leaf mapping (2 MiB at level 1, 1 GiB at level 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Leaf {
    pfn: Pfn,
    flags: PteFlags,
    size: PageSize,
}

/// A run of contiguous 4 KiB leaf mappings within one 2 MiB chunk:
/// level-0 slot `first + i` maps frame `start + i` for `i < len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LeafRun {
    /// First covered level-0 slot (0..512).
    first: u16,
    /// Covered slots (1..=512, `first + len <= 512`).
    len: u16,
    /// Frame backing slot `first`.
    start: Pfn,
    flags: PteFlags,
}

impl LeafRun {
    fn end(&self) -> u16 {
        self.first + self.len
    }

    /// True when `next` continues this run: adjacent slots, adjacent
    /// frames, equal flags.
    fn merges_with(&self, next: &LeafRun) -> bool {
        self.end() == next.first
            && self.start.0 + u64::from(self.len) == next.start.0
            && self.flags == next.flags
    }

    /// The part of this run inside slots `[s, e)`, if any.
    fn clip(&self, s: u16, e: u16) -> Option<LeafRun> {
        let lo = self.first.max(s);
        let hi = self.end().min(e);
        (lo < hi).then(|| LeafRun {
            first: lo,
            len: hi - lo,
            start: self.start.offset(u64::from(lo - self.first)),
            flags: self.flags,
        })
    }
}

/// Level-0 slots per 2 MiB chunk.
const CHUNK_SLOTS: u16 = 512;

/// The 4 KiB leaves of one 2 MiB chunk in canonical form: runs sorted by
/// slot, disjoint, and maximally merged (no run `merges_with` its
/// successor). A lone run — the common case — is stored inline; an empty
/// chunk is not stored at all.
#[derive(Debug)]
enum Chunk {
    One(LeafRun),
    /// Two or more runs.
    Many(Vec<LeafRun>),
}

impl Chunk {
    fn runs(&self) -> &[LeafRun] {
        match self {
            Chunk::One(run) => std::slice::from_ref(run),
            Chunk::Many(runs) => runs,
        }
    }

    /// The mapped parts of slots `[s, e)`, in slot order.
    fn clipped(&self, s: u16, e: u16) -> impl Iterator<Item = LeafRun> + '_ {
        let runs = self.runs();
        runs[runs.partition_point(|r| r.end() <= s)..]
            .iter()
            .map_while(move |r| r.clip(s, e))
    }

    /// The run mapping `slot`, if any.
    fn run_at(&self, slot: u16) -> Option<LeafRun> {
        self.clipped(slot, slot + 1).next()
    }

    /// First mapped slot in `[s, e)`.
    fn first_mapped(&self, s: u16, e: u16) -> Option<u16> {
        self.clipped(s, e).next().map(|r| r.first)
    }

    /// First unmapped slot in `[s, e)`.
    fn first_hole(&self, s: u16, e: u16) -> Option<u16> {
        let mut at = s;
        for r in self.clipped(s, e) {
            if r.first > at {
                break;
            }
            at = r.end();
        }
        (at < e).then_some(at)
    }
}

/// Append `run` after every run of `chunk`, merging when it continues the
/// last one — so pushing any runs in slot order builds a canonical chunk.
fn push_run(chunk: &mut Option<Chunk>, run: LeafRun) {
    match chunk {
        None => *chunk = Some(Chunk::One(run)),
        Some(Chunk::One(last)) if last.merges_with(&run) => last.len += run.len,
        Some(Chunk::One(last)) => *chunk = Some(Chunk::Many(vec![*last, run])),
        Some(Chunk::Many(runs)) => match runs.last_mut() {
            Some(last) if last.merges_with(&run) => last.len += run.len,
            _ => runs.push(run),
        },
    }
}

/// Replace slots `[s, e)` of the chunk in the level-1 entry `slot` (runs,
/// or empty) with `fill` — runs in slot order tiling the range, or
/// nothing — handing the frames of every page it unmaps to `freed` in
/// slot order. The chunk is rebuilt canonically in O(runs); one left with
/// no page empties the entry. Returns the pages unmapped.
fn splice_chunk(
    slot: &mut Option<Entry>,
    s: u16,
    e: u16,
    fill: impl IntoIterator<Item = LeafRun>,
    mut freed: impl FnMut(Pfn, u64),
) -> u64 {
    let old = match slot.take() {
        None => None,
        Some(Entry::Runs(chunk)) => Some(chunk),
        Some(_) => unreachable!("splice into a chunk of 4 KiB leaves"),
    };
    let runs = old.as_ref().map_or(&[][..], Chunk::runs);
    let (before, rest) = runs.split_at(runs.partition_point(|r| r.end() <= s));
    let (cut, after) = rest.split_at(rest.partition_point(|r| r.first < e));
    let mut new = None;
    for &run in before {
        push_run(&mut new, run);
    }
    if let Some(left) = cut.first().and_then(|r| r.clip(0, s)) {
        push_run(&mut new, left);
    }
    let mut unmapped = 0;
    for run in cut.iter().filter_map(|r| r.clip(s, e)) {
        freed(run.start, u64::from(run.len));
        unmapped += u64::from(run.len);
    }
    for run in fill {
        push_run(&mut new, run);
    }
    if let Some(right) = cut.last().and_then(|r| r.clip(e, CHUNK_SLOTS)) {
        push_run(&mut new, right);
    }
    for &run in after {
        push_run(&mut new, run);
    }
    *slot = new.map(Entry::Runs);
    unmapped
}

#[derive(Debug)]
enum Entry {
    Table(Box<Level>),
    /// A 2 MiB (level 1) or 1 GiB (level 2) leaf.
    Leaf(Leaf),
    /// The 4 KiB leaves of a 2 MiB chunk. Level 1 only.
    Runs(Chunk),
}

#[derive(Debug)]
struct Level {
    entries: Vec<Option<Entry>>,
}

impl Level {
    fn new() -> Box<Level> {
        Box::new(Level {
            entries: (0..512).map(|_| None).collect(),
        })
    }
}

/// Statistics from a range walk: real structural work performed, used by
/// kernels to charge virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkStats {
    /// 4 KiB page translations produced.
    pub pages: u64,
    /// Leaf PTEs actually visited (a 2 MiB leaf covers 512 pages but is
    /// one visit; a run of 4 KiB leaves counts one visit per covered
    /// page, exactly like the discrete leaves it stands for).
    pub leaves_visited: u64,
}

/// What occupies the 2 MiB chunk containing a given address.
enum ChunkRef<'a> {
    /// No table path down to level 1, or an empty level-1 entry — at
    /// least the whole chunk is unmapped.
    Hole,
    /// A 1 GiB leaf at level 2 covers this chunk.
    Giant(&'a Leaf),
    /// A 2 MiB leaf occupies exactly this chunk.
    Large(&'a Leaf),
    /// 4 KiB leaves.
    Runs(&'a Chunk),
}

/// Split pages `[first, end)` at 2 MiB chunk boundaries, yielding each
/// chunk's first page and the slots `[s, e)` of it inside the range.
fn chunks(first: u64, end: u64) -> impl Iterator<Item = (u64, u16, u16)> {
    let per = u64::from(CHUNK_SLOTS);
    let last = if end > first { end.div_ceil(per) } else { 0 };
    (first / per..last).map(move |c| {
        let base = c * per;
        let s = first.max(base) - base;
        let e = end.min(base + per) - base;
        (base, s as u16, e as u16)
    })
}

/// The address of page number `page`.
fn page_va(page: u64) -> VirtAddr {
    VirtAddr(page * PAGE_SIZE)
}

/// Descend to the level-`target` table containing `va`, creating
/// intermediate tables as needed.
fn table_for(root: &mut Level, va: VirtAddr, target: u8) -> Result<&mut Level, MemError> {
    let mut level = root;
    let mut lvl = 3u8;
    while lvl > target {
        let slot = &mut level.entries[va.pt_index(lvl)];
        if slot.is_none() {
            *slot = Some(Entry::Table(Level::new()));
        }
        level = match slot {
            Some(Entry::Table(t)) => t,
            _ => return Err(MemError::MappingConflict(va)),
        };
        lvl -= 1;
    }
    Ok(level)
}

/// Unmap what is resident in slots `[s, e)` of a chunk's entry — a large
/// leaf goes whole — handing the freed frames to `freed` in address
/// order. Returns the leaves cleared.
fn clear_entry(slot: &mut Option<Entry>, s: u16, e: u16, mut freed: impl FnMut(Pfn, u64)) -> u64 {
    match slot {
        Some(Entry::Leaf(leaf)) => {
            freed(leaf.pfn, leaf.size.frames());
            *slot = None;
            1
        }
        _ => splice_chunk(slot, s, e, std::iter::empty(), freed),
    }
}

/// A four-level page table.
#[derive(Debug)]
pub struct PageTable {
    root: Box<Level>,
    leaf_count: u64,
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PageTable {
    /// An empty table.
    pub fn new() -> Self {
        PageTable {
            root: Level::new(),
            leaf_count: 0,
        }
    }

    /// Number of leaf mappings installed (one per 4 KiB page, one per
    /// large-page leaf).
    pub fn leaf_count(&self) -> u64 {
        self.leaf_count
    }

    /// Resolve the chunk containing `va` without creating tables.
    fn chunk_ref(&self, va: VirtAddr) -> ChunkRef<'_> {
        let mut level = &self.root;
        for lvl in [3u8, 2] {
            match level.entries[va.pt_index(lvl)].as_ref() {
                None => return ChunkRef::Hole,
                Some(Entry::Leaf(l)) => return ChunkRef::Giant(l),
                Some(Entry::Runs(_)) => unreachable!("runs above level 1"),
                Some(Entry::Table(t)) => level = t,
            }
        }
        match level.entries[va.pt_index(1)].as_ref() {
            None => ChunkRef::Hole,
            Some(Entry::Leaf(l)) => ChunkRef::Large(l),
            Some(Entry::Runs(c)) => ChunkRef::Runs(c),
            Some(Entry::Table(_)) => unreachable!("table below level 1"),
        }
    }

    /// The entry mapping the chunk containing `va` — the level-2 slot of
    /// a 1 GiB leaf, otherwise the level-1 slot — without creating
    /// tables. `None` when no table path reaches level 1.
    fn chunk_slot_mut(&mut self, va: VirtAddr) -> Option<&mut Option<Entry>> {
        let Some(Entry::Table(l2)) = &mut self.root.entries[va.pt_index(3)] else {
            return None;
        };
        let slot = &mut l2.entries[va.pt_index(2)];
        if matches!(slot, Some(Entry::Leaf(_))) {
            return Some(slot);
        }
        match slot {
            Some(Entry::Table(l1)) => Some(&mut l1.entries[va.pt_index(1)]),
            _ => None,
        }
    }

    /// Unmap what is resident in slots `[s, e)` of the chunk containing
    /// `va` — a large leaf covering it goes whole — appending the freed
    /// frames to `out`. Returns the leaves cleared.
    fn clear_chunk(&mut self, va: VirtAddr, s: u16, e: u16, out: &mut PfnList) -> u64 {
        let cleared = self.chunk_slot_mut(va).map_or(0, |slot| {
            clear_entry(slot, s, e, |pfn, len| out.push_run(pfn, len))
        });
        self.leaf_count -= cleared;
        cleared
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
        let level = size.leaf_level().max(1);
        let slot = &mut table_for(&mut self.root, va, level)?.entries[va.pt_index(level)];
        if size != PageSize::Size4K {
            match slot {
                None => *slot = Some(Entry::Leaf(Leaf { pfn, flags, size })),
                Some(Entry::Leaf(_)) => return Err(MemError::AlreadyMapped(va)),
                // 4 KiB leaves, or a lower-level table, in the way.
                Some(_) => return Err(MemError::MappingConflict(va)),
            }
        } else {
            let slot0 = va.pt_index(0) as u16;
            match slot {
                Some(Entry::Runs(c)) if c.run_at(slot0).is_some() => {
                    return Err(MemError::AlreadyMapped(va));
                }
                None | Some(Entry::Runs(_)) => {
                    let run = LeafRun {
                        first: slot0,
                        len: 1,
                        start: pfn,
                        flags,
                    };
                    splice_chunk(slot, slot0, slot0 + 1, [run], |_, _| {});
                }
                // A 2 MiB leaf covers the page.
                Some(_) => return Err(MemError::MappingConflict(va)),
            }
        }
        self.leaf_count += 1;
        Ok(())
    }

    /// Map `pfns.len()` 4 KiB pages starting at `va`, one frame per page,
    /// in order — the XEMEM attachment fast path. Validates the whole
    /// range first (no partial installs on error) and installs whole
    /// contiguous runs per 2 MiB chunk. Returns the number of PTEs
    /// written.
    pub fn map_pages(
        &mut self,
        va: VirtAddr,
        pfns: impl IntoIterator<Item = Pfn>,
        flags: PteFlags,
    ) -> Result<u64, MemError> {
        let list: PfnList = pfns.into_iter().collect();
        self.map_list(va, &list, flags)
    }

    /// Map a whole PFN list at `va` with one table descent per 2 MiB
    /// chunk: the extent fast path behind every XEMEM attach.
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
        for (base, s, e) in chunks(first, first + pages) {
            let cur = page_va(base + u64::from(s));
            match self.chunk_ref(cur) {
                ChunkRef::Hole => {}
                ChunkRef::Giant(_) | ChunkRef::Large(_) => {
                    return Err(MemError::MappingConflict(cur));
                }
                ChunkRef::Runs(c) => {
                    if let Some(slot) = c.first_mapped(s, e) {
                        return Err(MemError::AlreadyMapped(page_va(base + u64::from(slot))));
                    }
                }
            }
        }
        // Commit: feed each chunk the pieces of `runs` that land in it.
        let mut runs = runs.iter();
        let mut run = runs.next();
        let mut used = 0u64;
        for (base, s, e) in chunks(first, first + pages) {
            let cur = page_va(base);
            let slot = &mut table_for(&mut self.root, cur, 1)
                .expect("range was validated")
                .entries[cur.pt_index(1)];
            let mut at = s;
            let pieces = std::iter::from_fn(|| {
                if at == e {
                    return None;
                }
                let r = run.expect("runs cover the range");
                let len = (r.len - used).min(u64::from(e - at)) as u16;
                let piece = LeafRun {
                    first: at,
                    len,
                    start: r.start.offset(used),
                    flags,
                };
                at += len;
                used += u64::from(len);
                if used == r.len {
                    run = runs.next();
                    used = 0;
                }
                Some(piece)
            });
            splice_chunk(slot, s, e, pieces, |_, _| {});
            self.leaf_count += u64::from(e - s);
        }
        Ok(pages)
    }

    /// Remove the mapping containing `va`. Returns the leaf's frame and
    /// size.
    pub fn unmap(&mut self, va: VirtAddr) -> Result<(Pfn, PageSize), MemError> {
        let slot0 = va.pt_index(0) as u16;
        let slot = self.chunk_slot_mut(va).ok_or(MemError::NotMapped(va))?;
        let found = match slot {
            Some(Entry::Leaf(leaf)) => Some((leaf.pfn, leaf.size)),
            Some(Entry::Runs(c)) => c.run_at(slot0).map(|r| (r.start, PageSize::Size4K)),
            _ => None,
        }
        .ok_or(MemError::NotMapped(va))?;
        clear_entry(slot, slot0, slot0 + 1, |_, _| {});
        self.leaf_count -= 1;
        Ok(found)
    }

    /// Unmap `pages` consecutive 4 KiB pages starting at `va`, returning
    /// the freed frames in address order. Validate-then-commit: on error
    /// (a hole, or a large-page leaf in the range) nothing has been
    /// unmapped.
    pub fn unmap_pages(&mut self, va: VirtAddr, pages: u64) -> Result<PfnList, MemError> {
        let first = va.0 / PAGE_SIZE;
        for (base, s, e) in chunks(first, first + pages) {
            let cur = page_va(base + u64::from(s));
            match self.chunk_ref(cur) {
                ChunkRef::Hole => return Err(MemError::NotMapped(cur)),
                ChunkRef::Giant(_) | ChunkRef::Large(_) => {
                    return Err(MemError::MappingConflict(cur));
                }
                ChunkRef::Runs(c) => {
                    if let Some(slot) = c.first_hole(s, e) {
                        return Err(MemError::NotMapped(page_va(base + u64::from(slot))));
                    }
                }
            }
        }
        let mut out = PfnList::new();
        for (base, s, e) in chunks(first, first + pages) {
            self.clear_chunk(page_va(base), s, e, &mut out);
        }
        Ok(out)
    }

    /// Unmap whatever is resident in `[va, va + pages * 4 KiB)`, skipping
    /// holes — the teardown/reaper path. Returns the freed frames and the
    /// number of *leaves* cleared (one per 4 KiB page, one per large-page
    /// leaf — the count the per-page translate-then-unmap loop would
    /// produce). A large-page leaf overlapping the range is removed whole
    /// and all of its frames are reported.
    pub fn unmap_resident(&mut self, va: VirtAddr, pages: u64) -> (PfnList, u64) {
        let first = va.0 / PAGE_SIZE;
        let mut out = PfnList::new();
        let mut cleared = 0u64;
        for (base, s, e) in chunks(first, first + pages) {
            cleared += self.clear_chunk(page_va(base), s, e, &mut out);
        }
        (out, cleared)
    }

    /// Translate a virtual address to (physical address, flags, leaf size).
    pub fn translate(&self, va: VirtAddr) -> Option<(PhysAddr, PteFlags, PageSize)> {
        match self.chunk_ref(va) {
            ChunkRef::Hole => None,
            ChunkRef::Giant(leaf) | ChunkRef::Large(leaf) => {
                let within = va.0 & (leaf.size.bytes() - 1);
                Some((leaf.pfn.base() + within, leaf.flags, leaf.size))
            }
            ChunkRef::Runs(c) => {
                let slot = va.pt_index(0) as u16;
                let r = c.run_at(slot)?;
                let within = va.0 & (PAGE_SIZE - 1);
                Some((r.start.base() + within, r.flags, PageSize::Size4K))
            }
        }
    }

    /// Produce the PFN list for `[va, va + len)` — the export-side
    /// operation of the XEMEM protocol. Every 4 KiB page in the range must
    /// be mapped. Returns the list and the real structural work performed.
    /// One chunk lookup per 2 MiB (or per large leaf), not per page;
    /// the [`WalkStats`] are computed arithmetically and match the
    /// per-page walk exactly.
    pub fn walk_range(&self, va: VirtAddr, len: u64) -> Result<(PfnList, WalkStats), MemError> {
        let mut list = PfnList::new();
        let mut stats = WalkStats::default();
        let mut off = 0u64;
        while off < len {
            let cur = va + off;
            let pages_remaining = (len - off).div_ceil(PAGE_SIZE);
            match self.chunk_ref(cur) {
                ChunkRef::Hole => return Err(MemError::NotMapped(cur)),
                ChunkRef::Giant(leaf) | ChunkRef::Large(leaf) => {
                    let bytes = leaf.size.bytes();
                    let within = cur.0 & (bytes - 1);
                    let leaf_remaining = bytes - within;
                    let take = leaf_remaining.min(len - off);
                    let frames = take.div_ceil(PAGE_SIZE);
                    list.push_run(leaf.pfn.offset(within / PAGE_SIZE), frames);
                    stats.pages += frames;
                    stats.leaves_visited += 1;
                    off += frames * PAGE_SIZE;
                }
                ChunkRef::Runs(c) => {
                    let s = cur.pt_index(0) as u16;
                    let e = u64::from(CHUNK_SLOTS).min(u64::from(s) + pages_remaining) as u16;
                    if let Some(hole) = c.first_hole(s, e) {
                        return Err(MemError::NotMapped(cur + u64::from(hole - s) * PAGE_SIZE));
                    }
                    for r in c.clipped(s, e) {
                        list.push_run(r.start, u64::from(r.len));
                    }
                    let frames = u64::from(e - s);
                    stats.pages += frames;
                    stats.leaves_visited += frames;
                    off += frames * PAGE_SIZE;
                }
            }
        }
        Ok((list, stats))
    }

    /// Frames backing the resident pages of `[va, va + pages * 4 KiB)`,
    /// in address order, skipping holes — the frame-retention walk.
    pub fn walk_resident(&self, va: VirtAddr, pages: u64) -> PfnList {
        let first = va.0 / PAGE_SIZE;
        let mut out = PfnList::new();
        for (base, s, e) in chunks(first, first + pages) {
            let cur = page_va(base + u64::from(s));
            match self.chunk_ref(cur) {
                ChunkRef::Hole => {}
                ChunkRef::Giant(leaf) | ChunkRef::Large(leaf) => {
                    let within = (cur.0 & (leaf.size.bytes() - 1)) / PAGE_SIZE;
                    out.push_run(leaf.pfn.offset(within), u64::from(e - s));
                }
                ChunkRef::Runs(c) => {
                    for r in c.clipped(s, e) {
                        out.push_run(r.start, u64::from(r.len));
                    }
                }
            }
        }
        out
    }

    /// The unmapped sub-ranges of `[va, va + pages * 4 KiB)`, as
    /// `(page_offset_from_va, run_length)` pairs in address order —
    /// the demand-fault hole finder.
    pub fn find_unmapped(&self, va: VirtAddr, pages: u64) -> Vec<(u64, u64)> {
        let first = va.0 / PAGE_SIZE;
        let mut out: Vec<(u64, u64)> = Vec::new();
        let mut push = |off: u64, len: u64| {
            if len == 0 {
                return;
            }
            match out.last_mut() {
                Some(last) if last.0 + last.1 == off => last.1 += len,
                _ => out.push((off, len)),
            }
        };
        for (base, s, e) in chunks(first, first + pages) {
            let at_page = |slot: u16| base + u64::from(slot) - first;
            match self.chunk_ref(page_va(base + u64::from(s))) {
                ChunkRef::Hole => push(at_page(s), u64::from(e - s)),
                ChunkRef::Giant(_) | ChunkRef::Large(_) => {}
                ChunkRef::Runs(c) => {
                    let mut at = s;
                    for r in c.clipped(s, e) {
                        push(at_page(at), u64::from(r.first - at));
                        at = r.end();
                    }
                    push(at_page(at), u64::from(e - at));
                }
            }
        }
        out
    }

    /// Change the flags on the leaf containing `va`.
    pub fn protect(&mut self, va: VirtAddr, flags: PteFlags) -> Result<(), MemError> {
        let slot0 = va.pt_index(0) as u16;
        let slot = self.chunk_slot_mut(va).ok_or(MemError::NotMapped(va))?;
        let start = match slot {
            Some(Entry::Leaf(leaf)) => {
                leaf.flags = flags;
                return Ok(());
            }
            Some(Entry::Runs(c)) => c.run_at(slot0).ok_or(MemError::NotMapped(va))?.start,
            _ => return Err(MemError::NotMapped(va)),
        };
        let run = LeafRun {
            first: slot0,
            len: 1,
            start,
            flags,
        };
        splice_chunk(slot, slot0, slot0 + 1, [run], |_, _| {});
        Ok(())
    }

    /// The runs of 4 KiB leaves stored for the 2 MiB chunk containing
    /// `va`, in address order, as `(address of the run's first page,
    /// frames, flags)`; empty unless the chunk holds 4 KiB mappings.
    /// Chunks are canonical (see the module docs), so two tables with the
    /// same mappings report the same runs, however they were built.
    pub fn chunk_runs(&self, va: VirtAddr) -> Vec<(VirtAddr, PfnRun, PteFlags)> {
        let ChunkRef::Runs(c) = self.chunk_ref(va) else {
            return Vec::new();
        };
        let base = va.0 / PAGE_SIZE / u64::from(CHUNK_SLOTS) * u64::from(CHUNK_SLOTS);
        c.runs()
            .iter()
            .map(|r| {
                let run = PfnRun {
                    start: r.start,
                    len: u64::from(r.len),
                };
                (page_va(base + u64::from(r.first)), run, r.flags)
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
}
