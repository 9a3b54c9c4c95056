//! A reference model for the extent-map page table.
//!
//! `PageTable` stores maximal extents. The model here stores one record
//! per leaf — per 4 KiB page, per 2 MiB or 1 GiB large page — never
//! merged, and answers every query page by page, the way a table of
//! discrete leaves would. Random histories of every mutating operation
//! (the large-leaf `map_extent_large` of static images and the in-place
//! `remap` of migrations and attachments included) at all three leaf
//! sizes, in a window around the first 1 GiB boundary, must
//! leave the two indistinguishable after every step: each call's
//! result and error (kind and address), translations and leaf sizes,
//! spans, strict and resident walks with their `WalkStats`, holes,
//! `leaf_count`, and the `chunk_runs` of every 2 MiB chunk. Before each
//! `remap`, the one-pass `walk_remap` must report what the model finds
//! page by page, and `remap` must report replacing exactly the frames of
//! the model's resident walk.

use proptest::prelude::*;
use std::collections::BTreeMap;
use xemem_mem::page_table::{Frames, RemapWalk, WalkStats};
use xemem_mem::pfn_list::PfnRun;
use xemem_mem::{
    MemError, PageSize, PageTable, Pfn, PfnList, PhysAddr, PteFlags, VirtAddr, PAGE_SIZE,
};

/// Pages per 2 MiB chunk and per 1 GiB.
const CHUNK: u64 = 512;
const GIB: u64 = 1 << 18;
/// The probed window: three 2 MiB chunks on each side of the first GiB
/// boundary.
const LO: u64 = GIB - 3 * CHUNK;
const HI: u64 = GIB + 3 * CHUNK;

const K4: PageSize = PageSize::Size4K;

fn va_of(page: u64) -> VirtAddr {
    VirtAddr(page * PAGE_SIZE)
}

fn flags_of(read_only: bool) -> PteFlags {
    if read_only {
        PteFlags::ro_user()
    } else {
        PteFlags::rw_user()
    }
}

/// Frame of `page` in frame family `family`: pages of one family mapped
/// side by side are physically contiguous, so extents must merge across
/// calls (and, between leaf sizes, must not).
fn frame(page: u64, family: u64) -> u64 {
    page + (family + 1) * (1 << 22)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Leaf {
    pfn: u64,
    flags: PteFlags,
    size: PageSize,
}

/// The reference: one record per leaf, keyed by its first page.
#[derive(Debug, Default)]
struct Model {
    leaves: BTreeMap<u64, Leaf>,
}

impl Model {
    /// The leaf mapping `page`, with its first page.
    fn leaf_of(&self, page: u64) -> Option<(u64, Leaf)> {
        let (&start, &leaf) = self.leaves.range(..=page).next_back()?;
        (page < start + leaf.size.frames()).then_some((start, leaf))
    }

    /// `page`'s frame, flags and leaf size.
    fn page(&self, page: u64) -> Option<(u64, PteFlags, PageSize)> {
        self.leaf_of(page)
            .map(|(start, l)| (l.pfn + page - start, l.flags, l.size))
    }

    /// A leaf of the same size in the slot is `AlreadyMapped`; any other
    /// leaf overlapping the new one is a `MappingConflict`.
    fn map(
        &mut self,
        va: VirtAddr,
        pfn: u64,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<(), MemError> {
        if !va.is_aligned(size) {
            return Err(MemError::Misaligned(va, size));
        }
        let page = va.0 / PAGE_SIZE;
        if self.leaves.get(&page).is_some_and(|l| l.size == size) {
            return Err(MemError::AlreadyMapped(va));
        }
        let end = page + size.frames();
        if self.leaf_of(page).is_some() || self.leaves.range(page..end).next().is_some() {
            return Err(MemError::MappingConflict(va));
        }
        self.leaves.insert(page, Leaf { pfn, flags, size });
        Ok(())
    }

    /// The per-page 4 KiB `map` loop, validated before anything is
    /// installed.
    fn map_list(&mut self, va: VirtAddr, list: &PfnList, flags: PteFlags) -> Result<u64, MemError> {
        if list.is_empty() {
            return Ok(0);
        }
        if !va.is_aligned(K4) {
            return Err(MemError::Misaligned(va, K4));
        }
        let first = va.0 / PAGE_SIZE;
        for p in first..first + list.pages() {
            match self.page(p) {
                Some((_, _, K4)) => return Err(MemError::AlreadyMapped(va_of(p))),
                Some(_) => return Err(MemError::MappingConflict(va_of(p))),
                None => {}
            }
        }
        for (i, pfn) in list.iter_pages().enumerate() {
            let leaf = Leaf {
                pfn: pfn.0,
                flags,
                size: K4,
            };
            self.leaves.insert(first + i as u64, leaf);
        }
        Ok(list.pages())
    }

    /// Refused whole at the first mapped page; otherwise leaf by leaf, a
    /// 2 MiB leaf wherever page and frame are both 2 MiB-aligned and a
    /// whole leaf remains, a 4 KiB leaf elsewhere.
    fn map_extent_large(
        &mut self,
        va: VirtAddr,
        pfn: u64,
        pages: u64,
        flags: PteFlags,
    ) -> Result<u64, MemError> {
        let first = va.0 / PAGE_SIZE;
        if let Some(p) = (first..first + pages).find(|&p| self.page(p).is_some()) {
            return Err(MemError::MappingConflict(va_of(p)));
        }
        let (mut off, mut leaves) = (0, 0);
        while off < pages {
            let aligned = (first + off).is_multiple_of(CHUNK) && (pfn + off).is_multiple_of(CHUNK);
            let size = if aligned && pages - off >= CHUNK {
                PageSize::Size2M
            } else {
                K4
            };
            self.map(va_of(first + off), pfn + off, size, flags)
                .expect("range checked free");
            (off, leaves) = (off + size.frames(), leaves + 1);
        }
        Ok(leaves)
    }

    fn unmap(&mut self, va: VirtAddr) -> Result<(Pfn, PageSize), MemError> {
        let (start, leaf) = self
            .leaf_of(va.0 / PAGE_SIZE)
            .ok_or(MemError::NotMapped(va))?;
        self.leaves.remove(&start);
        Ok((Pfn(leaf.pfn), leaf.size))
    }

    fn unmap_pages(&mut self, va: VirtAddr, pages: u64) -> Result<PfnList, MemError> {
        let first = va.0 / PAGE_SIZE;
        for p in first..first + pages {
            match self.page(p) {
                None => return Err(MemError::NotMapped(va_of(p))),
                Some((_, _, K4)) => {}
                Some(_) => return Err(MemError::MappingConflict(va_of(p))),
            }
        }
        Ok((first..first + pages)
            .map(|p| Pfn(self.leaves.remove(&p).expect("validated").pfn))
            .collect())
    }

    /// Every leaf touching the range goes whole.
    fn unmap_resident(&mut self, va: VirtAddr, pages: u64) -> (PfnList, u64) {
        let first = va.0 / PAGE_SIZE;
        let (mut freed, mut cleared) = (PfnList::new(), 0);
        let mut p = first;
        while p < first + pages {
            match self.leaf_of(p) {
                Some((start, leaf)) => {
                    self.leaves.remove(&start);
                    freed.push_run(Pfn(leaf.pfn), leaf.size.frames());
                    cleared += 1;
                    p = start + leaf.size.frames();
                }
                None => p += 1,
            }
        }
        (freed, cleared)
    }

    /// A leaf at either end of the range that reaches past it is refused
    /// at that end's page.
    fn whole_leaves(&self, va: VirtAddr, pages: u64) -> Result<(), MemError> {
        let (first, end) = (va.0 / PAGE_SIZE, va.0 / PAGE_SIZE + pages);
        let ends = if pages > 0 {
            vec![first, end - 1]
        } else {
            vec![]
        };
        for p in ends {
            let leaf = self.leaf_of(p);
            if leaf.is_some_and(|(start, l)| start < first || start + l.size.frames() > end) {
                return Err(MemError::MappingConflict(va_of(p)));
            }
        }
        Ok(())
    }

    /// The resident walk, the first hole and the end-leaf refusal.
    fn walk_remap(&self, va: VirtAddr, pages: u64) -> RemapWalk {
        let holes = self.find_unmapped(va, pages);
        RemapWalk {
            resident: self.walk_resident(va, pages),
            hole: holes.first().map(|&(off, _)| va + off * PAGE_SIZE),
            whole: self.whole_leaves(va, pages),
        }
    }

    /// Refused as [`Model::whole_leaves`]; otherwise every resident page
    /// becomes a 4 KiB leaf with its old flags, on frame `new(offset, k)`
    /// for the page `offset` pages into the range and `k`-th resident in
    /// it.
    fn remap(
        &mut self,
        va: VirtAddr,
        pages: u64,
        new: impl Fn(u64, u64) -> u64,
    ) -> Result<u64, MemError> {
        self.whole_leaves(va, pages)?;
        let (first, end) = (va.0 / PAGE_SIZE, va.0 / PAGE_SIZE + pages);
        let resident: Vec<(u64, PteFlags)> = (first..end)
            .filter_map(|p| self.page(p).map(|(_, flags, _)| (p, flags)))
            .collect();
        self.leaves
            .retain(|&start, _| start < first || start >= end);
        for (k, &(p, flags)) in resident.iter().enumerate() {
            let pfn = new(p - first, k as u64);
            self.leaves.insert(
                p,
                Leaf {
                    pfn,
                    flags,
                    size: K4,
                },
            );
        }
        Ok(resident.len() as u64)
    }

    fn protect(&mut self, va: VirtAddr, flags: PteFlags) -> Result<(), MemError> {
        let (start, _) = self
            .leaf_of(va.0 / PAGE_SIZE)
            .ok_or(MemError::NotMapped(va))?;
        self.leaves.get_mut(&start).expect("just found").flags = flags;
        Ok(())
    }

    fn translate(&self, va: VirtAddr) -> Option<(PhysAddr, PteFlags, PageSize)> {
        let (pfn, flags, size) = self.page(va.0 / PAGE_SIZE)?;
        Some((Pfn(pfn).base() + va.page_offset(), flags, size))
    }

    /// [`Model::translate`] plus the bytes up to the first following
    /// leaf that breaks physical contiguity, flags or leaf size.
    fn translate_span(&self, va: VirtAddr) -> Option<(PhysAddr, PteFlags, u64)> {
        let (pa, flags, size) = self.translate(va)?;
        let (mut start, mut leaf) = self.leaf_of(va.0 / PAGE_SIZE).expect("translated");
        loop {
            let end = start + leaf.size.frames();
            match self.leaves.get(&end) {
                Some(&next)
                    if next.size == size
                        && next.flags == flags
                        && next.pfn == leaf.pfn + leaf.size.frames() =>
                {
                    (start, leaf) = (end, next);
                }
                _ => return Some((pa, flags, end * PAGE_SIZE - va.0)),
            }
        }
    }

    /// `len.div_ceil(4 KiB)` pages from `va`'s page, one visit per leaf;
    /// a hole is reported at its page plus `va`'s offset.
    fn walk_range(&self, va: VirtAddr, len: u64) -> Result<(PfnList, WalkStats), MemError> {
        let first = va.0 / PAGE_SIZE;
        let (mut list, mut stats, mut last) = (PfnList::new(), WalkStats::default(), None);
        for p in first..first + len.div_ceil(PAGE_SIZE) {
            let (start, leaf) = self
                .leaf_of(p)
                .ok_or(MemError::NotMapped(va_of(p) + va.page_offset()))?;
            list.push_run(Pfn(leaf.pfn + p - start), 1);
            stats.pages += 1;
            if last != Some(start) {
                stats.leaves_visited += 1;
                last = Some(start);
            }
        }
        Ok((list, stats))
    }

    fn walk_resident(&self, va: VirtAddr, pages: u64) -> PfnList {
        let first = va.0 / PAGE_SIZE;
        (first..first + pages)
            .filter_map(|p| self.page(p).map(|(pfn, _, _)| Pfn(pfn)))
            .collect()
    }

    fn find_unmapped(&self, va: VirtAddr, pages: u64) -> Vec<(u64, u64)> {
        let first = va.0 / PAGE_SIZE;
        let mut holes: Vec<(u64, u64)> = Vec::new();
        for off in (0..pages).filter(|&off| self.page(first + off).is_none()) {
            match holes.last_mut() {
                Some((at, n)) if *at + *n == off => *n += 1,
                _ => holes.push((off, 1)),
            }
        }
        holes
    }

    /// Maximal runs of virtually and physically contiguous 4 KiB leaves
    /// with equal flags inside the 2 MiB chunk holding `va`.
    fn chunk_runs(&self, va: VirtAddr) -> Vec<(VirtAddr, PfnRun, PteFlags)> {
        let base = va.0 / PAGE_SIZE / CHUNK * CHUNK;
        let mut runs: Vec<(VirtAddr, PfnRun, PteFlags)> = Vec::new();
        for page in base..base + CHUNK {
            let Some((pfn, flags, K4)) = self.page(page) else {
                continue;
            };
            match runs.last_mut() {
                Some((at, run, f))
                    if *f == flags
                        && at.0 / PAGE_SIZE + run.len == page
                        && run.start.0 + run.len == pfn =>
                {
                    run.len += 1
                }
                _ => runs.push((
                    va_of(page),
                    PfnRun {
                        start: Pfn(pfn),
                        len: 1,
                    },
                    flags,
                )),
            }
        }
        runs
    }
}

/// One step of a history.
#[derive(Debug, Clone)]
enum Step {
    Map {
        page: u64,
        size: PageSize,
        family: u64,
        read_only: bool,
    },
    /// A list whose runs are `(len, family)` pairs.
    MapList {
        page: u64,
        runs: Vec<(u64, u64)>,
        read_only: bool,
    },
    /// One physically contiguous run with large leaves where they fit;
    /// `align` starts at a 2 MiB chunk, `skew` shifts the frames off
    /// 2 MiB alignment so that no large leaf fits.
    MapLarge {
        page: u64,
        align: bool,
        pages: u64,
        family: u64,
        skew: bool,
        read_only: bool,
    },
    /// `aim` picks the page (see [`aimed`]) for this and the strict
    /// steps below, so that they often hit a mapping.
    Unmap {
        aim: u64,
        off: u64,
    },
    UnmapPages {
        aim: u64,
        pages: u64,
    },
    UnmapResident {
        page: u64,
        pages: u64,
    },
    Protect {
        aim: u64,
        read_only: bool,
    },
    /// Frames come by offset in the range, or `packed` in resident
    /// order (the same frames when the range has no hole), from a list
    /// whose runs break every `brk` frames; `align` starts at one of the
    /// model's large leaves, if any, so that they are often remapped
    /// whole, or cut and refused.
    Remap {
        aim: u64,
        align: bool,
        pages: u64,
        family: u64,
        packed: bool,
        brk: u64,
    },
    Walk {
        aim: u64,
        off: u64,
        len: u64,
    },
}

/// The page a step aims at: for an odd `aim`, a page of one of the
/// model's leaves; otherwise, or with nothing mapped, a page of the
/// window.
fn aimed(model: &Model, aim: u64) -> u64 {
    let (pick, n) = (aim / 2, model.leaves.len() as u64);
    if aim.is_multiple_of(2) || n == 0 {
        return LO + pick % (HI - LO);
    }
    let (&start, leaf) = model.leaves.iter().nth((pick % n) as usize).expect("n > 0");
    start + pick / n % leaf.size.frames()
}

fn map_4k() -> impl Strategy<Value = Step> {
    (LO..HI, 0u64..3, any::<bool>()).prop_map(|(page, family, read_only)| Step::Map {
        page,
        size: K4,
        family,
        read_only,
    })
}

/// 2 MiB leaves on the window's chunk boundaries and 1 GiB leaves on
/// either side of the GiB boundary, one in ten misaligned.
fn map_large() -> impl Strategy<Value = Step> {
    (0u64..8, 0u64..10, 0u64..3, 0u8..5).prop_map(|(c, miss, family, ro)| {
        let (page, size) = match c {
            0..=5 => (LO + c * CHUNK + u64::from(miss == 0), PageSize::Size2M),
            _ => (
                (c - 6) * GIB + u64::from(miss == 0) * CHUNK,
                PageSize::Size1G,
            ),
        };
        Step::Map {
            page,
            size,
            family,
            read_only: ro == 0,
        }
    })
}

fn map_list() -> impl Strategy<Value = Step> {
    (
        LO..HI,
        prop::collection::vec((1u64..400, 0u64..3), 0..4),
        0u8..5,
    )
        .prop_map(|(page, runs, ro)| Step::MapList {
            page,
            runs,
            read_only: ro == 0,
        })
}

fn map_large_extent() -> impl Strategy<Value = Step> {
    let flags = (0u64..3, any::<bool>(), 0u8..5);
    (LO..HI, 0u8..4, 0u64..1100, flags).prop_map(|(page, align, pages, (family, skew, ro))| {
        Step::MapLarge {
            page,
            align: align > 0,
            pages,
            family,
            skew,
            read_only: ro == 0,
        }
    })
}

fn remap() -> impl Strategy<Value = Step> {
    (
        0u64..1 << 40,
        any::<bool>(),
        0u64..1200,
        0u64..4,
        any::<bool>(),
        1u64..700,
    )
        .prop_map(|(aim, align, pages, family, packed, brk)| Step::Remap {
            aim,
            align,
            pages,
            family,
            packed,
            brk,
        })
}

fn step() -> impl Strategy<Value = Step> {
    let page = LO..HI;
    prop_oneof![
        map_4k(),
        map_4k(),
        map_large(),
        map_large(),
        map_list(),
        map_list(),
        map_list(),
        map_large_extent(),
        map_large_extent(),
        (0u64..1 << 40, 0u64..PAGE_SIZE).prop_map(|(aim, off)| Step::Unmap { aim, off }),
        (0u64..1 << 40, 0u64..48).prop_map(|(aim, pages)| Step::UnmapPages { aim, pages }),
        (page.clone(), 0u64..1200).prop_map(|(page, pages)| Step::UnmapResident { page, pages }),
        (0u64..1 << 40, any::<bool>())
            .prop_map(|(aim, read_only)| Step::Protect { aim, read_only }),
        remap(),
        remap(),
        (0u64..1 << 40, 0u64..PAGE_SIZE, 0u64..96 * PAGE_SIZE)
            .prop_map(|(aim, off, len)| Step::Walk { aim, off, len }),
    ]
}

/// Apply one step to both, requiring the same result.
fn apply(pt: &mut PageTable, model: &mut Model, step: &Step) {
    match *step {
        Step::Map {
            page,
            size,
            family,
            read_only,
        } => {
            let (va, pfn, flags) = (va_of(page), frame(page, family), flags_of(read_only));
            assert_eq!(
                pt.map(va, Pfn(pfn), size, flags),
                model.map(va, pfn, size, flags)
            );
        }
        Step::MapList {
            page,
            ref runs,
            read_only,
        } => {
            let mut list = PfnList::new();
            let mut at = page;
            for &(len, family) in runs {
                list.push_run(Pfn(frame(at, family)), len);
                at += len;
            }
            let (va, flags) = (va_of(page), flags_of(read_only));
            assert_eq!(
                pt.map_list(va, &list, flags),
                model.map_list(va, &list, flags)
            );
        }
        Step::MapLarge {
            page,
            align,
            pages,
            family,
            skew,
            read_only,
        } => {
            let page = if align { page / CHUNK * CHUNK } else { page };
            let pfn = frame(page, family) + u64::from(skew);
            let (va, flags) = (va_of(page), flags_of(read_only));
            assert_eq!(
                pt.map_extent_large(va, Pfn(pfn), pages, flags),
                model.map_extent_large(va, pfn, pages, flags)
            );
        }
        Step::Unmap { aim, off } => {
            let va = va_of(aimed(model, aim)) + off;
            assert_eq!(pt.unmap(va), model.unmap(va));
        }
        Step::UnmapPages { aim, pages } => {
            let va = va_of(aimed(model, aim));
            assert_eq!(pt.unmap_pages(va, pages), model.unmap_pages(va, pages));
        }
        Step::UnmapResident { page, pages } => {
            let va = va_of(page);
            assert_eq!(
                pt.unmap_resident(va, pages),
                model.unmap_resident(va, pages)
            );
        }
        Step::Protect { aim, read_only } => {
            let va = va_of(aimed(model, aim));
            let flags = flags_of(read_only);
            assert_eq!(pt.protect(va, flags), model.protect(va, flags));
        }
        Step::Remap {
            aim,
            align,
            pages,
            family,
            packed,
            brk,
        } => {
            let large: Vec<u64> = (model.leaves.iter())
                .filter(|(_, leaf)| leaf.size != K4)
                .map(|(&start, _)| start)
                .collect();
            let first = match large.len() as u64 {
                n if align && n > 0 => large[(aim % n) as usize],
                _ => aimed(model, aim),
            };
            // Frame `i` of the new list; a gap follows every `brk` frames.
            let pick = |i: u64| frame(first + i, family) + i / brk;
            let va = va_of(first);
            let walk = model.walk_remap(va, pages);
            assert_eq!(pt.walk_remap(va, pages), walk);
            let (take, listed) = match packed {
                true => (Frames::Packed, walk.resident.pages()),
                false => (Frames::AtOffset, pages),
            };
            let list: PfnList = (0..listed).map(|i| Pfn(pick(i))).collect();
            let mut replaced = PfnList::new();
            let got = pt.remap(va, pages, &list, take, |pfn, n| replaced.push_run(pfn, n));
            let new = |off: u64, k: u64| pick(if packed { k } else { off });
            assert_eq!(got, model.remap(va, pages, new));
            let expect = if got.is_ok() {
                walk.resident
            } else {
                PfnList::new()
            };
            assert_eq!(replaced, expect, "frames remap replaced");
        }
        Step::Walk { aim, off, len } => {
            let va = va_of(aimed(model, aim)) + off;
            assert_eq!(pt.walk_range(va, len), model.walk_range(va, len));
        }
    }
}

/// Every observable over the window agrees.
fn assert_same(pt: &PageTable, model: &Model) {
    assert_eq!(pt.leaf_count(), model.leaves.len() as u64, "leaf_count");
    for page in LO - 1..=HI {
        let va = va_of(page) + (page * 131) % PAGE_SIZE;
        assert_eq!(pt.translate(va), model.translate(va), "translate {va}");
    }
    for page in (LO - 1..=HI).step_by(37) {
        let va = va_of(page) + page % PAGE_SIZE;
        assert_eq!(pt.translate_span(va), model.translate_span(va), "span {va}");
    }
    let (lo, pages) = (va_of(LO), HI - LO);
    assert_eq!(pt.find_unmapped(lo, pages), model.find_unmapped(lo, pages));
    assert_eq!(pt.walk_resident(lo, pages), model.walk_resident(lo, pages));
    assert_eq!(
        pt.walk_range(lo, pages * PAGE_SIZE),
        model.walk_range(lo, pages * PAGE_SIZE)
    );
    // A strict walk of every mapped stretch succeeds identically.
    let mut at = 0;
    for (off, n) in model
        .find_unmapped(lo, pages)
        .into_iter()
        .chain([(pages, 0)])
    {
        if off > at {
            let (va, len) = (lo + at * PAGE_SIZE, (off - at) * PAGE_SIZE);
            let walk = pt.walk_range(va, len);
            assert!(walk.is_ok(), "walk of a mapped stretch at {va}");
            assert_eq!(walk, model.walk_range(va, len));
        }
        at = off + n;
    }
    for chunk in (LO..HI).step_by(CHUNK as usize) {
        let va = va_of(chunk);
        assert_eq!(pt.chunk_runs(va), model.chunk_runs(va), "chunk at {va}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random histories at all three leaf sizes leave the extent map and
    /// the per-leaf model indistinguishable after every step.
    #[test]
    fn extent_map_matches_per_leaf_model(steps in prop::collection::vec(step(), 1..40)) {
        let mut pt = PageTable::new();
        let mut model = Model::default();
        for step in &steps {
            apply(&mut pt, &mut model, step);
            assert_same(&pt, &model);
        }
    }
}

/// Whether a 1 GiB leaf fits depends only on what is mapped now: a GiB
/// that once held smaller leaves takes one as soon as they are gone, and
/// refuses it while any remains.
#[test]
fn one_gib_leaf_fits_wherever_nothing_is_mapped() {
    let mut pt = PageTable::new();
    let rw = PteFlags::rw_user();
    let giant = va_of(GIB);
    pt.map(va_of(GIB + 5), Pfn(9), K4, rw).unwrap();
    pt.map(va_of(GIB + CHUNK), Pfn(1 << 20), PageSize::Size2M, rw)
        .unwrap();
    assert_eq!(
        pt.map(giant, Pfn(1 << 22), PageSize::Size1G, rw),
        Err(MemError::MappingConflict(giant))
    );
    pt.unmap(va_of(GIB + 5)).unwrap();
    assert_eq!(
        pt.map(giant, Pfn(1 << 22), PageSize::Size1G, rw),
        Err(MemError::MappingConflict(giant))
    );
    pt.unmap(va_of(GIB + CHUNK)).unwrap();
    pt.map(giant, Pfn(1 << 22), PageSize::Size1G, rw).unwrap();
    assert_eq!(pt.leaf_count(), 1);
    assert_eq!(
        pt.translate(va_of(2 * GIB - 1) + 7),
        Some((Pfn((1 << 22) + GIB - 1).base() + 7, rw, PageSize::Size1G))
    );
    assert_eq!(
        pt.map(giant, Pfn(0), PageSize::Size1G, rw),
        Err(MemError::AlreadyMapped(giant))
    );
    assert_eq!(
        pt.unmap(va_of(GIB + 77)),
        Ok((Pfn(1 << 22), PageSize::Size1G))
    );
    assert_eq!(pt.leaf_count(), 0);
}
