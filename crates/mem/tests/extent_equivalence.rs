//! Batched-vs-per-page observational equivalence for the extent fast
//! paths.
//!
//! The performance contract of `map_list` / `map_extent` /
//! `unmap_resident` / `walk_resident` is that they change *host*
//! wall-clock complexity only: every observable of the page table
//! (translations, leaf counts, walk output, freed-frame order, error
//! values and error addresses) and every virtual-time charge must be
//! identical to the per-page loops they replaced. These properties build
//! one table with the batched paths and a reference table with per-page
//! `map`/`unmap`/`translate` loops over randomized layouts — including
//! runs crossing 2 MiB chunk boundaries and ranges butting against holes
//! — and require the two to be indistinguishable. A last property drives
//! long mixed histories (multi-run lists at unaligned, overlapping bases,
//! resident unmaps long and short, protection changes) against a per-page
//! `HashMap` model and requires every chunk to hold exactly the runs the
//! model's mapping implies, however it was built.

use proptest::prelude::*;
use std::collections::HashMap;
use xemem_mem::page_table::WalkStats;
use xemem_mem::pfn_list::PfnRun;
use xemem_mem::{MemError, PageSize, PageTable, Pfn, PfnList, PteFlags, VirtAddr, PAGE_SIZE};
use xemem_sim::{CostModel, SimDuration};

/// One mapped segment: `gap` unmapped pages, then `len` pages backed by
/// physically contiguous frames starting at `pfn`.
#[derive(Debug, Clone, Copy)]
struct Segment {
    gap: u64,
    len: u64,
    pfn: u64,
}

/// Random layouts: a base page (often just shy of or beyond a 2 MiB
/// boundary) and a handful of segments whose lengths routinely exceed the
/// 512-page chunk so runs cross 2 MiB boundaries.
fn layout() -> impl Strategy<Value = (u64, Vec<Segment>)> {
    let base = prop_oneof![
        0u64..64,
        480u64..545, // straddles the first 2 MiB boundary
        1000u64..1100,
    ];
    let seg =
        (0u64..80, 1u64..1400, 0u64..1 << 20).prop_map(|(gap, len, pfn)| Segment { gap, len, pfn });
    (base, prop::collection::vec(seg, 1..6))
}

/// Materialize a layout into (page, pfn) pairs.
fn flatten(base: u64, segs: &[Segment]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut page = base;
    for (i, s) in segs.iter().enumerate() {
        page += s.gap;
        // Space segment frames far apart so distinct segments never alias.
        let pfn_base = s.pfn + ((i as u64) << 24);
        for j in 0..s.len {
            out.push((page + j, pfn_base + j));
        }
        page += s.len;
    }
    out
}

/// Build the same layout twice: once through the batched extent paths,
/// once through the per-page `map` loop.
fn build_pair(base: u64, segs: &[Segment]) -> (PageTable, PageTable) {
    let flags = PteFlags::rw_user();
    let mut fast = PageTable::new();
    let mut slow = PageTable::new();
    let mut page = base;
    for (i, s) in segs.iter().enumerate() {
        page += s.gap;
        let pfn_base = s.pfn + ((i as u64) << 24);
        let written = fast
            .map_extent(VirtAddr(page << 12), Pfn(pfn_base), s.len, flags)
            .expect("segments are disjoint");
        assert_eq!(written, s.len);
        for j in 0..s.len {
            slow.map(
                VirtAddr((page + j) << 12),
                Pfn(pfn_base + j),
                PageSize::Size4K,
                flags,
            )
            .expect("segments are disjoint");
        }
        page += s.len;
    }
    (fast, slow)
}

/// Every page of the probed window translates identically (including the
/// unmapped neighbors on both sides of each segment).
fn assert_same_translations(fast: &PageTable, slow: &PageTable, lo_page: u64, hi_page: u64) {
    for page in lo_page..=hi_page {
        let off = (page * 131) % 4096;
        let va = VirtAddr((page << 12) | off);
        assert_eq!(
            fast.translate(va),
            slow.translate(va),
            "translate diverges at page {page:#x}"
        );
    }
}

/// Pages the mixed-history property works in: three 2 MiB chunks.
const WINDOW: u64 = 3 * 512;

/// One step of a mixed page-table history.
#[derive(Debug, Clone)]
enum PtStep {
    /// `map_list` at page `base` of a list whose runs are `(len, family)`
    /// pairs: a run's frames are its pages' numbers offset by its family,
    /// so runs of one family mapped side by side are frame-contiguous and
    /// must merge across calls.
    MapList {
        base: u64,
        runs: Vec<(u64, u64)>,
    },
    UnmapResident {
        base: u64,
        pages: u64,
    },
    Protect {
        page: u64,
        read_only: bool,
    },
    Unmap {
        page: u64,
    },
}

fn pt_step() -> impl Strategy<Value = PtStep> {
    let page = 0u64..WINDOW;
    prop_oneof![
        (
            0u64..WINDOW - 8,
            prop::collection::vec((1u64..300, 0u64..3), 1..5)
        )
            .prop_map(|(base, runs)| PtStep::MapList { base, runs }),
        (
            0u64..WINDOW - 8,
            prop::collection::vec((1u64..300, 0u64..3), 1..5)
        )
            .prop_map(|(base, runs)| PtStep::MapList { base, runs }),
        (0u64..WINDOW, 1u64..600).prop_map(|(base, pages)| PtStep::UnmapResident { base, pages }),
        (0u64..WINDOW, 1u64..40).prop_map(|(base, pages)| PtStep::UnmapResident { base, pages }),
        (page.clone(), any::<bool>())
            .prop_map(|(page, read_only)| PtStep::Protect { page, read_only }),
        page.prop_map(|page| PtStep::Unmap { page }),
    ]
}

/// The per-page model: page → (frame, flags).
type PageModel = HashMap<u64, (u64, PteFlags)>;

fn va_of(page: u64) -> VirtAddr {
    VirtAddr(page * PAGE_SIZE)
}

/// Every observable of `pt` over the window equals the model's, and each
/// chunk holds the canonical runs rebuilt from the model.
fn assert_matches_model(pt: &PageTable, model: &PageModel) {
    assert_eq!(pt.leaf_count(), model.len() as u64, "leaf_count");
    for page in 0..WINDOW {
        let off = (page * 131) % PAGE_SIZE;
        let expect = model
            .get(&page)
            .map(|&(pfn, flags)| (Pfn(pfn).base() + off, flags, PageSize::Size4K));
        assert_eq!(pt.translate(va_of(page) + off), expect, "page {page}");
    }
    // Holes, resident frames, and a strict walk of every mapped segment
    // and of the whole window.
    let mut holes = Vec::new();
    let mut resident = PfnList::new();
    for page in 0..WINDOW {
        match model.get(&page) {
            Some(&(pfn, _)) => resident.push_run(Pfn(pfn), 1),
            None => match holes.last_mut() {
                Some((at, n)) if *at + *n == page => *n += 1,
                _ => holes.push((page, 1)),
            },
        }
    }
    assert_eq!(pt.find_unmapped(va_of(0), WINDOW), holes);
    assert_eq!(pt.walk_resident(va_of(0), WINDOW), resident);
    let mut at = 0;
    for &(hole, n) in holes.iter().chain([&(WINDOW, 0)]) {
        if hole > at {
            let pages = hole - at;
            let (list, stats) = pt.walk_range(va_of(at), pages * PAGE_SIZE).unwrap();
            let expect: PfnList = (at..hole).map(|p| Pfn(model[&p].0)).collect();
            assert_eq!(list, expect);
            assert_eq!(
                stats,
                WalkStats {
                    pages,
                    leaves_visited: pages
                }
            );
        }
        at = hole + n;
    }
    let whole = pt.walk_range(va_of(0), WINDOW * PAGE_SIZE).err();
    assert_eq!(
        whole,
        holes.first().map(|&(p, _)| MemError::NotMapped(va_of(p)))
    );
    // Canonical chunks: maximal runs of slot- and frame-contiguous pages
    // with equal flags.
    for chunk in 0..WINDOW / 512 {
        let mut runs: Vec<(VirtAddr, PfnRun, PteFlags)> = Vec::new();
        for page in chunk * 512..(chunk + 1) * 512 {
            let Some(&(pfn, flags)) = model.get(&page) else {
                continue;
            };
            match runs.last_mut() {
                Some((va, run, f))
                    if *f == flags
                        && va.0 / PAGE_SIZE + run.len == page
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
        assert_eq!(pt.chunk_runs(va_of(chunk * 512)), runs, "chunk {chunk}");
    }
}

/// Apply one step to the table and the model, requiring the same result.
fn apply_step(pt: &mut PageTable, model: &mut PageModel, step: PtStep) {
    let rw = PteFlags::rw_user();
    match step {
        PtStep::MapList { base, runs } => {
            let mut list = PfnList::new();
            let mut page = base;
            for (len, family) in runs {
                let len = len.min(WINDOW - page);
                list.push_run(Pfn(page + (family + 1) * 100_000), len);
                page += len;
            }
            let clash = (base..base + list.pages()).find(|p| model.contains_key(p));
            let got = pt.map_list(va_of(base), &list, rw);
            match clash {
                Some(p) => assert_eq!(got, Err(MemError::AlreadyMapped(va_of(p)))),
                None => {
                    assert_eq!(got, Ok(list.pages()));
                    for (i, pfn) in list.iter_pages().enumerate() {
                        model.insert(base + i as u64, (pfn.0, rw));
                    }
                }
            }
        }
        PtStep::UnmapResident { base, pages } => {
            let mut freed = PfnList::new();
            for p in base..base + pages {
                if let Some((pfn, _)) = model.remove(&p) {
                    freed.push_run(Pfn(pfn), 1);
                }
            }
            let cleared = freed.pages();
            assert_eq!(pt.unmap_resident(va_of(base), pages), (freed, cleared));
        }
        PtStep::Protect { page, read_only } => {
            let flags = if read_only { PteFlags::ro_user() } else { rw };
            let got = pt.protect(va_of(page), flags);
            match model.get_mut(&page) {
                Some(entry) => {
                    assert_eq!(got, Ok(()));
                    entry.1 = flags;
                }
                None => assert_eq!(got, Err(MemError::NotMapped(va_of(page)))),
            }
        }
        PtStep::Unmap { page } => {
            let expect = match model.remove(&page) {
                Some((pfn, _)) => Ok((Pfn(pfn), PageSize::Size4K)),
                None => Err(MemError::NotMapped(va_of(page))),
            };
            assert_eq!(pt.unmap(va_of(page)), expect);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mixed histories match the per-page model after every step, and
    /// every chunk's runs are the canonical runs of the current mapping —
    /// nothing an earlier step did survives in the representation.
    #[test]
    fn mixed_histories_match_per_page_model_and_stay_canonical(
        steps in prop::collection::vec(pt_step(), 1..40)
    ) {
        let mut pt = PageTable::new();
        let mut model = PageModel::new();
        for step in steps {
            apply_step(&mut pt, &mut model, step);
            assert_matches_model(&pt, &model);
        }
    }

    /// `map_extent` produces a table indistinguishable from the per-page
    /// `map` loop: same translations, same leaf count, same `walk_range`
    /// output (PFN list and stats) over every segment, same hole report.
    #[test]
    fn map_extent_matches_per_page_map((base, segs) in layout()) {
        let (fast, slow) = build_pair(base, &segs);
        let mapped = flatten(base, &segs);
        prop_assert_eq!(fast.leaf_count(), slow.leaf_count());
        prop_assert_eq!(fast.leaf_count(), mapped.len() as u64);

        let lo = base.saturating_sub(1);
        let hi = mapped.last().unwrap().0 + 1;
        assert_same_translations(&fast, &slow, lo, hi);

        // walk_range over each fully mapped segment agrees in both list
        // and stats; over the whole window it fails identically when a
        // hole exists.
        let mut page = base;
        for (i, s) in segs.iter().enumerate() {
            page += s.gap;
            let va = VirtAddr(page << 12);
            let f = fast.walk_range(va, s.len * PAGE_SIZE).unwrap();
            let sl = slow.walk_range(va, s.len * PAGE_SIZE).unwrap();
            prop_assert_eq!(&f.0, &sl.0, "walk list diverges on segment {}", i);
            prop_assert_eq!(f.1, sl.1, "walk stats diverge on segment {}", i);
            prop_assert_eq!(f.1, WalkStats { pages: s.len, leaves_visited: s.len });
            page += s.len;
        }
        let window = (hi - lo + 1) * PAGE_SIZE;
        prop_assert_eq!(
            fast.walk_range(VirtAddr(lo << 12), window).err(),
            slow.walk_range(VirtAddr(lo << 12), window).err()
        );

        // walk_resident and find_unmapped agree with the per-page view.
        let resident_fast = fast.walk_resident(VirtAddr(lo << 12), hi - lo + 1);
        let resident_slow: PfnList = (lo..=hi)
            .filter_map(|p| slow.translate(VirtAddr(p << 12)).map(|(pa, _, _)| pa.pfn()))
            .collect();
        prop_assert_eq!(&resident_fast, &resident_slow);
        let holes = fast.find_unmapped(VirtAddr(lo << 12), hi - lo + 1);
        let mut hole_pages = 0u64;
        for (off, n) in &holes {
            for p in *off..off + n {
                prop_assert!(slow.translate(VirtAddr((lo + p) << 12)).is_none());
            }
            hole_pages += n;
        }
        prop_assert_eq!(hole_pages, (hi - lo + 1) - mapped.len() as u64);
    }

    /// `map_list` with an arbitrary multi-run list equals mapping its
    /// pages one by one, and a conflicting second list fails with exactly
    /// the error the per-page loop would hit first — leaving the table
    /// untouched.
    #[test]
    fn map_list_matches_per_page_map(
        base in 0u64..1200,
        runs in prop::collection::vec((0u64..1 << 20, 1u64..700), 1..8),
        overlap_at in 0u64..4000,
    ) {
        let flags = PteFlags::rw_user();
        let mut list = PfnList::new();
        for (i, (pfn, len)) in runs.iter().enumerate() {
            list.push_run(Pfn(pfn + ((i as u64) << 24)), *len);
        }
        let mut fast = PageTable::new();
        let mut slow = PageTable::new();
        let written = fast.map_list(VirtAddr(base << 12), &list, flags).unwrap();
        prop_assert_eq!(written, list.pages());
        for (j, pfn) in list.iter_pages().enumerate() {
            slow.map(VirtAddr((base + j as u64) << 12), pfn, PageSize::Size4K, flags).unwrap();
        }
        prop_assert_eq!(fast.leaf_count(), slow.leaf_count());
        assert_same_translations(&fast, &slow, base.saturating_sub(1), base + list.pages());

        // A second list overlapping the first must fail exactly where the
        // per-page loop would first fail, without mutating the table. The
        // clash window may start below the mapped range (hole-adjacent),
        // so validation has to look past initially free pages.
        let clash_base = (base + overlap_at % list.pages()).saturating_sub(20);
        let mut second = PfnList::new();
        second.push_run(Pfn(1 << 30), 40);
        let expect_clash = (0..40)
            .map(|j| clash_base + j)
            .find(|p| slow.translate(VirtAddr(p << 12)).is_some())
            .expect("clash_base lies inside the mapped range");
        let before = fast.leaf_count();
        let err = fast.map_list(VirtAddr(clash_base << 12), &second, flags).unwrap_err();
        prop_assert_eq!(err, MemError::AlreadyMapped(VirtAddr(expect_clash << 12)));
        prop_assert_eq!(fast.leaf_count(), before);
        assert_same_translations(&fast, &slow, base.saturating_sub(1), base + list.pages());
    }

    /// `unmap_resident` over a fully mapped subrange frees the same frames
    /// in the same order as the per-page `unmap` loop and leaves an
    /// identical table; over a range running on past holes it skips them,
    /// as the per-page translate-then-unmap loop does.
    #[test]
    fn unmap_resident_of_a_subrange_matches_per_page_unmap(
        (base, segs) in layout(),
        pick in 0u64..1 << 32,
        frac in 0u64..1 << 32,
    ) {
        let (mut fast, mut slow) = build_pair(base, &segs);
        let mapped = flatten(base, &segs);
        let lo = base.saturating_sub(1);
        let hi = mapped.last().unwrap().0 + 1;

        // A subrange of one segment: fully mapped, possibly hole-adjacent
        // on either side.
        let seg_idx = (pick % segs.len() as u64) as usize;
        let mut page = base;
        let mut range = (0, 0);
        for (i, s) in segs.iter().enumerate() {
            page += s.gap;
            if i == seg_idx {
                let start_off = frac % s.len;
                let n = (s.len - start_off).max(1);
                range = (page + start_off, n);
            }
            page += s.len;
        }
        let (start, n) = range;
        let freed_fast = fast.unmap_resident(VirtAddr(start << 12), n);
        let mut freed_slow = PfnList::new();
        for p in start..start + n {
            let (pfn, size) = slow.unmap(VirtAddr(p << 12)).unwrap();
            prop_assert_eq!(size, PageSize::Size4K);
            freed_slow.push_run(pfn, 1);
        }
        prop_assert_eq!(freed_fast, (freed_slow, n));
        prop_assert_eq!(fast.leaf_count(), slow.leaf_count());
        assert_same_translations(&fast, &slow, lo, hi);

        // Then a window from the same start to past the last mapped page:
        // the pages just unmapped and the gaps are skipped, the later
        // segments go.
        let window = (start, hi - start + 1);
        let freed_fast = fast.unmap_resident(VirtAddr(window.0 << 12), window.1);
        let mut freed_slow = PfnList::new();
        for p in window.0..window.0 + window.1 {
            if let Ok((pfn, _)) = slow.unmap(VirtAddr(p << 12)) {
                freed_slow.push_run(pfn, 1);
            }
        }
        let cleared = freed_slow.pages();
        prop_assert_eq!(freed_fast, (freed_slow, cleared));
        prop_assert_eq!(fast.leaf_count(), slow.leaf_count());
        assert_same_translations(&fast, &slow, lo, hi);
    }

    /// `unmap_resident` equals the per-page translate-then-unmap teardown
    /// loop: same freed frames in address order, same cleared count, same
    /// final table.
    #[test]
    fn unmap_resident_matches_per_page_teardown((base, segs) in layout()) {
        let (mut fast, mut slow) = build_pair(base, &segs);
        let mapped = flatten(base, &segs);
        let lo = base.saturating_sub(1);
        let hi = mapped.last().unwrap().0 + 1;

        let (freed_fast, cleared) = fast.unmap_resident(VirtAddr(lo << 12), hi - lo + 1);
        let mut freed_slow = PfnList::new();
        let mut cleared_slow = 0u64;
        for p in lo..=hi {
            if slow.translate(VirtAddr(p << 12)).is_some() {
                let (pfn, _) = slow.unmap(VirtAddr(p << 12)).unwrap();
                freed_slow.push_run(pfn, 1);
                cleared_slow += 1;
            }
        }
        prop_assert_eq!(&freed_fast, &freed_slow);
        prop_assert_eq!(cleared, cleared_slow);
        prop_assert_eq!(fast.leaf_count(), 0);
        prop_assert_eq!(slow.leaf_count(), 0);
        assert_same_translations(&fast, &slow, lo, hi);
    }

    /// The closed-form CostModel charges equal per-page virtual-time
    /// accumulation bit for bit: `SimDuration::times` is exact integer
    /// multiplication, so batching never rounds.
    #[test]
    fn batched_charges_equal_per_page_charges(
        pages in 0u64..300_000,
        visits in 0u32..64,
    ) {
        let m = CostModel::default();
        let sum = |per_page: SimDuration, n: u64| {
            let mut acc = SimDuration::from_nanos(0);
            // Sum in chunks so huge n stays fast while remaining exact.
            for _ in 0..n % 1024 {
                acc += per_page;
            }
            acc + per_page.times(1024).times(n / 1024)
        };
        prop_assert_eq!(
            m.lwk_attach(pages),
            sum(SimDuration::from_nanos(m.lwk_map_page_ns), pages)
                + SimDuration::from_nanos(400)
        );
        prop_assert_eq!(
            m.lwk_detach(pages),
            sum(SimDuration::from_nanos(m.lwk_map_page_ns / 2), pages)
        );
        prop_assert_eq!(
            m.fwk_eager_attach(pages),
            SimDuration::from_nanos(m.fwk_vm_mmap_ns)
                + sum(SimDuration::from_nanos(m.fwk_remap_page_ns), pages)
        );
        prop_assert_eq!(
            m.fwk_detach(pages),
            sum(SimDuration::from_nanos(m.fwk_remap_page_ns / 2), pages)
        );
        prop_assert_eq!(
            m.fwk_fault_in(pages),
            sum(SimDuration::from_nanos(m.fwk_fault_ns + m.frame_alloc_ns), pages)
        );
        prop_assert_eq!(
            m.pin_and_walk(pages),
            sum(SimDuration::from_nanos(m.fwk_pin_page_ns + m.walk_pte_ns), pages)
        );
        let per_frame = SimDuration::from_nanos(
            m.vmm_translate_floor_ns + m.rb_level_ns * visits as u64,
        );
        prop_assert_eq!(m.vmm_translate(visits, pages), sum(per_frame, pages));
    }
}
