//! Property tests for the memory substrate: the page table against a
//! flat model, the frame allocator's accounting invariants and its
//! frame-for-frame equivalence with the bit-serial reference scans, and
//! PFN-list round-trips.

use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use xemem_mem::alloc::Placement;
use xemem_mem::{FrameAllocator, MemError, PageSize, PageTable, Pfn, PfnList, PteFlags, VirtAddr};
use xemem_sim::MemTier;

// ----------------------------------------------------------------------
// Reference allocator: bit-serial first fit, frame-at-a-time allocation
// ----------------------------------------------------------------------

/// One range of the reference allocator: one `bool` per frame, scanned a
/// frame at a time — the semantics the word-wise scans must reproduce
/// frame for frame, cursor included.
#[derive(Debug, Clone)]
struct RefRange {
    tier: MemTier,
    base: u64,
    used: Vec<bool>,
    free: u64,
    cursor: u64,
    scatter: bool,
}

impl RefRange {
    fn frames(&self) -> u64 {
        self.used.len() as u64
    }

    fn alloc(&mut self) -> Result<Pfn, MemError> {
        let out = MemError::OutOfFrames {
            requested: 1,
            available: 0,
        };
        if self.free == 0 {
            return Err(out);
        }
        let frames = self.frames();
        let start = if self.scatter {
            self.cursor = (self.cursor + 2_654_435_761) % frames;
            self.cursor
        } else {
            self.cursor
        };
        for probe in 0..frames {
            let idx = (start + probe) % frames;
            if !self.used[idx as usize] {
                self.used[idx as usize] = true;
                self.free -= 1;
                if !self.scatter {
                    self.cursor = (idx + 1) % frames;
                }
                return Ok(Pfn(self.base + idx));
            }
        }
        Err(out)
    }

    fn alloc_contiguous(&mut self, n: u64) -> Result<Pfn, MemError> {
        let out = MemError::OutOfFrames {
            requested: n,
            available: self.free,
        };
        if self.free < n {
            return Err(out);
        }
        let mut run_start = 0u64;
        let mut run_len = 0u64;
        for idx in 0..self.frames() {
            if self.used[idx as usize] {
                run_len = 0;
                continue;
            }
            if run_len == 0 {
                run_start = idx;
            }
            run_len += 1;
            if run_len == n {
                for i in run_start..run_start + n {
                    self.used[i as usize] = true;
                }
                self.free -= n;
                return Ok(Pfn(self.base + run_start));
            }
        }
        Err(out)
    }

    fn free(&mut self, pfn: u64) {
        let idx = pfn - self.base;
        self.used[idx as usize] = false;
        self.free += 1;
        if !self.scatter && idx < self.cursor {
            self.cursor = idx;
        }
    }
}

#[derive(Debug, Clone)]
struct RefAlloc {
    ranges: Vec<RefRange>,
}

impl RefAlloc {
    fn range_of(&mut self, pfn: u64) -> Option<&mut RefRange> {
        self.ranges
            .iter_mut()
            .find(|r| pfn >= r.base && pfn - r.base < r.frames())
    }

    fn free_in(&self, tier: MemTier) -> u64 {
        self.ranges
            .iter()
            .filter(|r| r.tier == tier)
            .map(|r| r.free)
            .sum()
    }

    fn alloc(&mut self) -> Result<Pfn, MemError> {
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

    fn alloc_contiguous(&mut self, n: u64) -> Result<Pfn, MemError> {
        if n == 0 {
            let available = self.ranges.iter().map(|r| r.free).sum();
            return Err(MemError::OutOfFrames {
                requested: 0,
                available,
            });
        }
        let mut last = None;
        for r in &mut self.ranges {
            match r.alloc_contiguous(n) {
                Ok(p) => return Ok(p),
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one range"))
    }

    fn alloc_pages_in(&mut self, tier: MemTier, n: u64) -> Result<Vec<Pfn>, MemError> {
        let available = self.free_in(tier);
        if available < n || n == 0 {
            return Err(MemError::OutOfFrames {
                requested: n,
                available,
            });
        }
        for r in &mut self.ranges {
            if r.tier == tier {
                if let Ok(p) = r.alloc_contiguous(n) {
                    return Ok((0..n).map(|i| Pfn(p.0 + i)).collect());
                }
            }
        }
        let mut out = Vec::new();
        for r in &mut self.ranges {
            if r.tier != tier {
                continue;
            }
            while (out.len() as u64) < n && r.free > 0 {
                out.push(r.alloc().expect("free frames remain"));
            }
        }
        Ok(out)
    }

    /// Free `frames` (in range, no duplicates) or, when one is not
    /// allocated, nothing.
    fn free_list(&mut self, frames: &[u64]) -> Result<(), MemError> {
        for &p in frames {
            let r = self.range_of(p).expect("frames are in range");
            if !r.used[(p - r.base) as usize] {
                return Err(MemError::BadFree(Pfn(p)));
            }
        }
        for &p in frames {
            self.range_of(p).expect("frames are in range").free(p);
        }
        Ok(())
    }
}

#[derive(Debug, Clone)]
enum AllocOp {
    Alloc,
    Contiguous(u64),
    PagesIn(MemTier, u64),
    Upto(u64),
    Pages(u64),
    /// Free every `step`-th allocated frame from the `at`-th, `len` of
    /// them, plus (when `bogus`) one free frame, which must fail the
    /// whole list.
    Free {
        at: usize,
        len: usize,
        step: usize,
        bogus: bool,
    },
}

const TIERS: [MemTier; 3] = [MemTier::LocalDram, MemTier::Cxl, MemTier::Nvm];

fn alloc_op() -> impl Strategy<Value = AllocOp> {
    let tier = (0usize..3).prop_map(|i| TIERS[i]);
    prop_oneof![
        Just(AllocOp::Alloc),
        (0u64..140).prop_map(AllocOp::Contiguous),
        (tier, 0u64..160).prop_map(|(t, n)| AllocOp::PagesIn(t, n)),
        (0u64..160).prop_map(AllocOp::Upto),
        (0u64..160).prop_map(AllocOp::Pages),
        (
            0usize..400,
            0usize..120,
            1usize..5,
            (0u32..10).prop_map(|x| x == 0)
        )
            .prop_map(|(at, len, step, bogus)| AllocOp::Free {
                at,
                len,
                step,
                bogus
            }),
    ]
}

/// Up to three disjoint ranges (`tier`, frames), sized to straddle
/// bitmap words, plus the placement policy.
fn alloc_layout() -> impl Strategy<Value = (Vec<(MemTier, u64)>, bool)> {
    let range = ((0usize..3).prop_map(|i| TIERS[i]), 1u64..300);
    (
        prop::collection::vec(range, 1..4),
        (0u32..5).prop_map(|x| x == 0),
    )
}

// ----------------------------------------------------------------------
// Page table vs a flat HashMap model
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum PtOp {
    Map { page: u64, pfn: u64 },
    Unmap { page: u64 },
    Translate { page: u64 },
}

fn pt_op() -> impl Strategy<Value = PtOp> {
    // A small page-number space keeps collisions common.
    prop_oneof![
        (0u64..128, 0u64..1_000_000).prop_map(|(page, pfn)| PtOp::Map { page, pfn }),
        (0u64..128).prop_map(|page| PtOp::Unmap { page }),
        (0u64..128).prop_map(|page| PtOp::Translate { page }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn page_table_matches_flat_model(ops in prop::collection::vec(pt_op(), 1..300)) {
        let mut pt = PageTable::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for op in ops {
            match op {
                PtOp::Map { page, pfn } => {
                    let va = VirtAddr(page << 12);
                    let r = pt.map(va, Pfn(pfn), PageSize::Size4K, PteFlags::rw_user());
                    match model.entry(page) {
                        std::collections::hash_map::Entry::Occupied(_) => {
                            prop_assert_eq!(r, Err(MemError::AlreadyMapped(va)));
                        }
                        std::collections::hash_map::Entry::Vacant(v) => {
                            prop_assert!(r.is_ok());
                            v.insert(pfn);
                        }
                    }
                }
                PtOp::Unmap { page } => {
                    let va = VirtAddr(page << 12);
                    let r = pt.unmap(va);
                    match model.remove(&page) {
                        Some(pfn) => prop_assert_eq!(r, Ok((Pfn(pfn), PageSize::Size4K))),
                        None => prop_assert_eq!(r, Err(MemError::NotMapped(va))),
                    }
                }
                PtOp::Translate { page } => {
                    let off = (page * 97) % 4096;
                    let va = VirtAddr((page << 12) | off);
                    let got = pt.translate(va).map(|(pa, _, _)| pa.0);
                    let expect = model.get(&page).map(|pfn| (pfn << 12) | off);
                    prop_assert_eq!(got, expect);
                }
            }
            prop_assert_eq!(pt.leaf_count(), model.len() as u64);
        }
    }

    #[test]
    fn walk_range_agrees_with_translate(pages in prop::collection::vec(0u64..1_000_000, 1..64)) {
        let mut pt = PageTable::new();
        let mut unique = pages.clone();
        unique.sort_unstable();
        unique.dedup();
        pt.map_pages(VirtAddr(0), unique.iter().map(|&p| Pfn(p)), PteFlags::rw_user()).unwrap();
        let (list, stats) = pt.walk_range(VirtAddr(0), unique.len() as u64 * 4096).unwrap();
        prop_assert_eq!(stats.pages, unique.len() as u64);
        let walked: Vec<Pfn> = list.iter_pages().collect();
        let direct: Vec<Pfn> = (0..unique.len() as u64)
            .map(|i| pt.translate(VirtAddr(i * 4096)).unwrap().0.pfn())
            .collect();
        prop_assert_eq!(walked, direct);
    }

    // ------------------------------------------------------------------
    // Frame allocator accounting
    // ------------------------------------------------------------------

    #[test]
    fn allocator_never_double_allocates(
        sizes in prop::collection::vec(1u64..32, 1..40),
        free_mask in prop::collection::vec(any::<bool>(), 40),
    ) {
        let total = 512u64;
        let mut alloc = FrameAllocator::new(Pfn(1000), total);
        let mut live: Vec<PfnList> = Vec::new();
        let mut outstanding = 0u64;
        for (i, &n) in sizes.iter().enumerate() {
            match alloc.alloc_pages(n) {
                Ok(pages) => {
                    prop_assert_eq!(pages.pages(), n);
                    outstanding += n;
                    // All frames in range, all distinct from every live frame.
                    for p in pages.iter_pages() {
                        prop_assert!(p.0 >= 1000 && p.0 < 1000 + total);
                        for batch in &live {
                            prop_assert!(
                                batch.iter_pages().all(|q| q != p),
                                "frame {} double-allocated",
                                p
                            );
                        }
                    }
                    live.push(pages);
                }
                Err(MemError::OutOfFrames { .. }) => {
                    prop_assert!(outstanding + n > total, "spurious exhaustion");
                }
                Err(e) => prop_assert!(false, "unexpected error {e}"),
            }
            // Occasionally free a batch.
            if free_mask[i % free_mask.len()] && !live.is_empty() {
                let batch = live.swap_remove(i % live.len());
                outstanding -= batch.pages();
                alloc.free_list(&batch).unwrap();
            }
            prop_assert_eq!(alloc.free_frames(), total - outstanding);
        }
    }

    #[test]
    fn contiguous_allocations_are_contiguous(runs in prop::collection::vec(1u64..64, 1..10)) {
        let mut alloc = FrameAllocator::new(Pfn(0), 1024);
        for n in runs {
            if let Ok(base) = alloc.alloc_contiguous(n) {
                for i in 0..n {
                    prop_assert!(alloc.is_allocated(base.offset(i)));
                }
            }
        }
    }

    /// The word-wise scans return exactly the frames, in exactly the
    /// order, of the bit-serial reference — across tier ranges, both
    /// placement policies, fragmentation and exhaustion — and leave the
    /// same per-tier free counts and the same cursors (the next `alloc`
    /// agrees after every step).
    #[test]
    fn allocator_matches_bit_serial_reference(
        (layout, scatter) in alloc_layout(),
        ops in prop::collection::vec(alloc_op(), 1..80),
    ) {
        let (home_tier, home_frames) = layout[0];
        let mut real = if scatter {
            FrameAllocator::with_policy(Pfn(1000), home_frames, Placement::Scatter)
        } else {
            FrameAllocator::new_in(home_tier, Pfn(1000), home_frames)
        };
        let mut model = RefAlloc { ranges: Vec::new() };
        let mut base = 1000u64;
        for (i, &(tier, frames)) in layout.iter().enumerate() {
            let tier = if i == 0 && scatter { MemTier::LocalDram } else { tier };
            if i > 0 {
                real.push_range(tier, Pfn(base), frames);
            }
            model.ranges.push(RefRange {
                tier,
                base,
                used: vec![false; frames as usize],
                free: frames,
                cursor: 0,
                scatter,
            });
            // A gap between ranges keeps them from touching.
            base += frames + 37;
        }
        let mut allocated: BTreeSet<u64> = BTreeSet::new();
        let frames_of = |list: &PfnList| -> Vec<Pfn> { list.iter_pages().collect() };
        for op in ops {
            let got: Result<Vec<Pfn>, MemError> = match op.clone() {
                AllocOp::Alloc => {
                    let r = real.alloc();
                    prop_assert_eq!(&r, &model.alloc());
                    r.map(|p| vec![p])
                }
                AllocOp::Contiguous(n) => {
                    let r = real.alloc_contiguous(n);
                    prop_assert_eq!(&r, &model.alloc_contiguous(n));
                    r.map(|p| (0..n).map(|i| p.offset(i)).collect())
                }
                AllocOp::PagesIn(tier, n) => {
                    let r = real.alloc_pages_in(tier, n).map(|l| frames_of(&l));
                    prop_assert_eq!(&r, &model.alloc_pages_in(tier, n));
                    r
                }
                AllocOp::Upto(n) => {
                    let r = frames_of(&real.alloc_upto(n));
                    let expect: Vec<Pfn> = (0..n).map_while(|_| model.alloc().ok()).collect();
                    prop_assert_eq!(&r, &expect);
                    Ok(r)
                }
                AllocOp::Pages(n) => {
                    let r = real.alloc_pages(n).map(|l| frames_of(&l));
                    let free: u64 = model.ranges.iter().map(|r| r.free).sum();
                    if free < n {
                        prop_assert_eq!(
                            &r,
                            &Err(MemError::OutOfFrames { requested: n, available: free })
                        );
                    } else {
                        let expect: Vec<Pfn> =
                            (0..n).map(|_| model.alloc().expect("counted")).collect();
                        prop_assert_eq!(&r, &Ok(expect));
                    }
                    r
                }
                AllocOp::Free { at, len, step, bogus } => {
                    let live: Vec<u64> = allocated.iter().copied().collect();
                    let mut frames: Vec<u64> =
                        live.iter().skip(at).step_by(step).take(len).copied().collect();
                    if bogus {
                        let spare = model.ranges.iter().find_map(|r| {
                            (0..r.frames())
                                .find(|&i| !r.used[i as usize])
                                .map(|i| r.base + i)
                        });
                        frames.extend(spare);
                    }
                    let mut list = PfnList::new();
                    for &p in &frames {
                        list.push_run(Pfn(p), 1);
                    }
                    let r = real.free_list(&list);
                    prop_assert_eq!(&r, &model.free_list(&frames));
                    if r.is_ok() {
                        for p in &frames {
                            allocated.remove(p);
                        }
                    }
                    Ok(Vec::new())
                }
            };
            for p in got.into_iter().flatten() {
                prop_assert!(allocated.insert(p.0), "frame {} handed out twice", p);
            }
            for tier in TIERS {
                prop_assert_eq!(real.free_frames_in(tier), model.free_in(tier));
            }
            prop_assert_eq!(real.clone().alloc(), model.clone().alloc(), "cursor diverged");
        }
    }

    // ------------------------------------------------------------------
    // PFN list round-trips
    // ------------------------------------------------------------------

    #[test]
    fn pfn_list_round_trips(pfns in prop::collection::vec(0u64..10_000, 0..200)) {
        let list: PfnList = pfns.iter().map(|&p| Pfn(p)).collect();
        prop_assert_eq!(list.pages(), pfns.len() as u64);
        let back: Vec<u64> = list.iter_pages().map(|p| p.0).collect();
        prop_assert_eq!(&back, &pfns);
        // Indexing agrees with iteration.
        for (i, &p) in pfns.iter().enumerate() {
            prop_assert_eq!(list.page(i as u64), Some(Pfn(p)));
        }
        // Wire size is exactly 8 bytes/page; compression never exceeds
        // 2x flat and wins on contiguity.
        prop_assert_eq!(list.wire_bytes(), pfns.len() as u64 * 8);
        prop_assert!(list.compressed_bytes() <= list.wire_bytes() * 2);
    }

    #[test]
    fn pfn_list_slices_compose(pfns in prop::collection::vec(0u64..10_000, 1..100), cut in 0usize..100) {
        let list: PfnList = pfns.iter().map(|&p| Pfn(p)).collect();
        let cut = (cut % pfns.len()) as u64;
        let head = list.slice(0, cut).unwrap();
        let tail = list.slice(cut, list.pages() - cut).unwrap();
        let mut rejoined = head.clone();
        rejoined.extend(&tail);
        let back: Vec<u64> = rejoined.iter_pages().map(|p| p.0).collect();
        prop_assert_eq!(back, pfns);
    }
}
