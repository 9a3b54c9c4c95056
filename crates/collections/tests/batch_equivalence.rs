//! Property test: the red-black map's batched entry points must build the
//! same tree as the per-operation calls they replace, and report the same
//! summed work, including when they hold a hot-plug batch on a one-entry
//! base and compute its reports in closed form.
//!
//! Two maps replay one random history. The per-op map hot-plugs with one
//! `insert` per entry and removes a range with one `remove` per frame in
//! ascending order, so it never holds a batch; the batched map uses
//! `insert_ascending` and `remove_range`. Hot-plugged keys are
//! bump-allocated above a fixed base, as the VMM allocates them; below the
//! base both maps take arbitrary per-op inserts and removes, and some of
//! those inserts reach the batched map as a batch that is not above the
//! maximum, which must fall back. Histories open on a one-entry base, as a
//! VM's guest RAM is, and detach the newest batch whole, in part or
//! together with older entries. Counted lookups and uncounted translations
//! run while a batch is held.
//!
//! Equality is tree-level (entries, shape and colours): a held batch
//! allocates no arena slot, so slot numbers and free lists may differ. The
//! trees are compared whenever the batched map holds no batch; while it
//! holds one, its entries, length, reports and translations still are.
//!
//! A second oracle runs the closed form at every batch size up to 2,048,
//! around each of its case boundaries up to P = 2^16, and at the sizes the
//! committed workloads hot-plug.

use proptest::prelude::*;
use xemem_collections::{BatchReport, GuestMemoryMap, OpReport, RbMemoryMap, Segment};

/// First hot-plug frame; the low region holds arbitrary traffic.
const HOTPLUG_BASE: u64 = 4_096;

#[derive(Debug, Clone)]
enum Step {
    /// Hot-plug entries above the maximum: (gap before, len) each.
    HotPlug(Vec<(u64, u64)>),
    /// Remove exactly the newest hot-plugged batch.
    DetachNewest,
    /// Remove `len` frames from `at` per mille into the newest batch.
    DetachPart { at: u64, len: u64 },
    /// Remove the newest batch and the `back` frames below it.
    DetachWithOlder { back: u64 },
    /// Remove every entry meeting `len` frames from a point of the
    /// hot-plug range (`at` is scaled to the range's current extent).
    RemoveRange { at: u64, len: u64 },
    /// Insert below the hot-plug range; `batched` hands it to the batched
    /// map as a one-entry batch below the maximum.
    LowInsert { gfn: u64, len: u64, batched: bool },
    /// Remove the low entry containing `gfn`, per op on both maps.
    LowRemove { gfn: u64 },
    /// Counted `lookup` and `lookup_run` at a point of the whole range.
    Lookup { at: u64 },
    /// Uncounted `translate_run` at a point of the whole range.
    Translate { at: u64 },
}

fn entry() -> impl Strategy<Value = (u64, u64)> {
    (0u64..8, 0u64..8).prop_map(|(gap, len)| {
        // Mostly adjacent single frames, as per-page attaches are.
        let gap = if gap < 6 { 0 } else { gap };
        let len = if len < 5 { 1 } else { len - 3 };
        (gap, len)
    })
}

/// A batch: mostly a few entries, so sizes recur, sometimes many.
fn batch() -> impl Strategy<Value = Vec<(u64, u64)>> {
    (0u64..4, prop::collection::vec(entry(), 1..48)).prop_map(|(few, mut entries)| {
        if few > 0 {
            entries.truncate(few as usize);
        }
        entries
    })
}

fn step_strategy() -> impl Strategy<Value = Step> {
    // Hot-plugs and whole detaches are drawn three times as often, and
    // lookups and translations twice, as the other steps.
    let hot_plug = || batch().prop_map(Step::HotPlug);
    let lookup = || (0u64..1_000).prop_map(|at| Step::Lookup { at });
    let translate = || (0u64..1_000).prop_map(|at| Step::Translate { at });
    prop_oneof![
        hot_plug(),
        hot_plug(),
        hot_plug(),
        Just(Step::DetachNewest),
        Just(Step::DetachNewest),
        Just(Step::DetachNewest),
        (0u64..1_000, 1u64..24).prop_map(|(at, len)| Step::DetachPart { at, len }),
        (1u64..64).prop_map(|back| Step::DetachWithOlder { back }),
        (0u64..1_000, 1u64..120).prop_map(|(at, len)| Step::RemoveRange { at, len }),
        (0u64..HOTPLUG_BASE, 1u64..16, any::<bool>()).prop_map(|(gfn, len, batched)| {
            Step::LowInsert {
                gfn: gfn.min(HOTPLUG_BASE - len),
                len,
                batched,
            }
        }),
        (0u64..HOTPLUG_BASE).prop_map(|gfn| Step::LowRemove { gfn }),
        lookup(),
        lookup(),
        translate(),
        translate(),
    ]
}

/// A history: one low entry, a batch hot-plugged and detached on it, a
/// second one left held, then random steps.
fn history() -> impl Strategy<Value = Vec<Step>> {
    let base = (0u64..HOTPLUG_BASE, 1u64..1_024).prop_map(|(gfn, len)| Step::LowInsert {
        gfn: gfn.min(HOTPLUG_BASE - len),
        len,
        batched: false,
    });
    let rest = prop::collection::vec(step_strategy(), 1..80);
    (base, batch(), batch(), rest).prop_map(|(base, first, second, rest)| {
        let open = [
            base,
            Step::HotPlug(first),
            Step::DetachNewest,
            Step::HotPlug(second),
        ];
        open.into_iter().chain(rest).collect()
    })
}

fn per_op_remove_range(map: &mut RbMemoryMap, gfn: u64, len: u64) -> BatchReport {
    let mut total = BatchReport::default();
    for g in gfn..gfn + len {
        if let Ok((_, report)) = map.remove(g) {
            total.add(report);
        }
    }
    total
}

fn one(report: OpReport) -> BatchReport {
    let mut total = BatchReport::default();
    total.add(report);
    total
}

/// The two maps and the hot-plug allocator a history drives.
struct Pair {
    per_op: RbMemoryMap,
    batched: RbMemoryMap,
    next: u64,
    hpfn: u64,
    /// Frames of the newest hot-plugged batch.
    newest: (u64, u64),
}

impl Pair {
    fn new() -> Pair {
        Pair {
            per_op: RbMemoryMap::new(),
            batched: RbMemoryMap::new(),
            next: HOTPLUG_BASE,
            hpfn: 0,
            newest: (HOTPLUG_BASE, HOTPLUG_BASE),
        }
    }

    /// Hot-plug entries, handing the batched map each run of adjacent
    /// equal-length entries as one segment, as the VMM hands it a host
    /// run attached one entry per page.
    fn hot_plug(&mut self, entries: &[(u64, u64)]) {
        let mut segments: Vec<Segment> = Vec::new();
        let mut expect = BatchReport::default();
        for &(gap, len) in entries {
            // Guest and host frames leave the same gap.
            self.next += gap;
            self.hpfn += gap;
            expect.add(self.per_op.insert(self.next, len, self.hpfn).unwrap());
            match segments.last_mut() {
                Some(s) if gap == 0 && s.len == len => s.count += 1,
                _ => segments.push(Segment::entry(self.next, len, self.hpfn)),
            }
            self.next += len;
            self.hpfn += len;
        }
        self.newest = (segments[0].gfn, self.next);
        let got = self
            .batched
            .insert_ascending(&mut segments.into_iter())
            .unwrap();
        assert_eq!(got, expect);
    }

    fn remove_range(&mut self, gfn: u64, len: u64) {
        let expect = per_op_remove_range(&mut self.per_op, gfn, len);
        assert_eq!(self.batched.remove_range(gfn, len), expect);
    }

    /// A frame `at` per mille into the whole key range, a little past it.
    fn point(&self, at: u64) -> u64 {
        at * (self.next + 8) / 1_000
    }

    fn step(&mut self, step: &Step) {
        let (start, end) = self.newest;
        match step {
            Step::HotPlug(entries) => self.hot_plug(entries),
            Step::DetachNewest => self.remove_range(start, end - start),
            &Step::DetachPart { at, len } => {
                self.remove_range(start + at * (end - start) / 1_000, len)
            }
            &Step::DetachWithOlder { back } => {
                let gfn = start.saturating_sub(back);
                self.remove_range(gfn, end - gfn)
            }
            &Step::RemoveRange { at, len } => {
                let gfn = HOTPLUG_BASE + at * (self.next - HOTPLUG_BASE + 8) / 1_000;
                self.remove_range(gfn, len)
            }
            &Step::LowInsert {
                gfn,
                len,
                batched: as_batch,
            } => {
                let expect = self.per_op.insert(gfn, len, self.hpfn);
                if as_batch {
                    let got = self
                        .batched
                        .insert_ascending(&mut std::iter::once(Segment::entry(
                            gfn, len, self.hpfn,
                        )));
                    assert_eq!(got, expect.map(one));
                } else {
                    assert_eq!(self.batched.insert(gfn, len, self.hpfn), expect);
                }
            }
            &Step::LowRemove { gfn } => {
                assert_eq!(self.batched.remove(gfn), self.per_op.remove(gfn));
            }
            &Step::Lookup { at } => {
                let gfn = self.point(at);
                assert_eq!(
                    self.batched.lookup_run(gfn, 64),
                    self.per_op.lookup_run(gfn, 64)
                );
                assert_eq!(self.batched.lookup(gfn), self.per_op.lookup(gfn));
            }
            &Step::Translate { at } => {
                let gfn = self.point(at);
                assert_eq!(
                    self.batched.translate_run(gfn),
                    self.per_op.translate_run(gfn)
                );
            }
        }
        self.check(step);
    }

    /// Entries and lengths always agree; the trees do whenever the
    /// batched map holds no batch.
    fn check(&mut self, step: &Step) {
        assert_eq!(self.batched.len(), self.per_op.len());
        assert!(
            self.batched.iter().eq(self.per_op.iter()),
            "entries differ after {:?}",
            step
        );
        if !self.batched.holds_batch() {
            assert!(self.batched == self.per_op, "trees differ after {:?}", step);
            self.batched.validate();
        }
        self.per_op.validate();
    }
}

/// Drive a history through both maps, panicking on any difference.
fn run(steps: &[Step]) -> Pair {
    let mut pair = Pair::new();
    for step in steps {
        pair.step(step);
    }
    pair
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn batched_rb_map_equals_per_op_map(steps in history()) {
        let pair = run(&steps);
        prop_assert!(pair.batched.batches().held >= 2, "batches on the one-entry base are held");
    }
}

fn singles(n: usize) -> Step {
    Step::HotPlug(vec![(0, 1); n])
}

#[test]
fn recurring_cycles_on_one_base_are_held() {
    // One RAM-like entry below, then in situ timesteps of a few recurring
    // sizes: every batch is held, and translations do not link it.
    let mut steps = vec![Step::LowInsert {
        gfn: 0,
        len: 1_024,
        batched: false,
    }];
    for round in 0..6 {
        for n in [3, 9, 40, 9] {
            steps.push(singles(n));
            if round % 2 == 1 {
                steps.push(Step::Translate { at: 999 });
                steps.push(Step::Translate { at: 1 });
            }
            steps.push(Step::DetachNewest);
        }
    }
    let pair = run(&steps);
    let batches = pair.batched.batches();
    assert_eq!((batches.held, batches.linked), (24, 0));
}

#[test]
fn lookups_while_held_see_the_linked_tree() {
    // Counted lookups need the tree per-op inserts would build: RAM's
    // depth grows with the held batch. Translations do not link.
    let ram = Step::LowInsert {
        gfn: 0,
        len: 1_024,
        batched: false,
    };
    let mut steps = vec![ram, singles(32), Step::DetachNewest, singles(32)];
    for at in [0, 120, 500, 999] {
        steps.push(Step::Translate { at });
    }
    let mut pair = run(&steps);
    assert!(pair.batched.holds_batch(), "the second batch is held");
    let last = pair.newest.1 - 1;
    assert_eq!(
        pair.batched.translate_run(last),
        pair.per_op.translate_run(last)
    );
    assert!(pair.batched.holds_batch(), "translations do not link");
    for step in [Step::Lookup { at: 1 }, Step::Lookup { at: 990 }] {
        pair.step(&step);
        assert!(!pair.batched.holds_batch(), "counted lookups link");
    }
    pair.step(&Step::DetachNewest);
}

#[test]
fn partial_and_overlapping_detaches_of_a_held_batch_run_for_real() {
    let ram = || Step::LowInsert {
        gfn: 0,
        len: 1_024,
        batched: false,
    };
    for detach in [
        Step::DetachPart { at: 0, len: 5 },
        Step::DetachPart { at: 500, len: 3 },
        Step::DetachPart { at: 900, len: 40 },
        // From the gap below the batch: still exactly the batch.
        Step::DetachWithOlder { back: 1 },
        // Into the RAM entry below.
        Step::DetachWithOlder { back: 4_000 },
        Step::RemoveRange { at: 0, len: 1 },
    ] {
        let mut pair = run(&[ram(), singles(16), Step::DetachNewest, singles(16)]);
        assert!(pair.batched.holds_batch());
        for step in [detach, Step::DetachNewest, singles(16), Step::DetachNewest] {
            pair.step(&step);
        }
    }
}

#[test]
fn empty_and_multi_entry_bases_link_for_real() {
    let low = |i: u64| Step::LowInsert {
        gfn: i * 10,
        len: 2,
        batched: false,
    };
    for base in [0u64, 2, 20] {
        let mut steps: Vec<Step> = (0..base).map(low).collect();
        for _ in 0..4 {
            steps.push(singles(8));
            steps.push(Step::DetachNewest);
        }
        let batches = run(&steps).batched.batches();
        assert_eq!((batches.held, batches.linked), (0, 4), "{base} entries");
    }
}

/// Every batch size up to 2,048; each case boundary of the closed form's
/// recurrence (m = e + 3 at 3P, 3.5P, 4P, 5P and 6P, one either side) for
/// P = 8 … 2^16; and the hot-plug sizes of `vm_insitu` (2–64 MiB) and
/// `table2`'s 1 GiB attach, in 4 KiB pages.
fn closed_form_sizes() -> Vec<u64> {
    let mut sizes: Vec<u64> = (1..=2_048).collect();
    for k in 3..=16 {
        let p = 1u64 << k;
        for m in [3 * p, 7 * p / 2, 4 * p, 5 * p, 6 * p] {
            sizes.extend([m - 4, m - 3, m - 2]);
        }
    }
    sizes.extend([2, 4, 6, 8, 12, 16, 24, 32, 48, 64].map(|mib| mib * 256));
    sizes.push(262_144);
    sizes.sort_unstable();
    sizes.dedup();
    sizes
}

#[test]
fn one_entry_base_cycles_match_the_per_op_map() {
    // The per-op map grows one entry at a time above a one-entry base, so
    // its summed insert report at each size is a running total; each size
    // is then removed from a copy, one `remove` per entry in ascending
    // order. The batched map runs the same cycle as one held batch. Below
    // 21 entries this derives, row by row, the table the closed form
    // answers small trees from.
    let mut grown = RbMemoryMap::new();
    grown.insert(0, 1, 0).unwrap();
    let mut insert = BatchReport::default();
    for e in closed_form_sizes() {
        for key in grown.len() as u64..=e {
            insert.add(grown.insert(key, 1, key).unwrap());
        }
        let mut per_op = grown.clone();
        let mut remove = BatchReport::default();
        for key in 1..=e {
            remove.add(per_op.remove(key).unwrap().1);
        }
        let mut batched = RbMemoryMap::new();
        batched.insert(0, 1, 0).unwrap();
        let segment = Segment {
            gfn: 1,
            len: 1,
            hpfn: 1,
            count: e,
        };
        let got = batched.insert_ascending(&mut std::iter::once(segment));
        assert_eq!(got, Ok(insert), "insert, e = {e}");
        assert!(batched.holds_batch(), "e = {e}");
        assert_eq!(batched.remove_range(1, e), remove, "remove, e = {e}");
        assert!(batched == per_op, "e = {e}");
    }
}

#[test]
fn a_batch_after_a_fallback_rebuilds_the_spine() {
    // A batch whose first entry lands below the maximum falls back to a
    // per-op insert, and the entries after it must still see the right
    // spine of the reshaped tree.
    let mut per_op = RbMemoryMap::new();
    let mut batched = RbMemoryMap::new();
    for i in 0..64u64 {
        per_op.insert(100 + i, 1, i).unwrap();
        batched.insert(100 + i, 1, i).unwrap();
    }
    let batch: Vec<_> = [(10, 1, 0), (20, 5, 0)]
        .into_iter()
        .chain((0..100u64).map(|i| (1_000 + i, 1, i)))
        .collect();
    let mut expect = BatchReport::default();
    for &(gfn, len, hpfn) in &batch {
        expect.add(per_op.insert(gfn, len, hpfn).unwrap());
    }
    let got = batched
        .insert_ascending(&mut batch.iter().map(|&(g, l, h)| Segment::entry(g, l, h)))
        .unwrap();
    assert_eq!(got, expect);
    assert!(batched == per_op);
    batched.validate();
}

#[test]
fn batched_insert_stops_at_the_first_overlap() {
    let mut per_op = RbMemoryMap::new();
    let mut batched = RbMemoryMap::new();
    let batch = [(0, 4, 0), (4, 1, 0), (3, 1, 0), (9, 1, 0)];
    for &(gfn, len, hpfn) in &batch[..2] {
        per_op.insert(gfn, len, hpfn).unwrap();
    }
    let err = per_op.insert(3, 1, 0).unwrap_err();
    assert_eq!(
        batched.insert_ascending(&mut batch.iter().map(|&(g, l, h)| Segment::entry(g, l, h))),
        Err(err)
    );
    assert!(
        batched == per_op,
        "entries before the overlap stay inserted"
    );
}
