//! Property test: the red-black map's batched entry points must build the
//! same tree, node for node, as the per-operation calls they replace, and
//! report the same summed work.
//!
//! Two maps replay one random history. The per-op map hot-plugs with one
//! `insert` per entry and removes a range with one `remove` per frame in
//! ascending order; the batched map uses `insert_ascending` and
//! `remove_range`. Hot-plugged keys are bump-allocated above a fixed base,
//! as the VMM allocates them; below the base both maps take arbitrary
//! per-op inserts and removes, and some of those inserts reach the batched
//! map as a batch that is not above the maximum, which must fall back.

use proptest::prelude::*;
use xemem_collections::{BatchReport, GuestMemoryMap, RbMemoryMap};

/// First hot-plug frame; the low region holds arbitrary traffic.
const HOTPLUG_BASE: u64 = 4_096;

#[derive(Debug, Clone)]
enum Step {
    /// Hot-plug entries above the maximum: (gap before, len) each.
    HotPlug(Vec<(u64, u64)>),
    /// Remove every entry meeting `len` frames from a point of the
    /// hot-plug range (`at` is scaled to the range's current extent).
    RemoveRange { at: u64, len: u64 },
    /// Insert below the hot-plug range; `batched` hands it to the batched
    /// map as a one-entry batch below the maximum.
    LowInsert { gfn: u64, len: u64, batched: bool },
    /// Remove the low entry containing `gfn`, per op on both maps.
    LowRemove { gfn: u64 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let entry = (0u64..8, 0u64..8).prop_map(|(gap, len)| {
        // Mostly adjacent single frames, as per-page attaches are.
        let gap = if gap < 6 { 0 } else { gap };
        let len = if len < 5 { 1 } else { len - 3 };
        (gap, len)
    });
    prop_oneof![
        prop::collection::vec(entry, 1..48).prop_map(Step::HotPlug),
        (0u64..1_000, 1u64..120).prop_map(|(at, len)| Step::RemoveRange { at, len }),
        (0u64..HOTPLUG_BASE, 1u64..16, any::<bool>()).prop_map(|(gfn, len, batched)| {
            Step::LowInsert {
                gfn: gfn.min(HOTPLUG_BASE - len),
                len,
                batched,
            }
        }),
        (0u64..HOTPLUG_BASE).prop_map(|gfn| Step::LowRemove { gfn }),
    ]
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn batched_rb_map_equals_per_op_map_node_for_node(
        steps in prop::collection::vec(step_strategy(), 1..80)
    ) {
        let mut per_op = RbMemoryMap::new();
        let mut batched = RbMemoryMap::new();
        let mut next = HOTPLUG_BASE;
        let mut hpfn = 0u64;
        for step in &steps {
            match step {
                Step::HotPlug(entries) => {
                    let mut batch = Vec::new();
                    for &(gap, len) in entries {
                        next += gap;
                        batch.push((next, len, hpfn));
                        next += len;
                        hpfn += 2 * len;
                    }
                    let mut expect = BatchReport::default();
                    for &(gfn, len, h) in &batch {
                        expect.add(per_op.insert(gfn, len, h).unwrap());
                    }
                    let got = batched.insert_ascending(&mut batch.iter().copied()).unwrap();
                    prop_assert_eq!(got, expect);
                }
                &Step::RemoveRange { at, len } => {
                    let gfn = HOTPLUG_BASE + at * (next - HOTPLUG_BASE + 8) / 1_000;
                    let expect = per_op_remove_range(&mut per_op, gfn, len);
                    prop_assert_eq!(batched.remove_range(gfn, len), expect);
                }
                &Step::LowInsert { gfn, len, batched: as_batch } => {
                    let expect = per_op.insert(gfn, len, hpfn);
                    if as_batch {
                        let got = batched.insert_ascending(&mut std::iter::once((gfn, len, hpfn)));
                        let expect = expect.map(|r| {
                            let mut total = BatchReport::default();
                            total.add(r);
                            total
                        });
                        prop_assert_eq!(got, expect);
                    } else {
                        prop_assert_eq!(batched.insert(gfn, len, hpfn), expect);
                    }
                }
                &Step::LowRemove { gfn } => {
                    prop_assert_eq!(batched.remove(gfn), per_op.remove(gfn));
                }
            }
            prop_assert_eq!(batched.len(), per_op.len());
            prop_assert!(batched == per_op, "trees differ after {:?}", step);
            batched.validate();
        }
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
        .insert_ascending(&mut batch.iter().copied())
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
        batched.insert_ascending(&mut batch.iter().copied()),
        Err(err)
    );
    assert!(
        batched == per_op,
        "entries before the overlap stay inserted"
    );
}
