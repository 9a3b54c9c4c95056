//! Property tests: both guest memory maps must behave identically to a
//! simple model (a vector of disjoint intervals) under arbitrary
//! interleavings of insert / lookup / remove, and the red-black tree must
//! maintain its invariants at every step.

use proptest::prelude::*;
use xemem_collections::{GuestMemoryMap, MapError, RadixMemoryMap, RbMemoryMap};

#[derive(Debug, Clone)]
enum Op {
    Insert { gfn: u64, len: u64, hpfn: u64 },
    Lookup { gfn: u64 },
    Remove { gfn: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Keep the key space small so operations actually collide.
    prop_oneof![
        (0u64..2_000, 1u64..64, 0u64..1_000_000).prop_map(|(gfn, len, hpfn)| Op::Insert {
            gfn,
            len,
            hpfn
        }),
        (0u64..2_100).prop_map(|gfn| Op::Lookup { gfn }),
        (0u64..2_100).prop_map(|gfn| Op::Remove { gfn }),
    ]
}

/// The reference model: a list of disjoint (start, len, hpfn) intervals.
#[derive(Default)]
struct Model {
    intervals: Vec<(u64, u64, u64)>,
}

impl Model {
    fn find(&self, gfn: u64) -> Option<(u64, u64, u64)> {
        self.intervals
            .iter()
            .copied()
            .find(|&(s, l, _)| gfn >= s && gfn < s + l)
    }

    fn insert(&mut self, gfn: u64, len: u64, hpfn: u64) -> Result<(), u64> {
        for &(s, l, _) in &self.intervals {
            let lo = s.max(gfn);
            let hi = (s + l).min(gfn + len);
            if lo < hi {
                return Err(lo);
            }
        }
        self.intervals.push((gfn, len, hpfn));
        Ok(())
    }

    fn remove(&mut self, gfn: u64) -> Option<(u64, u64, u64)> {
        let pos = self
            .intervals
            .iter()
            .position(|&(s, l, _)| gfn >= s && gfn < s + l)?;
        Some(self.intervals.swap_remove(pos))
    }
}

fn check_against_model<M: GuestMemoryMap>(map: &mut M, ops: &[Op], validate: impl Fn(&mut M)) {
    let mut model = Model::default();
    for op in ops {
        match *op {
            Op::Insert { gfn, len, hpfn } => {
                let model_result = model.insert(gfn, len, hpfn);
                let map_result = map.insert(gfn, len, hpfn);
                match (model_result, map_result) {
                    (Ok(()), Ok(_)) => {}
                    (Err(_), Err(MapError::Overlap { .. })) => {}
                    (m, r) => panic!("insert({gfn},{len}) diverged: model={m:?} map={r:?}"),
                }
            }
            Op::Lookup { gfn } => {
                let expect = model.find(gfn).map(|(s, _, h)| h + (gfn - s));
                let got = map.lookup(gfn).ok().map(|(h, _)| h);
                assert_eq!(got, expect, "lookup({gfn}) diverged");
            }
            Op::Remove { gfn } => {
                let expect = model.remove(gfn);
                let got = map.remove(gfn).ok().map(|(t, _)| t);
                assert_eq!(got, expect, "remove({gfn}) diverged");
            }
        }
        assert_eq!(map.len(), model.intervals.len());
        validate(map);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rb_tree_matches_model(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut map = RbMemoryMap::new();
        check_against_model(&mut map, &ops, |m| { m.validate(); });
    }

    #[test]
    fn radix_tree_matches_model(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut map = RadixMemoryMap::new();
        check_against_model(&mut map, &ops, |_| {});
    }

    #[test]
    fn rb_and_radix_agree_with_each_other(ops in prop::collection::vec(op_strategy(), 1..150)) {
        let mut rb = RbMemoryMap::new();
        let mut radix = RadixMemoryMap::new();
        for op in &ops {
            match *op {
                Op::Insert { gfn, len, hpfn } => {
                    let a = rb.insert(gfn, len, hpfn).is_ok();
                    let b = radix.insert(gfn, len, hpfn).is_ok();
                    prop_assert_eq!(a, b);
                }
                Op::Lookup { gfn } => {
                    let a = rb.lookup(gfn).ok().map(|(h, _)| h);
                    let b = radix.lookup(gfn).ok().map(|(h, _)| h);
                    prop_assert_eq!(a, b);
                }
                Op::Remove { gfn } => {
                    let a = rb.remove(gfn).ok().map(|(t, _)| t);
                    let b = radix.remove(gfn).ok().map(|(t, _)| t);
                    prop_assert_eq!(a, b);
                }
            }
            prop_assert_eq!(rb.len(), radix.len());
        }
    }

    #[test]
    fn rb_insert_cost_grows_radix_does_not(n in 1000usize..3000) {
        // The core claim behind the paper's future-work proposal: RB insert
        // work grows with occupancy, radix work does not.
        let mut rb = RbMemoryMap::new();
        let mut radix = RadixMemoryMap::new();
        for i in 0..n as u64 {
            rb.insert(i * 2, 1, i).unwrap();
            radix.insert(i * 2, 1, i).unwrap();
        }
        let rb_report = rb.insert(u64::MAX / 4, 1, 0).unwrap();
        let radix_report = radix.insert(1u64 << 35, 1, 0).unwrap();
        prop_assert!(rb_report.visits as f64 >= ((n as f64).log2() - 2.0));
        prop_assert_eq!(radix_report.visits, 4);
    }
}
