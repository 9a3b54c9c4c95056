//! A page-table-shaped radix tree memory map — the paper's future work.
//!
//! §5.4 closes: "In the future we intend to remove this overhead through
//! the use of more intelligent radix tree based data structures that can
//! more appropriately mimic a page table's organization." This is that
//! structure: a four-level, 512-way radix tree over guest frame numbers.
//! Unlike the red-black tree, the work per frame is a constant number of
//! level visits regardless of how many frames are mapped — which is
//! exactly what the `ablation_memmap` bench demonstrates.

use crate::{GuestMemoryMap, MapError, OpReport};
use std::collections::HashMap;

const FANOUT: usize = 512;
const LEVELS: u32 = 4;

#[derive(Debug, Clone, Copy)]
struct LeafEntry {
    hpfn: u64,
    region_start: u64,
}

#[derive(Debug)]
enum RNode {
    Interior(Box<[Option<RNode>]>),
    Leaf(Box<[Option<LeafEntry>]>),
}

impl RNode {
    fn interior() -> RNode {
        RNode::Interior((0..FANOUT).map(|_| None).collect())
    }

    fn leaf() -> RNode {
        RNode::Leaf((0..FANOUT).map(|_| None).collect())
    }
}

/// Region bookkeeping (start → (len, hpfn)); not on the per-page hot path.
type Regions = HashMap<u64, (u64, u64)>;

/// The radix-tree guest memory map.
#[derive(Debug)]
pub struct RadixMemoryMap {
    root: RNode,
    regions: Regions,
}

impl Default for RadixMemoryMap {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn index_at(gfn: u64, level: u32) -> usize {
    ((gfn >> (9 * level)) & 0x1FF) as usize
}

impl RadixMemoryMap {
    /// An empty map (covers guest frames up to 2^36, i.e. 48-bit GPAs).
    pub fn new() -> Self {
        RadixMemoryMap {
            root: RNode::interior(),
            regions: HashMap::new(),
        }
    }

    /// Walk to the leaf entry for `gfn`, creating interior nodes when
    /// `create` is set. Returns (leaf slot, visits).
    fn walk_mut(&mut self, gfn: u64, create: bool) -> (Option<&mut Option<LeafEntry>>, u32) {
        let mut visits = 1u32; // root
        let mut node = &mut self.root;
        for level in (1..LEVELS).rev() {
            let idx = index_at(gfn, level);
            let slot = match node {
                RNode::Interior(children) => &mut children[idx],
                RNode::Leaf(_) => unreachable!("leaf above level 0"),
            };
            if slot.is_none() {
                if !create {
                    return (None, visits);
                }
                *slot = Some(if level == 1 {
                    RNode::leaf()
                } else {
                    RNode::interior()
                });
            }
            node = slot.as_mut().expect("just ensured");
            visits += 1;
        }
        let idx = index_at(gfn, 0);
        match node {
            RNode::Leaf(entries) => (Some(&mut entries[idx]), visits),
            RNode::Interior(_) => unreachable!("interior at level 0"),
        }
    }

    /// Frames of `entry`'s region from `gfn` (which it maps) onward.
    fn region_left(&self, entry: LeafEntry, gfn: u64) -> u64 {
        let (len, _) = self
            .regions
            .get(&entry.region_start)
            .expect("leaf entry without region record");
        entry.region_start + len - gfn
    }

    fn walk(&self, gfn: u64) -> (Option<LeafEntry>, u32) {
        let mut visits = 1u32;
        let mut node = &self.root;
        for level in (1..LEVELS).rev() {
            let idx = index_at(gfn, level);
            let slot = match node {
                RNode::Interior(children) => &children[idx],
                RNode::Leaf(_) => unreachable!(),
            };
            match slot {
                Some(next) => {
                    node = next;
                    visits += 1;
                }
                None => return (None, visits),
            }
        }
        let idx = index_at(gfn, 0);
        match node {
            RNode::Leaf(entries) => (entries[idx], visits),
            RNode::Interior(_) => unreachable!(),
        }
    }
}

impl GuestMemoryMap for RadixMemoryMap {
    fn insert(&mut self, gfn: u64, len: u64, hpfn: u64) -> Result<OpReport, MapError> {
        if len == 0 {
            return Err(MapError::EmptyRange);
        }
        // Check-then-set with unwind on conflict keeps inserts atomic.
        let mut visits = 0u32;
        for i in 0..len {
            let (slot, v) = self.walk_mut(gfn + i, true);
            visits += v;
            let slot = slot.expect("create walk always reaches a leaf");
            if slot.is_some() {
                // Unwind the frames we already wrote.
                for j in 0..i {
                    let (undo, _) = self.walk_mut(gfn + j, false);
                    *undo.expect("was just inserted") = None;
                }
                return Err(MapError::Overlap { gfn: gfn + i });
            }
            *slot = Some(LeafEntry {
                hpfn: hpfn + i,
                region_start: gfn,
            });
        }
        self.regions.insert(gfn, (len, hpfn));
        Ok(OpReport {
            visits,
            rotations: 0,
        })
    }

    fn lookup(&mut self, gfn: u64) -> Result<(u64, OpReport), MapError> {
        let (entry, visits) = self.walk(gfn);
        match entry {
            Some(e) => Ok((
                e.hpfn,
                OpReport {
                    visits,
                    rotations: 0,
                },
            )),
            None => Err(MapError::NotFound { gfn }),
        }
    }

    fn lookup_run(&mut self, gfn: u64, max_len: u64) -> Result<((u64, u64), OpReport), MapError> {
        let (entry, visits) = self.walk(gfn);
        let entry = entry.ok_or(MapError::NotFound { gfn })?;
        // Every present frame costs exactly LEVELS visits, so the one
        // reported walk is per-frame identical across the covered run.
        let covered = self.region_left(entry, gfn).min(max_len.max(1));
        Ok((
            (entry.hpfn, covered),
            OpReport {
                visits,
                rotations: 0,
            },
        ))
    }

    fn translate_run(&self, gfn: u64) -> Option<(u64, u64)> {
        let entry = self.walk(gfn).0?;
        Some((entry.hpfn, self.region_left(entry, gfn)))
    }

    fn remove(&mut self, gfn: u64) -> Result<((u64, u64, u64), OpReport), MapError> {
        let (entry, mut visits) = self.walk(gfn);
        let entry = entry.ok_or(MapError::NotFound { gfn })?;
        let (len, hpfn) = self
            .regions
            .remove(&entry.region_start)
            .expect("leaf entry without region record");
        for i in 0..len {
            let (slot, v) = self.walk_mut(entry.region_start + i, false);
            visits += v;
            *slot.expect("region frames must be present") = None;
        }
        Ok((
            (entry.region_start, len, hpfn),
            OpReport {
                visits,
                rotations: 0,
            },
        ))
    }

    fn len(&self) -> usize {
        self.regions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove_basics() {
        let mut map = RadixMemoryMap::new();
        map.insert(0x100, 4, 0x9000).unwrap();
        map.insert(0x200, 2, 0xA000).unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map.lookup(0x101).unwrap().0, 0x9001);
        assert_eq!(
            map.lookup(0x300).unwrap_err(),
            MapError::NotFound { gfn: 0x300 }
        );
        let (removed, _) = map.remove(0x102).unwrap();
        assert_eq!(removed, (0x100, 4, 0x9000));
        assert!(map.lookup(0x100).is_err());
        assert!(map.lookup(0x103).is_err());
        assert_eq!(map.lookup(0x200).unwrap().0, 0xA000);
    }

    #[test]
    fn overlap_unwinds_partial_insert() {
        let mut map = RadixMemoryMap::new();
        map.insert(105, 2, 0).unwrap();
        // Overlaps at frame 105 after writing 100..105.
        assert_eq!(
            map.insert(100, 8, 50).unwrap_err(),
            MapError::Overlap { gfn: 105 }
        );
        // The partial frames must have been unwound.
        for g in 100..105 {
            assert!(
                map.lookup(g).is_err(),
                "frame {g} leaked from failed insert"
            );
        }
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn visits_are_constant_per_frame_regardless_of_size() {
        let mut map = RadixMemoryMap::new();
        let first = map.insert(0, 1, 0).unwrap();
        for i in 1..10_000u64 {
            map.insert(i * 2, 1, i).unwrap();
        }
        let late = map.insert(1_000_000, 1, 7).unwrap();
        // Always exactly LEVELS visits per single-frame insert — no growth
        // with occupancy (contrast with RbMemoryMap).
        assert_eq!(first.visits, 4);
        assert_eq!(late.visits, 4);
    }

    #[test]
    fn run_insert_shares_no_measurement_shortcuts() {
        let mut map = RadixMemoryMap::new();
        let report = map.insert(0, 512, 100).unwrap();
        // 512 frames × 4 levels.
        assert_eq!(report.visits, 512 * 4);
        // All frames translate with the right offsets.
        assert_eq!(map.lookup(511).unwrap().0, 611);
    }

    #[test]
    fn frames_spanning_leaf_tables() {
        let mut map = RadixMemoryMap::new();
        // A run crossing the 512-frame leaf-table boundary.
        map.insert(510, 4, 0x700).unwrap();
        assert_eq!(map.lookup(510).unwrap().0, 0x700);
        assert_eq!(map.lookup(513).unwrap().0, 0x703);
        let (removed, _) = map.remove(512).unwrap();
        assert_eq!(removed, (510, 4, 0x700));
    }

    #[test]
    fn zero_length_rejected() {
        let mut map = RadixMemoryMap::new();
        assert_eq!(map.insert(5, 0, 0), Err(MapError::EmptyRange));
    }

    #[test]
    fn lookup_run_matches_per_frame_lookups() {
        let mut map = RadixMemoryMap::new();
        // A region crossing a 512-frame leaf-table boundary.
        map.insert(500, 40, 0x900).unwrap();
        let ((hpfn, covered), run_report) = map.lookup_run(510, 1_000).unwrap();
        assert_eq!(covered, 30, "covers to the region end");
        for off in 0..covered {
            let (h, r) = map.lookup(510 + off).unwrap();
            assert_eq!(h, hpfn + off);
            assert_eq!(r.visits, run_report.visits, "constant per-frame visits");
        }
        let ((_, capped), _) = map.lookup_run(500, 4).unwrap();
        assert_eq!(capped, 4);
        assert!(map.lookup_run(499, 4).is_err());
    }

    #[test]
    fn high_gfn_near_36_bit_limit() {
        let mut map = RadixMemoryMap::new();
        let gfn = (1u64 << 36) - 2;
        map.insert(gfn, 2, 42).unwrap();
        assert_eq!(map.lookup(gfn + 1).unwrap().0, 43);
    }
}
