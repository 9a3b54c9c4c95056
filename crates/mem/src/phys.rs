//! Simulated physical memory with sparse byte-level contents.
//!
//! A node's physical memory is a range of 4 KiB frames, optionally split
//! into NUMA zones. Frame *contents* are materialized lazily: a frame that
//! has never been written reads as zeroes and occupies no host memory, so
//! experiments can map multi-GiB regions without multi-GiB allocations
//! while data-flow tests still verify real byte movement end to end.
//!
//! Contents are kept in PFN order, so an access takes one lock and checks
//! zone bounds once per zone it crosses, and relocating or discarding a
//! run of frames visits only the materialized frames inside it — never
//! the run's untouched frames, nor the rest of the node.
//!
//! `PhysicalMemory` is shared by every enclave on a node (the whole point
//! of XEMEM is that enclaves map *the same frames*), so it is internally
//! synchronized and handed around as `Arc<PhysicalMemory>`.

use crate::error::MemError;
use crate::pfn_list::PfnList;
use crate::types::{Pfn, PhysAddr, PAGE_SIZE};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One NUMA zone: a contiguous frame range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumaZone {
    /// Zone index.
    pub id: u32,
    /// First frame of the zone.
    pub base: Pfn,
    /// Number of frames in the zone.
    pub frames: u64,
}

impl NumaZone {
    /// True when the frame lies in this zone.
    pub fn contains(&self, pfn: Pfn) -> bool {
        pfn >= self.base && pfn.0 < self.base.0 + self.frames
    }
}

/// One run of frames changing physical location: `frames` frames move
/// from `src..src+frames` to `dst..dst+frames`. Runs let tier migration
/// describe arbitrarily large moves in O(extents).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMove {
    /// First source frame.
    pub src: Pfn,
    /// First destination frame.
    pub dst: Pfn,
    /// Run length in frames.
    pub frames: u64,
}

impl FrameMove {
    /// Zip two equal-length frame lists into moves, positionally: page
    /// `i` of `old` moves to page `i` of `new`. Produces one move per
    /// overlapping run pair — O(runs), never per page.
    pub fn pair(old: &PfnList, new: &PfnList) -> Vec<FrameMove> {
        debug_assert_eq!(old.pages(), new.pages());
        let mut moves = Vec::new();
        let (mut oi, mut ni) = (0usize, 0usize);
        let (mut ooff, mut noff) = (0u64, 0u64);
        let (old_runs, new_runs) = (old.runs(), new.runs());
        while oi < old_runs.len() && ni < new_runs.len() {
            let o = &old_runs[oi];
            let n = &new_runs[ni];
            let span = (o.len - ooff).min(n.len - noff);
            moves.push(FrameMove {
                src: Pfn(o.start.0 + ooff),
                dst: Pfn(n.start.0 + noff),
                frames: span,
            });
            ooff += span;
            noff += span;
            if ooff == o.len {
                oi += 1;
                ooff = 0;
            }
            if noff == n.len {
                ni += 1;
                noff = 0;
            }
        }
        moves
    }
}

/// Byte-level access to a physical address space.
///
/// Implemented by [`PhysicalMemory`] (host physical memory) and by the
/// Palacios guest-physical view, which translates GPA→HPA through the VMM
/// memory map before touching host memory. Kernels are written against
/// this trait so the *same* kernel code runs natively and inside a VM —
/// mirroring how the paper runs stock Linux as both host and guest.
pub trait PhysAccess: Send + Sync {
    /// Write bytes at a physical address, crossing frame boundaries.
    fn write(&self, at: PhysAddr, data: &[u8]) -> Result<(), MemError>;
    /// Read bytes at a physical address.
    fn read(&self, at: PhysAddr, out: &mut [u8]) -> Result<(), MemError>;

    /// Drop the contents of `frames`, which are returning to an
    /// allocator: they read as zero until written again, so the next
    /// owner never sees the previous one's bytes.
    fn discard(&self, frames: &PfnList) -> Result<(), MemError>;

    /// True when this backend can relocate frame contents (tier
    /// migration). The Palacios guest-physical view cannot: moving host
    /// frames under a guest would require rewriting the VMM memory map.
    fn can_relocate(&self) -> bool {
        false
    }

    /// Move the contents of each [`FrameMove`] run from its source to
    /// its destination frames. Backends that cannot relocate report
    /// [`MemError::BadPhysAccess`]; callers should gate on
    /// [`PhysAccess::can_relocate`] first for a typed error.
    fn relocate_frames(&self, moves: &[FrameMove]) -> Result<(), MemError> {
        Err(MemError::BadPhysAccess(
            moves.first().map(|m| m.src).unwrap_or(Pfn(0)),
        ))
    }
}

/// The physical memory of one simulated node.
#[derive(Debug)]
pub struct PhysicalMemory {
    zones: Vec<NumaZone>,
    total_frames: u64,
    /// Lazily materialized frame contents, by PFN.
    contents: RwLock<BTreeMap<u64, Box<[u8]>>>,
}

impl PhysicalMemory {
    /// A node with a single zone of `frames` 4 KiB frames starting at
    /// frame 0.
    pub fn new(frames: u64) -> Arc<Self> {
        Self::with_zones(vec![NumaZone {
            id: 0,
            base: Pfn(0),
            frames,
        }])
    }

    /// A node with the given NUMA zones. Zones must be disjoint; the paper
    /// systems use two 16 GiB sockets.
    pub fn with_zones(zones: Vec<NumaZone>) -> Arc<Self> {
        let total_frames = zones.iter().map(|z| z.frames).sum();
        Arc::new(PhysicalMemory {
            zones,
            total_frames,
            contents: RwLock::new(BTreeMap::new()),
        })
    }

    /// A two-socket layout mirroring the paper's evaluation node: two
    /// zones of `per_zone_gib` GiB each.
    pub fn dual_socket(per_zone_gib: u64) -> Arc<Self> {
        let frames = per_zone_gib << (30 - 12);
        Self::with_zones(vec![
            NumaZone {
                id: 0,
                base: Pfn(0),
                frames,
            },
            NumaZone {
                id: 1,
                base: Pfn(frames),
                frames,
            },
        ])
    }

    /// All zones.
    pub fn zones(&self) -> &[NumaZone] {
        &self.zones
    }

    /// Total frame count.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// True when the frame exists on this node.
    pub fn frame_exists(&self, pfn: Pfn) -> bool {
        self.zones.iter().any(|z| z.contains(pfn))
    }

    /// One past the last frame of the zone holding `pfn`.
    fn zone_end(&self, pfn: Pfn) -> Result<u64, MemError> {
        self.zones
            .iter()
            .find(|z| z.contains(pfn))
            .map(|z| z.base.0 + z.frames)
            .ok_or(MemError::BadPhysAccess(pfn))
    }

    /// Write bytes at a physical address, crossing frame boundaries as
    /// needed. Frames are materialized on first write; at the first frame
    /// outside every zone the bytes before it have been written.
    fn write_impl(&self, at: PhysAddr, data: &[u8]) -> Result<(), MemError> {
        let mut remaining = data;
        let mut addr = at;
        let mut zone_end = 0;
        let mut contents = self.contents.write();
        while !remaining.is_empty() {
            let pfn = addr.pfn();
            if pfn.0 >= zone_end {
                zone_end = self.zone_end(pfn)?;
            }
            let off = addr.page_offset() as usize;
            let take = remaining.len().min(PAGE_SIZE as usize - off);
            let frame = contents
                .entry(pfn.0)
                .or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
            frame[off..off + take].copy_from_slice(&remaining[..take]);
            remaining = &remaining[take..];
            addr = addr + take as u64;
        }
        Ok(())
    }

    /// Read bytes at a physical address. Unmaterialized frames read as
    /// zeroes.
    fn read_impl(&self, at: PhysAddr, out: &mut [u8]) -> Result<(), MemError> {
        let mut filled = 0usize;
        let mut addr = at;
        let mut zone_end = 0;
        let contents = self.contents.read();
        while filled < out.len() {
            let pfn = addr.pfn();
            if pfn.0 >= zone_end {
                zone_end = self.zone_end(pfn)?;
            }
            let off = addr.page_offset() as usize;
            let take = (out.len() - filled).min(PAGE_SIZE as usize - off);
            match contents.get(&pfn.0) {
                Some(frame) => out[filled..filled + take].copy_from_slice(&frame[off..off + take]),
                None => out[filled..filled + take].fill(0),
            }
            filled += take;
            addr = addr + take as u64;
        }
        Ok(())
    }

    /// Write bytes at a physical address (inherent convenience mirroring
    /// the [`PhysAccess`] impl).
    pub fn write(&self, at: PhysAddr, data: &[u8]) -> Result<(), MemError> {
        self.write_impl(at, data)
    }

    /// Read bytes at a physical address.
    pub fn read(&self, at: PhysAddr, out: &mut [u8]) -> Result<(), MemError> {
        self.read_impl(at, out)
    }

    /// Number of frames whose contents are currently materialized (a
    /// host-memory footprint diagnostic).
    pub fn materialized_frames(&self) -> usize {
        self.contents.read().len()
    }
}

impl PhysicalMemory {
    /// Relocate frame contents for a batch of runs. Only *materialized*
    /// frames move, found by PFN range (O((runs + moved frames) × log
    /// materialized)), so migrating gigabytes of never-touched pages does no
    /// per-page host work — the invariant the wallclock gate holds the
    /// `migrate_extent` path to.
    fn relocate_impl(&self, moves: &[FrameMove]) -> Result<(), MemError> {
        for m in moves {
            if m.frames == 0 {
                continue;
            }
            for end in [
                m.src,
                m.src.offset(m.frames - 1),
                m.dst,
                m.dst.offset(m.frames - 1),
            ] {
                if !self.frame_exists(end) {
                    return Err(MemError::BadPhysAccess(end));
                }
            }
        }
        let mut contents = self.contents.write();
        // Two passes — remove every moving frame, then insert at the new
        // keys — so a destination that equals another run's source can
        // never clobber data mid-move.
        let mut moved: Vec<(u64, Box<[u8]>)> = Vec::new();
        for m in moves {
            let src = m.src.0..m.src.0 + m.frames;
            let taken = contents.extract_if(src, |_, _| true);
            moved.extend(taken.map(|(k, data)| (m.dst.0 + (k - m.src.0), data)));
        }
        contents.extend(moved);
        Ok(())
    }
}

impl PhysAccess for PhysicalMemory {
    fn write(&self, at: PhysAddr, data: &[u8]) -> Result<(), MemError> {
        self.write_impl(at, data)
    }

    fn read(&self, at: PhysAddr, out: &mut [u8]) -> Result<(), MemError> {
        self.read_impl(at, out)
    }

    /// Drop the materialized contents inside `frames`' runs, found by
    /// PFN range: never a probe per listed page, since one exit can free
    /// 100k frames.
    fn discard(&self, frames: &PfnList) -> Result<(), MemError> {
        let mut contents = self.contents.write();
        for r in frames.runs() {
            contents
                .extract_if(r.start.0..r.start.0 + r.len, |_, _| true)
                .for_each(drop);
        }
        Ok(())
    }

    fn can_relocate(&self) -> bool {
        true
    }

    fn relocate_frames(&self, moves: &[FrameMove]) -> Result<(), MemError> {
        self.relocate_impl(moves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_of_untouched_frames_are_zero() {
        let pm = PhysicalMemory::new(16);
        let mut buf = [0xFFu8; 8];
        pm.read(PhysAddr(100), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
        assert_eq!(pm.materialized_frames(), 0);
    }

    #[test]
    fn write_read_round_trip_within_a_frame() {
        let pm = PhysicalMemory::new(16);
        pm.write(PhysAddr(4096 + 10), b"hello").unwrap();
        let mut buf = [0u8; 5];
        pm.read(PhysAddr(4096 + 10), &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        assert_eq!(pm.materialized_frames(), 1);
    }

    #[test]
    fn writes_cross_frame_boundaries() {
        let pm = PhysicalMemory::new(16);
        let data: Vec<u8> = (0..8192 + 100).map(|i| (i % 251) as u8).collect();
        pm.write(PhysAddr(4000), &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        pm.read(PhysAddr(4000), &mut buf).unwrap();
        assert_eq!(buf, data);
        assert_eq!(pm.materialized_frames(), 4); // frames 0..=3 touched
    }

    #[test]
    fn out_of_range_access_errors() {
        let pm = PhysicalMemory::new(2);
        let err = pm.write(PhysAddr(2 * 4096), b"x").unwrap_err();
        assert_eq!(err, MemError::BadPhysAccess(Pfn(2)));
        let mut b = [0u8; 1];
        assert!(pm.read(PhysAddr(3 * 4096), &mut b).is_err());
    }

    #[test]
    fn dual_socket_layout_matches_paper_node() {
        let pm = PhysicalMemory::dual_socket(16);
        assert_eq!(pm.zones().len(), 2);
        assert_eq!(pm.total_frames(), 2 * 16 * 262_144);
        assert!(pm.frame_exists(Pfn(16 * 262_144)));
        assert!(!pm.frame_exists(Pfn(32 * 262_144)));
    }

    #[test]
    fn discard_zeroes_only_the_listed_runs() {
        let pm = PhysicalMemory::new(1 << 20); // 4 GiB of frames, no host cost
        for pfn in [3u64, 4, 9, 70_000, 70_001] {
            pm.write(PhysAddr(pfn * 4096 + 1), b"data").unwrap();
        }
        // Runs out of order, one of them huge: only materialized frames
        // inside them are dropped.
        let mut freed = PfnList::new();
        freed.push_run(Pfn(60_000), 10_001);
        freed.push_run(Pfn(4), 1);
        pm.discard(&freed).unwrap();
        let mut buf = [9u8; 4];
        for (pfn, kept) in [
            (3u64, true),
            (4, false),
            (9, true),
            (70_000, false),
            (70_001, true),
        ] {
            pm.read(PhysAddr(pfn * 4096 + 1), &mut buf).unwrap();
            assert_eq!(&buf, if kept { b"data" } else { &[0u8; 4] }, "frame {pfn}");
        }
        assert_eq!(pm.materialized_frames(), 3);
        pm.discard(&PfnList::new()).unwrap();
        assert_eq!(pm.materialized_frames(), 3);
    }

    #[test]
    fn relocate_moves_only_materialized_frames() {
        let pm = PhysicalMemory::new(1 << 20); // 4 GiB of frames, no host cost
        pm.write(PhysAddr(5 * 4096), b"five").unwrap();
        pm.write(PhysAddr(900 * 4096 + 7), b"nine hundred").unwrap();
        assert_eq!(pm.materialized_frames(), 2);
        // Move a huge run; only the two touched frames do host work.
        pm.relocate_frames(&[FrameMove {
            src: Pfn(0),
            dst: Pfn(100_000),
            frames: 65_536,
        }])
        .unwrap();
        assert_eq!(pm.materialized_frames(), 2);
        let mut buf = [0u8; 4];
        pm.read(PhysAddr((100_000 + 5) * 4096), &mut buf).unwrap();
        assert_eq!(&buf, b"five");
        // Old location reads as zeroes again.
        pm.read(PhysAddr(5 * 4096), &mut buf).unwrap();
        assert_eq!(buf, [0u8; 4]);
        let mut buf = [0u8; 12];
        pm.read(PhysAddr((100_000 + 900) * 4096 + 7), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"nine hundred");
    }

    #[test]
    fn relocate_out_of_range_is_rejected() {
        let pm = PhysicalMemory::new(16);
        let err = pm
            .relocate_frames(&[FrameMove {
                src: Pfn(0),
                dst: Pfn(12),
                frames: 8,
            }])
            .unwrap_err();
        assert_eq!(err, MemError::BadPhysAccess(Pfn(19)));
        assert!(pm.can_relocate());
    }

    #[test]
    fn concurrent_writers_to_distinct_frames() {
        let pm = PhysicalMemory::new(64);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let pm = &pm;
                s.spawn(move || {
                    let data = [t as u8; 512];
                    for i in 0..8 {
                        pm.write(PhysAddr((t * 8 + i) * 4096), &data).unwrap();
                    }
                });
            }
        });
        let mut buf = [0u8; 1];
        pm.read(PhysAddr(63 * 4096), &mut buf).unwrap();
        assert_eq!(buf[0], 7);
    }
}
