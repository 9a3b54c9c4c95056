//! Process address spaces: region bookkeeping over a page table.
//!
//! Kernels differ in *policy* (Kitten statically maps every region at
//! process creation; the FWK demand-pages), but both need the same
//! *mechanism*: a set of non-overlapping virtual regions, a free-range
//! finder for `mmap`-style allocation, and byte-level access that
//! translates through the page table into shared physical memory.

use crate::error::MemError;
use crate::page_table::PageTable;
use crate::phys::PhysAccess;
use crate::types::{VirtAddr, PAGE_SIZE};
use std::collections::BTreeMap;

/// What a virtual region is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Program text.
    Text,
    /// Static data.
    Data,
    /// The process heap (dynamically expandable in Kitten only since the
    /// XEMEM modifications — paper §4.3).
    Heap,
    /// The stack.
    Stack,
    /// Anonymous mmap area.
    AnonMmap,
    /// SMARTMAP window onto a sibling process (Kitten-local sharing).
    SmartMap,
    /// A mapped XEMEM attachment.
    XememAttach,
}

/// A contiguous virtual region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// First byte.
    pub start: VirtAddr,
    /// Length in bytes (page-multiple).
    pub len: u64,
    /// Purpose.
    pub kind: RegionKind,
    /// Debug label.
    pub name: String,
}

impl Region {
    /// One past the last byte.
    pub fn end(&self) -> VirtAddr {
        self.start + self.len
    }

    /// True when `va` lies inside the region.
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.start && va < self.end()
    }
}

/// A process address space: regions + page table.
#[derive(Debug)]
pub struct AddressSpace {
    regions: BTreeMap<u64, Region>,
    page_table: PageTable,
    /// Bottom of the dynamic-mapping arena used by [`Self::find_free`].
    mmap_base: VirtAddr,
    /// Top of the dynamic-mapping arena.
    mmap_top: VirtAddr,
}

impl AddressSpace {
    /// A conventional 48-bit user layout: dynamic arena from 128 GiB to
    /// 64 TiB, leaving low memory for fixed text/data/heap/stack regions.
    pub fn new() -> Self {
        Self::with_arena(VirtAddr(128 << 30), VirtAddr(64 << 40))
    }

    /// An address space with an explicit dynamic arena.
    pub fn with_arena(mmap_base: VirtAddr, mmap_top: VirtAddr) -> Self {
        assert!(mmap_base < mmap_top);
        AddressSpace {
            regions: BTreeMap::new(),
            page_table: PageTable::new(),
            mmap_base,
            mmap_top,
        }
    }

    /// The page table.
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// The page table, mutably.
    pub fn page_table_mut(&mut self) -> &mut PageTable {
        &mut self.page_table
    }

    /// All regions in address order.
    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.regions.values()
    }

    /// Insert a region at a fixed address. Fails on overlap or
    /// misalignment.
    pub fn insert_region(
        &mut self,
        start: VirtAddr,
        len: u64,
        kind: RegionKind,
        name: impl Into<String>,
    ) -> Result<(), MemError> {
        if start.page_offset() != 0 || len == 0 || !len.is_multiple_of(PAGE_SIZE) {
            return Err(MemError::Misaligned(start, crate::types::PageSize::Size4K));
        }
        let end = start.0 + len;
        // Check the previous region (greatest start ≤ ours) and the next.
        if let Some((_, prev)) = self.regions.range(..=start.0).next_back() {
            if prev.end().0 > start.0 {
                return Err(MemError::RegionOverlap(start));
            }
        }
        if let Some((_, next)) = self.regions.range(start.0..).next() {
            if next.start.0 < end {
                return Err(MemError::RegionOverlap(start));
            }
        }
        self.regions.insert(
            start.0,
            Region {
                start,
                len,
                kind,
                name: name.into(),
            },
        );
        Ok(())
    }

    /// Find a free range of `len` bytes in the dynamic arena and reserve
    /// it — the simulator's `vm_mmap`.
    pub fn reserve_free(
        &mut self,
        len: u64,
        kind: RegionKind,
        name: impl Into<String>,
    ) -> Result<VirtAddr, MemError> {
        self.reserve_free_aligned(len, PAGE_SIZE, kind, name)
    }

    /// [`Self::reserve_free`] with a base-address alignment (a power of
    /// two ≥ the page size) — used by huge-page attachment mapping, which
    /// needs 2 MiB-aligned virtual bases.
    pub fn reserve_free_aligned(
        &mut self,
        len: u64,
        align: u64,
        kind: RegionKind,
        name: impl Into<String>,
    ) -> Result<VirtAddr, MemError> {
        debug_assert!(align.is_power_of_two() && align >= PAGE_SIZE);
        let len = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        if len == 0 {
            return Err(MemError::NoVirtualSpace { len });
        }
        let align_up = |v: u64| (v + align - 1) & !(align - 1);
        let mut candidate = align_up(self.mmap_base.0);
        for region in self.regions.range(self.mmap_base.0..).map(|(_, r)| r) {
            if region.start.0 >= self.mmap_top.0 {
                break;
            }
            if region.start.0.saturating_sub(candidate) >= len {
                break;
            }
            candidate = candidate.max(align_up(region.end().0));
        }
        if candidate + len > self.mmap_top.0 {
            return Err(MemError::NoVirtualSpace { len });
        }
        self.insert_region(VirtAddr(candidate), len, kind, name)?;
        Ok(VirtAddr(candidate))
    }

    /// Remove the region starting exactly at `start`.
    pub fn remove_region(&mut self, start: VirtAddr) -> Result<Region, MemError> {
        self.regions
            .remove(&start.0)
            .ok_or(MemError::NoSuchRegion(start))
    }

    /// The region containing `va`.
    pub fn region_containing(&self, va: VirtAddr) -> Option<&Region> {
        self.regions
            .range(..=va.0)
            .next_back()
            .map(|(_, r)| r)
            .filter(|r| r.contains(va))
    }

    /// Grow a region in place (dynamic heap expansion, added to Kitten for
    /// XEMEM — paper §4.3). Fails if the expansion would collide with the
    /// next region.
    pub fn grow_region(&mut self, start: VirtAddr, extra: u64) -> Result<(), MemError> {
        let extra = extra.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let end = {
            let region = self
                .regions
                .get(&start.0)
                .ok_or(MemError::NoSuchRegion(start))?;
            region.end().0
        };
        if let Some((_, next)) = self.regions.range(start.0 + 1..).next() {
            if next.start.0 < end + extra {
                return Err(MemError::RegionOverlap(VirtAddr(end)));
            }
        }
        self.regions.get_mut(&start.0).expect("checked above").len += extra;
        Ok(())
    }

    /// Write bytes at `va` through the page table into physical memory,
    /// one physical access per extent the bytes span. Fails with
    /// [`MemError::Fault`] at the first unmapped or read-only page, the
    /// bytes before it written.
    pub fn write_bytes(
        &self,
        phys: &dyn PhysAccess,
        va: VirtAddr,
        data: &[u8],
    ) -> Result<(), MemError> {
        let mut remaining = data;
        let mut cur = va;
        while !remaining.is_empty() {
            let (pa, flags, span) = self
                .page_table
                .translate_span(cur)
                .ok_or(MemError::Fault(cur))?;
            if !flags.writable() {
                return Err(MemError::Fault(cur));
            }
            let take = remaining
                .len()
                .min(usize::try_from(span).unwrap_or(usize::MAX));
            phys.write(pa, &remaining[..take])?;
            remaining = &remaining[take..];
            cur = cur + take as u64;
        }
        Ok(())
    }

    /// Read bytes at `va` through the page table, one physical access per
    /// extent the bytes span.
    pub fn read_bytes(
        &self,
        phys: &dyn PhysAccess,
        va: VirtAddr,
        out: &mut [u8],
    ) -> Result<(), MemError> {
        let mut filled = 0usize;
        let mut cur = va;
        while filled < out.len() {
            let (pa, _, span) = self
                .page_table
                .translate_span(cur)
                .ok_or(MemError::Fault(cur))?;
            let take = (out.len() - filled).min(usize::try_from(span).unwrap_or(usize::MAX));
            phys.read(pa, &mut out[filled..filled + take])?;
            filled += take;
            cur = cur + take as u64;
        }
        Ok(())
    }
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

/// Re-export for convenience in kernel crates.
pub use crate::page_table::PteFlags as Flags;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_table::PteFlags;
    use crate::phys::PhysicalMemory;
    use crate::types::{PageSize, Pfn};

    #[test]
    fn fixed_regions_reject_overlap() {
        let mut asp = AddressSpace::new();
        asp.insert_region(VirtAddr(0x1000), 0x2000, RegionKind::Data, "data")
            .unwrap();
        // Overlapping tail.
        assert!(matches!(
            asp.insert_region(VirtAddr(0x2000), 0x1000, RegionKind::Heap, "heap"),
            Err(MemError::RegionOverlap(_))
        ));
        // Overlapping head.
        assert!(matches!(
            asp.insert_region(VirtAddr(0), 0x2000, RegionKind::Text, "text"),
            Err(MemError::RegionOverlap(_))
        ));
        // Adjacent is fine.
        asp.insert_region(VirtAddr(0x3000), 0x1000, RegionKind::Heap, "heap")
            .unwrap();
    }

    #[test]
    fn misaligned_regions_rejected() {
        let mut asp = AddressSpace::new();
        assert!(asp
            .insert_region(VirtAddr(0x10), 0x1000, RegionKind::Data, "d")
            .is_err());
        assert!(asp
            .insert_region(VirtAddr(0x1000), 0x10, RegionKind::Data, "d")
            .is_err());
        assert!(asp
            .insert_region(VirtAddr(0x1000), 0, RegionKind::Data, "d")
            .is_err());
    }

    #[test]
    fn reserve_free_finds_gaps() {
        let mut asp = AddressSpace::with_arena(VirtAddr(0x10000), VirtAddr(0x20000));
        let a = asp.reserve_free(0x4000, RegionKind::AnonMmap, "a").unwrap();
        assert_eq!(a, VirtAddr(0x10000));
        let b = asp.reserve_free(0x4000, RegionKind::AnonMmap, "b").unwrap();
        assert_eq!(b, VirtAddr(0x14000));
        // Free `a`, the gap is found again.
        asp.remove_region(a).unwrap();
        let c = asp.reserve_free(0x2000, RegionKind::AnonMmap, "c").unwrap();
        assert_eq!(c, VirtAddr(0x10000));
    }

    #[test]
    fn reserve_free_exhausts() {
        let mut asp = AddressSpace::with_arena(VirtAddr(0x10000), VirtAddr(0x12000));
        asp.reserve_free(0x2000, RegionKind::AnonMmap, "fill")
            .unwrap();
        assert!(matches!(
            asp.reserve_free(0x1000, RegionKind::AnonMmap, "x"),
            Err(MemError::NoVirtualSpace { .. })
        ));
    }

    #[test]
    fn region_lookup_by_address() {
        let mut asp = AddressSpace::new();
        asp.insert_region(VirtAddr(0x1000), 0x1000, RegionKind::Stack, "stack")
            .unwrap();
        assert_eq!(
            asp.region_containing(VirtAddr(0x1800)).unwrap().name,
            "stack"
        );
        assert!(asp.region_containing(VirtAddr(0x2000)).is_none());
        assert!(asp.region_containing(VirtAddr(0x800)).is_none());
    }

    #[test]
    fn grow_region_respects_neighbours() {
        let mut asp = AddressSpace::new();
        asp.insert_region(VirtAddr(0x1000), 0x1000, RegionKind::Heap, "heap")
            .unwrap();
        asp.insert_region(VirtAddr(0x4000), 0x1000, RegionKind::Stack, "stack")
            .unwrap();
        asp.grow_region(VirtAddr(0x1000), 0x2000).unwrap();
        assert_eq!(
            asp.region_containing(VirtAddr(0x2FFF)).unwrap().name,
            "heap"
        );
        // Further growth collides with the stack.
        assert!(asp.grow_region(VirtAddr(0x1000), 0x1000 + 1).is_err());
    }

    #[test]
    fn byte_access_through_mappings() {
        let phys = PhysicalMemory::new(64);
        let mut asp = AddressSpace::new();
        asp.insert_region(VirtAddr(0x1000), 0x2000, RegionKind::Data, "d")
            .unwrap();
        asp.page_table_mut()
            .map_pages(VirtAddr(0x1000), vec![Pfn(10), Pfn(3)], PteFlags::rw_user())
            .unwrap();
        // Write crossing the (discontiguous) page boundary.
        let msg = vec![0xABu8; 5000];
        asp.write_bytes(&*phys, VirtAddr(0x1800), &msg).unwrap();
        let mut back = vec![0u8; 5000];
        asp.read_bytes(&*phys, VirtAddr(0x1800), &mut back).unwrap();
        assert_eq!(back, msg);
        // And the bytes really live in frames 10 and 3.
        let mut direct = [0u8; 1];
        phys.read(Pfn(10).base() + 0x800, &mut direct).unwrap();
        assert_eq!(direct[0], 0xAB);
        phys.read(Pfn(3).base(), &mut direct).unwrap();
        assert_eq!(direct[0], 0xAB);
    }

    #[test]
    fn faults_on_unmapped_and_readonly() {
        let phys = PhysicalMemory::new(8);
        let mut asp = AddressSpace::new();
        assert_eq!(
            asp.write_bytes(&*phys, VirtAddr(0x9000), b"x"),
            Err(MemError::Fault(VirtAddr(0x9000)))
        );
        asp.page_table_mut()
            .map(VirtAddr(0), Pfn(1), PageSize::Size4K, PteFlags::ro_user())
            .unwrap();
        assert_eq!(
            asp.write_bytes(&*phys, VirtAddr(0), b"x"),
            Err(MemError::Fault(VirtAddr(0)))
        );
        let mut buf = [0u8; 1];
        asp.read_bytes(&*phys, VirtAddr(0), &mut buf).unwrap();
    }
}
