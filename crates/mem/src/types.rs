//! Address and frame-number newtypes.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

/// Base page shift: 4 KiB frames.
pub const PAGE_SHIFT: u32 = 12;
/// Base page size in bytes (4 KiB).
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// A physical frame number (index of a 4 KiB frame in physical memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Pfn(pub u64);

impl Pfn {
    /// The base physical address of this frame.
    #[inline]
    pub fn base(self) -> PhysAddr {
        PhysAddr(self.0 << PAGE_SHIFT)
    }

    /// The frame `n` frames after this one.
    #[inline]
    pub fn offset(self, n: u64) -> Pfn {
        Pfn(self.0 + n)
    }
}

impl fmt::Display for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn:{:#x}", self.0)
    }
}

/// A physical byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// The frame containing this address.
    #[inline]
    pub fn pfn(self) -> Pfn {
        Pfn(self.0 >> PAGE_SHIFT)
    }

    /// Byte offset within the containing frame.
    #[inline]
    pub fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }
}

impl Add<u64> for PhysAddr {
    type Output = PhysAddr;
    #[inline]
    fn add(self, rhs: u64) -> PhysAddr {
        PhysAddr(self.0 + rhs)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pa:{:#x}", self.0)
    }
}

/// A virtual byte address within some address space.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// Byte offset within the containing page.
    #[inline]
    pub fn page_offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// The base address of the containing 4 KiB page.
    #[inline]
    pub fn page_base(self) -> VirtAddr {
        VirtAddr(self.0 & !(PAGE_SIZE - 1))
    }

    /// True when aligned to the given page size.
    #[inline]
    pub fn is_aligned(self, size: PageSize) -> bool {
        self.0 & (size.bytes() - 1) == 0
    }

    /// The first page of `[self, self + len)` and the number of 4 KiB
    /// pages the range touches.
    #[inline]
    pub fn page_span(self, len: u64) -> (VirtAddr, u64) {
        (self.page_base(), pages_for(self.page_offset() + len))
    }
}

impl Add<u64> for VirtAddr {
    type Output = VirtAddr;
    #[inline]
    fn add(self, rhs: u64) -> VirtAddr {
        VirtAddr(self.0 + rhs)
    }
}

impl Sub<VirtAddr> for VirtAddr {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: VirtAddr) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "va:{:#x}", self.0)
    }
}

/// Hardware page sizes supported by the simulated MMU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PageSize {
    /// 4 KiB base page (leaf at level 0).
    Size4K,
    /// 2 MiB large page (leaf at level 1).
    Size2M,
    /// 1 GiB huge page (leaf at level 2).
    Size1G,
}

impl PageSize {
    /// Size in bytes.
    #[inline]
    pub const fn bytes(self) -> u64 {
        match self {
            PageSize::Size4K => 1 << 12,
            PageSize::Size2M => 1 << 21,
            PageSize::Size1G => 1 << 30,
        }
    }

    /// Number of 4 KiB frames covered.
    #[inline]
    pub const fn frames(self) -> u64 {
        self.bytes() >> PAGE_SHIFT
    }
}

/// Round `len` up to a whole number of 4 KiB pages.
#[inline]
pub fn pages_for(len: u64) -> u64 {
    len.div_ceil(PAGE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pfn_phys_round_trip() {
        let pfn = Pfn(0x1234);
        assert_eq!(pfn.base().0, 0x1234 << 12);
        assert_eq!(pfn.base().pfn(), pfn);
        assert_eq!((pfn.base() + 17).page_offset(), 17);
        assert_eq!(pfn.offset(3), Pfn(0x1237));
    }

    #[test]
    fn virt_addr_splits_into_page_and_offset() {
        let va = VirtAddr((5u64 << 39) | (6 << 30) | (7 << 21) | (8 << 12) | 9);
        assert_eq!(va.page_offset(), 9);
        assert_eq!(va.page_base().page_offset(), 0);
        assert_eq!(VirtAddr(0x1fff).page_span(2), (VirtAddr(0x1000), 2));
        assert_eq!(VirtAddr(0x2000).page_span(0), (VirtAddr(0x2000), 0));
    }

    #[test]
    fn alignment_checks() {
        assert!(VirtAddr(0x200000).is_aligned(PageSize::Size2M));
        assert!(!VirtAddr(0x201000).is_aligned(PageSize::Size2M));
        assert!(VirtAddr(0x201000).is_aligned(PageSize::Size4K));
        assert!(VirtAddr(1 << 30).is_aligned(PageSize::Size1G));
    }

    #[test]
    fn page_size_constants() {
        assert_eq!(PageSize::Size4K.bytes(), 4096);
        assert_eq!(PageSize::Size2M.frames(), 512);
        assert_eq!(PageSize::Size1G.frames(), 512 * 512);
    }

    #[test]
    fn pages_for_rounds_up() {
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(4096), 1);
        assert_eq!(pages_for(4097), 2);
    }
}
