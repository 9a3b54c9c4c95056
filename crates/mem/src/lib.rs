//! # xemem-mem
//!
//! The memory-management substrate shared by every simulated kernel in the
//! XEMEM reproduction: physical frames with sparse byte-level contents,
//! per-enclave frame allocators, page tables (4 KiB / 2 MiB / 1 GiB leaves,
//! stored as extents), address-space region bookkeeping, and the PFN lists
//! that the XEMEM attachment protocol ships between enclaves.
//!
//! Everything here does *real* structural work — page tables are actually
//! walked, frames are actually allocated, bytes written through one mapping
//! are readable through every other mapping of the same frame. Virtual-time
//! charging is the caller's job (the kernel crates charge
//! [`xemem_sim::CostModel`] constants per operation performed here).

pub mod addr_space;
pub mod alloc;
pub mod error;
pub mod kernel;
pub mod page_table;
pub mod pfn_list;
pub mod phys;
pub mod slab;
pub mod types;

pub use addr_space::{AddressSpace, Region, RegionKind};
pub use alloc::FrameAllocator;
pub use error::MemError;
pub use kernel::{AttachSemantics, KernelError, KernelKind, MappingKernel, MigrateOutcome, Pid};
pub use page_table::{PageTable, PteFlags};
pub use pfn_list::PfnList;
pub use phys::{FrameMove, PhysAccess, PhysicalMemory};
pub use slab::{SlabLayout, SLOT_HEADER_BYTES};
pub use types::{PageSize, Pfn, PhysAddr, VirtAddr, PAGE_SHIFT, PAGE_SIZE};
