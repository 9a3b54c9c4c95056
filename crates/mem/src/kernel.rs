//! The kernel-facing memory-mapping interface (paper §4.3, "OS Memory
//! Mapping Routines").
//!
//! XEMEM requires each enclave OS to perform two operations locally, using
//! whatever mechanisms its design dictates (paper §3.4): *generate* PFN
//! lists for exported regions by walking page tables, and *map* remote PFN
//! lists into local process address spaces. [`MappingKernel`] captures that
//! contract plus the minimal process-lifecycle surface the experiments
//! need. The Kitten LWK, the Linux-like FWK, and (transitively, through
//! its guest kernel) the Palacios VMM all implement it, which is what lets
//! the XEMEM protocol engine in the core crate treat enclaves uniformly.
//!
//! All operations return [`Costed`] values: real structural work is done
//! immediately, and the virtual-time cost is returned for the caller to
//! account on the enclave's timeline.
//!
//! Kernels differ in policy, not mechanism (paper §4.3: Kitten maps
//! statically, Linux demand-pages). [`KernelMemory`] holds, once, every
//! routine whose body does not depend on the policy: tier migration and
//! attachment remap (each one in-place [`crate::PageTable::remap`]),
//! frame retention and return, the release at exit, and the tier
//! queries. A kernel adds only its preconditions and cost constants.
//!
//! What a process owns is what its own memory maps
//! ([`AddressSpace::own_frames`]): a migration re-points the table and
//! the ownership with it, and retention unmaps what it lends.
//!
//! A migration costs the host a handful of searches, whatever the number
//! of pages: one pass over the range's extents before anything is
//! allocated ([`crate::PageTable::walk_remap`]), one allocation of new
//! runs, one block move per run of materialized contents, one in-place
//! remap, and a free that needs no sort when the replaced frames ascend.

use crate::addr_space::{AddressSpace, RegionKind};
use crate::alloc::FrameAllocator;
use crate::error::MemError;
use crate::page_table::{Frames, RemapWalk};
use crate::pfn_list::PfnList;
use crate::phys::{FrameMove, PhysAccess};
use crate::types::{VirtAddr, PAGE_SIZE};
use std::fmt;
use std::sync::Arc;
use xemem_sim::{CostModel, Costed, MemTier, SimDuration};

/// What a [`MappingKernel::migrate_region`] call moved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrateOutcome {
    /// The frames the region used to occupy, in region order.
    pub old: PfnList,
    /// The freshly allocated destination-tier frames now mapped, in the
    /// same region order.
    pub new: PfnList,
    /// Pages moved (`old` and `new` both cover exactly this many).
    pub pages: u64,
    /// Source classification of the moved pages: `moved_by_tier[t]`
    /// pages came out of tier `t` (indexed by [`MemTier::index`]). The
    /// protocol layer prices the data copy from this.
    pub moved_by_tier: [u64; MemTier::COUNT],
}

/// A process identifier, unique within one enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

/// How an attachment's pages are installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttachSemantics {
    /// Install every PTE at attach time (`remap_pfn_range` — the
    /// cross-enclave path).
    #[default]
    Eager,
    /// Reserve the range and install PTEs on first touch (Linux
    /// single-OS XEMEM semantics; the source of the Fig. 8(b) overhead).
    Lazy,
}

/// Which kernel personality an enclave runs — used by the protocol layer
/// for reporting and by topology builders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Kitten-like lightweight kernel.
    Lwk,
    /// Linux-like full-weight kernel.
    Fwk,
}

/// Errors from kernel operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// Underlying memory-management failure.
    Mem(MemError),
    /// Unknown process.
    NoSuchProcess(Pid),
    /// The kernel cannot perform the operation (e.g. growing a statically
    /// mapped Kitten region before dynamic-heap support).
    Unsupported(&'static str),
}

impl From<MemError> for KernelError {
    fn from(e: MemError) -> Self {
        KernelError::Mem(e)
    }
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Mem(e) => write!(f, "memory error: {e}"),
            KernelError::NoSuchProcess(pid) => write!(f, "no such process: {pid}"),
            KernelError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// The per-enclave OS memory-mapping routines required by XEMEM.
pub trait MappingKernel: Send {
    /// Which personality this kernel is.
    fn kind(&self) -> KernelKind;

    /// Create a process with `mem_bytes` of private memory. Kitten maps
    /// everything statically here; the FWK merely creates regions.
    fn spawn(&mut self, mem_bytes: u64) -> Result<Costed<Pid>, KernelError>;

    /// Destroy a process, freeing its frames.
    fn exit(&mut self, pid: Pid) -> Result<Costed<()>, KernelError>;

    /// Allocate a page-aligned user buffer of `len` bytes in the process
    /// (the region an application will export). Returns its base address.
    fn alloc_buffer(&mut self, pid: Pid, len: u64) -> Result<Costed<VirtAddr>, KernelError>;

    /// Ensure every page of `[va, va + len)` is resident (the state a
    /// buffer is in after the application has filled it — the paper's
    /// §4.3 footnote notes exported pages are generally already
    /// allocated). Returns the number of pages newly faulted in. A no-op
    /// on kernels without demand paging.
    fn populate(&mut self, pid: Pid, va: VirtAddr, len: u64) -> Result<Costed<u64>, KernelError> {
        let _ = (pid, va, len);
        Ok(Costed::new(0, xemem_sim::SimDuration::ZERO))
    }

    /// Export-side: pin (if required) and walk the page tables for
    /// `[va, va + len)`, producing the PFN list shipped to the attaching
    /// enclave.
    fn export_walk(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        len: u64,
    ) -> Result<Costed<PfnList>, KernelError>;

    /// Attach-side: map a PFN list into the process with the given
    /// protection and return the base of the new mapping. `prot` carries
    /// the access mode the permission grant allows (XPMEM supports
    /// read-only grants).
    fn attach_map(
        &mut self,
        pid: Pid,
        pfns: &PfnList,
        semantics: AttachSemantics,
        prot: crate::page_table::PteFlags,
    ) -> Result<Costed<VirtAddr>, KernelError>;

    /// Unmap a previously attached region, returning the frames it covered.
    fn detach(&mut self, pid: Pid, va: VirtAddr) -> Result<Costed<PfnList>, KernelError>;

    /// Unmap the resident pages of `pid`'s own memory in `[va, va + len)`
    /// and return their frames: the process no longer owns them. Used by
    /// the teardown protocol to quarantine frames that remote enclaves
    /// still map: after retention, a later `exit` of the process will no
    /// longer free them, and the caller becomes responsible for handing
    /// them back through [`MappingKernel::return_frames`] once no remote
    /// enclave maps them. The parts of the range in an attachment or a
    /// SMARTMAP window map frames another process owns, and lend none.
    fn retain_frames(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        len: u64,
    ) -> Result<Costed<PfnList>, KernelError>;

    /// Hand frames previously taken out of process ownership by
    /// [`MappingKernel::retain_frames`] back to this kernel's allocator.
    fn return_frames(&mut self, frames: &PfnList) -> Result<(), KernelError>;

    /// Move the resident pages of `[va, va + len)` onto frames from
    /// `dst_tier`, remapping the process's own page tables in place. The
    /// returned [`MigrateOutcome`] reports the old and new frame lists so
    /// the protocol layer can re-point remote attachments and price the
    /// data copy. An unconfigured destination tier is
    /// [`KernelError::Unsupported`].
    fn migrate_region(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        len: u64,
        dst_tier: MemTier,
    ) -> Result<Costed<MigrateOutcome>, KernelError>;

    /// Re-point an existing attachment at `va` in `pid` to a new frame
    /// list (same length and layout as the original), after the owning
    /// enclave migrated the underlying segment. Returns the number of
    /// pages remapped; a list of another length is
    /// [`KernelError::Unsupported`].
    fn remap_attached(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        new: &PfnList,
    ) -> Result<Costed<u64>, KernelError>;

    /// Free frames available in the given tier of this kernel's
    /// allocator, or `None` if the tier is not configured at all.
    fn tier_free_frames(&self, tier: MemTier) -> Option<u64>;

    /// Number of free physical frames in this kernel's allocator. Used by
    /// leak detection in tests and by capacity probes.
    fn free_frame_count(&self) -> u64;

    /// Write process memory (through its page table, faulting lazily where
    /// the kernel's semantics say so).
    fn write(&mut self, pid: Pid, va: VirtAddr, data: &[u8]) -> Result<Costed<()>, KernelError>;

    /// Read process memory.
    fn read(&mut self, pid: Pid, va: VirtAddr, out: &mut [u8]) -> Result<Costed<()>, KernelError>;
}

/// The mechanism under every kernel's policy: its cost model, the physical
/// view its page tables point into, and the frame allocator over its
/// partition. The routines here work on that and on one process's
/// address space, whose own memory maps the frames the process owns.
pub struct KernelMemory {
    /// Virtual-time constants.
    pub cost: CostModel,
    /// The physical memory the page tables point into.
    pub phys: Arc<dyn PhysAccess>,
    /// The frames of this kernel's partition, by tier.
    pub alloc: FrameAllocator,
}

impl KernelMemory {
    /// Free `frames` back to the allocator and drop their contents — a
    /// process's own frames at `exit`, retained frames on return.
    pub fn release(&mut self, frames: &PfnList) -> Result<(), KernelError> {
        self.alloc.free_list(frames)?;
        self.phys.discard(frames)?;
        Ok(())
    }

    /// [`MappingKernel::retain_frames`] in a process with address space
    /// `asp`: the resident pages of the range's own memory are unmapped
    /// (holes own none) and their frames returned. The work is run-wise;
    /// the charge covers the per-page scan the real kernel does.
    pub fn retain(&self, asp: &mut AddressSpace, va: VirtAddr, len: u64) -> Costed<PfnList> {
        let (first, pages) = va.page_span(len);
        Costed::new(asp.unmap_own(first, pages), self.cost.walk(pages))
    }

    /// [`MappingKernel::migrate_region`]. `find(first, pages)` and
    /// `check` are the kernel's part: `find` looks the process up, checks
    /// its precondition on the page range and returns the process's
    /// address space; `check` refuses what the one pass over the range
    /// ([`crate::PageTable::walk_remap`]) finds, if the kernel's
    /// precondition says so. Only the resident pages move — a hole owns
    /// no frame — onto new frames taken in address order, and the table
    /// is re-pointed in place, which moves the ownership with it.
    /// Refusals come in order
    /// (destination tier, relocation, `find`, `check`, a large leaf the
    /// range cuts, the allocator's `OutOfFrames`), all before any frame
    /// is allocated or moved.
    pub fn migrate<'p, F, C>(
        &mut self,
        va: VirtAddr,
        len: u64,
        dst: MemTier,
        find: F,
        check: C,
    ) -> Result<Costed<MigrateOutcome>, KernelError>
    where
        F: FnOnce(VirtAddr, u64) -> Result<&'p mut AddressSpace, KernelError>,
        C: FnOnce(&RemapWalk) -> Result<(), KernelError>,
    {
        if !self.alloc.has_tier(dst) {
            return Err(KernelError::Unsupported("destination tier not configured"));
        }
        if !self.phys.can_relocate() {
            return Err(KernelError::Unsupported("physical view cannot relocate"));
        }
        let (first, pages) = va.page_span(len);
        let asp = find(first, pages)?;
        let walk = asp.page_table().walk_remap(first, pages);
        check(&walk)?;
        (walk.whole)
            .map_err(|_| KernelError::Unsupported("range starts or ends inside a large page"))?;
        let old = walk.resident;
        if old.is_empty() {
            return Ok(Costed::new(MigrateOutcome::default(), SimDuration::ZERO));
        }
        let new = self.alloc.alloc_pages_in(dst, old.pages())?;
        self.phys.relocate_frames(&FrameMove::pair(&old, &new))?;
        (asp.page_table_mut()).remap(first, pages, &new, Frames::Packed)?;
        self.alloc.free_list(&old)?;
        let extents = (old.run_count() + new.run_count()) as u64;
        let cost = self.cost.walk(pages) + self.cost.migrate_remap(extents, old.pages());
        let outcome = MigrateOutcome {
            pages: old.pages(),
            moved_by_tier: self.alloc.pages_by_tier(&old),
            old,
            new,
        };
        Ok(Costed::new(outcome, cost))
    }

    /// [`MappingKernel::remap_attached`] in address space `asp`: the
    /// resident pages of the attachment holding `va` are re-pointed onto
    /// the frames of `new` at their own offsets. Returns the attachment's
    /// start with the pages re-pointed.
    pub fn remap_attached(
        &self,
        asp: &mut AddressSpace,
        va: VirtAddr,
        new: &PfnList,
    ) -> Result<(VirtAddr, Costed<u64>), KernelError> {
        let region = asp
            .region_containing(va)
            .filter(|r| r.kind == RegionKind::XememAttach)
            .ok_or(MemError::NoSuchRegion(va))?;
        let (start, pages) = (region.start, region.len / PAGE_SIZE);
        if new.pages() != pages {
            return Err(KernelError::Unsupported("remap length mismatch"));
        }
        let remapped = (asp.page_table_mut()).remap(start, pages, new, Frames::AtOffset)?;
        let cost = self.cost.migrate_remap(new.run_count() as u64, remapped);
        Ok((start, Costed::new(remapped, cost)))
    }

    /// [`MappingKernel::tier_free_frames`].
    pub fn tier_free_frames(&self, tier: MemTier) -> Option<u64> {
        self.alloc
            .has_tier(tier)
            .then(|| self.alloc.free_frames_in(tier))
    }
}
