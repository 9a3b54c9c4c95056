//! # xemem-fwk
//!
//! A simulator of a Linux-like full-weight kernel (FWK), the "feature-rich
//! operating environment" side of the paper's enclave taxonomy. The
//! behaviours that matter to the paper are modelled structurally:
//!
//! * **Demand paging** — regions are created unmapped; first touch faults
//!   a frame in at `fwk_fault_ns`. This is the "page faulting semantics"
//!   that make recurring single-OS XEMEM attachments expensive in
//!   Fig. 8(b).
//! * **`get_user_pages` pinning** — exports fault in and pin the region
//!   before the page-table walk (paper §4.3, including the footnote that
//!   pages are usually already present).
//! * **`vm_mmap` + `remap_pfn_range`** — remote attachments reserve a
//!   virtual range and eagerly install one PTE per remote frame; this
//!   per-page cost is half of the Fig. 5 native-attach pipeline.
//! * **Background noise** — timer ticks and heavy-tailed daemon activity,
//!   the cause of the Linux-only variance in Figs. 8–9, which the
//!   workloads draw from `xemem_sim::noise::CompositeNoise::fwk`.
//!
//! Like the Kitten simulator, all operations do real page-table work and
//! return virtual-time costs per [`xemem_mem::MappingKernel`]. Tier
//! migration, attachment remap and frame retention, return and release
//! run through [`KernelMemory`], shared with Kitten; the FWK adds its
//! precondition (a migrated range lies in one region of the process's
//! own memory), the lazy attachment's backing list that a remap
//! re-points, and its own cost constants.

use std::sync::Arc;

use xemem_mem::addr_space::{AddressSpace, RegionKind};
use xemem_mem::kernel::{AttachSemantics, KernelError, KernelKind, MappingKernel, Pid};
use xemem_mem::{
    FrameAllocator, KernelMemory, MemError, MigrateOutcome, PfnList, PhysAccess, PteFlags,
    RemapWalk, VirtAddr, PAGE_SIZE,
};
use xemem_sim::{CostModel, Costed, FxHashMap, MemTier, SimDuration};

/// What backs a VMA's pages when they fault in.
#[derive(Debug, Clone)]
enum Backing {
    /// Anonymous memory: fault allocates a fresh frame.
    Anon,
    /// A lazily attached remote PFN list: fault maps the corresponding
    /// remote frame (single-OS XEMEM attachment semantics).
    Remote(PfnList),
}

/// What backs the region of the same start, and at what protection.
#[derive(Debug, Clone)]
struct Vma {
    backing: Backing,
    /// Protection for pages faulted into this VMA.
    prot: PteFlags,
}

/// A process; its page table is the one record of the frames it owns.
struct Proc {
    asp: AddressSpace,
    /// One VMA per region, keyed by the region's start.
    vmas: FxHashMap<u64, Vma>,
}

/// The Linux-like full-weight kernel for one enclave.
pub struct Fwk {
    mem: KernelMemory,
    procs: FxHashMap<Pid, Proc>,
    next_pid: u32,
    /// Observability hooks (metrics only — all virtual-time accounting
    /// stays with the caller).
    tracer: xemem_trace::TraceHandle,
    /// Future-work optimization (not in the paper's implementation): map
    /// eager attachments with 2 MiB leaves wherever the PFN list is
    /// contiguous and co-aligned, collapsing the dominant per-page
    /// `remap_pfn_range` cost. Exercised by `ablation_hugepages`.
    hugepage_attach: bool,
}

impl Fwk {
    /// Boot an FWK instance over the given physical view and frame range.
    pub fn new(cost: CostModel, phys: Arc<dyn PhysAccess>, alloc: FrameAllocator) -> Self {
        Fwk {
            mem: KernelMemory { cost, phys, alloc },
            procs: FxHashMap::default(),
            next_pid: 1,
            tracer: xemem_trace::TraceHandle::disabled(),
            hugepage_attach: false,
        }
    }

    /// Enable/disable huge-page attachment mapping (see the field docs).
    pub fn set_hugepage_attach(&mut self, on: bool) {
        self.hugepage_attach = on;
    }

    /// Attach an observability handle; demand-fault activity is then
    /// counted in [`xemem_trace::Counter::FaultsServed`] and its virtual
    /// latency recorded in [`xemem_trace::Hist::FaultInNs`].
    pub fn set_tracer(&mut self, tracer: xemem_trace::TraceHandle) {
        self.tracer = tracer;
    }

    fn proc_mut(&mut self, pid: Pid) -> Result<&mut Proc, KernelError> {
        self.procs
            .get_mut(&pid)
            .ok_or(KernelError::NoSuchProcess(pid))
    }

    fn create_vma(
        &mut self,
        pid: Pid,
        len: u64,
        kind: RegionKind,
        backing: Backing,
        name: &str,
        prot: PteFlags,
    ) -> Result<VirtAddr, KernelError> {
        let proc = self.proc_mut(pid)?;
        let va = proc.asp.reserve_free(len, kind, name)?;
        proc.vmas.insert(va.0, Vma { backing, prot });
        Ok(va)
    }
}

impl MappingKernel for Fwk {
    fn kind(&self) -> KernelKind {
        KernelKind::Fwk
    }

    fn spawn(&mut self, mem_bytes: u64) -> Result<Costed<Pid>, KernelError> {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        self.procs.insert(
            pid,
            Proc {
                asp: AddressSpace::new(),
                vmas: FxHashMap::default(),
            },
        );
        // Regions exist immediately; pages fault in on demand.
        self.create_vma(
            pid,
            mem_bytes.max(PAGE_SIZE),
            RegionKind::Heap,
            Backing::Anon,
            "heap",
            PteFlags::rw_user(),
        )?;
        self.create_vma(
            pid,
            8 << 20,
            RegionKind::Stack,
            Backing::Anon,
            "stack",
            PteFlags::rw_user(),
        )?;
        Ok(Costed::new(pid, SimDuration::from_micros(60)))
    }

    fn exit(&mut self, pid: Pid) -> Result<Costed<()>, KernelError> {
        let proc = self
            .procs
            .remove(&pid)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        self.mem.release(&proc.asp.own_frames())?;
        Ok(Costed::new((), SimDuration::from_micros(40)))
    }

    fn alloc_buffer(&mut self, pid: Pid, len: u64) -> Result<Costed<VirtAddr>, KernelError> {
        let va = self.create_vma(
            pid,
            len,
            RegionKind::AnonMmap,
            Backing::Anon,
            "buffer",
            PteFlags::rw_user(),
        )?;
        Ok(Costed::new(
            va,
            SimDuration::from_nanos(self.mem.cost.fwk_vm_mmap_ns),
        ))
    }

    /// Fault in every non-resident page of `[va, va+len)` in `pid`.
    /// Returns the number of pages newly faulted and the virtual cost.
    ///
    /// Structurally O(extents): holes are discovered as runs and each run
    /// segment (bounded by its covering VMA) is installed with one batched
    /// call. The virtual charge stays per page faulted.
    fn populate(&mut self, pid: Pid, va: VirtAddr, len: u64) -> Result<Costed<u64>, KernelError> {
        let Fwk {
            mem, procs, tracer, ..
        } = self;
        let proc = procs.get_mut(&pid).ok_or(KernelError::NoSuchProcess(pid))?;
        let (first, pages) = va.page_span(len);
        let holes = proc.asp.page_table().find_unmapped(first, pages);
        let mut faulted = 0u64;
        // Pages faulted onto this kernel's own frames, by the tier the
        // frame came from — first-touch tier surcharges (zero on flat
        // DRAM). Remote-backed faults are priced by the protocol layer,
        // which knows the exporter's tier placement.
        let mut touched = [0u64; MemTier::COUNT];
        for (off, run_pages) in holes {
            let mut page = first + off * PAGE_SIZE;
            let mut remaining = run_pages;
            while remaining > 0 {
                // The VMA covering this stretch bounds one batch.
                let region = proc
                    .asp
                    .region_containing(page)
                    .ok_or(MemError::Fault(page))?;
                let (vma_start, vma_end) = (region.start, region.end());
                let vma = proc.vmas.get(&vma_start.0).ok_or(MemError::Fault(page))?;
                let batch = remaining.min((vma_end.0 - page.0) / PAGE_SIZE);
                match &vma.backing {
                    Backing::Anon => {
                        // The frames `batch` single-frame faults would
                        // take, in VA order, then one install. A shortfall
                        // maps what it got and fails as the fault that
                        // found no frame would.
                        let frames = mem.alloc.alloc_upto(batch);
                        let pt = proc.asp.page_table_mut();
                        pt.map_list(page, &frames, vma.prot)?;
                        if frames.pages() < batch {
                            return Err(MemError::OutOfFrames {
                                requested: 1,
                                available: 0,
                            }
                            .into());
                        }
                        let by_tier = mem.alloc.pages_by_tier(&frames);
                        for t in MemTier::ALL {
                            touched[t.index()] += by_tier[t.index()];
                        }
                    }
                    Backing::Remote(list) => {
                        let idx = (page.0 - vma_start.0) / PAGE_SIZE;
                        let avail = list.pages().saturating_sub(idx).min(batch);
                        if avail > 0 {
                            let seg = list.slice(idx, avail).expect("bounds checked");
                            let pt = proc.asp.page_table_mut();
                            pt.map_list(page, &seg, vma.prot)?;
                        }
                        if avail < batch {
                            // The remote list ends inside the VMA.
                            return Err(MemError::Fault(page + avail * PAGE_SIZE).into());
                        }
                    }
                }
                faulted += batch;
                page = page + batch * PAGE_SIZE;
                remaining -= batch;
            }
        }
        let mut cost = mem.cost.fwk_fault_in(faulted);
        for t in MemTier::ALL {
            cost += mem.cost.tier_touch_surcharge(t, touched[t.index()]);
        }
        if faulted > 0 {
            tracer.count(xemem_trace::Counter::FaultsServed, faulted);
            tracer.observe(xemem_trace::Hist::FaultInNs, cost.as_nanos());
        }
        Ok(Costed::new(faulted, cost))
    }

    fn export_walk(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        len: u64,
    ) -> Result<Costed<PfnList>, KernelError> {
        // get_user_pages: fault in whatever is missing (usually nothing —
        // see the paper's footnote) and pin, then walk.
        let populate = self.populate(pid, va, len)?;
        let proc = self
            .procs
            .get(&pid)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        let (list, stats) = proc.asp.page_table().walk_range(va, len)?;
        let cost = populate.cost + self.mem.cost.pin_and_walk(stats.pages);
        Ok(Costed::new(list, cost))
    }

    fn attach_map(
        &mut self,
        pid: Pid,
        pfns: &PfnList,
        semantics: AttachSemantics,
        prot: PteFlags,
    ) -> Result<Costed<VirtAddr>, KernelError> {
        let len = pfns.pages() * PAGE_SIZE;
        match semantics {
            AttachSemantics::Eager if self.hugepage_attach => {
                // Future-work path: 2 MiB-aligned reservation, huge-page
                // leaves over co-aligned contiguous runs, 4 KiB fill-in
                // elsewhere. One `remap` charge per *leaf* written.
                let proc = self.proc_mut(pid)?;
                let va = proc.asp.reserve_free_aligned(
                    len,
                    xemem_mem::PageSize::Size2M.bytes(),
                    RegionKind::XememAttach,
                    "xemem-huge",
                )?;
                let backing = Backing::Remote(pfns.clone());
                proc.vmas.insert(va.0, Vma { backing, prot });
                let (mut written, mut at) = (0, va);
                for run in pfns.runs() {
                    let pt = proc.asp.page_table_mut();
                    written += pt.map_extent_large(at, run.start, run.len, prot)?;
                    at = at + run.len * PAGE_SIZE;
                }
                Ok(Costed::new(va, self.mem.cost.fwk_eager_attach(written)))
            }
            AttachSemantics::Eager => {
                // vm_mmap + remap_pfn_range: every PTE installed now.
                let va = self.create_vma(
                    pid,
                    len,
                    RegionKind::XememAttach,
                    Backing::Remote(pfns.clone()),
                    "xemem",
                    prot,
                )?;
                let proc = self.proc_mut(pid)?;
                let written = proc.asp.page_table_mut().map_list(va, pfns, prot)?;
                Ok(Costed::new(va, self.mem.cost.fwk_eager_attach(written)))
            }
            AttachSemantics::Lazy => {
                // Single-OS XEMEM attachment: reserve only; pages fault in
                // on first touch (the Fig. 8(b) overhead).
                let va = self.create_vma(
                    pid,
                    len,
                    RegionKind::XememAttach,
                    Backing::Remote(pfns.clone()),
                    "xemem-lazy",
                    prot,
                )?;
                Ok(Costed::new(
                    va,
                    SimDuration::from_nanos(self.mem.cost.fwk_vm_mmap_ns),
                ))
            }
        }
    }

    fn detach(&mut self, pid: Pid, va: VirtAddr) -> Result<Costed<PfnList>, KernelError> {
        let proc = self.proc_mut(pid)?;
        let region = proc
            .asp
            .region_containing(va)
            .filter(|r| r.kind == RegionKind::XememAttach)
            .ok_or(MemError::NoSuchRegion(va))?;
        let (start, len) = (region.start, region.len);
        let vma = proc
            .vmas
            .remove(&start.0)
            .ok_or(MemError::NoSuchRegion(start))?;
        // Unmap whatever is resident (everything for eager, the touched
        // subset for lazy), run-wise; a 2 MiB leaf clears — and is
        // charged — once, exactly like the per-page loop it replaces.
        let (_, cleared) = proc
            .asp
            .page_table_mut()
            .unmap_resident(start, len / PAGE_SIZE);
        proc.asp.remove_region(start)?;
        let list = match vma.backing {
            Backing::Remote(list) => list,
            Backing::Anon => PfnList::new(),
        };
        Ok(Costed::new(list, self.mem.cost.fwk_detach(cleared)))
    }

    fn retain_frames(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        len: u64,
    ) -> Result<Costed<PfnList>, KernelError> {
        let proc = self
            .procs
            .get_mut(&pid)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        Ok(self.mem.retain(&mut proc.asp, va, len))
    }

    fn return_frames(&mut self, frames: &PfnList) -> Result<Costed<()>, KernelError> {
        self.mem.return_frames(frames)
    }

    fn migrate_region(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        len: u64,
        dst_tier: MemTier,
    ) -> Result<Costed<MigrateOutcome>, KernelError> {
        let procs = &mut self.procs;
        // Demand paging leaves holes, which own no frame and stay holes.
        let holes = |_: &RemapWalk| Ok(());
        self.mem.migrate(
            va,
            len,
            dst_tier,
            move |first, pages| {
                let proc = procs.get_mut(&pid).ok_or(KernelError::NoSuchProcess(pid))?;
                // One region of the owner's own memory holds the range.
                let region = proc
                    .asp
                    .region_containing(first)
                    .filter(|r| first + pages * PAGE_SIZE <= r.end())
                    .ok_or(MemError::Fault(first))?;
                if !region.kind.is_own() {
                    return Err(KernelError::Unsupported(
                        "migrating an attachment (owner-side only)",
                    ));
                }
                Ok(&mut proc.asp)
            },
            holes,
        )
    }

    fn remap_attached(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        new: &PfnList,
    ) -> Result<Costed<u64>, KernelError> {
        let proc = self
            .procs
            .get_mut(&pid)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        let (start, remapped) = self.mem.remap_attached(&mut proc.asp, va, new)?;
        // Future faults must resolve to the new frames (lazy attachments
        // fault positionally out of the backing list).
        let vma = proc
            .vmas
            .get_mut(&start.0)
            .ok_or(MemError::NoSuchRegion(start))?;
        vma.backing = Backing::Remote(new.clone());
        Ok(remapped)
    }

    fn tier_free_frames(&self, tier: MemTier) -> Option<u64> {
        self.mem.tier_free_frames(tier)
    }

    fn free_frame_count(&self) -> u64 {
        self.mem.alloc.free_frames()
    }

    fn write(&mut self, pid: Pid, va: VirtAddr, data: &[u8]) -> Result<Costed<()>, KernelError> {
        let populate = self.populate(pid, va, data.len() as u64)?;
        let proc = self
            .procs
            .get(&pid)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        proc.asp.write_bytes(&*self.mem.phys, va, data)?;
        let home = self.mem.alloc.home_tier();
        let stream = self.mem.cost.tier_stream_write(home, data.len() as u64);
        Ok(Costed::new((), populate.cost + stream))
    }

    fn read(&mut self, pid: Pid, va: VirtAddr, out: &mut [u8]) -> Result<Costed<()>, KernelError> {
        let populate = self.populate(pid, va, out.len() as u64)?;
        let proc = self
            .procs
            .get(&pid)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        proc.asp.read_bytes(&*self.mem.phys, va, out)?;
        let home = self.mem.alloc.home_tier();
        let stream = self.mem.cost.tier_stream_read(home, out.len() as u64);
        Ok(Costed::new((), populate.cost + stream))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xemem_mem::{Pfn, PhysicalMemory};
    use xemem_trace::{Counter, TraceHandle};

    /// An FWK with an enabled tracer, so [`faults`] can read it.
    fn boot(frames: u64) -> (Fwk, Arc<PhysicalMemory>) {
        let phys = PhysicalMemory::new(frames);
        let alloc = FrameAllocator::new(Pfn(0), frames);
        let mut f = Fwk::new(CostModel::default(), phys.clone(), alloc);
        f.set_tracer(TraceHandle::enabled());
        (f, phys)
    }

    /// Demand faults served so far.
    fn faults(f: &Fwk) -> u64 {
        f.tracer.counter(Counter::FaultsServed)
    }

    #[test]
    fn spawn_creates_unmapped_regions() {
        let (mut f, _) = boot(1 << 12);
        let before = f.free_frame_count();
        let _pid = f.spawn(4 << 20).unwrap().value;
        // Demand paging: nothing allocated yet.
        assert_eq!(f.free_frame_count(), before);
    }

    #[test]
    fn first_touch_faults_pages_in() {
        let (mut f, _) = boot(1 << 12);
        let pid = f.spawn(1 << 20).unwrap().value;
        let va = f.alloc_buffer(pid, 8192).unwrap().value;
        assert_eq!(faults(&f), 0);
        let w = f.write(pid, va, &[7u8; 8192]).unwrap();
        assert_eq!(faults(&f), 2);
        // Second touch does not fault again and is cheaper.
        let w2 = f.write(pid, va, &[8u8; 8192]).unwrap();
        assert_eq!(faults(&f), 2);
        assert!(w2.cost < w.cost);
    }

    #[test]
    fn export_walk_pins_and_walks() {
        let (mut f, _) = boot(1 << 12);
        let pid = f.spawn(1 << 20).unwrap().value;
        let va = f.alloc_buffer(pid, 16 * 4096).unwrap().value;
        // Untouched region: get_user_pages faults everything in.
        let walked = f.export_walk(pid, va, 16 * 4096).unwrap();
        assert_eq!(walked.value.pages(), 16);
        assert_eq!(faults(&f), 16);
        // A second export of the same range is fault-free and cheaper.
        let walked2 = f.export_walk(pid, va, 16 * 4096).unwrap();
        assert!(walked2.cost < walked.cost);
    }

    #[test]
    fn eager_attach_installs_all_ptes() {
        let (mut f, phys) = boot(1 << 12);
        let pid = f.spawn(1 << 20).unwrap().value;
        let remote = PfnList::from_pages((3000..3008).map(Pfn));
        phys.write(Pfn(3007).base(), b"tail").unwrap();
        let attached = f
            .attach_map(pid, &remote, AttachSemantics::Eager, PteFlags::rw_user())
            .unwrap();
        // Reading must not fault: PTEs are present.
        let before = faults(&f);
        let mut buf = [0u8; 4];
        f.read(pid, attached.value + 7 * 4096, &mut buf).unwrap();
        assert_eq!(&buf, b"tail");
        assert_eq!(faults(&f), before);
        // Per-page cost near fwk_remap_page_ns.
        let per_page = (attached.cost.as_nanos() - 2500) / 8;
        assert!((150..350).contains(&per_page), "per-page {per_page} ns");
    }

    #[test]
    fn lazy_attach_faults_on_touch() {
        let (mut f, phys) = boot(1 << 12);
        let pid = f.spawn(1 << 20).unwrap().value;
        let remote = PfnList::from_pages((2000..2004).map(Pfn));
        phys.write(Pfn(2002).base(), b"lazy").unwrap();
        let attached = f
            .attach_map(pid, &remote, AttachSemantics::Lazy, PteFlags::rw_user())
            .unwrap();
        // Setup is O(1).
        assert!(attached.cost < SimDuration::from_micros(10));
        let before = faults(&f);
        let mut buf = [0u8; 4];
        f.read(pid, attached.value + 2 * 4096, &mut buf).unwrap();
        assert_eq!(&buf, b"lazy");
        assert_eq!(faults(&f), before + 1, "exactly the touched page faults");
    }

    #[test]
    fn detach_clears_only_resident_pages() {
        let (mut f, _) = boot(1 << 12);
        let pid = f.spawn(1 << 20).unwrap().value;
        let remote = PfnList::from_pages((2000..2008).map(Pfn));
        let va = f
            .attach_map(pid, &remote, AttachSemantics::Lazy, PteFlags::rw_user())
            .unwrap()
            .value;
        // Touch two pages only.
        f.write(pid, va, &[1u8; 4096]).unwrap();
        f.write(pid, va + 4 * 4096, &[1u8; 1]).unwrap();
        let detached = f.detach(pid, va).unwrap();
        assert_eq!(detached.value, remote);
        let mut buf = [0u8; 1];
        assert!(
            f.read(pid, va, &mut buf).is_err(),
            "detached range must fault"
        );
    }

    #[test]
    fn frame_exhaustion_surfaces_through_faults() {
        let (mut f, _) = boot(4);
        let pid = f.spawn(64 * 4096).unwrap().value;
        let va = f.alloc_buffer(pid, 32 * 4096).unwrap().value;
        let err = f.write(pid, va, &vec![1u8; 32 * 4096]).unwrap_err();
        assert!(matches!(
            err,
            KernelError::Mem(MemError::OutOfFrames { .. })
        ));
        // The frames the faults did get are mapped, so exit frees them.
        f.exit(pid).unwrap();
        assert_eq!(f.free_frame_count(), 4);
    }

    #[test]
    fn exit_frees_anonymous_frames() {
        let (mut f, _) = boot(1 << 10);
        let before = f.free_frame_count();
        let pid = f.spawn(1 << 20).unwrap().value;
        let va = f.alloc_buffer(pid, 16 * 4096).unwrap().value;
        f.write(pid, va, &[1u8; 16 * 4096]).unwrap();
        assert!(f.free_frame_count() < before);
        f.exit(pid).unwrap();
        assert_eq!(f.free_frame_count(), before);
    }

    #[test]
    fn migrate_region_moves_only_the_resident_subset() {
        let phys = PhysicalMemory::new(1 << 13);
        let mut alloc = FrameAllocator::new(Pfn(0), 1 << 12);
        alloc.push_range(MemTier::Cxl, Pfn(1 << 12), 1 << 12);
        let mut f = Fwk::new(CostModel::default(), phys, alloc);
        f.set_tracer(TraceHandle::enabled());
        let pid = f.spawn(1 << 20).unwrap().value;
        let va = f.alloc_buffer(pid, 16 * 4096).unwrap().value;
        // Touch pages 0-3 and 8-11 only; 8 pages stay unpopulated.
        f.write(pid, va, &[1u8; 4 * 4096]).unwrap();
        f.write(pid, va + 8 * 4096, b"sparse resident data")
            .unwrap();
        let out = f.migrate_region(pid, va, 16 * 4096, MemTier::Cxl).unwrap();
        assert_eq!(out.value.pages, 5, "only resident pages move");
        assert_eq!(out.value.moved_by_tier[MemTier::LocalDram.index()], 5);
        assert!(out.value.new.iter_pages().all(|p| p.0 >= 1 << 12));
        let mut got = [0u8; 20];
        f.read(pid, va + 8 * 4096, &mut got).unwrap();
        assert_eq!(&got, b"sparse resident data");
        // Untouched pages still fault in on demand afterwards.
        let before = faults(&f);
        f.write(pid, va + 14 * 4096, &[2u8; 4096]).unwrap();
        assert_eq!(faults(&f), before + 1);
        // An empty range moves nothing.
        let empty = f.migrate_region(pid, va, 0, MemTier::Cxl).unwrap();
        assert_eq!((empty.value.pages, empty.cost), (0, SimDuration::ZERO));
        // Exit still returns everything: no leaked frames in any tier.
        f.exit(pid).unwrap();
        assert_eq!(f.free_frame_count(), 2 << 12);
    }

    #[test]
    fn remap_attached_repoints_lazy_attachments_and_future_faults() {
        let (mut f, phys) = boot(1 << 13);
        let pid = f.spawn(1 << 20).unwrap().value;
        let old = PfnList::from_pages((6000..6008).map(Pfn));
        phys.write(Pfn(6001).base(), b"old").unwrap();
        let va = f
            .attach_map(pid, &old, AttachSemantics::Lazy, PteFlags::rw_user())
            .unwrap()
            .value;
        // Touch page 1 so one page is resident.
        let mut got = [0u8; 3];
        f.read(pid, va + 4096, &mut got).unwrap();
        assert_eq!(&got, b"old");
        let new = PfnList::from_pages((7000..7008).map(Pfn));
        phys.write(Pfn(7001).base(), b"NEW").unwrap();
        phys.write(Pfn(7005).base(), b"late").unwrap();
        let remapped = f.remap_attached(pid, va, &new).unwrap();
        assert_eq!(remapped.value, 1, "only the resident page is re-pointed");
        f.read(pid, va + 4096, &mut got).unwrap();
        assert_eq!(&got, b"NEW");
        // A fresh fault resolves out of the *new* backing list.
        let mut late = [0u8; 4];
        f.read(pid, va + 5 * 4096, &mut late).unwrap();
        assert_eq!(&late, b"late");
    }

    #[test]
    fn data_round_trips_between_processes_via_shared_frames() {
        // Two FWK processes sharing frames through an eager attachment —
        // the local XEMEM path.
        let (mut f, _) = boot(1 << 12);
        let exporter = f.spawn(1 << 20).unwrap().value;
        let attacher = f.spawn(1 << 20).unwrap().value;
        let buf = f.alloc_buffer(exporter, 8192).unwrap().value;
        f.write(exporter, buf, b"cross-process payload").unwrap();
        let list = f.export_walk(exporter, buf, 8192).unwrap().value;
        let va = f
            .attach_map(attacher, &list, AttachSemantics::Eager, PteFlags::rw_user())
            .unwrap()
            .value;
        let mut got = [0u8; 21];
        f.read(attacher, va, &mut got).unwrap();
        assert_eq!(&got, b"cross-process payload");
        // Writes flow back.
        f.write(attacher, va, b"REPLY").unwrap();
        let mut back = [0u8; 5];
        f.read(exporter, buf, &mut back).unwrap();
        assert_eq!(&back, b"REPLY");
    }
}

#[cfg(test)]
mod hugepage_tests {
    use super::*;
    use xemem_mem::{Pfn, PhysicalMemory};

    fn boot(frames: u64) -> (Fwk, Arc<PhysicalMemory>) {
        let phys = PhysicalMemory::new(frames);
        let alloc = FrameAllocator::new(Pfn(0), frames);
        let f = Fwk::new(CostModel::default(), phys.clone(), alloc);
        (f, phys)
    }

    #[test]
    fn hugepage_attach_collapses_leaf_count_and_cost() {
        let (mut f, phys) = boot(4096);
        f.set_hugepage_attach(true);
        let pid = f.spawn(1 << 20).unwrap().value;
        // A 2 MiB-aligned contiguous run of 1024 frames (4 MiB).
        let mut list = PfnList::new();
        list.push_run(Pfn(1024), 1024);
        phys.write(Pfn(1024).base(), b"huge").unwrap();
        let huge = f
            .attach_map(pid, &list, AttachSemantics::Eager, PteFlags::rw_user())
            .unwrap();
        // Two 2 MiB leaves instead of 1024 PTEs ⇒ ~500x cheaper map phase.
        let per_4k_equiv = huge.cost.as_nanos() / 1024;
        assert!(per_4k_equiv < 10, "amortized {per_4k_equiv} ns/page");
        // Data still reads correctly through the huge mapping.
        let mut got = [0u8; 4];
        f.read(pid, huge.value, &mut got).unwrap();
        assert_eq!(&got, b"huge");
        // Detach clears huge leaves too.
        f.detach(pid, huge.value).unwrap();
        let mut b = [0u8; 1];
        assert!(f.read(pid, huge.value, &mut b).is_err());
    }

    #[test]
    fn remap_repoints_huge_page_attachments_onto_4k_leaves() {
        let (mut f, phys) = boot(8192);
        f.set_hugepage_attach(true);
        let pid = f.spawn(1 << 20).unwrap().value;
        let mut old = PfnList::new();
        old.push_run(Pfn(1024), 1024);
        let rw = PteFlags::rw_user();
        let va = (f.attach_map(pid, &old, AttachSemantics::Eager, rw))
            .unwrap()
            .value;
        let mut new = PfnList::new();
        new.push_run(Pfn(4096), 1024);
        phys.write(Pfn(4096 + 700).base(), b"moved").unwrap();
        assert_eq!(f.remap_attached(pid, va, &new).unwrap().value, 1024);
        let mut got = [0u8; 5];
        f.read(pid, va + 700 * 4096, &mut got).unwrap();
        assert_eq!(&got, b"moved");
        let pt = f.procs[&pid].asp.page_table();
        assert_eq!(pt.translate(va).unwrap().2, xemem_mem::PageSize::Size4K);
    }

    #[test]
    fn hugepage_attach_falls_back_on_scattered_lists() {
        let (mut f, _) = boot(4096);
        f.set_hugepage_attach(true);
        let pid = f.spawn(1 << 20).unwrap().value;
        // Scattered frames: no co-alignment, so every leaf is 4 KiB.
        let list = PfnList::from_pages((0..64).map(|i| Pfn(100 + i * 2)));
        let out = f
            .attach_map(pid, &list, AttachSemantics::Eager, PteFlags::rw_user())
            .unwrap();
        let per_page = (out.cost.as_nanos() - 2500) / 64;
        assert!((150..350).contains(&per_page), "per-page {per_page} ns");
        // All frames map in order.
        let (walked, _) = {
            let proc = f.procs.get(&pid).unwrap();
            proc.asp
                .page_table()
                .walk_range(out.value, 64 * 4096)
                .unwrap()
        };
        assert_eq!(walked, list);
    }

    #[test]
    fn hugepage_attach_handles_partial_runs() {
        let (mut f, phys) = boot(8192);
        f.set_hugepage_attach(true);
        let pid = f.spawn(1 << 20).unwrap().value;
        // 512-aligned run of 700 frames: one 2 MiB leaf + 188 small pages.
        let mut list = PfnList::new();
        list.push_run(Pfn(512), 700);
        phys.write(Pfn(512 + 699).base() + 4090, b"END").unwrap();
        let out = f
            .attach_map(pid, &list, AttachSemantics::Eager, PteFlags::rw_user())
            .unwrap();
        let mut got = [0u8; 3];
        f.read(pid, out.value + (700 * 4096 - 6), &mut got).unwrap();
        assert_eq!(&got, b"END");
    }
}
