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
//! * **Background noise** — timer ticks and heavy-tailed daemon activity
//!   (via [`xemem_sim::noise`]), the cause of the Linux-only variance in
//!   Figs. 8–9.
//!
//! Like the Kitten simulator, all operations do real page-table work and
//! return virtual-time costs per [`xemem_mem::MappingKernel`].

use std::sync::Arc;

use xemem_mem::addr_space::{AddressSpace, RegionKind};
use xemem_mem::kernel::{AttachSemantics, KernelError, KernelKind, MappingKernel, Pid};
use xemem_mem::{
    FrameAllocator, FrameMove, MemError, MigrateOutcome, PfnList, PhysAccess, PteFlags, VirtAddr,
    PAGE_SIZE,
};
use xemem_sim::noise::CompositeNoise;
use xemem_sim::{CostModel, Costed, FxHashMap, MemTier, SimDuration, SimRng};

/// What backs a VMA's pages when they fault in.
#[derive(Debug, Clone)]
enum Backing {
    /// Anonymous memory: fault allocates a fresh frame.
    Anon,
    /// A lazily attached remote PFN list: fault maps the corresponding
    /// remote frame (single-OS XEMEM attachment semantics).
    Remote(PfnList),
}

#[derive(Debug, Clone)]
struct Vma {
    start: VirtAddr,
    len: u64,
    backing: Backing,
    /// Protection for pages faulted into this VMA.
    prot: PteFlags,
}

struct Proc {
    asp: AddressSpace,
    vmas: FxHashMap<u64, Vma>,
    /// Anonymous frames owned (freed on exit), run-length encoded.
    owned: PfnList,
}

/// The Linux-like full-weight kernel for one enclave.
pub struct Fwk {
    cost: CostModel,
    phys: Arc<dyn PhysAccess>,
    alloc: FrameAllocator,
    procs: FxHashMap<Pid, Proc>,
    next_pid: u32,
    /// Counters for tests and reporting.
    faults_served: u64,
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
            cost,
            phys,
            alloc,
            procs: FxHashMap::default(),
            next_pid: 1,
            faults_served: 0,
            tracer: xemem_trace::TraceHandle::disabled(),
            hugepage_attach: false,
        }
    }

    /// Enable/disable huge-page attachment mapping (see the field docs).
    pub fn set_hugepage_attach(&mut self, on: bool) {
        self.hugepage_attach = on;
    }

    /// Attach an observability handle; demand-fault activity is then
    /// counted and its virtual latency recorded in
    /// [`xemem_trace::Hist::FaultInNs`].
    pub fn set_tracer(&mut self, tracer: xemem_trace::TraceHandle) {
        self.tracer = tracer;
    }

    /// The FWK noise profile (timer ticks + daemons + hardware + SMIs).
    pub fn noise(rng: &mut SimRng) -> CompositeNoise {
        CompositeNoise::fwk(rng)
    }

    /// Total demand-paging faults served (diagnostic).
    pub fn faults_served(&self) -> u64 {
        self.faults_served
    }

    /// Frames still free in this enclave's partition.
    pub fn free_frames(&self) -> u64 {
        self.alloc.free_frames()
    }

    fn proc_mut(&mut self, pid: Pid) -> Result<&mut Proc, KernelError> {
        self.procs
            .get_mut(&pid)
            .ok_or(KernelError::NoSuchProcess(pid))
    }

    /// Fault in every non-resident page of `[va, va+len)` in `pid`.
    /// Returns the number of pages newly faulted and the virtual cost.
    ///
    /// Structurally O(extents): holes are discovered as runs and each run
    /// segment (bounded by its covering VMA) is installed with one batched
    /// call. The virtual charge stays per page faulted.
    fn populate(&mut self, pid: Pid, va: VirtAddr, len: u64) -> Result<Costed<u64>, KernelError> {
        // Two-phase to satisfy the borrow checker: find the hole runs,
        // then fill them.
        let holes: Vec<(VirtAddr, u64)> = {
            let proc = self
                .procs
                .get(&pid)
                .ok_or(KernelError::NoSuchProcess(pid))?;
            let first = va.page_base();
            let pages = (va.0 + len - first.0).div_ceil(PAGE_SIZE);
            proc.asp
                .page_table()
                .find_unmapped(first, pages)
                .into_iter()
                .map(|(off, n)| (first + off * PAGE_SIZE, n))
                .collect()
        };
        let mut faulted = 0u64;
        // Pages faulted onto this kernel's own frames, by the tier the
        // frame came from — first-touch tier surcharges (zero on flat
        // DRAM). Remote-backed faults are priced by the protocol layer,
        // which knows the exporter's tier placement.
        let mut touched = [0u64; MemTier::COUNT];
        for (start, run_pages) in holes {
            let mut page = start;
            let mut remaining = run_pages;
            while remaining > 0 {
                // The VMA covering this stretch bounds one batch.
                let (backing, vma_start, vma_end, prot) = {
                    let proc = self.procs.get(&pid).unwrap();
                    let vma = proc
                        .vmas
                        .values()
                        .find(|v| page >= v.start && page < v.start + v.len)
                        .ok_or(MemError::Fault(page))?;
                    (
                        vma.backing.clone(),
                        vma.start,
                        vma.start + vma.len,
                        vma.prot,
                    )
                };
                let batch = remaining.min((vma_end.0 - page.0) / PAGE_SIZE);
                match backing {
                    Backing::Anon => {
                        // The frames `batch` single-frame faults would
                        // take, in VA order, then one install. A shortfall
                        // keeps what it got (owned, so freed at exit) and
                        // fails as the fault that found no frame would.
                        let frames = self.alloc.alloc_upto(batch);
                        self.procs.get_mut(&pid).unwrap().owned.extend(&frames);
                        if frames.pages() < batch {
                            return Err(MemError::OutOfFrames {
                                requested: 1,
                                available: 0,
                            }
                            .into());
                        }
                        let by_tier = self.alloc.pages_by_tier(&frames);
                        for t in MemTier::ALL {
                            touched[t.index()] += by_tier[t.index()];
                        }
                        let proc = self.procs.get_mut(&pid).unwrap();
                        proc.asp.page_table_mut().map_list(page, &frames, prot)?;
                    }
                    Backing::Remote(list) => {
                        let idx = (page.0 - vma_start.0) / PAGE_SIZE;
                        let avail = list.pages().saturating_sub(idx).min(batch);
                        if avail > 0 {
                            let seg = list.slice(idx, avail).expect("bounds checked");
                            let proc = self.procs.get_mut(&pid).unwrap();
                            proc.asp.page_table_mut().map_list(page, &seg, prot)?;
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
        self.faults_served += faulted;
        let mut cost = self.cost.fwk_fault_in(faulted);
        for t in MemTier::ALL {
            cost += self.cost.tier_touch_surcharge(t, touched[t.index()]);
        }
        if faulted > 0 {
            self.tracer
                .count(xemem_trace::Counter::FaultsServed, faulted);
            self.tracer
                .observe(xemem_trace::Hist::FaultInNs, cost.as_nanos());
        }
        Ok(Costed::new(faulted, cost))
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
        let len = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        proc.vmas.insert(
            va.0,
            Vma {
                start: va,
                len,
                backing,
                prot,
            },
        );
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
                owned: PfnList::new(),
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
        self.alloc.free_list(&proc.owned)?;
        self.phys.discard(&proc.owned)?;
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
            SimDuration::from_nanos(self.cost.fwk_vm_mmap_ns),
        ))
    }

    fn populate(&mut self, pid: Pid, va: VirtAddr, len: u64) -> Result<Costed<u64>, KernelError> {
        Fwk::populate(self, pid, va, len)
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
        let cost = populate.cost + self.cost.pin_and_walk(stats.pages);
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
                let two_m = xemem_mem::PageSize::Size2M;
                let proc = self.proc_mut(pid)?;
                let va = proc.asp.reserve_free_aligned(
                    len,
                    two_m.bytes(),
                    RegionKind::XememAttach,
                    "xemem-huge",
                )?;
                proc.vmas.insert(
                    va.0,
                    Vma {
                        start: va,
                        len,
                        backing: Backing::Remote(pfns.clone()),
                        prot,
                    },
                );
                let mut written = 0u64;
                let mut page_idx = 0u64;
                for run in pfns.runs() {
                    let mut off = 0u64;
                    while off < run.len {
                        let cur_va = va + (page_idx + off) * PAGE_SIZE;
                        let frame = run.start.offset(off);
                        let frames_left = run.len - off;
                        if cur_va.is_aligned(two_m)
                            && frame.0 % two_m.frames() == 0
                            && frames_left >= two_m.frames()
                        {
                            proc.asp.page_table_mut().map(cur_va, frame, two_m, prot)?;
                            off += two_m.frames();
                            written += 1;
                        } else {
                            // 4 KiB fill-in, batched up to the next
                            // co-aligned 2 MiB boundary (or the run end
                            // when VA and frame can never co-align).
                            let va_page = cur_va.0 / PAGE_SIZE;
                            let to_boundary =
                                (two_m.frames() - va_page % two_m.frames()) % two_m.frames();
                            let co_alignable = va_page % two_m.frames() == frame.0 % two_m.frames();
                            let tail = if co_alignable && to_boundary > 0 {
                                frames_left.min(to_boundary)
                            } else {
                                frames_left
                            };
                            written += proc
                                .asp
                                .page_table_mut()
                                .map_extent(cur_va, frame, tail, prot)?;
                            off += tail;
                        }
                    }
                    page_idx += run.len;
                }
                Ok(Costed::new(va, self.cost.fwk_eager_attach(written)))
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
                Ok(Costed::new(va, self.cost.fwk_eager_attach(written)))
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
                    SimDuration::from_nanos(self.cost.fwk_vm_mmap_ns),
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
        Ok(Costed::new(list, self.cost.fwk_detach(cleared)))
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
        let first = va.page_base();
        let pages = (va.0 + len - first.0).div_ceil(PAGE_SIZE);
        // Quarantine whatever is resident (unpopulated holes own no
        // frame), run-wise; the charge covers the full per-page scan.
        let resident = proc.asp.page_table().walk_resident(first, pages);
        proc.owned = proc.owned.subtract(&resident);
        Ok(Costed::new(resident, self.cost.walk(pages)))
    }

    fn return_frames(&mut self, frames: &PfnList) -> Result<Costed<()>, KernelError> {
        self.alloc.free_list(frames)?;
        self.phys.discard(frames)?;
        Ok(Costed::new((), self.cost.frame_return(frames.pages())))
    }

    fn migrate_region(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        len: u64,
        dst_tier: MemTier,
    ) -> Result<Costed<MigrateOutcome>, KernelError> {
        if !self.alloc.has_tier(dst_tier) {
            return Err(KernelError::Unsupported("destination tier not configured"));
        }
        if !self.phys.can_relocate() {
            return Err(KernelError::Unsupported("physical view cannot relocate"));
        }
        let first = va.page_base();
        let pages = (va.0 + len - first.0).div_ceil(PAGE_SIZE);
        // Only the resident subset moves — unpopulated holes own no
        // frame and will fault into the allocator's spill order later.
        let (old, prot, segs) = {
            let proc = self
                .procs
                .get(&pid)
                .ok_or(KernelError::NoSuchProcess(pid))?;
            let vma = proc
                .vmas
                .values()
                .find(|v| first >= v.start && first + (pages - 1) * PAGE_SIZE < v.start + v.len)
                .ok_or(MemError::Fault(first))?;
            if !matches!(vma.backing, Backing::Anon) {
                return Err(KernelError::Unsupported(
                    "migrating an attachment (owner-side only)",
                ));
            }
            let prot = vma.prot;
            let old = proc.asp.page_table().walk_resident(first, pages);
            // Resident VA segments: the complement of the hole runs, as
            // (va, pages) pairs in address order.
            let holes = proc.asp.page_table().find_unmapped(first, pages);
            let mut segs: Vec<(VirtAddr, u64)> = Vec::new();
            let mut at = 0u64;
            for (off, n) in &holes {
                if *off > at {
                    segs.push((first + at * PAGE_SIZE, off - at));
                }
                at = off + n;
            }
            if pages > at {
                segs.push((first + at * PAGE_SIZE, pages - at));
            }
            (old, prot, segs)
        };
        if old.is_empty() {
            return Ok(Costed::new(
                MigrateOutcome {
                    old,
                    new: PfnList::new(),
                    pages: 0,
                    moved_by_tier: [0; MemTier::COUNT],
                },
                SimDuration::ZERO,
            ));
        }
        let moved = old.pages();
        let new = self.alloc.alloc_pages_in(dst_tier, moved)?;
        self.phys.relocate_frames(&FrameMove::pair(&old, &new))?;
        let moved_by_tier = self.alloc.pages_by_tier(&old);
        let proc = self.procs.get_mut(&pid).expect("checked above");
        let mut idx = 0u64;
        for (seg_va, seg_pages) in segs {
            proc.asp.page_table_mut().unmap_pages(seg_va, seg_pages)?;
            let slice = new.slice(idx, seg_pages).expect("sized from old list");
            proc.asp.page_table_mut().map_list(seg_va, &slice, prot)?;
            idx += seg_pages;
        }
        proc.owned = proc.owned.subtract(&old);
        proc.owned.extend(&new);
        self.alloc.free_list(&old)?;
        let extents = (old.run_count() + new.run_count()) as u64;
        let cost = self.cost.walk(pages) + self.cost.migrate_remap(extents, moved);
        Ok(Costed::new(
            MigrateOutcome {
                old,
                new,
                pages: moved,
                moved_by_tier,
            },
            cost,
        ))
    }

    fn remap_attached(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        new: &PfnList,
    ) -> Result<Costed<u64>, KernelError> {
        let proc = self.proc_mut(pid)?;
        let region = proc
            .asp
            .region_containing(va)
            .filter(|r| r.kind == RegionKind::XememAttach)
            .ok_or(MemError::NoSuchRegion(va))?;
        let (start, pages) = (region.start, region.len / PAGE_SIZE);
        if new.pages() != pages {
            return Err(KernelError::Unsupported("remap length mismatch"));
        }
        let vma = proc
            .vmas
            .get_mut(&start.0)
            .ok_or(MemError::NoSuchRegion(start))?;
        let prot = vma.prot;
        // Future faults must resolve to the new frames (lazy
        // attachments fault positionally out of the backing list).
        vma.backing = Backing::Remote(new.clone());
        // Re-point the resident subset in place, segment by segment.
        let holes = proc.asp.page_table().find_unmapped(start, pages);
        let mut segs: Vec<(u64, u64)> = Vec::new();
        let mut at = 0u64;
        for (off, n) in &holes {
            if *off > at {
                segs.push((at, off - at));
            }
            at = off + n;
        }
        if pages > at {
            segs.push((at, pages - at));
        }
        let mut remapped = 0u64;
        for (off, seg_pages) in segs {
            let seg_va = start + off * PAGE_SIZE;
            proc.asp.page_table_mut().unmap_pages(seg_va, seg_pages)?;
            let slice = new.slice(off, seg_pages).expect("length checked");
            proc.asp.page_table_mut().map_list(seg_va, &slice, prot)?;
            remapped += seg_pages;
        }
        Ok(Costed::new(
            remapped,
            self.cost.migrate_remap(new.run_count() as u64, remapped),
        ))
    }

    fn tier_free_frames(&self, tier: MemTier) -> Option<u64> {
        self.alloc
            .has_tier(tier)
            .then(|| self.alloc.free_frames_in(tier))
    }

    fn free_frame_count(&self) -> u64 {
        self.alloc.free_frames()
    }

    fn write(&mut self, pid: Pid, va: VirtAddr, data: &[u8]) -> Result<Costed<()>, KernelError> {
        let populate = self.populate(pid, va, data.len() as u64)?;
        let proc = self
            .procs
            .get(&pid)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        proc.asp.write_bytes(&*self.phys, va, data)?;
        Ok(Costed::new(
            (),
            populate.cost
                + self
                    .cost
                    .tier_stream_write(self.alloc.home_tier(), data.len() as u64),
        ))
    }

    fn read(&mut self, pid: Pid, va: VirtAddr, out: &mut [u8]) -> Result<Costed<()>, KernelError> {
        let populate = self.populate(pid, va, out.len() as u64)?;
        let proc = self
            .procs
            .get(&pid)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        proc.asp.read_bytes(&*self.phys, va, out)?;
        Ok(Costed::new(
            (),
            populate.cost
                + self
                    .cost
                    .tier_stream_read(self.alloc.home_tier(), out.len() as u64),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xemem_mem::{Pfn, PhysicalMemory};

    fn boot(frames: u64) -> (Fwk, Arc<PhysicalMemory>) {
        let phys = PhysicalMemory::new(frames);
        let alloc = FrameAllocator::new(Pfn(0), frames);
        let f = Fwk::new(CostModel::default(), phys.clone(), alloc);
        (f, phys)
    }

    #[test]
    fn spawn_creates_unmapped_regions() {
        let (mut f, _) = boot(1 << 12);
        let before = f.free_frames();
        let _pid = f.spawn(4 << 20).unwrap().value;
        // Demand paging: nothing allocated yet.
        assert_eq!(f.free_frames(), before);
    }

    #[test]
    fn first_touch_faults_pages_in() {
        let (mut f, _) = boot(1 << 12);
        let pid = f.spawn(1 << 20).unwrap().value;
        let va = f.alloc_buffer(pid, 8192).unwrap().value;
        assert_eq!(f.faults_served(), 0);
        let w = f.write(pid, va, &[7u8; 8192]).unwrap();
        assert_eq!(f.faults_served(), 2);
        // Second touch does not fault again and is cheaper.
        let w2 = f.write(pid, va, &[8u8; 8192]).unwrap();
        assert_eq!(f.faults_served(), 2);
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
        assert_eq!(f.faults_served(), 16);
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
        let before = f.faults_served();
        let mut buf = [0u8; 4];
        f.read(pid, attached.value + 7 * 4096, &mut buf).unwrap();
        assert_eq!(&buf, b"tail");
        assert_eq!(f.faults_served(), before);
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
        let before = f.faults_served();
        let mut buf = [0u8; 4];
        f.read(pid, attached.value + 2 * 4096, &mut buf).unwrap();
        assert_eq!(&buf, b"lazy");
        assert_eq!(
            f.faults_served(),
            before + 1,
            "exactly the touched page faults"
        );
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
    }

    #[test]
    fn exit_frees_anonymous_frames() {
        let (mut f, _) = boot(1 << 10);
        let before = f.free_frames();
        let pid = f.spawn(1 << 20).unwrap().value;
        let va = f.alloc_buffer(pid, 16 * 4096).unwrap().value;
        f.write(pid, va, &[1u8; 16 * 4096]).unwrap();
        assert!(f.free_frames() < before);
        f.exit(pid).unwrap();
        assert_eq!(f.free_frames(), before);
    }

    #[test]
    fn migrate_region_moves_only_the_resident_subset() {
        let phys = PhysicalMemory::new(1 << 13);
        let mut alloc = FrameAllocator::new(Pfn(0), 1 << 12);
        alloc.push_range(MemTier::Cxl, Pfn(1 << 12), 1 << 12);
        let mut f = Fwk::new(CostModel::default(), phys, alloc);
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
        let before = f.faults_served();
        f.write(pid, va + 14 * 4096, &[2u8; 4096]).unwrap();
        assert_eq!(f.faults_served(), before + 1);
        // Exit still returns everything: no leaked frames in any tier.
        f.exit(pid).unwrap();
        assert_eq!(f.free_frames(), 2 << 12);
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
