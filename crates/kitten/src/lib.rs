//! # xemem-kitten
//!
//! A simulator of the Kitten lightweight kernel (LWK) as modified for
//! XEMEM (paper §4, §4.3). The behaviours that matter to the paper are
//! modelled structurally:
//!
//! * **Static address spaces** — every region (text, data, heap, stack) is
//!   mapped to physically *contiguous* memory at process creation; there
//!   is no demand paging, so compute phases never fault.
//! * **SMARTMAP** — local inter-process sharing via shared top-level page
//!   table entries: each process's whole space appears in a fixed window
//!   of every sibling's address space, at O(1) setup cost.
//! * **Dynamic heap expansion** — the XEMEM modification: remote PFN lists
//!   are mapped into a dynamically grown attachment arena without
//!   disturbing the static regions or SMARTMAP (paper §4.3).
//! * **Page-table-walk export service** — generating PFN lists for remote
//!   attachment requests, whose per-page cost is the source of the Fig. 7
//!   detours.
//!
//! The kernel performs real page-table work against shared physical
//! memory and returns virtual-time costs per [`xemem_mem::MappingKernel`].

use std::sync::Arc;

use xemem_mem::addr_space::{AddressSpace, RegionKind};
use xemem_mem::kernel::{AttachSemantics, KernelError, KernelKind, MappingKernel, Pid};
use xemem_mem::{
    FrameAllocator, FrameMove, MemError, MigrateOutcome, PageSize, PfnList, PhysAccess, PteFlags,
    VirtAddr, PAGE_SIZE,
};
use xemem_sim::noise::CompositeNoise;
use xemem_sim::{CostModel, Costed, FxHashMap, MemTier, SimDuration, SimRng};

/// Fixed virtual layout of a Kitten process.
mod layout {
    use xemem_mem::VirtAddr;

    /// Program text.
    pub const TEXT: VirtAddr = VirtAddr(0x40_0000);
    /// Text size: 2 MiB.
    pub const TEXT_LEN: u64 = 2 << 20;
    /// Static data.
    pub const DATA: VirtAddr = VirtAddr(0x80_0000);
    /// Data size: 2 MiB.
    pub const DATA_LEN: u64 = 2 << 20;
    /// Heap base.
    pub const HEAP: VirtAddr = VirtAddr(0x1000_0000);
    /// Stack top region base (grows nowhere in the simulator).
    pub const STACK: VirtAddr = VirtAddr(0x7000_0000);
    /// Stack size: 8 MiB.
    pub const STACK_LEN: u64 = 8 << 20;
    /// Base of the SMARTMAP window array: slot `r` (1-based) covers
    /// `SMARTMAP_BASE + r × SLOT` — one top-level (512 GiB) entry each.
    pub const SMARTMAP_BASE: u64 = 1 << 39;
    /// SMARTMAP slot stride (one top-level entry).
    pub const SMARTMAP_SLOT: u64 = 1 << 39;
    /// Base of the dynamic attachment arena (the XEMEM heap-expansion
    /// area), far above SMARTMAP slots.
    pub const ATTACH_ARENA: VirtAddr = VirtAddr(128 << 40);
    /// Top of the attachment arena.
    pub const ATTACH_ARENA_TOP: VirtAddr = VirtAddr(160 << 40);
}

struct Proc {
    asp: AddressSpace,
    /// Contiguous physical base frame of the whole process image.
    heap_bump: u64,
    heap_len: u64,
    /// SMARTMAP rank (1-based slot index).
    rank: u32,
    /// Frames owned by this process (freed on exit).
    owned: PfnList,
}

/// The Kitten lightweight kernel for one enclave.
pub struct Kitten {
    cost: CostModel,
    phys: Arc<dyn PhysAccess>,
    alloc: FrameAllocator,
    procs: FxHashMap<Pid, Proc>,
    next_pid: u32,
    next_rank: u32,
    /// Observability hooks (metrics only — all virtual-time accounting
    /// stays with the caller).
    tracer: xemem_trace::TraceHandle,
}

impl Kitten {
    /// Boot a Kitten instance over the given physical view and frame
    /// range.
    pub fn new(cost: CostModel, phys: Arc<dyn PhysAccess>, alloc: FrameAllocator) -> Self {
        Kitten {
            cost,
            phys,
            alloc,
            procs: FxHashMap::default(),
            next_pid: 1,
            next_rank: 1,
            tracer: xemem_trace::TraceHandle::disabled(),
        }
    }

    /// Attach an observability handle; eager attach installs are then
    /// counted in [`xemem_trace::Counter::LwkAttachPages`].
    pub fn set_tracer(&mut self, tracer: xemem_trace::TraceHandle) {
        self.tracer = tracer;
    }

    /// The Kitten noise profile (near-silent: hardware baseline + SMIs).
    pub fn noise(rng: &mut SimRng) -> CompositeNoise {
        CompositeNoise::kitten(rng)
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

    fn proc_ref(&self, pid: Pid) -> Result<&Proc, KernelError> {
        self.procs.get(&pid).ok_or(KernelError::NoSuchProcess(pid))
    }

    /// Map `len` bytes at `va` from the contiguous frame run starting at
    /// `base`, using 2 MiB pages where alignment permits. Returns leaf
    /// PTEs written.
    fn map_static(
        asp: &mut AddressSpace,
        va: VirtAddr,
        base: xemem_mem::Pfn,
        len: u64,
    ) -> Result<u64, MemError> {
        let mut written = 0u64;
        let mut off = 0u64;
        while off < len {
            let cur = va + off;
            let remaining = len - off;
            let frame = base.offset(off / PAGE_SIZE);
            // Use a 2 MiB page when virtual and physical are co-aligned
            // and the remainder covers it.
            let two_m = PageSize::Size2M.bytes();
            if cur.is_aligned(PageSize::Size2M)
                && frame.0.is_multiple_of(PageSize::Size2M.frames())
                && remaining >= two_m
            {
                asp.page_table_mut()
                    .map(cur, frame, PageSize::Size2M, PteFlags::rw_user())?;
                off += two_m;
            } else {
                asp.page_table_mut()
                    .map(cur, frame, PageSize::Size4K, PteFlags::rw_user())?;
                off += PAGE_SIZE;
            }
            written += 1;
        }
        Ok(written)
    }

    /// SMARTMAP: map `peer`'s entire static image into `pid`'s SMARTMAP
    /// window for the peer's rank. Returns the window base. Charged O(1)
    /// virtual time — the real Kitten shares top-level page-table entries.
    pub fn smartmap_attach(
        &mut self,
        pid: Pid,
        peer: Pid,
    ) -> Result<Costed<VirtAddr>, KernelError> {
        if pid == peer {
            return Err(KernelError::Unsupported("SMARTMAP self-attachment"));
        }
        // Collect the peer's static mappings (region base → frames).
        let peer_proc = self.proc_ref(peer)?;
        let peer_rank = peer_proc.rank;
        let mut mappings = Vec::new();
        for region in peer_proc.asp.regions() {
            if matches!(region.kind, RegionKind::SmartMap | RegionKind::XememAttach) {
                continue;
            }
            let (list, _) = peer_proc
                .asp
                .page_table()
                .walk_range(region.start, region.len)
                .map_err(KernelError::Mem)?;
            mappings.push((region.start, list));
        }
        let window = VirtAddr(layout::SMARTMAP_BASE + peer_rank as u64 * layout::SMARTMAP_SLOT);
        let me = self.proc_mut(pid)?;
        me.asp.insert_region(
            window,
            layout::SMARTMAP_SLOT,
            RegionKind::SmartMap,
            format!("smartmap:{peer}"),
        )?;
        for (peer_va, list) in mappings {
            // The peer's address inside the window preserves its offsets.
            let dst = VirtAddr(window.0 + peer_va.0);
            me.asp
                .page_table_mut()
                .map_list(dst, &list, PteFlags::rw_user())?;
        }
        Ok(Costed::new(
            window,
            SimDuration::from_nanos(self.cost.smartmap_ns),
        ))
    }
}

impl MappingKernel for Kitten {
    fn kind(&self) -> KernelKind {
        KernelKind::Lwk
    }

    fn spawn(&mut self, mem_bytes: u64) -> Result<Costed<Pid>, KernelError> {
        let heap_len = mem_bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let total = layout::TEXT_LEN + layout::DATA_LEN + heap_len + layout::STACK_LEN;
        let frames = total / PAGE_SIZE;
        // The whole process image is one physically contiguous run — the
        // LWK property that keeps exported PFN lists single-run.
        let base = self.alloc.alloc_contiguous(frames)?;
        let mut asp = AddressSpace::with_arena(layout::ATTACH_ARENA, layout::ATTACH_ARENA_TOP);
        let mut off = 0u64;
        let mut leaves = 0u64;
        for (start, len, kind, name) in [
            (layout::TEXT, layout::TEXT_LEN, RegionKind::Text, "text"),
            (layout::DATA, layout::DATA_LEN, RegionKind::Data, "data"),
            (layout::HEAP, heap_len, RegionKind::Heap, "heap"),
            (layout::STACK, layout::STACK_LEN, RegionKind::Stack, "stack"),
        ] {
            asp.insert_region(start, len, kind, name)?;
            leaves += Self::map_static(&mut asp, start, base.offset(off / PAGE_SIZE), len)?;
            off += len;
        }
        let mut owned = PfnList::new();
        owned.push_run(base, frames);
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let rank = self.next_rank;
        self.next_rank += 1;
        self.procs.insert(
            pid,
            Proc {
                asp,
                heap_bump: 0,
                heap_len,
                rank,
                owned,
            },
        );
        // Static mapping cost: one PTE install per leaf written.
        let cost = SimDuration::from_nanos(self.cost.lwk_map_page_ns).times(leaves)
            + SimDuration::from_nanos(self.cost.frame_alloc_ns).times(frames);
        Ok(Costed::new(pid, cost))
    }

    fn exit(&mut self, pid: Pid) -> Result<Costed<()>, KernelError> {
        let proc = self
            .procs
            .remove(&pid)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        self.alloc.free_list(&proc.owned)?;
        self.phys.discard(&proc.owned)?;
        Ok(Costed::new((), SimDuration::from_micros(5)))
    }

    fn alloc_buffer(&mut self, pid: Pid, len: u64) -> Result<Costed<VirtAddr>, KernelError> {
        let len = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let proc = self.proc_mut(pid)?;
        if proc.heap_bump + len > proc.heap_len {
            return Err(KernelError::Mem(MemError::NoVirtualSpace { len }));
        }
        let va = layout::HEAP + proc.heap_bump;
        proc.heap_bump += len;
        // The heap is statically mapped: handing out a buffer is a bump.
        Ok(Costed::new(va, SimDuration::from_nanos(120)))
    }

    fn export_walk(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        len: u64,
    ) -> Result<Costed<PfnList>, KernelError> {
        let proc = self.proc_ref(pid)?;
        let (list, stats) = proc.asp.page_table().walk_range(va, len)?;
        // The service generates one list entry per 4 KiB page (paper
        // §4.3); this is the Fig. 7 detour duration.
        let cost = self.cost.walk(stats.pages);
        Ok(Costed::new(list, cost))
    }

    fn attach_map(
        &mut self,
        pid: Pid,
        pfns: &PfnList,
        semantics: AttachSemantics,
        prot: PteFlags,
    ) -> Result<Costed<VirtAddr>, KernelError> {
        if semantics == AttachSemantics::Lazy {
            return Err(KernelError::Unsupported("Kitten has no demand paging"));
        }
        let proc = self.proc_mut(pid)?;
        let len = pfns.pages() * PAGE_SIZE;
        // Dynamic heap expansion (the XEMEM addition): carve a region out
        // of the attachment arena without disturbing static regions or
        // SMARTMAP windows. The install itself is O(extents) on the host;
        // the charge stays per PTE written.
        let va = proc
            .asp
            .reserve_free(len, RegionKind::XememAttach, "xemem")?;
        let written = proc.asp.page_table_mut().map_list(va, pfns, prot)?;
        self.tracer
            .count(xemem_trace::Counter::LwkAttachPages, written);
        Ok(Costed::new(va, self.cost.lwk_attach(written)))
    }

    fn detach(&mut self, pid: Pid, va: VirtAddr) -> Result<Costed<PfnList>, KernelError> {
        let proc = self.proc_mut(pid)?;
        let region = proc
            .asp
            .region_containing(va)
            .filter(|r| r.kind == RegionKind::XememAttach)
            .ok_or(MemError::NoSuchRegion(va))?;
        let (start, pages) = (region.start, region.len / PAGE_SIZE);
        let freed = proc.asp.page_table_mut().unmap_pages(start, pages)?;
        proc.asp.remove_region(start)?;
        // PTE clears are cheaper than installs.
        Ok(Costed::new(freed, self.cost.lwk_detach(pages)))
    }

    fn retain_frames(
        &mut self,
        pid: Pid,
        va: VirtAddr,
        len: u64,
    ) -> Result<Costed<PfnList>, KernelError> {
        let proc = self.proc_mut(pid)?;
        let first = va.page_base();
        let pages = (va.0 + len - first.0).div_ceil(PAGE_SIZE);
        // The image is statically mapped, so every page resolves; the
        // walk and the ownership subtraction are both run-wise, while
        // the charge covers the full per-page scan the real kernel does.
        let quarantined = proc.asp.page_table().walk_resident(first, pages);
        // Drop the quarantined frames from the ownership list so a later
        // exit will not free them.
        proc.owned = proc.owned.subtract(&quarantined);
        Ok(Costed::new(quarantined, self.cost.walk(pages)))
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
        let proc = self
            .procs
            .get(&pid)
            .ok_or(KernelError::NoSuchProcess(pid))?;
        // The image is statically mapped, so the whole range resolves.
        let (old, _) = proc.asp.page_table().walk_range(first, pages * PAGE_SIZE)?;
        // A large-page leaf straddling the range boundary would be
        // unmapped whole below, taking out-of-range frames with it.
        let (_, flags, front_size) = proc
            .asp
            .page_table()
            .translate(first)
            .ok_or(MemError::Fault(first))?;
        if front_size != PageSize::Size4K && !first.is_aligned(front_size) {
            return Err(KernelError::Unsupported("range starts inside a large page"));
        }
        let last = VirtAddr(first.0 + (pages - 1) * PAGE_SIZE);
        let (_, _, back_size) = proc
            .asp
            .page_table()
            .translate(last)
            .ok_or(MemError::Fault(last))?;
        if back_size != PageSize::Size4K
            && !(first.0 + pages * PAGE_SIZE).is_multiple_of(back_size.bytes())
        {
            return Err(KernelError::Unsupported("range ends inside a large page"));
        }
        let new = self.alloc.alloc_pages_in(dst_tier, pages)?;
        self.phys.relocate_frames(&FrameMove::pair(&old, &new))?;
        let moved_by_tier = self.alloc.pages_by_tier(&old);
        let proc = self.procs.get_mut(&pid).expect("checked above");
        let (removed, _) = proc.asp.page_table_mut().unmap_resident(first, pages);
        debug_assert_eq!(removed.pages(), pages);
        proc.asp.page_table_mut().map_list(first, &new, flags)?;
        proc.owned = proc.owned.subtract(&old);
        proc.owned.extend(&new);
        self.alloc.free_list(&old)?;
        let extents = (old.run_count() + new.run_count()) as u64;
        let cost = self.cost.walk(pages) + self.cost.migrate_remap(extents, pages);
        Ok(Costed::new(
            MigrateOutcome {
                old,
                new,
                pages,
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
        let (_, flags, _) = proc
            .asp
            .page_table()
            .translate(start)
            .ok_or(MemError::Fault(start))?;
        proc.asp.page_table_mut().unmap_pages(start, pages)?;
        proc.asp.page_table_mut().map_list(start, new, flags)?;
        Ok(Costed::new(
            pages,
            self.cost.migrate_remap(new.run_count() as u64, pages),
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
        let proc = self.proc_ref(pid)?;
        proc.asp.write_bytes(&*self.phys, va, data)?;
        Ok(Costed::new(
            (),
            self.cost
                .tier_stream_write(self.alloc.home_tier(), data.len() as u64),
        ))
    }

    fn read(&mut self, pid: Pid, va: VirtAddr, out: &mut [u8]) -> Result<Costed<()>, KernelError> {
        let proc = self.proc_ref(pid)?;
        proc.asp.read_bytes(&*self.phys, va, out)?;
        Ok(Costed::new(
            (),
            self.cost
                .tier_stream_read(self.alloc.home_tier(), out.len() as u64),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xemem_mem::{Pfn, PhysicalMemory};

    fn boot(frames: u64) -> (Kitten, Arc<PhysicalMemory>) {
        let phys = PhysicalMemory::new(frames);
        let alloc = FrameAllocator::new(Pfn(0), frames);
        let k = Kitten::new(CostModel::default(), phys.clone(), alloc);
        (k, phys)
    }

    #[test]
    fn spawn_maps_everything_statically() {
        let (mut k, _) = boot(32 << 8); // 32 MiB
        let pid = k.spawn(4 << 20).unwrap().value;
        let proc = k.procs.get(&pid).unwrap();
        // Every region translates without faulting, end to end.
        for region in proc.asp.regions() {
            assert!(proc.asp.page_table().translate(region.start).is_some());
            assert!(proc
                .asp
                .page_table()
                .translate(region.start + (region.len - 1))
                .is_some());
        }
        // Heap is physically contiguous.
        let (list, _) = proc
            .asp
            .page_table()
            .walk_range(layout::HEAP, 4 << 20)
            .unwrap();
        assert_eq!(list.run_count(), 1);
    }

    #[test]
    fn spawn_uses_large_pages_where_aligned() {
        let (mut k, _) = boot(32 << 8);
        let pid = k.spawn(4 << 20).unwrap().value;
        let proc = k.procs.get(&pid).unwrap();
        // The 4 MiB heap at a 2 MiB-aligned VA over contiguous frames
        // should have far fewer leaves than 4 KiB paging would need.
        let leaves = proc.asp.page_table().leaf_count();
        assert!(
            leaves < 1024,
            "expected large-page mappings, got {leaves} leaves"
        );
    }

    #[test]
    fn buffers_bump_allocate_and_exhaust() {
        let (mut k, _) = boot(32 << 8);
        let pid = k.spawn(1 << 20).unwrap().value;
        let a = k.alloc_buffer(pid, 4096).unwrap().value;
        let b = k.alloc_buffer(pid, 4096).unwrap().value;
        assert_eq!(b.0 - a.0, 4096);
        assert!(
            k.alloc_buffer(pid, 2 << 20).is_err(),
            "over-allocation must fail"
        );
    }

    #[test]
    fn export_walk_cost_matches_fig7_band() {
        let (mut k, _) = boot(1 << 20); // 4 GiB of frames
        let pid = k.spawn(1 << 30).unwrap().value;
        let va = k.alloc_buffer(pid, 1 << 30).unwrap().value;
        let walked = k.export_walk(pid, va, 1 << 30).unwrap();
        assert_eq!(walked.value.pages(), 262_144);
        let ms = walked.cost.as_secs_f64() * 1e3;
        assert!((22.0..25.0).contains(&ms), "1 GiB walk = {ms} ms");
    }

    #[test]
    fn attach_maps_remote_frames_into_arena() {
        let (mut k, phys) = boot(1 << 12);
        let pid = k.spawn(1 << 20).unwrap().value;
        // Pretend frames 3000..3004 came from a remote enclave.
        let remote = PfnList::from_pages((3000..3004).map(Pfn));
        phys.write(Pfn(3001).base(), b"remote!").unwrap();
        let attached = k
            .attach_map(pid, &remote, AttachSemantics::Eager, PteFlags::rw_user())
            .unwrap();
        let va = attached.value;
        assert!(va >= layout::ATTACH_ARENA);
        let mut buf = [0u8; 7];
        k.read(pid, va + 4096, &mut buf).unwrap();
        assert_eq!(&buf, b"remote!");
        // Cost is per page.
        let per_page = attached.cost.as_nanos() / 4;
        assert!((100..400).contains(&per_page), "per-page {per_page} ns");
    }

    #[test]
    fn lazy_attach_unsupported() {
        let (mut k, _) = boot(1 << 12);
        let pid = k.spawn(1 << 20).unwrap().value;
        let remote = PfnList::from_pages([Pfn(100)]);
        assert!(matches!(
            k.attach_map(pid, &remote, AttachSemantics::Lazy, PteFlags::rw_user()),
            Err(KernelError::Unsupported(_))
        ));
    }

    #[test]
    fn detach_unmaps_and_returns_frames() {
        let (mut k, _) = boot(1 << 12);
        let pid = k.spawn(1 << 20).unwrap().value;
        let remote = PfnList::from_pages((2000..2008).map(Pfn));
        let va = k
            .attach_map(pid, &remote, AttachSemantics::Eager, PteFlags::rw_user())
            .unwrap()
            .value;
        let freed = k.detach(pid, va + 4096).unwrap().value;
        assert_eq!(freed, remote);
        let mut buf = [0u8; 1];
        assert!(
            k.read(pid, va, &mut buf).is_err(),
            "detached range must fault"
        );
        // Detaching a non-attachment region is rejected.
        assert!(k.detach(pid, layout::HEAP).is_err());
    }

    #[test]
    fn smartmap_window_sees_peer_writes() {
        let (mut k, _) = boot(1 << 13);
        let a = k.spawn(1 << 20).unwrap().value;
        let b = k.spawn(1 << 20).unwrap().value;
        let buf = k.alloc_buffer(b, 4096).unwrap().value;
        k.write(b, buf, b"from b").unwrap();
        let attached = k.smartmap_attach(a, b).unwrap();
        let window = attached.value;
        // O(1) virtual cost regardless of peer size.
        assert!(attached.cost < SimDuration::from_micros(5));
        let mut got = [0u8; 6];
        k.read(a, VirtAddr(window.0 + buf.0), &mut got).unwrap();
        assert_eq!(&got, b"from b");
        // Writes propagate both ways: it is the same physical frame.
        k.write(a, VirtAddr(window.0 + buf.0), b"FROM A").unwrap();
        let mut back = [0u8; 6];
        k.read(b, buf, &mut back).unwrap();
        assert_eq!(&back, b"FROM A");
    }

    #[test]
    fn exit_returns_frames() {
        let (mut k, _) = boot(1 << 12);
        let before = k.free_frames();
        let pid = k.spawn(1 << 20).unwrap().value;
        assert!(k.free_frames() < before);
        k.exit(pid).unwrap();
        assert_eq!(k.free_frames(), before);
        assert!(matches!(k.exit(pid), Err(KernelError::NoSuchProcess(_))));
    }

    #[test]
    fn spawn_rejects_when_partition_exhausted() {
        let (mut k, _) = boot(1 << 10); // 4 MiB only
        assert!(k.spawn(16 << 20).is_err());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use xemem_mem::{Pfn, PhysicalMemory};

    fn boot(frames: u64) -> Kitten {
        let phys = PhysicalMemory::new(frames);
        let alloc = FrameAllocator::new(Pfn(0), frames);
        Kitten::new(CostModel::default(), phys, alloc)
    }

    #[test]
    fn smartmap_windows_for_multiple_peers_coexist() {
        let mut k = boot(1 << 14);
        let a = k.spawn(1 << 20).unwrap().value;
        let b = k.spawn(1 << 20).unwrap().value;
        let c = k.spawn(1 << 20).unwrap().value;
        let wb = k.smartmap_attach(a, b).unwrap().value;
        let wc = k.smartmap_attach(a, c).unwrap().value;
        assert_ne!(wb, wc, "each peer gets its own top-level slot");
        let bufb = k.alloc_buffer(b, 4096).unwrap().value;
        let bufc = k.alloc_buffer(c, 4096).unwrap().value;
        k.write(b, bufb, b"peer b").unwrap();
        k.write(c, bufc, b"peer c").unwrap();
        let mut got = [0u8; 6];
        k.read(a, VirtAddr(wb.0 + bufb.0), &mut got).unwrap();
        assert_eq!(&got, b"peer b");
        k.read(a, VirtAddr(wc.0 + bufc.0), &mut got).unwrap();
        assert_eq!(&got, b"peer c");
    }

    #[test]
    fn smartmap_self_attachment_rejected() {
        let mut k = boot(1 << 13);
        let a = k.spawn(1 << 20).unwrap().value;
        assert!(matches!(
            k.smartmap_attach(a, a),
            Err(KernelError::Unsupported(_))
        ));
        // Unknown peer also fails.
        assert!(k.smartmap_attach(a, Pid(99)).is_err());
    }

    #[test]
    fn multiple_attachments_in_the_arena_do_not_collide() {
        let mut k = boot(1 << 13);
        let pid = k.spawn(1 << 20).unwrap().value;
        let mut vas = Vec::new();
        for i in 0..16u64 {
            let list = PfnList::from_pages((4000 + i * 8..4000 + i * 8 + 8).map(Pfn));
            let va = k
                .attach_map(pid, &list, AttachSemantics::Eager, PteFlags::rw_user())
                .unwrap()
                .value;
            vas.push(va);
        }
        vas.sort_by_key(|v| v.0);
        for w in vas.windows(2) {
            assert!(w[1].0 - w[0].0 >= 8 * 4096, "arena regions overlap");
        }
        // Detach half, reattach, still consistent.
        for va in vas.iter().step_by(2) {
            k.detach(pid, *va).unwrap();
        }
        let list = PfnList::from_pages((5000..5032).map(Pfn));
        k.attach_map(pid, &list, AttachSemantics::Eager, PteFlags::rw_user())
            .unwrap();
    }

    #[test]
    fn export_walk_rejects_unmapped_ranges() {
        let mut k = boot(1 << 13);
        let pid = k.spawn(1 << 20).unwrap().value;
        // Past the end of the statically mapped stack region.
        assert!(k
            .export_walk(pid, VirtAddr(0xDEAD_0000_0000), 4096)
            .is_err());
    }

    #[test]
    fn migrate_region_moves_data_and_ownership_across_tiers() {
        use xemem_sim::MemTier;
        let phys = PhysicalMemory::new(1 << 14);
        let mut alloc = FrameAllocator::new(Pfn(0), 1 << 13);
        alloc.push_range(MemTier::Nvm, Pfn(1 << 13), 1 << 13);
        let mut k = Kitten::new(CostModel::default(), phys, alloc);
        let pid = k.spawn(4 << 20).unwrap().value;
        let va = k.alloc_buffer(pid, 2 << 20).unwrap().value;
        k.write(pid, va, b"tiered payload").unwrap();
        let before_nvm = k.tier_free_frames(MemTier::Nvm).unwrap();
        let out = k.migrate_region(pid, va, 2 << 20, MemTier::Nvm).unwrap();
        assert_eq!(out.value.pages, 512);
        assert_eq!(out.value.moved_by_tier[MemTier::LocalDram.index()], 512);
        assert_eq!(
            k.tier_free_frames(MemTier::Nvm).unwrap(),
            before_nvm - 512,
            "destination frames come from the NVM range"
        );
        // Data survives the move and reads back through the same VA.
        let mut got = [0u8; 14];
        k.read(pid, va, &mut got).unwrap();
        assert_eq!(&got, b"tiered payload");
        // The new frames live in the NVM range and are now owned, so
        // exit returns every frame (no leaks either way).
        let free_before_exit = k.free_frames();
        k.exit(pid).unwrap();
        assert!(k.free_frames() > free_before_exit);
        // Migrating to an unconfigured tier is a clean error.
        let pid2 = k.spawn(1 << 20).unwrap().value;
        let va2 = k.alloc_buffer(pid2, 1 << 20).unwrap().value;
        assert!(matches!(
            k.migrate_region(pid2, va2, 1 << 20, MemTier::Cxl),
            Err(KernelError::Unsupported(_))
        ));
    }

    #[test]
    fn remap_attached_repoints_live_attachments() {
        let phys = PhysicalMemory::new(1 << 13);
        let alloc = FrameAllocator::new(Pfn(0), 1 << 12);
        let mut k = Kitten::new(CostModel::default(), phys.clone(), alloc);
        let pid = k.spawn(1 << 20).unwrap().value;
        let old = PfnList::from_pages((6000..6004).map(Pfn));
        phys.write(Pfn(6000).base(), b"old frames").unwrap();
        let va = k
            .attach_map(pid, &old, AttachSemantics::Eager, PteFlags::rw_user())
            .unwrap()
            .value;
        let new = PfnList::from_pages((7000..7004).map(Pfn));
        phys.write(Pfn(7000).base(), b"new frames").unwrap();
        let remapped = k.remap_attached(pid, va, &new).unwrap();
        assert_eq!(remapped.value, 4);
        let mut got = [0u8; 10];
        k.read(pid, va, &mut got).unwrap();
        assert_eq!(&got, b"new frames");
        // Length mismatch is rejected before any unmapping.
        let short = PfnList::from_pages([Pfn(7100)]);
        assert!(k.remap_attached(pid, va, &short).is_err());
        k.read(pid, va, &mut got).unwrap();
        assert_eq!(&got, b"new frames");
    }

    #[test]
    fn read_only_attachment_blocks_writes_in_lwk() {
        let mut k = boot(1 << 13);
        let pid = k.spawn(1 << 20).unwrap().value;
        let list = PfnList::from_pages((3000..3004).map(Pfn));
        let va = k
            .attach_map(pid, &list, AttachSemantics::Eager, PteFlags::ro_user())
            .unwrap()
            .value;
        let mut b = [0u8; 1];
        k.read(pid, va, &mut b).unwrap();
        assert!(k.write(pid, va, b"x").is_err());
    }
}
