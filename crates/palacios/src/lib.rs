//! # xemem-palacios
//!
//! A simulator of the Palacios lightweight virtual machine monitor as
//! extended for XEMEM (paper §4.4, Fig. 4). The pieces that matter:
//!
//! * **Guest physical address space** — the guest OS runs unmodified over
//!   a GPA space; a *memory map* translates GPA→HPA. At boot the map holds
//!   a handful of entries (guest RAM is carved from large physically
//!   contiguous host blocks). XEMEM attachments hot-plug new GPA regions
//!   whose host frames are not guaranteed contiguous, growing the map —
//!   by default one entry per page, exactly as the paper describes.
//! * **The memory map is pluggable** — a from-scratch red-black interval
//!   tree (the paper's implementation) or a page-table-shaped radix tree
//!   (the paper's stated future work), both from `xemem-collections`,
//!   both charging virtual time for real structural work. This is what
//!   makes Table 2 and the `ablation_memmap` bench emerge from the data
//!   structure.
//! * **Virtual PCI device** — a doorbell + PFN-list mailbox used for
//!   host→guest (virtual IRQ) and guest→host (hypercall) notification
//!   (paper §4.4–4.5).
//!
//! The guest kernel is any [`MappingKernel`] (the paper runs stock CentOS
//! Linux guests — our FWK — but the design is OS-independent), constructed
//! over a [`GuestPhys`] view so guest byte traffic really translates
//! through the memory map into host frames.

use parking_lot::RwLock;
use std::sync::Arc;

use xemem_collections::{
    BatchReport, Batches, GuestMemoryMap, RadixMemoryMap, RbMemoryMap, Segment,
};
use xemem_mem::kernel::{AttachSemantics, KernelError, MappingKernel, Pid};
use xemem_mem::{
    FrameAllocator, MemError, Pfn, PfnList, PhysAccess, PhysAddr, VirtAddr, PAGE_SIZE,
};
use xemem_sim::{CostModel, Costed, SimDuration};

/// Which structure backs the VMM memory map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryMapKind {
    /// Red-black interval tree (the paper's implementation).
    RbTree,
    /// Page-table-shaped radix tree (the paper's future work).
    Radix,
}

/// Whether contiguous host-frame runs are coalesced into single map
/// entries. The paper's implementation does not coalesce ("a new entry
/// ... for each host page frame"); enabling this is an ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coalescing {
    /// One map entry per 4 KiB page (paper behaviour).
    PerPage,
    /// One map entry per contiguous host run (ablation).
    Runs,
}

/// The VMM memory map, shared by the VMM (updates) and the guest's
/// physical view (translations).
type SharedMap = Arc<RwLock<Box<dyn GuestMemoryMap + Send + Sync>>>;

/// The guest-physical view handed to the guest kernel: every byte access
/// translates GPA→HPA through the VMM memory map (nested paging on the
/// data path is free at run time; only map *updates* cost).
pub struct GuestPhys {
    map: SharedMap,
    host: Arc<dyn PhysAccess>,
}

impl GuestPhys {
    /// The host address behind `at`, and the bytes from `at` to the end of
    /// its map entry: contiguous in guest and host memory alike.
    fn translate(&self, at: PhysAddr) -> Result<(PhysAddr, usize), MemError> {
        let (hpfn, frames) = self
            .map
            .read()
            .translate_run(at.pfn().0)
            .ok_or(MemError::BadPhysAccess(at.pfn()))?;
        let span = frames * PAGE_SIZE - at.page_offset();
        Ok((
            Pfn(hpfn).base() + at.page_offset(),
            usize::try_from(span).unwrap_or(usize::MAX),
        ))
    }
}

impl PhysAccess for GuestPhys {
    /// One translation per map entry the bytes span: each entry may land
    /// anywhere in host memory.
    fn write(&self, at: PhysAddr, data: &[u8]) -> Result<(), MemError> {
        let mut remaining = data;
        let mut cur = at;
        while !remaining.is_empty() {
            let (hpa, span) = self.translate(cur)?;
            let take = remaining.len().min(span);
            self.host.write(hpa, &remaining[..take])?;
            remaining = &remaining[take..];
            cur = cur + take as u64;
        }
        Ok(())
    }

    fn read(&self, at: PhysAddr, out: &mut [u8]) -> Result<(), MemError> {
        let mut filled = 0usize;
        let mut cur = at;
        while filled < out.len() {
            let (hpa, span) = self.translate(cur)?;
            let take = (out.len() - filled).min(span);
            self.host.read(hpa, &mut out[filled..filled + take])?;
            filled += take;
            cur = cur + take as u64;
        }
        Ok(())
    }

    /// Translate each guest run through the memory map, one translation
    /// per map entry it spans, and discard the host frames behind it.
    fn discard(&self, frames: &PfnList) -> Result<(), MemError> {
        let mut host = PfnList::new();
        let map = self.map.read();
        for run in frames.runs() {
            let (mut gfn, end) = (run.start.0, run.start.0 + run.len);
            while gfn < end {
                let (hpfn, left) = map
                    .translate_run(gfn)
                    .ok_or(MemError::BadPhysAccess(Pfn(gfn)))?;
                let covered = left.min(end - gfn);
                host.push_run(Pfn(hpfn), covered);
                gfn += covered;
            }
        }
        drop(map);
        self.host.discard(&host)
    }
}

/// The virtual PCI notification device: a command mailbox plus a PFN-list
/// buffer (paper §4.4–4.5). Transfers through it are charged per entry.
#[derive(Debug, Default)]
pub struct VirtPciDevice {
    /// PFN-list mailbox contents, run-length encoded so loads and
    /// unloads are O(runs) on the host (the per-entry copy is still
    /// charged per page).
    buffer: PfnList,
    /// Doorbells rung into the guest (virtual IRQs).
    irqs_raised: u64,
    /// Doorbells rung into the host (hypercalls).
    hypercalls: u64,
}

impl VirtPciDevice {
    /// Copy a PFN list into the device buffer.
    fn load(&mut self, pfns: &PfnList) {
        self.buffer = pfns.clone();
    }

    /// Read the buffer back as a PFN list.
    fn unload(&self) -> PfnList {
        self.buffer.clone()
    }

    /// Count of virtual IRQs delivered to the guest.
    pub fn irqs_raised(&self) -> u64 {
        self.irqs_raised
    }

    /// Count of hypercalls taken from the guest.
    pub fn hypercalls(&self) -> u64 {
        self.hypercalls
    }
}

/// Timing breakdown of a guest-side attachment (Fig. 4(a)), used to
/// report Table 2's "(w/o rb-tree inserts)" column and the ~80%
/// map-update share of §5.4.
#[derive(Debug, Clone, Copy)]
pub struct AttachBreakdown {
    /// Guest virtual address of the new mapping.
    pub va: VirtAddr,
    /// End-to-end virtual time.
    pub total: SimDuration,
    /// Time spent in the memory-map search structure (RB/radix inserts).
    pub map_structure: SimDuration,
    /// Time spent on other memory-map bookkeeping.
    pub map_bookkeep: SimDuration,
    /// Notification costs (PCI copies + IRQ).
    pub notify: SimDuration,
    /// Guest-side page-table installation.
    pub guest_map: SimDuration,
}

impl AttachBreakdown {
    /// Total time excluding the search-structure updates — Table 2's
    /// parenthesized column.
    pub fn without_map_structure(&self) -> SimDuration {
        self.total - self.map_structure
    }

    /// Fraction of total time spent updating the guest memory map
    /// (structure + bookkeeping) — §5.4 reports ~80%.
    pub fn map_update_fraction(&self) -> f64 {
        (self.map_structure + self.map_bookkeep).as_secs_f64() / self.total.as_secs_f64()
    }

    /// The four charged components in the order they occur. Their sum is
    /// `total` exactly (by construction in `guest_attach_prot`), which
    /// is what lets tracing attribute a VM attach install leaf-by-leaf
    /// without breaking cost conservation.
    pub fn components(&self) -> [SimDuration; 4] {
        [
            self.map_structure,
            self.map_bookkeep,
            self.notify,
            self.guest_map,
        ]
    }
}

/// The Palacios VMM instance for one VM enclave.
pub struct Vmm {
    cost: CostModel,
    map: SharedMap,
    guest: Box<dyn MappingKernel>,
    pci: VirtPciDevice,
    /// Number of guest RAM frames (GPA frames below this are RAM).
    ram_frames: u64,
    /// Next hot-plug GPA frame (bump allocated above guest RAM).
    hotplug_next_gfn: u64,
    coalescing: Coalescing,
    kind: MemoryMapKind,
}

impl Vmm {
    /// Launch a VM: carve `guest_ram_bytes` of physically contiguous host
    /// memory from `host_alloc`, seed the memory map with the single RAM
    /// entry, and boot the guest kernel over the guest-physical view.
    ///
    /// `mk_guest` receives the guest-physical access handle and a frame
    /// allocator over guest RAM — exactly what a kernel needs to boot.
    pub fn launch(
        cost: CostModel,
        host_phys: Arc<dyn PhysAccess>,
        host_alloc: &mut FrameAllocator,
        guest_ram_bytes: u64,
        kind: MemoryMapKind,
        mk_guest: impl FnOnce(Arc<dyn PhysAccess>, FrameAllocator) -> Box<dyn MappingKernel>,
    ) -> Result<Vmm, KernelError> {
        let ram_frames = guest_ram_bytes.div_ceil(PAGE_SIZE);
        // Guest RAM is one large physically contiguous block — the paper
        // notes Palacios manages "large blocks of physically contiguous
        // memory" so boot-time maps are small.
        let host_base = host_alloc.alloc_contiguous(ram_frames)?;
        let mut inner: Box<dyn GuestMemoryMap + Send + Sync> = match kind {
            MemoryMapKind::RbTree => Box::new(RbMemoryMap::new()),
            MemoryMapKind::Radix => Box::new(RadixMemoryMap::new()),
        };
        inner
            .insert(0, ram_frames, host_base.0)
            .expect("empty map cannot overlap");
        let map = Arc::new(RwLock::new(inner));
        let guest_phys: Arc<dyn PhysAccess> = Arc::new(GuestPhys {
            map: map.clone(),
            host: host_phys,
        });
        let guest_alloc = FrameAllocator::new(Pfn(0), ram_frames);
        let guest = mk_guest(guest_phys, guest_alloc);
        Ok(Vmm {
            cost,
            map,
            guest,
            pci: VirtPciDevice::default(),
            ram_frames,
            hotplug_next_gfn: ram_frames,
            coalescing: Coalescing::PerPage,
            kind,
        })
    }

    /// Switch entry coalescing policy (ablation; paper default is
    /// [`Coalescing::PerPage`]).
    pub fn set_coalescing(&mut self, c: Coalescing) {
        self.coalescing = c;
    }

    /// Which structure backs the memory map.
    pub fn map_kind(&self) -> MemoryMapKind {
        self.kind
    }

    /// Current number of memory-map entries.
    pub fn map_entries(&self) -> usize {
        self.map.read().len()
    }

    /// How the memory map served its hot-plug batches: held in closed
    /// form or linked for real.
    pub fn map_batches(&self) -> Batches {
        self.map.read().batches()
    }

    /// The virtual PCI device (counters).
    pub fn pci(&self) -> &VirtPciDevice {
        &self.pci
    }

    /// Direct access to the guest kernel, for process management and
    /// application I/O inside the VM.
    pub fn guest_mut(&mut self) -> &mut dyn MappingKernel {
        &mut *self.guest
    }

    /// Immutable access to the guest kernel.
    pub fn guest(&self) -> &dyn MappingKernel {
        &*self.guest
    }

    /// Cost of a batch of search-structure operations: a base cost per
    /// operation (RB) plus a cost per node or level visited. Exactly the
    /// sum of the per-operation charges.
    fn structure_cost(&self, report: BatchReport) -> SimDuration {
        SimDuration::from_nanos(match self.kind {
            MemoryMapKind::RbTree => {
                self.cost.rb_insert_base_ns * report.ops + self.cost.rb_level_ns * report.visits
            }
            MemoryMapKind::Radix => self.cost.radix_level_ns * report.visits,
        })
    }

    /// Fig. 4(a): a guest process attaches to memory exported by the host
    /// side (a host PFN list arriving from the XEMEM protocol).
    ///
    /// Steps (paper numbering): (1) allocate new guest pages, (2) map them
    /// to the host frames in the VMM memory map, (3) copy the new guest
    /// page list to the virtual PCI device, (4) raise a virtual IRQ,
    /// (5) the guest maps the pages into the attaching process.
    pub fn guest_attach(
        &mut self,
        guest_pid: Pid,
        host_pfns: &PfnList,
    ) -> Result<AttachBreakdown, KernelError> {
        self.guest_attach_prot(guest_pid, host_pfns, xemem_mem::PteFlags::rw_user())
    }

    /// [`Self::guest_attach`] with an explicit guest-side protection
    /// (read-only permission grants).
    pub fn guest_attach_prot(
        &mut self,
        guest_pid: Pid,
        host_pfns: &PfnList,
        prot: xemem_mem::PteFlags,
    ) -> Result<AttachBreakdown, KernelError> {
        let pages = host_pfns.pages();
        // (1) New GPA region, bump-allocated above RAM.
        let gpa_base = self.hotplug_next_gfn;
        self.hotplug_next_gfn += pages;

        // (2) Memory-map updates: one entry per page (paper) or per run
        // (ablation), ascending above every existing entry.
        let per_page = self.coalescing == Coalescing::PerPage;
        let report = self
            .map
            .write()
            .insert_ascending(&mut host_pfns.runs().iter().scan(gpa_base, |gfn, run| {
                let (len, count) = if per_page { (1, run.len) } else { (run.len, 1) };
                let segment = Segment {
                    gfn: *gfn,
                    len,
                    hpfn: run.start.0,
                    count,
                };
                *gfn += run.len;
                Some(segment)
            }))
            .map_err(|_| KernelError::Unsupported("GPA overlap"))?;
        let map_structure = self.structure_cost(report);
        let map_bookkeep = SimDuration::from_nanos(self.cost.vmm_map_bookkeep_ns).times(report.ops);

        // (3) Copy the new guest frame list through the PCI device and
        // (4) raise the IRQ.
        let mut guest_list = PfnList::new();
        guest_list.push_run(Pfn(gpa_base), pages);
        self.pci.load(&guest_list);
        self.pci.irqs_raised += 1;
        let notify = SimDuration::from_nanos(self.cost.pci_pfn_copy_ns).times(pages)
            + SimDuration::from_nanos(self.cost.guest_irq_ns);

        // (5) Guest maps the new guest pages into the attaching process.
        let delivered = self.pci.unload();
        let mapped = self
            .guest
            .attach_map(guest_pid, &delivered, AttachSemantics::Eager, prot)?;

        Ok(AttachBreakdown {
            va: mapped.value,
            total: map_structure + map_bookkeep + notify + mapped.cost,
            map_structure,
            map_bookkeep,
            notify,
            guest_map: mapped.cost,
        })
    }

    /// Fig. 4(b): the host generates a *host* PFN list for a region
    /// exported by a guest process, so it can be mapped locally or
    /// forwarded to another enclave.
    ///
    /// Steps: (1) guest walks its page tables and copies guest frames to
    /// the PCI device, (2) hypercall into the host, (3–4) VMM walks the
    /// memory map per guest frame to produce host frames.
    pub fn host_walk_guest_region(
        &mut self,
        guest_pid: Pid,
        va: VirtAddr,
        len: u64,
    ) -> Result<Costed<PfnList>, KernelError> {
        // (1) Guest-side export walk (pin + walk inside the guest).
        let walked = self.guest.export_walk(guest_pid, va, len)?;
        let pages = walked.value.pages();
        self.pci.load(&walked.value);
        let copy_in = SimDuration::from_nanos(self.cost.pci_pfn_copy_ns).times(pages);

        // (2) Hypercall.
        self.pci.hypercalls += 1;
        let hypercall = SimDuration::from_nanos(self.cost.hypercall_ns);

        // (3–4) Translate the guest frames through the memory map — one
        // map descent per *entry* rather than per frame. Frames sharing
        // an entry resolve through the same search path, so the batched
        // charge is exactly `covered` individual lookups.
        let guest_frames = self.pci.unload();
        let mut host_list = PfnList::new();
        let mut translate = SimDuration::ZERO;
        {
            let mut map = self.map.write();
            for run in guest_frames.runs() {
                let mut gfn = run.start.0;
                let end = run.start.0 + run.len;
                while gfn < end {
                    let ((hpfn, covered), report) = map
                        .lookup_run(gfn, end - gfn)
                        .map_err(|_| KernelError::Mem(MemError::BadPhysAccess(Pfn(gfn))))?;
                    host_list.push_run(Pfn(hpfn), covered);
                    translate += self.cost.vmm_translate(report.visits, covered);
                    gfn += covered;
                }
            }
        }
        Ok(Costed::new(
            host_list,
            walked.cost + copy_in + hypercall + translate,
        ))
    }

    /// Detach a guest attachment: unmap in the guest, then hypercall into
    /// the VMM to remove the hot-plugged memory-map entries.
    pub fn guest_detach(
        &mut self,
        guest_pid: Pid,
        va: VirtAddr,
    ) -> Result<Costed<()>, KernelError> {
        let detached = self.guest.detach(guest_pid, va)?;
        self.pci.hypercalls += 1;
        let mut cost = detached.cost + SimDuration::from_nanos(self.cost.hypercall_ns);
        let mut map = self.map.write();
        for run in detached.value.runs() {
            // Hot-plugged entries only; guest RAM stays.
            let start = run.start.0.max(self.hotplug_start());
            let end = run.start.0 + run.len;
            if start < end {
                cost += self.structure_cost(map.remove_range(start, end - start));
            }
        }
        Ok(Costed::new((), cost))
    }

    /// Teardown protocol: deliver a revocation notice for a guest
    /// attachment. The VMM rings the notification device's doorbell into
    /// the guest (virtual IRQ), whose reaper then detaches — unmapping the
    /// guest pages and retiring the hot-plugged memory-map entries.
    pub fn revoke_guest_attachment(
        &mut self,
        guest_pid: Pid,
        va: VirtAddr,
    ) -> Result<Costed<()>, KernelError> {
        self.pci.irqs_raised += 1;
        let irq = SimDuration::from_nanos(self.cost.guest_irq_ns);
        let detached = self.guest_detach(guest_pid, va)?;
        Ok(Costed::new((), irq + detached.cost))
    }

    /// First hot-pluggable GPA frame: everything below is guest RAM and
    /// never removed by detach.
    fn hotplug_start(&self) -> u64 {
        self.ram_frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xemem_fwk::Fwk;
    use xemem_mem::PhysicalMemory;

    const GUEST_RAM: u64 = 64 << 20; // 64 MiB

    fn launch(kind: MemoryMapKind) -> (Vmm, Arc<PhysicalMemory>, FrameAllocator) {
        let phys = PhysicalMemory::new(1 << 16); // 256 MiB host
        let mut host_alloc = FrameAllocator::new(Pfn(0), 1 << 16);
        let cost = CostModel::default();
        let guest_cost = cost.clone();
        let vmm = Vmm::launch(
            cost,
            phys.clone(),
            &mut host_alloc,
            GUEST_RAM,
            kind,
            |gp, ga| Box::new(Fwk::new(guest_cost, gp, ga)),
        )
        .unwrap();
        (vmm, phys, host_alloc)
    }

    #[test]
    fn boot_map_is_small() {
        let (vmm, _, _) = launch(MemoryMapKind::RbTree);
        assert_eq!(
            vmm.map_entries(),
            1,
            "guest RAM should be one contiguous entry"
        );
    }

    #[test]
    fn guest_process_io_translates_through_memory_map() {
        let (mut vmm, phys, _) = launch(MemoryMapKind::RbTree);
        let pid = vmm.guest_mut().spawn(1 << 20).unwrap().value;
        let va = vmm.guest_mut().alloc_buffer(pid, 8192).unwrap().value;
        vmm.guest_mut().write(pid, va, b"inside the vm").unwrap();
        let mut back = [0u8; 13];
        vmm.guest_mut().read(pid, va, &mut back).unwrap();
        assert_eq!(&back, b"inside the vm");
        // The bytes physically live inside the carved host RAM block, not
        // at the raw GPA.
        let mut found = false;
        for f in 0..(GUEST_RAM / PAGE_SIZE) {
            let mut probe = [0u8; 13];
            phys.read(Pfn(f).base(), &mut probe).unwrap();
            if &probe == b"inside the vm" {
                found = true;
                break;
            }
        }
        assert!(found, "guest bytes must land in host frames");
    }

    #[test]
    fn guest_attach_maps_host_frames_per_page() {
        let (mut vmm, phys, mut host_alloc) = launch(MemoryMapKind::RbTree);
        let pid = vmm.guest_mut().spawn(1 << 20).unwrap().value;
        // Host-side frames (e.g. exported by a Kitten process).
        let list = host_alloc.alloc_pages(8).unwrap();
        let frame3 = list.page(3).unwrap();
        phys.write(frame3.base(), b"host data").unwrap();
        let entries_before = vmm.map_entries();
        let breakdown = vmm.guest_attach(pid, &list).unwrap();
        // Paper behaviour: one new map entry per page.
        assert_eq!(vmm.map_entries(), entries_before + 8);
        assert_eq!(vmm.pci().irqs_raised(), 1);
        // The guest reads the host's bytes through the new mapping.
        let mut got = [0u8; 9];
        vmm.guest_mut()
            .read(pid, breakdown.va + 3 * 4096, &mut got)
            .unwrap();
        assert_eq!(&got, b"host data");
        // And guest writes become visible to the host.
        vmm.guest_mut()
            .write(pid, breakdown.va + 3 * 4096, b"GUEST OUT")
            .unwrap();
        let mut host_view = [0u8; 9];
        phys.read(frame3.base(), &mut host_view).unwrap();
        assert_eq!(&host_view, b"GUEST OUT");
    }

    #[test]
    fn attach_breakdown_shows_map_update_dominance() {
        // Reproduce the §5.4 measurement in miniature: attach a large
        // region and check ~80% of time is memory-map updates and that
        // removing structure time speeds things up ~2.2x.
        let (mut vmm, _, mut host_alloc) = launch(MemoryMapKind::RbTree);
        let pid = vmm.guest_mut().spawn(1 << 20).unwrap().value;
        let list = host_alloc.alloc_pages(16_384).unwrap(); // 64 MiB
        let b = vmm.guest_attach(pid, &list).unwrap();
        let frac = b.map_update_fraction();
        assert!((0.6..0.95).contains(&frac), "map-update fraction = {frac}");
        let speedup = b.total.as_secs_f64() / b.without_map_structure().as_secs_f64();
        assert!(
            (1.5..3.0).contains(&speedup),
            "w/o-structure speedup = {speedup}"
        );
    }

    #[test]
    fn radix_map_attach_is_cheaper_than_rb() {
        let (mut rb_vmm, _, mut a1) = launch(MemoryMapKind::RbTree);
        let (mut rx_vmm, _, mut a2) = launch(MemoryMapKind::Radix);
        let p1 = rb_vmm.guest_mut().spawn(1 << 20).unwrap().value;
        let p2 = rx_vmm.guest_mut().spawn(1 << 20).unwrap().value;
        let l1 = a1.alloc_pages(8192).unwrap();
        let l2 = a2.alloc_pages(8192).unwrap();
        let b1 = rb_vmm.guest_attach(p1, &l1).unwrap();
        let b2 = rx_vmm.guest_attach(p2, &l2).unwrap();
        assert!(
            b2.map_structure < b1.map_structure,
            "radix {} !< rb {}",
            b2.map_structure,
            b1.map_structure
        );
    }

    #[test]
    fn coalescing_ablation_collapses_entries() {
        let (mut vmm, _, mut host_alloc) = launch(MemoryMapKind::RbTree);
        vmm.set_coalescing(Coalescing::Runs);
        let pid = vmm.guest_mut().spawn(1 << 20).unwrap().value;
        // Contiguous host frames (LWK-exported memory is contiguous).
        let base = host_alloc.alloc_contiguous(1024).unwrap();
        let mut list = PfnList::new();
        list.push_run(base, 1024);
        let before = vmm.map_entries();
        let b = vmm.guest_attach(pid, &list).unwrap();
        assert_eq!(vmm.map_entries(), before + 1, "one run ⇒ one entry");
        assert!(b.map_structure < SimDuration::from_micros(2));
    }

    #[test]
    fn host_walk_translates_guest_frames_back() {
        let (mut vmm, phys, _) = launch(MemoryMapKind::RbTree);
        let pid = vmm.guest_mut().spawn(1 << 20).unwrap().value;
        let va = vmm.guest_mut().alloc_buffer(pid, 16 * 4096).unwrap().value;
        vmm.guest_mut()
            .write(pid, va, b"exported from guest")
            .unwrap();
        let walked = vmm.host_walk_guest_region(pid, va, 16 * 4096).unwrap();
        assert_eq!(walked.value.pages(), 16);
        assert_eq!(vmm.pci().hypercalls(), 1);
        // The host list points at real host frames holding the guest's
        // bytes.
        let mut probe = [0u8; 19];
        phys.read(walked.value.page(0).unwrap().base(), &mut probe)
            .unwrap();
        assert_eq!(&probe, b"exported from guest");
    }

    #[test]
    fn guest_detach_shrinks_the_map() {
        let (mut vmm, _, mut host_alloc) = launch(MemoryMapKind::RbTree);
        let pid = vmm.guest_mut().spawn(1 << 20).unwrap().value;
        let list = host_alloc.alloc_pages(32).unwrap();
        let before = vmm.map_entries();
        let b = vmm.guest_attach(pid, &list).unwrap();
        assert_eq!(vmm.map_entries(), before + 32);
        vmm.guest_detach(pid, b.va).unwrap();
        assert_eq!(vmm.map_entries(), before, "hot-plugged entries removed");
    }

    #[test]
    fn table2_guest_attach_throughput_band() {
        // 64 MiB attach through the RB map should land in the upper-3s /
        // low-4s GB/s band (Table 2 row 2: 3.991 GB/s at 1 GiB; smaller
        // regions run slightly faster because the tree is shallower).
        let (mut vmm, _, mut host_alloc) = launch(MemoryMapKind::RbTree);
        let pid = vmm.guest_mut().spawn(1 << 20).unwrap().value;
        let pages = 16_384u64;
        let list = host_alloc.alloc_pages(pages).unwrap();
        let b = vmm.guest_attach(pid, &list).unwrap();
        let gbps = (pages * 4096) as f64 / b.total.as_secs_f64() / 1e9;
        assert!((3.5..6.0).contains(&gbps), "guest attach = {gbps} GB/s");
        let no_rb = (pages * 4096) as f64 / b.without_map_structure().as_secs_f64() / 1e9;
        assert!((8.0..11.5).contains(&no_rb), "w/o rb = {no_rb} GB/s");
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use xemem_collections::OpReport;
    use xemem_fwk::Fwk;
    use xemem_kitten::Kitten;
    use xemem_mem::PhysicalMemory;
    use xemem_sim::rng::SimRng;

    fn launch_with(
        kind: MemoryMapKind,
        guest_lwk: bool,
    ) -> (Vmm, Arc<PhysicalMemory>, FrameAllocator) {
        let phys = PhysicalMemory::new(1 << 16);
        let mut host_alloc = FrameAllocator::new(Pfn(0), 1 << 16);
        let cost = CostModel::default();
        let gc = cost.clone();
        let vmm = Vmm::launch(
            cost,
            phys.clone(),
            &mut host_alloc,
            64 << 20,
            kind,
            |gp, ga| {
                if guest_lwk {
                    Box::new(Kitten::new(gc, gp, ga)) as Box<dyn MappingKernel>
                } else {
                    Box::new(Fwk::new(gc, gp, ga))
                }
            },
        )
        .unwrap();
        (vmm, phys, host_alloc)
    }

    #[test]
    fn radix_map_guest_data_path_round_trips() {
        // The data path must be identical under the radix map: guest
        // writes land in host frames and host-provided frames are
        // readable from the guest.
        let (mut vmm, phys, mut host_alloc) = launch_with(MemoryMapKind::Radix, false);
        let pid = vmm.guest_mut().spawn(1 << 20).unwrap().value;
        let frames = host_alloc.alloc_pages(4).unwrap();
        phys.write(frames.page(2).unwrap().base(), b"radix path")
            .unwrap();
        let b = vmm.guest_attach(pid, &frames).unwrap();
        let mut got = [0u8; 10];
        vmm.guest_mut()
            .read(pid, b.va + 2 * 4096, &mut got)
            .unwrap();
        assert_eq!(&got, b"radix path");
        vmm.guest_mut().write(pid, b.va, b"back at ya").unwrap();
        let mut host_view = [0u8; 10];
        phys.read(frames.page(0).unwrap().base(), &mut host_view)
            .unwrap();
        assert_eq!(&host_view, b"back at ya");
    }

    #[test]
    fn lwk_guest_works_inside_the_vmm() {
        // The paper's design is guest-OS independent: run a Kitten guest.
        let (mut vmm, _, mut host_alloc) = launch_with(MemoryMapKind::RbTree, true);
        let pid = vmm.guest_mut().spawn(4 << 20).unwrap().value;
        let frames = host_alloc.alloc_pages(8).unwrap();
        let b = vmm.guest_attach(pid, &frames).unwrap();
        let mut probe = [0u8; 1];
        vmm.guest_mut().read(pid, b.va, &mut probe).unwrap();
        // Export back out of the LWK guest.
        let buf = vmm.guest_mut().alloc_buffer(pid, 1 << 20).unwrap().value;
        let walked = vmm.host_walk_guest_region(pid, buf, 1 << 20).unwrap();
        assert_eq!(walked.value.pages(), 256);
    }

    #[test]
    fn pci_counters_track_notifications() {
        let (mut vmm, _, mut host_alloc) = launch_with(MemoryMapKind::RbTree, false);
        let pid = vmm.guest_mut().spawn(1 << 20).unwrap().value;
        assert_eq!(vmm.pci().irqs_raised(), 0);
        assert_eq!(vmm.pci().hypercalls(), 0);
        // Attach rings the guest (IRQ); detach and the export walk ring
        // the host (hypercall).
        let (mut attaches, mut detaches, mut walks) = (0, 0, 0);
        for _ in 0..3 {
            let frames = host_alloc.alloc_pages(2).unwrap();
            let b = vmm.guest_attach(pid, &frames).unwrap();
            attaches += 1;
            assert_eq!(vmm.pci().irqs_raised(), attaches);
            vmm.guest_detach(pid, b.va).unwrap();
            detaches += 1;
            assert_eq!(vmm.pci().hypercalls(), walks + detaches);
        }
        let buf = vmm.guest_mut().alloc_buffer(pid, 8192).unwrap().value;
        vmm.host_walk_guest_region(pid, buf, 8192).unwrap();
        walks += 1;
        assert_eq!(vmm.pci().hypercalls(), walks + detaches);
        assert_eq!(vmm.pci().irqs_raised(), attaches);
    }

    #[test]
    fn detach_then_reattach_reuses_cleanly() {
        let (mut vmm, _, mut host_alloc) = launch_with(MemoryMapKind::RbTree, false);
        let pid = vmm.guest_mut().spawn(1 << 20).unwrap().value;
        let frames = host_alloc.alloc_pages(16).unwrap();
        let baseline = vmm.map_entries();
        for _ in 0..10 {
            let b = vmm.guest_attach(pid, &frames).unwrap();
            assert_eq!(vmm.map_entries(), baseline + 16);
            vmm.guest_detach(pid, b.va).unwrap();
            assert_eq!(vmm.map_entries(), baseline);
        }
    }

    #[test]
    fn guest_cannot_touch_unmapped_gpa() {
        for kind in [MemoryMapKind::RbTree, MemoryMapKind::Radix] {
            let (mut vmm, phys, mut host_alloc) = launch_with(kind, false);
            let pid = vmm.guest_mut().spawn(1 << 20).unwrap().value;
            // The guest's physical view, as its kernel sees it.
            let gp = GuestPhys {
                map: vmm.map.clone(),
                host: phys,
            };
            let mut buf = [0u8; 4];
            // One size attached and detached twice on guest RAM alone: the
            // RB map holds each batch unlinked, and the held range
            // translates while live and faults once detached.
            let gone_base = vmm.hotplug_next_gfn;
            for round in 0..2 {
                let base = vmm.hotplug_next_gfn;
                let frames = host_alloc.alloc_pages(8).unwrap();
                let b = vmm.guest_attach(pid, &frames).unwrap();
                for gfn in base..base + 8 {
                    gp.write(Pfn(gfn).base(), b"held").unwrap();
                    gp.read(Pfn(gfn).base(), &mut buf).unwrap();
                    assert_eq!(&buf, b"held", "{kind:?} round {round}");
                }
                vmm.guest_detach(pid, b.va).unwrap();
            }
            if kind == MemoryMapKind::RbTree {
                let batches = vmm.map_batches();
                assert_eq!((batches.held, batches.linked), (2, 0));
            }
            let gone = vmm
                .guest_attach(pid, &host_alloc.alloc_pages(8).unwrap())
                .unwrap();
            let live_base = vmm.hotplug_next_gfn;
            let live = vmm
                .guest_attach(pid, &host_alloc.alloc_pages(4).unwrap())
                .unwrap();
            vmm.guest_detach(pid, gone.va).unwrap();
            for gfn in gone_base..live_base {
                let bad = Err(MemError::BadPhysAccess(Pfn(gfn)));
                assert_eq!(gp.read(Pfn(gfn).base() + 100, &mut buf), bad, "{kind:?}");
                assert_eq!(gp.write(Pfn(gfn).base(), b"gone"), bad, "{kind:?}");
            }
            // Guest RAM and the attachment still live keep translating.
            gp.read(Pfn(0).base(), &mut buf).unwrap();
            gp.read(Pfn(gone_base - 1).base(), &mut buf).unwrap();
            for gfn in live_base..live_base + 4 {
                gp.write(Pfn(gfn).base(), b"live").unwrap();
                gp.read(Pfn(gfn).base(), &mut buf).unwrap();
                assert_eq!(&buf, b"live");
            }
            vmm.guest_mut().read(pid, live.va, &mut buf).unwrap();
            assert_eq!(&buf, b"live");
        }
    }

    /// Charge for one map operation, in nanoseconds.
    fn charge(vmm: &Vmm, r: OpReport) -> u64 {
        let cost = &vmm.cost;
        match vmm.kind {
            MemoryMapKind::RbTree => {
                cost.rb_insert_base_ns + cost.rb_level_ns * u64::from(r.visits)
            }
            MemoryMapKind::Radix => cost.radix_level_ns * u64::from(r.visits),
        }
    }

    /// A live attachment: guest VA, first hot-plugged frame, pages.
    type Live = (VirtAddr, u64, u64);

    /// Attach `list`, replaying the map update on `shadow` with one
    /// `insert` per entry, and check the structure charge.
    fn attach_against(
        vmm: &mut Vmm,
        shadow: &mut dyn GuestMemoryMap,
        pid: Pid,
        list: &PfnList,
    ) -> Live {
        let gpa_base = vmm.hotplug_next_gfn;
        let b = vmm.guest_attach(pid, list).unwrap();
        let mut expected = 0;
        match vmm.coalescing {
            Coalescing::PerPage => {
                for (gfn, hpfn) in (gpa_base..).zip(list.iter_pages()) {
                    expected += charge(vmm, shadow.insert(gfn, 1, hpfn.0).unwrap());
                }
            }
            Coalescing::Runs => {
                let mut gfn = gpa_base;
                for run in list.runs() {
                    expected += charge(vmm, shadow.insert(gfn, run.len, run.start.0).unwrap());
                    gfn += run.len;
                }
            }
        }
        assert_eq!(b.map_structure, SimDuration::from_nanos(expected));
        assert_eq!(vmm.map_entries(), shadow.len());
        (b.va, gpa_base, list.pages())
    }

    /// Detach a live attachment, replaying the map update on `shadow` with
    /// one `remove` per frame, and check the whole detach charge.
    fn detach_against(vmm: &mut Vmm, shadow: &mut dyn GuestMemoryMap, pid: Pid, live: Live) {
        let (va, gpa_base, pages) = live;
        let mut expected = 0;
        for gfn in gpa_base..gpa_base + pages {
            if let Ok((_, r)) = shadow.remove(gfn) {
                expected += charge(vmm, r);
            }
        }
        let detached = vmm.guest_detach(pid, va).unwrap();
        let cost = &vmm.cost;
        assert_eq!(
            detached.cost,
            cost.fwk_detach(pages) + SimDuration::from_nanos(cost.hypercall_ns + expected),
            "{:?} {:?}",
            vmm.kind,
            vmm.coalescing
        );
        assert_eq!(vmm.map_entries(), shadow.len());
    }

    /// Walk a guest region out through the VMM and check the charge, whose
    /// translate part comes from counted `lookup_run`s on `shadow`.
    fn walk_against(
        vmm: &mut Vmm,
        shadow: &mut dyn GuestMemoryMap,
        pid: Pid,
        va: VirtAddr,
        len: u64,
    ) {
        let guest = vmm.guest_mut().export_walk(pid, va, len).unwrap();
        let pages = guest.value.pages();
        let cost = vmm.cost.clone();
        let mut expected = guest.cost
            + SimDuration::from_nanos(cost.pci_pfn_copy_ns).times(pages)
            + SimDuration::from_nanos(cost.hypercall_ns);
        for run in guest.value.runs() {
            let (mut gfn, end) = (run.start.0, run.start.0 + run.len);
            while gfn < end {
                let ((_, covered), r) = shadow.lookup_run(gfn, end - gfn).unwrap();
                expected += cost.vmm_translate(r.visits, covered);
                gfn += covered;
            }
        }
        let walked = vmm.host_walk_guest_region(pid, va, len).unwrap();
        assert_eq!(walked.value.pages(), pages);
        assert_eq!(walked.cost, expected, "{:?} {:?}", vmm.kind, vmm.coalescing);
    }

    #[test]
    fn out_of_order_detaches_match_a_per_op_shadow_map() {
        // Several live attachments of random sizes and run shapes,
        // detached in random order, so a removed range has hot-plugged
        // entries on both sides; then recurring same-size rounds on guest
        // RAM alone, whose batches the RB map holds in closed form, with
        // guest I/O and export walks while each is live. A shadow map replays
        // each attach and detach with one `insert`/`remove` per entry and
        // per frame.
        for kind in [MemoryMapKind::RbTree, MemoryMapKind::Radix] {
            for coalescing in [Coalescing::PerPage, Coalescing::Runs] {
                let (mut vmm, _, mut host_alloc) = launch_with(kind, false);
                vmm.set_coalescing(coalescing);
                let pid = vmm.guest_mut().spawn(1 << 20).unwrap().value;
                let mut shadow: Box<dyn GuestMemoryMap> = match kind {
                    MemoryMapKind::RbTree => Box::new(RbMemoryMap::new()),
                    MemoryMapKind::Radix => Box::new(RadixMemoryMap::new()),
                };
                let (ram_hpfn, _) = vmm.map.write().lookup(0).unwrap();
                shadow.insert(0, vmm.ram_frames, ram_hpfn).unwrap();
                let pool = host_alloc.alloc_contiguous(4096).unwrap();
                let mut rng = SimRng::seed_from_u64(0x5eed);
                // Host frames as random runs with holes between.
                let random_list = |rng: &mut SimRng| {
                    let mut list = PfnList::new();
                    let mut frame = pool.0 + rng.uniform_u64(0, 2048);
                    for _ in 0..rng.uniform_u64(1, 6) {
                        let len = rng.uniform_u64(1, 40);
                        list.push_run(Pfn(frame), len);
                        frame += len + rng.uniform_u64(1, 4);
                    }
                    list
                };
                let mut live: Vec<Live> = Vec::new();
                for _ in 0..40 {
                    if live.is_empty() || rng.chance(0.55) {
                        let list = random_list(&mut rng);
                        live.push(attach_against(&mut vmm, &mut *shadow, pid, &list));
                    } else {
                        let victim = rng.uniform_u64(0, live.len() as u64) as usize;
                        let gone = live.swap_remove(victim);
                        detach_against(&mut vmm, &mut *shadow, pid, gone);
                    }
                }
                for gone in live.drain(..) {
                    detach_against(&mut vmm, &mut *shadow, pid, gone);
                }
                // A faulted-in guest RAM buffer to export while attached.
                let buf_len = 16 * PAGE_SIZE;
                let buf = vmm.guest_mut().alloc_buffer(pid, buf_len).unwrap().value;
                vmm.guest_mut().write(pid, buf, &[7; 4096 * 16]).unwrap();
                let shapes: Vec<PfnList> = (0..3).map(|_| random_list(&mut rng)).collect();
                let random = vmm.map_batches();
                for round in 0..18 {
                    let list = &shapes[round % shapes.len()];
                    let attached = attach_against(&mut vmm, &mut *shadow, pid, list);
                    let (va, _, pages) = attached;
                    let tail = va + (pages - 1) * PAGE_SIZE;
                    let mut back = [0u8; 8];
                    for at in [va, tail] {
                        vmm.guest_mut().write(pid, at, b"in situ!").unwrap();
                        vmm.guest_mut().read(pid, at, &mut back).unwrap();
                        assert_eq!(&back, b"in situ!");
                    }
                    if round % 2 == 1 {
                        walk_against(&mut vmm, &mut *shadow, pid, buf, buf_len);
                    }
                    detach_against(&mut vmm, &mut *shadow, pid, attached);
                }
                let batches = vmm.map_batches();
                if kind == MemoryMapKind::RbTree {
                    // Attaches beside live ones linked for real; every
                    // round on guest RAM alone was held.
                    assert!(random.linked > 0, "{coalescing:?}: {random:?}");
                    let rounds = (batches.held - random.held, batches.linked - random.linked);
                    assert_eq!(rounds, (18, 0), "{coalescing:?}");
                } else {
                    assert_eq!(batches, Batches::default());
                }
            }
        }
    }
}
