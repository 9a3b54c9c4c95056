//! The calibrated cost model.
//!
//! Every virtual-time charge in the workspace comes from a constant defined
//! here. The defaults are calibrated so that the *reported* numbers of the
//! XEMEM paper (HPDC'15) are reproduced in shape and rough magnitude; each
//! field's doc comment records which paper observation pins it down.
//!
//! The calibration chain, in brief:
//!
//! * Paper Fig. 5 / Table 2 row 1: native cross-enclave attach sustains
//!   ~12.8–13 GB/s independent of region size ⇒ per-4KiB-page pipeline cost
//!   ≈ 315–320 ns, split between the exporting kernel's page-table walk and
//!   the attaching kernel's per-page remap.
//! * Paper Fig. 7: a 1 GiB attachment served by a single-core Kitten enclave
//!   produces ~23.2–23.8 ms detours ⇒ export-side walk ≈ 85–90 ns/page
//!   (262,144 pages).
//! * Paper Table 2 row 2: attaching from inside a Palacios VM drops
//!   throughput ~3.2× to 3.99 GB/s, and removing red-black-tree insertion
//!   time recovers 8.79 GB/s, with ~80% of mapping time spent updating the
//!   guest memory map ⇒ RB insert ≈ 100 ns + ~15 ns per node visited
//!   (measured mean ≈ 30.5 visits/insert while mapping 1 GiB), plus
//!   ~146 ns/page of memory-map bookkeeping.
//! * Paper Fig. 5: RDMA write over SR-IOV QDR InfiniBand sustains just under
//!   3.5 GB/s.
//!
//! Absolute numbers on the authors' Dell PowerEdge R420 cannot be recovered
//! exactly from a simulator; what the model preserves is who wins, by what
//! factor, and where the crossovers fall.

use crate::tier::{MemTier, TierModel};
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Calibrated virtual-time costs for all simulated operations.
///
/// Construct with [`CostModel::default`] for the paper-calibrated values, or
/// mutate individual fields for ablation studies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    // ------------------------------------------------------------------
    // Page-table and address-space operations
    // ------------------------------------------------------------------
    /// Export-side page-table walk, per 4 KiB page (generating one PFN-list
    /// entry). Calibrated from Fig. 7: 262,144 pages × 88 ns ≈ 23.1 ms,
    /// matching the ~23.2–23.8 ms detour band for 1 GiB attachments.
    pub walk_pte_ns: u64,

    /// Attach-side per-page mapping cost in a full-weight (Linux-like)
    /// kernel: `remap_pfn_range` PTE install plus VMA bookkeeping.
    /// Calibrated with `walk_pte_ns` to hit Table 2 row 1 (12.84 GB/s):
    /// 4096 B ÷ (88 + 230) ns ≈ 12.9 GB/s.
    pub fwk_remap_page_ns: u64,

    /// Attach-side per-page mapping cost in the lightweight kernel (no VMA
    /// machinery, direct PTE install into the dynamic-heap region).
    pub lwk_map_page_ns: u64,

    /// Fixed cost of a `vm_mmap`-style region reservation in the FWK.
    pub fwk_vm_mmap_ns: u64,

    /// Fixed cost of pinning a user region (`get_user_pages`) before a walk,
    /// per page. The paper notes pages are generally already allocated, so
    /// this is a refcount/pin pass, far cheaper than fault-in.
    pub fwk_pin_page_ns: u64,

    /// Demand-paging fault service cost in the FWK, per faulted page.
    /// Drives the Fig. 8(b) observation that recurring *single-OS* Linux
    /// attachments suffer from page-faulting semantics.
    pub fwk_fault_ns: u64,

    /// Per-page cost of zeroing/allocating a fresh frame.
    pub frame_alloc_ns: u64,

    // ------------------------------------------------------------------
    // Palacios (VMM) operations
    // ------------------------------------------------------------------
    /// Red-black-tree insert: fixed part (node allocation, initial link).
    /// With `rb_level_ns`, calibrated so the average per-page insert while
    /// mapping 1 GiB (tree growing to 262,144 entries, measured mean
    /// ≈ 30.5 node visits per insert) costs ≈ 560 ns — the gap between
    /// Table 2's 3.99 GB/s and 8.79 GB/s.
    pub rb_insert_base_ns: u64,

    /// Red-black-tree per-level (comparison + possible rotation amortized)
    /// cost, charged per node visited during insert/lookup/delete.
    pub rb_level_ns: u64,

    /// Radix-tree per-level cost (the paper's proposed future-work
    /// replacement; used by the ablation bench). A page-table-shaped radix
    /// tree touches a fixed 4 levels regardless of occupancy.
    pub radix_level_ns: u64,

    /// Per-page guest memory-map bookkeeping *excluding* the search
    /// structure itself (region entry allocation, validation, shadow
    /// invalidation). Together with RB inserts this forms the "~80% of time
    /// spent updating the guest's memory map" of §5.4. The guest-side PTE
    /// install is charged separately by the guest kernel
    /// (`fwk_remap_page_ns` for a Linux guest).
    pub vmm_map_bookkeep_ns: u64,

    /// Per-page GPA→HPA translation when the *host* walks the memory map to
    /// service a guest-exported region (Fig. 4(b)); the map is small in the
    /// common case, so this is `rb_level_ns` × actual depth, but a floor is
    /// charged for the surrounding loop.
    pub vmm_translate_floor_ns: u64,

    /// Hypercall (guest → host synchronous exit) latency.
    pub hypercall_ns: u64,

    /// Fixed cost of a SMARTMAP-style local attachment in Kitten (shared
    /// top-level page-table entries: O(1) regardless of region size —
    /// paper §2, §4.3).
    pub smartmap_ns: u64,

    /// Virtual IRQ delivery latency (host → guest notification, including
    /// guest interrupt handler entry).
    pub guest_irq_ns: u64,

    /// Per-page cost of copying PFNs through the virtual PCI device's list
    /// buffer (8 bytes/entry plus device-register protocol amortized).
    pub pci_pfn_copy_ns: u64,

    // ------------------------------------------------------------------
    // Cross-enclave channels (Pisces IPI path)
    // ------------------------------------------------------------------
    /// One-way IPI delivery latency between enclaves (vector dispatch +
    /// handler entry on the destination core).
    pub ipi_ns: u64,

    /// Fixed per-message protocol cost on the shared-memory kernel channel
    /// (flag handshake + header copy), *excluding* the IPI itself.
    pub channel_msg_ns: u64,

    /// Bandwidth of bulk copies through the kernel shared-memory channel
    /// (PFN lists), bytes per second.
    pub channel_bw_bps: u64,

    /// Name-server processing per request (segid allocation, map lookup,
    /// forwarding decision).
    pub name_server_ns: u64,

    /// Router forwarding decision per hop (enclave-ID map lookup).
    pub route_hop_ns: u64,

    // ------------------------------------------------------------------
    // Memory traffic
    // ------------------------------------------------------------------
    /// Sustained DRAM streaming bandwidth per NUMA socket, bytes/s.
    /// A 2015 dual-channel DDR3 Xeon socket sustains ~12 GB/s on STREAM.
    pub dram_stream_bps: u64,

    /// Effective bandwidth for reading freshly attached shared memory in
    /// the Fig. 5 "attach + read" series. Calibrated from the paper's own
    /// gap (13 GB/s attach vs 12 GB/s attach+read ⇒ read adds only ~26 ns
    /// per page): reads ride on mappings still hot in cache/TLB.
    pub attached_read_bps: u64,

    // ------------------------------------------------------------------
    // RDMA baseline
    // ------------------------------------------------------------------
    /// Raw RDMA-write wire bandwidth over a QDR (32 Gbit/s data rate)
    /// ConnectX-3 virtual function, bytes/s. Together with `rdma_seg_ns`
    /// this yields the just-under-3.5 GB/s effective rate of Fig. 5.
    pub rdma_bw_bps: u64,

    /// RDMA one-sided operation posting + completion latency.
    pub rdma_post_ns: u64,

    /// Maximum transmission unit used to segment RDMA transfers, bytes.
    pub rdma_mtu: usize,

    /// Per-MTU-segment header/DMA engine overhead.
    pub rdma_seg_ns: u64,

    // ------------------------------------------------------------------
    // Workload roofline
    // ------------------------------------------------------------------
    /// Double-precision FLOP rate per core, FLOPs/s (for the CG roofline).
    pub flops_per_core: u64,

    /// Multiplicative slowdown applied to computation running inside a
    /// virtual machine (nested paging pressure on a memory-bound solver,
    /// timer virtualization). Calibrated from Fig. 9: the multi-enclave
    /// configuration (simulation virtualized) runs ~2 s slower than
    /// native Linux at one node (~46.5 s vs ~44.5 s) before isolation
    /// pays off at scale.
    pub vm_compute_overhead: f64,

    /// Extra multiplicative slowdown for a VM whose *host* is the busy
    /// Linux management enclave rather than an isolated Kitten co-kernel
    /// (host daemons steal cycles from the VMM core).
    pub vm_on_fwk_host_penalty: f64,

    /// Memory-bandwidth contention multiplier applied to a workload phase
    /// when another memory-intensive phase runs concurrently in the *same*
    /// OS/R on the same socket (the Fig. 8 Linux/Linux async case).
    pub colocation_contention: f64,

    /// Extra fractional cost on FWK attach-side map updates when two or
    /// more processes concurrently update memory maps ("contention for
    /// Linux data structures", §5.3) — one of the two causes of the
    /// Fig. 6 1→2-enclave throughput dip.
    pub fwk_mmap_contention: f64,

    /// Multiplicative slowdown on per-page mapping/walk operations when
    /// the frames live on a *remote* NUMA socket. The paper pins every
    /// enclave to a single socket precisely "to avoid overhead resulting
    /// from cross-NUMA domain memory accesses" (§5.1); the
    /// `ablation_numa` bench quantifies what that avoids. QPI-era remote
    /// accesses run ~1.4–1.6× slower.
    pub numa_remote_op_factor: f64,

    /// Fraction of local DRAM bandwidth available for streaming reads of
    /// remote-socket memory.
    pub numa_remote_bw_factor: f64,

    // ------------------------------------------------------------------
    // Failure handling and teardown
    // ------------------------------------------------------------------
    /// Virtual time a sender waits before retransmitting a forwarded
    /// command whose hop was dropped (no ack observed). Modeled on a
    /// conservative kernel-level command timeout, far above the ~µs
    /// round-trip of a healthy channel.
    pub retransmit_timeout_ns: u64,

    /// Base delay of the name-server retry backoff; attempt *k* waits
    /// `ns_retry_base_ns << k` of virtual time before re-sending (capped
    /// by [`CostModel::ns_retry_max_attempts`]).
    pub ns_retry_base_ns: u64,

    /// Maximum name-server retry attempts before an operation gives up
    /// with `NameServerUnavailable`.
    pub ns_retry_max_attempts: u32,

    /// Owner-kernel bookkeeping to tear down one exported segment during
    /// revocation (unlink from the export table, walk the attacher index).
    pub revoke_bookkeeping_ns: u64,

    /// Per-attachment cost of the reaper unmapping a dead attachment in
    /// the attaching enclave (VMA/arena teardown plus TLB shootdown).
    pub reap_unmap_ns: u64,

    // ------------------------------------------------------------------
    // Sharded name service
    // ------------------------------------------------------------------
    /// Client-side shard selection when the namespace is split across
    /// more than one name-server enclave: one hash-ring probe to pick
    /// the shard leader. Charged only when the ring has > 1 shard; the
    /// single-shard configuration is bitwise identical to the original
    /// centralized name server.
    pub ns_shard_route_ns: u64,

    /// Lease term granted with every name-server answer, in virtual
    /// nanoseconds. A client may serve cached results locally until the
    /// lease expires; afterwards it must revalidate with the shard
    /// leader. Sized well above a routed round trip so steady-state
    /// lookups hit the cache, but short enough that failover staleness
    /// is bounded.
    pub ns_lease_ns: u64,

    /// Client-side cost of checking a cached lease (expiry + epoch
    /// comparison) before serving a lookup locally.
    pub ns_lease_check_ns: u64,

    /// Leader-side cost of granting or renewing one lease (recording
    /// the holder and its expiry in the shard's soft state).
    pub ns_lease_renew_ns: u64,

    /// Replication lag from a shard leader to its followers: mutations
    /// older than this horizon are guaranteed durable on every live
    /// replica, younger ones are lost if the leader dies first.
    pub ns_replication_lag_ns: u64,

    /// Time a shard stays unavailable after its leader dies while the
    /// surviving replicas run the (deterministic) election.
    pub ns_election_timeout_ns: u64,

    // ------------------------------------------------------------------
    // Buffer-pool service layer
    // ------------------------------------------------------------------
    /// Free-list scan/pop/push inside the pool's slot-indexed metadata
    /// header: one cache line of shared state per operation.
    pub pool_slot_scan_ns: u64,

    /// Slot header initialization on acquire (size class, generation,
    /// owner tags). The `dayn9t/xmem` exemplar lands allocation in the
    /// low-microsecond band; scan + init + refcount sits well under it
    /// because the data slab is pre-carved.
    pub pool_slot_init_ns: u64,

    /// One refcount increment/decrement on a slot header (the exemplar's
    /// headline ~7 ns atomic).
    pub pool_ref_ns: u64,

    /// One SPSC/MPSC ring push (slot index + generation word, release
    /// store).
    pub pool_ring_push_ns: u64,

    /// One SPSC/MPSC ring pop (acquire load + head bump).
    pub pool_ring_pop_ns: u64,

    /// Exporter-side reclamation of one slot held by a crashed consumer
    /// (hold-table walk, generation bump, free-list push).
    pub pool_sweep_slot_ns: u64,

    // ------------------------------------------------------------------
    // Heterogeneous memory tiers
    // ------------------------------------------------------------------
    /// Per-tier latency/bandwidth parameters and migration constants.
    /// The [`MemTier::LocalDram`] entry is calibrated to be *neutral*
    /// (zero surcharges, `dram_stream_bps` bandwidth), so topologies
    /// that never leave local DRAM charge exactly what they did before
    /// tiers existed.
    pub tier: TierModel,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            walk_pte_ns: 88,
            fwk_remap_page_ns: 230,
            lwk_map_page_ns: 120,
            fwk_vm_mmap_ns: 2_500,
            fwk_pin_page_ns: 15,
            fwk_fault_ns: 2_200,
            frame_alloc_ns: 30,
            rb_insert_base_ns: 100,
            rb_level_ns: 15,
            radix_level_ns: 24,
            vmm_map_bookkeep_ns: 146,
            vmm_translate_floor_ns: 84,
            hypercall_ns: 1_000,
            smartmap_ns: 800,
            guest_irq_ns: 4_000,
            pci_pfn_copy_ns: 2,
            ipi_ns: 2_000,
            channel_msg_ns: 600,
            channel_bw_bps: 10_000_000_000,
            name_server_ns: 900,
            route_hop_ns: 250,
            dram_stream_bps: 12_000_000_000,
            attached_read_bps: 157_000_000_000,
            rdma_bw_bps: 3_600_000_000,
            rdma_post_ns: 1_200,
            rdma_mtu: 4096,
            rdma_seg_ns: 60,
            flops_per_core: 2_500_000_000,
            vm_compute_overhead: 1.09,
            vm_on_fwk_host_penalty: 1.06,
            colocation_contention: 1.025,
            fwk_mmap_contention: 0.06,
            numa_remote_op_factor: 1.5,
            numa_remote_bw_factor: 0.62,
            retransmit_timeout_ns: 50_000,
            ns_retry_base_ns: 2_000,
            ns_retry_max_attempts: 24,
            revoke_bookkeeping_ns: 400,
            reap_unmap_ns: 350,
            ns_shard_route_ns: 120,
            ns_lease_ns: 200_000,
            ns_lease_check_ns: 60,
            ns_lease_renew_ns: 150,
            ns_replication_lag_ns: 20_000,
            ns_election_timeout_ns: 30_000,
            pool_slot_scan_ns: 40,
            pool_slot_init_ns: 120,
            pool_ref_ns: 7,
            pool_ring_push_ns: 60,
            pool_ring_pop_ns: 60,
            pool_sweep_slot_ns: 500,
            tier: TierModel::default(),
        }
    }
}

impl CostModel {
    /// Time to move `bytes` at `bps` bytes/second.
    pub fn transfer_time(bytes: u64, bps: u64) -> SimDuration {
        if bps == 0 {
            return SimDuration::ZERO;
        }
        // Split to avoid overflow for large byte counts: whole seconds plus
        // remainder at nanosecond resolution.
        let secs = bytes / bps;
        let rem = bytes % bps;
        SimDuration::from_secs(secs)
            + SimDuration::from_nanos(rem.saturating_mul(1_000_000_000) / bps)
    }

    /// Time for a bulk copy through the kernel shared-memory channel.
    pub fn channel_copy(&self, bytes: u64) -> SimDuration {
        Self::transfer_time(bytes, self.channel_bw_bps)
    }

    /// Time to stream `bytes` through DRAM.
    pub fn dram_stream(&self, bytes: u64) -> SimDuration {
        Self::transfer_time(bytes, self.dram_stream_bps)
    }

    /// Time to read `bytes` of freshly attached shared memory.
    pub fn attached_read(&self, bytes: u64) -> SimDuration {
        Self::transfer_time(bytes, self.attached_read_bps)
    }

    /// Conservative PDES lookahead: the minimum virtual latency any
    /// cross-enclave interaction can exhibit under this model.
    ///
    /// Every path by which one enclave's operation can affect another —
    /// an IPI-channel control message, a guest's PCI hypercall notify,
    /// a host-to-guest interrupt, or a name-service request reaching a
    /// shard — pays at least this much virtual time, so two events
    /// closer together than this floor are causally independent and a
    /// windowed engine may execute them in the same window. Enclave-local
    /// work (e.g. a 60 ns cached lease check) is deliberately excluded:
    /// it cannot cross lanes. Defaults derive a floor of 900 ns (the
    /// name-server service time).
    pub fn pdes_lookahead(&self) -> SimDuration {
        let floor = (self.ipi_ns.saturating_add(self.channel_msg_ns))
            .min(self.hypercall_ns)
            .min(self.guest_irq_ns)
            .min(self.name_server_ns)
            .max(1);
        SimDuration::from_nanos(floor)
    }

    /// Export-side page-table walk for `pages` pages.
    pub fn walk(&self, pages: u64) -> SimDuration {
        SimDuration::from_nanos(self.walk_pte_ns).times(pages)
    }

    // ------------------------------------------------------------------
    // Arithmetic charge formulas
    //
    // Every kernel charges virtual time through these helpers, computed
    // from page counts rather than accumulated inside per-page loops, so
    // the host-side structural work can batch over extents while the
    // reported virtual nanoseconds stay bitwise-identical to a per-page
    // walk (`times` is exact u64 multiplication).
    // ------------------------------------------------------------------

    /// LWK attach-side mapping: one PTE install per leaf written plus a
    /// fixed region-bookkeeping charge.
    pub fn lwk_attach(&self, written: u64) -> SimDuration {
        SimDuration::from_nanos(self.lwk_map_page_ns).times(written) + SimDuration::from_nanos(400)
    }

    /// LWK detach: PTE clears are charged at half the install cost.
    pub fn lwk_detach(&self, pages: u64) -> SimDuration {
        SimDuration::from_nanos(self.lwk_map_page_ns / 2).times(pages)
    }

    /// FWK eager attach: one `vm_mmap` reservation plus `remap_pfn_range`
    /// per leaf written (a 2 MiB leaf counts once — the hugepage
    /// ablation's whole point).
    pub fn fwk_eager_attach(&self, written: u64) -> SimDuration {
        SimDuration::from_nanos(self.fwk_vm_mmap_ns)
            + SimDuration::from_nanos(self.fwk_remap_page_ns).times(written)
    }

    /// FWK detach: PTE clears at half the install cost, per leaf cleared.
    pub fn fwk_detach(&self, cleared: u64) -> SimDuration {
        SimDuration::from_nanos(self.fwk_remap_page_ns / 2).times(cleared)
    }

    /// FWK demand-paging fault-in: fault service plus frame allocation,
    /// per page faulted.
    pub fn fwk_fault_in(&self, faulted: u64) -> SimDuration {
        SimDuration::from_nanos(self.fwk_fault_ns + self.frame_alloc_ns).times(faulted)
    }

    /// `get_user_pages` pin plus export walk, per resident page.
    pub fn pin_and_walk(&self, pages: u64) -> SimDuration {
        SimDuration::from_nanos(self.fwk_pin_page_ns + self.walk_pte_ns).times(pages)
    }

    /// Host-side GPA→HPA translation of `covered` consecutive guest
    /// frames resolved by one memory-map entry: every frame in the entry
    /// shares the same search path (`visits` node visits), so the batch
    /// charge equals `covered` individual lookups.
    pub fn vmm_translate(&self, visits: u32, covered: u64) -> SimDuration {
        SimDuration::from_nanos(self.vmm_translate_floor_ns + self.rb_level_ns * visits as u64)
            .times(covered)
    }

    // ------------------------------------------------------------------
    // Tier charges
    //
    // All tier surcharges are additive integer nanoseconds per page, so
    // the batched extent forms below equal per-page accumulation exactly
    // and a classification of `[pages_in_local, pages_in_remote, ...]`
    // charges identically however the pages are grouped into extents.
    // ------------------------------------------------------------------

    /// Time to stream-*read* `bytes` resident in `tier`. For
    /// [`MemTier::LocalDram`] under the default model this equals
    /// [`CostModel::dram_stream`] bit for bit.
    pub fn tier_stream_read(&self, tier: MemTier, bytes: u64) -> SimDuration {
        Self::transfer_time(bytes, self.tier.costs(tier).read_bps)
    }

    /// Time to stream-*write* `bytes` resident in `tier`.
    pub fn tier_stream_write(&self, tier: MemTier, bytes: u64) -> SimDuration {
        Self::transfer_time(bytes, self.tier.costs(tier).write_bps)
    }

    /// Export-side walk surcharge for a per-tier page classification
    /// (`by_tier[t]` pages resident in tier `t`, indexed by
    /// [`MemTier::index`]).
    pub fn tier_walk_surcharge(&self, by_tier: &[u64; MemTier::COUNT]) -> SimDuration {
        let mut d = SimDuration::ZERO;
        for t in MemTier::ALL {
            d +=
                SimDuration::from_nanos(self.tier.costs(t).walk_extra_ns).times(by_tier[t.index()]);
        }
        d
    }

    /// Attach-side mapping-install surcharge for a per-tier page
    /// classification.
    pub fn tier_map_surcharge(&self, by_tier: &[u64; MemTier::COUNT]) -> SimDuration {
        let mut d = SimDuration::ZERO;
        for t in MemTier::ALL {
            d += SimDuration::from_nanos(self.tier.costs(t).map_extra_ns).times(by_tier[t.index()]);
        }
        d
    }

    /// First-touch / demand fault-in surcharge for `pages` pages backed
    /// by `tier` frames.
    pub fn tier_touch_surcharge(&self, tier: MemTier, pages: u64) -> SimDuration {
        SimDuration::from_nanos(self.tier.costs(tier).touch_extra_ns).times(pages)
    }

    /// Structural cost of a batched tier migration: `extents` unmap/map
    /// run pairs plus `pages` PTE rewrites. Charged by the owning
    /// kernel; pure arithmetic, so the host side stays O(extents).
    pub fn migrate_remap(&self, extents: u64, pages: u64) -> SimDuration {
        SimDuration::from_nanos(self.tier.migrate_extent_ns).times(extents)
            + SimDuration::from_nanos(self.tier.migrate_page_ns).times(pages)
    }

    /// Data-copy cost of migrating `bytes_by_tier[t]` bytes out of tier
    /// `t` into `dst`: each source tier's bytes move at the slower of
    /// its read bandwidth and the destination's write bandwidth.
    pub fn migrate_copy(&self, bytes_by_tier: &[u64; MemTier::COUNT], dst: MemTier) -> SimDuration {
        let wr = self.tier.costs(dst).write_bps;
        let mut d = SimDuration::ZERO;
        for t in MemTier::ALL {
            let bps = self.tier.costs(t).read_bps.min(wr);
            d += Self::transfer_time(bytes_by_tier[t.index()], bps);
        }
        d
    }

    /// Buffer-pool refcount charge for `refs` increments/decrements.
    pub fn pool_refs(&self, refs: u64) -> SimDuration {
        SimDuration::from_nanos(self.pool_ref_ns).times(refs)
    }

    /// Exporter-side crash sweep over `slots` reclaimed slot references.
    pub fn pool_sweep(&self, slots: u64) -> SimDuration {
        SimDuration::from_nanos(self.pool_sweep_slot_ns).times(slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GIB: u64 = 1 << 30;
    const PAGES_1G: u64 = GIB / 4096;

    fn gbps(bytes: u64, d: SimDuration) -> f64 {
        bytes as f64 / d.as_secs_f64() / 1e9
    }

    #[test]
    fn native_attach_pipeline_lands_near_13_gbps() {
        // Kitten walk + Linux remap, per Table 2 row 1 (12.841 GB/s).
        let m = CostModel::default();
        let per_page = m.walk_pte_ns + m.fwk_remap_page_ns;
        let total = SimDuration::from_nanos(per_page).times(PAGES_1G);
        let tput = gbps(GIB, total);
        assert!((12.0..14.0).contains(&tput), "native attach = {tput} GB/s");
    }

    #[test]
    fn vm_attach_pipeline_lands_near_4_gbps() {
        // RB insert at mean depth ~16.6 while mapping 1 GiB, plus map
        // bookkeeping and guest-side mapping (Table 2 row 2: 3.991 GB/s).
        let m = CostModel::default();
        // Measured mean visits for 262,144 sequential inserts is ~30.5.
        let rb_avg = m.rb_insert_base_ns as f64 + m.rb_level_ns as f64 * 30.5;
        let per_page = rb_avg
            + (m.walk_pte_ns + m.vmm_map_bookkeep_ns + m.fwk_remap_page_ns + m.pci_pfn_copy_ns)
                as f64;
        let total = SimDuration::from_secs_f64(per_page * PAGES_1G as f64 / 1e9);
        let tput = gbps(GIB, total);
        assert!((3.5..4.5).contains(&tput), "VM attach = {tput} GB/s");
    }

    #[test]
    fn vm_attach_without_rb_lands_near_8_8_gbps() {
        // End to end (including the exporter's walk), as Table 2 reports.
        let m = CostModel::default();
        let per_page =
            m.walk_pte_ns + m.vmm_map_bookkeep_ns + m.fwk_remap_page_ns + m.pci_pfn_copy_ns;
        let total = SimDuration::from_nanos(per_page).times(PAGES_1G);
        let tput = gbps(GIB, total);
        assert!((8.0..9.6).contains(&tput), "VM attach w/o rb = {tput} GB/s");
    }

    #[test]
    fn one_gib_walk_detour_matches_fig7_band() {
        let m = CostModel::default();
        let d = m.walk(PAGES_1G);
        let ms = d.as_secs_f64() * 1e3;
        assert!((22.0..25.0).contains(&ms), "1 GiB walk detour = {ms} ms");
    }

    #[test]
    fn rdma_stays_under_3_5_gbps() {
        // Wire time plus per-MTU segmentation overhead: the effective
        // rate of the Fig. 5 baseline.
        let m = CostModel::default();
        let segs = GIB / m.rdma_mtu as u64;
        let d = CostModel::transfer_time(GIB, m.rdma_bw_bps)
            + SimDuration::from_nanos(m.rdma_seg_ns).times(segs);
        let tput = gbps(GIB, d);
        assert!((3.0..3.5).contains(&tput), "rdma = {tput} GB/s");
    }

    #[test]
    fn transfer_time_handles_extremes() {
        assert_eq!(CostModel::transfer_time(0, 1_000), SimDuration::ZERO);
        assert_eq!(CostModel::transfer_time(100, 0), SimDuration::ZERO);
        // 1 byte at 1 byte/s = 1 s.
        assert_eq!(CostModel::transfer_time(1, 1), SimDuration::from_secs(1));
        // Large transfer does not overflow: 1 TiB at 1 GB/s ≈ 1099.5 s.
        let d = CostModel::transfer_time(1 << 40, 1_000_000_000);
        assert!((1099.0..1100.0).contains(&d.as_secs_f64()));
    }

    #[test]
    fn arithmetic_charges_equal_per_page_accumulation() {
        // The batched helpers must charge exactly what an equivalent
        // per-page loop would have — this identity is what lets the host
        // side go O(extents) without moving a single virtual nanosecond.
        let m = CostModel::default();
        for pages in [0u64, 1, 7, 511, 512, 513, 262_144] {
            let mut looped = SimDuration::ZERO;
            for _ in 0..pages {
                looped += SimDuration::from_nanos(m.lwk_map_page_ns);
            }
            assert_eq!(
                m.lwk_attach(pages),
                looped + SimDuration::from_nanos(400),
                "lwk_attach({pages})"
            );
            let mut looped = SimDuration::ZERO;
            for _ in 0..pages {
                looped += SimDuration::from_nanos(m.fwk_remap_page_ns / 2);
            }
            assert_eq!(m.fwk_detach(pages), looped, "fwk_detach({pages})");
            let mut looped = SimDuration::ZERO;
            for _ in 0..pages {
                looped += SimDuration::from_nanos(m.fwk_fault_ns + m.frame_alloc_ns);
            }
            assert_eq!(m.fwk_fault_in(pages), looped, "fwk_fault_in({pages})");
        }
        // The VM translate batch: `covered` frames sharing one map entry.
        let mut looped = SimDuration::ZERO;
        for _ in 0..33 {
            looped += SimDuration::from_nanos(m.vmm_translate_floor_ns + m.rb_level_ns * 12);
        }
        assert_eq!(m.vmm_translate(12, 33), looped);
        // Pool batches: refcount and sweep charges equal the per-item loop.
        for n in [0u64, 1, 7, 513] {
            let mut looped = SimDuration::ZERO;
            for _ in 0..n {
                looped += SimDuration::from_nanos(m.pool_ref_ns);
            }
            assert_eq!(m.pool_refs(n), looped, "pool_refs({n})");
            let mut looped = SimDuration::ZERO;
            for _ in 0..n {
                looped += SimDuration::from_nanos(m.pool_sweep_slot_ns);
            }
            assert_eq!(m.pool_sweep(n), looped, "pool_sweep({n})");
        }
    }

    #[test]
    fn tier_stream_matches_dram_stream_on_local() {
        // The LocalDram tier must be charge-neutral: same bandwidth as
        // the flat model and zero per-page surcharges, so pre-tier
        // results are reproduced bit for bit.
        let m = CostModel::default();
        for bytes in [0u64, 1, 4096, 1 << 20, 1 << 30, (1 << 30) + 13] {
            assert_eq!(
                m.tier_stream_read(MemTier::LocalDram, bytes),
                m.dram_stream(bytes),
                "read {bytes}"
            );
            assert_eq!(
                m.tier_stream_write(MemTier::LocalDram, bytes),
                m.dram_stream(bytes),
                "write {bytes}"
            );
        }
        let local_only = [262_144u64, 0, 0, 0];
        assert_eq!(m.tier_walk_surcharge(&local_only), SimDuration::ZERO);
        assert_eq!(m.tier_map_surcharge(&local_only), SimDuration::ZERO);
        assert_eq!(
            m.tier_touch_surcharge(MemTier::LocalDram, 262_144),
            SimDuration::ZERO
        );
    }

    #[test]
    fn tier_surcharges_equal_per_page_accumulation() {
        // The batched per-tier classification must charge exactly what
        // a per-page loop over the same pages would — grouping pages
        // into extents moves no virtual nanoseconds.
        let m = CostModel::default();
        let by_tier = [3u64, 511, 64, 262_144];
        let mut looped_walk = SimDuration::ZERO;
        let mut looped_map = SimDuration::ZERO;
        for t in MemTier::ALL {
            for _ in 0..by_tier[t.index()] {
                looped_walk += SimDuration::from_nanos(m.tier.costs(t).walk_extra_ns);
                looped_map += SimDuration::from_nanos(m.tier.costs(t).map_extra_ns);
            }
        }
        assert_eq!(m.tier_walk_surcharge(&by_tier), looped_walk);
        assert_eq!(m.tier_map_surcharge(&by_tier), looped_map);
        for pages in [0u64, 1, 513] {
            let mut looped = SimDuration::ZERO;
            for _ in 0..pages {
                looped += SimDuration::from_nanos(m.tier.nvm.touch_extra_ns);
            }
            assert_eq!(m.tier_touch_surcharge(MemTier::Nvm, pages), looped);
            let mut looped = SimDuration::ZERO;
            for _ in 0..pages {
                looped += SimDuration::from_nanos(m.tier.migrate_page_ns);
            }
            looped += SimDuration::from_nanos(m.tier.migrate_extent_ns).times(2);
            assert_eq!(m.migrate_remap(2, pages), looped, "migrate_remap({pages})");
        }
    }

    #[test]
    fn migrate_copy_uses_the_slower_endpoint() {
        let m = CostModel::default();
        // NVM → DRAM moves at NVM read bandwidth; DRAM → NVM at NVM
        // write bandwidth.
        let gib = 1u64 << 30;
        let from_nvm = m.migrate_copy(&[0, 0, 0, gib], MemTier::LocalDram);
        assert_eq!(from_nvm, CostModel::transfer_time(gib, m.tier.nvm.read_bps));
        let to_nvm = m.migrate_copy(&[gib, 0, 0, 0], MemTier::Nvm);
        assert_eq!(to_nvm, CostModel::transfer_time(gib, m.tier.nvm.write_bps));
        assert!(to_nvm > from_nvm, "NVM write asymmetry must show up");
    }

    #[test]
    fn cost_model_is_serializable_and_cloneable() {
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serde::<CostModel>();
        let m = CostModel::default();
        assert_eq!(m.clone(), m);
    }
}
