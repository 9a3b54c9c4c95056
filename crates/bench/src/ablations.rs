//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! * [`memmap`] — the VMM memory-map structure: the paper's red-black
//!   tree vs its proposed radix-tree replacement (§5.4 future work),
//!   each with and without run coalescing.
//! * [`ipi`] — the core-0-restricted IPI handler vs per-channel handlers
//!   (§5.3 future work: "more intelligent mechanisms for interrupt
//!   handling").
//! * [`name_server`] — name-server placement (§3.2: "the name server can
//!   be deployed in any enclave").

use xemem::{GuestOs, MemoryMapKind, SystemBuilder, TraceHandle, XememError};
use xemem_palacios::Coalescing;
use xemem_sim::stats::throughput_gbps;
use xemem_sim::{SimDuration, SimTime};

/// Result row of the memory-map ablation.
#[derive(Debug, Clone)]
pub struct MemmapRow {
    /// Structure + policy label.
    pub variant: &'static str,
    /// Guest attach throughput, GB/s.
    pub gbps: f64,
    /// Memory-map entries after one attachment.
    pub entries: usize,
}

/// The memory-map ablation: a VM attaches to a Kitten-exported region
/// under four memory-map variants.
pub mod memmap {
    use super::*;

    /// The ablation's variants in output order.
    pub const VARIANTS: [(&str, MemoryMapKind, Coalescing); 4] = [
        (
            "rb-tree / per-page (paper)",
            MemoryMapKind::RbTree,
            Coalescing::PerPage,
        ),
        (
            "rb-tree / coalesced runs",
            MemoryMapKind::RbTree,
            Coalescing::Runs,
        ),
        (
            "radix / per-page (future work)",
            MemoryMapKind::Radix,
            Coalescing::PerPage,
        ),
        (
            "radix / coalesced runs",
            MemoryMapKind::Radix,
            Coalescing::Runs,
        ),
    ];

    /// Run with the given region size and attachment count.
    pub fn run(size: u64, iters: u32) -> Result<Vec<MemmapRow>, XememError> {
        (0..VARIANTS.len())
            .map(|v| run_variant(v, size, iters, &TraceHandle::disabled()))
            .collect()
    }

    /// Run one variant (`0..VARIANTS.len()`) — the independent unit the
    /// parallel run driver shards; its charges land on its own `tracer`.
    pub fn run_variant(
        variant: usize,
        size: u64,
        iters: u32,
        tracer: &TraceHandle,
    ) -> Result<MemmapRow, XememError> {
        let (label, kind, coalescing) = VARIANTS[variant];
        let mut sys = SystemBuilder::new()
            .with_tracer(tracer.clone())
            .linux_management("linux", 4, 64 << 20)
            .kitten_cokernel("kitten", 1, size + (64 << 20))
            .palacios_vm("vm", "linux", size / 4 + (96 << 20), kind, GuestOs::Fwk)
            .build()?;
        let vm_ref = sys.enclave_by_name("vm").unwrap();
        sys.vmm_mut(vm_ref).unwrap().set_coalescing(coalescing);
        let kitten = sys.enclave_by_name("kitten").unwrap();
        let exporter = sys.spawn_process(kitten, size + (16 << 20))?;
        let attacher = sys.spawn_process(vm_ref, 8 << 20)?;
        let buf = sys.alloc_buffer(exporter, size)?;
        sys.prepare_buffer(exporter, buf, size)?;
        let segid = sys.xpmem_make(exporter, buf, size, None)?;
        let apid = sys.xpmem_get(attacher, segid)?;
        let mut total = SimDuration::ZERO;
        let mut entries = 0;
        for _ in 0..iters {
            let t0 = sys.clock().now();
            let o = sys.xpmem_attach_outcome(attacher, apid, 0, size)?;
            total += o.end.duration_since(t0);
            entries = sys.vmm_mut(vm_ref).unwrap().map_entries();
            sys.xpmem_detach(attacher, o.va)?;
        }
        Ok(MemmapRow {
            variant: label,
            gbps: throughput_gbps(size * iters as u64, total),
            entries,
        })
    }
}

/// Result row of the IPI ablation.
#[derive(Debug, Clone)]
pub struct IpiRow {
    /// Handler placement label.
    pub variant: &'static str,
    /// Mean per-pair throughput, GB/s.
    pub gbps: f64,
    /// Total queueing delay at the shared handler (zero for per-channel).
    pub core0_wait_us: f64,
}

/// The IPI-handler ablation: the Fig. 6 worst case (8 enclaves) with the
/// paper's core-0-restricted handler vs per-channel handlers.
pub mod ipi {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The ablation's variants in output order.
    pub const VARIANTS: [(&str, bool); 2] = [
        ("core-0 restricted (paper)", false),
        ("per-channel handlers", true),
    ];

    /// Run with the given region size and per-pair attachment count.
    pub fn run(size: u64, iters: u32) -> Result<Vec<IpiRow>, XememError> {
        (0..VARIANTS.len())
            .map(|v| run_variant(v, size, iters, &TraceHandle::disabled()))
            .collect()
    }

    /// Run one variant (`0..VARIANTS.len()`) — the independent unit the
    /// parallel run driver shards; its charges land on its own `tracer`.
    pub fn run_variant(
        variant: usize,
        size: u64,
        iters: u32,
        tracer: &TraceHandle,
    ) -> Result<IpiRow, XememError> {
        let (label, per_channel) = VARIANTS[variant];
        let mut b = SystemBuilder::new()
            .with_tracer(tracer.clone())
            .linux_management("linux", 8, 512 << 20);
        if per_channel {
            b = b.per_channel_ipi();
        }
        for i in 0..8 {
            b = b.kitten_cokernel(&format!("kitten{i}"), 1, size + (64 << 20));
        }
        let mut sys = b.build()?;
        let linux = sys.enclave_by_name("linux").unwrap();
        let mut pairs = Vec::new();
        for i in 0..8 {
            let enclave = sys.enclave_by_name(&format!("kitten{i}")).unwrap();
            let exporter = sys.spawn_process(enclave, size + (16 << 20))?;
            let attacher = sys.spawn_process(linux, 8 << 20)?;
            let buf = sys.alloc_buffer(exporter, size)?;
            let segid = sys.xpmem_make(exporter, buf, size, None)?;
            let apid = sys.xpmem_get(attacher, segid)?;
            pairs.push((attacher, apid, SimDuration::ZERO, iters));
        }
        let t0 = sys.clock().now();
        let mut heap: BinaryHeap<Reverse<(SimTime, usize)>> =
            (0..pairs.len()).map(|i| Reverse((t0, i))).collect();
        while let Some(Reverse((at, idx))) = heap.pop() {
            let (attacher, apid, _, remaining) = pairs[idx];
            if remaining == 0 {
                continue;
            }
            pairs[idx].3 -= 1;
            let o = sys.attach_at(attacher, apid, 0, size, at)?;
            pairs[idx].2 += o.end.duration_since(at);
            let free = sys.detach_at(attacher, o.va, o.end)?;
            heap.push(Reverse((free, idx)));
        }
        let mean = pairs
            .iter()
            .map(|p| throughput_gbps(size * iters as u64, p.2))
            .sum::<f64>()
            / pairs.len() as f64;
        Ok(IpiRow {
            variant: label,
            gbps: mean,
            core0_wait_us: sys.core0().total_wait().as_micros_f64(),
        })
    }
}

/// Result row of the name-server-placement ablation.
#[derive(Debug, Clone)]
pub struct NsRow {
    /// Where the name server lives.
    pub placement: &'static str,
    /// Mean `xpmem_make` latency from the Kitten enclave, microseconds.
    pub make_us: f64,
    /// Mean `xpmem_get` latency from the far co-kernel, microseconds.
    pub get_us: f64,
}

/// The name-server-placement ablation: control-operation latency with
/// the server in the management enclave vs in a co-kernel.
pub mod name_server {
    use super::*;

    /// The ablation's placements in output order.
    pub const VARIANTS: [(&str, &str); 2] = [
        ("management enclave (paper default)", "linux"),
        ("co-kernel enclave", "kitten0"),
    ];

    /// Run with `iters` control operations per placement.
    pub fn run(iters: u32) -> Result<Vec<NsRow>, XememError> {
        (0..VARIANTS.len())
            .map(|v| run_variant(v, iters, &TraceHandle::disabled()))
            .collect()
    }

    /// Run one placement (`0..VARIANTS.len()`) — the independent unit
    /// the parallel run driver shards; its charges land on its own
    /// `tracer`.
    pub fn run_variant(
        variant: usize,
        iters: u32,
        tracer: &TraceHandle,
    ) -> Result<NsRow, XememError> {
        let (label, ns_at) = VARIANTS[variant];
        let mut sys = SystemBuilder::new()
            .with_tracer(tracer.clone())
            .linux_management("linux", 4, 128 << 20)
            .kitten_cokernel("kitten0", 1, 64 << 20)
            .kitten_cokernel("kitten1", 1, 64 << 20)
            .name_server_at(ns_at)
            .build()?;
        let k0 = sys.enclave_by_name("kitten0").unwrap();
        let k1 = sys.enclave_by_name("kitten1").unwrap();
        let exporter = sys.spawn_process(k0, 16 << 20)?;
        let getter = sys.spawn_process(k1, 16 << 20)?;
        let buf = sys.alloc_buffer(exporter, 1 << 20)?;
        let mut make_total = SimDuration::ZERO;
        let mut get_total = SimDuration::ZERO;
        for _ in 0..iters {
            let t0 = sys.clock().now();
            let segid = sys.xpmem_make(exporter, buf, 1 << 20, None)?;
            make_total += sys.clock().now().duration_since(t0);
            let t1 = sys.clock().now();
            let apid = sys.xpmem_get(getter, segid)?;
            get_total += sys.clock().now().duration_since(t1);
            sys.xpmem_release(getter, apid)?;
            sys.xpmem_remove(exporter, segid)?;
        }
        Ok(NsRow {
            placement: label,
            make_us: make_total.as_micros_f64() / iters as f64,
            get_us: get_total.as_micros_f64() / iters as f64,
        })
    }
}

/// Result row of the NUMA-placement ablation.
#[derive(Debug, Clone)]
pub struct NumaRow {
    /// Placement label.
    pub placement: &'static str,
    /// Attach throughput, GB/s.
    pub attach_gbps: f64,
    /// Attach + read throughput, GB/s.
    pub attach_read_gbps: f64,
}

/// The NUMA-placement ablation: the paper pins every enclave to a single
/// socket (§5.1) — this quantifies what happens when the exporter and
/// attacher live on different sockets.
pub mod numa {
    use super::*;
    use xemem_sim::CostModel;

    /// The ablation's placements in output order.
    pub const VARIANTS: [(&str, u32); 2] = [("same socket (paper setup)", 0), ("cross socket", 1)];

    /// Run with the given region size and attachment count.
    pub fn run(size: u64, iters: u32) -> Result<Vec<NumaRow>, XememError> {
        (0..VARIANTS.len())
            .map(|v| run_variant(v, size, iters, &TraceHandle::disabled()))
            .collect()
    }

    /// Run one placement (`0..VARIANTS.len()`) — the independent unit
    /// the parallel run driver shards; its charges land on its own
    /// `tracer`.
    pub fn run_variant(
        variant: usize,
        size: u64,
        iters: u32,
        tracer: &TraceHandle,
    ) -> Result<NumaRow, XememError> {
        let cost = CostModel::default();
        let (label, kitten_zone) = VARIANTS[variant];
        // Size the node explicitly: even zone split must leave room
        // for whichever zone hosts both enclaves.
        let mut sys = SystemBuilder::new()
            .with_tracer(tracer.clone())
            .with_cost(cost.clone())
            .numa_zones(2)
            .with_node(8, 4 * (size + (256 << 20)))
            .on_zone(0)
            .linux_management("linux", 4, size + (128 << 20))
            .on_zone(kitten_zone)
            .kitten_cokernel("kitten", 1, size + (64 << 20))
            .build()?;
        let kitten = sys.enclave_by_name("kitten").unwrap();
        let linux = sys.enclave_by_name("linux").unwrap();
        assert_eq!(sys.enclave_zone(kitten), Some(kitten_zone));
        let exporter = sys.spawn_process(kitten, size + (16 << 20))?;
        let attacher = sys.spawn_process(linux, 8 << 20)?;
        let buf = sys.alloc_buffer(exporter, size)?;
        sys.prepare_buffer(exporter, buf, size)?;
        let segid = sys.xpmem_make(exporter, buf, size, None)?;
        let apid = sys.xpmem_get(attacher, segid)?;
        let mut attach_total = SimDuration::ZERO;
        for _ in 0..iters {
            let t0 = sys.clock().now();
            let o = sys.xpmem_attach_outcome(attacher, apid, 0, size)?;
            attach_total += o.end.duration_since(t0);
            sys.xpmem_detach(attacher, o.va)?;
        }
        // Reads of remote-socket memory run at reduced bandwidth.
        let read_each = if kitten_zone == 0 {
            cost.attached_read(size)
        } else {
            cost.attached_read(size)
                .scaled(1.0 / cost.numa_remote_bw_factor)
        };
        let read_total = attach_total + read_each.times(iters as u64);
        Ok(NumaRow {
            placement: label,
            attach_gbps: throughput_gbps(size * iters as u64, attach_total),
            attach_read_gbps: throughput_gbps(size * iters as u64, read_total),
        })
    }
}

/// Result row of the huge-page attachment ablation.
#[derive(Debug, Clone)]
pub struct HugepageRow {
    /// Mapping granularity label.
    pub variant: &'static str,
    /// Attach throughput, GB/s.
    pub gbps: f64,
}

/// Huge-page attachment mapping (extension beyond the paper): LWK
/// exports are physically contiguous, so the FWK attacher can install
/// 2 MiB leaves instead of one PTE per page — collapsing the dominant
/// `remap_pfn_range` cost of the Fig. 5 pipeline.
pub mod hugepages {
    use super::*;

    /// The ablation's variants in output order.
    pub const VARIANTS: [(&str, bool); 2] = [
        ("4 KiB PTEs (paper)", false),
        ("2 MiB leaves (extension)", true),
    ];

    /// Run with the given region size and attachment count.
    pub fn run(size: u64, iters: u32) -> Result<Vec<HugepageRow>, XememError> {
        (0..VARIANTS.len())
            .map(|v| run_variant(v, size, iters, &TraceHandle::disabled()))
            .collect()
    }

    /// Run one variant (`0..VARIANTS.len()`) — the independent unit the
    /// parallel run driver shards; its charges land on its own `tracer`.
    pub fn run_variant(
        variant: usize,
        size: u64,
        iters: u32,
        tracer: &TraceHandle,
    ) -> Result<HugepageRow, XememError> {
        let (label, huge) = VARIANTS[variant];
        let mut b = SystemBuilder::new()
            .with_tracer(tracer.clone())
            .linux_management("linux", 4, 128 << 20)
            .kitten_cokernel("kitten", 1, size + (64 << 20));
        if huge {
            b = b.hugepage_attach();
        }
        let mut sys = b.build()?;
        let kitten = sys.enclave_by_name("kitten").unwrap();
        let linux = sys.enclave_by_name("linux").unwrap();
        let exporter = sys.spawn_process(kitten, size + (16 << 20))?;
        let attacher = sys.spawn_process(linux, 8 << 20)?;
        let buf = sys.alloc_buffer(exporter, size)?;
        sys.prepare_buffer(exporter, buf, size)?;
        let segid = sys.xpmem_make(exporter, buf, size, None)?;
        let apid = sys.xpmem_get(attacher, segid)?;
        let mut total = SimDuration::ZERO;
        for _ in 0..iters {
            let t0 = sys.clock().now();
            let o = sys.xpmem_attach_outcome(attacher, apid, 0, size)?;
            total += o.end.duration_since(t0);
            sys.xpmem_detach(attacher, o.va)?;
        }
        Ok(HugepageRow {
            variant: label,
            gbps: throughput_gbps(size * iters as u64, total),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memmap_radix_beats_rb_and_coalescing_beats_both() {
        let rows = memmap::run(8 << 20, 3).unwrap();
        let find = |v: &str| rows.iter().find(|r| r.variant.starts_with(v)).unwrap();
        let rb = find("rb-tree / per-page");
        let radix = find("radix / per-page");
        let rb_runs = find("rb-tree / coalesced");
        assert!(
            radix.gbps > rb.gbps,
            "radix {} !> rb {}",
            radix.gbps,
            rb.gbps
        );
        assert!(rb_runs.gbps > rb.gbps);
        // Contiguous LWK exports collapse to a single coalesced entry
        // (plus the RAM entry).
        assert_eq!(rb_runs.entries, 2);
        assert!(rb.entries > 1000);
    }

    #[test]
    fn hugepage_mapping_lifts_attach_throughput() {
        let rows = hugepages::run(16 << 20, 3).unwrap();
        assert!(
            rows[1].gbps > 2.0 * rows[0].gbps,
            "huge {} vs base {}",
            rows[1].gbps,
            rows[0].gbps
        );
    }

    #[test]
    fn cross_socket_placement_is_slower() {
        let rows = numa::run(8 << 20, 3).unwrap();
        assert!(rows[1].attach_gbps < rows[0].attach_gbps * 0.8);
        assert!(rows[1].attach_read_gbps < rows[0].attach_read_gbps);
    }

    #[test]
    fn per_channel_ipi_removes_core0_wait() {
        let rows = ipi::run(4 << 20, 4).unwrap();
        let shared = &rows[0];
        let per_channel = &rows[1];
        assert!(shared.core0_wait_us > 0.0);
        assert!(per_channel.gbps >= shared.gbps);
    }

    #[test]
    fn ns_placement_changes_latency_profile() {
        let rows = name_server::run(5).unwrap();
        assert_eq!(rows.len(), 2);
        // With the NS in kitten0, kitten0's own makes become local
        // (cheap), while cross-enclave gets still pay routing.
        let cokernel = &rows[1];
        let mgmt = &rows[0];
        assert!(cokernel.make_us < mgmt.make_us);
    }
}
