//! Table 2 — cross-enclave throughput with virtual machines.
//!
//! Three rows, each ≥ 500 attachments to a 1 GB region in the paper:
//!
//! | exporting | attaching | paper GB/s (w/o rb-tree inserts) |
//! |---|---|---|
//! | Kitten | Linux | 12.841 (N/A) |
//! | Kitten | Linux (VM) | 3.991 (8.79) |
//! | Linux (VM) | Kitten | 12.606 (N/A) |
//!
//! The VM row's penalty must *emerge* from red-black-tree inserts into
//! the Palacios memory map; removing structure time recovers the
//! parenthesized number.

use xemem::{GuestOs, MemoryMapKind, SystemBuilder, TraceHandle, XememError};
use xemem_sim::stats::throughput_gbps;
use xemem_sim::{SimDuration, SimTime};

/// One row of the table.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Exporting enclave label.
    pub exporting: &'static str,
    /// Attaching enclave label.
    pub attaching: &'static str,
    /// Measured throughput, GB/s.
    pub gbps: f64,
    /// Throughput with memory-map structure time removed (VM rows only).
    pub gbps_without_rb: Option<f64>,
    /// Fraction of attach time spent updating the guest memory map (VM
    /// rows only; the paper reports ~80%).
    pub map_update_fraction: Option<f64>,
}

/// Number of rows in the table (the independent units the parallel run
/// driver shards).
pub const ROWS: usize = 3;

/// Run all three rows with `iters` attachments of `size` bytes each.
pub fn run(size: u64, iters: u32) -> Result<Vec<Table2Row>, XememError> {
    run_with(size, iters, &TraceHandle::disabled())
}

/// [`run`] with an explicit tracer; each row's system is audited
/// against its own clock elapsed time.
pub fn run_with(size: u64, iters: u32, tracer: &TraceHandle) -> Result<Vec<Table2Row>, XememError> {
    (0..ROWS).map(|r| run_row(r, size, iters, tracer)).collect()
}

/// Run one row (`0..ROWS`) in isolation: each row builds its own
/// system, so rows are independent units.
pub fn run_row(
    row: usize,
    size: u64,
    iters: u32,
    tracer: &TraceHandle,
) -> Result<Table2Row, XememError> {
    let scope = tracer.scope();
    let audit = |sys: &xemem::System| {
        if tracer.is_enabled() {
            let elapsed = sys.clock().now().duration_since(SimTime::ZERO);
            tracer
                .audit_scope(&scope, Some(elapsed))
                .unwrap_or_else(|e| panic!("table2 row{row} conservation audit: {e}"));
        }
    };

    match row {
        // Row 0: Kitten exports, native Linux attaches.
        0 => {
            let mut sys = SystemBuilder::new()
                .with_tracer(tracer.clone())
                .linux_management("linux", 4, 128 << 20)
                .kitten_cokernel("kitten", 1, size + (64 << 20))
                .build()?;
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
            audit(&sys);
            Ok(Table2Row {
                exporting: "Kitten",
                attaching: "Linux",
                gbps: throughput_gbps(size * iters as u64, total),
                gbps_without_rb: None,
                map_update_fraction: None,
            })
        }

        // Row 1: Kitten exports, a Linux VM on the Linux host attaches.
        1 => {
            let mut sys = SystemBuilder::new()
                .with_tracer(tracer.clone())
                .linux_management("linux", 4, 64 << 20)
                .kitten_cokernel("kitten", 1, size + (64 << 20))
                .palacios_vm(
                    "vm",
                    "linux",
                    size / 4 + (96 << 20),
                    MemoryMapKind::RbTree,
                    GuestOs::Fwk,
                )
                .build()?;
            let kitten = sys.enclave_by_name("kitten").unwrap();
            let vm = sys.enclave_by_name("vm").unwrap();
            let exporter = sys.spawn_process(kitten, size + (16 << 20))?;
            let attacher = sys.spawn_process(vm, 8 << 20)?;
            let buf = sys.alloc_buffer(exporter, size)?;
            sys.prepare_buffer(exporter, buf, size)?;
            let segid = sys.xpmem_make(exporter, buf, size, None)?;
            let apid = sys.xpmem_get(attacher, segid)?;
            let mut total = SimDuration::ZERO;
            let mut without_rb = SimDuration::ZERO;
            let mut frac_sum = 0.0;
            for _ in 0..iters {
                let t0 = sys.clock().now();
                let o = sys.xpmem_attach_outcome(attacher, apid, 0, size)?;
                let elapsed = o.end.duration_since(t0);
                total += elapsed;
                let breakdown = sys.last_vm_breakdown().expect("VM attach recorded");
                without_rb += elapsed - breakdown.map_structure;
                frac_sum += breakdown.map_update_fraction();
                sys.xpmem_detach(attacher, o.va)?;
            }
            audit(&sys);
            Ok(Table2Row {
                exporting: "Kitten",
                attaching: "Linux (VM)",
                gbps: throughput_gbps(size * iters as u64, total),
                gbps_without_rb: Some(throughput_gbps(size * iters as u64, without_rb)),
                map_update_fraction: Some(frac_sum / iters as f64),
            })
        }

        // Row 2: a Linux VM exports, Kitten attaches (Fig. 4(b) direction).
        2 => {
            let mut sys = SystemBuilder::new()
                .with_tracer(tracer.clone())
                .linux_management("linux", 4, 64 << 20)
                .kitten_cokernel("kitten", 1, size + (64 << 20))
                .palacios_vm(
                    "vm",
                    "linux",
                    size + (96 << 20),
                    MemoryMapKind::RbTree,
                    GuestOs::Fwk,
                )
                .build()?;
            let kitten = sys.enclave_by_name("kitten").unwrap();
            let vm = sys.enclave_by_name("vm").unwrap();
            let exporter = sys.spawn_process(vm, size + (16 << 20))?;
            let attacher = sys.spawn_process(kitten, 8 << 20)?;
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
            audit(&sys);
            Ok(Table2Row {
                exporting: "Linux (VM)",
                attaching: "Kitten",
                gbps: throughput_gbps(size * iters as u64, total),
                gbps_without_rb: None,
                map_update_fraction: None,
            })
        }

        _ => unreachable!("table2 has {ROWS} rows"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_shape_holds() {
        let rows = run(16 << 20, 3).unwrap();
        assert_eq!(rows.len(), 3);
        let native = rows[0].gbps;
        let vm = rows[1].gbps;
        let vm_norb = rows[1].gbps_without_rb.unwrap();
        let guest_export = rows[2].gbps;
        // The VM attach penalty: roughly 2.5–4x below native.
        assert!(vm < native / 2.2, "vm {vm} vs native {native}");
        // Removing rb time recovers about 2x.
        assert!(vm_norb > 1.6 * vm, "norb {vm_norb} vs vm {vm}");
        // Guest-to-host exports stay near native speed.
        assert!(guest_export > native * 0.75, "guest export {guest_export}");
        // Map updates dominate the VM attach (paper: ~80%).
        let frac = rows[1].map_update_fraction.unwrap();
        assert!((0.5..0.95).contains(&frac), "fraction {frac}");
    }
}
