//! Fig. 5 — cross-enclave throughput using shared memory vs RDMA verbs.
//!
//! Paper setup: one Kitten co-kernel enclave plus the Linux control
//! enclave. A Kitten process exports a region of 128 MB–1 GB; a Linux
//! process repeatedly attaches (and optionally reads out the contents);
//! each size runs 500 attachments. The RDMA comparison is a write
//! bandwidth test between two SR-IOV virtual functions.
//!
//! Expected shape (paper): XEMEM attach ≈ 13 GB/s flat across sizes,
//! attach+read ≈ 12 GB/s, RDMA just under 3.5 GB/s.

use xemem::{SystemBuilder, TraceHandle, XememError};
use xemem_rdma::write_bandwidth_test;
use xemem_sim::stats::throughput_gbps;
use xemem_sim::{CostModel, SimDuration, SimTime};

/// One size point of the figure.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Region size in bytes.
    pub size: u64,
    /// Attach-only throughput, GB/s.
    pub attach_gbps: f64,
    /// Attach + read-out throughput, GB/s.
    pub attach_read_gbps: f64,
    /// RDMA write bandwidth, GB/s.
    pub rdma_gbps: f64,
    /// Attachments measured.
    pub iterations: u32,
}

/// Run the experiment over the given sizes with `iters` attachments per
/// size.
pub fn run(sizes: &[u64], iters: u32) -> Result<Vec<Fig5Row>, XememError> {
    run_with(sizes, iters, &TraceHandle::disabled())
}

/// [`run`] with an explicit tracer. When the handle is enabled, every
/// size point is audited: the sum of attributed span durations must
/// equal the virtual time that elapsed on that system's clock, exactly.
pub fn run_with(
    sizes: &[u64],
    iters: u32,
    tracer: &TraceHandle,
) -> Result<Vec<Fig5Row>, XememError> {
    sizes.iter().map(|&s| run_size(s, iters, tracer)).collect()
}

/// One size point of the sweep — the independent unit the parallel run
/// driver shards. The point builds its own system (own clock, own
/// allocators), so concurrent points cannot interact; when `tracer` is
/// enabled the point audits its own clock tiling before returning.
pub fn run_size(size: u64, iters: u32, tracer: &TraceHandle) -> Result<Fig5Row, XememError> {
    let cost = CostModel::default();
    let scope = tracer.scope();
    let mut sys = SystemBuilder::new()
        .with_cost(cost.clone())
        .with_tracer(tracer.clone())
        .linux_management("linux", 4, 256 << 20)
        .kitten_cokernel("kitten", 1, size + (64 << 20))
        .build()?;
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let exporter = sys.spawn_process(kitten, size + (16 << 20))?;
    let attacher = sys.spawn_process(linux, 16 << 20)?;
    let buf = sys.alloc_buffer(exporter, size)?;
    sys.prepare_buffer(exporter, buf, size)?;
    let segid = sys.xpmem_make(exporter, buf, size, None)?;
    let apid = sys.xpmem_get(attacher, segid)?;

    let mut attach_total = SimDuration::ZERO;
    for _ in 0..iters {
        let start = sys.clock().now();
        let outcome = sys.xpmem_attach_outcome(attacher, apid, 0, size)?;
        attach_total += outcome.end.duration_since(start);
        sys.xpmem_detach(attacher, outcome.va)?;
    }
    // The attach+read series adds the time to read the contents out
    // of the freshly attached mapping.
    let read_each = cost.attached_read(size);
    let read_total = attach_total + read_each.times(iters as u64);

    if tracer.is_enabled() {
        let elapsed = sys.clock().now().duration_since(SimTime::ZERO);
        tracer
            .audit_scope(&scope, Some(elapsed))
            .expect("fig5 conservation audit");
    }

    let rdma_gbps = write_bandwidth_test(&cost, size, iters.clamp(5, 50));
    Ok(Fig5Row {
        size,
        attach_gbps: throughput_gbps(size * iters as u64, attach_total),
        attach_read_gbps: throughput_gbps(size * iters as u64, read_total),
        rdma_gbps,
        iterations: iters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_shape_holds() {
        let rows = run(&[4 << 20, 16 << 20], 5).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.attach_gbps > 3.0 * r.rdma_gbps,
                "attach {} not ≫ rdma {}",
                r.attach_gbps,
                r.rdma_gbps
            );
            assert!(r.attach_read_gbps < r.attach_gbps);
            assert!(r.attach_read_gbps > 0.8 * r.attach_gbps);
        }
    }
}
