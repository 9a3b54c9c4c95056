//! # xemem-rdma
//!
//! A verbs-style RDMA simulator modelling the paper's Fig. 5 baseline: a
//! dual-port QDR Mellanox ConnectX-3 with SR-IOV enabled, two virtual
//! functions assigned to separate VMs, and a simple RDMA-write bandwidth
//! test at the recommended MTU.
//!
//! The model captures what the comparison needs:
//!
//! * **Memory regions** must be registered (pinned) before use; remote
//!   access requires a valid rkey and in-bounds offsets.
//! * **Queue pairs** move through the INIT→RTR→RTS state machine before
//!   they accept work requests.
//! * **Transfers** are segmented at the MTU, each segment paying a DMA
//!   engine overhead, and all traffic on one physical port shares the
//!   port's bandwidth (a FIFO resource) — which is why RDMA tops out
//!   around 3.4 GB/s while XEMEM attachments sustain ~13 GB/s.

use std::collections::HashMap;
use xemem_sim::des::Resource;
use xemem_sim::{CostModel, SimDuration, SimTime};

/// Errors from the verbs layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdmaError {
    /// Unknown memory region key.
    BadKey(u32),
    /// Access outside the registered region.
    OutOfBounds {
        offset: u64,
        len: u64,
        region_len: u64,
    },
    /// The queue pair is not ready to send (not in RTS).
    NotReady(QpState),
    /// Unknown queue pair.
    BadQp(u32),
    /// No such virtual function.
    BadVf(u32),
}

impl std::fmt::Display for RdmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RdmaError::BadKey(k) => write!(f, "invalid memory key {k:#x}"),
            RdmaError::OutOfBounds {
                offset,
                len,
                region_len,
            } => {
                write!(
                    f,
                    "access [{offset}, {offset}+{len}) outside region of {region_len} bytes"
                )
            }
            RdmaError::NotReady(s) => write!(f, "queue pair not ready (state {s:?})"),
            RdmaError::BadQp(q) => write!(f, "unknown queue pair {q}"),
            RdmaError::BadVf(v) => write!(f, "unknown virtual function {v}"),
        }
    }
}

impl std::error::Error for RdmaError {}

/// Queue-pair connection state (the subset of the IB state machine the
/// bandwidth test needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpState {
    /// Created, not yet connected.
    Init,
    /// Ready to receive.
    ReadyToReceive,
    /// Ready to send (fully connected).
    ReadyToSend,
}

/// A registered (pinned) memory region.
#[derive(Debug, Clone, Copy)]
struct MemoryRegion {
    len: u64,
}

/// One completion-queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The work request id passed at post time.
    pub wr_id: u64,
    /// When the transfer completed.
    pub at: SimTime,
    /// Bytes moved.
    pub bytes: u64,
}

struct QueuePair {
    state: QpState,
    completions: Vec<Completion>,
}

/// A ConnectX-3-like device with SR-IOV virtual functions.
pub struct IbDevice {
    cost: CostModel,
    /// Physical port bandwidth arbitration (all VFs share it).
    port: Resource,
    vfs: u32,
    regions: HashMap<u32, MemoryRegion>,
    qps: HashMap<u32, QueuePair>,
    next_key: u32,
    next_qp: u32,
}

impl IbDevice {
    /// A device with `vfs` SR-IOV virtual functions (the paper uses 2).
    pub fn new(cost: CostModel, vfs: u32) -> Self {
        IbDevice {
            cost,
            port: Resource::new(),
            vfs,
            regions: HashMap::new(),
            qps: HashMap::new(),
            next_key: 1,
            next_qp: 1,
        }
    }

    /// Register (pin) a memory region of `len` bytes; returns the rkey
    /// and the registration cost (per-page pinning).
    pub fn reg_mr(&mut self, len: u64) -> (u32, SimDuration) {
        let key = self.next_key;
        self.next_key += 1;
        self.regions.insert(key, MemoryRegion { len });
        let pages = len.div_ceil(4096);
        (
            key,
            SimDuration::from_nanos(self.cost.fwk_pin_page_ns).times(pages),
        )
    }

    /// Deregister a region.
    pub fn dereg_mr(&mut self, key: u32) -> Result<(), RdmaError> {
        self.regions
            .remove(&key)
            .map(|_| ())
            .ok_or(RdmaError::BadKey(key))
    }

    /// Create a queue pair on a virtual function (state INIT).
    pub fn create_qp(&mut self, vf: u32) -> Result<u32, RdmaError> {
        if vf >= self.vfs {
            return Err(RdmaError::BadVf(vf));
        }
        let id = self.next_qp;
        self.next_qp += 1;
        self.qps.insert(
            id,
            QueuePair {
                state: QpState::Init,
                completions: Vec::new(),
            },
        );
        Ok(id)
    }

    /// Advance a queue pair INIT→RTR→RTS.
    pub fn modify_qp(&mut self, qp: u32, state: QpState) -> Result<(), RdmaError> {
        let q = self.qps.get_mut(&qp).ok_or(RdmaError::BadQp(qp))?;
        let valid = matches!(
            (q.state, state),
            (QpState::Init, QpState::ReadyToReceive)
                | (QpState::ReadyToReceive, QpState::ReadyToSend)
        );
        if !valid {
            return Err(RdmaError::NotReady(q.state));
        }
        q.state = state;
        Ok(())
    }

    /// Connect two queue pairs (both end RTS) — the loopback-style setup
    /// the bandwidth test uses between two VFs.
    pub fn connect(&mut self, a: u32, b: u32) -> Result<(), RdmaError> {
        for qp in [a, b] {
            self.modify_qp(qp, QpState::ReadyToReceive)?;
            self.modify_qp(qp, QpState::ReadyToSend)?;
        }
        Ok(())
    }

    /// Post an RDMA write of `len` bytes at `offset` into the remote
    /// region `rkey`, starting no earlier than `at`. Returns the
    /// completion time (polled from the CQ).
    pub fn post_rdma_write(
        &mut self,
        qp: u32,
        wr_id: u64,
        rkey: u32,
        offset: u64,
        len: u64,
        at: SimTime,
    ) -> Result<SimTime, RdmaError> {
        let q = self.qps.get(&qp).ok_or(RdmaError::BadQp(qp))?;
        if q.state != QpState::ReadyToSend {
            return Err(RdmaError::NotReady(q.state));
        }
        let region = self.regions.get(&rkey).ok_or(RdmaError::BadKey(rkey))?;
        if offset + len > region.len {
            return Err(RdmaError::OutOfBounds {
                offset,
                len,
                region_len: region.len,
            });
        }
        // Posting overhead on the CPU side, then MTU-segmented wire time
        // on the shared port.
        let post = SimDuration::from_nanos(self.cost.rdma_post_ns);
        let segments = len.div_ceil(self.cost.rdma_mtu as u64);
        let wire = CostModel::transfer_time(len, self.cost.rdma_bw_bps)
            + SimDuration::from_nanos(self.cost.rdma_seg_ns).times(segments);
        let grant = self.port.acquire(at + post, wire);
        let done = grant.end;
        self.qps
            .get_mut(&qp)
            .expect("checked above")
            .completions
            .push(Completion {
                wr_id,
                at: done,
                bytes: len,
            });
        Ok(done)
    }

    /// Drain the completion queue of a queue pair.
    pub fn poll_cq(&mut self, qp: u32) -> Result<Vec<Completion>, RdmaError> {
        let q = self.qps.get_mut(&qp).ok_or(RdmaError::BadQp(qp))?;
        Ok(std::mem::take(&mut q.completions))
    }
}

/// The Fig. 5 baseline: an RDMA-write bandwidth test between two SR-IOV
/// virtual functions, `iters` transfers of `bytes` each. Returns the
/// sustained throughput in GB/s.
pub fn write_bandwidth_test(cost: &CostModel, bytes: u64, iters: u32) -> f64 {
    let mut dev = IbDevice::new(cost.clone(), 2);
    let (rkey, reg_cost) = dev.reg_mr(bytes);
    let qp_a = dev.create_qp(0).expect("vf 0 exists");
    let qp_b = dev.create_qp(1).expect("vf 1 exists");
    dev.connect(qp_a, qp_b).expect("fresh qps connect");
    let mut t = SimTime::ZERO + reg_cost;
    let start = t;
    for i in 0..iters {
        t = dev
            .post_rdma_write(qp_a, i as u64, rkey, 0, bytes, t)
            .expect("in-bounds write");
    }
    let total = bytes * iters as u64;
    xemem_sim::stats::throughput_gbps(total, t.duration_since(start))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> IbDevice {
        IbDevice::new(CostModel::default(), 2)
    }

    #[test]
    fn qp_state_machine_enforced() {
        let mut dev = device();
        let (rkey, _) = dev.reg_mr(4096);
        let qp = dev.create_qp(0).unwrap();
        // Cannot send from INIT.
        assert!(matches!(
            dev.post_rdma_write(qp, 0, rkey, 0, 64, SimTime::ZERO),
            Err(RdmaError::NotReady(QpState::Init))
        ));
        // Cannot skip RTR.
        assert!(dev.modify_qp(qp, QpState::ReadyToSend).is_err());
        dev.modify_qp(qp, QpState::ReadyToReceive).unwrap();
        dev.modify_qp(qp, QpState::ReadyToSend).unwrap();
        assert!(dev
            .post_rdma_write(qp, 0, rkey, 0, 64, SimTime::ZERO)
            .is_ok());
    }

    #[test]
    fn bounds_and_keys_checked() {
        let mut dev = device();
        let (rkey, _) = dev.reg_mr(8192);
        let qp = dev.create_qp(0).unwrap();
        let qp2 = dev.create_qp(1).unwrap();
        dev.connect(qp, qp2).unwrap();
        assert!(matches!(
            dev.post_rdma_write(qp, 0, rkey + 99, 0, 64, SimTime::ZERO),
            Err(RdmaError::BadKey(_))
        ));
        assert!(matches!(
            dev.post_rdma_write(qp, 0, rkey, 8000, 1000, SimTime::ZERO),
            Err(RdmaError::OutOfBounds { .. })
        ));
        dev.dereg_mr(rkey).unwrap();
        assert!(dev
            .post_rdma_write(qp, 0, rkey, 0, 64, SimTime::ZERO)
            .is_err());
    }

    #[test]
    fn completions_are_reported_once() {
        let mut dev = device();
        let (rkey, _) = dev.reg_mr(1 << 20);
        let (a, b) = (dev.create_qp(0).unwrap(), dev.create_qp(1).unwrap());
        dev.connect(a, b).unwrap();
        dev.post_rdma_write(a, 7, rkey, 0, 1 << 20, SimTime::ZERO)
            .unwrap();
        let comps = dev.poll_cq(a).unwrap();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].wr_id, 7);
        assert!(dev.poll_cq(a).unwrap().is_empty());
    }

    #[test]
    fn concurrent_vfs_share_the_port() {
        let mut dev = device();
        let (rkey, _) = dev.reg_mr(1 << 24);
        let (a, b) = (dev.create_qp(0).unwrap(), dev.create_qp(1).unwrap());
        dev.connect(a, b).unwrap();
        let t1 = dev
            .post_rdma_write(a, 0, rkey, 0, 1 << 24, SimTime::ZERO)
            .unwrap();
        let t2 = dev
            .post_rdma_write(b, 1, rkey, 0, 1 << 24, SimTime::ZERO)
            .unwrap();
        // The second transfer queues behind the first on the port.
        assert!(t2 > t1);
        assert!(t2.as_nanos() >= 2 * (t1.as_nanos() - 1200));
    }

    #[test]
    fn bandwidth_test_lands_under_3_5_gbps() {
        let cost = CostModel::default();
        for bytes in [128u64 << 20, 256 << 20, 1 << 30] {
            let gbps = write_bandwidth_test(&cost, bytes, 10);
            assert!((3.0..3.5).contains(&gbps), "{bytes}B: {gbps} GB/s");
        }
    }

    #[test]
    fn small_transfers_are_latency_dominated() {
        let cost = CostModel::default();
        let small = write_bandwidth_test(&cost, 4096, 100);
        let large = write_bandwidth_test(&cost, 64 << 20, 10);
        assert!(small < large * 0.7, "small {small} vs large {large}");
    }

    #[test]
    fn bad_vf_rejected() {
        let mut dev = device();
        assert!(matches!(dev.create_qp(5), Err(RdmaError::BadVf(5))));
    }
}
