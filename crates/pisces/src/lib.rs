//! # xemem-pisces
//!
//! A simulator of the Pisces lightweight co-kernel architecture (paper
//! §4, §4.5; Ouyang et al., HPDC'15). Pisces decomposes a node's hardware
//! — cores and memory blocks — into partitions fully managed by
//! independent system-software stacks, and provides the IPI-based
//! cross-enclave message channel XEMEM runs over:
//!
//! * [`NodeResources`] — carves disjoint core sets and frame ranges out of
//!   a node for each enclave.
//! * [`IpiChannel`] / [`Core0Handler`] — the kernel-to-kernel channel: a
//!   small shared-memory region negotiated with inter-processor
//!   interrupts. Crucially (paper §5.3), *all* IPI communication with the
//!   Linux management enclave is restricted to **core 0**, so concurrent
//!   enclaves' messages serialize there — the mechanism behind the slight
//!   1→2-enclave throughput dip in Fig. 6. The handler is modelled as a
//!   FIFO [`Resource`] shared by every channel on the node.

use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;

use xemem_mem::{FrameAllocator, MemError, Pfn};
use xemem_sim::des::Resource;
use xemem_sim::{CostModel, SimDuration, SimTime};

/// A carved-out hardware partition handed to one enclave OS.
#[derive(Debug)]
pub struct Partition {
    /// Hardware threads owned by the enclave.
    pub cores: Range<u32>,
    /// Frame allocator over the enclave's memory blocks.
    pub alloc: FrameAllocator,
    /// NUMA zone the partition was carved from (paper experiments pin
    /// each enclave to a single socket).
    pub numa_zone: u32,
}

/// A node's divisible hardware resources.
#[derive(Debug)]
pub struct NodeResources {
    total_cores: u32,
    next_core: u32,
    /// Free frame cursor per zone: (zone id, next frame, zone end).
    zones: Vec<(u32, u64, u64)>,
}

impl NodeResources {
    /// A node with `cores` hardware threads and one memory zone of
    /// `frames` frames.
    pub fn new(cores: u32, frames: u64) -> Self {
        NodeResources {
            total_cores: cores,
            next_core: 0,
            zones: vec![(0, 0, frames)],
        }
    }

    /// A node with explicit NUMA zones, given as (zone id, frames) —
    /// zones are laid out back to back in the frame space.
    pub fn with_zones(cores: u32, sizes: Vec<(u32, u64)>) -> Self {
        let mut zones = Vec::with_capacity(sizes.len());
        let mut base = 0u64;
        for (id, frames) in sizes {
            zones.push((id, base, base + frames));
            base += frames;
        }
        NodeResources {
            total_cores: cores,
            next_core: 0,
            zones,
        }
    }

    /// The paper's evaluation node: 24 hardware threads, two 16 GiB NUMA
    /// sockets.
    pub fn paper_node() -> Self {
        let per_zone = 16u64 << (30 - 12);
        NodeResources {
            total_cores: 24,
            next_core: 0,
            zones: vec![(0, 0, per_zone), (1, per_zone, 2 * per_zone)],
        }
    }

    /// Cores not yet assigned.
    pub fn free_cores(&self) -> u32 {
        self.total_cores - self.next_core
    }

    /// Frames not yet assigned in the given zone.
    pub fn free_frames(&self, zone: u32) -> u64 {
        self.zones
            .iter()
            .find(|(z, _, _)| *z == zone)
            .map(|(_, next, end)| end - next)
            .unwrap_or(0)
    }

    /// Carve a partition of `cores` cores and `frames` frames from the
    /// given NUMA zone.
    pub fn carve(&mut self, cores: u32, frames: u64, zone: u32) -> Result<Partition, MemError> {
        if self.next_core + cores > self.total_cores {
            return Err(MemError::OutOfFrames {
                requested: cores as u64,
                available: self.free_cores() as u64,
            });
        }
        let (_, next, end) =
            self.zones
                .iter_mut()
                .find(|(z, _, _)| *z == zone)
                .ok_or(MemError::OutOfFrames {
                    requested: frames,
                    available: 0,
                })?;
        if *next + frames > *end {
            return Err(MemError::OutOfFrames {
                requested: frames,
                available: *end - *next,
            });
        }
        let base = Pfn(*next);
        *next += frames;
        let core_start = self.next_core;
        self.next_core += cores;
        Ok(Partition {
            cores: core_start..core_start + cores,
            alloc: FrameAllocator::new(base, frames),
            numa_zone: zone,
        })
    }
}

/// The management enclave's IPI handler, pinned to core 0 and shared by
/// every cross-enclave channel on the node.
#[derive(Debug, Clone, Default)]
pub struct Core0Handler {
    inner: Arc<Mutex<Resource>>,
}

impl Core0Handler {
    /// A fresh handler for one node.
    pub fn new() -> Self {
        Self::default()
    }

    /// Occupy core 0 for `service` starting no earlier than `at`; FIFO.
    pub fn acquire(&self, at: SimTime, service: SimDuration) -> SimTime {
        self.inner.lock().acquire(at, service).end
    }

    /// Like [`Core0Handler::acquire`], but also returns the queueing
    /// delay before service began (for tracing attribution).
    pub fn acquire_timed(&self, at: SimTime, service: SimDuration) -> (SimTime, SimDuration) {
        let grant = self.inner.lock().acquire(at, service);
        (grant.end, grant.queued(at))
    }

    /// Total queueing delay accumulated by all messages (diagnostic for
    /// the Fig. 6 contention analysis).
    pub fn total_wait(&self) -> SimDuration {
        self.inner.lock().total_wait()
    }

    /// Messages handled.
    pub fn messages(&self) -> u64 {
        self.inner.lock().grants()
    }

    /// Prune calendar bookings that end at or before `horizon`; callers
    /// promise no later `acquire` arrives earlier than `horizon`. See
    /// [`Resource::retire_before`] — behaviour-preserving, keeps long
    /// runs from scanning the whole booking history per message.
    pub fn retire_before(&self, horizon: SimTime) {
        self.inner.lock().retire_before(horizon);
    }
}

/// An IPI-based kernel message channel between one co-kernel enclave and
/// the management enclave (paper §4.5, "Pisces IPI-Based Channel").
#[derive(Debug, Clone)]
pub struct IpiChannel {
    cost: CostModel,
    core0: Core0Handler,
}

impl IpiChannel {
    /// Create a channel whose interrupts land on the given node handler.
    pub fn new(cost: CostModel, core0: Core0Handler) -> Self {
        IpiChannel { cost, core0 }
    }

    /// The shared handler (for diagnostics).
    pub fn core0(&self) -> &Core0Handler {
        &self.core0
    }

    /// Send a message with `payload_bytes` of bulk data at `at`; returns
    /// the time the destination finishes copying it out.
    ///
    /// The full exchange (IPI, ready-flag handshake, copy-in, copy-out)
    /// executes in interrupt context on core 0, so concurrent channels
    /// serialize here.
    pub fn send(&self, at: SimTime, payload_bytes: u64) -> SimTime {
        self.send_timed(at, payload_bytes).0
    }

    /// [`IpiChannel::send`], but also reporting the core-0 queueing
    /// delay separately from the transfer itself: the returned finish
    /// time always equals `at + wait + transfer` exactly.
    pub fn send_timed(&self, at: SimTime, payload_bytes: u64) -> (SimTime, SimDuration) {
        let service = SimDuration::from_nanos(self.cost.ipi_ns + self.cost.channel_msg_ns)
            + self.cost.channel_copy(payload_bytes);
        self.core0.acquire_timed(at, service)
    }

    /// Retire the shared handler's calendar up to `horizon` (see
    /// [`Core0Handler::retire_before`]).
    pub fn retire_before(&self, horizon: SimTime) {
        self.core0.retire_before(horizon);
    }

    /// Cost of a minimal control message (no bulk payload), without
    /// contention — used by sequential (single-timeline) experiments.
    pub fn control_message_cost(&self) -> SimDuration {
        SimDuration::from_nanos(self.cost.ipi_ns + self.cost.channel_msg_ns)
    }

    /// Cost of a bulk transfer of `bytes`, without contention.
    pub fn bulk_cost(&self, bytes: u64) -> SimDuration {
        self.control_message_cost() + self.cost.channel_copy(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carving_is_disjoint() {
        let mut node = NodeResources::new(24, 1 << 20);
        let a = node.carve(4, 1 << 18, 0).unwrap();
        let b = node.carve(4, 1 << 18, 0).unwrap();
        assert_eq!(a.cores, 0..4);
        assert_eq!(b.cores, 4..8);
        assert_eq!(a.alloc.base(), Pfn(0));
        assert_eq!(b.alloc.base(), Pfn(1 << 18));
        assert_eq!(node.free_cores(), 16);
        assert_eq!(node.free_frames(0), (1 << 20) - (1 << 19));
    }

    #[test]
    fn carving_rejects_overcommit() {
        let mut node = NodeResources::new(8, 1 << 10);
        assert!(node.carve(16, 1, 0).is_err());
        assert!(node.carve(1, 1 << 11, 0).is_err());
        assert!(node.carve(1, 1, 9).is_err(), "unknown zone");
    }

    #[test]
    fn paper_node_layout() {
        let mut node = NodeResources::paper_node();
        assert_eq!(node.free_cores(), 24);
        // Carve the Fig. 6 worst case: 8 enclaves × 1 core × 1.5 GiB from
        // socket 0 wouldn't fit (only 16 GiB per socket ⇒ 10 enclaves max),
        // 8 × 1.5 GiB = 12 GiB fits.
        for _ in 0..8 {
            node.carve(1, (3 << 30) / 2 / 4096, 0).unwrap();
        }
        assert!(node.free_frames(0) > 0);
        assert_eq!(node.free_frames(1), 16 << 18);
    }

    #[test]
    fn channel_sends_serialize_on_core0() {
        let cost = CostModel::default();
        let core0 = Core0Handler::new();
        let ch_a = IpiChannel::new(cost.clone(), core0.clone());
        let ch_b = IpiChannel::new(cost, core0.clone());
        let t0 = SimTime::ZERO;
        let done_a = ch_a.send(t0, 0);
        let done_b = ch_b.send(t0, 0);
        // Same arrival time: B queues behind A.
        assert_eq!(done_b.as_nanos(), 2 * done_a.as_nanos());
        assert!(core0.total_wait() > SimDuration::ZERO);
        assert_eq!(core0.messages(), 2);
    }

    #[test]
    fn bulk_payloads_occupy_the_handler_longer() {
        let cost = CostModel::default();
        let core0 = Core0Handler::new();
        let ch = IpiChannel::new(cost.clone(), core0);
        let small = ch.send(SimTime::ZERO, 0);
        let big_start = small;
        let big_done = ch.send(big_start, 2 << 20); // a 2 MiB PFN list
        let bulk = big_done.duration_since(big_start);
        // 2 MiB at 10 GB/s ≈ 210 µs ≫ control message.
        assert!(bulk > SimDuration::from_micros(200), "bulk = {bulk}");
        assert_eq!(ch.bulk_cost(0), ch.control_message_cost());
    }

    #[test]
    fn idle_channel_has_no_queueing() {
        let cost = CostModel::default();
        let core0 = Core0Handler::new();
        let ch = IpiChannel::new(cost, core0.clone());
        let mut t = SimTime::ZERO;
        for _ in 0..10 {
            // Send well-spaced messages: no waiting.
            t = ch.send(t + SimDuration::from_millis(1), 0);
        }
        assert_eq!(core0.total_wait(), SimDuration::ZERO);
    }
}
