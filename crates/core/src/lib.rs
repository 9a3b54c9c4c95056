//! # xemem
//!
//! A reproduction of **XEMEM** (Cross Enclave Memory) — the shared-memory
//! system of *"XEMEM: Efficient Shared Memory for Composed Applications on
//! Multi-OS/R Exascale Systems"* (Kocoloski & Lange, HPDC 2015) — built on
//! simulated substrates so the full system runs, end to end, in plain
//! Rust.
//!
//! XEMEM lets processes in strictly isolated *enclaves* (native
//! lightweight-kernel partitions, a Linux-like management OS, and Palacios
//! virtual machines, composed via the Pisces co-kernel architecture) share
//! memory through an API backwards-compatible with SGI/Cray's XPMEM
//! (paper Table 1):
//!
//! | function | operation |
//! |---|---|
//! | [`System::xpmem_make`]    | export an address region; returns a segid |
//! | [`System::xpmem_remove`]  | remove an exported region |
//! | [`System::xpmem_get`]     | request access to a segid; returns a permission grant (apid) |
//! | [`System::xpmem_release`] | release a permission grant |
//! | [`System::xpmem_attach`]  | map (a window of) a segid into the caller |
//! | [`System::xpmem_detach`]  | unmap an attached region |
//!
//! Under the hood the crate implements the paper's §3–4 design points:
//! a **common global name space** served by a centralized name server
//! (§3.1), **hierarchical command routing** over arbitrary enclave
//! topologies with per-enclave forwarding maps built during enclave-ID
//! allocation (§3.2), **dynamic fine-grained sharing** via PFN lists
//! generated and mapped by each enclave's local OS routines (§3.3–3.4,
//! §4.3), and the Palacios host/guest memory translations and
//! notification device for VM enclaves (§4.4).
//!
//! ## Quick start
//!
//! ```
//! use xemem::{SystemBuilder, GuestOs};
//!
//! // One node: a Linux management enclave (hosting the name server) and
//! // a Kitten co-kernel enclave, as in the paper's Fig. 5 setup.
//! let mut sys = SystemBuilder::new()
//!     .linux_management("linux0", 4, 512 << 20)
//!     .kitten_cokernel("kitten0", 1, 256 << 20)
//!     .build()
//!     .unwrap();
//!
//! let sim = sys.spawn_process(sys.enclave_by_name("kitten0").unwrap(), 64 << 20).unwrap();
//! let ana = sys.spawn_process(sys.enclave_by_name("linux0").unwrap(), 64 << 20).unwrap();
//!
//! // The HPC simulation exports a buffer...
//! let buf = sys.alloc_buffer(sim, 1 << 20).unwrap();
//! sys.write(sim, buf, b"simulation output").unwrap();
//! let segid = sys.xpmem_make(sim, buf, 1 << 20, Some("timestep-0")).unwrap();
//!
//! // ...and the analytics process attaches to it across enclaves.
//! let apid = sys.xpmem_get(ana, segid).unwrap();
//! let va = sys.xpmem_attach(ana, apid, 0, 1 << 20).unwrap();
//! let mut out = vec![0u8; 17];
//! sys.read(ana, va, &mut out).unwrap();
//! assert_eq!(&out, b"simulation output");
//! ```

pub mod api;
pub mod channel;
pub mod enclave;
pub mod error;
pub mod ids;
pub mod name_server;
pub mod protocol;
pub mod system;

pub use channel::Link;
pub use enclave::{AttachState, EnclaveKind, GuestOs, Lease};
pub use error::XememError;
pub use ids::{AccessMode, Apid, EnclaveId, EnclaveRef, ProcessRef, Segid};
pub use name_server::{FailoverReport, NameService};
pub use protocol::MessageKind;
pub use system::{CrashNotice, LanePart, System, SystemBuilder, TierMove};

pub use xemem_mem::{Pid, VirtAddr};
pub use xemem_palacios::MemoryMapKind;
pub use xemem_sim::{
    CostModel, FaultKind, FaultPlan, MemTier, SimDuration, SimTime, TierCosts, TierModel,
    TierPolicy,
};
/// The observability layer (spans, metrics, exporters, conservation
/// auditor) — re-exported so downstream crates need not depend on
/// `xemem-trace` directly.
pub use xemem_trace as trace_layer;
pub use xemem_trace::TraceHandle;
