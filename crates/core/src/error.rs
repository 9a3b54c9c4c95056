//! Error type for XEMEM operations.

use crate::ids::{Apid, EnclaveRef, Segid};
use std::fmt;
use xemem_mem::KernelError;

/// Errors surfaced by the XEMEM system.
#[derive(Debug)]
pub enum XememError {
    /// A kernel / memory-management failure in some enclave.
    Kernel(KernelError),
    /// The segid is not registered with the name server.
    UnknownSegid(Segid),
    /// The apid was never granted (or was released).
    UnknownApid(Apid),
    /// No segment with that well-known name exists.
    UnknownName(String),
    /// A well-known name is already taken.
    NameTaken(String),
    /// The enclave reference is invalid or the enclave is not registered.
    BadEnclave(EnclaveRef),
    /// Topology construction error.
    Topology(String),
    /// The requested window is empty or exceeds the exported segment
    /// (an empty segment is refused at make).
    BadWindow { offset: u64, len: u64, seg_len: u64 },
    /// The caller does not own the object it tried to modify.
    PermissionDenied,
    /// The attachment's source segment was revoked (exporter exited,
    /// crashed, or removed the segment) and the reaper unmapped it;
    /// the data is gone, not stale.
    SourceGone,
    /// The permit was already released (double `xpmem_release`).
    AlreadyReleased(Apid),
    /// The attachment was already detached (double `xpmem_detach`).
    AlreadyDetached(u64),
    /// The enclave crashed or was destroyed; no operation can be routed
    /// to, from, or through it.
    EnclaveDead(EnclaveRef),
    /// The destination memory tier is offline in the enclave (an
    /// injected tier outage covers the migration's timestamp). The
    /// policy defers and retries; explicit migrations surface it.
    TierUnavailable {
        /// Slot index of the enclave whose tier is out.
        slot: usize,
        /// The unavailable tier.
        tier: xemem_sim::MemTier,
    },
    /// A name-service shard could not be reached within the retry
    /// budget (bounded outage or failover outlasted the exponential
    /// backoff). Carries the shard, the retry attempts taken, and the
    /// total virtual time spent backing off, so callers can tell a sick
    /// shard from a sick service and see what the outage cost them.
    NameServerUnavailable {
        /// Name-service shard the request was routed to.
        shard: usize,
        /// Backoff retries attempted before giving up.
        attempts: u32,
        /// Total virtual time spent waiting between retries.
        backoff: xemem_sim::SimDuration,
    },
}

impl From<KernelError> for XememError {
    fn from(e: KernelError) -> Self {
        XememError::Kernel(e)
    }
}

impl From<xemem_mem::MemError> for XememError {
    fn from(e: xemem_mem::MemError) -> Self {
        XememError::Kernel(KernelError::Mem(e))
    }
}

impl fmt::Display for XememError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XememError::Kernel(e) => write!(f, "kernel error: {e}"),
            XememError::UnknownSegid(s) => write!(f, "unknown {s}"),
            XememError::UnknownApid(a) => write!(f, "unknown {a}"),
            XememError::UnknownName(n) => write!(f, "no segment named {n:?}"),
            XememError::NameTaken(n) => write!(f, "segment name {n:?} already registered"),
            XememError::BadEnclave(e) => write!(f, "invalid enclave slot {}", e.0),
            XememError::Topology(msg) => write!(f, "topology error: {msg}"),
            XememError::BadWindow {
                offset,
                len,
                seg_len,
            } => {
                write!(
                    f,
                    "window [{offset}, {offset}+{len}) exceeds segment of {seg_len} bytes"
                )
            }
            XememError::PermissionDenied => write!(f, "permission denied"),
            XememError::SourceGone => {
                write!(
                    f,
                    "attachment source revoked (exporter gone); region unmapped"
                )
            }
            XememError::AlreadyReleased(a) => write!(f, "{a} was already released"),
            XememError::AlreadyDetached(va) => {
                write!(f, "attachment at {va:#x} was already detached")
            }
            XememError::EnclaveDead(e) => write!(f, "enclave slot {} is dead", e.0),
            XememError::TierUnavailable { slot, tier } => {
                write!(f, "memory tier {tier} is offline in enclave slot {slot}")
            }
            XememError::NameServerUnavailable {
                shard,
                attempts,
                backoff,
            } => {
                write!(
                    f,
                    "name-service shard {shard} unreachable: retry budget exhausted \
                     ({attempts} attempts, {} ns of backoff)",
                    backoff.as_nanos()
                )
            }
        }
    }
}

impl std::error::Error for XememError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            XememError::Kernel(e) => Some(e),
            _ => None,
        }
    }
}
