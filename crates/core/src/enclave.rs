//! Per-enclave state: the OS/R personality, routing tables and local
//! XEMEM bookkeeping.

use crate::channel::Link;
use crate::ids::{Apid, EnclaveId, Segid};
use crate::system::tier::TierState;
use xemem_mem::{MappingKernel, Pid, VirtAddr};
use xemem_palacios::Vmm;
use xemem_sim::{FxHashMap, FxHashSet, SimTime};

/// A leased, epoch-fenced name-service cache entry.
///
/// Granted by a shard leader on every successful routed lookup and
/// cached client-side. Valid while the virtual clock is before
/// `expires` *and* the granting shard's epoch still matches: a failover
/// bumps the epoch, fencing every lease the dead leader granted without
/// any message reaching the holders. Explicit removal revokes live
/// leases eagerly (`LeaseRevoke`), so the cache never outlives the
/// registration it mirrors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease<T> {
    /// The cached answer.
    pub value: T,
    /// Virtual-time expiry of the grant.
    pub expires: SimTime,
    /// The granting shard's epoch at grant time.
    pub epoch: u64,
    /// Which shard granted it.
    pub shard: usize,
}

/// Which OS personality a VM guest runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestOs {
    /// A Linux-like full-weight guest (the paper's CentOS 7 guests).
    Fwk,
    /// A Kitten-like lightweight guest.
    Lwk,
}

/// The system-software stack of one enclave.
pub enum EnclaveKind {
    /// A native kernel over a hardware partition (Kitten co-kernel or the
    /// Linux management enclave).
    Native(Box<dyn MappingKernel>),
    /// A Palacios VM (the guest kernel lives inside the VMM).
    Vm(Box<Vmm>),
}

impl EnclaveKind {
    /// The kernel that manages processes in this enclave (the guest
    /// kernel, for VMs).
    pub fn kernel_mut(&mut self) -> &mut dyn MappingKernel {
        match self {
            EnclaveKind::Native(k) => &mut **k,
            EnclaveKind::Vm(vmm) => vmm.guest_mut(),
        }
    }

    /// True when this enclave is virtualized.
    pub fn is_vm(&self) -> bool {
        matches!(self, EnclaveKind::Vm(_))
    }
}

impl std::fmt::Debug for EnclaveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnclaveKind::Native(k) => write!(f, "Native({:?})", k.kind()),
            EnclaveKind::Vm(v) => write!(f, "Vm({:?})", v.map_kind()),
        }
    }
}

/// An exported segment owned by this enclave, with everything that
/// lives exactly as long as the export: `make` creates the record and
/// the export's withdrawal drops it.
#[derive(Debug)]
pub struct SegRecord {
    /// Exporting process.
    pub pid: Pid,
    /// Base of the exported region in that process.
    pub va: VirtAddr,
    /// Length in bytes.
    pub len: u64,
    /// Every attachment of the segment, in attach order: whom the
    /// revocation protocol notifies and a migration re-points.
    pub(crate) sites: Vec<AttachSite>,
    /// Where each policy chunk's frames live and how hot it has been.
    pub(crate) tiers: TierState,
}

/// One attachment of an exported segment, indexed exporter-side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AttachSite {
    /// Slot of the attaching enclave.
    pub(crate) slot: usize,
    /// The attaching process.
    pub(crate) pid: Pid,
    /// Base of the attachment in that process.
    pub(crate) va: u64,
}

/// A granted access permit.
#[derive(Debug, Clone, Copy)]
pub struct ApidRecord {
    /// The segment the permit grants access to.
    pub segid: Segid,
    /// The process holding the permit.
    pub pid: Pid,
    /// The enclave owning the segment (cached from the name server at
    /// `xpmem_get` time so attach can route directly).
    pub owner: EnclaveId,
    /// The access mode the grant allows.
    pub mode: crate::ids::AccessMode,
}

/// Lifecycle of an attachment (teardown protocol).
///
/// ```text
///   Live ──(Revoke received, reaper unmapped)──▶ Reaped
/// ```
///
/// Data access through a `Reaped` attachment fails with
/// [`crate::XememError::SourceGone`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttachState {
    /// Mapped and backed by the exporter's frames.
    Live,
    /// Unmapped by the reaper; the source is gone.
    Reaped,
}

/// A live attachment in some process of this enclave.
#[derive(Debug, Clone, Copy)]
pub struct AttachRecord {
    /// The permit it was attached through.
    pub apid: Apid,
    /// The segment the attachment maps (for revocation bookkeeping).
    pub segid: Segid,
    /// The enclave owning the segment.
    pub owner: EnclaveId,
    /// Byte offset of the attached window within the segment (tier
    /// migration re-serves exactly this window when re-pointing).
    pub offset: u64,
    /// Attached length in bytes.
    pub len: u64,
    /// Where in the live → reaped lifecycle this attachment is.
    pub state: AttachState,
}

/// One enclave slot in a [`crate::System`].
pub struct Slot {
    /// Human-readable name.
    pub name: String,
    /// The OS/R stack.
    pub kind: EnclaveKind,
    /// Protocol-level enclave ID (allocated during registration).
    pub id: Option<EnclaveId>,
    /// Parent slot in the topology tree (None for the root).
    pub parent: Option<usize>,
    /// The link to the parent.
    pub parent_link: Option<Link>,
    /// Child slots.
    pub children: Vec<usize>,
    /// Neighbor slot on the path toward the name server (None when this
    /// slot hosts the name server).
    pub ns_via: Option<usize>,
    /// Enclave-ID → neighbor-slot forwarding map (paper §3.2).
    pub routes: FxHashMap<EnclaveId, usize>,
    /// Segments exported from this enclave.
    pub segs: FxHashMap<Segid, SegRecord>,
    /// Permits granted to processes of this enclave.
    pub apids: FxHashMap<Apid, ApidRecord>,
    /// Live attachments, keyed by (pid, attached base address).
    pub attachments: FxHashMap<(Pid, u64), AttachRecord>,
    /// False once the enclave crashed or was destroyed; every operation
    /// touching a dead slot fails with `EnclaveDead`.
    pub alive: bool,
    /// Leased name → segid cache, fed by routed lookups; served while
    /// live and epoch-current (each serve counts as
    /// `ShardCounter::LeaseServes`), revoked by removal and fenced by
    /// failover.
    pub name_leases: FxHashMap<String, Lease<Segid>>,
    /// Leased segid → owning-enclave cache (same protocol).
    pub owner_leases: FxHashMap<Segid, Lease<EnclaveId>>,
    /// Tombstones of released permits, so a double `xpmem_release` is a
    /// clean `AlreadyReleased` instead of `UnknownApid`.
    pub released: FxHashSet<Apid>,
    /// Tombstones of detached attachment bases, so a double
    /// `xpmem_detach` is a clean `AlreadyDetached`.
    pub detached: FxHashSet<(Pid, u64)>,
}

impl Slot {
    /// A fresh, unregistered slot.
    pub fn new(name: String, kind: EnclaveKind) -> Self {
        Slot {
            name,
            kind,
            id: None,
            parent: None,
            parent_link: None,
            children: Vec::new(),
            ns_via: None,
            routes: FxHashMap::default(),
            segs: FxHashMap::default(),
            apids: FxHashMap::default(),
            attachments: FxHashMap::default(),
            alive: true,
            name_leases: FxHashMap::default(),
            owner_leases: FxHashMap::default(),
            released: FxHashSet::default(),
            detached: FxHashSet::default(),
        }
    }
}

impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("id", &self.id)
            .field("parent", &self.parent)
            .field("routes", &self.routes.len())
            .finish()
    }
}
