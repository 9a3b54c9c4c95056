//! The sharded, replicated name service (paper §3.1, grown past the
//! paper's single well-known enclave).
//!
//! XEMEM administers a common global name space. The paper runs one
//! name server in one enclave; this module generalizes it to a service
//! whose namespace is consistent-hashed across N shards, each hosted by
//! a leader enclave plus R-1 follower replicas:
//!
//! * **Shard selection** — named segments hash by name, anonymous ones
//!   by owning enclave, onto a ring of 16 virtual nodes per shard, so a
//!   key always resolves to the same shard and shards stay balanced.
//! * **Segid encoding** — a segid is `(shard << 48) | counter`, with a
//!   per-shard counter starting at 1. The single-shard configuration
//!   therefore numbers segids 1, 2, 3, … exactly like the original
//!   centralized server.
//! * **Replication** — the leader applies mutations immediately and
//!   streams them to followers with a bounded lag: an insert older than
//!   the replication horizon is durable on every live replica, a
//!   younger one is lost if the leader dies first. Removes are modeled
//!   as synchronously replicated (acked only once durable), so a
//!   failover can lose registrations but never resurrect removed ones.
//! * **Failover** — when a leader's slot dies, the surviving replica
//!   with the lowest position is promoted, the shard's epoch rises, and
//!   the shard stays unavailable for an election timeout. Lease-holder
//!   soft state dies with the leader; the epoch bump fences every lease
//!   granted by the old leader.
//!
//! The state machine here is pure (no timing beyond the virtual-time
//! stamps the caller passes in); the protocol engine in `system.rs`
//! charges the routing, processing, and lease costs from
//! [`xemem_sim::CostModel`].

use crate::error::XememError;
use crate::ids::{EnclaveId, Segid};
use std::collections::{BTreeMap, VecDeque};
use xemem_sim::{mix64, FxHashMap, SimDuration, SimTime};

/// Bit position of the shard index inside a segid.
pub const SHARD_SHIFT: u32 = 48;

/// Virtual nodes per shard on the consistent-hash ring.
const VNODES: u64 = 16;

/// One shard failover, reported to the caller for tracing/metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverReport {
    /// Which shard lost its leader.
    pub shard: usize,
    /// Slot promoted to leader, or `None` when no replica survives.
    pub new_leader: Option<usize>,
    /// The shard's epoch after the promotion (fences old leases).
    pub epoch: u64,
    /// Registrations that had not replicated and are now gone.
    pub lost_registrations: u64,
    /// When the shard answers again (end of the election timeout).
    pub available_at: SimTime,
}

/// A namespace mutation awaiting replication to the followers.
#[derive(Debug, Clone)]
enum PendingInsert {
    Insert { segid: Segid, name: Option<String> },
}

#[derive(Debug, Default)]
struct ShardMaps {
    /// segid → owning enclave.
    owners: FxHashMap<Segid, EnclaveId>,
    /// Optional well-known names for discoverability.
    names: FxHashMap<String, Segid>,
    /// Reverse map for cleanup.
    segid_names: FxHashMap<Segid, String>,
}

#[derive(Debug)]
struct Shard {
    /// Live replica slots; position 0 is the current leader.
    replicas: Vec<usize>,
    /// Fencing token, bumped on every failover.
    epoch: u64,
    /// Per-shard segid counter (the low 48 bits of issued segids).
    next_segid: u64,
    maps: ShardMaps,
    /// Inserts the leader has applied but followers may not have yet,
    /// oldest first, stamped with their apply time.
    pending: VecDeque<(SimTime, PendingInsert)>,
    /// The shard answers nothing before this instant (election window).
    unavailable_until: SimTime,
    /// Leader soft state: segid → (client slot → lease expiry). Cleared
    /// on failover; the epoch bump makes the lost grants unusable.
    lease_holders: BTreeMap<Segid, BTreeMap<usize, SimTime>>,
    /// How many leader promotions this shard has been through.
    failovers: u64,
}

impl Shard {
    fn new(replicas: Vec<usize>) -> Self {
        Shard {
            replicas,
            epoch: 0,
            next_segid: 0,
            maps: ShardMaps::default(),
            pending: VecDeque::new(),
            unavailable_until: SimTime::ZERO,
            lease_holders: BTreeMap::new(),
            failovers: 0,
        }
    }

    /// Drop pending inserts old enough to be durable on every replica.
    fn absorb(&mut self, now: SimTime, lag: SimDuration) {
        while let Some(&(at, _)) = self.pending.front() {
            if at + lag <= now {
                self.pending.pop_front();
            } else {
                break;
            }
        }
    }

    /// Undo every still-pending insert (the leader died before they
    /// replicated); returns how many registrations were lost.
    fn drop_unreplicated(&mut self) -> u64 {
        let mut lost = 0;
        while let Some((_, PendingInsert::Insert { segid, name })) = self.pending.pop_back() {
            if self.maps.owners.remove(&segid).is_some() {
                lost += 1;
            }
            if let Some(name) = name {
                if self.maps.names.get(&name) == Some(&segid) {
                    self.maps.names.remove(&name);
                }
                self.maps.segid_names.remove(&segid);
            }
            self.lease_holders.remove(&segid);
        }
        lost
    }
}

/// The name service: shard table, hash ring, and the global enclave-ID
/// allocator (enclave registration stays centralized — it happens once
/// per enclave at build time, through the root name-server enclave).
#[derive(Debug)]
pub struct NameService {
    next_enclave: u32,
    shards: Vec<Shard>,
    /// Sorted (point, shard) ring; empty when there is a single shard.
    ring: Vec<(u64, usize)>,
    replication_lag: SimDuration,
    election_timeout: SimDuration,
}

/// One splitmix64 output: the generator's state step, then its mixer.
fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a over the bytes, finished with a splitmix avalanche so
    // short names spread over the full ring.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    splitmix64(h)
}

impl NameService {
    /// The paper's configuration: one shard, one replica, hosted by the
    /// well-known name-server slot. Behaves exactly like the original
    /// centralized `NameServer`.
    pub fn centralized(ns_slot: usize) -> Self {
        NameService::sharded(vec![vec![ns_slot]], SimDuration::ZERO, SimDuration::ZERO)
    }

    /// A sharded service: one replica set per shard (position 0 leads),
    /// with the given replication-lag and election-timeout horizons.
    pub fn sharded(
        replica_sets: Vec<Vec<usize>>,
        replication_lag: SimDuration,
        election_timeout: SimDuration,
    ) -> Self {
        assert!(!replica_sets.is_empty(), "need at least one shard");
        assert!(
            replica_sets.iter().all(|r| !r.is_empty()),
            "every shard needs at least one replica"
        );
        let n = replica_sets.len();
        let mut ring = Vec::new();
        if n > 1 {
            for (s, _) in replica_sets.iter().enumerate() {
                for v in 0..VNODES {
                    ring.push((splitmix64((s as u64) << 32 | v), s));
                }
            }
            ring.sort_unstable();
        }
        NameService {
            next_enclave: 0,
            shards: replica_sets.into_iter().map(Shard::new).collect(),
            ring,
            replication_lag,
            election_timeout,
        }
    }

    /// Number of shards the namespace is split across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether the service actually runs sharded/replicated (anything
    /// beyond the paper's single shard on a single replica).
    pub fn is_distributed(&self) -> bool {
        self.shards.len() > 1 || self.shards[0].replicas.len() > 1
    }

    /// The slot currently leading `shard`, if any replica survives.
    pub fn leader_slot(&self, shard: usize) -> Option<usize> {
        self.shards[shard].replicas.first().copied()
    }

    /// Live replica slots of `shard` (leader first).
    pub fn replicas(&self, shard: usize) -> &[usize] {
        &self.shards[shard].replicas
    }

    /// The shard's fencing epoch (rises on every failover).
    pub fn epoch(&self, shard: usize) -> u64 {
        self.shards[shard].epoch
    }

    /// How many leader promotions `shard` has been through.
    pub fn failover_count(&self, shard: usize) -> u64 {
        self.shards[shard].failovers
    }

    /// End of the shard's current election window, if one is running.
    pub fn unavailable_until(&self, shard: usize, at: SimTime) -> Option<SimTime> {
        let until = self.shards[shard].unavailable_until;
        (at < until).then_some(until)
    }

    /// Is `slot` the only surviving replica of some shard? Crashing it
    /// would destroy namespace state with no failover possible.
    pub fn is_sole_replica(&self, slot: usize) -> bool {
        self.shards
            .iter()
            .any(|s| s.replicas.len() == 1 && s.replicas[0] == slot)
    }

    /// Shard responsible for a well-known name.
    pub fn shard_of_name(&self, name: &str) -> usize {
        self.shard_of_point(hash_name(name))
    }

    /// Shard responsible for an anonymous segment of `owner`.
    pub fn shard_of_owner(&self, owner: EnclaveId) -> usize {
        self.shard_of_point(splitmix64(u64::from(owner.0)))
    }

    /// Shard a segid was issued by (decoded from its high bits).
    pub fn shard_of_segid(&self, segid: Segid) -> Result<usize, XememError> {
        let shard = (segid.0 >> SHARD_SHIFT) as usize;
        if shard < self.shards.len() {
            Ok(shard)
        } else {
            Err(XememError::UnknownSegid(segid))
        }
    }

    fn shard_of_point(&self, point: u64) -> usize {
        if self.ring.is_empty() {
            return 0;
        }
        let i = self.ring.partition_point(|&(p, _)| p < point);
        self.ring[i % self.ring.len()].1
    }

    /// Allocate a new enclave ID (registration, §3.2).
    pub fn alloc_enclave_id(&mut self) -> EnclaveId {
        let id = EnclaveId(self.next_enclave);
        self.next_enclave += 1;
        id
    }

    /// Mature pending replication on every shard up to `now`.
    pub fn absorb(&mut self, now: SimTime) {
        let lag = self.replication_lag;
        for shard in &mut self.shards {
            shard.absorb(now, lag);
        }
    }

    /// Allocate a globally unique segid owned by `owner`, optionally
    /// binding a well-known name, applied at virtual time `at`.
    pub fn alloc_segid(
        &mut self,
        owner: EnclaveId,
        name: Option<&str>,
        at: SimTime,
    ) -> Result<Segid, XememError> {
        let idx = match name {
            Some(n) => self.shard_of_name(n),
            None => self.shard_of_owner(owner),
        };
        let distributed = self.is_distributed();
        let shard = &mut self.shards[idx];
        if let Some(n) = name {
            if shard.maps.names.contains_key(n) {
                return Err(XememError::NameTaken(n.to_string()));
            }
        }
        // Per-shard counters start above zero; uniqueness is global
        // because the shard index rides in the high bits.
        shard.next_segid += 1;
        let segid = Segid((idx as u64) << SHARD_SHIFT | shard.next_segid);
        shard.maps.owners.insert(segid, owner);
        if let Some(n) = name {
            shard.maps.names.insert(n.to_string(), segid);
            shard.maps.segid_names.insert(segid, n.to_string());
        }
        if distributed {
            shard.pending.push_back((
                at,
                PendingInsert::Insert {
                    segid,
                    name: name.map(str::to_string),
                },
            ));
        }
        Ok(segid)
    }

    /// The enclave owning a segid.
    pub fn owner_of(&self, segid: Segid) -> Result<EnclaveId, XememError> {
        let shard = self.shard_of_segid(segid)?;
        self.shards[shard]
            .maps
            .owners
            .get(&segid)
            .copied()
            .ok_or(XememError::UnknownSegid(segid))
    }

    /// Discovery: resolve a well-known name to a segid.
    pub fn search(&self, name: &str) -> Result<Segid, XememError> {
        let shard = self.shard_of_name(name);
        self.shards[shard]
            .maps
            .names
            .get(name)
            .copied()
            .ok_or_else(|| XememError::UnknownName(name.to_string()))
    }

    /// Remove a segid registration at virtual time `at`. Only the owner
    /// may remove it. Removes replicate synchronously, so they are
    /// never resurrected by a failover.
    pub fn remove_segid(
        &mut self,
        segid: Segid,
        requester: EnclaveId,
        at: SimTime,
    ) -> Result<(), XememError> {
        let idx = self.shard_of_segid(segid)?;
        self.absorb(at);
        let shard = &mut self.shards[idx];
        match shard.maps.owners.get(&segid) {
            None => Err(XememError::UnknownSegid(segid)),
            Some(&owner) if owner != requester => Err(XememError::PermissionDenied),
            Some(_) => {
                shard.maps.owners.remove(&segid);
                if let Some(name) = shard.maps.segid_names.remove(&segid) {
                    shard.maps.names.remove(&name);
                }
                // If the insert itself was still pending, the remove
                // supersedes it.
                shard
                    .pending
                    .retain(|(_, PendingInsert::Insert { segid: s, .. })| *s != segid);
                Ok(())
            }
        }
    }

    /// Record a lease on `segid` held by the client at `holder_slot`
    /// until `expires` (leader soft state; extends any existing grant).
    pub fn grant_lease(&mut self, segid: Segid, holder_slot: usize, expires: SimTime) {
        let Ok(idx) = self.shard_of_segid(segid) else {
            return;
        };
        let entry = self.shards[idx]
            .lease_holders
            .entry(segid)
            .or_default()
            .entry(holder_slot)
            .or_insert(expires);
        if expires > *entry {
            *entry = expires;
        }
    }

    /// Take the holders whose leases on `segid` are still live at `now`
    /// (sorted by slot), clearing the shard's soft state for the segid.
    /// The caller sends them revocations.
    pub fn take_lease_holders(&mut self, segid: Segid, now: SimTime) -> Vec<(usize, SimTime)> {
        let Ok(idx) = self.shard_of_segid(segid) else {
            return Vec::new();
        };
        match self.shards[idx].lease_holders.remove(&segid) {
            Some(holders) => holders
                .into_iter()
                .filter(|&(_, expires)| expires > now)
                .collect(),
            None => Vec::new(),
        }
    }

    /// A slot died at `now`: drop it from every replica set it serves,
    /// failing over shards it led. Returns one report per shard that
    /// lost its leader, in shard order.
    pub fn on_slot_dead(&mut self, slot: usize, now: SimTime) -> Vec<FailoverReport> {
        let lag = self.replication_lag;
        let election = self.election_timeout;
        let mut reports = Vec::new();
        for (idx, shard) in self.shards.iter_mut().enumerate() {
            let Some(pos) = shard.replicas.iter().position(|&s| s == slot) else {
                continue;
            };
            shard.replicas.remove(pos);
            if pos != 0 {
                // A follower died; the leader keeps serving.
                continue;
            }
            // The leader died: everything already replicated survives
            // on the followers, younger inserts are gone.
            shard.absorb(now, lag);
            let lost = shard.drop_unreplicated();
            shard.epoch += 1;
            shard.failovers += 1;
            shard.lease_holders.clear();
            let new_leader = shard.replicas.first().copied();
            shard.unavailable_until = if new_leader.is_some() {
                now + election
            } else {
                SimTime::MAX
            };
            reports.push(FailoverReport {
                shard: idx,
                new_leader,
                epoch: shard.epoch,
                lost_registrations: lost,
                available_at: shard.unavailable_until,
            });
        }
        reports
    }

    /// Number of live segid registrations across every shard.
    pub fn live_segids(&self) -> usize {
        self.shards.iter().map(|s| s.maps.owners.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xemem_sim::FxHashSet;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn enclave_ids_are_sequential_and_unique() {
        let mut ns = NameService::centralized(0);
        let a = ns.alloc_enclave_id();
        let b = ns.alloc_enclave_id();
        assert_ne!(a, b);
    }

    #[test]
    fn segid_lifecycle() {
        let mut ns = NameService::centralized(0);
        let owner = ns.alloc_enclave_id();
        let other = ns.alloc_enclave_id();
        let seg = ns.alloc_segid(owner, Some("results"), at(0)).unwrap();
        assert_eq!(ns.owner_of(seg).unwrap(), owner);
        assert_eq!(ns.search("results").unwrap(), seg);
        // Name collision rejected.
        assert!(matches!(
            ns.alloc_segid(owner, Some("results"), at(0)),
            Err(XememError::NameTaken(_))
        ));
        // Only the owner can remove.
        assert!(matches!(
            ns.remove_segid(seg, other, at(0)),
            Err(XememError::PermissionDenied)
        ));
        ns.remove_segid(seg, owner, at(0)).unwrap();
        assert!(ns.owner_of(seg).is_err());
        assert!(ns.search("results").is_err());
        // The name is reusable after removal.
        let seg2 = ns.alloc_segid(other, Some("results"), at(0)).unwrap();
        assert_ne!(seg, seg2);
    }

    #[test]
    fn segids_never_repeat() {
        let mut ns = NameService::centralized(0);
        let owner = ns.alloc_enclave_id();
        let mut seen = FxHashSet::default();
        for i in 0..1000 {
            let seg = ns.alloc_segid(owner, None, at(i)).unwrap();
            assert!(seen.insert(seg), "duplicate segid at iteration {i}");
            if i % 3 == 0 {
                ns.remove_segid(seg, owner, at(i)).unwrap();
            }
        }
        assert_eq!(ns.live_segids(), 1000 - 334);
    }

    #[test]
    fn centralized_segids_match_the_original_numbering() {
        let mut ns = NameService::centralized(0);
        let owner = ns.alloc_enclave_id();
        for expect in 1..=5u64 {
            let seg = ns.alloc_segid(owner, None, at(0)).unwrap();
            assert_eq!(seg, Segid(expect));
        }
    }

    #[test]
    fn keys_spread_over_shards_but_stay_stable() {
        let sets = vec![vec![0], vec![1], vec![2], vec![3]];
        let ns = NameService::sharded(sets, SimDuration::ZERO, SimDuration::ZERO);
        let mut hit = [false; 4];
        for i in 0..64 {
            let s = ns.shard_of_name(&format!("seg:{i}"));
            assert_eq!(s, ns.shard_of_name(&format!("seg:{i}")));
            hit[s] = true;
        }
        assert!(hit.iter().all(|&h| h), "some shard got no keys: {hit:?}");
    }

    #[test]
    fn segids_carry_their_shard_and_stay_unique_across_shards() {
        let sets = vec![vec![0], vec![1], vec![2], vec![3]];
        let mut ns = NameService::sharded(sets, SimDuration::ZERO, SimDuration::ZERO);
        let owner = ns.alloc_enclave_id();
        let mut seen = FxHashSet::default();
        for i in 0..200 {
            let name = format!("k:{i}");
            let seg = ns.alloc_segid(owner, Some(&name), at(0)).unwrap();
            assert!(seen.insert(seg));
            assert_eq!(ns.shard_of_segid(seg).unwrap(), ns.shard_of_name(&name));
            assert_eq!(ns.search(&name).unwrap(), seg);
            assert_eq!(ns.owner_of(seg).unwrap(), owner);
        }
    }

    #[test]
    fn leader_failover_promotes_follower_and_keeps_durable_state() {
        let mut ns = NameService::sharded(
            vec![vec![0, 1, 2]],
            SimDuration::from_nanos(1_000),
            SimDuration::from_nanos(5_000),
        );
        let owner = ns.alloc_enclave_id();
        // Durable: inserted well before the crash.
        let old = ns.alloc_segid(owner, Some("old"), at(0)).unwrap();
        // Not yet replicated: inserted within the lag of the crash.
        let fresh = ns.alloc_segid(owner, Some("fresh"), at(9_800)).unwrap();
        let reports = ns.on_slot_dead(0, at(10_000));
        assert_eq!(reports.len(), 1);
        let r = reports[0];
        assert_eq!(r.shard, 0);
        assert_eq!(r.new_leader, Some(1));
        assert_eq!(r.epoch, 1);
        assert_eq!(r.lost_registrations, 1);
        assert_eq!(r.available_at, at(15_000));
        assert_eq!(ns.leader_slot(0), Some(1));
        assert_eq!(ns.unavailable_until(0, at(12_000)), Some(at(15_000)));
        assert_eq!(ns.unavailable_until(0, at(15_000)), None);
        // The durable registration survived; the fresh one is gone.
        assert_eq!(ns.owner_of(old).unwrap(), owner);
        assert!(matches!(
            ns.owner_of(fresh),
            Err(XememError::UnknownSegid(_))
        ));
        assert!(ns.search("fresh").is_err());
        // The freed name is re-registrable on the new leader.
        let again = ns.alloc_segid(owner, Some("fresh"), at(20_000)).unwrap();
        assert_ne!(again, fresh);
    }

    #[test]
    fn follower_death_does_not_fail_over() {
        let mut ns = NameService::sharded(
            vec![vec![0, 1]],
            SimDuration::from_nanos(1_000),
            SimDuration::from_nanos(5_000),
        );
        assert!(ns.on_slot_dead(1, at(100)).is_empty());
        assert_eq!(ns.leader_slot(0), Some(0));
        assert_eq!(ns.epoch(0), 0);
        assert!(ns.is_sole_replica(0));
    }

    #[test]
    fn last_replica_death_marks_the_shard_dead() {
        let mut ns = NameService::sharded(
            vec![vec![0]],
            SimDuration::ZERO,
            SimDuration::from_nanos(5_000),
        );
        let reports = ns.on_slot_dead(0, at(100));
        assert_eq!(reports[0].new_leader, None);
        assert_eq!(ns.leader_slot(0), None);
        assert_eq!(
            ns.unavailable_until(0, at(u64::MAX - 1)),
            Some(SimTime::MAX)
        );
    }

    #[test]
    fn removes_are_never_resurrected_by_failover() {
        let mut ns = NameService::sharded(
            vec![vec![0, 1]],
            SimDuration::from_nanos(1_000),
            SimDuration::ZERO,
        );
        let owner = ns.alloc_enclave_id();
        let seg = ns.alloc_segid(owner, Some("gone"), at(0)).unwrap();
        // Remove while the insert is durable, then crash immediately:
        // the remove must stick (synchronous replication).
        ns.remove_segid(seg, owner, at(5_000)).unwrap();
        ns.on_slot_dead(0, at(5_001));
        assert!(ns.owner_of(seg).is_err());
        assert!(ns.search("gone").is_err());
    }

    #[test]
    fn lease_holders_expire_and_clear_on_failover() {
        let mut ns = NameService::sharded(vec![vec![0, 1]], SimDuration::ZERO, SimDuration::ZERO);
        let owner = ns.alloc_enclave_id();
        let seg = ns.alloc_segid(owner, None, at(0)).unwrap();
        ns.grant_lease(seg, 5, at(1_000));
        ns.grant_lease(seg, 6, at(2_000));
        ns.grant_lease(seg, 5, at(500)); // shorter re-grant never shrinks
        let holders = ns.take_lease_holders(seg, at(1_500));
        assert_eq!(holders, vec![(6, at(2_000))]);
        // Taking clears the soft state.
        assert!(ns.take_lease_holders(seg, at(0)).is_empty());
        ns.grant_lease(seg, 7, at(9_000));
        ns.on_slot_dead(0, at(100));
        assert!(ns.take_lease_holders(seg, at(0)).is_empty());
        assert_eq!(ns.epoch(0), 1);
    }
}
