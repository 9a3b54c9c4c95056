//! Tiered-memory composed workload — the payoff figure of the
//! heterogeneous memory tiers: a simulation enclave parks its exported
//! timestep segments on NVM (the capacity tier), an analytics enclave
//! reads them cross-enclave, and the hot/cold policy promotes the hot
//! working set to DRAM while demoting cooled segments back home.
//!
//! Three tables come out of one run:
//!
//! 1. **Composed workload** — the same read schedule under static NVM
//!    placement vs the armed migration policy, with the measured
//!    virtual-time speedup (the policy's win is bounded by the
//!    DRAM-vs-NVM stream-bandwidth gap and eroded by migration copy
//!    costs, so the number is honest, not structural).
//! 2. **Hysteresis ablation** — the identical workload at hysteresis
//!    1, 2 and 4 windows plus `off`, showing how trigger-happiness
//!    trades migration count against total virtual time.
//! 3. **Attach bandwidth vs tier** — one cross-enclave attach + full
//!    read of a segment resident in each configured tier, reporting
//!    the tier-surcharged attach latency and stream bandwidth.
//!
//! The workload runs on a PDES round grid under
//! [`xemem_sim::pdes::run_lanes`] with barrier-phase actors (the
//! producer ticks the migration policy, the analytics reader drives
//! clock-based reads), so the printed tables are byte-identical at any
//! `--jobs` and any `--lanes` — CI's `tier-chaos` job diffs exactly
//! that. Every unit's tracer flows into the session epilogue's
//! conservation audit, so migration spans, copy/remap leaves and
//! causal edges are covered like every other protocol path.

use xemem::{
    LanePart, MemTier, ProcessRef, Segid, SimDuration, System, SystemBuilder, TierPolicy,
    TraceHandle, VirtAddr, XememError,
};
use xemem_sim::pdes::{run_lanes, LaneShared, PdesActor, PdesConfig};
use xemem_sim::SimTime;

const MIB: u64 = 1 << 20;
const KIB: u64 = 1 << 10;

/// Exported segments per unit (two hot, the rest cold at any phase).
pub const SEGMENTS: usize = 6;
/// Bytes per exported segment — one policy chunk each.
pub const SEG_BYTES: u64 = 512 * KIB;
/// Policy chunk size in pages (512 KiB = one chunk per segment).
pub const CHUNK_PAGES: u64 = 128;
/// Reads of each hot segment per round.
pub const HOT_READS: usize = 4;
/// Access-counting window of the policy — sized to one round of the
/// read schedule at NVM stream speed, so a hot chunk's [`HOT_READS`]
/// clear the hot threshold even before promotion speeds rounds up.
pub const WINDOW_US: u64 = 2_000;
/// Barrier-grid stride — well above the conservative PDES lookahead.
const GRID_STRIDE_NS: u64 = 1_000_000;

/// Sweep geometry: composed-workload rounds (the hot set shifts at the
/// midpoint, so promotion and demotion both happen inside the run).
pub fn rounds(smoke: bool) -> u64 {
    if smoke {
        16
    } else {
        64
    }
}

/// The hysteresis axis of the ablation table: `None` = migration off
/// (static NVM placement), `Some(h)` = armed at `h` windows.
pub const HYSTERESIS_AXIS: [Option<u32>; 4] = [None, Some(1), Some(2), Some(4)];

/// One composed-workload outcome row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComposedRow {
    /// Unit index.
    pub unit: usize,
    /// `"off"` or the hysteresis window count.
    pub hysteresis: String,
    /// Cross-enclave reads completed.
    pub reads: u64,
    /// Chunks promoted to DRAM.
    pub promotions: u64,
    /// Chunks demoted back to their NVM home.
    pub demotions: u64,
    /// Resident pages moved by all migrations.
    pub pages_moved: u64,
    /// Virtual nanoseconds from workload start to completion.
    pub workload_ns: u64,
    /// Final virtual clock.
    pub clock_ns: u64,
}

/// One attach-bandwidth-vs-tier row.
#[derive(Debug, Clone, PartialEq)]
pub struct TierBwRow {
    /// The tier the segment was resident in at attach time.
    pub tier: String,
    /// Segment bytes.
    pub bytes: u64,
    /// Virtual nanoseconds of the cross-enclave attach (tier walk/map
    /// surcharges included).
    pub attach_ns: u64,
    /// Virtual nanoseconds of one full read through the attachment.
    pub read_ns: u64,
    /// Effective stream bandwidth of the read, GB/s (virtual).
    pub read_gbps: f64,
}

/// The policy used by every composed unit; `hysteresis` arms it.
pub fn policy(hysteresis: Option<u32>) -> TierPolicy {
    TierPolicy {
        window: SimDuration::from_micros(WINDOW_US),
        hot_threshold: 3,
        cold_threshold: 1,
        hysteresis: hysteresis.unwrap_or(u32::MAX),
        chunk_pages: CHUNK_PAGES,
        fast_tier: MemTier::LocalDram,
    }
}

/// Shared state the two actors coordinate through at barriers.
struct TierCtx {
    sys: System,
    exporter: ProcessRef,
    analytics: ProcessRef,
    segids: Vec<Segid>,
    vas: Vec<VirtAddr>,
    reads: u64,
    promotions: u64,
    demotions: u64,
    pages_moved: u64,
}

impl LaneShared for TierCtx {
    type Part<'a> = LanePart<'a>;

    fn lane_parts(&mut self, lanes: usize) -> Vec<LanePart<'_>> {
        self.sys.lane_parts(lanes)
    }

    fn on_window(&mut self, start: SimTime) {
        <System as LaneShared>::on_window(&mut self.sys, start);
    }
}

/// The two-phase hot set: segments 0–1 for the first half of the run,
/// then 2–3 — so the policy must both promote and demote mid-run.
fn hot_set(round: u64, rounds: u64) -> [usize; 2] {
    if round < rounds / 2 {
        [0, 1]
    } else {
        [2, 3]
    }
}

/// Producer (order 0, ticks the policy) and analytics reader (order 1)
/// on the round grid; all work happens in the barrier phase, so the op
/// sequence is identical at every lane and worker count.
struct Actor {
    order: u64,
    round: u64,
    rounds: u64,
}

impl PdesActor<TierCtx> for Actor {
    fn lane_key(&self) -> u64 {
        self.order
    }

    fn order_key(&self) -> u64 {
        self.order
    }

    fn first_event(&self) -> Option<SimTime> {
        Some(SimTime::ZERO)
    }

    fn has_local(&self) -> bool {
        false
    }

    fn local(&mut self, _now: SimTime, _part: &mut LanePart<'_>) {}

    fn barrier(&mut self, _now: SimTime, ctx: &mut TierCtx) -> Option<SimTime> {
        if self.order == 0 {
            // Producer: run one policy tick over its exports. Off-mode
            // ticks are no-ops but keep the op sequence symmetric.
            let moves = ctx.sys.tier_policy_tick(ctx.exporter).expect("policy tick");
            for m in moves {
                if m.to == MemTier::LocalDram {
                    ctx.promotions += 1;
                } else {
                    ctx.demotions += 1;
                }
                ctx.pages_moved += m.pages;
            }
        } else {
            // Analytics: hammer the hot set, probe one rotating cold
            // segment once.
            let mut buf = vec![0u8; SEG_BYTES as usize];
            for s in hot_set(self.round, self.rounds) {
                for _ in 0..HOT_READS {
                    ctx.sys
                        .read(ctx.analytics, ctx.vas[s], &mut buf)
                        .expect("hot read");
                    ctx.reads += 1;
                }
            }
            let probe = (self.round as usize) % SEGMENTS;
            ctx.sys
                .read(ctx.analytics, ctx.vas[probe], &mut buf)
                .expect("cold probe");
            ctx.reads += 1;
        }
        self.round += 1;
        // The grid exists to order barriers (its stride clears the PDES
        // lookahead); virtual time is carried by the system clock the
        // ops advance.
        (self.round < self.rounds).then(|| SimTime::from_nanos(self.round * GRID_STRIDE_NS))
    }
}

/// Run one composed unit: export [`SEGMENTS`] segments from the Kitten
/// enclave, park them on NVM, then drive the phase-shifting read
/// schedule with the policy armed at `hysteresis` (or off).
pub fn run_composed(
    unit: usize,
    hysteresis: Option<u32>,
    rounds: u64,
    lanes: usize,
    tracer: &TraceHandle,
) -> Result<ComposedRow, XememError> {
    // The exporter lives on the Linux enclave: its Fwk kernel maps
    // anonymous buffers with 4 KiB pages, so sub-2 MiB segments migrate
    // freely (Kitten's statically large-paged heap cannot split a
    // 512 KiB window out of a 2 MiB leaf).
    let mut sys = SystemBuilder::new()
        .with_tracer(tracer.clone())
        .with_tier_policy(policy(hysteresis))
        .tier_reserve(MemTier::Nvm, 32 * MIB)
        .linux_management("linux", 4, 256 * MIB)
        .kitten_cokernel("kitten", 1, 64 * MIB)
        .build()?;
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let exporter = sys.spawn_process(linux, 16 * MIB)?;
    let analytics = sys.spawn_process(kitten, 16 * MIB)?;

    let mut segids = Vec::with_capacity(SEGMENTS);
    let mut vas = Vec::with_capacity(SEGMENTS);
    for _ in 0..SEGMENTS {
        let buf = sys.alloc_buffer(exporter, SEG_BYTES)?;
        sys.prepare_buffer(exporter, buf, SEG_BYTES)?;
        let segid = sys.xpmem_make(exporter, buf, SEG_BYTES, None)?;
        // Capacity placement: every timestep starts on NVM, which also
        // re-homes the segment so cold chunks demote back there.
        sys.migrate_extent(exporter, segid, MemTier::Nvm)?;
        let apid = sys.xpmem_get(analytics, segid)?;
        let va = sys.xpmem_attach(analytics, apid, 0, SEG_BYTES)?;
        segids.push(segid);
        vas.push(va);
    }

    let t0 = sys.clock().now();
    let lookahead = sys.pdes_lookahead();
    let mut actors = vec![
        Actor {
            order: 0,
            round: 0,
            rounds,
        },
        Actor {
            order: 1,
            round: 0,
            rounds,
        },
    ];
    let mut ctx = TierCtx {
        sys,
        exporter,
        analytics,
        segids,
        vas,
        reads: 0,
        promotions: 0,
        demotions: 0,
        pages_moved: 0,
    };
    run_lanes(&PdesConfig::new(lanes, lookahead), &mut actors, &mut ctx);

    let clock = ctx.sys.clock().now();
    if hysteresis.is_none() {
        assert_eq!(
            ctx.promotions + ctx.demotions,
            0,
            "unit {unit}: static placement must not migrate"
        );
        for segid in &ctx.segids {
            assert_eq!(
                ctx.sys.tier_of_chunk(linux, *segid, 0),
                Some(MemTier::Nvm),
                "unit {unit}: static placement drifted off NVM"
            );
        }
    }
    Ok(ComposedRow {
        unit,
        hysteresis: hysteresis.map_or_else(|| "off".to_string(), |h| h.to_string()),
        reads: ctx.reads,
        promotions: ctx.promotions,
        demotions: ctx.demotions,
        pages_moved: ctx.pages_moved,
        workload_ns: clock.duration_since(t0).as_nanos(),
        clock_ns: clock.as_nanos(),
    })
}

/// Segment size of the attach-bandwidth figure.
pub const BW_BYTES: u64 = 16 * MIB;

/// Run one attach-bandwidth unit: park a segment in `tier`, then time
/// (in virtual nanoseconds) one cross-enclave attach and one full read.
pub fn run_tier_bw(tier: MemTier, tracer: &TraceHandle) -> Result<TierBwRow, XememError> {
    let mut b = SystemBuilder::new()
        .with_tracer(tracer.clone())
        .linux_management("linux", 4, 256 * MIB);
    if tier != MemTier::LocalDram {
        b = b.tier_reserve(tier, 64 * MIB);
    }
    let mut sys = b.kitten_cokernel("kitten", 1, 128 * MIB).build()?;
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let exporter = sys.spawn_process(kitten, 64 * MIB)?;
    let analytics = sys.spawn_process(linux, 16 * MIB)?;
    let buf = sys.alloc_buffer(exporter, BW_BYTES)?;
    sys.prepare_buffer(exporter, buf, BW_BYTES)?;
    let segid = sys.xpmem_make(exporter, buf, BW_BYTES, None)?;
    if tier != MemTier::LocalDram {
        sys.migrate_extent(exporter, segid, tier)?;
    }
    let apid = sys.xpmem_get(analytics, segid)?;

    let t0 = sys.clock().now();
    let va = sys.xpmem_attach(analytics, apid, 0, BW_BYTES)?;
    let t1 = sys.clock().now();
    let mut out = vec![0u8; BW_BYTES as usize];
    sys.read(analytics, va, &mut out)?;
    let t2 = sys.clock().now();

    let read_ns = t2.duration_since(t1).as_nanos();
    Ok(TierBwRow {
        tier: tier.to_string(),
        bytes: BW_BYTES,
        attach_ns: t1.duration_since(t0).as_nanos(),
        read_ns,
        read_gbps: BW_BYTES as f64 / read_ns as f64,
    })
}

/// All rows of the suite, run through a parallel session: the four
/// hysteresis units (index = position in [`HYSTERESIS_AXIS`]) followed
/// by one attach-bandwidth unit per tier.
pub fn run(
    session: &mut crate::driver::ParSession,
    smoke: bool,
    lanes: usize,
) -> Result<(Vec<ComposedRow>, Vec<TierBwRow>), XememError> {
    let r = rounds(smoke);
    let composed = session.run(HYSTERESIS_AXIS.len(), |i, tracer| {
        let _scope = tracer.scope();
        run_composed(i, HYSTERESIS_AXIS[i], r, lanes, tracer)
    })?;
    let bw = session.run(MemTier::ALL.len(), |i, tracer| {
        let _scope = tracer.scope();
        run_tier_bw(MemTier::ALL[i], tracer)
    })?;
    Ok((composed, bw))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The armed unit (hysteresis 2) at lanes {2, 8} reproduces the
    /// lanes=1 reference row bit for bit, migrates in both directions,
    /// and beats the static unit on virtual time.
    #[test]
    fn lanes_replay_and_migration_wins() {
        let r = rounds(true);
        let off = run_composed(0, None, r, 1, &TraceHandle::disabled()).unwrap();
        let armed = run_composed(2, Some(2), r, 1, &TraceHandle::disabled()).unwrap();
        assert!(armed.promotions > 0, "policy never promoted: {armed:?}");
        assert!(armed.demotions > 0, "policy never demoted: {armed:?}");
        assert!(
            armed.workload_ns < off.workload_ns,
            "migration lost to static placement: {armed:?} vs {off:?}"
        );
        for lanes in [2usize, 8] {
            let replay = run_composed(2, Some(2), r, lanes, &TraceHandle::disabled()).unwrap();
            assert_eq!(replay, armed, "lanes={lanes} diverged from the reference");
        }
    }

    /// Each non-DRAM tier attaches with a higher surcharge and streams
    /// slower than local DRAM.
    #[test]
    fn tier_bandwidth_orders_sanely() {
        let dram = run_tier_bw(MemTier::LocalDram, &TraceHandle::disabled()).unwrap();
        let nvm = run_tier_bw(MemTier::Nvm, &TraceHandle::disabled()).unwrap();
        assert!(nvm.attach_ns > dram.attach_ns);
        assert!(nvm.read_gbps < dram.read_gbps);
    }
}
