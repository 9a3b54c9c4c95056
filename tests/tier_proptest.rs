//! Property tests for the memory-tier layer.
//!
//! The headline theorem, 256 random schedules strong: when hysteresis
//! disables the migration policy, a run that ticks the policy at
//! random points is *observationally equivalent* to a run that never
//! ticks at all — same read bytes, same op tallies, same final clock,
//! same free-frame books, bit-identical metrics snapshot, equal
//! audited conservation sums. A disarmed policy must be free: no span,
//! no surcharge, no clock motion, no counter.
//!
//! A second property pins determinism of the armed policy: the same
//! seed replayed through the same armed schedule produces identical
//! migrations, placements and clocks.

use proptest::prelude::*;
use xemem::trace_layer::{ConservationSums, MetricsSnapshot};
use xemem::{
    MemTier, ProcessRef, Segid, SimDuration, System, SystemBuilder, TierPolicy, TraceHandle,
    VirtAddr,
};
use xemem_sim::SimRng;

const KIB: u64 = 1 << 10;
const MIB: u64 = 1 << 20;
/// Exported segments per schedule.
const SEGS: usize = 4;
/// Workload rounds per schedule.
const ROUNDS: usize = 16;

/// Everything observable about one run. The ticked and tick-free runs
/// of the same seed must produce equal outcomes when the policy is
/// disarmed.
#[derive(Debug, PartialEq)]
struct Outcome {
    ok_ops: u64,
    read_sum: u64,
    clock_ns: u64,
    free_frames: Vec<u64>,
    nvm_free: u64,
    placements: Vec<Option<MemTier>>,
    moves: Vec<(Segid, u64, MemTier, MemTier, u64)>,
    metrics: Option<MetricsSnapshot>,
    sums: ConservationSums,
}

struct Fixture {
    sys: System,
    exporter: ProcessRef,
    attacher: ProcessRef,
    segids: Vec<Segid>,
    bufs: Vec<VirtAddr>,
    vas: Vec<VirtAddr>,
    seg_bytes: Vec<u64>,
    tracer: TraceHandle,
}

/// Build the tiered two-enclave fixture: an Fwk exporter on the Linux
/// enclave (4 KiB pages migrate freely) carrying an NVM reserve, a
/// Kitten attacher, [`SEGS`] exported-and-attached segments with
/// seed-derived sizes, a seed-derived subset parked on NVM.
fn build(seed: u64, policy: TierPolicy) -> Fixture {
    let mut rng = SimRng::seed_from_u64(seed);
    let tracer = TraceHandle::enabled();
    let mut sys = SystemBuilder::new()
        .with_tracer(tracer.clone())
        .with_tier_policy(policy)
        .tier_reserve(MemTier::Nvm, 32 * MIB)
        .linux_management("linux", 4, 128 * MIB)
        .kitten_cokernel("kitten", 1, 64 * MIB)
        .build()
        .expect("fixture build");
    let linux = sys.enclave_by_name("linux").unwrap();
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let exporter = sys.spawn_process(linux, 16 * MIB).unwrap();
    let attacher = sys.spawn_process(kitten, 8 * MIB).unwrap();

    let (mut segids, mut bufs, mut vas, mut seg_bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SEGS {
        let len = rng.uniform_u64(32, 257) * 4 * KIB; // 128 KiB .. 1 MiB
        let buf = sys.alloc_buffer(exporter, len).unwrap();
        sys.prepare_buffer(exporter, buf, len).unwrap();
        let segid = sys.xpmem_make(exporter, buf, len, None).unwrap();
        if rng.uniform_u64(0, 2) == 1 {
            sys.migrate_extent(exporter, segid, MemTier::Nvm).unwrap();
        }
        let apid = sys.xpmem_get(attacher, segid).unwrap();
        let va = sys.xpmem_attach(attacher, apid, 0, len).unwrap();
        segids.push(segid);
        bufs.push(buf);
        vas.push(va);
        seg_bytes.push(len);
    }
    Fixture {
        sys,
        exporter,
        attacher,
        segids,
        bufs,
        vas,
        seg_bytes,
        tracer,
    }
}

/// Drive the seed-derived workload. `tick` interleaves policy ticks at
/// seed-derived rounds; with a disarmed policy those must be free.
fn run_schedule(seed: u64, policy: TierPolicy, tick: bool) -> Outcome {
    let mut f = build(seed, policy);
    // A second RNG stream for the op schedule, so the fixture and the
    // workload draw identical values whether or not ticks interleave.
    let mut rng = SimRng::seed_from_u64(seed ^ 0x7EE5_1D0F);
    let mut ok_ops = 0u64;
    let mut read_sum = 0u64;
    let mut moves = Vec::new();
    for _ in 0..ROUNDS {
        let s = rng.uniform_u64(0, SEGS as u64) as usize;
        let len = f.seg_bytes[s];
        let off = rng.uniform_u64(0, len / (4 * KIB)) * 4 * KIB;
        let span = (len - off).min(rng.uniform_u64(1, 33) * 4 * KIB);
        match rng.uniform_u64(0, 3) {
            0 => {
                // Cross-enclave read through the attachment.
                let mut buf = vec![0u8; span as usize];
                f.sys
                    .read(f.attacher, VirtAddr(f.vas[s].0 + off), &mut buf)
                    .unwrap();
                read_sum = read_sum
                    .wrapping_add(buf.iter().map(|&b| b as u64).sum::<u64>())
                    .wrapping_add(span);
                ok_ops += 1;
            }
            1 => {
                // Owner-side write (contents feed later read checksums).
                let data = vec![(ok_ops % 251) as u8; span as usize];
                f.sys
                    .write(f.exporter, VirtAddr(f.bufs[s].0 + off), &data)
                    .unwrap();
                ok_ops += 1;
            }
            _ => {
                // Owner-side read.
                let mut buf = vec![0u8; span as usize];
                f.sys
                    .read(f.exporter, VirtAddr(f.bufs[s].0 + off), &mut buf)
                    .unwrap();
                read_sum = read_sum.wrapping_add(buf.iter().map(|&b| b as u64).sum::<u64>());
                ok_ops += 1;
            }
        }
        // The coin is drawn unconditionally so the RNG stream stays
        // aligned between ticked and tick-free runs.
        let coin = rng.uniform_u64(0, 2) == 1;
        if tick && coin {
            for m in f.sys.tier_policy_tick(f.exporter).unwrap() {
                moves.push((m.segid, m.chunk, m.from, m.to, m.pages));
            }
        }
    }

    let linux = f.sys.enclave_by_name("linux").unwrap();
    let free_frames = (0..f.sys.enclave_count())
        .map(|i| f.sys.free_frames_of(xemem::EnclaveRef(i)).unwrap())
        .collect();
    let placements = f
        .segids
        .iter()
        .map(|segid| f.sys.tier_of_chunk(linux, *segid, 0))
        .collect();
    Outcome {
        ok_ops,
        read_sum,
        clock_ns: f.sys.clock().now().as_nanos(),
        nvm_free: f.sys.tier_free_frames(linux, MemTier::Nvm).unwrap(),
        free_frames,
        placements,
        moves,
        metrics: f.tracer.metrics_snapshot(),
        sums: f.tracer.audit().expect("conservation audit"),
    }
}

/// An armed policy tuned so seed-derived schedules actually migrate.
fn armed_policy() -> TierPolicy {
    TierPolicy {
        window: SimDuration::from_micros(200),
        hot_threshold: 2,
        cold_threshold: 0,
        hysteresis: 1,
        chunk_pages: 32,
        fast_tier: MemTier::LocalDram,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The disarmed-policy equivalence theorem: interleaving policy
    /// ticks into a schedule whose hysteresis disables migration
    /// changes nothing observable — results, metrics snapshot and
    /// conservation sums are bit-identical to the never-ticked run.
    #[test]
    fn disarmed_ticks_are_observationally_free(seed in any::<u64>()) {
        let disabled = TierPolicy::disabled();
        let reference = run_schedule(seed, disabled, false);
        prop_assert!(reference.metrics.is_some(), "tracer must be live");
        let ticked = run_schedule(seed, disabled, true);
        prop_assert!(ticked.moves.is_empty(), "disarmed policy migrated under seed {}", seed);
        prop_assert_eq!(
            &ticked, &reference,
            "ticked run diverged from the tick-free reference under seed {}",
            seed
        );
    }

    /// The armed policy is a deterministic function of the seed: two
    /// replays agree on every migration, placement, clock and metric.
    #[test]
    fn armed_policy_is_deterministic(seed in any::<u64>()) {
        let a = run_schedule(seed, armed_policy(), true);
        let b = run_schedule(seed, armed_policy(), true);
        prop_assert_eq!(&a, &b, "armed replay diverged under seed {}", seed);
    }
}
