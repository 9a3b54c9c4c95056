//! Name-service scaling figure — lookup latency vs shard count vs
//! outage rate.
//!
//! The paper's single name server (§3.1) is this repo's last global
//! bottleneck; the sharded, replicated service spreads the namespace
//! over N consistent-hashed shards with leases absorbing repeat
//! lookups. This figure quantifies what that buys under fire: for each
//! (shard count, outage rate) cell, independent node sessions run a
//! dense lookup stream while shard-scoped outages land mid-stream, and
//! the per-lookup virtual-time latencies are pooled into p50/p99.
//!
//! Expected shape: p50 is the steady routed-lookup cost — flat across
//! outage rates, slightly higher for the replicated service than for
//! the centralized one (routing plus replication bookkeeping). p99
//! carries the outage tail: when a lookup lands on a dead shard it
//! backs off until the outage lifts, so its latency is the outage's
//! remaining duration. With one shard every outage stalls the very
//! next lookup for close to its full length; with eight, a given
//! outage only hurts if some lookup needs that one shard before it
//! lifts — many never get hit at all, and the ones that do have less
//! of the window left. p99 therefore climbs with outage rate and falls
//! back toward the baseline as shards are added, which is the point of
//! sharding the service.
//!
//! Every unit is seeded from the root seed and its unit index, so the
//! output is bit-identical at any `--jobs`.

use xemem::{FaultPlan, SystemBuilder, XememError};
use xemem_sim::stats::quantile;
use xemem_sim::{split_seed, SimDuration, SimRng, SimTime};

/// Shard counts swept (the paper's centralized server is the 1 column).
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Shard-scoped outages injected per unit.
pub const OUTAGE_RATES: [usize; 3] = [0, 6, 18];
/// Root seed for the whole figure.
pub const ROOT_SEED: u64 = 0x5CA1_AB1E;

/// Virtual time at which the measured stream starts. Building the
/// topology, registering it with the name service and spawning the
/// workload all charge virtual time (about 6 ms for 24 enclaves), so
/// the fault window is anchored past setup — otherwise every outage
/// would expire before the first measured lookup.
const BASE_NS: u64 = 8_000_000; // 8 ms
/// Outages land uniformly inside this window after [`BASE_NS`]. The
/// slowest-setup cell still streams lookups past 2.9 ms, so every
/// injected outage overlaps the measured stream in every cell.
const OUTAGE_WINDOW_NS: u64 = 2_500_000;
/// Each injected outage lasts 30–120 µs — long enough to stall a
/// lookup visibly, short enough that the retry budget always rides it
/// out (so `unavailable` staying 0 is part of the figure's contract).
const OUTAGE_MIN_NS: u64 = 30_000;
const OUTAGE_MAX_NS: u64 = 120_000;

/// One (shard count, outage rate) cell of the figure.
#[derive(Debug, Clone)]
pub struct ScalingCell {
    /// Name-service shards (each with 2 replicas).
    pub shards: usize,
    /// Shard-scoped outages injected per unit.
    pub outages: usize,
    /// Successful lookups pooled across the cell's units.
    pub lookups: u64,
    /// Lookups that exhausted the retry budget.
    pub unavailable: u64,
    /// Median lookup latency, microseconds of virtual time.
    pub p50_us: f64,
    /// 99th-percentile lookup latency, microseconds of virtual time.
    pub p99_us: f64,
}

/// Raw outcome of one independent unit (one simulated node session).
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    /// Per-lookup virtual-time latencies, nanoseconds, in issue order.
    pub latencies_ns: Vec<u64>,
    /// Lookups that failed with `NameServerUnavailable`.
    pub unavailable: u64,
}

/// Number of co-kernel enclaves per unit (plus the management
/// enclave): 16 replica slots at the widest sweep point plus 8 worker
/// enclaves.
pub fn unit_enclaves(_smoke: bool) -> usize {
    24
}

/// Units per cell.
pub fn units_per_cell(smoke: bool) -> usize {
    if smoke {
        2
    } else {
        8
    }
}

/// Run one unit: `shards` × 2 replicas, `outages` shard-scoped outages
/// over the post-setup window, and a lookup-heavy workload whose
/// per-search latencies are returned in issue order. `seed` must
/// already be split per unit.
pub fn run_unit(
    shards: usize,
    outages: usize,
    seed: u64,
    smoke: bool,
) -> Result<UnitOutcome, XememError> {
    let kittens = unit_enclaves(smoke);
    let mut rng = SimRng::seed_from_u64(seed);
    let mut plan = FaultPlan::new();
    for _ in 0..outages {
        let at =
            SimTime::from_nanos(BASE_NS + rng.uniform_u64(OUTAGE_WINDOW_NS / 25, OUTAGE_WINDOW_NS));
        let dur = SimDuration::from_nanos(rng.uniform_u64(OUTAGE_MIN_NS, OUTAGE_MAX_NS));
        let shard = rng.uniform_u64(0, shards as u64) as usize;
        plan = if shards > 1 {
            plan.name_server_shard_outage(at, shard, dur)
        } else {
            plan.name_server_outage(at, dur)
        };
    }

    // A Kitten process image is text+data+stack (12 MiB) plus heap,
    // physically contiguous; each worker enclave hosts an exporter, and
    // the first four also host a consumer.
    const MIB: u64 = 1 << 20;
    let mut b = SystemBuilder::new().linux_management("linux", 4, 64 * MIB);
    for i in 0..kittens {
        b = b.kitten_cokernel(&format!("k{i}"), 1, 32 * MIB);
    }
    let mut sys = b
        .name_service_shards(shards, 2)
        .with_fault_plan(plan, seed)
        .build()?;

    // Exporters live outside the replica slots so outages never take a
    // workload process with them; 8 exporters × 4 names = 32 keys
    // spread over every shard by the hash ring.
    let first_free = (2 * shards).max(1);
    let mut names = Vec::new();
    let mut consumers = Vec::new();
    for w in 0..8usize {
        let slot = first_free + w;
        let enc = sys.enclave_by_name(&format!("k{}", slot - 1)).unwrap();
        let exporter = sys.spawn_process(enc, MIB)?;
        if w < 4 {
            consumers.push(sys.spawn_process(enc, MIB)?);
        }
        for n in 0..4 {
            let buf = sys.alloc_buffer(exporter, 64 * 1024)?;
            let name = format!("u{seed:016x}:{w}:{n}");
            sys.xpmem_make(exporter, buf, 64 * 1024, Some(&name))?;
            names.push(name);
        }
    }

    // Anchor the measured stream at the fault window's base. Setup cost
    // is deterministic per cell shape and comfortably below the base.
    debug_assert!(
        sys.clock().now().as_nanos() <= BASE_NS,
        "setup ran past the fault-window base"
    );
    if sys.clock().now() < SimTime::from_nanos(BASE_NS) {
        sys.clock().advance_to(SimTime::from_nanos(BASE_NS));
    }

    // The lookup stream itself drives the clock: each consumer walks a
    // rotating window of the key space with no idle gaps, so injected
    // outages always land inside live lookup traffic. Windows shift by
    // one name per round and rounds outlast the lease term, so every
    // measured lookup is a routed one (lease serves are exercised and
    // measured by the chaos suite; here they would only thin the
    // stream).
    let rounds: u64 = if smoke { 4 } else { 10 };
    let mut latencies = Vec::new();
    let mut unavailable = 0u64;
    for round in 0..rounds {
        for (c, &consumer) in consumers.iter().enumerate() {
            for k in 0..12usize {
                let name = &names[(c * 12 + k + round as usize) % names.len()];
                let t0 = sys.clock().now();
                match sys.xpmem_search(consumer, name) {
                    Ok(_) => {
                        latencies.push(sys.clock().now().duration_since(t0).as_nanos());
                    }
                    Err(XememError::NameServerUnavailable { .. }) => unavailable += 1,
                    Err(e) => return Err(e),
                }
            }
        }
    }
    Ok(UnitOutcome {
        latencies_ns: latencies,
        unavailable,
    })
}

/// Pool unit outcomes (in unit order) into one figure cell.
pub fn pool(shards: usize, outages: usize, units: &[UnitOutcome]) -> ScalingCell {
    let mut xs: Vec<f64> = Vec::new();
    let mut unavailable = 0u64;
    for u in units {
        xs.extend(u.latencies_ns.iter().map(|&ns| ns as f64 / 1_000.0));
        unavailable += u.unavailable;
    }
    ScalingCell {
        shards,
        outages,
        lookups: xs.len() as u64,
        unavailable,
        p50_us: quantile(&xs, 0.50).unwrap_or(0.0),
        p99_us: quantile(&xs, 0.99).unwrap_or(0.0),
    }
}

/// The full grid in output order, flattened for the run driver: unit
/// index `i` maps to cell `i / units_per_cell` and intra-cell unit
/// `i % units_per_cell`, and its seed is split from [`ROOT_SEED`] —
/// never from scheduling.
pub fn grid() -> Vec<(usize, usize)> {
    let mut cells = Vec::new();
    for &s in &SHARD_COUNTS {
        for &o in &OUTAGE_RATES {
            cells.push((s, o));
        }
    }
    cells
}

/// Run the whole figure at the given worker count.
pub fn run(jobs: usize, smoke: bool) -> Result<Vec<ScalingCell>, XememError> {
    let cells = grid();
    let per = units_per_cell(smoke);
    let outcomes = crate::driver::run_indexed(jobs, cells.len() * per, |i| {
        let (shards, outages) = cells[i / per];
        run_unit(shards, outages, split_seed(ROOT_SEED, i as u64), smoke)
    })?;
    Ok(cells
        .iter()
        .enumerate()
        .map(|(c, &(s, o))| pool(s, o, &outcomes[c * per..(c + 1) * per]))
        .collect())
}
