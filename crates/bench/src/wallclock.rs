//! Wall-clock regression harness (host time, not virtual time).
//!
//! Every figure in this repo reports *virtual* nanoseconds from the
//! calibrated [`xemem_sim::CostModel`]; the host clock never appears in
//! a result table. But the simulator also does real structural work —
//! page-table installs, allocator bitmap updates, PFN-list handling —
//! and that work is what the extent fast path accelerates. This module
//! measures that host-side cost directly: attach, attach+read, and
//! crash-consistent teardown on one exported region, plus a fig6-style
//! contention sweep, all timed with [`std::time::Instant`].
//!
//! The companion binary (`cargo run --release -p xemem-bench --bin
//! wallclock`) writes [`COMMITTED_JSON`] (refreshed on demand), so the
//! wall-clock trajectory is tracked across PRs. CI runs the binary
//! in `--check` mode, which re-measures the smoke-size paths and holds
//! each to its row of [`gate_table`]: a multiple of one committed
//! column, never below [`CHECK_FLOOR_NS`] of absolute headroom so slow
//! CI runners don't trip the gate spuriously. [`Json`] is the report's
//! only reader and writer.

use std::time::Instant;
use xemem::{SystemBuilder, TraceHandle, XememError};
use xemem_pool::{BufferPool, Holder};
use xemem_sim::CostModel;

/// Multiplier over the committed attach time above which `--check`
/// fails. Generous on purpose: it is meant to catch an accidental
/// return to per-page host work (a >50× slowdown at smoke size), not
/// scheduler jitter.
pub const CHECK_FACTOR: f64 = 2.0;

/// Absolute headroom for `--check`: measured attach times at or below
/// this never fail the gate, whatever the committed number says. Kept
/// far below the per-page baseline at smoke size (~milliseconds) so a
/// real regression still trips.
pub const CHECK_FLOOR_NS: f64 = 2_000_000.0;

/// Multiplier over the committed tracing-off attach time above which
/// `--check` fails the *tracing overhead* gate: the disabled-tracing
/// path must stay within 2% of its committed wall time (plus the same
/// [`CHECK_FLOOR_NS`] absolute headroom — at smoke size the attach is
/// far below the floor, so the gate catches an accidental allocation or
/// branch on the hot path, not scheduler noise).
pub const TRACE_CHECK_FACTOR: f64 = 1.02;

/// Worker count for the schema-3 parallel sweep column: the CI runner
/// class this gate targets has 4 cores.
pub const PARALLEL_JOBS: usize = 4;

/// Required fig6-sweep speedup at [`PARALLEL_JOBS`] workers vs serial
/// for `--check` to pass — enforced only on hosts with at least
/// [`PARALLEL_JOBS`] cores (the gate self-measures; on smaller hosts it
/// reports and skips, since the speedup physically cannot exist there).
pub const PARALLEL_SPEEDUP_FACTOR: f64 = 2.0;

/// Required intra-run (PDES lane) speedup at [`PARALLEL_JOBS`] workers
/// vs 1 worker on the [`crate::pdes_churn`] scenario — same
/// host-parallelism gating as the sweep gate (schema 4).
pub const INTRA_SPEEDUP_FACTOR: f64 = 2.0;

/// Rounds of the parallel-sweep grid: enough near-independent cells
/// (rounds × counts) that a 4-worker pool can balance the uneven
/// per-cell costs and the ideal speedup stays well above the gate.
pub const SWEEP_ROUNDS: usize = 4;

/// Enclave counts per sweep round (the fig6 x-axis).
pub const SWEEP_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Region size per sweep cell.
pub const SWEEP_CELL_BYTES: u64 = 32 << 20;

/// Attachments per sweep cell — sized so one serial sweep takes on the
/// order of 100 ms: big enough that per-cell compute dwarfs thread
/// startup and scheduler jitter, small enough for every CI run.
pub const SWEEP_CELL_ITERS: u32 = 500;

/// Iterations per pool fast-path timing loop (schema 5) — enough that
/// per-op means are stable against scheduler jitter on the
/// nanosecond-scale pool bookkeeping.
pub const POOL_PAIRS: u32 = 50_000;

/// Slots in the wall-clock pool (recycled continuously by the loops).
pub const POOL_SLOTS: u32 = 64;

/// Segment size of the tier wall-clock loops (schema 6).
pub const TIER_BYTES: u64 = 64 << 20;

/// Iterations per tier wall-clock loop.
pub const TIER_ITERS: u32 = 20;

/// Region size used for the full-size profile (the paper's largest
/// Fig. 5/6 point).
pub const FULL_BYTES: u64 = 1 << 30;

/// Region size used for the smoke profile and the `--check` gate.
pub const SMOKE_BYTES: u64 = 64 << 20;

/// The committed report at the repo root: what `--check` gates against
/// and what a default run rewrites.
pub const COMMITTED_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wallclock.json");

/// Wall-clock samples for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Timed iterations.
    pub iters: u32,
    /// Mean wall nanoseconds per iteration.
    pub mean_ns: f64,
    /// Fastest iteration (used by the regression gate — robust against
    /// one-off scheduler noise).
    pub min_ns: f64,
}

impl BenchStats {
    fn from_samples(samples: &[u64]) -> BenchStats {
        let iters = samples.len() as u32;
        let total: u64 = samples.iter().sum();
        let min = samples.iter().copied().min().unwrap_or(0);
        BenchStats {
            iters,
            mean_ns: total as f64 / iters.max(1) as f64,
            min_ns: min as f64,
        }
    }

    /// Report object: `iters`, `mean_ns`, `min_ns`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("iters", Json::Num(self.iters.into())),
            ("mean_ns", Json::Num(self.mean_ns)),
            ("min_ns", Json::Num(self.min_ns)),
        ])
    }
}

/// One measured profile (full-size or smoke).
#[derive(Debug, Clone)]
pub struct Profile {
    /// Exported-region size in bytes for attach/attach+read/teardown.
    pub bytes: u64,
    /// Wall time of one `xpmem_attach` (eager PTE install) of `bytes`.
    pub attach: BenchStats,
    /// Attach plus reading the first MiB back out through the mapping.
    pub attach_read: BenchStats,
    /// Crash-consistent teardown: `crash_process` on the exporter with
    /// a live remote attachment (revocation, reap, quarantine return).
    pub teardown: BenchStats,
    /// Wall time of a fig6-style contention sweep (counts 1 and 2) at a
    /// quarter of `bytes`.
    pub fig6_sweep_ns: u64,
}

impl Profile {
    /// Report object, fields in declaration order.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("bytes", Json::Num(self.bytes as f64)),
            ("attach", self.attach.to_json()),
            ("attach_read", self.attach_read.to_json()),
            ("teardown", self.teardown.to_json()),
            ("fig6_sweep_ns", Json::Num(self.fig6_sweep_ns as f64)),
        ])
    }
}

/// One `--check` row: a host-time measurement held to `factor`× a
/// committed column of the report, never below [`CHECK_FLOOR_NS`].
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// What the row measures.
    pub label: &'static str,
    /// Dotted key path of the committed column.
    pub key: &'static str,
    /// Allowed multiple of the committed column.
    pub factor: f64,
    /// Operations one measurement covers; the committed column is per
    /// operation.
    pub ops: u32,
    /// Measured host nanoseconds: the fastest sample, or the whole
    /// `ops`-iteration loop.
    pub measured_ns: f64,
}

/// A [`Gate`] evaluated against the committed report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The committed column's value (per operation).
    pub committed_ns: f64,
    /// `(committed_ns × ops × factor).max(CHECK_FLOOR_NS)`.
    pub limit_ns: f64,
    /// Whether the measurement is within the limit.
    pub pass: bool,
}

impl Gate {
    /// Evaluate the row against the committed report. A missing
    /// committed column is an error naming its key path.
    pub fn evaluate(&self, committed: &Json) -> Result<Verdict, String> {
        let keys: Vec<&str> = self.key.split('.').collect();
        let committed_ns = committed
            .path(&keys)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{} missing in the committed report", self.key))?;
        let limit_ns = (committed_ns * f64::from(self.ops) * self.factor).max(CHECK_FLOOR_NS);
        Ok(Verdict {
            committed_ns,
            limit_ns,
            pass: self.measured_ns <= limit_ns,
        })
    }
}

/// The `--check` table over the smoke-size attach (`measure_attach`,
/// which runs with tracing disabled), the pool loop totals
/// (`measure_pool`) and the tier stats (`measure_tiers`). The attach
/// holds three rows: a return to per-page work (2×), a cost on the
/// disabled-tracing path (2%), and a run-driver tax on the serial
/// path (2%). The pool rows catch an allocation, scan or tracer call on
/// the hot path; the tier rows a return to per-page migration or
/// tiered-attach work.
#[rustfmt::skip]
pub fn gate_table(attach: &BenchStats, pool: (u64, u64), tiers: &(BenchStats, BenchStats)) -> [Gate; 7] {
    let row = |label, key, factor, ops, measured_ns| Gate { label, key, factor, ops, measured_ns };
    [
        row("smoke attach",         "current.smoke.attach.mean_ns", CHECK_FACTOR,       1,          attach.min_ns),
        row("tracing-off attach",   "tracing.off.mean_ns",          TRACE_CHECK_FACTOR, 1,          attach.min_ns),
        row("serial attach",        "current.smoke.attach.mean_ns", TRACE_CHECK_FACTOR, 1,          attach.min_ns),
        row("pool acquire+release", "pool.acquire_release_ns",      CHECK_FACTOR,       POOL_PAIRS, pool.0 as f64),
        row("pool ring cycle",      "pool.ring_op_ns",              CHECK_FACTOR,       POOL_PAIRS, pool.1 as f64),
        row("tier attach",          "tiers.attach.mean_ns",         CHECK_FACTOR,       1,          tiers.0.min_ns),
        row("tier migrate_extent",  "tiers.migrate.mean_ns",        CHECK_FACTOR,       1,          tiers.1.min_ns),
    ]
}

/// Measure attach and attach+read wall time for one region size.
pub fn measure_attach(size: u64, iters: u32) -> Result<(BenchStats, BenchStats), XememError> {
    measure_attach_with(size, iters, &TraceHandle::disabled())
}

/// [`measure_attach`] against an explicit tracer — used by the binary's
/// tracing-overhead section to time the same workload with tracing off
/// and on.
pub fn measure_attach_with(
    size: u64,
    iters: u32,
    tracer: &TraceHandle,
) -> Result<(BenchStats, BenchStats), XememError> {
    let mut sys = SystemBuilder::new()
        .with_tracer(tracer.clone())
        .with_cost(CostModel::default())
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

    // Warm up once so lazily materialized state (channels, name-server
    // caches) does not pollute the first sample.
    let va = sys.xpmem_attach(attacher, apid, 0, size)?;
    sys.xpmem_detach(attacher, va)?;

    let mut attach_samples = Vec::with_capacity(iters as usize);
    let mut read_samples = Vec::with_capacity(iters as usize);
    // Bound the host bytes actually copied: the virtual-time read cost
    // is charged per byte anyway; wall-wise the mapping walk dominates.
    let read_len = size.min(1 << 20) as usize;
    let mut out = vec![0u8; read_len];
    for _ in 0..iters {
        let t0 = Instant::now();
        let va = sys.xpmem_attach(attacher, apid, 0, size)?;
        let attach_ns = t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        sys.read(attacher, va, &mut out)?;
        let read_ns = t1.elapsed().as_nanos() as u64;
        attach_samples.push(attach_ns);
        read_samples.push(attach_ns + read_ns);
        sys.xpmem_detach(attacher, va)?;
    }
    Ok((
        BenchStats::from_samples(&attach_samples),
        BenchStats::from_samples(&read_samples),
    ))
}

/// Measure crash-consistent teardown wall time: each iteration builds a
/// fresh two-enclave system with a live cross-enclave attachment
/// (untimed), then times `crash_process` on the exporter — revocation,
/// remote reap, and quarantined-frame return all happen inside.
pub fn measure_teardown(size: u64, iters: u32) -> Result<BenchStats, XememError> {
    let mut samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let mut sys = SystemBuilder::new()
            .with_cost(CostModel::default())
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
        let _va = sys.xpmem_attach(attacher, apid, 0, size)?;

        let t0 = Instant::now();
        sys.crash_process(exporter)?;
        samples.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(sys.outstanding_loans(), 0, "quarantine return refused");
    }
    Ok(BenchStats::from_samples(&samples))
}

/// Host wall time of the buffer-pool fast paths (schema 5): `pairs`
/// acquire+release pairs on the slot-recycling loop, then `pairs` full
/// acquire→publish→consume→release cycles through one consumer ring.
/// Returns `(acquire_release_total_ns, ring_total_ns)`. Virtual time is
/// chained through the ops (the pool never touches the host clock);
/// what the wall clock sees is the exporter-side bookkeeping the pool
/// actually executes — free-list pops, generation stamps, ring pushes —
/// which is exactly the work the `--check` gate guards.
pub fn measure_pool(pairs: u32) -> Result<(u64, u64), XememError> {
    let mut sys = SystemBuilder::new()
        .with_cost(CostModel::default())
        .linux_management("linux", 4, 256 << 20)
        .kitten_cokernel("kitten", 1, 64 << 20)
        .build()?;
    let linux = sys.enclave_by_name("linux").unwrap();
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let producer = sys.spawn_process(linux, 64 << 20)?;
    let consumer = sys.spawn_process(kitten, 16 << 20)?;
    let t = sys.clock().now();
    let (mut pool, t) = BufferPool::create_at(&mut sys, producer, POOL_SLOTS, 4096, None, 8, t)
        .expect("wallclock pool export");
    let (cid, mut t) = pool
        .join_at(&mut sys, consumer, t)
        .expect("wallclock pool join");

    // Acquire/release pairs: the slot-recycling fast path.
    let t0 = Instant::now();
    for _ in 0..pairs {
        let (g, end) = pool.acquire_at(t).expect("acquire");
        t = pool.release_at(Holder::Exporter, g, end).expect("release");
    }
    let acquire_release_total_ns = t0.elapsed().as_nanos() as u64;

    // Full ring cycles: acquire, publish into the consumer's ring,
    // consume, release from the consumer side.
    let t0 = Instant::now();
    for _ in 0..pairs {
        let (g, end) = pool.acquire_at(t).expect("acquire");
        let end = pool.publish_at(cid, g, end).expect("publish");
        let (got, end) = pool.consume_at(cid, end).expect("consume");
        let g = got.expect("entry visible at publish completion");
        t = pool
            .release_at(Holder::Consumer(cid.0), g, end)
            .expect("release");
    }
    let ring_total_ns = t0.elapsed().as_nanos() as u64;
    pool.leak_check().expect("wallclock pool leak check");
    Ok((acquire_release_total_ns, ring_total_ns))
}

/// Host wall time of the tier structural paths (schema 6): a
/// cross-tier attach — the segment resident on the CXL expander, the
/// attacher on the Linux enclave — and a whole-segment
/// [`xemem::System::migrate_extent`] bounced between CXL and local
/// DRAM each iteration. Both paths are O(extents) in host time (the
/// physical store relocates by re-keying materialized frames, the
/// kernels rewrite extent runs); the `--check` gate catches a return
/// to per-page host work. Returns `(attach, migrate)` stats.
pub fn measure_tiers(size: u64, iters: u32) -> Result<(BenchStats, BenchStats), XememError> {
    use xemem::MemTier;
    let mut sys = SystemBuilder::new()
        .with_cost(CostModel::default())
        .linux_management("linux", 4, 256 << 20)
        .tier_reserve(MemTier::Cxl, size + (4 << 20))
        .kitten_cokernel("kitten", 1, size + (64 << 20))
        .build()?;
    let kitten = sys.enclave_by_name("kitten").unwrap();
    let linux = sys.enclave_by_name("linux").unwrap();
    let exporter = sys.spawn_process(kitten, size + (16 << 20))?;
    let attacher = sys.spawn_process(linux, 16 << 20)?;
    let buf = sys.alloc_buffer(exporter, size)?;
    sys.prepare_buffer(exporter, buf, size)?;
    let segid = sys.xpmem_make(exporter, buf, size, None)?;
    sys.migrate_extent(exporter, segid, MemTier::Cxl)?;
    let apid = sys.xpmem_get(attacher, segid)?;

    // Warm up one attach so lazily materialized protocol state does
    // not pollute the first sample.
    let va = sys.xpmem_attach(attacher, apid, 0, size)?;
    sys.xpmem_detach(attacher, va)?;

    let mut attach_samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t0 = Instant::now();
        let va = sys.xpmem_attach(attacher, apid, 0, size)?;
        attach_samples.push(t0.elapsed().as_nanos() as u64);
        sys.xpmem_detach(attacher, va)?;
    }

    // Bounce the whole segment between DRAM and CXL, timing each
    // migration — with a live attachment so the re-point path (serve,
    // remap, causal edge) is inside the timed region.
    let _va = sys.xpmem_attach(attacher, apid, 0, size)?;
    let mut migrate_samples = Vec::with_capacity(iters as usize);
    for i in 0..iters {
        let dst = if i % 2 == 0 {
            MemTier::LocalDram
        } else {
            MemTier::Cxl
        };
        let t0 = Instant::now();
        sys.migrate_extent(exporter, segid, dst)?;
        migrate_samples.push(t0.elapsed().as_nanos() as u64);
    }
    Ok((
        BenchStats::from_samples(&attach_samples),
        BenchStats::from_samples(&migrate_samples),
    ))
}

/// The unit list of the parallel-sweep column: [`SWEEP_ROUNDS`] rounds
/// of the fig6 grid over [`SWEEP_COUNTS`] at [`SWEEP_CELL_BYTES`].
pub fn sweep_specs() -> Vec<(u32, u64)> {
    let mut specs = Vec::new();
    for _ in 0..SWEEP_ROUNDS {
        specs.extend(crate::fig6::grid(&SWEEP_COUNTS, &[SWEEP_CELL_BYTES]));
    }
    specs
}

/// Run the parallel-sweep workload at the given worker count and time
/// it on the host clock. Returns the wall nanoseconds and the cells in
/// unit order — the cells must be bit-identical at every worker count.
pub fn measure_sweep(jobs: usize) -> Result<(u64, Vec<crate::fig6::Fig6Cell>), XememError> {
    let specs = sweep_specs();
    let t0 = Instant::now();
    let cells = crate::driver::run_indexed(jobs, specs.len(), |i| {
        let (n, size) = specs[i];
        crate::fig6::run_cell_with(n, size, SWEEP_CELL_ITERS, &TraceHandle::disabled())
    })?;
    Ok((t0.elapsed().as_nanos() as u64, cells))
}

/// Run the intra-run lane-parallel churn scenario (one simulation,
/// [`crate::pdes_churn::CHURN_LANES`] event lanes) at the given worker
/// count and time it on the host clock. The outcome must be
/// bit-identical at every worker count.
pub fn measure_intra(workers: usize) -> Result<(u64, crate::pdes_churn::ChurnOutcome), XememError> {
    let t0 = Instant::now();
    let outcome = crate::pdes_churn::run_churn(workers)?;
    Ok((t0.elapsed().as_nanos() as u64, outcome))
}

/// Bitwise equality of two sweep results: every field compared exactly,
/// floats via `to_bits` — the determinism contract, not an epsilon.
pub fn cells_bitwise_equal(a: &[crate::fig6::Fig6Cell], b: &[crate::fig6::Fig6Cell]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.enclaves == y.enclaves
                && x.size == y.size
                && x.gbps.to_bits() == y.gbps.to_bits()
                && x.iterations == y.iterations
                && x.core0_wait == y.core0_wait
        })
}

/// Measure one full profile at the given attach size.
pub fn measure_profile(bytes: u64, iters: u32, teardown_iters: u32) -> Result<Profile, XememError> {
    let (attach, attach_read) = measure_attach(bytes, iters)?;
    let teardown = measure_teardown(bytes, teardown_iters)?;
    let sweep_size = (bytes / 4).max(4 << 20);
    let t0 = Instant::now();
    crate::fig6::run(&[1, 2], &[sweep_size], true)?;
    let fig6_sweep_ns = t0.elapsed().as_nanos() as u64;
    Ok(Profile {
        bytes,
        attach,
        attach_read,
        teardown,
        fig6_sweep_ns,
    })
}

// ----------------------------------------------------------------------
// Minimal JSON reader and writer
// ----------------------------------------------------------------------
//
// BENCH_wallclock.json is read back (to drive the `--check` gate) and
// written as one tree. The reader is a deliberately tiny
// recursive-descent parser for the subset of JSON the writer emits.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64 — the harness only stores counts and
    /// nanosecond measurements, both exactly representable).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a key of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Follow a path of object keys.
    pub fn path(&self, keys: &[&str]) -> Option<&Json> {
        let mut cur = self;
        for k in keys {
            cur = cur.get(k)?;
        }
        Some(cur)
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// An object from `(key, value)` pairs, keys in the given order.
    pub fn obj<const N: usize>(entries: [(&str, Json); N]) -> Json {
        Json::Obj(entries.map(|(k, v)| (k.to_string(), v)).into())
    }

    /// Pretty-print: 2-space indent, object keys in insertion order,
    /// non-finite numbers as `null`. [`Json::parse`] reads it back.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(0, &mut out);
        out
    }

    fn write(&self, depth: usize, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => out.push_str(&n.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                write_block(['[', ']'], items.iter().map(|v| (None, v)), depth, out)
            }
            Json::Obj(entries) => write_block(
                ['{', '}'],
                entries.iter().map(|(k, v)| (Some(k.as_str()), v)),
                depth,
                out,
            ),
        }
    }

    /// Parse a JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An array or object: one indented line per item, `[]`/`{}` if empty.
fn write_block<'a>(
    [open, close]: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
    depth: usize,
    out: &mut String,
) {
    out.push(open);
    let mut n = 0;
    for (key, v) in items {
        out.push_str(if n == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(k) = key {
            write_str(k, out);
            out.push_str(": ");
        }
        v.write(depth + 1, out);
        n += 1;
    }
    if n > 0 {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at offset {pos}", ch as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at offset {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("bad \\u escape")?;
                        *pos += 4;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape '\\{}'", other as char)),
                }
            }
            _ => {
                // Copy one UTF-8 scalar verbatim.
                let s = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid utf-8")?;
                let c = s.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut entries = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(entries));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        entries.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_subset() {
        let doc = r#"{"a": 1, "b": [1.5, true, null], "c": {"d": "x\ny"}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.path(&["a"]).unwrap().as_f64(), Some(1.0));
        assert_eq!(v.path(&["c", "d"]), Some(&Json::Str("x\ny".into())));
        match v.get("b") {
            Some(Json::Arr(items)) => {
                assert_eq!(items[0], Json::Num(1.5));
                assert_eq!(items[1], Json::Bool(true));
                assert_eq!(items[2], Json::Null);
            }
            other => panic!("bad array: {other:?}"),
        }
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} extra").is_err());
    }

    fn committed() -> Json {
        Json::parse(&std::fs::read_to_string(COMMITTED_JSON).unwrap()).unwrap()
    }

    /// The key path of every non-object value, depth first, in order.
    fn key_paths(v: &Json, prefix: &str, out: &mut Vec<String>) {
        match v {
            Json::Obj(entries) => {
                for (k, child) in entries {
                    key_paths(child, &format!("{prefix}.{k}"), out);
                }
            }
            _ => out.push(prefix.to_string()),
        }
    }

    #[test]
    fn committed_report_round_trips_through_the_writer() {
        let doc = committed();
        let again = Json::parse(&doc.render()).unwrap();
        assert_eq!(again, doc);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        key_paths(&doc, "", &mut a);
        key_paths(&again, "", &mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn strings_with_escapes_round_trip() {
        let s = "q\"b\\n\nr\rt\tc\u{1}\u{1f}é/";
        let text = Json::Str(s.into()).render();
        assert_eq!(text, r#""q\"b\\n\nr\rt\tc\u0001\u001fé/""#);
        assert_eq!(Json::parse(&text).unwrap(), Json::Str(s.into()));
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(x).render(), "null");
        }
        assert_eq!(Json::Num(2.0).render(), "2");
        assert_eq!(Json::Num(126.1928445554471).render(), "126.1928445554471");
    }

    #[test]
    fn empty_containers_and_nesting_render() {
        assert_eq!(Json::Obj(vec![]).render(), "{}");
        assert_eq!(Json::Arr(vec![]).render(), "[]");
        let v = Json::obj([
            ("a", Json::Arr(vec![Json::Bool(true), Json::Null])),
            ("b", Json::obj([])),
        ]);
        assert_eq!(
            v.render(),
            "{\n  \"a\": [\n    true,\n    null\n  ],\n  \"b\": {}\n}"
        );
    }

    /// The gate table with every measurement at zero.
    fn table() -> [Gate; 7] {
        let zero = BenchStats {
            iters: 1,
            mean_ns: 0.0,
            min_ns: 0.0,
        };
        gate_table(&zero, (0, 0), &(zero.clone(), zero.clone()))
    }

    #[test]
    fn gate_table_keeps_the_committed_columns_and_factors() {
        let rows: Vec<_> = table().iter().map(|g| (g.key, g.factor, g.ops)).collect();
        assert_eq!(
            rows,
            [
                ("current.smoke.attach.mean_ns", 2.0, 1),
                ("tracing.off.mean_ns", 1.02, 1),
                ("current.smoke.attach.mean_ns", 1.02, 1),
                ("pool.acquire_release_ns", 2.0, 50_000),
                ("pool.ring_op_ns", 2.0, 50_000),
                ("tiers.attach.mean_ns", 2.0, 1),
                ("tiers.migrate.mean_ns", 2.0, 1),
            ]
        );
        assert_eq!(CHECK_FLOOR_NS, 2_000_000.0);
        let doc = committed();
        for gate in table() {
            assert!(gate.evaluate(&doc).unwrap().pass, "{}", gate.label);
        }
    }

    /// A committed report whose columns put every row above the floor.
    const LARGE: &str = r#"{
        "current": {"smoke": {"attach": {"mean_ns": 3000000}}},
        "tracing": {"off": {"mean_ns": 5000000}},
        "pool": {"acquire_release_ns": 30, "ring_op_ns": 45},
        "tiers": {"attach": {"mean_ns": 1500000}, "migrate": {"mean_ns": 4000000}}
    }"#;

    /// Evaluate `gate` at `measured_ns` and its limit against `doc`,
    /// and check it passes exactly when `pass`.
    fn check_at(gate: &Gate, doc: &Json, measured_ns: f64, limit_ns: f64, pass: bool) {
        let at = Gate {
            measured_ns,
            ..gate.clone()
        };
        let verdict = at.evaluate(doc).unwrap();
        assert_eq!(
            (verdict.limit_ns, verdict.pass),
            (limit_ns, pass),
            "{}",
            gate.label
        );
    }

    #[test]
    fn each_row_passes_at_its_limit_and_fails_one_ns_above() {
        let doc = Json::parse(LARGE).unwrap();
        let limits = [6e6, 5.1e6, 3.06e6, 3e6, 4.5e6, 3e6, 8e6];
        for (gate, limit) in table().iter().zip(limits) {
            check_at(gate, &doc, limit, limit, true);
            check_at(gate, &doc, limit + 1.0, limit, false);
        }
    }

    #[test]
    fn small_committed_columns_use_the_floor() {
        let doc = Json::parse(r#"{"tiers": {"attach": {"mean_ns": 900000}}}"#).unwrap();
        let tier_attach = &table()[5];
        check_at(tier_attach, &doc, CHECK_FLOOR_NS, CHECK_FLOOR_NS, true);
        check_at(
            tier_attach,
            &doc,
            CHECK_FLOOR_NS + 1.0,
            CHECK_FLOOR_NS,
            false,
        );
    }

    #[test]
    fn missing_committed_column_is_an_error_naming_its_path() {
        let doc = Json::parse(r#"{"pool": {"ring_op_ns": 20}}"#).unwrap();
        assert!(table()[4].evaluate(&doc).is_ok());
        let err = table()[3].evaluate(&doc).unwrap_err();
        assert!(err.contains("pool.acquire_release_ns"), "{err}");
    }

    #[test]
    fn smoke_measurements_run() {
        let (attach, attach_read) = measure_attach(4 << 20, 2).unwrap();
        assert_eq!(attach.iters, 2);
        assert!(attach.min_ns > 0.0);
        assert!(attach_read.mean_ns >= attach.mean_ns);
        let teardown = measure_teardown(4 << 20, 1).unwrap();
        assert!(teardown.min_ns > 0.0);
    }

    #[test]
    fn tier_measurements_run() {
        let (attach, migrate) = measure_tiers(8 << 20, 2).unwrap();
        assert_eq!(attach.iters, 2);
        assert!(attach.min_ns > 0.0);
        assert!(migrate.min_ns > 0.0);
    }

    #[test]
    fn pool_measurement_runs_and_leaks_nothing() {
        // measure_pool leak-checks internally; a small loop count keeps
        // the test fast while still exercising slot recycling (more
        // iterations than pool slots).
        let (ar_ns, ring_ns) = measure_pool(256).unwrap();
        assert!(ar_ns > 0);
        assert!(ring_ns > 0);
    }
}
