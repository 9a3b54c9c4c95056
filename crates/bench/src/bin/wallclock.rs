//! Wall-clock regression harness: times attach, attach+read, teardown,
//! the fig6 sweep, the PDES churn, and the pool and tier paths on the
//! *host* clock and maintains `BENCH_wallclock.json` at the repo root.
//!
//! Modes:
//!
//! * default — measure everything and write the schema-6 report,
//!   copying the committed `baseline` section through unchanged (if
//!   none exists, this run becomes the baseline too);
//! * `--check` — the CI gate: re-measure at smoke size, hold each row
//!   of [`gate_table`] to its committed column, and require the fig6
//!   sweep and the `pdes_churn` outcome to be bit-identical across
//!   worker counts (plus their speedups on hosts with enough cores);
//!   writes nothing;
//! * `--iters N` — override attach iterations;
//! * `--out PATH` — the report to read and write (default: the
//!   committed one).

use xemem::TraceHandle;
use xemem_bench::pdes_churn::{CHURN_ENCLAVES, CHURN_LANES};
use xemem_bench::wallclock::{
    cells_bitwise_equal, gate_table, measure_attach, measure_attach_with, measure_intra,
    measure_pool, measure_profile, measure_sweep, measure_tiers, Json, Profile, CHECK_FLOOR_NS,
    COMMITTED_JSON, FULL_BYTES, INTRA_SPEEDUP_FACTOR, PARALLEL_JOBS, PARALLEL_SPEEDUP_FACTOR,
    POOL_PAIRS, POOL_SLOTS, SMOKE_BYTES, TIER_BYTES, TIER_ITERS,
};
use xemem_sim::host_parallelism;

const NOTE: &str = "Host wall-clock times for the XEMEM simulator's structural work. \
    Virtual-time figures are unaffected by construction; see DESIGN.md \
    'Wall-clock vs virtual time'. The parallel, intra_run, pool and \
    tiers sections' numbers are honest for the host_parallelism they \
    record; intra_run records an explicit skip on hosts below the \
    gate's core count.";

fn fail(msg: &str) -> ! {
    eprintln!("wallclock: FAIL — {msg}");
    std::process::exit(1);
}

fn num(x: u64) -> Json {
    Json::Num(x as f64)
}

fn print_profile(name: &str, p: &Profile) {
    println!(
        "  {name}: {} MiB — attach {:.3} ms (min {:.3}), attach+read {:.3} ms, \
         teardown {:.3} ms, fig6 sweep {:.1} ms",
        p.bytes >> 20,
        p.attach.mean_ns / 1e6,
        p.attach.min_ns / 1e6,
        p.attach_read.mean_ns / 1e6,
        p.teardown.mean_ns / 1e6,
        p.fig6_sweep_ns as f64 / 1e6,
    );
}

/// Time the fig6 sweep at `--jobs 1` and `--jobs PARALLEL_JOBS`; the
/// cells must be bit-identical on every host. Returns `(serial_ns,
/// parallel_ns, cells)`.
fn time_sweep() -> (u64, u64, usize) {
    let (serial_ns, serial) = measure_sweep(1).expect("serial sweep");
    let (parallel_ns, parallel) = measure_sweep(PARALLEL_JOBS).expect("parallel sweep");
    if !cells_bitwise_equal(&serial, &parallel) {
        fail(&format!(
            "fig6 sweep cells at --jobs {PARALLEL_JOBS} diverge from --jobs 1 \
             (determinism contract broken)"
        ));
    }
    println!(
        "fig6 sweep ({} cells): serial {:.1} ms, --jobs {PARALLEL_JOBS} {:.1} ms \
         ({:.2}x on {} cores), cells bit-identical",
        serial.len(),
        serial_ns as f64 / 1e6,
        parallel_ns as f64 / 1e6,
        serial_ns as f64 / parallel_ns as f64,
        host_parallelism(),
    );
    (serial_ns, parallel_ns, serial.len())
}

/// Time one `pdes_churn` simulation (8 event lanes) at 1 and
/// `PARALLEL_JOBS` workers; the outcome (digest, virtual end time,
/// window/event counts) must be bit-identical on every host. Returns
/// `(serial_ns, parallel_ns)`.
fn time_intra() -> (u64, u64) {
    let (serial_ns, serial) = measure_intra(1).expect("intra-run serial");
    let (parallel_ns, parallel) = measure_intra(PARALLEL_JOBS).expect("intra-run parallel");
    if serial != parallel {
        fail(&format!(
            "pdes_churn outcome at {PARALLEL_JOBS} workers diverges from 1 worker \
             (intra-run determinism contract broken)"
        ));
    }
    println!(
        "pdes_churn ({CHURN_ENCLAVES} actors, {CHURN_LANES} lanes): serial {:.1} ms, \
         {PARALLEL_JOBS} workers {:.1} ms ({:.2}x), outcome bit-identical",
        serial_ns as f64 / 1e6,
        parallel_ns as f64 / 1e6,
        serial_ns as f64 / parallel_ns as f64,
    );
    (serial_ns, parallel_ns)
}

/// Require `factor`× speedup where it can physically exist: hosts with
/// fewer than `PARALLEL_JOBS` cores print an explicit skip.
fn speedup_gate(what: &str, serial_ns: u64, parallel_ns: u64, factor: f64) {
    let cores = host_parallelism();
    let speedup = serial_ns as f64 / parallel_ns as f64;
    if cores < PARALLEL_JOBS {
        println!(
            "wallclock --check: {what} speedup gate SKIPPED (host_parallelism={cores}) — \
             gate needs >= {PARALLEL_JOBS} cores (bitwise identity still enforced)"
        );
    } else if speedup < factor {
        fail(&format!(
            "{what} speedup {speedup:.2}x at {PARALLEL_JOBS} workers is below the required \
             {factor}x"
        ));
    }
}

fn run_check(out_path: &str, iters: u32) {
    let doc = std::fs::read_to_string(out_path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
        .unwrap_or_else(|e| fail(&format!("cannot read {out_path}: {e}")));
    let (attach, _) = measure_attach(SMOKE_BYTES, iters).expect("smoke attach measurement");
    let (serial_ns, parallel_ns, _) = time_sweep();
    speedup_gate(
        "fig6 sweep",
        serial_ns,
        parallel_ns,
        PARALLEL_SPEEDUP_FACTOR,
    );
    let (serial_ns, parallel_ns) = time_intra();
    speedup_gate("intra-run", serial_ns, parallel_ns, INTRA_SPEEDUP_FACTOR);
    let pool = measure_pool(POOL_PAIRS).expect("pool timing");
    let tiers = measure_tiers(TIER_BYTES, iters.min(TIER_ITERS)).expect("tier timing");

    let mut failed = Vec::new();
    for gate in gate_table(&attach, pool, &tiers) {
        let verdict = gate.evaluate(&doc).unwrap_or_else(|e| fail(&e));
        let per_op = |ns: f64| ns / f64::from(gate.ops);
        println!(
            "wallclock --check: {:<20} {:>10.1} ns/op, limit {:>10.1} = max({:.1} x {}, {:.1}) {}",
            gate.label,
            per_op(gate.measured_ns),
            per_op(verdict.limit_ns),
            verdict.committed_ns,
            gate.factor,
            per_op(CHECK_FLOOR_NS),
            if verdict.pass { "ok" } else { "FAIL" },
        );
        if !verdict.pass {
            failed.push(gate.label);
        }
    }
    if !failed.is_empty() {
        fail(&format!("over the limit: {}", failed.join(", ")));
    }
    println!("wallclock --check: OK");
}

fn main() {
    let mut check_mode = false;
    let mut iters: Option<u32> = None;
    let mut out_path = COMMITTED_JSON.to_string();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check_mode = true,
            "--iters" => {
                iters = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--iters requires an integer"),
                );
            }
            "--out" => out_path = it.next().expect("--out requires a path"),
            other => panic!("unknown argument: {other} (expected --check, --iters N, --out PATH)"),
        }
    }

    if check_mode {
        run_check(&out_path, iters.unwrap_or(10));
        return;
    }

    println!(
        "wallclock: measuring full ({} MiB) and smoke ({} MiB) profiles...",
        FULL_BYTES >> 20,
        SMOKE_BYTES >> 20
    );
    let full = measure_profile(FULL_BYTES, iters.unwrap_or(5), 3).expect("full profile");
    let smoke = measure_profile(SMOKE_BYTES, iters.unwrap_or(20), 5).expect("smoke profile");
    println!("current (extent fast path):");
    print_profile("full", &full);
    print_profile("smoke", &smoke);
    let current = Json::obj([
        ("label", Json::Str("extent fast path".into())),
        ("full", full.to_json()),
        ("smoke", smoke.to_json()),
    ]);
    let baseline = std::fs::read_to_string(&out_path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|doc| doc.get("baseline").cloned())
        .unwrap_or_else(|| {
            eprintln!("wallclock: no committed baseline found; recording this run as baseline");
            current.clone()
        });
    let baseline_attach = baseline
        .path(&["full", "attach", "mean_ns"])
        .and_then(Json::as_f64)
        .unwrap_or_else(|| fail("baseline.full.attach.mean_ns missing"));
    let speedup = baseline_attach / full.attach.mean_ns;
    println!("1 GiB attach speedup vs baseline: {speedup:.1}x");

    let trace_iters = iters.unwrap_or(20);
    let (off, _) = measure_attach_with(SMOKE_BYTES, trace_iters, &TraceHandle::disabled())
        .expect("tracing-off");
    let tracer = TraceHandle::enabled();
    let (on, _) = measure_attach_with(SMOKE_BYTES, trace_iters, &tracer).expect("tracing-on");
    tracer.audit().expect("wallclock tracing-on audit");
    let on_over_off = on.mean_ns / off.mean_ns;
    println!(
        "tracing overhead at {} MiB: off {:.3} ms, on {:.3} ms ({on_over_off:.2}x)",
        SMOKE_BYTES >> 20,
        off.mean_ns / 1e6,
        on.mean_ns / 1e6,
    );
    let tracing = Json::obj([
        ("bytes", num(SMOKE_BYTES)),
        ("off", off.to_json()),
        ("on", on.to_json()),
        ("on_over_off", Json::Num(on_over_off)),
    ]);

    let cores = host_parallelism();
    let (serial_ns, parallel_ns, cells) = time_sweep();
    let parallel = Json::obj([
        ("host_parallelism", num(cores as u64)),
        ("jobs", num(PARALLEL_JOBS as u64)),
        ("sweep_units", num(cells as u64)),
        ("serial_ns", num(serial_ns)),
        ("parallel_ns", num(parallel_ns)),
        ("speedup", Json::Num(serial_ns as f64 / parallel_ns as f64)),
        ("cells_identical", Json::Bool(true)),
    ]);

    let (serial_ns, parallel_ns) = time_intra();
    let skipped = cores < PARALLEL_JOBS;
    let intra_run = Json::obj([
        ("host_parallelism", num(cores as u64)),
        ("lanes", num(CHURN_LANES as u64)),
        ("workers", num(PARALLEL_JOBS as u64)),
        ("actors", num(CHURN_ENCLAVES as u64)),
        ("serial_ns", num(serial_ns)),
        ("parallel_ns", num(parallel_ns)),
        ("speedup", Json::Num(serial_ns as f64 / parallel_ns as f64)),
        ("identical", Json::Bool(true)),
        ("skipped", Json::Bool(skipped)),
        (
            "skip_reason",
            Json::Str(if skipped {
                format!("SKIPPED (host_parallelism={cores})")
            } else {
                String::new()
            }),
        ),
    ]);

    let (ar_total, ring_total) = measure_pool(POOL_PAIRS).expect("pool timing");
    let per_op = |total: u64| total as f64 / f64::from(POOL_PAIRS);
    println!(
        "pool fast paths ({POOL_SLOTS} slots, {POOL_PAIRS} iters): acquire+release {:.1} ns/op, \
         ring cycle {:.1} ns/op",
        per_op(ar_total),
        per_op(ring_total),
    );
    let pool = Json::obj([
        ("host_parallelism", num(cores as u64)),
        ("slots", num(POOL_SLOTS.into())),
        ("pairs", num(POOL_PAIRS.into())),
        ("acquire_release_ns", Json::Num(per_op(ar_total))),
        ("ring_op_ns", Json::Num(per_op(ring_total))),
        (
            "slots_per_sec",
            Json::Num(f64::from(POOL_PAIRS) * 1e9 / ring_total as f64),
        ),
    ]);

    let (attach, migrate) = measure_tiers(TIER_BYTES, TIER_ITERS).expect("tier timing");
    println!(
        "tier paths ({} MiB): cross-tier attach {:.3} ms (min {:.3}), \
         migrate_extent {:.3} ms (min {:.3})",
        TIER_BYTES >> 20,
        attach.mean_ns / 1e6,
        attach.min_ns / 1e6,
        migrate.mean_ns / 1e6,
        migrate.min_ns / 1e6,
    );
    let tiers = Json::obj([
        ("host_parallelism", num(cores as u64)),
        ("bytes", num(TIER_BYTES)),
        ("attach", attach.to_json()),
        ("migrate", migrate.to_json()),
    ]);

    let report = Json::obj([
        ("schema", num(6)),
        ("note", Json::Str(NOTE.into())),
        ("baseline", baseline),
        ("current", current),
        ("attach_full_speedup_vs_baseline", Json::Num(speedup)),
        ("tracing", tracing),
        ("parallel", parallel),
        ("intra_run", intra_run),
        ("pool", pool),
        ("tiers", tiers),
    ]);
    std::fs::write(&out_path, report.render() + "\n").expect("write the report");
    println!("wrote {out_path}");
}
