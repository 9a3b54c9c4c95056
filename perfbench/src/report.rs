//! Turning passes into metrics, correctness verdicts, the trace files and
//! the final JSON line.

use std::fmt::Write as _;

use xemem_trace::{Counter, ShardCounter, SpanKind, MAX_SHARDS};

use crate::check;
use crate::probe::{quantile, Layer, Op};
use crate::{Args, Pass};

/// Facts about the host, printed with every run so that numbers from
/// different hosts are never compared.
pub struct HostFacts {
    nproc: usize,
    cpu: String,
    profile: &'static str,
}

impl HostFacts {
    pub fn probe() -> HostFacts {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    pub fn line(&self) -> String {
        format!(
            "host nproc={} cpu={:?} profile={}",
            self.nproc, self.cpu, self.profile
        )
    }
}

/// A finished run: the verdict and the metrics of the final JSON line.
pub struct Output {
    pub correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Output {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        println!("metric {name} {value} {unit}");
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Check every episode of every pass: in-run oracles held, all digests
/// agree (tracing included), and they match the committed golden digest
/// of the run's input set. Prints one line per finding.
fn verdict(args: &Args, passes: &[&Pass]) -> Output {
    let episodes: Vec<_> = passes.iter().flat_map(|p| &p.episodes).collect();
    let mut failed = 0u64;
    for v in episodes.iter().flat_map(|e| &e.verdict.violations) {
        println!("check violation: {v}");
        failed += 1;
    }
    let first = episodes[0].verdict.digest;
    let diverged = episodes
        .iter()
        .filter(|e| e.verdict.digest != first)
        .count();
    if diverged > 0 {
        println!("check diverged: {diverged} episodes differ from the first episode's digest");
        failed += diverged as u64;
    }
    let name = args.workload.name();
    let set = args.input_set();
    match check::golden(name, args.size.name(), set) {
        Some(g) if g == first => println!("check golden: {first:016x} matches"),
        Some(g) => {
            println!("check golden: {first:016x} differs from committed {g:016x}");
            failed += 1;
        }
        None => {
            println!(
                "check golden: none committed for {name} {} input set {set}",
                args.size.name()
            );
            failed += 1;
        }
    }
    for (fact, value) in &episodes[0].verdict.facts {
        println!("virtual {fact} {value}");
    }
    let errors: Vec<String> = episodes[0]
        .verdict
        .errors
        .iter()
        .map(|(kind, n)| format!("{kind}={n}"))
        .collect();
    println!("virtual errors {}", errors.join(" "));
    Output {
        correct: failed == 0,
        attempted: passes.iter().map(|p| p.probe.attempted).sum::<u64>().max(1),
        failed,
        metrics: Vec::new(),
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// End-to-end metrics from the untraced pass.
pub fn untraced(args: &Args, pass: Pass) -> Output {
    let mut out = verdict(args, &[&pass]);
    let p = &pass.probe;
    let measured = pass.measured().as_secs_f64();
    println!(
        "run episodes={} measured_s={measured} steps={} calls={}",
        pass.episodes.len(),
        p.steps.len(),
        p.attempted
    );
    let per: Vec<String> = pass
        .episodes
        .iter()
        .map(|e| format!("{:.3}", e.measured.as_secs_f64()))
        .collect();
    println!("run episode_measured_s={}", per.join(","));
    let fast = pass.fastest_fifth();
    let calls: u64 = fast.iter().map(|e| e.calls).sum();
    let secs: f64 = fast.iter().map(|e| e.measured.as_secs_f64()).sum();
    // Episodes repeat identical work, so step `i` of every episode is the
    // same work: each step's host time is its median over the fast
    // episodes, and one slow moment of the host moves no step.
    let n = fast.iter().map(|e| e.steps.len()).min().unwrap_or(0);
    let profile: Vec<f64> = (0..n)
        .map(|i| median(fast.iter().map(|e| p.steps[e.steps.start + i]).collect()))
        .collect();
    println!("run fast_episodes={} steps_per_episode={n}", fast.len());
    out.metric("ops_per_s", calls as f64 / secs, "1/s");
    out.metric("step_p50_ms", quantile(&profile, 0.50) / 1e6, "ms");
    out.metric("step_p99_ms", quantile(&profile, 0.99) / 1e6, "ms");
    // Set-up is timed apart from the measured phase, so it takes the
    // median of its own fastest fifth.
    let mut setups: Vec<f64> = pass
        .episodes
        .iter()
        .map(|e| e.setup.as_secs_f64())
        .collect();
    setups.sort_by(f64::total_cmp);
    setups.truncate(setups.len().div_ceil(5));
    out.metric("setup_s", median(setups), "s");
    out.metric("peak_rss_mb", pass.peak_rss_mb, "MiB");
    out.metric(
        "error_rate",
        p.errors as f64 / p.attempted.max(1) as f64,
        "ratio",
    );
    out
}

/// Per-layer metrics from the traced run: host timings from the pass
/// with the simulator's tracer off, counters from the pass with it on.
pub fn traced(args: &Args, facts: &HostFacts, timed: Pass, traced: Pass) -> Output {
    let mut out = verdict(args, &[&timed, &traced]);
    let p = &timed.probe;
    let episodes = timed.episodes.len() as f64;
    for op in Op::ALL {
        if let Some((name, unit)) = op.metric() {
            out.metric(name, unit.of_ns(p.p50_ns(op).unwrap_or(0.0)), unit.name());
        }
    }
    let per_episode = |pass: &Pass| {
        let fast = pass.fastest_fifth();
        fast.iter().map(|e| e.measured.as_secs_f64()).sum::<f64>() / fast.len() as f64
    };
    out.metric(
        "trace.overhead_ratio",
        per_episode(&traced) / per_episode(&timed),
        "ratio",
    );

    let t = &traced.tracer;
    let shard_sum = |c: ShardCounter| (0..MAX_SHARDS).map(|s| t.shard_counter(s, c)).sum::<u64>();
    let lookups = shard_sum(ShardCounter::Lookups);
    let ratio = t.counter(Counter::NsLeaseServes) as f64 / lookups.max(1) as f64;
    out.metric("core.name_server.lease_hit_ratio", ratio, "ratio");
    out.metric(
        "core.name_server.retries",
        t.counter(Counter::NsRetries) as f64,
        "count",
    );
    out.metric(
        "core.name_server.failovers",
        shard_sum(ShardCounter::Failovers) as f64,
        "count",
    );
    let dispatch_self = p.self_ns(Layer::Pdes) / episodes;
    out.metric("sim.pdes.dispatch_self_ms", dispatch_self / 1e6, "ms");
    let pdes = timed.episodes[0].pdes;
    out.metric("sim.pdes.windows", pdes.windows as f64, "count");
    out.metric("sim.pdes.events", pdes.events as f64, "count");
    out.metric(
        "mem.lwk_attach_pages",
        t.counter(Counter::LwkAttachPages) as f64,
        "count",
    );
    out.metric(
        "sim.tier.pages_migrated",
        t.counter(Counter::TierPagesMigrated) as f64,
        "count",
    );
    let publish_ok = timed.episodes[0]
        .verdict
        .facts
        .iter()
        .find(|(f, _)| *f == "pool_publish_ok_ratio")
        .map_or(0.0, |(_, v)| *v);
    out.metric("pool.publish_ok_ratio", publish_ok, "ratio");
    let total: f64 = Layer::ALL.iter().map(|&l| p.self_ns(l)).sum();
    for layer in Layer::ALL {
        let name = format!("{}.self_share", layer.name());
        out.metric(&name, p.self_ns(layer) / total.max(1.0), "ratio");
    }
    if let Err(e) = write_trace(args, facts, &timed, &traced) {
        println!("trace files not written: {e}");
    }
    out
}

/// Write the host spans and a per-layer / per-`SpanKind` summary.
fn write_trace(args: &Args, facts: &HostFacts, timed: &Pass, traced: &Pass) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.trace_dir)?;
    let stem = format!(
        "{}/{}-seed{}",
        args.trace_dir,
        args.workload.name(),
        args.seed
    );
    let p = &timed.probe;

    let mut spans = String::from("kind\tstart_ns\tdur_ns\n");
    for s in &p.spans {
        let _ = writeln!(spans, "{}\t{}\t{}", s.kind_name(), s.start_ns, s.dur_ns);
    }
    std::fs::write(format!("{stem}.spans.tsv"), spans)?;

    let mut s = String::new();
    let _ = writeln!(s, "{}", facts.line());
    let _ = writeln!(
        s,
        "workload {} seed {} episodes {} spans_kept {} spans_dropped {}",
        args.workload.name(),
        args.seed,
        timed.episodes.len(),
        p.spans.len(),
        p.spans_dropped
    );
    let total: f64 = Layer::ALL.iter().map(|&l| p.self_ns(l)).sum();
    let _ = writeln!(s, "\n# host self time per layer (timed pass)");
    for layer in Layer::ALL {
        let ns = p.self_ns(layer);
        let share = ns / total.max(1.0);
        let _ = writeln!(
            s,
            "{:<18} {:>14.3} ms {:>7.2}%",
            layer.name(),
            ns / 1e6,
            share * 100.0
        );
    }
    let _ = writeln!(s, "\n# host time per call (timed pass): calls p50_ns");
    for op in Op::ALL {
        let p50 = p.p50_ns(op).unwrap_or(0.0);
        let _ = writeln!(s, "{:<20} {:>10} {:>12.0}", op.name(), p.calls(op), p50);
    }
    let t = &traced.tracer;
    let recorded = t.spans();
    let _ = writeln!(
        s,
        "\n# virtual-time spans per SpanKind (last traced episode): committed_ops recorded_spans (lost {})",
        t.lost_spans()
    );
    for kind in SpanKind::ALL {
        let n = recorded.iter().filter(|sp| sp.kind == kind).count();
        let _ = writeln!(
            s,
            "{:<20} {:>10} {:>10}",
            kind.as_str(),
            t.op_count(kind),
            n
        );
    }
    let _ = writeln!(s, "\n# counter registry (last traced episode)");
    s.push_str(&t.metrics_summary());
    let _ = writeln!(s, "\n# per-shard counters (last traced episode)");
    for shard in 0..MAX_SHARDS {
        let row: Vec<u64> = ShardCounter::ALL
            .iter()
            .map(|&c| t.shard_counter(shard, c))
            .collect();
        if row.iter().any(|&v| v > 0) {
            let cells: Vec<String> = ShardCounter::ALL
                .iter()
                .zip(&row)
                .map(|(c, v)| format!("{}={v}", c.as_str()))
                .collect();
            let _ = writeln!(s, "shard{shard} {}", cells.join(" "));
        }
    }
    std::fs::write(format!("{stem}.summary.txt"), s)?;
    println!("trace files {stem}.spans.tsv {stem}.summary.txt");
    Ok(())
}
