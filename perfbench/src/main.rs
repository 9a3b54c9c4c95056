//! The XEMEM simulator's host-time benchmark.
//!
//! ```text
//! perfbench --workload <vm_insitu|ns_churn|native_stream> --seed <n>
//!           --seconds <s> --trace <0|1> [--size full|smoke]
//!           [--trace-dir <dir>] [--bless]
//! ```
//!
//! The seed picks one of the size's committed input sets (`seed` modulo
//! their count), so every run is checked against a golden digest.
//! One process, one thread (PDES at one lane, one worker). The workload
//! is a closed loop: each call is issued after the previous one returns.
//! Episodes — build a system from the seed's inputs, run the workload,
//! tear down, check — repeat until `--seconds` have passed. With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
//! every call is timed, episodes alternate between the simulator's own
//! tracer off and on, and the run reports the per-layer metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod check;
mod episode;
mod native_stream;
mod ns_churn;
mod probe;
mod report;
mod vm_insitu;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use xemem::TraceHandle;

use episode::{Episode, Size};
use probe::Probe;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    VmInsitu,
    NsChurn,
    NativeStream,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::VmInsitu,
        Workload::NsChurn,
        Workload::NativeStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::VmInsitu => "vm_insitu",
            Workload::NsChurn => "ns_churn",
            Workload::NativeStream => "native_stream",
        }
    }

    fn episode(
        self,
        seed: u64,
        size: Size,
        probe: Probe,
        tracer: &TraceHandle,
    ) -> (Episode, Probe) {
        match self {
            Workload::VmInsitu => vm_insitu::episode(seed, size, probe, tracer),
            Workload::NsChurn => ns_churn::episode(seed, size, probe, tracer),
            Workload::NativeStream => native_stream::episode(seed, size, probe, tracer),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    trace_dir: String,
    bless: bool,
}

impl Args {
    /// The input set this run's seed selects.
    fn input_set(&self) -> u64 {
        self.seed % self.size.input_sets()
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut trace_dir = "perfbench/trace-out".to_string();
    let mut bless = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or(format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    v => return Err(format!("--size takes full or smoke, not {v:?}")),
                }
            }
            "--trace-dir" => trace_dir = value()?,
            "--bless" => bless = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if bless {
        // Blessing prints every input set's digest for `golden.txt`.
        return Ok(Args {
            workload,
            seed: 0,
            seconds: 0.0,
            trace: false,
            size,
            trace_dir,
            bless,
        });
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        trace_dir,
        bless,
    })
}

/// Episodes of one pass, and the probe that watched them.
pub struct Pass {
    pub episodes: Vec<Episode>,
    pub probe: Probe,
    /// The tracer of the last episode (disabled unless traced).
    pub tracer: TraceHandle,
    /// `VmHWM` after the first episode, in MiB: one build, workload and
    /// teardown, before the pass's own records of later episodes grow.
    pub peak_rss_mb: f64,
    traced: bool,
}

impl Pass {
    fn new(timing: bool, traced: bool) -> Pass {
        Pass {
            episodes: Vec::new(),
            probe: Probe::new(timing),
            tracer: TraceHandle::disabled(),
            peak_rss_mb: 0.0,
            traced,
        }
    }

    /// Run one more episode; false when its checks failed.
    fn run_episode(&mut self, args: &Args) -> bool {
        self.tracer = if self.traced {
            TraceHandle::enabled()
        } else {
            TraceHandle::disabled()
        };
        let probe = std::mem::replace(&mut self.probe, Probe::new(false));
        let (ep, probe) = args
            .workload
            .episode(args.input_set(), args.size, probe, &self.tracer);
        self.probe = probe;
        let ok = ep.verdict.violations.is_empty();
        self.episodes.push(ep);
        if self.episodes.len() == 1 {
            self.peak_rss_mb = report::peak_rss_mb();
        }
        ok
    }

    pub fn measured(&self) -> Duration {
        self.episodes.iter().map(|e| e.measured).sum()
    }

    /// The fastest fifth of the episodes by measured time. A shared host
    /// alternates between fast and slow states for seconds at a time;
    /// episodes repeat identical work, so the fastest of them measure the
    /// program and the rest add co-tenant interference.
    pub fn fastest_fifth(&self) -> Vec<&Episode> {
        let mut order: Vec<&Episode> = self.episodes.iter().collect();
        order.sort_by_key(|e| e.measured);
        order.truncate(order.len().div_ceil(5));
        order
    }
}

/// Run one episode of each pass in turn until `seconds` have passed and
/// each pass has at least `min_episodes`, or until a check fails.
fn run_passes(args: &Args, min_episodes: usize, passes: &mut [Pass]) {
    let start = Instant::now();
    loop {
        for pass in passes.iter_mut() {
            if !pass.run_episode(args) {
                return;
            }
        }
        if passes[0].episodes.len() >= min_episodes && start.elapsed().as_secs_f64() >= args.seconds
        {
            return;
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        for set in 0..args.size.input_sets() {
            let (ep, _) =
                args.workload
                    .episode(set, args.size, Probe::new(false), &TraceHandle::disabled());
            if !ep.verdict.violations.is_empty() {
                eprintln!("perfbench: input set {set}: {:?}", ep.verdict.violations);
                return ExitCode::FAILURE;
            }
            println!(
                "{} {} {set} {:016x}",
                args.workload.name(),
                args.size.name(),
                ep.verdict.digest
            );
        }
        return ExitCode::SUCCESS;
    }

    let facts = report::HostFacts::probe();
    println!("{}", facts.line());
    println!("inputs seed={} set={}", args.seed, args.input_set());
    let out = if args.trace {
        // Episodes alternate between every call timed with the simulator's
        // tracer off and the same with it on, so both passes see the same
        // host states; their ratio is the tracer's cost.
        let mut passes = [Pass::new(true, false), Pass::new(true, true)];
        run_passes(&args, 1, &mut passes);
        let [timed, traced] = passes;
        report::traced(&args, &facts, timed, traced)
    } else {
        let mut passes = [Pass::new(false, false)];
        run_passes(&args, 3, &mut passes);
        let [plain] = passes;
        report::untraced(&args, plain)
    };
    println!("{}", out.json());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
