//! Host-time probes placed by the benchmark around every public call it
//! makes into the simulator.
//!
//! Two modes share one code path:
//!
//! * **untraced** (`timing = false`): only step boundaries and the PDES
//!   dispatch are timed — a couple of `Instant::now` per step — and calls
//!   are merely counted. The end-to-end metrics come from this mode.
//! * **traced** (`timing = true`): every call is timed and kept as a host
//!   span in memory (up to [`SPAN_CAP`]); the per-layer metrics and the
//!   self time of each layer come from this mode.
//!
//! Pool calls cost tens of nanoseconds, so they are timed in batches of
//! same-kind calls and recorded as the batch's mean per call.

use std::time::Instant;

/// Host spans kept in memory per pass; later spans are counted, not kept.
pub const SPAN_CAP: usize = 250_000;

/// The layer a timed call belongs to, named after the crate or module
/// whose code the call spends its host time in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Attach/detach paths with a VM on either side (`xemem-palacios`
    /// guest memory maps, RB-tree upkeep, guest page tables).
    Palacios,
    /// Name-service routing, leases, fault delivery (`xemem::name_server`).
    NameServer,
    /// Native attach/detach/read/write/teardown: page tables, `LeafRun`s
    /// and the frame allocator (`xemem-mem`).
    Mem,
    /// Tier migration and the hot/cold policy (`xemem_sim::tier`).
    Tier,
    /// Buffer-pool slot and ring operations (`xemem-pool`).
    Pool,
    /// PDES window dispatch outside actor callbacks (`xemem_sim::pdes`).
    Pdes,
    /// The benchmark's own actor code between calls.
    Bench,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Palacios,
        Layer::NameServer,
        Layer::Mem,
        Layer::Tier,
        Layer::Pool,
        Layer::Pdes,
        Layer::Bench,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Palacios => "palacios",
            Layer::NameServer => "core.name_server",
            Layer::Mem => "mem",
            Layer::Tier => "sim.tier",
            Layer::Pool => "pool",
            Layer::Pdes => "sim.pdes",
            Layer::Bench => "bench",
        }
    }
}

/// One kind of public call the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `attach` by a process inside a VM.
    GuestAttach,
    /// `detach` by a process inside a VM.
    GuestDetach,
    /// `attach` by a native process of a region a VM exported.
    GuestExportAttach,
    Search,
    Get,
    Release,
    Make,
    Remove,
    /// `attach` between native enclaves (the extent fast path).
    Attach,
    /// `detach` by a native process.
    Detach,
    Read,
    Write,
    AllocBuffer,
    CrashTeardown,
    Migrate,
    TierTick,
    PoolAcquire,
    PoolPublish,
    PoolConsume,
    PoolRelease,
    PoolSweep,
    /// Lane-phase scratch write + read through a `LanePart`.
    LaneTouch,
}

/// Display unit of a per-call metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    Ms,
    Us,
    Ns,
}

impl Unit {
    pub fn name(self) -> &'static str {
        match self {
            Unit::Ms => "ms",
            Unit::Us => "us",
            Unit::Ns => "ns",
        }
    }

    pub fn of_ns(self, ns: f64) -> f64 {
        match self {
            Unit::Ms => ns / 1e6,
            Unit::Us => ns / 1e3,
            Unit::Ns => ns,
        }
    }
}

impl Op {
    pub const COUNT: usize = 22;
    pub const ALL: [Op; Op::COUNT] = [
        Op::GuestAttach,
        Op::GuestDetach,
        Op::GuestExportAttach,
        Op::Search,
        Op::Get,
        Op::Release,
        Op::Make,
        Op::Remove,
        Op::Attach,
        Op::Detach,
        Op::Read,
        Op::Write,
        Op::AllocBuffer,
        Op::CrashTeardown,
        Op::Migrate,
        Op::TierTick,
        Op::PoolAcquire,
        Op::PoolPublish,
        Op::PoolConsume,
        Op::PoolRelease,
        Op::PoolSweep,
        Op::LaneTouch,
    ];

    pub fn layer(self) -> Layer {
        match self {
            Op::GuestAttach | Op::GuestDetach | Op::GuestExportAttach => Layer::Palacios,
            Op::Search | Op::Get | Op::Release | Op::Make | Op::Remove => Layer::NameServer,
            Op::Attach
            | Op::Detach
            | Op::Read
            | Op::Write
            | Op::AllocBuffer
            | Op::CrashTeardown
            | Op::LaneTouch => Layer::Mem,
            Op::Migrate | Op::TierTick => Layer::Tier,
            Op::PoolAcquire
            | Op::PoolPublish
            | Op::PoolConsume
            | Op::PoolRelease
            | Op::PoolSweep => Layer::Pool,
        }
    }

    /// The per-layer metric reporting this call's p50 host time, if any.
    pub fn metric(self) -> Option<(&'static str, Unit)> {
        Some(match self {
            Op::GuestAttach => ("palacios.guest_attach_ms", Unit::Ms),
            Op::GuestDetach => ("palacios.guest_detach_ms", Unit::Ms),
            Op::GuestExportAttach => ("palacios.guest_export_attach_ms", Unit::Ms),
            Op::Search => ("core.search_us", Unit::Us),
            Op::Get => ("core.get_us", Unit::Us),
            Op::Release => ("core.release_us", Unit::Us),
            Op::Make => ("core.make_us", Unit::Us),
            Op::Remove => ("core.remove_us", Unit::Us),
            Op::Attach => ("core.attach_us", Unit::Us),
            Op::Detach => ("core.detach_us", Unit::Us),
            Op::Read => ("core.read_us", Unit::Us),
            Op::CrashTeardown => ("core.crash_teardown_us", Unit::Us),
            Op::Migrate => ("core.migrate_us", Unit::Us),
            Op::TierTick => ("core.tier_tick_us", Unit::Us),
            Op::PoolAcquire => ("pool.acquire_ns", Unit::Ns),
            Op::PoolPublish => ("pool.publish_ns", Unit::Ns),
            Op::PoolConsume => ("pool.consume_ns", Unit::Ns),
            Op::PoolRelease => ("pool.release_ns", Unit::Ns),
            Op::PoolSweep => ("pool.sweep_us", Unit::Us),
            Op::Write | Op::AllocBuffer | Op::LaneTouch => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Op::GuestAttach => "guest_attach",
            Op::GuestDetach => "guest_detach",
            Op::GuestExportAttach => "guest_export_attach",
            Op::Search => "search",
            Op::Get => "get",
            Op::Release => "release",
            Op::Make => "make",
            Op::Remove => "remove",
            Op::Attach => "attach",
            Op::Detach => "detach",
            Op::Read => "read",
            Op::Write => "write",
            Op::AllocBuffer => "alloc_buffer",
            Op::CrashTeardown => "crash_teardown",
            Op::Migrate => "migrate",
            Op::TierTick => "tier_tick",
            Op::PoolAcquire => "pool_acquire",
            Op::PoolPublish => "pool_publish",
            Op::PoolConsume => "pool_consume",
            Op::PoolRelease => "pool_release",
            Op::PoolSweep => "pool_sweep",
            Op::LaneTouch => "lane_touch",
        }
    }
}

/// Span kinds beyond the calls themselves.
const SPAN_CALLBACK: u8 = 200;
const SPAN_DISPATCH: u8 = 201;

/// One host span: what ran, when (ns since the probe's origin), how long.
#[derive(Debug, Clone, Copy)]
pub struct HostSpan {
    pub kind: u8,
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl HostSpan {
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            SPAN_CALLBACK => "callback",
            SPAN_DISPATCH => "dispatch",
            k => Op::ALL[k as usize].name(),
        }
    }
}

/// Host-time and call-count accumulator for one pass.
pub struct Probe {
    timing: bool,
    origin: Instant,
    /// Per-op samples: host ns per call (batch means for pool calls).
    samples: Vec<Vec<f64>>,
    /// Per-op total host ns and call count.
    op_ns: [f64; Op::COUNT],
    op_calls: [u64; Op::COUNT],
    /// Public calls made (every call returns: a value or a typed error).
    pub attempted: u64,
    /// Calls that returned a typed error.
    pub errors: u64,
    /// Completed steps' host ns.
    pub steps: Vec<f64>,
    open_step: Option<(u64, f64)>,
    /// Host ns inside actor callbacks, and inside `run_lanes` overall.
    pub callback_ns: f64,
    pub dispatch_ns: f64,
    /// Host ns of timed calls made inside callbacks.
    inner_call_ns: f64,
    in_callback: bool,
    pub spans: Vec<HostSpan>,
    pub spans_dropped: u64,
}

impl Probe {
    pub fn new(timing: bool) -> Probe {
        Probe {
            timing,
            origin: Instant::now(),
            samples: vec![Vec::new(); Op::COUNT],
            op_ns: [0.0; Op::COUNT],
            op_calls: [0; Op::COUNT],
            attempted: 0,
            errors: 0,
            steps: Vec::new(),
            open_step: None,
            callback_ns: 0.0,
            dispatch_ns: 0.0,
            inner_call_ns: 0.0,
            in_callback: false,
            spans: Vec::new(),
            spans_dropped: 0,
        }
    }

    fn span(&mut self, kind: u8, start: Instant, dur_ns: f64) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(HostSpan {
                kind,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                dur_ns: dur_ns as u64,
            });
        } else {
            self.spans_dropped += 1;
        }
    }

    fn record(&mut self, op: Op, start: Instant, calls: u64) {
        let ns = start.elapsed().as_nanos() as f64;
        let i = op as usize;
        self.samples[i].push(ns / calls as f64);
        self.op_ns[i] += ns;
        self.op_calls[i] += calls;
        if self.in_callback {
            self.inner_call_ns += ns;
        }
        self.span(i as u8, start, ns);
    }

    /// Make one public call, counting it and (when tracing) timing it.
    pub fn call<T, E>(&mut self, op: Op, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        self.attempted += 1;
        let r = if self.timing {
            let start = Instant::now();
            let r = f();
            self.record(op, start, 1);
            r
        } else {
            f()
        };
        if r.is_err() {
            self.errors += 1;
        }
        r
    }

    /// Make `calls` same-kind public calls inside `f`, timed as one batch;
    /// `f` returns its value and how many of the calls returned an error.
    pub fn batch<T>(&mut self, op: Op, calls: u64, f: impl FnOnce() -> (T, u64)) -> T {
        if calls == 0 {
            return f().0;
        }
        self.attempted += calls;
        let (v, errs) = if self.timing {
            let start = Instant::now();
            let r = f();
            self.record(op, start, calls);
            r
        } else {
            f()
        };
        self.errors += errs;
        v
    }

    /// Fold in lane-phase work an actor timed itself (`ns` host time,
    /// `calls` calls, `errs` errors): it counts as callback time, so PDES
    /// dispatch self time excludes it.
    pub fn lane_work(&mut self, ns: f64, calls: u64, errs: u64) {
        if calls == 0 {
            return;
        }
        self.attempted += calls;
        self.errors += errs;
        self.callback_ns += ns;
        self.inner_call_ns += ns;
        let i = Op::LaneTouch as usize;
        self.op_ns[i] += ns;
        self.op_calls[i] += calls;
        if self.timing {
            self.samples[i].push(ns / calls as f64);
        }
    }

    /// Open an actor callback; pass the result to [`Probe::leave`].
    pub fn enter(&mut self) -> Instant {
        self.in_callback = true;
        Instant::now()
    }

    /// Close an actor callback opened at `start`. Consecutive callbacks
    /// with the same `step` key add up to one workload step (`None`: the
    /// callback is not part of a step).
    pub fn leave(&mut self, start: Instant, step: Option<u64>) {
        let ns = start.elapsed().as_nanos() as f64;
        self.in_callback = false;
        self.callback_ns += ns;
        if self.timing {
            self.span(SPAN_CALLBACK, start, ns);
        }
        if let Some(key) = step {
            match &mut self.open_step {
                Some((k, acc)) if *k == key => *acc += ns,
                open => {
                    if let Some((_, acc)) = open.replace((key, ns)) {
                        self.steps.push(acc);
                    }
                }
            }
        }
    }

    /// Close a `run_lanes` dispatch that began at `start` (callbacks
    /// included).
    pub fn dispatched(&mut self, start: Instant) {
        let ns = start.elapsed().as_nanos() as f64;
        self.dispatch_ns += ns;
        if self.timing {
            self.span(SPAN_DISPATCH, start, ns);
        }
        if let Some((_, acc)) = self.open_step.take() {
            self.steps.push(acc);
        }
    }

    /// p50 host ns per call of `op`, or `None` when it was never called.
    pub fn p50_ns(&self, op: Op) -> Option<f64> {
        let s = &self.samples[op as usize];
        (!s.is_empty()).then(|| quantile(s, 0.5))
    }

    pub fn calls(&self, op: Op) -> u64 {
        self.op_calls[op as usize]
    }

    /// Self host ns per layer over the dispatch phases: calls count for
    /// their own layer, callbacks minus their calls for the benchmark,
    /// and dispatch minus callbacks for PDES.
    pub fn self_ns(&self, layer: Layer) -> f64 {
        match layer {
            Layer::Pdes => (self.dispatch_ns - self.callback_ns).max(0.0),
            Layer::Bench => (self.callback_ns - self.inner_call_ns).max(0.0),
            l => Op::ALL
                .iter()
                .filter(|op| op.layer() == l)
                .map(|&op| self.op_ns[op as usize])
                .sum(),
        }
    }
}

/// Nearest-rank quantile of unsorted samples (`q` in `[0, 1]`); 0 when
/// there are none (an episode that failed to set up has no steps).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}
