//! # xemem-obs
//!
//! Causal trace analysis over the line-oriented obs report emitted by
//! `xemem_trace::merge_obs_report` (every traced bench bin writes one
//! via `--obs-report PATH`). The report carries, per run: the exact
//! conservation sums from the metrics registry, every exported span
//! with its parent link and timeline, every causal edge, and the full
//! counter/histogram registry — all integer virtual nanoseconds.
//!
//! Three analyses ride on it, all bit-exact and a pure function of the
//! report bytes (so their output is byte-identical at any `--jobs` or
//! `--lanes`, because the report itself is):
//!
//! * **Attribution** ([`attribution`]): 100% of end-to-end virtual
//!   latency (Σ root-span nanoseconds, the same "attributed ns" the
//!   bench epilogue prints) split across leaf components. The split is
//!   exact by the conservation invariant — leaves tile roots — and
//!   [`check`] re-derives and gates it from the span lines alone.
//! * **Critical path** ([`critical_path`]): per run, walk back from the
//!   latest-ending op (or the latest instance of a chosen op class),
//!   stepping to the op active at each point in time and labelling
//!   inter-op gaps with the causal edge that spans them (`send_recv`,
//!   `backoff_retry`, `window_resume`, `failover_promotion`, …) or
//!   `idle` when none does. The resulting segments tile the run's
//!   `[first_start, last_end]` range exactly — gated bit-for-bit.
//! * **Digests** ([`op_digests`]): streaming log₂-bucketed latency
//!   digests per op class with integer quantile bounds.
//!
//! [`check`] is the `obs critical-path --check` gate: zero lost
//! records, span-derived sums equal to the registry sums, leaf/root
//! conservation per timeline, monotone edges, and exact critical-path
//! tiling, for every run in the report.

use std::collections::BTreeMap;

use xemem_trace::{
    ConservationSums, Counter, EdgeKind, Hist, HistSnapshot, MetricsSnapshot, ShardCounter,
    SpanKind, HIST_BUCKETS, MAX_SHARDS, OBS_REPORT_HEADER,
};

/// Span level in the report: committed op roots, leaves charged inside
/// an op frame, and self-rooted leaves (detached charges outside any
/// frame, which count as their own root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// A committed op frame (`r`).
    Root,
    /// A leaf charged inside an op frame (`l`).
    Leaf,
    /// A self-rooted leaf (`s`): both root and leaf of its own op.
    SelfRooted,
}

/// One span line of the report (times in virtual nanoseconds).
#[derive(Debug, Clone, Copy)]
pub struct RSpan {
    /// True when charged on the clock timeline (`c`), false for the
    /// detached timeline (`d`).
    pub clock: bool,
    /// Root / leaf / self-rooted.
    pub level: Level,
    /// The op class this span belongs to (for roots: the op itself).
    pub op: SpanKind,
    /// The charge site (for roots: equal to `op`).
    pub kind: SpanKind,
    /// Start, ns.
    pub start: u64,
    /// Duration, ns.
    pub dur: u64,
    /// Parent identity by content: the enclosing op's kind…
    pub parent_kind: SpanKind,
    /// …and start time (equal to `start` for roots and self-rooted).
    pub parent_start: u64,
    /// Enclave slot.
    pub enclave: u32,
    /// Process id.
    pub pid: u32,
    /// Segment id.
    pub segid: u64,
}

impl RSpan {
    /// End time, ns.
    pub fn end(&self) -> u64 {
        self.start + self.dur
    }

    /// Whether this span is an attribution root (committed op or
    /// self-rooted leaf).
    pub fn is_root(&self) -> bool {
        self.level != Level::Leaf
    }

    /// Whether this span is an attribution leaf (charged component).
    pub fn is_leaf(&self) -> bool {
        self.level != Level::Root
    }
}

/// One causal edge line of the report.
#[derive(Debug, Clone, Copy)]
pub struct REdge {
    /// Edge taxonomy.
    pub kind: EdgeKind,
    /// Cause time, ns.
    pub src: u64,
    /// Effect time, ns (`>= src`).
    pub dst: u64,
    /// Cause identity (enclave, pid, segid).
    pub src_ctx: (u32, u32, u64),
    /// Effect identity.
    pub dst_ctx: (u32, u32, u64),
}

/// One run of the report.
#[derive(Debug, Clone)]
pub struct Run {
    /// Run id (assigned in unit order by the bench driver).
    pub id: u64,
    /// Registry conservation sums, as written by the tracer.
    pub sums: ConservationSums,
    /// Spans overwritten by ring wrap-around (must be 0 for `check`).
    pub lost_spans: u64,
    /// Edges overwritten by ring wrap-around (must be 0 for `check`).
    pub lost_edges: u64,
    /// Exported spans, in the report's content-sorted order.
    pub spans: Vec<RSpan>,
    /// Exported edges, in the report's content-sorted order.
    pub edges: Vec<REdge>,
    /// The run's metrics registry, reconstructed.
    pub metrics: MetricsSnapshot,
}

/// A parsed obs report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Runs in report (run-id) order.
    pub runs: Vec<Run>,
}

fn span_kind(name: &str) -> Result<SpanKind, String> {
    SpanKind::ALL
        .into_iter()
        .find(|k| k.as_str() == name)
        .ok_or_else(|| format!("unknown span kind {name:?}"))
}

fn edge_kind(name: &str) -> Result<EdgeKind, String> {
    EdgeKind::ALL
        .into_iter()
        .find(|k| k.as_str() == name)
        .ok_or_else(|| format!("unknown edge kind {name:?}"))
}

fn parse_u64(tok: Option<&str>, what: &str, line_no: usize) -> Result<u64, String> {
    tok.ok_or_else(|| format!("line {line_no}: missing {what}"))?
        .parse()
        .map_err(|_| format!("line {line_no}: bad {what}"))
}

fn parse_hist(
    toks: &mut std::str::SplitWhitespace<'_>,
    line_no: usize,
) -> Result<HistSnapshot, String> {
    let count = parse_u64(toks.next(), "hist count", line_no)?;
    let sum = parse_u64(toks.next(), "hist sum", line_no)?;
    let mut buckets = [0u64; HIST_BUCKETS];
    for b in buckets.iter_mut() {
        *b = parse_u64(toks.next(), "hist bucket", line_no)?;
    }
    Ok(HistSnapshot {
        count,
        sum,
        buckets,
    })
}

impl Report {
    /// Parse an obs report. Errors carry the offending line number.
    pub fn parse(text: &str) -> Result<Report, String> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, first)) if first == OBS_REPORT_HEADER.trim_end() => {}
            Some((_, first)) => return Err(format!("bad header {first:?}")),
            None => return Err("empty report".into()),
        }
        let mut runs: Vec<Run> = Vec::new();
        let mut cur: Option<Run> = None;
        for (idx, line) in lines {
            let line_no = idx + 1;
            let mut toks = line.split_whitespace();
            let Some(tag) = toks.next() else { continue };
            if tag == "run" {
                if cur.is_some() {
                    return Err(format!("line {line_no}: nested run"));
                }
                cur = Some(Run {
                    id: parse_u64(toks.next(), "run id", line_no)?,
                    sums: ConservationSums::default(),
                    lost_spans: 0,
                    lost_edges: 0,
                    spans: Vec::new(),
                    edges: Vec::new(),
                    metrics: MetricsSnapshot::zero(),
                });
                continue;
            }
            let run = cur
                .as_mut()
                .ok_or_else(|| format!("line {line_no}: {tag:?} outside a run"))?;
            match tag {
                "sums" => {
                    run.sums.clock_root_ns = parse_u64(toks.next(), "clock_root", line_no)?;
                    run.sums.clock_leaf_ns = parse_u64(toks.next(), "clock_leaf", line_no)?;
                    run.sums.detached_root_ns = parse_u64(toks.next(), "detached_root", line_no)?;
                    run.sums.detached_leaf_ns = parse_u64(toks.next(), "detached_leaf", line_no)?;
                    run.metrics.sums = run.sums;
                }
                "lost" => {
                    run.lost_spans = parse_u64(toks.next(), "lost spans", line_no)?;
                    run.lost_edges = parse_u64(toks.next(), "lost edges", line_no)?;
                }
                "span" => {
                    let clock = match toks.next() {
                        Some("c") => true,
                        Some("d") => false,
                        other => return Err(format!("line {line_no}: bad timeline {other:?}")),
                    };
                    let level = match toks.next() {
                        Some("r") => Level::Root,
                        Some("l") => Level::Leaf,
                        Some("s") => Level::SelfRooted,
                        other => return Err(format!("line {line_no}: bad level {other:?}")),
                    };
                    let op = span_kind(toks.next().unwrap_or(""))?;
                    let kind = span_kind(toks.next().unwrap_or(""))?;
                    let start = parse_u64(toks.next(), "start", line_no)?;
                    let dur = parse_u64(toks.next(), "dur", line_no)?;
                    let parent_kind = span_kind(toks.next().unwrap_or(""))?;
                    let parent_start = parse_u64(toks.next(), "parent_start", line_no)?;
                    let enclave = parse_u64(toks.next(), "enclave", line_no)? as u32;
                    let pid = parse_u64(toks.next(), "pid", line_no)? as u32;
                    let segid = parse_u64(toks.next(), "segid", line_no)?;
                    run.spans.push(RSpan {
                        clock,
                        level,
                        op,
                        kind,
                        start,
                        dur,
                        parent_kind,
                        parent_start,
                        enclave,
                        pid,
                        segid,
                    });
                }
                "edge" => {
                    let kind = edge_kind(toks.next().unwrap_or(""))?;
                    let src = parse_u64(toks.next(), "src", line_no)?;
                    let dst = parse_u64(toks.next(), "dst", line_no)?;
                    let se = parse_u64(toks.next(), "src enclave", line_no)? as u32;
                    let sp = parse_u64(toks.next(), "src pid", line_no)? as u32;
                    let ss = parse_u64(toks.next(), "src segid", line_no)?;
                    let de = parse_u64(toks.next(), "dst enclave", line_no)? as u32;
                    let dp = parse_u64(toks.next(), "dst pid", line_no)? as u32;
                    let ds = parse_u64(toks.next(), "dst segid", line_no)?;
                    run.edges.push(REdge {
                        kind,
                        src,
                        dst,
                        src_ctx: (se, sp, ss),
                        dst_ctx: (de, dp, ds),
                    });
                }
                "op_count" => {
                    let kind = span_kind(toks.next().unwrap_or(""))?;
                    run.metrics.op_counts[kind as usize] = parse_u64(toks.next(), "n", line_no)?;
                }
                "edge_count" => {
                    let kind = edge_kind(toks.next().unwrap_or(""))?;
                    run.metrics.edge_counts[kind as usize] = parse_u64(toks.next(), "n", line_no)?;
                }
                "counter" => {
                    let name = toks.next().unwrap_or("");
                    let counter = Counter::ALL
                        .into_iter()
                        .find(|c| c.as_str() == name)
                        .ok_or_else(|| format!("line {line_no}: unknown counter {name:?}"))?;
                    run.metrics.counters[counter as usize] = parse_u64(toks.next(), "v", line_no)?;
                }
                "hist" => {
                    let name = toks.next().unwrap_or("");
                    let hist = Hist::ALL
                        .into_iter()
                        .find(|h| h.as_str() == name)
                        .ok_or_else(|| format!("line {line_no}: unknown hist {name:?}"))?;
                    run.metrics.hists[hist as usize] = parse_hist(&mut toks, line_no)?;
                }
                "shard_counter" => {
                    let shard = parse_u64(toks.next(), "shard", line_no)? as usize;
                    if shard >= MAX_SHARDS {
                        return Err(format!("line {line_no}: shard {shard} out of range"));
                    }
                    let name = toks.next().unwrap_or("");
                    let counter = ShardCounter::ALL
                        .into_iter()
                        .find(|c| c.as_str() == name)
                        .ok_or_else(|| format!("line {line_no}: unknown shard counter {name:?}"))?;
                    run.metrics.shard_counters[shard][counter as usize] =
                        parse_u64(toks.next(), "v", line_no)?;
                }
                "shard_hist" => {
                    let shard = parse_u64(toks.next(), "shard", line_no)? as usize;
                    if shard >= MAX_SHARDS {
                        return Err(format!("line {line_no}: shard {shard} out of range"));
                    }
                    run.metrics.shard_lookup_ns[shard] = parse_hist(&mut toks, line_no)?;
                }
                "end" => {
                    let id = parse_u64(toks.next(), "run id", line_no)?;
                    let run = cur.take().expect("checked above");
                    if id != run.id {
                        return Err(format!(
                            "line {line_no}: end {id} does not match run {}",
                            run.id
                        ));
                    }
                    runs.push(run);
                }
                other => return Err(format!("line {line_no}: unknown record {other:?}")),
            }
        }
        if let Some(run) = cur {
            return Err(format!("run {} has no end record", run.id));
        }
        Ok(Report { runs })
    }

    /// Fold every run's registry into one aggregate snapshot.
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let mut agg = MetricsSnapshot::zero();
        for run in &self.runs {
            agg.absorb(&run.metrics);
        }
        agg
    }

    /// End-to-end virtual latency of the report: Σ root nanoseconds
    /// over both timelines and all runs — the same quantity the bench
    /// epilogue prints as "attributed ns".
    pub fn end_to_end_ns(&self) -> u64 {
        self.runs.iter().map(|r| r.sums.total_attributed_ns()).sum()
    }
}

// ----------------------------------------------------------------------
// Attribution
// ----------------------------------------------------------------------

/// Exact latency attribution: every end-to-end nanosecond assigned to
/// the leaf component that charged it.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Total root nanoseconds (== Σ of `components` values, exactly).
    pub total_ns: u64,
    /// Leaf nanoseconds by charge-site kind, descending by time.
    pub components: Vec<(SpanKind, u64)>,
}

/// Attribute 100% of the report's end-to-end virtual latency to leaf
/// components, from the span lines. By the conservation invariant the
/// component sum equals the root sum bit-for-bit; [`check`] gates it.
pub fn attribution(report: &Report) -> Attribution {
    let mut by_kind: BTreeMap<u8, u64> = BTreeMap::new();
    for run in &report.runs {
        for s in &run.spans {
            if s.is_leaf() {
                *by_kind.entry(s.kind as u8).or_default() += s.dur;
            }
        }
    }
    let mut components: Vec<(SpanKind, u64)> = by_kind
        .into_iter()
        .map(|(k, ns)| (SpanKind::ALL[k as usize], ns))
        .collect();
    components.sort_by_key(|&(k, ns)| (std::cmp::Reverse(ns), k as u8));
    Attribution {
        total_ns: components.iter().map(|&(_, ns)| ns).sum(),
        components,
    }
}

// ----------------------------------------------------------------------
// Critical path
// ----------------------------------------------------------------------

/// One segment of a critical path. Segments are contiguous and tile
/// the walked range exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Op-kind name for op segments, edge-kind name for bridged gaps,
    /// `"idle"` for unexplained gaps.
    pub label: &'static str,
    /// Segment start, ns.
    pub lo: u64,
    /// Segment end, ns.
    pub hi: u64,
}

/// The critical path of one run.
#[derive(Debug, Clone)]
pub struct RunPath {
    /// Run id.
    pub run: u64,
    /// Earliest root start in the run.
    pub min_start: u64,
    /// End of the path's head op (the run's latest end, or the latest
    /// instance of the requested op class).
    pub top_end: u64,
    /// Chronological segments tiling `[min_start, top_end]` exactly.
    pub segments: Vec<Segment>,
}

impl RunPath {
    /// The walked range, ns.
    pub fn range_ns(&self) -> u64 {
        self.top_end - self.min_start
    }

    /// Segment nanoseconds summed by label, descending.
    pub fn by_label(&self) -> Vec<(&'static str, u64)> {
        let mut agg: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.segments {
            *agg.entry(s.label).or_default() += s.hi - s.lo;
        }
        let mut v: Vec<(&'static str, u64)> = agg.into_iter().collect();
        v.sort_by_key(|&(label, ns)| (std::cmp::Reverse(ns), label));
        v
    }
}

/// The label explaining a gap: the last content-ordered causal edge
/// whose `[src, dst]` interval covers the whole gap, or `"idle"`.
fn gap_label(edges: &[REdge], lo: u64, hi: u64) -> &'static str {
    edges
        .iter()
        .rfind(|e| e.src <= lo && e.dst >= hi)
        .map(|e| e.kind.as_str())
        .unwrap_or("idle")
}

/// Extract one run's critical path: start from the latest-ending root
/// (restricted to op class `op` if given) and walk backward in virtual
/// time. At each point the op that was running latest before the
/// cursor contributes a segment (clipped at the cursor); gaps between
/// ops become edge-labelled or idle segments. Returns `None` when the
/// run has no roots (or no instance of `op`).
pub fn critical_path_run(run: &Run, op: Option<SpanKind>) -> Option<RunPath> {
    let roots: Vec<&RSpan> = run.spans.iter().filter(|s| s.is_root()).collect();
    let min_start = roots.iter().map(|s| s.start).min()?;
    let head = roots
        .iter()
        .filter(|s| op.is_none_or(|k| s.op == k))
        .max_by_key(|s| (s.end(), s.start))?;
    let mut segments = vec![Segment {
        label: head.op.as_str(),
        lo: head.start,
        hi: head.end(),
    }];
    let mut cursor = head.start;
    while cursor > min_start {
        let pred = roots
            .iter()
            .filter(|s| s.start < cursor)
            .max_by_key(|s| (s.start, s.end()))
            .expect("min_start is a root start below the cursor");
        let clip = pred.end().min(cursor);
        if clip < cursor {
            segments.push(Segment {
                label: gap_label(&run.edges, clip, cursor),
                lo: clip,
                hi: cursor,
            });
        }
        segments.push(Segment {
            label: pred.op.as_str(),
            lo: pred.start,
            hi: clip,
        });
        cursor = pred.start;
    }
    segments.reverse();
    Some(RunPath {
        run: run.id,
        min_start,
        top_end: head.end(),
        segments,
    })
}

/// Critical paths for every run that has roots (and, with `op`, an
/// instance of that op class).
pub fn critical_path(report: &Report, op: Option<SpanKind>) -> Vec<RunPath> {
    report
        .runs
        .iter()
        .filter_map(|r| critical_path_run(r, op))
        .collect()
}

// ----------------------------------------------------------------------
// Conservation check
// ----------------------------------------------------------------------

/// Summary of a passed [`check`].
#[derive(Debug, Clone, Copy)]
pub struct CheckSummary {
    /// Runs checked.
    pub runs: usize,
    /// Total end-to-end nanoseconds attributed.
    pub end_to_end_ns: u64,
    /// Total critical-path nanoseconds tiled.
    pub path_ns: u64,
    /// Causal edges verified monotone.
    pub edges: usize,
}

/// The exact conservation gate behind `obs critical-path --check`.
///
/// Per run, every one of these must hold bit-for-bit:
///
/// 1. no span or edge was lost to ring wrap-around;
/// 2. the sums re-derived from the span lines equal the registry sums
///    (roots and leaves, both timelines);
/// 3. leaves tile roots on each timeline (Σ leaf == Σ root);
/// 4. every causal edge is monotone (`dst >= src`);
/// 5. the whole-run critical path tiles `[min_start, max_end]` exactly
///    (Σ segment == range, segments contiguous).
pub fn check(report: &Report) -> Result<CheckSummary, String> {
    let mut path_ns = 0u64;
    let mut edges = 0usize;
    for run in &report.runs {
        let id = run.id;
        if run.lost_spans != 0 || run.lost_edges != 0 {
            return Err(format!(
                "run {id}: {} spans / {} edges lost to ring wrap-around — \
                 raise the ring capacity (obs sessions use wider rings)",
                run.lost_spans, run.lost_edges
            ));
        }
        let mut derived = ConservationSums::default();
        for s in &run.spans {
            match (s.clock, s.level) {
                (true, Level::Root) => derived.clock_root_ns += s.dur,
                (true, Level::Leaf) => derived.clock_leaf_ns += s.dur,
                (true, Level::SelfRooted) => {
                    derived.clock_root_ns += s.dur;
                    derived.clock_leaf_ns += s.dur;
                }
                (false, Level::Root) => derived.detached_root_ns += s.dur,
                (false, Level::Leaf) => derived.detached_leaf_ns += s.dur,
                (false, Level::SelfRooted) => {
                    derived.detached_root_ns += s.dur;
                    derived.detached_leaf_ns += s.dur;
                }
            }
        }
        if derived != run.sums {
            return Err(format!(
                "run {id}: span-derived sums {derived:?} != registry sums {:?}",
                run.sums
            ));
        }
        if run.sums.clock_leaf_ns != run.sums.clock_root_ns {
            return Err(format!(
                "run {id}: clock leaves {} ns != roots {} ns",
                run.sums.clock_leaf_ns, run.sums.clock_root_ns
            ));
        }
        if run.sums.detached_leaf_ns != run.sums.detached_root_ns {
            return Err(format!(
                "run {id}: detached leaves {} ns != roots {} ns",
                run.sums.detached_leaf_ns, run.sums.detached_root_ns
            ));
        }
        for e in &run.edges {
            if e.dst < e.src {
                return Err(format!(
                    "run {id}: edge {} goes backward ({} -> {})",
                    e.kind.as_str(),
                    e.src,
                    e.dst
                ));
            }
        }
        edges += run.edges.len();
        if let Some(path) = critical_path_run(run, None) {
            let mut sum = 0u64;
            let mut at = path.min_start;
            for seg in &path.segments {
                if seg.lo != at {
                    return Err(format!(
                        "run {id}: critical path not contiguous at {} ns (segment starts {})",
                        at, seg.lo
                    ));
                }
                sum += seg.hi - seg.lo;
                at = seg.hi;
            }
            if at != path.top_end || sum != path.range_ns() {
                return Err(format!(
                    "run {id}: critical path tiles {} of {} ns",
                    sum,
                    path.range_ns()
                ));
            }
            path_ns += sum;
        }
    }
    let attributed = attribution(report);
    let end_to_end = report.end_to_end_ns();
    if attributed.total_ns != end_to_end {
        return Err(format!(
            "attributed {} ns != end-to-end {} ns",
            attributed.total_ns, end_to_end
        ));
    }
    Ok(CheckSummary {
        runs: report.runs.len(),
        end_to_end_ns: end_to_end,
        path_ns,
        edges,
    })
}

// ----------------------------------------------------------------------
// Latency digests
// ----------------------------------------------------------------------

/// A streaming log₂-bucketed latency digest (same bucketing as the
/// registry histograms: bucket 0 holds zero, bucket k holds
/// `[2^(k-1), 2^k)`).
#[derive(Debug, Clone)]
pub struct Digest {
    /// Observations.
    pub count: u64,
    /// Σ observed values.
    pub sum: u64,
    /// Largest observed value (exact).
    pub max: u64,
    /// Log₂ buckets.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Digest {
    /// The empty digest.
    pub fn new() -> Digest {
        Digest {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }

    /// Absorb one observation (O(1), no buffering).
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
    }

    /// Upper bound of the bucket holding the q-quantile (q in percent),
    /// an exact integer: the registry histograms' own walk,
    /// [`HistSnapshot::percentile_bound`].
    pub fn quantile_bound(&self, q: u32) -> u64 {
        let hist = HistSnapshot {
            count: self.count,
            sum: self.sum,
            buckets: self.buckets,
        };
        hist.percentile_bound(q)
    }
}

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

/// Per-op-class latency digests over every root span in the report,
/// keyed and ordered by op kind.
pub fn op_digests(report: &Report) -> Vec<(SpanKind, Digest)> {
    let mut digests: BTreeMap<u8, Digest> = BTreeMap::new();
    for run in &report.runs {
        for s in &run.spans {
            if s.is_root() {
                digests.entry(s.op as u8).or_default().observe(s.dur);
            }
        }
    }
    digests
        .into_iter()
        .map(|(k, d)| (SpanKind::ALL[k as usize], d))
        .collect()
}

// ----------------------------------------------------------------------
// Per-op explanation
// ----------------------------------------------------------------------

/// Everything `obs explain <op>` reports about one op class.
#[derive(Debug, Clone)]
pub struct OpExplanation {
    /// The op class.
    pub op: SpanKind,
    /// Root instances across all runs.
    pub instances: u64,
    /// Σ instance durations.
    pub total_ns: u64,
    /// Leaf nanoseconds inside this op class, by charge site,
    /// descending. Sums to `total_ns` exactly (gated by [`check`]'s
    /// conservation invariant).
    pub components: Vec<(SpanKind, u64)>,
    /// Causal edges whose effect lands inside an instance of this op,
    /// by kind.
    pub incoming: Vec<(EdgeKind, u64)>,
    /// Latency digest of instance durations.
    pub digest: Digest,
}

/// Explain one op class: instance stats, exact leaf decomposition and
/// incoming causal edges.
pub fn explain(report: &Report, op: SpanKind) -> OpExplanation {
    let mut components: BTreeMap<u8, u64> = BTreeMap::new();
    let mut incoming: BTreeMap<u8, u64> = BTreeMap::new();
    let mut digest = Digest::new();
    let mut instances = 0u64;
    let mut total_ns = 0u64;
    for run in &report.runs {
        let mut intervals: Vec<(u64, u64)> = Vec::new();
        for s in &run.spans {
            if s.is_root() && s.op == op {
                instances += 1;
                total_ns += s.dur;
                digest.observe(s.dur);
                intervals.push((s.start, s.end()));
            }
            if s.level == Level::Leaf && s.op == op {
                *components.entry(s.kind as u8).or_default() += s.dur;
            }
            if s.level == Level::SelfRooted && s.op == op {
                *components.entry(s.kind as u8).or_default() += s.dur;
            }
        }
        intervals.sort_unstable();
        for e in &run.edges {
            let hit = intervals
                .partition_point(|&(start, _)| start <= e.dst)
                .checked_sub(1)
                .map(|i| e.dst <= intervals[i].1)
                .unwrap_or(false);
            if hit {
                *incoming.entry(e.kind as u8).or_default() += 1;
            }
        }
    }
    let mut components: Vec<(SpanKind, u64)> = components
        .into_iter()
        .map(|(k, ns)| (SpanKind::ALL[k as usize], ns))
        .collect();
    components.sort_by_key(|&(k, ns)| (std::cmp::Reverse(ns), k as u8));
    let incoming = incoming
        .into_iter()
        .map(|(k, n)| (EdgeKind::ALL[k as usize], n))
        .collect();
    OpExplanation {
        op,
        instances,
        total_ns,
        components,
        incoming,
        digest,
    }
}

/// Resolve an op-class name (as printed in reports) to its kind.
pub fn parse_op(name: &str) -> Result<SpanKind, String> {
    span_kind(name).map_err(|_| {
        let names: Vec<&str> = SpanKind::ALL.iter().map(|k| k.as_str()).collect();
        format!("unknown op {name:?}; known ops: {}", names.join(", "))
    })
}

/// Exact percent with two decimals, via integer arithmetic.
pub fn percent(part: u64, total: u64) -> String {
    if total == 0 {
        return "-".into();
    }
    let bp = (part as u128 * 10_000 / total as u128) as u64;
    format!("{}.{:02}%", bp / 100, bp % 100)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xemem_sim::{SimDuration, SimTime};
    use xemem_trace::{Ctx, Timeline, TraceHandle};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn d(ns: u64) -> SimDuration {
        SimDuration::from_nanos(ns)
    }

    /// Two runs with ops, leaves, a gap bridged by a backoff edge and
    /// an idle gap.
    fn sample() -> String {
        let a = TraceHandle::with_capacity(64, 4);
        a.begin_op(SpanKind::Attach, t(0), Ctx::enclave(1), Timeline::Clock);
        a.leaf(SpanKind::IpiWait, t(0), d(30), Ctx::enclave(1));
        a.leaf(SpanKind::IpiXfer, t(30), d(10), Ctx::enclave(1));
        a.commit_op(t(40));
        a.edge(
            EdgeKind::BackoffRetry,
            t(40),
            t(100),
            Ctx::enclave(1),
            Ctx::enclave(1),
        );
        a.begin_op(SpanKind::Get, t(100), Ctx::enclave(1), Timeline::Clock);
        a.leaf(SpanKind::NsProcess, t(100), d(50), Ctx::enclave(1));
        a.commit_op(t(150));

        let b = TraceHandle::with_capacity(64, 4);
        b.begin_op(SpanKind::Make, t(10), Ctx::enclave(2), Timeline::Detached);
        b.leaf(SpanKind::NsProcess, t(10), d(20), Ctx::enclave(2));
        b.commit_op(t(30));
        b.begin_op(SpanKind::Make, t(70), Ctx::enclave(2), Timeline::Detached);
        b.leaf(SpanKind::NsProcess, t(70), d(5), Ctx::enclave(2));
        b.commit_op(t(75));
        xemem_trace::merge_obs_report(&[(0, a), (1, b)])
    }

    #[test]
    fn parse_roundtrips_and_checks() {
        let report = Report::parse(&sample()).unwrap();
        assert_eq!(report.runs.len(), 2);
        assert_eq!(report.end_to_end_ns(), 90 + 25);
        let summary = check(&report).unwrap();
        assert_eq!(summary.runs, 2);
        assert_eq!(summary.end_to_end_ns, 115);
        assert_eq!(summary.edges, 1);
    }

    #[test]
    fn attribution_is_exact_and_sorted() {
        let report = Report::parse(&sample()).unwrap();
        let attr = attribution(&report);
        assert_eq!(attr.total_ns, report.end_to_end_ns());
        assert_eq!(attr.components[0], (SpanKind::NsProcess, 75));
        let ipi: u64 = attr
            .components
            .iter()
            .filter(|(k, _)| matches!(k, SpanKind::IpiWait | SpanKind::IpiXfer))
            .map(|&(_, ns)| ns)
            .sum();
        assert_eq!(ipi, 40);
    }

    #[test]
    fn critical_path_tiles_and_labels_gaps() {
        let report = Report::parse(&sample()).unwrap();
        let paths = critical_path(&report, None);
        assert_eq!(paths.len(), 2);
        // Run 0: attach [0,40], backoff-bridged gap [40,100], get [100,150].
        let p0 = &paths[0];
        assert_eq!((p0.min_start, p0.top_end), (0, 150));
        let labels: Vec<&str> = p0.segments.iter().map(|s| s.label).collect();
        assert_eq!(labels, vec!["attach", "backoff_retry", "get"]);
        // Run 1: make [10,30], idle [30,70], make [70,75].
        let p1 = &paths[1];
        assert_eq!((p1.min_start, p1.top_end), (10, 75));
        let labels: Vec<&str> = p1.segments.iter().map(|s| s.label).collect();
        assert_eq!(labels, vec!["make", "idle", "make"]);
        for p in &paths {
            let sum: u64 = p.segments.iter().map(|s| s.hi - s.lo).sum();
            assert_eq!(sum, p.range_ns());
        }
    }

    #[test]
    fn op_filter_starts_from_that_op() {
        let report = Report::parse(&sample()).unwrap();
        let paths = critical_path(&report, Some(SpanKind::Attach));
        // Run 1 has no attach instance; run 0's path ends at attach.
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].top_end, 40);
        assert_eq!(paths[0].segments.len(), 1);
    }

    #[test]
    fn digests_bucket_and_bound_quantiles() {
        let mut digest = Digest::new();
        for v in [0, 1, 3, 900, 1000] {
            digest.observe(v);
        }
        assert_eq!(digest.count, 5);
        assert_eq!(digest.max, 1000);
        assert_eq!(digest.quantile_bound(50), 3);
        assert_eq!(digest.quantile_bound(99), 1023);
        let report = Report::parse(&sample()).unwrap();
        let digests = op_digests(&report);
        let make = digests
            .iter()
            .find(|(k, _)| *k == SpanKind::Make)
            .map(|(_, d)| d)
            .unwrap();
        assert_eq!(make.count, 2);
        assert_eq!(make.sum, 25);
    }

    #[test]
    fn explain_decomposes_exactly() {
        let report = Report::parse(&sample()).unwrap();
        let e = explain(&report, SpanKind::Make);
        assert_eq!(e.instances, 2);
        assert_eq!(e.total_ns, 25);
        assert_eq!(e.components, vec![(SpanKind::NsProcess, 25)]);
        let leaf_sum: u64 = e.components.iter().map(|&(_, ns)| ns).sum();
        assert_eq!(leaf_sum, e.total_ns);
        // The backoff edge lands at t=100, inside run 0's get op.
        let g = explain(&report, SpanKind::Get);
        assert_eq!(g.incoming, vec![(EdgeKind::BackoffRetry, 1)]);
    }

    #[test]
    fn check_rejects_lost_records_and_bad_sums() {
        let mut text = sample();
        text = text.replace("lost 0 0", "lost 1 0");
        let report = Report::parse(&text).unwrap();
        let err = check(&report).unwrap_err();
        assert!(err.contains("wrap-around"), "{err}");

        let mut text = sample();
        text = text.replace("sums 90 90 0 0", "sums 91 90 0 0");
        let report = Report::parse(&text).unwrap();
        let err = check(&report).unwrap_err();
        assert!(err.contains("span-derived"), "{err}");
    }

    /// A buffer-pool run: acquire/publish on the producer, a consume
    /// linked by `slot_publish_consume`, and a crash sweep linked by
    /// `crash_slot_sweep`.
    fn pool_sample() -> String {
        let h = TraceHandle::with_capacity(64, 4);
        let prod = Ctx::seg(0, 1, 7);
        let cons = Ctx::seg(3, 1, 7);
        h.begin_op(SpanKind::PoolAcquire, t(0), prod, Timeline::Detached);
        h.leaf(SpanKind::PoolSlotScan, t(0), d(10), prod);
        h.leaf(SpanKind::PoolSlotInit, t(10), d(15), prod);
        h.leaf(SpanKind::PoolRefcount, t(25), d(5), prod);
        h.commit_op(t(30));
        h.begin_op(SpanKind::PoolPublish, t(30), prod, Timeline::Detached);
        h.leaf(SpanKind::PoolRingOp, t(30), d(20), prod);
        h.leaf(SpanKind::PoolRefcount, t(50), d(5), prod);
        h.commit_op(t(55));
        h.begin_op(SpanKind::PoolConsume, t(60), cons, Timeline::Detached);
        h.leaf(SpanKind::PoolRingOp, t(60), d(20), cons);
        h.leaf(SpanKind::PoolRefcount, t(80), d(5), cons);
        h.commit_op(t(85));
        h.edge(EdgeKind::SlotPublishConsume, t(55), t(85), prod, cons);
        h.begin_op(SpanKind::PoolSweep, t(90), prod, Timeline::Detached);
        h.leaf(SpanKind::PoolSweepSlot, t(90), d(25), prod);
        h.commit_op(t(115));
        h.edge(EdgeKind::CrashSlotSweep, t(90), t(115), cons, prod);
        xemem_trace::merge_obs_report(&[(0, h)])
    }

    #[test]
    fn pool_ops_flow_through_the_analyzer() {
        let report = Report::parse(&pool_sample()).unwrap();
        let summary = check(&report).unwrap();
        assert_eq!(summary.edges, 2);

        // The acquire decomposes exactly into its charge sites.
        let acq = explain(&report, SpanKind::PoolAcquire);
        assert_eq!(acq.instances, 1);
        assert_eq!(acq.total_ns, 30);
        assert_eq!(
            acq.components,
            vec![
                (SpanKind::PoolSlotInit, 15),
                (SpanKind::PoolSlotScan, 10),
                (SpanKind::PoolRefcount, 5),
            ]
        );

        // The publish→consume handoff lands inside the consume op.
        let consume = explain(&report, SpanKind::PoolConsume);
        assert_eq!(consume.incoming, vec![(EdgeKind::SlotPublishConsume, 1)]);
        // The crash→sweep edge lands inside the sweep op.
        let sweep = explain(&report, SpanKind::PoolSweep);
        assert_eq!(sweep.incoming, vec![(EdgeKind::CrashSlotSweep, 1)]);
        assert_eq!(sweep.components, vec![(SpanKind::PoolSweepSlot, 25)]);
    }
}
