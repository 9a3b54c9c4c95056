//! `native_stream`: a native producer/consumer pipeline on the extent
//! fast path (Fig. 6 contention shape, pool throughput, composed tiers).
//!
//! Two Kitten producers each export one large region per pipeline round,
//! sized from a fixed list in a seed-chosen rotation, park it on NVM
//! and archive it to CXL two rounds later; the armed hot/cold policy
//! promotes the chunks consumers read back to DRAM. Six Linux consumers
//! attach every live region of their producer, read its header and a
//! slice, and detach. Beside that, a buffer pool streams payload slots:
//! the first producer acquires slots, writes each payload in place and
//! publishes it round-robin; consumers consume, read, verify and
//! release. Halfway through, one consumer the seed picks is crashed;
//! the next sweep reclaims its slots, and later publishes to it bounce.
//! The episode ends with a `crash_process` teardown of every process.
//!
//! Host time lands in `mem` page tables (`LeafRun`s) and the frame
//! allocator, `pool` and `sim::tier`; the name service sees a few small
//! calls per round. There are no VMs: the `palacios` figures read 0.

use std::time::Instant;

use xemem::{
    LanePart, MemTier, ProcessRef, Segid, SimDuration, SimTime, System, SystemBuilder, TierPolicy,
    TraceHandle, VirtAddr, XememError,
};
use xemem_pool::{BufferPool, ConsumerId, Holder, SlotGuard};
use xemem_sim::pdes::{run_lanes, LaneShared, PdesActor, PdesConfig};
use xemem_sim::SimRng;

use crate::check::Verdict;
use crate::episode::{frame_baseline, payload_offset, Episode, Ops, Phases, Size};
use crate::probe::{Op, Probe};

const MIB: u64 = 1 << 20;
const PAGE: u64 = 4096;
const PRODUCERS: usize = 2;
const CONSUMERS: usize = 6;
/// Rounds a region stays exported; buffers rotate one more than that.
const LIFETIME: usize = 3;
const BUFFERS: usize = LIFETIME + 1;
/// Pool geometry: slots, payload bytes per slot, ring depth.
const SLOTS: u32 = 32;
const SLOT_BYTES: u64 = 4096;
const RING_CAP: usize = 8;
/// Slots the producer streams per round.
const PER_ROUND: usize = 8;
/// Bytes a consumer reads from each attached region past its header.
const SLICE: u64 = 64 * 1024;
const STRIDE_NS: u64 = 1_000_000;

struct Shape {
    /// Pipeline rounds: rounds × producers is a multiple of the size
    /// list's length, so every seed runs the same multiset of sizes.
    rounds: u64,
    sizes_mib: &'static [u64],
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            rounds: 150,
            sizes_mib: &[4, 8, 12, 16, 24, 32, 48, 64, 8, 16, 32, 48],
        },
        Size::Smoke => Shape {
            rounds: 6,
            sizes_mib: &[4, 8],
        },
    }
}

fn header(producer: usize, round: u64, len: u64) -> [u8; 24] {
    let mut h = [0u8; 24];
    h[..8].copy_from_slice(&(producer as u64).to_le_bytes());
    h[8..16].copy_from_slice(&round.to_le_bytes());
    h[16..].copy_from_slice(&len.to_le_bytes());
    h
}

fn slot_payload(round: u64, i: usize) -> Vec<u8> {
    (0..SLOT_BYTES)
        .map(|b| (b as u8) ^ (round as u8).wrapping_mul(31) ^ (i as u8))
        .collect()
}

struct Region {
    round: u64,
    segid: Segid,
    len: u64,
}

struct Producer {
    p: ProcessRef,
    bufs: Vec<VirtAddr>,
    /// Exported regions, oldest first.
    live: Vec<Region>,
}

struct Ctx {
    ops: Ops,
    pool: BufferPool,
    producers: Vec<Producer>,
    consumers: Vec<(ProcessRef, ConsumerId)>,
    sizes: Vec<u64>,
    slice_at: Vec<u64>,
    crash_round: u64,
    crash_victim: usize,
    /// Slots a consumer still holds (consumed, not yet released).
    held: Vec<Vec<SlotGuard>>,
    /// Consumers crashed so far.
    dead: Vec<bool>,
    publishes: u64,
    publishes_ok: u64,
    swept: u64,
    policy_pages: u64,
}

impl LaneShared for Ctx {
    type Part<'a> = LanePart<'a>;

    fn lane_parts(&mut self, lanes: usize) -> Vec<LanePart<'_>> {
        self.ops.sys.lane_parts(lanes)
    }

    fn on_window(&mut self, start: SimTime) {
        <System as LaneShared>::on_window(&mut self.ops.sys, start);
    }
}

impl Ctx {
    /// Producer `i`'s round: retire, archive and export regions.
    fn produce_region(&mut self, i: usize, round: u64) -> Result<(), XememError> {
        let p = self.producers[i].p;
        if self.producers[i].live.len() >= LIFETIME {
            let old = self.producers[i].live.remove(0);
            self.ops.op(Op::Migrate, |s| {
                s.migrate_extent(p, old.segid, MemTier::LocalDram)
            })?;
            self.ops.op(Op::Remove, |s| s.xpmem_remove(p, old.segid))?;
        }
        if let Some(cooling) = self.producers[i].live.first() {
            // Archive the oldest region's first chunk to CXL.
            let segid = cooling.segid;
            self.ops.op(Op::Migrate, |s| {
                let at = s.clock().now();
                let (_, end) = s.migrate_extent_at(p, segid, Some(0), MemTier::Cxl, at)?;
                s.clock().advance_to(end);
                Ok(())
            })?;
        }
        let k = round as usize * PRODUCERS + i;
        let len = self.sizes[k % self.sizes.len()] * MIB;
        let buf = self.producers[i].bufs[round as usize % BUFFERS];
        let name = format!("stream/{i}/{round}");
        let segid = self
            .ops
            .op(Op::Make, |s| s.xpmem_make(p, buf, len, Some(&name)))?;
        let hdr = header(i, round, len);
        self.ops.op(Op::Write, |s| s.write(p, buf, &hdr))?;
        let off = payload_offset(self.slice_at[k % self.slice_at.len()], len);
        let data = slot_payload(round, i);
        self.ops
            .op(Op::Write, |s| s.write(p, VirtAddr(buf.0 + off), &data))?;
        self.ops
            .op(Op::Migrate, |s| s.migrate_extent(p, segid, MemTier::Nvm))?;
        self.producers[i].live.push(Region { round, segid, len });
        let moves = self.ops.op(Op::TierTick, |s| s.tier_policy_tick(p))?;
        for m in moves {
            self.policy_pages += m.pages;
            self.ops.digest.u64(m.segid.0 ^ (m.chunk << 32) ^ m.pages);
        }
        Ok(())
    }

    /// Stream `PER_ROUND` payload slots from producer 0 to the live
    /// consumers, round-robin, each batch of pool calls timed together.
    fn stream_slots(&mut self, round: u64) -> Result<(), XememError> {
        let writer = self.producers[0].p;
        let now = self.ops.sys.clock().now();
        let pool = &mut self.pool;
        let (guards, t) = self.ops.probe.batch(Op::PoolAcquire, PER_ROUND as u64, || {
            let mut t = now;
            let mut guards = Vec::with_capacity(PER_ROUND);
            for _ in 0..PER_ROUND {
                match pool.acquire_at(t) {
                    Ok((g, end)) => {
                        guards.push(g);
                        t = end;
                    }
                    Err(_) => break,
                }
            }
            let errs = (PER_ROUND - guards.len()) as u64;
            ((guards, t), errs)
        });
        self.ops.digest.time(t);
        self.ops.sys.clock().advance_to(t);
        for (i, g) in guards.iter().enumerate() {
            let va = self
                .pool
                .slab_va(Holder::Exporter, g.slot())
                .expect("exporter slab");
            let data = slot_payload(round, i);
            self.ops.op(Op::Write, |s| s.write(writer, va, &data))?;
        }
        // The producer does not track crashes: a publish to a consumer
        // the sweep already reclaimed bounces and its slot goes back.
        let targets: Vec<ConsumerId> = self.consumers.iter().map(|&(_, id)| id).collect();
        let now = self.ops.sys.clock().now();
        let n = guards.len() as u64;
        let start_at = round as usize;
        let pool = &mut self.pool;
        let ((bounced, t), ok) = self.ops.probe.batch(Op::PoolPublish, n, || {
            let mut t = now;
            let mut bounced = Vec::new();
            for (i, g) in guards.into_iter().enumerate() {
                let target = targets[(start_at + i) % targets.len()];
                match pool.publish_at(target, g, t) {
                    Ok(end) => t = end,
                    Err((g, _)) => bounced.push(g),
                }
            }
            let errs = bounced.len() as u64;
            (((bounced, t), n - errs), errs)
        });
        self.publishes += n;
        self.publishes_ok += ok;
        self.ops.digest.time(t);
        self.ops.digest.u64(ok);
        let pool = &mut self.pool;
        let back = bounced.len() as u64;
        let t = self.ops.probe.batch(Op::PoolRelease, back, || {
            let mut t = t;
            let mut errs = 0;
            for g in bounced {
                match pool.release_at(Holder::Exporter, g, t) {
                    Ok(end) => t = end,
                    Err(_) => errs += 1,
                }
            }
            (t, errs)
        });
        self.ops.sys.clock().advance_to(t);
        Ok(())
    }

    /// Consumer `c`'s round: drain its ring, then read the newest region.
    fn consume(&mut self, c: usize, round: u64) -> Result<(), XememError> {
        let (p, id) = self.consumers[c];
        if self.dead[c] {
            return Ok(());
        }
        let now = self.ops.sys.clock().now();
        let pool = &mut self.pool;
        let (got, t) = self.ops.probe.batch(Op::PoolConsume, RING_CAP as u64, || {
            let mut t = now;
            let mut got = Vec::new();
            for _ in 0..RING_CAP {
                match pool.consume_at(id, t) {
                    Ok((Some(g), end)) => {
                        got.push(g);
                        t = end;
                    }
                    Ok((None, end)) => {
                        t = end;
                        break;
                    }
                    Err(_) => return ((got, t), 1),
                }
            }
            ((got, t), 0)
        });
        self.ops.digest.time(t);
        self.ops.sys.clock().advance_to(t);
        let mut payload = vec![0u8; SLOT_BYTES as usize];
        for g in &got {
            let va = self
                .pool
                .slab_va(Holder::Consumer(id.0), g.slot())
                .expect("live consumer");
            self.ops.op(Op::Read, |s| s.read(p, va, &mut payload))?;
            // Byte 0 carries the payload's index within the round.
            let i = (payload[0] ^ (round as u8).wrapping_mul(31)) as usize;
            let intact = i < PER_ROUND && payload == slot_payload(round, i);
            if !intact && self.ops.violations.len() < 8 {
                self.ops
                    .violation(format!("consumer {c}: slot {} payload corrupt", g.slot()));
            }
        }
        // Hold this round's slots until the next round, so a crash finds
        // references to sweep; release the previous round's now.
        let release = std::mem::replace(&mut self.held[c], got);
        let now = self.ops.sys.clock().now();
        let n = release.len() as u64;
        let pool = &mut self.pool;
        let t = self.ops.probe.batch(Op::PoolRelease, n, || {
            let mut t = now;
            let mut errs = 0;
            for g in release {
                match pool.release_at(Holder::Consumer(id.0), g, t) {
                    Ok(end) => t = end,
                    Err(_) => errs += 1,
                }
            }
            (t, errs)
        });
        self.ops.digest.time(t);
        self.ops.sys.clock().advance_to(t);
        // Every live region of this consumer's producer, newest first.
        let prod = c % PRODUCERS;
        let regions: Vec<(Segid, u64, u64)> = self.producers[prod]
            .live
            .iter()
            .rev()
            .map(|r| (r.segid, r.len, r.round))
            .collect();
        for (segid, len, made) in regions {
            let name = format!("stream/{prod}/{made}");
            let found = self.ops.op(Op::Search, |s| s.xpmem_search(p, &name))?;
            if found != segid {
                self.ops
                    .violation(format!("{name} resolved to {found:?}, exported {segid:?}"));
            }
            let apid = self.ops.op(Op::Get, |s| s.xpmem_get(p, segid))?;
            let va = self
                .ops
                .op(Op::Attach, |s| s.xpmem_attach(p, apid, 0, len))?;
            let mut hdr = [0u8; 24];
            self.ops.op(Op::Read, |s| s.read(p, va, &mut hdr))?;
            if hdr != header(prod, made, len) {
                self.ops
                    .violation(format!("consumer {c}: region header of round {made} wrong"));
            }
            let k = made as usize * PRODUCERS + prod;
            let off = payload_offset(self.slice_at[k % self.slice_at.len()], len);
            let mut slice = vec![0u8; SLICE.min(len - off) as usize];
            self.ops
                .op(Op::Read, |s| s.read(p, VirtAddr(va.0 + off), &mut slice))?;
            if slice[..SLOT_BYTES as usize] != slot_payload(made, prod)[..] {
                self.ops
                    .violation(format!("consumer {c}: region slice of round {made} wrong"));
            }
            self.ops.op(Op::Detach, |s| s.xpmem_detach(p, va))?;
            self.ops.op(Op::Release, |s| s.xpmem_release(p, apid))?;
        }
        Ok(())
    }

    fn produce(&mut self, round: u64) -> Result<(), XememError> {
        self.swept += self.ops.sweep(&mut self.pool);
        if round == self.crash_round {
            let (victim, _) = self.consumers[self.crash_victim];
            self.dead[self.crash_victim] = true;
            self.ops
                .op(Op::CrashTeardown, |s| s.crash_process(victim))?;
        }
        for i in 0..PRODUCERS {
            self.produce_region(i, round)?;
        }
        self.stream_slots(round)
    }

    /// End of run: crash every consumer, sweep their slots, check the
    /// pool, then crash the producers.
    fn teardown(&mut self) -> Result<(), XememError> {
        for c in 0..CONSUMERS {
            let (p, _) = self.consumers[c];
            if !self.dead[c] {
                self.dead[c] = true;
                self.ops.op(Op::CrashTeardown, |s| s.crash_process(p))?;
            }
        }
        self.swept += self.ops.sweep(&mut self.pool);
        if let Err(e) = self.pool.leak_check() {
            self.ops.violation(format!("pool leak check: {e}"));
        }
        for i in 0..PRODUCERS {
            let p = self.producers[i].p;
            self.ops.op(Op::CrashTeardown, |s| s.crash_process(p))?;
        }
        Ok(())
    }
}

struct Actor {
    /// 0 = producers, 1.. = consumer `order - 1`.
    order: u64,
    round: u64,
    rounds: u64,
}

impl PdesActor<Ctx> for Actor {
    fn lane_key(&self) -> u64 {
        self.order
    }

    fn order_key(&self) -> u64 {
        self.order
    }

    fn first_event(&self) -> Option<SimTime> {
        Some(SimTime::ZERO)
    }

    fn barrier(&mut self, _now: SimTime, ctx: &mut Ctx) -> Option<SimTime> {
        let k = self.round;
        let start = ctx.ops.probe.enter();
        let r = match self.order {
            0 if k == self.rounds => ctx.teardown(),
            0 => ctx.produce(k),
            c => ctx.consume(c as usize - 1, k),
        };
        if let Err(e) = r {
            ctx.ops.violation(format!("round {k}: unexpected {e}"));
        }
        ctx.ops.probe.leave(start, (k < self.rounds).then_some(k));
        self.round += 1;
        // The producers run one extra round: the teardown.
        let last = if self.order == 0 {
            self.rounds
        } else {
            self.rounds - 1
        };
        (self.round <= last).then(|| SimTime::from_nanos(self.round * STRIDE_NS))
    }
}

/// The armed policy: chunks read in a window promote to DRAM after one
/// hot window and fall back to their NVM home after one cold one.
fn policy() -> TierPolicy {
    TierPolicy {
        window: SimDuration::from_millis(100),
        hot_threshold: 1,
        cold_threshold: 0,
        hysteresis: 1,
        chunk_pages: 512,
        fast_tier: MemTier::LocalDram,
    }
}

pub fn episode(seed: u64, size: Size, probe: Probe, tracer: &TraceHandle) -> (Episode, Probe) {
    let shape = shape(size);
    let mut rng = SimRng::seed_from_u64(seed);
    // The size list in a seed-chosen rotation: every seed sees the same
    // sequence of live-region sets, so the tail step costs the same.
    let mut sizes = shape.sizes_mib.to_vec();
    let turn = rng.uniform_u64(0, sizes.len() as u64) as usize;
    sizes.rotate_left(turn);
    let max = shape.sizes_mib.iter().max().copied().unwrap_or(1) * MIB;
    let slice_at: Vec<u64> = (0..23)
        .map(|_| rng.uniform_u64(1, 1 << 15) * PAGE)
        .collect();
    let crash_round = shape.rounds / 2;
    let crash_victim = rng.uniform_u64(0, CONSUMERS as u64) as usize;

    let mut phases = Phases::start();
    let heap = BUFFERS as u64 * max + 16 * MIB;
    let mut b = SystemBuilder::new()
        .with_tracer(tracer.clone())
        .with_tier_policy(policy())
        .linux_management("linux", 4, 256 * MIB);
    for i in 0..PRODUCERS {
        b = b
            .tier_reserve(MemTier::Cxl, 2 * max + 16 * MIB)
            .tier_reserve(MemTier::Nvm, LIFETIME as u64 * max + 16 * MIB)
            .kitten_cokernel(&format!("kitten-p{i}"), 2, heap + 32 * MIB);
    }
    let mut sys = match b.build() {
        Ok(s) => s,
        Err(e) => return (Episode::failed(format!("build: {e}")), probe),
    };
    let baseline = frame_baseline(&sys);
    let setup = (|| -> Result<_, String> {
        let err = |e: XememError| e.to_string();
        let linux = sys.enclave_by_name("linux").expect("declared");
        let mut producers = Vec::new();
        for i in 0..PRODUCERS {
            let e = sys
                .enclave_by_name(&format!("kitten-p{i}"))
                .expect("declared");
            let p = sys.spawn_process(e, heap).map_err(err)?;
            let mut bufs = Vec::new();
            for _ in 0..BUFFERS {
                let b = sys.alloc_buffer(p, max).map_err(err)?;
                sys.prepare_buffer(p, b, max).map_err(err)?;
                bufs.push(b);
            }
            producers.push(Producer {
                p,
                bufs,
                live: Vec::new(),
            });
        }
        let now = sys.clock().now();
        let (mut pool, mut t) = BufferPool::create_at(
            &mut sys,
            producers[0].p,
            SLOTS,
            SLOT_BYTES,
            Some("slots"),
            RING_CAP,
            now,
        )
        .map_err(|e| e.to_string())?;
        let mut consumers = Vec::new();
        for _ in 0..CONSUMERS {
            let p = sys.spawn_process(linux, 16 * MIB).map_err(err)?;
            let (id, end) = pool.join_at(&mut sys, p, t).map_err(|e| e.to_string())?;
            consumers.push((p, id));
            t = end;
        }
        sys.clock().advance_to(t);
        Ok((producers, pool, consumers))
    })();
    let (producers, pool, consumers) = match setup {
        Ok(v) => v,
        Err(e) => return (Episode::failed(format!("setup: {e}")), probe),
    };

    let mut ctx = Ctx {
        ops: Ops::new(sys, probe),
        pool,
        producers,
        consumers,
        sizes,
        slice_at,
        crash_round,
        crash_victim,
        held: (0..CONSUMERS).map(|_| Vec::new()).collect(),
        dead: vec![false; CONSUMERS],
        publishes: 0,
        publishes_ok: 0,
        swept: 0,
        policy_pages: 0,
    };
    let mut actors: Vec<Actor> = (0..=CONSUMERS as u64)
        .map(|order| Actor {
            order,
            round: 0,
            rounds: shape.rounds,
        })
        .collect();
    let cfg = PdesConfig::serial(ctx.ops.sys.pdes_lookahead());
    let (calls0, steps0) = (ctx.ops.probe.attempted, ctx.ops.probe.steps.len());
    phases.measure();
    let start = Instant::now();
    let (_, pdes) = run_lanes(&cfg, &mut actors, &mut ctx);
    ctx.ops.probe.dispatched(start);
    let calls = ctx.ops.probe.attempted - calls0;
    let (setup, measured) = phases.finish();

    ctx.ops.check_frames(&baseline);
    if ctx.swept == 0 {
        ctx.ops
            .violation("the mid-run consumer crash swept no slots".into());
    }
    let clock = ctx.ops.sys.clock().now();
    let d = &mut ctx.ops.digest;
    d.time(clock);
    d.u64(ctx.swept);
    d.u64(pdes.windows);
    d.u64(pdes.events);
    let facts = vec![
        ("clock_ns", clock.as_nanos() as f64),
        ("slots_swept", ctx.swept as f64),
        ("policy_pages_moved", ctx.policy_pages as f64),
        (
            "pool_publish_ok_ratio",
            ctx.publishes_ok as f64 / ctx.publishes.max(1) as f64,
        ),
    ];
    let episode = Episode {
        setup,
        measured,
        calls,
        steps: steps0..ctx.ops.probe.steps.len(),
        verdict: Verdict {
            digest: ctx.ops.digest.value(),
            violations: ctx.ops.violations,
            facts,
            errors: ctx.ops.errors,
        },
        pdes,
    };
    (episode, ctx.ops.probe)
}
