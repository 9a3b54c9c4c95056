//! `vm_insitu`: composed in situ across a VM boundary (Table 2 rows 1–2,
//! Fig. 8 "Kitten/Linux VM" with recurring attachments).
//!
//! A Kitten simulation enclave exports one timestep region per
//! communication point, sized from a fixed multiset in a seed-chosen
//! order. The analytics process in a Linux VM looks the timestep up by
//! name, attaches the whole region (a fresh guest memory-map insert per
//! page), reads its header and a payload slice, detaches and releases —
//! then exports a reduced result region the simulation attaches back
//! across the VM boundary (Table 2's guest-export direction). The
//! analytics side also probes the timestep removed two points earlier,
//! which must fail. After the measured phase both processes exit.
//!
//! Host time lands in `palacios` guest-map upkeep and host page-table
//! installs; the name service sees a few calls per point. No pool, tier
//! or native-to-native attach traffic: those per-layer figures read 0.

use std::time::Instant;

use xemem::{
    Apid, GuestOs, LanePart, MemoryMapKind, ProcessRef, Segid, SimTime, System, SystemBuilder,
    TraceHandle, VirtAddr, XememError,
};
use xemem_sim::pdes::{run_lanes, LaneShared, PdesActor, PdesConfig};
use xemem_sim::SimRng;

use crate::check::Verdict;
use crate::episode::{frame_baseline, payload_offset, shuffled, Episode, Ops, Phases, Size};
use crate::probe::{Op, Probe};

const MIB: u64 = 1 << 20;
const PAGE: u64 = 4096;
/// Timestep buffers the simulation rotates through (a timestep stays
/// exported for two points, so three buffers never collide).
const BUFFERS: usize = 3;
/// Bytes the analytics side reads per point past the header.
const SLICE: u64 = 64 * 1024;
/// Barrier-grid stride; virtual time itself is carried by the clock.
const STRIDE_NS: u64 = 1_000_000;

struct Shape {
    /// Communication points: a multiple of the size list's length, so
    /// every seed runs the same multiset of sizes.
    points: u64,
    /// Timestep sizes in MiB, cycled in a seed-shuffled order.
    sizes_mib: &'static [u64],
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            points: 128,
            sizes_mib: &[4, 6, 8, 12, 16, 24, 32, 48, 64, 4, 8, 16, 32, 64, 12, 24],
        },
        Size::Smoke => Shape {
            points: 6,
            sizes_mib: &[2, 4],
        },
    }
}

fn header(point: u64, len: u64, tag: u64) -> [u8; 32] {
    let mut h = [0u8; 32];
    h[..8].copy_from_slice(b"XEMEMTS\0");
    h[8..16].copy_from_slice(&point.to_le_bytes());
    h[16..24].copy_from_slice(&len.to_le_bytes());
    h[24..].copy_from_slice(&tag.to_le_bytes());
    h
}

fn payload(point: u64) -> Vec<u8> {
    (0..PAGE)
        .map(|i| (i as u8) ^ (point as u8) ^ 0xA5)
        .collect()
}

struct Timestep {
    point: u64,
    segid: Segid,
    len: u64,
}

struct Ctx {
    ops: Ops,
    sim: ProcessRef,
    ana: ProcessRef,
    bufs: Vec<VirtAddr>,
    rbufs: Vec<VirtAddr>,
    sizes: Vec<u64>,
    slice_at: Vec<u64>,
    tag: u64,
    live: Vec<Timestep>,
    /// Result regions the analytics side exported: (point, segid, len).
    results: Vec<(u64, Segid, u64)>,
    /// Timesteps removed so far (the stale-probe targets).
    removed: Vec<Segid>,
    guest_attaches: u64,
    map_fraction_sum: f64,
    stale_rejected: u64,
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
    /// The simulation's half of point `k`.
    fn sim_point(&mut self, k: u64) -> Result<(), XememError> {
        let sim = self.sim;
        // Withdraw the timestep from two points ago (its stale segid is
        // probed by the analytics side).
        if self.live.len() >= 2 {
            let old = self.live.remove(0);
            self.ops
                .op(Op::Remove, |s| s.xpmem_remove(sim, old.segid))?;
            self.removed.push(old.segid);
        }
        // Export this point's timestep from the next buffer.
        let len = self.sizes[k as usize % self.sizes.len()] * MIB;
        let buf = self.bufs[k as usize % BUFFERS];
        let name = format!("ts/{k}");
        let segid = self
            .ops
            .op(Op::Make, |s| s.xpmem_make(sim, buf, len, Some(&name)))?;
        let hdr = header(k, len, self.tag);
        self.ops.op(Op::Write, |s| s.write(sim, buf, &hdr))?;
        let off = payload_offset(self.slice_at[k as usize % self.slice_at.len()], len);
        let at = VirtAddr(buf.0 + off);
        let data = payload(k);
        self.ops.op(Op::Write, |s| s.write(sim, at, &data))?;
        self.live.push(Timestep {
            point: k,
            segid,
            len,
        });
        // Reverse direction: attach the analytics result of the previous
        // point, exported from inside the VM.
        if let Some(&(p, rseg, rlen)) = self.results.iter().find(|r| r.0 + 1 == k) {
            let name = format!("res/{p}");
            let found = self.ops.op(Op::Search, |s| s.xpmem_search(sim, &name))?;
            if found != rseg {
                self.ops
                    .violation(format!("res/{p} resolved to {found:?}, exported {rseg:?}"));
            }
            let apid = self.ops.op(Op::Get, |s| s.xpmem_get(sim, rseg))?;
            let va = self.ops.op(Op::GuestExportAttach, |s| {
                s.xpmem_attach(sim, apid, 0, rlen)
            })?;
            self.check_header(sim, va, p, rlen)?;
            self.ops.op(Op::Detach, |s| s.xpmem_detach(sim, va))?;
            self.ops.op(Op::Release, |s| s.xpmem_release(sim, apid))?;
        }
        Ok(())
    }

    fn check_header(
        &mut self,
        p: ProcessRef,
        va: VirtAddr,
        point: u64,
        len: u64,
    ) -> Result<(), XememError> {
        let mut got = [0u8; 32];
        self.ops.op(Op::Read, |s| s.read(p, va, &mut got))?;
        if got != header(point, len, self.tag) {
            self.ops
                .violation(format!("point {point}: header read back wrong"));
        }
        Ok(())
    }

    /// The analytics half of point `k`.
    fn ana_point(&mut self, k: u64) -> Result<(), XememError> {
        let ana = self.ana;
        let ts = self
            .live
            .last()
            .expect("the simulation exported this point");
        let (point, segid, len) = (ts.point, ts.segid, ts.len);
        if point != k {
            self.ops
                .violation(format!("point {k}: newest timestep is {point}"));
        }
        // Look the timestep up, attach all of it from inside the VM,
        // check the header and payload slice, and let go.
        let name = format!("ts/{k}");
        let found = self.ops.op(Op::Search, |s| s.xpmem_search(ana, &name))?;
        if found != segid {
            self.ops
                .violation(format!("{name} resolved to {found:?}, exported {segid:?}"));
        }
        let apid: Apid = self.ops.op(Op::Get, |s| s.xpmem_get(ana, segid))?;
        let va = self
            .ops
            .op(Op::GuestAttach, |s| s.xpmem_attach(ana, apid, 0, len))?;
        if let Some(b) = self.ops.sys.last_vm_breakdown() {
            let f = b.map_update_fraction();
            self.guest_attaches += 1;
            self.map_fraction_sum += f;
            self.ops.digest.f64(f);
        }
        self.check_header(ana, va, k, len)?;
        let off = payload_offset(self.slice_at[k as usize % self.slice_at.len()], len);
        let mut slice = vec![0u8; SLICE.min(len - off) as usize];
        self.ops
            .op(Op::Read, |s| s.read(ana, VirtAddr(va.0 + off), &mut slice))?;
        if slice[..PAGE as usize] != payload(k)[..] {
            self.ops
                .violation(format!("point {k}: payload slice read back wrong"));
        }
        self.ops.op(Op::GuestDetach, |s| s.xpmem_detach(ana, va))?;
        self.ops.op(Op::Release, |s| s.xpmem_release(ana, apid))?;
        // Oracle: the timestep withdrawn this point is gone everywhere.
        if let Some(&stale) = self.removed.last().filter(|_| k >= 2) {
            match self.ops.op(Op::Get, |s| s.xpmem_get(ana, stale)) {
                Ok(_) => self
                    .ops
                    .violation(format!("point {k}: removed {stale:?} still granted")),
                Err(_) => self.stale_rejected += 1,
            }
        }
        // Export a reduced result for the simulation to attach back.
        if self.results.len() >= 2 {
            let (_, old, _) = self.results.remove(0);
            self.ops.op(Op::Remove, |s| s.xpmem_remove(ana, old))?;
        }
        let rlen = (len / 8).max(MIB);
        let rbuf = self.rbufs[k as usize % BUFFERS];
        let hdr = header(k, rlen, self.tag);
        self.ops.op(Op::Write, |s| s.write(ana, rbuf, &hdr))?;
        let name = format!("res/{k}");
        let rseg = self
            .ops
            .op(Op::Make, |s| s.xpmem_make(ana, rbuf, rlen, Some(&name)))?;
        self.results.push((k, rseg, rlen));
        Ok(())
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Sim,
    Ana,
}

struct Actor {
    role: Role,
    round: u64,
    rounds: u64,
}

impl PdesActor<Ctx> for Actor {
    fn lane_key(&self) -> u64 {
        self.role as u64
    }

    fn order_key(&self) -> u64 {
        self.role as u64
    }

    fn first_event(&self) -> Option<SimTime> {
        Some(SimTime::ZERO)
    }

    fn barrier(&mut self, _now: SimTime, ctx: &mut Ctx) -> Option<SimTime> {
        let k = self.round;
        let start = ctx.ops.probe.enter();
        let r = match self.role {
            Role::Sim => ctx.sim_point(k),
            Role::Ana => ctx.ana_point(k),
        };
        if let Err(e) = r {
            ctx.ops.violation(format!("point {k}: unexpected {e}"));
        }
        ctx.ops.probe.leave(start, Some(k));
        self.round += 1;
        (self.round < self.rounds).then(|| SimTime::from_nanos(self.round * STRIDE_NS))
    }
}

pub fn episode(seed: u64, size: Size, probe: Probe, tracer: &TraceHandle) -> (Episode, Probe) {
    let shape = shape(size);
    let mut rng = SimRng::seed_from_u64(seed);
    let sizes = shuffled(shape.sizes_mib, &mut rng);
    let max = shape.sizes_mib.iter().max().copied().unwrap_or(1) * MIB;
    let slice_at: Vec<u64> = (0..17)
        .map(|_| rng.uniform_u64(1, 1 << 14) * PAGE)
        .collect();
    let tag = rng.uniform_u64(0, u64::MAX);

    let mut phases = Phases::start();
    let sim_mem = BUFFERS as u64 * max + 32 * MIB;
    let rmax = (max / 8).max(MIB);
    let built = SystemBuilder::new()
        .with_tracer(tracer.clone())
        .linux_management("linux", 4, 128 * MIB)
        .kitten_cokernel("kitten-sim", 4, sim_mem + 32 * MIB)
        .palacios_vm(
            "ana-vm",
            "linux",
            BUFFERS as u64 * rmax + 128 * MIB,
            MemoryMapKind::RbTree,
            GuestOs::Fwk,
        )
        .build();
    let mut sys = match built {
        Ok(s) => s,
        Err(e) => return (Episode::failed(format!("build: {e}")), probe),
    };
    let baseline = frame_baseline(&sys);
    let setup = (|| -> Result<_, XememError> {
        let kitten = sys.enclave_by_name("kitten-sim").expect("declared");
        let vm = sys.enclave_by_name("ana-vm").expect("declared");
        let sim = sys.spawn_process(kitten, sim_mem)?;
        let ana = sys.spawn_process(vm, BUFFERS as u64 * rmax + 16 * MIB)?;
        let mut bufs = Vec::new();
        for _ in 0..BUFFERS {
            let b = sys.alloc_buffer(sim, max)?;
            sys.prepare_buffer(sim, b, max)?;
            bufs.push(b);
        }
        let mut rbufs = Vec::new();
        for _ in 0..BUFFERS {
            let b = sys.alloc_buffer(ana, rmax)?;
            sys.prepare_buffer(ana, b, rmax)?;
            rbufs.push(b);
        }
        Ok((sim, ana, bufs, rbufs))
    })();
    let (sim, ana, bufs, rbufs) = match setup {
        Ok(v) => v,
        Err(e) => return (Episode::failed(format!("setup: {e}")), probe),
    };

    let mut ctx = Ctx {
        ops: Ops::new(sys, probe),
        sim,
        ana,
        bufs,
        rbufs,
        sizes,
        slice_at,
        tag,
        live: Vec::new(),
        results: Vec::new(),
        removed: Vec::new(),
        guest_attaches: 0,
        map_fraction_sum: 0.0,
        stale_rejected: 0,
    };
    let mut actors = [Role::Sim, Role::Ana].map(|role| Actor {
        role,
        round: 0,
        rounds: shape.points,
    });
    let cfg = PdesConfig::serial(ctx.ops.sys.pdes_lookahead());
    let (calls0, steps0) = (ctx.ops.probe.attempted, ctx.ops.probe.steps.len());
    phases.measure();
    let start = Instant::now();
    let (_, pdes) = run_lanes(&cfg, &mut actors, &mut ctx);
    ctx.ops.probe.dispatched(start);
    let calls = ctx.ops.probe.attempted - calls0;
    let (setup, measured) = phases.finish();

    for p in [ana, sim] {
        if let Err(e) = ctx.ops.sys.exit_process(p) {
            ctx.ops.violation(format!("exit: {e}"));
        }
    }
    ctx.ops.check_frames(&baseline);
    if ctx.stale_rejected + 2 != shape.points {
        let n = ctx.stale_rejected;
        ctx.ops.violation(format!(
            "{n} stale probes rejected, expected {}",
            shape.points - 2
        ));
    }
    let clock = ctx.ops.sys.clock().now();
    let d = &mut ctx.ops.digest;
    d.time(clock);
    d.u64(pdes.windows);
    d.u64(pdes.events);
    let map_fraction = ctx.map_fraction_sum / ctx.guest_attaches.max(1) as f64;
    let facts = vec![
        ("clock_ns", clock.as_nanos() as f64),
        ("guest_attaches", ctx.guest_attaches as f64),
        ("map_update_fraction", map_fraction),
        ("stale_probes_rejected", ctx.stale_rejected as f64),
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
