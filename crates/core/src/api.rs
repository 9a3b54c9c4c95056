//! The XPMEM-compatible user-level API (paper Table 1), and the one
//! helper every `System` op frames its span through.
//!
//! These are the clock-based wrappers over the timeline engine in
//! [`crate::system`]: each call starts at the system clock's current time
//! and advances it to the operation's completion, which is how the
//! sequential experiments and the examples consume the system. Programs
//! written against XPMEM map one-to-one onto these calls — the paper's
//! backwards-compatibility claim (§4.1).
//!
//! Each op — these wrappers, the process and data ops, teardown,
//! migration, fault delivery and registration in [`crate::system`], and
//! the lane-phase ops of [`crate::LanePart`] — opens and closes its
//! tracer span through [`Framed::framed`]: the op span opens at the start
//! time and commits at the completion time, so every charged leaf
//! underneath it is attributed to the op that paid for it. A failed op
//! aborts the frame — mirroring the invariant that errors never advance
//! the clock, they never contribute spans.

use crate::ids::{Apid, ProcessRef, Segid};
use crate::system::{AttachOutcome, System};
use crate::XememError;
use xemem_mem::VirtAddr;
use xemem_sim::SimTime;
use xemem_trace::{Ctx, SpanKind, Timeline, TraceHandle};

/// An owner of a tracer whose ops run inside op spans: the whole
/// [`System`] and each PDES [`crate::LanePart`].
pub(crate) trait Framed: Sized {
    /// The tracer the op spans open on.
    fn frame_tracer(&self) -> &TraceHandle;

    /// Frame one op: open a `kind` span on `timeline` at `at`, run `f`
    /// from `at`, and commit the span at the end time `f` returns, or
    /// abort it when `f` fails. On a disabled tracer this is the bare
    /// call — no allocation, no atomic.
    fn framed<T>(
        &mut self,
        kind: SpanKind,
        ctx: Ctx,
        timeline: Timeline,
        at: SimTime,
        f: impl FnOnce(&mut Self, SimTime) -> Result<(T, SimTime), XememError>,
    ) -> Result<(T, SimTime), XememError> {
        self.frame_tracer().begin_op(kind, at, ctx, timeline);
        let out = f(self, at);
        match &out {
            Ok((_, end)) => self.frame_tracer().commit_op(*end),
            Err(_) => self.frame_tracer().abort_op(),
        }
        out
    }
}

impl Framed for System {
    fn frame_tracer(&self) -> &TraceHandle {
        self.tracer()
    }
}

impl System {
    /// [`Framed::framed`] on the clock timeline: start at the clock's
    /// current time and, on success, advance the clock to the op's end.
    pub(crate) fn clocked<T>(
        &mut self,
        kind: SpanKind,
        ctx: Ctx,
        f: impl FnOnce(&mut Self, SimTime) -> Result<(T, SimTime), XememError>,
    ) -> Result<T, XememError> {
        let at = self.clock().now();
        let (value, end) = self.framed(kind, ctx, Timeline::Clock, at, f)?;
        self.clock().advance_to(end);
        Ok(value)
    }

    /// `xpmem_make`: export `[va, va + len)` of the calling process as
    /// shared memory. Returns the globally unique segid. The optional
    /// `name` provides discoverability via [`System::xpmem_search`]. An
    /// empty range (`len == 0`) is [`XememError::BadWindow`].
    pub fn xpmem_make(
        &mut self,
        p: ProcessRef,
        va: VirtAddr,
        len: u64,
        name: Option<&str>,
    ) -> Result<Segid, XememError> {
        self.clocked(
            SpanKind::Make,
            Ctx::proc(p.enclave.0, p.pid.0),
            |sys, at| sys.make_at(p, va, len, name, at),
        )
    }

    /// `xpmem_remove`: withdraw an exported region.
    pub fn xpmem_remove(&mut self, p: ProcessRef, segid: Segid) -> Result<(), XememError> {
        self.clocked(
            SpanKind::Remove,
            Ctx::seg(p.enclave.0, p.pid.0, segid.0),
            |sys, at| sys.remove_at(p, segid, at).map(|end| ((), end)),
        )
    }

    /// `xpmem_get`: request read-write access to a segid. Returns a
    /// permission grant (apid).
    pub fn xpmem_get(&mut self, p: ProcessRef, segid: Segid) -> Result<Apid, XememError> {
        self.xpmem_get_mode(p, segid, crate::ids::AccessMode::ReadWrite)
    }

    /// `xpmem_get` with an explicit access mode (XPMEM's `XPMEM_RDONLY`
    /// permit): read-only grants yield attachments whose writes fault.
    pub fn xpmem_get_mode(
        &mut self,
        p: ProcessRef,
        segid: Segid,
        mode: crate::ids::AccessMode,
    ) -> Result<Apid, XememError> {
        self.clocked(
            SpanKind::Get,
            Ctx::seg(p.enclave.0, p.pid.0, segid.0),
            |sys, at| sys.get_mode_at(p, segid, mode, at),
        )
    }

    /// `xpmem_release`: release a permission grant.
    pub fn xpmem_release(&mut self, p: ProcessRef, apid: Apid) -> Result<(), XememError> {
        self.clocked(
            SpanKind::Release,
            Ctx::proc(p.enclave.0, p.pid.0),
            |sys, at| sys.release_at(p, apid, at).map(|end| ((), end)),
        )
    }

    /// `xpmem_attach`: map `len` bytes at `offset` within the granted
    /// segment into the calling process. Returns the new base address.
    pub fn xpmem_attach(
        &mut self,
        p: ProcessRef,
        apid: Apid,
        offset: u64,
        len: u64,
    ) -> Result<VirtAddr, XememError> {
        Ok(self.xpmem_attach_outcome(p, apid, offset, len)?.va)
    }

    /// `xpmem_attach` with the full timing breakdown (experiment
    /// drivers).
    pub fn xpmem_attach_outcome(
        &mut self,
        p: ProcessRef,
        apid: Apid,
        offset: u64,
        len: u64,
    ) -> Result<AttachOutcome, XememError> {
        self.clocked(
            SpanKind::Attach,
            Ctx::proc(p.enclave.0, p.pid.0),
            |sys, at| {
                sys.attach_at(p, apid, offset, len, at)
                    .map(|outcome| (outcome, outcome.end))
            },
        )
    }

    /// `xpmem_detach`: unmap a previously attached region.
    pub fn xpmem_detach(&mut self, p: ProcessRef, va: VirtAddr) -> Result<(), XememError> {
        self.clocked(
            SpanKind::Detach,
            Ctx::proc(p.enclave.0, p.pid.0),
            |sys, at| sys.detach_at(p, va, at).map(|end| ((), end)),
        )
    }

    /// Discoverability extension: resolve a well-known segment name to
    /// its segid by querying the name server (paper §3.1).
    pub fn xpmem_search(&mut self, p: ProcessRef, name: &str) -> Result<Segid, XememError> {
        self.clocked(
            SpanKind::Search,
            Ctx::proc(p.enclave.0, p.pid.0),
            |sys, at| sys.search_at(p, name, at),
        )
    }
}
