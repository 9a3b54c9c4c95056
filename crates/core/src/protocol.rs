//! Protocol message kinds, and how to read them back.
//!
//! Cross-enclave commands (paper Table 1 plus the routing-support
//! messages of §3.2) are executed synchronously by the protocol engine in
//! [`crate::system`]; this module defines their kinds and wire sizes.
//!
//! The typed tracer is the only record of protocol traffic: every hop,
//! registration discovery included, is one [`EdgeKind::SendRecv`] edge
//! from the sending slot (`src_ctx.enclave`, first attempt at `src`) to
//! the receiving slot (`dst_ctx.enclave`, delivery at `dst`) that names
//! its message by [`MessageKind::code`] and wire bytes. To read hops,
//! build the system `with_tracer(TraceHandle::enabled())` and decode
//! `sys.tracer().edges()` — sorted by send time, so an op's hops are
//! those sent at or after its start — with [`MessageKind::of_edge`].

use xemem_trace::{Edge, EdgeKind};

/// Fixed wire size of a command header (segid, enclave ids, opcode,
/// status), mirroring a small C struct.
pub const CMD_HEADER_BYTES: u64 = 64;

/// The kinds of kernel-level cross-enclave messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Broadcast: "who has a path to the name server?" (§3.2 step 1).
    NameServerQuery,
    /// Response to a broadcast.
    NameServerQueryReply,
    /// Request an enclave ID from the name server (§3.2 step 2).
    AllocEnclaveId,
    /// Enclave ID allocation reply, routed back hop by hop (each hop
    /// learns the new enclave's direction).
    EnclaveIdReply,
    /// Allocate a segid (xpmem_make reaching the name server).
    AllocSegid,
    /// Segid allocation reply.
    SegidReply,
    /// Remove a segid registration (xpmem_remove).
    RemoveSegid,
    /// Query a segid's existence/owner (xpmem_get, name lookup).
    SearchSegid,
    /// Search reply.
    SearchReply,
    /// Attachment request: "send me the PFN list for this segid"
    /// (xpmem_attach; Fig. 3 step 4/5).
    GetPfnList,
    /// The PFN list response (bulk payload; Fig. 3 step 6/7).
    PfnListReply {
        /// Number of 4 KiB frames carried (8 bytes each on the wire).
        pages: u64,
    },
    /// Release a grant / notify detach.
    Release,
    /// Revocation notice: the owner (or the name server, when the owner
    /// enclave died) tells an attaching enclave that a segment it maps is
    /// gone and its reaper must unmap (teardown protocol).
    Revoke,
    /// Acknowledgement that the attacher's reaper finished unmapping —
    /// the owner may only recycle the frames after the last ack.
    RevokeAck,
    /// Lease revocation: a shard leader tells a client kernel that a
    /// lease it granted (name→segid or segid→owner) is void because the
    /// registration was removed. Sent before the remove is acked, so no
    /// client serves the dead mapping from its cache afterwards.
    LeaseRevoke,
    /// Client acknowledgement that the cached lease entry is purged.
    LeaseRevokeAck,
}

impl MessageKind {
    /// Every kind in declaration order (`PfnListReply` stands for every
    /// page count).
    const BY_CODE: [MessageKind; 16] = [
        MessageKind::NameServerQuery,
        MessageKind::NameServerQueryReply,
        MessageKind::AllocEnclaveId,
        MessageKind::EnclaveIdReply,
        MessageKind::AllocSegid,
        MessageKind::SegidReply,
        MessageKind::RemoveSegid,
        MessageKind::SearchSegid,
        MessageKind::SearchReply,
        MessageKind::GetPfnList,
        MessageKind::PfnListReply { pages: 0 },
        MessageKind::Release,
        MessageKind::Revoke,
        MessageKind::RevokeAck,
        MessageKind::LeaseRevoke,
        MessageKind::LeaseRevokeAck,
    ];

    /// Bytes this message occupies on a channel.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            MessageKind::PfnListReply { pages } => CMD_HEADER_BYTES + pages * 8,
            _ => CMD_HEADER_BYTES,
        }
    }

    /// The compact code a traced hop names this message by: its
    /// position in declaration order, from 1 (the tracer reserves 0 for
    /// unnamed edges).
    pub fn code(&self) -> u8 {
        let me = std::mem::discriminant(self);
        let at = Self::BY_CODE
            .iter()
            .position(|k| std::mem::discriminant(k) == me);
        at.map_or(0, |i| i as u8 + 1)
    }

    /// The message a traced [`EdgeKind::SendRecv`] hop carried, with a
    /// `PfnListReply`'s page count recovered from its wire bytes.
    /// `None` for other edge kinds and unnamed hops.
    pub fn of_edge(edge: &Edge) -> Option<MessageKind> {
        if edge.kind != EdgeKind::SendRecv {
            return None;
        }
        match *Self::BY_CODE.get(usize::from(edge.msg).checked_sub(1)?)? {
            MessageKind::PfnListReply { .. } => Some(MessageKind::PfnListReply {
                pages: edge.bytes.saturating_sub(CMD_HEADER_BYTES) / 8,
            }),
            kind => Some(kind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        assert_eq!(MessageKind::AllocSegid.wire_bytes(), 64);
        assert_eq!(MessageKind::PfnListReply { pages: 0 }.wire_bytes(), 64);
        // A 1 GiB region's PFN list: 262,144 × 8 B = 2 MiB + header.
        assert_eq!(
            MessageKind::PfnListReply { pages: 262_144 }.wire_bytes(),
            64 + (2 << 20)
        );
    }

    #[test]
    fn every_kind_round_trips_through_a_traced_hop() {
        use xemem_trace::{Ctx, TraceHandle};
        let mut kinds = MessageKind::BY_CODE.to_vec();
        kinds.push(MessageKind::PfnListReply { pages: 262_144 });
        let (at, ctx) = (xemem_sim::SimTime::from_nanos(5), Ctx::NONE);
        for kind in kinds {
            let tracer = TraceHandle::with_capacity(4, 1);
            tracer.send_recv(at, at, ctx, ctx, kind.code(), kind.wire_bytes());
            tracer.edge(EdgeKind::SendRecv, at, at, ctx, ctx);
            tracer.edge(EdgeKind::RevokeAck, at, at, ctx, ctx);
            let decoded: Vec<_> = tracer.edges().iter().map(MessageKind::of_edge).collect();
            assert_eq!(decoded, [None, Some(kind), None], "{kind:?}");
        }
    }
}
