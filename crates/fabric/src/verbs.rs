//! Work requests and completions — the verbs-level data types.

use crate::types::{Lkey, NodeId, QpNum, Rkey, Transport, WrId};

/// A local scatter/gather element: a `(lkey, addr, len)` triple naming a
/// range inside a locally registered memory region.
#[derive(Debug, Clone, Copy)]
pub struct Sge {
    /// Local key of the region.
    pub lkey: Lkey,
    /// Virtual address of the first byte.
    pub addr: u64,
    /// Length in bytes.
    pub len: usize,
}

/// A remote target: `(rkey, addr)` naming memory on the peer.
#[derive(Debug, Clone, Copy)]
pub struct RemoteAddr {
    /// Remote key of the target region.
    pub rkey: Rkey,
    /// Virtual address of the first byte on the remote node.
    pub addr: u64,
}

/// The operation carried by a send-side work request.
#[derive(Debug, Clone, Copy)]
pub enum SendOp {
    /// Two-sided send: payload lands in a receive buffer posted by the peer.
    Send {
        /// Payload source.
        local: Sge,
    },
    /// One-sided write into remote memory. No remote CPU or receive buffer.
    Write {
        /// Payload source.
        local: Sge,
        /// Destination on the peer.
        remote: RemoteAddr,
    },
    /// One-sided write that additionally delivers a 32-bit immediate to the
    /// peer's receive queue, consuming a posted receive buffer (used by
    /// Flock's credit-renewal channel, paper §7).
    WriteImm {
        /// Payload source.
        local: Sge,
        /// Destination on the peer.
        remote: RemoteAddr,
        /// Immediate data delivered in the receive completion.
        imm: u32,
    },
    /// One-sided read from remote memory into a local region.
    Read {
        /// Destination for the fetched bytes.
        local: Sge,
        /// Source on the peer.
        remote: RemoteAddr,
    },
    /// 8-byte remote fetch-and-add; the prior value lands in `local`.
    FetchAdd {
        /// 8-byte local destination for the old value.
        local: Sge,
        /// 8-byte aligned remote target.
        remote: RemoteAddr,
        /// Addend.
        add: u64,
    },
    /// 8-byte remote compare-and-swap; the prior value lands in `local`.
    CmpSwap {
        /// 8-byte local destination for the old value.
        local: Sge,
        /// 8-byte aligned remote target.
        remote: RemoteAddr,
        /// Expected value.
        expect: u64,
        /// Replacement value if the comparison succeeds.
        swap: u64,
    },
}

impl SendOp {
    /// Verb name for diagnostics.
    pub const fn name(&self) -> &'static str {
        match self {
            SendOp::Send { .. } => "send",
            SendOp::Write { .. } => "write",
            SendOp::WriteImm { .. } => "write_with_imm",
            SendOp::Read { .. } => "read",
            SendOp::FetchAdd { .. } => "fetch_and_add",
            SendOp::CmpSwap { .. } => "compare_and_swap",
        }
    }

    /// Payload length moved by this operation.
    pub const fn byte_len(&self) -> usize {
        match self {
            SendOp::Send { local }
            | SendOp::Write { local, .. }
            | SendOp::WriteImm { local, .. }
            | SendOp::Read { local, .. } => local.len,
            SendOp::FetchAdd { .. } | SendOp::CmpSwap { .. } => 8,
        }
    }

    /// Whether `transport` supports this verb (paper Table 1).
    pub(crate) const fn supported_on(&self, transport: Transport) -> bool {
        match self {
            SendOp::Send { .. } => transport.supports_send_recv(),
            SendOp::Write { .. } | SendOp::WriteImm { .. } => transport.supports_write(),
            SendOp::Read { .. } => transport.supports_read(),
            SendOp::FetchAdd { .. } | SendOp::CmpSwap { .. } => transport.supports_atomic(),
        }
    }
}

/// A send-side work request.
#[derive(Debug, Clone, Copy)]
pub struct SendWr {
    /// Caller identifier echoed in the completion.
    pub wr_id: WrId,
    /// The operation.
    pub op: SendOp,
    /// Whether a successful completion should be generated (selective
    /// signaling: unsignaled requests complete silently; errors always
    /// generate a completion).
    pub signaled: bool,
    /// Destination for UD sends; ignored (and must be `None`) on connected
    /// transports.
    pub dst: Option<(NodeId, QpNum)>,
}

impl SendWr {
    /// A signaled two-sided send on a connected QP.
    pub fn send(wr_id: WrId, local: Sge) -> SendWr {
        SendWr {
            wr_id,
            op: SendOp::Send { local },
            signaled: true,
            dst: None,
        }
    }

    /// A signaled UD send to `dst`.
    pub fn send_to(wr_id: WrId, local: Sge, dst: (NodeId, QpNum)) -> SendWr {
        SendWr {
            wr_id,
            op: SendOp::Send { local },
            signaled: true,
            dst: Some(dst),
        }
    }

    /// A signaled RDMA write.
    pub fn write(wr_id: WrId, local: Sge, remote: RemoteAddr) -> SendWr {
        SendWr {
            wr_id,
            op: SendOp::Write { local, remote },
            signaled: true,
            dst: None,
        }
    }

    /// A signaled RDMA write-with-immediate.
    pub fn write_imm(wr_id: WrId, local: Sge, remote: RemoteAddr, imm: u32) -> SendWr {
        SendWr {
            wr_id,
            op: SendOp::WriteImm { local, remote, imm },
            signaled: true,
            dst: None,
        }
    }

    /// A signaled RDMA read.
    pub fn read(wr_id: WrId, local: Sge, remote: RemoteAddr) -> SendWr {
        SendWr {
            wr_id,
            op: SendOp::Read { local, remote },
            signaled: true,
            dst: None,
        }
    }

    /// A signaled remote fetch-and-add.
    pub fn fetch_add(wr_id: WrId, local: Sge, remote: RemoteAddr, add: u64) -> SendWr {
        SendWr {
            wr_id,
            op: SendOp::FetchAdd { local, remote, add },
            signaled: true,
            dst: None,
        }
    }

    /// A signaled remote compare-and-swap.
    pub fn cmp_swap(wr_id: WrId, local: Sge, remote: RemoteAddr, expect: u64, swap: u64) -> SendWr {
        SendWr {
            wr_id,
            op: SendOp::CmpSwap {
                local,
                remote,
                expect,
                swap,
            },
            signaled: true,
            dst: None,
        }
    }

    /// Mark this request unsignaled (no success completion).
    pub fn unsignaled(mut self) -> SendWr {
        self.signaled = false;
        self
    }
}

/// A receive-side work request: a posted buffer.
#[derive(Debug, Clone, Copy)]
pub struct RecvWr {
    /// Caller identifier echoed in the completion.
    pub wr_id: WrId,
    /// Buffer to receive into.
    pub local: Sge,
}

/// Completion status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CqStatus {
    /// The operation completed successfully.
    Success,
    /// A local protection/validation error (bad lkey, bounds).
    LocalProtectionError,
    /// The remote side rejected the access (bad rkey, rights, bounds).
    RemoteAccessError,
    /// Receiver-not-ready: the peer had no posted receive buffer (RC).
    RnrRetryExceeded,
    /// The QP transitioned to the error state and the request was flushed.
    WorkRequestFlushed,
}

/// Completion opcode: which kind of work finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CqOpcode {
    /// A send-side send completed.
    Send,
    /// An RDMA write completed.
    Write,
    /// An RDMA read completed (data is in the local SGE).
    Read,
    /// A remote atomic completed (old value is in the local SGE).
    Atomic,
    /// An inbound two-sided message landed in a posted buffer.
    Recv,
    /// An inbound write-with-immediate consumed a posted buffer slot.
    RecvImm,
}

/// A completion queue entry.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Echo of the work request id.
    pub wr_id: WrId,
    /// Outcome.
    pub status: CqStatus,
    /// What completed.
    pub opcode: CqOpcode,
    /// Bytes moved (for receives: payload length, including the 40-byte
    /// GRH for UD).
    pub byte_len: usize,
    /// Immediate data, for [`CqOpcode::RecvImm`].
    pub imm: Option<u32>,
    /// Source addressing for UD receives.
    pub src: Option<(NodeId, QpNum)>,
    /// The local QP this completion belongs to.
    pub qpn: QpNum,
}

impl Completion {
    /// Whether the operation succeeded.
    pub fn is_ok(&self) -> bool {
        self.status == CqStatus::Success
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sge(len: usize) -> Sge {
        Sge {
            lkey: Lkey(1),
            addr: 0x1000_0000,
            len,
        }
    }

    fn remote() -> RemoteAddr {
        RemoteAddr {
            rkey: Rkey(1),
            addr: 0x1000_0000,
        }
    }

    #[test]
    fn op_support_follows_table1() {
        let read = SendOp::Read {
            local: sge(8),
            remote: remote(),
        };
        assert!(read.supported_on(Transport::Rc));
        assert!(!read.supported_on(Transport::Uc));
        assert!(!read.supported_on(Transport::Ud));

        let write = SendOp::Write {
            local: sge(8),
            remote: remote(),
        };
        assert!(write.supported_on(Transport::Rc));
        assert!(write.supported_on(Transport::Uc));
        assert!(!write.supported_on(Transport::Ud));

        let send = SendOp::Send { local: sge(8) };
        assert!(send.supported_on(Transport::Rc));
        assert!(send.supported_on(Transport::Uc));
        assert!(send.supported_on(Transport::Ud));

        let faa = SendOp::FetchAdd {
            local: sge(8),
            remote: remote(),
            add: 1,
        };
        assert!(faa.supported_on(Transport::Rc));
        assert!(!faa.supported_on(Transport::Ud));
    }

    #[test]
    fn byte_len_reports_payload() {
        assert_eq!(SendOp::Send { local: sge(100) }.byte_len(), 100);
        assert_eq!(
            SendOp::FetchAdd {
                local: sge(8),
                remote: remote(),
                add: 1
            }
            .byte_len(),
            8
        );
    }

    #[test]
    fn builders_set_fields() {
        let wr = SendWr::write(WrId(7), sge(10), remote()).unsignaled();
        assert_eq!(wr.wr_id, WrId(7));
        assert!(!wr.signaled);
        assert!(wr.dst.is_none());
        let wr = SendWr::send_to(WrId(8), sge(10), (NodeId(1), QpNum(2)));
        assert_eq!(wr.dst, Some((NodeId(1), QpNum(2))));
    }

    #[test]
    fn op_names() {
        assert_eq!(SendOp::Send { local: sge(1) }.name(), "send");
        assert_eq!(
            SendOp::CmpSwap {
                local: sge(8),
                remote: remote(),
                expect: 0,
                swap: 1
            }
            .name(),
            "compare_and_swap"
        );
    }
}
