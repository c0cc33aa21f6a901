//! The datagram worker: the symmetric architecture of UDP (§3.2) and SCTP
//! (§6).
//!
//! Every worker runs the same loop on the same inherited socket: receive a
//! message, parse it, match or create the transaction under the shared
//! lock, look up the route, and send — no connection management, no
//! supervisor, no descriptor passing. Any worker can receive from any phone
//! and send to any phone.
//!
//! As in OpenSER, the socket is bound once before any worker exists, and
//! each worker, a respawned one included, inherits it as it forks
//! ([`siperf_simos::kernel::Kernel::spawn_inheriting`]): `MsgWorker::new`
//! takes the descriptor.
//!
//! SCTP is connection-oriented and reliable like TCP but message-based like
//! UDP, and the kernel manages its associations. The proxy can therefore
//! keep this architecture on it unchanged: the protocol is fixed when the
//! spawner binds the socket, and the worker's `MsgSend`/`MsgRecv` are the
//! same calls on either. The paper predicts this removes most of the TCP
//! architecture's overheads while retaining reliable delivery —
//! EXPERIMENTS.md's E1/E2 quantifies it.

use std::collections::VecDeque;

use siperf_simos::process::{Process, ResumeCtx};
use siperf_simos::syscall::{Fd, SysResult, Syscall};

use crate::config::Transport;
use crate::plumbing::ConnShared;

/// One symmetric datagram worker process, on a UDP or SCTP socket.
pub(crate) struct MsgWorker {
    shared: ConnShared,
    /// The SIP socket, inherited at spawn.
    fd: Fd,
    script: VecDeque<Syscall>,
}

impl MsgWorker {
    /// Creates a worker on the SIP socket `fd` it inherits.
    pub fn new(shared: ConnShared, fd: Fd) -> Self {
        assert!(
            shared.cfg.transport != Transport::Tcp,
            "TCP has connection workers"
        );
        MsgWorker {
            shared,
            fd,
            script: VecDeque::new(),
        }
    }

    fn recv(&self) -> Syscall {
        Syscall::MsgRecv { fd: self.fd }
    }
}

impl Process for MsgWorker {
    fn resume(&mut self, ctx: &mut ResumeCtx, last: SysResult) -> Syscall {
        if let SysResult::Err(_) = last {
            // Only sends can fail in this loop; count and continue.
            self.shared.core.borrow_mut().stats.send_errors += 1;
        }
        if let Some(next) = self.script.pop_front() {
            return next;
        }
        match last {
            SysResult::Datagram { from, data } => {
                for out in self
                    .shared
                    .route(&mut self.script, ctx.now, &data, from, None)
                {
                    self.script.push_back(Syscall::MsgSend {
                        fd: self.fd,
                        to: out.dest,
                        data: out.bytes,
                    });
                }
                self.script.pop_front().expect("script never empty here")
            }
            // Script drained (or a send completed): back to the loop top.
            _ => self.recv(),
        }
    }
}
