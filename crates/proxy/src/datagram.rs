//! The datagram worker: the symmetric architecture of UDP (§3.2) and SCTP
//! (§6).
//!
//! Every worker runs the same loop on the same inherited socket: receive a
//! message, parse it, match or create the transaction under the shared
//! lock, look up the route, and send — no connection management, no
//! supervisor, no descriptor passing. Any worker can receive from any phone
//! and send to any phone.
//!
//! SCTP is connection-oriented and reliable like TCP but message-based like
//! UDP, and the kernel manages its associations. The proxy can therefore
//! keep this architecture on it unchanged: the protocol is fixed when the
//! spawner binds the socket, and the worker's `MsgSend`/`MsgRecv` are the
//! same calls on either. The paper predicts this removes most of the TCP
//! architecture's overheads while retaining reliable delivery — the
//! `extensions` bench quantifies it.

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

use siperf_simos::process::{Process, ResumeCtx};
use siperf_simos::syscall::{Fd, SysResult, Syscall};

use crate::config::Transport;
use crate::plumbing::ConnShared;

/// One symmetric datagram worker process, on a UDP or SCTP socket.
pub(crate) struct MsgWorker {
    shared: ConnShared,
    /// Filled by the spawner after fork-inheritance of the shared socket.
    fd_slot: Rc<Cell<Option<Fd>>>,
    fd: Fd,
    script: VecDeque<Syscall>,
}

impl MsgWorker {
    /// Creates a worker; `fd_slot` must be filled (via
    /// [`siperf_simos::kernel::Kernel::setup_shared_msg`]) before the
    /// simulation runs.
    pub fn new(shared: ConnShared, fd_slot: Rc<Cell<Option<Fd>>>) -> Self {
        assert!(
            shared.cfg.transport != Transport::Tcp,
            "TCP has connection workers"
        );
        MsgWorker {
            shared,
            fd_slot,
            fd: Fd(u32::MAX),
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
            SysResult::Start => {
                self.fd = self
                    .fd_slot
                    .get()
                    .expect("shared SIP socket installed before run");
                self.recv()
            }
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
