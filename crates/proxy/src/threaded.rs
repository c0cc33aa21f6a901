//! The §6 multi-threaded architecture.
//!
//! "File descriptors cannot be shared among processes without passing them
//! back and forth using IPC. This overhead would be completely unnecessary
//! within a multi-threaded server. Locking would still be required to
//! ensure atomic use of each connection, but the threads would be able to
//! use any file descriptor in the server without any expensive transfer
//! operations."
//!
//! Exactly that: an acceptor thread (`manager::ConnManager`) and worker
//! threads share one descriptor table
//! ([`siperf_simos::kernel::Kernel::spawn_thread`]). The shared
//! `conn → fd` registry lives in ordinary shared memory; a send takes the
//! connection-table lock to resolve the route, a striped per-connection
//! write lock for atomicity, and that's all — no supervisor round trip, no
//! close-after-send, no two-step idle shutdown. The worker threads are
//! `stream::ConnWorker`s reaching descriptors through `SharedAccess`.

use std::rc::Rc;

use siperf_simcore::time::SimTime;
use siperf_simos::ipc::ChanId;
use siperf_simos::lock::LockId;
use siperf_simos::syscall::{Fd, IpcMsg, SysResult, Syscall};

use crate::conn::ConnId;
use crate::manager::{FdRegistry, MSG_CONN_DEAD, MSG_NEW_CONN};
use crate::plumbing::decode_addr;
use crate::stream::{ConnAccess, ConnState, SendJob, Step};

/// [`SharedAccess`]'s send steps after the table lookup.
pub(crate) enum SharedStep {
    /// Connect outbound: no usable connection to the destination.
    Connect,
    /// Connect issued; register the new connection.
    Connected,
    /// Take the connection's striped write lock.
    LockStripe,
    /// Send the message.
    Sending,
    /// Release the write lock.
    UnlockStripe,
}

/// The threaded server's access path: connections are announced by
/// plain messages on one notify channel, and any descriptor is read from
/// the registry every thread shares; a striped write lock keeps each
/// connection's sends atomic.
#[derive(Clone)]
pub(crate) struct SharedAccess {
    registry: FdRegistry,
    stripes: Rc<Vec<LockId>>,
    notify_chan: [ChanId; 1],
}

impl SharedAccess {
    /// Creates the access path over the shared registry, the striped write
    /// locks and the thread's notify channel.
    pub fn new(registry: FdRegistry, stripes: Rc<Vec<LockId>>, notify_chan: ChanId) -> Self {
        SharedAccess {
            registry,
            stripes,
            notify_chan: [notify_chan],
        }
    }

    fn stripe(&self, job: &SendJob) -> LockId {
        let conn = job.conn.expect("resolved").0;
        self.stripes[(conn as usize) % self.stripes.len()]
    }
}

impl ConnAccess for SharedAccess {
    type Step = SharedStep;

    fn channels(&self) -> &[ChanId] {
        &self.notify_chan
    }

    fn on_ctl(&mut self, st: &mut ConnState, _now: SimTime, msg: IpcMsg) {
        match msg.kind {
            MSG_NEW_CONN => {
                let fd = self.registry.borrow().get(&msg.a).copied();
                if let Some(fd) = fd {
                    st.adopt(msg.a, fd, decode_addr(msg.b));
                }
            }
            MSG_CONN_DEAD => {
                // Acceptor already closed the shared fd.
                st.forget(msg.a);
            }
            other => panic!("thread worker got ipc kind {other}"),
        }
    }

    fn released(&mut self, st: &mut ConnState, conn: u64, fd: Fd) {
        // Single close: the descriptor table is shared, so this is the only
        // copy to release.
        if self.registry.borrow_mut().remove(&conn).is_some() {
            st.script.push_back(Syscall::Close { fd });
        }
        st.shared.conns.borrow_mut().remove(ConnId(conn));
    }

    fn table_work(&mut self, _st: &mut ConnState, _now: SimTime, job: &mut SendJob) -> u64 {
        // The registry is read under the table lock.
        job.fd = job
            .conn
            .and_then(|id| self.registry.borrow().get(&id.0).copied());
        0
    }

    fn route(&mut self, _st: &mut ConnState, job: &mut SendJob) -> SharedStep {
        if job.fd.is_some() {
            SharedStep::LockStripe
        } else {
            SharedStep::Connect
        }
    }

    fn step(
        &mut self,
        st: &mut ConnState,
        now: SimTime,
        job: &mut SendJob,
        mut step: SharedStep,
        last: &SysResult,
    ) -> Step<SharedStep> {
        let target = job.out.alt.unwrap_or(job.out.dest);
        loop {
            return match step {
                SharedStep::Connect => {
                    st.shared.core.borrow_mut().stats.outbound_connects += 1;
                    Step::Next(SharedStep::Connected, Syscall::TcpConnect { to: target })
                }
                SharedStep::Connected => match last {
                    SysResult::NewFd(fd) => {
                        let id = st.shared.conns.borrow_mut().insert(now, target, st.idx);
                        self.registry.borrow_mut().insert(id.0, *fd);
                        st.adopt(id.0, *fd, target);
                        job.conn = Some(id);
                        job.fd = Some(*fd);
                        step = SharedStep::LockStripe;
                        continue;
                    }
                    SysResult::Err(_) => {
                        st.shared.core.borrow_mut().stats.send_errors += 1;
                        Step::Done(None)
                    }
                    other => panic!("connect result expected, got {other:?}"),
                },
                SharedStep::LockStripe => {
                    let lock = self.stripe(job);
                    Step::Next(SharedStep::Sending, Syscall::LockAcquire { lock })
                }
                SharedStep::Sending => Step::Next(
                    SharedStep::UnlockStripe,
                    Syscall::TcpSend {
                        fd: job.fd.expect("resolved"),
                        data: job.out.bytes.clone(),
                    },
                ),
                SharedStep::UnlockStripe => {
                    if matches!(last, SysResult::Err(_)) {
                        st.shared.core.borrow_mut().stats.send_errors += 1;
                    }
                    Step::Done(Some(Syscall::LockRelease {
                        lock: self.stripe(job),
                    }))
                }
            };
        }
    }
}
