//! Wiring a complete proxy into the simulated kernel.
//!
//! [`spawn_proxy`] builds the shared state, locks, and IPC channels for the
//! configured architecture, spawns every process (workers, the TCP
//! connection manager, timer), and hands back a [`ProxyHandle`] for
//! observing the run.
//!
//! A UDP or SCTP proxy binds its SIP socket first, like OpenSER's main
//! process, and every worker (and the SCTP timer) inherits it at spawn.
//! A respawned worker inherits it the same way; only when the socket
//! closed with its last holder is it bound anew.

use std::cell::RefCell;
use std::rc::Rc;

use siperf_simnet::addr::{HostId, SockAddr};
use siperf_simnet::SIP_PORT;
use siperf_simos::ipc::ChanId;
use siperf_simos::kernel::{FdKind, Kernel};
use siperf_simos::process::{Nice, ProcId};

use crate::config::{Arch, ProxyConfig, Transport};
use crate::conn::ConnTable;
use crate::core::{ProxyCore, ProxyStats};
use crate::datagram::MsgWorker;
use crate::manager::{ConnManager, FdRegistry};
use crate::plumbing::{ConnShared, Locks};
use crate::stream::ConnWorker;
use crate::tcp::IpcAccess;
use crate::threaded::SharedAccess;
use crate::timer::TimerProc;
use crate::util::addr_to_host_str;

/// Number of striped per-connection write locks in the threaded mode.
const WRITE_LOCK_STRIPES: usize = 16;

/// Architecture-specific state the fault-injection respawn path needs to
/// rebuild a crashed process in place.
enum RespawnCtx {
    /// UDP/SCTP symmetric workers: the SIP socket each one inherits, as
    /// [`Kernel::bind_msg`] returned it.
    Msg { sock: FdKind },
    /// TCP multi-process: the channels a worker and the supervisor are
    /// built on.
    TcpMulti {
        assign_chans: Vec<ChanId>,
        req_chans: Vec<ChanId>,
    },
    /// TCP multi-thread: each thread's access path, unattached.
    TcpThread { access: Vec<SharedAccess> },
}

/// Observer handle over a spawned proxy.
pub struct ProxyHandle {
    /// The routing engine and statistics.
    pub core: Rc<RefCell<ProxyCore>>,
    /// The shared TCP connection table (empty under UDP/SCTP).
    pub conns: Rc<RefCell<ConnTable>>,
    /// The server host.
    pub host: HostId,
    /// The proxy's SIP address.
    pub addr: SockAddr,
    /// The shared-memory locks, for contention reports.
    pub locks: Locks,
    /// Worker process ids.
    pub workers: Vec<ProcId>,
    /// The TCP connection manager: the supervisor process (multi-process)
    /// or the acceptor thread (threaded).
    pub supervisor: Option<ProcId>,
    /// The timer process.
    pub timer: Option<ProcId>,
    /// The configuration the proxy was spawned with.
    pub cfg: Rc<ProxyConfig>,
    /// What the proxy's processes share, for respawns.
    shared: ConnShared,
    respawn: RespawnCtx,
}

impl ProxyHandle {
    /// Snapshot of the proxy's statistics.
    pub fn stats(&self) -> ProxyStats {
        self.core.borrow().stats
    }

    /// Live connection-object count.
    pub fn open_conns(&self) -> usize {
        self.conns.borrow().len()
    }

    /// Spawns worker `idx` (a process, or a thread of the acceptor) — at
    /// start and on respawn alike.
    fn spawn_worker(&mut self, kernel: &mut Kernel, idx: usize) -> ProcId {
        let cfg = &self.cfg;
        match &mut self.respawn {
            RespawnCtx::Msg { sock } => {
                let name = format!("{}_worker{idx}", cfg.transport.token().to_lowercase());
                let fork = |kernel: &mut Kernel, sock: FdKind| {
                    kernel.spawn_inheriting(self.host, Nice::NORMAL, name.clone(), &[sock], |fds| {
                        Box::new(MsgWorker::new(self.shared.clone(), fds[0]))
                    })
                };
                fork(kernel, *sock).unwrap_or_else(|_| {
                    // The socket closed with its last holder: bind anew.
                    let proto = cfg.transport.msg_proto().expect("datagram transport");
                    *sock = kernel
                        .bind_msg(proto, self.host, SIP_PORT)
                        .expect("rebind proxy socket");
                    fork(kernel, *sock).expect("a fresh socket is open")
                })
            }
            RespawnCtx::TcpMulti {
                assign_chans,
                req_chans,
            } => {
                let access = IpcAccess::new(assign_chans[idx], req_chans[idx], &self.shared);
                kernel.spawn(
                    self.host,
                    Nice::NORMAL,
                    format!("tcp_worker{idx}"),
                    Box::new(ConnWorker::new(idx, self.shared.clone(), access)),
                )
            }
            RespawnCtx::TcpThread { access } => kernel.spawn_thread(
                Nice::NORMAL,
                format!("worker_thread{idx}"),
                Box::new(ConnWorker::new(
                    idx,
                    self.shared.clone(),
                    access[idx].clone(),
                )),
                self.supervisor.expect("threaded proxy has an acceptor"),
            ),
        }
    }

    /// Crashes worker `idx` (wrapping) and respawns a replacement in place,
    /// exactly as OpenSER's main process re-forks a dead child.
    ///
    /// Under UDP/SCTP the replacement inherits the shared SIP socket, or
    /// binds it anew if it closed with its last holder. Under TCP the
    /// supervisor (or, threaded, the acceptor) is notified and re-announces
    /// the dead worker's connections to the replacement over IPC. Returns
    /// the new worker's pid.
    pub fn respawn_worker(&mut self, kernel: &mut Kernel, idx: usize) -> ProcId {
        let idx = idx % self.workers.len();
        kernel.kill(self.workers[idx]);
        let pid = self.spawn_worker(kernel, idx);
        if !matches!(self.respawn, RespawnCtx::Msg { .. }) {
            self.shared.respawned.borrow_mut().push_back(idx);
        }
        self.workers[idx] = pid;
        self.core.borrow_mut().stats.workers_respawned += 1;
        pid
    }

    /// Crashes and respawns the TCP multi-process supervisor.
    ///
    /// The replacement re-attaches the IPC channels, rebinds the listener,
    /// and starts without descriptors: fd requests miss, and the worker
    /// falls back to an outbound connect, until every worker has
    /// re-announced the descriptors of the connections it owns. Returns the
    /// new pid, or `None` for architectures without a supervisor process.
    pub fn respawn_supervisor(&mut self, kernel: &mut Kernel) -> Option<ProcId> {
        let RespawnCtx::TcpMulti {
            assign_chans,
            req_chans,
        } = &self.respawn
        else {
            return None;
        };
        let old = self.supervisor?;
        kernel.kill(old);
        let pid = kernel.spawn(
            self.host,
            self.cfg.supervisor_nice,
            "tcp_main",
            Box::new(ConnManager::new(
                self.shared.clone(),
                FdRegistry::default(),
                assign_chans.clone(),
                req_chans.clone(),
            )),
        );
        self.supervisor = Some(pid);
        let restarts = &self.shared.manager_restarts;
        restarts.set(restarts.get() + 1);
        self.core.borrow_mut().stats.workers_respawned += 1;
        Some(pid)
    }
}

/// Builds and spawns a proxy on `host` per `cfg`.
///
/// # Panics
///
/// Panics if the SIP port cannot be bound — a configuration error at world
/// building time.
pub fn spawn_proxy(kernel: &mut Kernel, host: HostId, cfg: ProxyConfig) -> ProxyHandle {
    let cfg = Rc::new(cfg);
    let addr = SockAddr::new(host, SIP_PORT);
    let core = Rc::new(RefCell::new(ProxyCore::new(
        addr_to_host_str(addr),
        cfg.transport,
        cfg.stateful,
    )));
    core.borrow_mut().set_overload_policy(cfg.overload.build());
    let table = ConnTable::new(cfg.idle_strategy, cfg.idle_timeout);
    let conns = Rc::new(RefCell::new(table));
    let locks = Locks {
        txn: kernel.create_lock("txn_table"),
        usrloc: kernel.create_lock("usrloc"),
        timer: kernel.create_lock("timer_list"),
        conn: kernel.create_lock("tcpconn_hash"),
    };
    let shared = ConnShared {
        core: core.clone(),
        conns: conns.clone(),
        cfg: cfg.clone(),
        locks,
        respawned: Rc::default(),
        manager_restarts: Rc::default(),
    };
    let n = cfg.worker_count();
    let (respawn, manager) = match (cfg.transport.msg_proto(), cfg.arch) {
        (Some(proto), _) => {
            let sock = kernel
                .bind_msg(proto, host, SIP_PORT)
                .expect("bind proxy socket");
            (RespawnCtx::Msg { sock }, None)
        }
        (None, Arch::MultiProcess) => {
            let assign_chans: Vec<_> = (0..n)
                .map(|_| kernel.create_ipc_pair(cfg.ipc_capacity))
                .collect();
            let req_chans: Vec<_> = (0..n)
                .map(|_| kernel.create_ipc_pair(cfg.ipc_capacity))
                .collect();
            let manager = ConnManager::new(
                shared.clone(),
                FdRegistry::default(),
                assign_chans.clone(),
                req_chans.clone(),
            );
            let respawn = RespawnCtx::TcpMulti {
                assign_chans,
                req_chans,
            };
            (respawn, Some(("tcp_main", manager)))
        }
        (None, Arch::MultiThread) => {
            let notify_chans: Vec<_> = (0..n)
                .map(|_| kernel.create_ipc_pair(cfg.ipc_capacity))
                .collect();
            let stripes: Vec<_> = (0..WRITE_LOCK_STRIPES)
                .map(|_| kernel.create_lock("conn_write"))
                .collect();
            let (registry, stripes) = (FdRegistry::default(), Rc::new(stripes));
            let manager = ConnManager::new(
                shared.clone(),
                registry.clone(),
                notify_chans.clone(),
                Vec::new(),
            );
            let access = notify_chans
                .into_iter()
                .map(|chan| SharedAccess::new(registry.clone(), stripes.clone(), chan))
                .collect();
            (
                RespawnCtx::TcpThread { access },
                Some(("acceptor_thread", manager)),
            )
        }
    };
    let supervisor = manager
        .map(|(name, manager)| kernel.spawn(host, cfg.supervisor_nice, name, Box::new(manager)));
    let mut proxy = ProxyHandle {
        core,
        conns,
        host,
        addr,
        locks,
        workers: Vec::with_capacity(n),
        supervisor,
        timer: None,
        cfg,
        shared,
        respawn,
    };
    for i in 0..n {
        let pid = proxy.spawn_worker(kernel, i);
        proxy.workers.push(pid);
    }
    // The SCTP timer retransmits on the shared endpoint, so it inherits
    // it too; the UDP timer binds a socket of its own, and the TCP timer
    // has none.
    let inherit = match proxy.respawn {
        RespawnCtx::Msg { sock } if proxy.cfg.transport == Transport::Sctp => Some(sock),
        _ => None,
    };
    let timer = kernel
        .spawn_inheriting(host, Nice::NORMAL, "timer", inherit.as_slice(), |fds| {
            Box::new(TimerProc::new(proxy.shared.clone(), fds.first().copied()))
        })
        .expect("the proxy socket is open");
    proxy.timer = Some(timer);
    proxy
}
