//! Wiring a complete proxy into the simulated kernel.
//!
//! [`spawn_proxy`] builds the shared state, locks, and IPC channels for the
//! configured architecture, spawns every process (workers, supervisor or
//! acceptor, timer), and hands back a [`ProxyHandle`] for observing the run.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use siperf_simnet::addr::{HostId, SockAddr};
use siperf_simnet::{Errno, SIP_PORT};
use siperf_simos::ipc::ChanId;
use siperf_simos::kernel::Kernel;
use siperf_simos::process::ProcId;
use siperf_simos::syscall::Fd;

use crate::config::{Arch, IdleStrategy, ProxyConfig, Transport};
use crate::conn::ConnTable;
use crate::core::{ProxyCore, ProxyStats};
use crate::datagram::MsgWorker;
use crate::plumbing::{ConnShared, Locks, ManagerCtl};
use crate::stream::ConnWorker;
use crate::tcp::{IpcAccess, Supervisor};
use crate::threaded::{Acceptor, SharedAccess};
use crate::timer::TimerProc;
use crate::util::addr_to_host_str;

/// Number of striped per-connection write locks in the threaded mode.
const WRITE_LOCK_STRIPES: usize = 16;

/// Architecture-specific state the fault-injection respawn path needs to
/// rebuild a crashed process in place.
enum RespawnCtx {
    /// UDP/SCTP symmetric workers: each worker's shared-socket descriptor
    /// slot (SCTP keeps one extra trailing slot for the timer process,
    /// which then doubles as a donor descriptor).
    Msg { slots: Vec<Rc<Cell<Option<Fd>>>> },
    /// TCP multi-process: the channels a worker and the `Supervisor` are
    /// built on.
    TcpMulti {
        assign_chans: Vec<ChanId>,
        req_chans: Vec<ChanId>,
    },
    /// TCP multi-thread: each thread's access path, unattached.
    TcpThread { access: Vec<SharedAccess> },
}

/// Binds the proxy's shared datagram socket on `host` and installs it in
/// every one of `pids`.
fn bind_shared(
    kernel: &mut Kernel,
    transport: Transport,
    host: HostId,
    pids: &[ProcId],
) -> Result<Vec<Fd>, Errno> {
    match transport {
        Transport::Udp => kernel.setup_shared_udp(host, SIP_PORT, pids),
        _ => kernel.setup_shared_sctp(host, SIP_PORT, pids),
    }
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
    /// The supervisor (TCP multi-process) or acceptor (threaded) process.
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
            RespawnCtx::Msg { slots } => {
                let slot = Rc::new(Cell::new(None));
                let worker = MsgWorker::new(self.shared.clone(), slot.clone());
                if idx < slots.len() {
                    slots[idx] = slot;
                } else {
                    slots.push(slot);
                }
                let name = format!("{}_worker{idx}", cfg.transport.token().to_lowercase());
                kernel.spawn(self.host, cfg.worker_nice, name, Box::new(worker))
            }
            RespawnCtx::TcpMulti {
                assign_chans,
                req_chans,
            } => {
                let access = IpcAccess::new(assign_chans[idx], req_chans[idx]);
                kernel.spawn(
                    self.host,
                    cfg.worker_nice,
                    format!("tcp_worker{idx}"),
                    Box::new(ConnWorker::new(idx, self.shared.clone(), access)),
                )
            }
            RespawnCtx::TcpThread { access } => kernel.spawn_thread(
                cfg.worker_nice,
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
    /// Under UDP/SCTP the replacement inherits the shared SIP socket from a
    /// surviving sibling (or rebinds it if none survived). Under TCP the
    /// supervisor (or, threaded, the acceptor) is notified and re-announces
    /// the dead worker's connections to the replacement over IPC. Returns
    /// the new worker's pid.
    pub fn respawn_worker(&mut self, kernel: &mut Kernel, idx: usize) -> ProcId {
        let idx = idx % self.workers.len();
        kernel.kill(self.workers[idx]);
        let pid = self.spawn_worker(kernel, idx);
        match &self.respawn {
            RespawnCtx::Msg { slots } => {
                // Donor search: any surviving process holding the shared
                // socket (siblings first, then the SCTP timer's slot).
                let timer = self.timer.filter(|_| slots.len() > self.workers.len());
                let donor = self
                    .workers
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != idx)
                    .chain(timer.iter().map(|t| (self.workers.len(), t)))
                    .find_map(|(j, &dpid)| {
                        let fd = slots[j].get().filter(|_| kernel.alive(dpid))?;
                        Some((dpid, fd))
                    });
                let fd = match donor {
                    Some((dpid, dfd)) => kernel
                        .dup_to(dpid, dfd, pid)
                        .expect("donor descriptor is live"),
                    // Every holder died: the socket is gone, bind anew.
                    None => bind_shared(kernel, self.cfg.transport, self.host, &[pid])
                        .expect("rebind proxy socket")[0],
                };
                slots[idx].set(Some(fd));
            }
            RespawnCtx::TcpMulti { .. } | RespawnCtx::TcpThread { .. } => {
                let respawned = ManagerCtl::WorkerRespawned(idx);
                self.shared.ctl.borrow_mut().push_back(respawned);
            }
        }
        self.workers[idx] = pid;
        self.core.borrow_mut().stats.workers_respawned += 1;
        pid
    }

    /// Crashes and respawns the TCP multi-process supervisor.
    ///
    /// The replacement re-attaches the IPC channels, rebinds the listener,
    /// and starts with an **empty** descriptor cache — workers whose fd
    /// requests now miss fall back to outbound connects, as OpenSER does
    /// after `tcp_main` restarts. Returns the new pid, or `None` for
    /// architectures without a supervisor process.
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
            Box::new(Supervisor::new(
                self.shared.clone(),
                assign_chans.clone(),
                req_chans.clone(),
            )),
        );
        self.supervisor = Some(pid);
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
    core.borrow_mut().txn_linger = cfg.txn_linger;
    core.borrow_mut().set_overload_policy(cfg.overload.build());
    let conns = Rc::new(RefCell::new(match cfg.idle_strategy {
        IdleStrategy::LinearScan => ConnTable::new(),
        IdleStrategy::PriorityQueue => ConnTable::with_priority_queue(),
    }));
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
        ctl: Rc::new(RefCell::new(Default::default())),
    };
    let n = cfg.worker_count();
    let (respawn, supervisor) = match (cfg.transport, cfg.arch) {
        (Transport::Udp | Transport::Sctp, _) => {
            let slots = Vec::with_capacity(n + 1);
            (RespawnCtx::Msg { slots }, None)
        }
        (Transport::Tcp, Arch::MultiProcess) => {
            let assign_chans: Vec<_> = (0..n)
                .map(|_| kernel.create_ipc_pair(cfg.ipc_capacity))
                .collect();
            let req_chans: Vec<_> = (0..n)
                .map(|_| kernel.create_ipc_pair(cfg.ipc_capacity))
                .collect();
            let supervisor = kernel.spawn(
                host,
                cfg.supervisor_nice,
                "tcp_main",
                Box::new(Supervisor::new(
                    shared.clone(),
                    assign_chans.clone(),
                    req_chans.clone(),
                )),
            );
            let respawn = RespawnCtx::TcpMulti {
                assign_chans,
                req_chans,
            };
            (respawn, Some(supervisor))
        }
        (Transport::Tcp, Arch::MultiThread) => {
            let notify_chans: Vec<_> = (0..n)
                .map(|_| kernel.create_ipc_pair(cfg.ipc_capacity))
                .collect();
            let stripes: Vec<_> = (0..WRITE_LOCK_STRIPES)
                .map(|_| kernel.create_lock("conn_write"))
                .collect();
            let (registry, stripes) = (Rc::new(RefCell::new(HashMap::new())), Rc::new(stripes));
            let acceptor = Acceptor::new(shared.clone(), registry.clone(), notify_chans.clone());
            let acceptor = kernel.spawn(
                host,
                cfg.supervisor_nice,
                "acceptor_thread",
                Box::new(acceptor),
            );
            let access = notify_chans
                .into_iter()
                .map(|chan| SharedAccess::new(registry.clone(), stripes.clone(), chan))
                .collect();
            (RespawnCtx::TcpThread { access }, Some(acceptor))
        }
    };
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
    // The SCTP timer retransmits on the shared endpoint, so it holds one
    // more slot (and can donate it on respawn); the UDP timer binds a
    // socket of its own, and the TCP timer has none.
    let transport = proxy.cfg.transport;
    let timer_slot = (transport == Transport::Sctp).then(|| Rc::new(Cell::new(None)));
    let timer = kernel.spawn(
        host,
        proxy.cfg.worker_nice,
        "timer",
        Box::new(TimerProc::new(proxy.shared.clone(), timer_slot.clone())),
    );
    proxy.timer = Some(timer);
    if let RespawnCtx::Msg { slots } = &mut proxy.respawn {
        let mut pids = proxy.workers.clone();
        if let Some(slot) = timer_slot {
            slots.push(slot);
            pids.push(timer);
        }
        let fds = bind_shared(kernel, transport, host, &pids).expect("bind proxy socket");
        for (slot, fd) in slots.iter().zip(fds) {
            slot.set(Some(fd));
        }
    }
    proxy
}
