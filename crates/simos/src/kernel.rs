//! The simulated kernel: scheduler, blocking syscalls, descriptors, IPC.
//!
//! [`Kernel`] ties everything together. It owns the network fabric, all
//! processes, the per-host CPU schedulers, IPC channels, and locks, and it
//! runs the single global event queue. The model it implements:
//!
//! * **Preemptive priority scheduling** on N cores per host. Ready queues
//!   are FIFO per nice level, found through a priority bitmap; a waking
//!   process preempts a strictly lower-priority running process; a process
//!   that keeps issuing syscalls keeps its core until its timeslice expires
//!   (Linux 2.6 O(1)-scheduler behaviour at the granularity that matters
//!   here). This is the machinery behind the paper's §4.3
//!   supervisor-starvation finding.
//! * **Syscalls cost CPU**: every syscall is a charged burst on a core,
//!   attributed to a profile tag per host — reproducing the paper's
//!   OProfile evidence (§5).
//! * **Blocking semantics**: receive on empty, send on full (TCP
//!   backpressure and bounded IPC), accept on empty, connect until the
//!   handshake resolves. Blocked processes wake through readiness outcomes
//!   from the network or channel activity, then pay a scheduler wake cost
//!   and wait for a core — so IPC round-trip latency includes real queueing
//!   delay, the heart of the paper's TCP results.
//! * **Spinlock contention as sched_yield storms**, as OpenSER's userspace
//!   locks behave (§5.2).

use std::collections::{BTreeMap, VecDeque};

use siperf_simcore::hash::FastMap;
use siperf_simcore::profile::Profiler;
use siperf_simcore::queue::EventQueue;
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::addr::HostId;
use siperf_simnet::endpoint::EpId;
use siperf_simnet::error::Errno;
use siperf_simnet::event::{NetEvent, NetOutcome};
use siperf_simnet::net::Network;
use siperf_simnet::NetConfig;

use crate::cost::CostModel;
use crate::ipc::{ChanId, Channel, Parcel, Side};
use crate::lock::{Lock, LockId};
use crate::process::{Nice, ProcId, Process, ResumeCtx};
use crate::syscall::{Fd, IpcMsg, MsgProto, SysResult, Syscall};

/// What a descriptor refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdKind {
    /// A message socket (UDP socket or SCTP endpoint) of the given protocol.
    Msg(EpId, MsgProto),
    /// A TCP listening socket.
    TcpListen(EpId),
    /// A TCP connection.
    Tcp(EpId),
    /// One side of an IPC channel.
    Ipc(ChanId, Side),
}

impl FdKind {
    fn endpoint(self) -> Option<EpId> {
        match self {
            FdKind::Msg(e, _) | FdKind::TcpListen(e) | FdKind::Tcp(e) => Some(e),
            FdKind::Ipc(..) => None,
        }
    }
}

/// Why a process is not runnable.
#[derive(Debug, Clone)]
enum WaitCond {
    /// Queued under a key, woken by the first event on it.
    Key(WaitKey),
    Connect {
        ep: EpId,
        fd: Fd,
    },
    /// Waiting on the descriptors of the pending `Syscall::Poll`.
    Poll,
    Sleep,
}

/// Key under which waiters register for wakeups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WaitKey {
    EpRead(EpId),
    EpWrite(EpId),
    IpcRead(ChanId, Side),
    IpcWrite(ChanId, Side),
}

#[derive(Debug)]
enum ProcState {
    Ready,
    Running {
        core: usize,
        end: SimTime,
        start: SimTime,
    },
    Blocked(WaitCond),
    Exited,
}

#[derive(Debug)]
enum Pending {
    /// First activation: deliver [`SysResult::Start`].
    Fresh,
    /// A syscall to (re)apply once the current burst completes.
    Apply(Syscall),
    /// A result to hand straight to the process.
    Deliver(SysResult),
}

/// A descriptor table; threads share one, processes own one each.
type FdTable = std::rc::Rc<std::cell::RefCell<Vec<Option<FdKind>>>>;

struct ProcEntry {
    proc: Option<Box<dyn Process>>,
    name: String,
    host: HostId,
    nice: Nice,
    state: ProcState,
    fds: FdTable,
    pending: Pending,
    remaining_ns: u64,
    burst_tag: &'static str,
    /// Cancellation token for this process's `Timer` events. It is bumped
    /// whenever the process wakes, arms a timer or is killed, and it never
    /// decreases. A queued timer is live only while its token equals this
    /// one, so a timer that stops matching can never match again: that is
    /// what lets `Kernel::compact_queue` drop it without changing any
    /// outcome. (Bursts need no token: a burst sits in its core's queue
    /// slot, which preemption and `kill` clear.)
    token: u64,
    quantum_left: u64,
    cpu_ns: u64,
}

struct HostSched {
    cores: Vec<Option<ProcId>>,
    last_on_core: Vec<Option<ProcId>>,
    ready: RunQueue,
    busy_ns: u64,
}

impl HostSched {
    fn idle_core(&self) -> Option<usize> {
        self.cores.iter().position(|c| c.is_none())
    }
}

/// The nice values a process may run at, highest priority first.
const NICE_RANGE: std::ops::RangeInclusive<i8> = -20..=19;
const NICE_MIN: i8 = *NICE_RANGE.start();

/// One host's ready processes: a FIFO per nice level and a bitmap of the
/// levels that hold any, as in the Linux 2.6 O(1) scheduler. Bit `i` stands
/// for nice `i - 20`, so the lowest set bit is the best level waiting.
struct RunQueue {
    levels: [VecDeque<ProcId>; 40],
    nonempty: u64,
}

impl RunQueue {
    fn new() -> Self {
        RunQueue {
            levels: std::array::from_fn(|_| VecDeque::new()),
            nonempty: 0,
        }
    }

    fn level(nice: i8) -> usize {
        debug_assert!(NICE_RANGE.contains(&nice), "nice {nice} out of range");
        (nice - NICE_MIN) as usize
    }

    fn push(&mut self, pid: ProcId, nice: i8, front: bool) {
        let level = Self::level(nice);
        let q = &mut self.levels[level];
        if front {
            q.push_front(pid);
        } else {
            q.push_back(pid);
        }
        self.nonempty |= 1 << level;
    }

    /// Takes the first process of the best non-empty level.
    fn pop(&mut self) -> Option<ProcId> {
        let level = self.nonempty.trailing_zeros() as usize;
        let q = self.levels.get_mut(level)?;
        let pid = q.pop_front();
        if q.is_empty() {
            self.nonempty &= !(1 << level);
        }
        pid
    }

    /// The nice value of the best level waiting.
    fn best_nice(&self) -> Option<i8> {
        (self.nonempty != 0).then(|| self.nonempty.trailing_zeros() as i8 + NICE_MIN)
    }

    /// Drops `pid` from its level.
    fn remove(&mut self, pid: ProcId, nice: i8) {
        let level = Self::level(nice);
        let q = &mut self.levels[level];
        q.retain(|&p| p != pid);
        if q.is_empty() {
            self.nonempty &= !(1 << level);
        }
    }
}

/// Below this length the event queue is never compacted.
const COMPACT_FLOOR: usize = 4096;

/// Kernel events on the global queue. A `Burst` always sits in the queue
/// slot of the core it runs on, never in the heap.
enum KEvent {
    Burst { pid: ProcId },
    Timer { pid: ProcId, token: u64 },
    Net(NetEvent),
}

/// Why [`Kernel::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Virtual time reached the requested instant.
    ReachedTime,
    /// The event queue drained: nothing can ever happen again (all
    /// processes exited, blocked, or deadlocked).
    ///
    /// Cancelled timers may still sit in the queue until their instant
    /// (the kernel drops them in bulk only once the queue is large), so
    /// `last_event` can be a dead timer's instant, and a dead timer beyond
    /// the deadline turns this into [`RunOutcome::ReachedTime`]. No
    /// simulated result depends on it: a dead timer does nothing when it
    /// pops. Cancelled bursts never linger: preemption and `kill` remove
    /// them from the queue at once.
    Quiescent {
        /// When the last event ran.
        last_event: SimTime,
    },
}

/// Scheduler-level statistics for a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelStats {
    /// Process-to-core placements that switched processes.
    pub context_switches: u64,
    /// Priority preemptions performed.
    pub preemptions: u64,
    /// Failed lock attempts (spin + sched_yield episodes).
    pub lock_yields: u64,
    /// Blocked-process wakeups.
    pub wakeups: u64,
    /// Syscalls executed.
    pub syscalls: u64,
}

/// The simulated operating system.
pub struct Kernel {
    net: Network,
    queue: EventQueue<KEvent>,
    now: SimTime,
    procs: Vec<ProcEntry>,
    scheds: Vec<HostSched>,
    /// Queue slot of each host's core 0; core `c` bursts in slot
    /// `slot_base[host] + c`.
    slot_base: Vec<usize>,
    chans: Vec<Channel<FdKind>>,
    chan_attach: FastMap<(ChanId, Side), Vec<ProcId>>,
    locks: Vec<Lock>,
    cost: CostModel,
    profilers: Vec<Profiler>,
    waiters_one: FastMap<WaitKey, VecDeque<ProcId>>,
    /// Pollers watching each key, each pid at most once, in the order of
    /// their first registration (which is the order they wake in).
    poll_waiters: FastMap<WaitKey, Vec<ProcId>>,
    connect_waiters: FastMap<EpId, (ProcId, Fd)>,
    /// Descriptors open on each live endpoint; a socket from
    /// [`Kernel::bind_msg`] starts at zero.
    ep_refs: FastMap<EpId, u32>,
    /// An empty buffer `wake_polls` swaps with the list it wakes, so the
    /// list keeps a buffer for the next registration.
    spare_poll: Vec<ProcId>,
    stats: KernelStats,
    /// Timeslice for SCHED_OTHER processes.
    quantum: u64,
    /// Queue length above which arming a timer compacts the queue.
    compact_at: usize,
}

impl Kernel {
    /// Builds a kernel over a fresh network.
    pub fn new(net_cfg: NetConfig, cost: CostModel, seed: u64) -> Self {
        Kernel {
            net: Network::new(net_cfg, seed),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            procs: Vec::new(),
            scheds: Vec::new(),
            slot_base: Vec::new(),
            chans: Vec::new(),
            chan_attach: FastMap::default(),
            locks: Vec::new(),
            cost,
            profilers: Vec::new(),
            waiters_one: FastMap::default(),
            poll_waiters: FastMap::default(),
            connect_waiters: FastMap::default(),
            ep_refs: FastMap::default(),
            spare_poll: Vec::new(),
            stats: KernelStats::default(),
            quantum: 100_000_000, // 100 ms, Linux 2.6 default timeslice
            compact_at: COMPACT_FLOOR,
        }
    }

    // ------------------------------------------------------------- setup

    /// Registers a machine with `cores` CPUs.
    pub fn add_host(&mut self, cores: usize) -> HostId {
        assert!(cores > 0, "a host needs at least one core");
        let id = self.net.add_host();
        let base = self.scheds.iter().map(|s| s.cores.len()).sum();
        self.slot_base.push(base);
        self.scheds.push(HostSched {
            cores: vec![None; cores],
            last_on_core: vec![None; cores],
            ready: RunQueue::new(),
            busy_ns: 0,
        });
        self.profilers.push(Profiler::new());
        id
    }

    /// Creates a bounded bidirectional IPC channel (a unix socketpair whose
    /// per-direction buffer holds `capacity` messages).
    pub fn create_ipc_pair(&mut self, capacity: usize) -> ChanId {
        let id = ChanId(self.chans.len() as u32);
        self.chans.push(Channel::new(capacity));
        id
    }

    /// Creates a named shared-memory spinlock.
    pub fn create_lock(&mut self, name: &'static str) -> LockId {
        let id = LockId(self.locks.len() as u32);
        self.locks.push(Lock::new(name));
        id
    }

    /// Spawns a process on `host` at priority `nice`. It first runs after
    /// the spawn cost elapses.
    pub fn spawn(
        &mut self,
        host: HostId,
        nice: Nice,
        name: impl Into<String>,
        proc: Box<dyn Process>,
    ) -> ProcId {
        let fds = FdTable::default();
        self.spawn_inner(host, nice, name.into(), proc, fds)
    }

    /// Spawns a *thread*: a process sharing the descriptor table of
    /// `share_with`. This models the §6 multi-threaded server architecture,
    /// where any thread can use any descriptor without passing it over IPC.
    pub fn spawn_thread(
        &mut self,
        nice: Nice,
        name: impl Into<String>,
        proc: Box<dyn Process>,
        share_with: ProcId,
    ) -> ProcId {
        let (host, fds) = {
            let peer = &self.procs[share_with.0 as usize];
            (peer.host, peer.fds.clone())
        };
        self.spawn_inner(host, nice, name.into(), proc, fds)
    }

    fn spawn_inner(
        &mut self,
        host: HostId,
        nice: Nice,
        name: String,
        proc: Box<dyn Process>,
        fds: FdTable,
    ) -> ProcId {
        assert!(
            NICE_RANGE.contains(&nice.0),
            "cannot spawn {name:?} at nice {}: nice runs from -20 to 19",
            nice.0
        );
        let pid = ProcId(self.procs.len() as u32);
        self.procs.push(ProcEntry {
            proc: Some(proc),
            name,
            host,
            nice,
            state: ProcState::Ready,
            fds,
            pending: Pending::Fresh,
            remaining_ns: self.cost.spawn,
            burst_tag: "kernel/fork",
            token: 0,
            quantum_left: self.quantum,
            cpu_ns: 0,
        });
        self.enqueue_ready(pid, false);
        self.dispatch(host);
        pid
    }

    /// Binds a message socket at world-building time, for processes that
    /// inherit it: OpenSER's main process binds the SIP socket once and
    /// every forked worker inherits it. Returns the socket's kind, a token
    /// for [`Kernel::spawn_inheriting`] that holds no reference; the socket
    /// stays open while any process holds it.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind_msg(
        &mut self,
        proto: MsgProto,
        host: HostId,
        port: siperf_simnet::Port,
    ) -> Result<FdKind, Errno> {
        let (ep, _) = self.net.msg_bind(proto, host, Some(port))?;
        self.ep_refs.insert(ep, 0);
        Ok(FdKind::Msg(ep, proto))
    }

    /// Spawns a process that inherits `inherit` as it forks: each kind is
    /// installed in the new, empty descriptor table, in order, and `build`
    /// makes the process from their descriptors.
    ///
    /// # Errors
    ///
    /// [`Errno::BadFd`], spawning nothing, if a socket in `inherit` has
    /// closed since it was bound.
    pub fn spawn_inheriting(
        &mut self,
        host: HostId,
        nice: Nice,
        name: impl Into<String>,
        inherit: &[FdKind],
        build: impl FnOnce(&[Fd]) -> Box<dyn Process>,
    ) -> Result<ProcId, Errno> {
        let closed = |ep| !self.ep_refs.contains_key(&ep);
        if inherit.iter().filter_map(|k| k.endpoint()).any(closed) {
            return Err(Errno::BadFd);
        }
        // The new table is empty, so the descriptors are 0, 1, ... in
        // order, and in place before the process first runs.
        let fds: Vec<Fd> = (0..inherit.len() as u32).map(Fd).collect();
        let pid = self.spawn(host, nice, name, build(&fds));
        for &kind in inherit {
            self.install_fd(pid, kind);
        }
        Ok(pid)
    }

    // ----------------------------------------------------- fault injection

    /// Kills a process immediately (`SIGKILL`): frees its core or ready-queue
    /// slot, cancels in-flight bursts and timers, force-releases any locks it
    /// held (robust-futex semantics), closes its descriptors unless threads
    /// still share the table, and marks it exited. Returns `false` if the
    /// process had already exited.
    ///
    /// The process object gets no notification — exactly like a real
    /// `SIGKILL`, which is what makes worker-crash experiments honest: any
    /// in-flight transaction state dies with the process.
    pub fn kill(&mut self, pid: ProcId) -> bool {
        let state = std::mem::replace(&mut self.procs[pid.0 as usize].state, ProcState::Exited);
        match state {
            ProcState::Exited => return false,
            ProcState::Running { core, start, .. } => {
                // Account the partial burst, then free the core.
                let elapsed = (self.now - start).as_nanos();
                let (host, tag) = {
                    let e = &mut self.procs[pid.0 as usize];
                    e.cpu_ns += elapsed;
                    (e.host, e.burst_tag)
                };
                self.queue.clear_slot(self.slot(host, core));
                self.scheds[host.0 as usize].cores[core] = None;
                self.scheds[host.0 as usize].busy_ns += elapsed;
                self.profilers[host.0 as usize].record(tag, elapsed);
            }
            ProcState::Ready => {
                let e = &self.procs[pid.0 as usize];
                self.scheds[e.host.0 as usize].ready.remove(pid, e.nice.0);
            }
            ProcState::Blocked(WaitCond::Connect { ep, .. }) => {
                self.connect_waiters.remove(&ep);
            }
            // Stale waiters_one/poll_waiters entries are tolerated: wakers
            // re-check that the process is still validly blocked.
            ProcState::Blocked(_) => {}
        }
        self.procs[pid.0 as usize].token += 1; // cancels any pending timer
        for lock in &mut self.locks {
            lock.force_release(pid);
        }
        let host = self.procs[pid.0 as usize].host;
        self.exit_proc(pid);
        self.dispatch(host);
        true
    }

    /// True until a process exits (or is killed).
    pub fn alive(&self, pid: ProcId) -> bool {
        !matches!(self.procs[pid.0 as usize].state, ProcState::Exited)
    }

    /// Applies a fault to the network fabric at the current virtual time,
    /// then drains the readiness outcomes it produced so blocked processes
    /// observe the fault immediately (an injected RST must wake blocked
    /// readers just like a real one).
    pub fn inject_fault<R>(&mut self, f: impl FnOnce(&mut Network, SimTime) -> R) -> R {
        let now = self.now;
        let r = f(&mut self.net, now);
        self.drain_net();
        r
    }

    // ---------------------------------------------------------- accessors

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read-only view of the network fabric.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// Scheduler statistics.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// The per-host CPU profile (OProfile equivalent).
    pub fn profiler(&self, host: HostId) -> &Profiler {
        &self.profilers[host.0 as usize]
    }

    /// Total CPU nanoseconds consumed by a process.
    pub fn proc_cpu_ns(&self, pid: ProcId) -> u64 {
        self.procs[pid.0 as usize].cpu_ns
    }

    /// The name a process was spawned with.
    pub fn proc_name(&self, pid: ProcId) -> &str {
        &self.procs[pid.0 as usize].name
    }

    /// Lock state for reports.
    pub fn lock(&self, id: LockId) -> &Lock {
        &self.locks[id.0 as usize]
    }

    /// Busy core-nanoseconds accumulated on a host.
    pub fn host_busy_ns(&self, host: HostId) -> u64 {
        self.scheds[host.0 as usize].busy_ns
    }

    /// Core count of a host.
    pub fn host_cores(&self, host: HostId) -> usize {
        self.scheds[host.0 as usize].cores.len()
    }

    /// Human-readable description of every non-exited process that cannot
    /// currently run — the first thing to look at when a run goes quiescent.
    pub fn blocked_summary(&self) -> Vec<(ProcId, String)> {
        self.procs
            .iter()
            .enumerate()
            .filter_map(|(i, p)| {
                let what = match &p.state {
                    ProcState::Blocked(WaitCond::Key(key)) => format!("{key:?}"),
                    ProcState::Blocked(cond) => format!("{cond:?}"),
                    _ => return None,
                };
                Some((ProcId(i as u32), format!("{} blocked on {what}", p.name)))
            })
            .collect()
    }

    /// Detects a cycle of processes blocked on each other's IPC channels —
    /// the §6 supervisor/worker deadlock. Returns the processes in one
    /// cycle if found, starting at the cycle's lowest pid. The search
    /// visits processes in pid order, so the same kernel state always
    /// reports the same cycle.
    pub fn find_ipc_deadlock(&self) -> Option<Vec<ProcId>> {
        // Wait-for edges: a process blocked on a channel operation waits for
        // every process attached to the other side.
        let mut edges: BTreeMap<ProcId, Vec<ProcId>> = BTreeMap::new();
        for (i, p) in self.procs.iter().enumerate() {
            let pid = ProcId(i as u32);
            let (chan, side) = match &p.state {
                ProcState::Blocked(WaitCond::Key(
                    WaitKey::IpcRead(c, s) | WaitKey::IpcWrite(c, s),
                )) => (*c, *s),
                _ => continue,
            };
            let others = self
                .chan_attach
                .get(&(chan, side.other()))
                .cloned()
                .unwrap_or_default();
            edges.insert(pid, others);
        }
        // DFS cycle detection restricted to IPC-blocked processes.
        fn dfs(
            node: ProcId,
            edges: &BTreeMap<ProcId, Vec<ProcId>>,
            visiting: &mut Vec<ProcId>,
            done: &mut Vec<ProcId>,
        ) -> Option<Vec<ProcId>> {
            if done.contains(&node) {
                return None;
            }
            if let Some(pos) = visiting.iter().position(|&n| n == node) {
                return Some(visiting[pos..].to_vec());
            }
            visiting.push(node);
            if let Some(next) = edges.get(&node) {
                for &n in next {
                    if edges.contains_key(&n) {
                        if let Some(cycle) = dfs(n, edges, visiting, done) {
                            return Some(cycle);
                        }
                    }
                }
            }
            visiting.pop();
            done.push(node);
            None
        }
        let mut done = Vec::new();
        let mut cycle = edges
            .keys()
            .find_map(|&node| dfs(node, &edges, &mut Vec::new(), &mut done))?;
        let lowest = (0..cycle.len()).min_by_key(|&i| cycle[i])?;
        cycle.rotate_left(lowest);
        Some(cycle)
    }

    // ------------------------------------------------------------ running

    /// Runs the simulation until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        loop {
            let Some(ts) = self.queue.peek_time() else {
                let last = self.now;
                self.now = deadline.max(self.now);
                return RunOutcome::Quiescent { last_event: last };
            };
            if ts > deadline {
                self.now = deadline;
                return RunOutcome::ReachedTime;
            }
            let (t, ev) = self.queue.pop().expect("peeked");
            self.now = t;
            match ev {
                KEvent::Burst { pid } => self.on_burst(pid),
                KEvent::Timer { pid, token } => self.on_timer(pid, token),
                KEvent::Net(nev) => {
                    self.net.handle_event(t, nev);
                    self.drain_net();
                }
            }
        }
    }

    // -------------------------------------------------------- scheduling

    fn enqueue_ready(&mut self, pid: ProcId, front: bool) {
        let e = &mut self.procs[pid.0 as usize];
        e.state = ProcState::Ready;
        self.scheds[e.host.0 as usize]
            .ready
            .push(pid, e.nice.0, front);
    }

    fn dispatch(&mut self, host: HostId) {
        loop {
            let sched = &mut self.scheds[host.0 as usize];
            let Some(core) = sched.idle_core() else {
                break;
            };
            let Some(pid) = sched.ready.pop() else {
                break;
            };
            self.start_burst(pid, core, true);
        }
        self.maybe_preempt(host);
    }

    /// Preempts the lowest-priority running process if a strictly
    /// higher-priority process is waiting.
    fn maybe_preempt(&mut self, host: HostId) {
        loop {
            let sched = &self.scheds[host.0 as usize];
            let Some(best) = sched.ready.best_nice() else {
                return;
            };
            // Find the running process with the largest nice value.
            let victim = sched
                .cores
                .iter()
                .filter_map(|c| *c)
                .max_by_key(|pid| self.procs[pid.0 as usize].nice.0);
            let Some(victim) = victim else {
                return;
            };
            let victim_nice = self.procs[victim.0 as usize].nice.0;
            if best >= victim_nice {
                return;
            }
            self.preempt(victim);
            self.stats.preemptions += 1;
            // Fill the freed core with the high-priority process.
            let sched = &mut self.scheds[host.0 as usize];
            let (core, pid) = match (sched.idle_core(), sched.ready.pop()) {
                (Some(c), Some(p)) => (c, p),
                _ => return,
            };
            self.start_burst(pid, core, true);
        }
    }

    fn preempt(&mut self, pid: ProcId) {
        let e = &mut self.procs[pid.0 as usize];
        let ProcState::Running { core, end, start } = e.state else {
            panic!("preempting a non-running process");
        };
        let elapsed = (self.now - start).as_nanos();
        let remaining = (end - self.now).as_nanos();
        e.remaining_ns = remaining.max(self.cost.compute_min);
        e.cpu_ns += elapsed;
        let host = e.host;
        let tag = e.burst_tag;
        self.queue.clear_slot(self.slot(host, core));
        self.scheds[host.0 as usize].cores[core] = None;
        self.scheds[host.0 as usize].busy_ns += elapsed;
        self.profilers[host.0 as usize].record(tag, elapsed);
        self.enqueue_ready(pid, true); // preempted tasks keep queue headship
    }

    fn start_burst(&mut self, pid: ProcId, core: usize, from_queue: bool) {
        let quantum = self.quantum;
        let e = &mut self.procs[pid.0 as usize];
        let host = e.host;
        let sched = &mut self.scheds[host.0 as usize];
        let switched = sched.last_on_core[core] != Some(pid);
        let cs = if switched && from_queue {
            self.stats.context_switches += 1;
            self.cost.context_switch
        } else {
            0
        };
        let e = &mut self.procs[pid.0 as usize];
        if from_queue && e.quantum_left == 0 {
            e.quantum_left = quantum;
        }
        let burst = e.remaining_ns + cs;
        let end = self.now + SimDuration::from_nanos(burst);
        e.state = ProcState::Running {
            core,
            end,
            start: self.now,
        };
        let sched = &mut self.scheds[host.0 as usize];
        sched.cores[core] = Some(pid);
        sched.last_on_core[core] = Some(pid);
        let slot = self.slot(host, core);
        self.queue.schedule_slot(slot, end, KEvent::Burst { pid });
    }

    /// The queue slot of `core` on `host`.
    fn slot(&self, host: HostId, core: usize) -> usize {
        self.slot_base[host.0 as usize] + core
    }

    fn on_burst(&mut self, pid: ProcId) {
        let (host, core, elapsed, tag) = {
            let e = &mut self.procs[pid.0 as usize];
            let ProcState::Running { core, end, start } = e.state else {
                panic!("burst for {pid:?} found it {:?}, not running", e.state);
            };
            debug_assert!(
                end == self.now && self.scheds[e.host.0 as usize].cores[core] == Some(pid),
                "burst for {pid:?} completing off-schedule or off its core"
            );
            let elapsed = (self.now - start).as_nanos();
            e.cpu_ns += elapsed;
            e.quantum_left = e.quantum_left.saturating_sub(elapsed);
            (e.host, core, elapsed, e.burst_tag)
        };
        self.scheds[host.0 as usize].cores[core] = None;
        self.scheds[host.0 as usize].busy_ns += elapsed;
        self.profilers[host.0 as usize].record(tag, elapsed);

        // Perform the syscall whose cost was just paid.
        let pending = std::mem::replace(&mut self.procs[pid.0 as usize].pending, Pending::Fresh);
        match pending {
            Pending::Fresh => self.resume_proc(pid, SysResult::Start, core),
            Pending::Deliver(result) => self.resume_proc(pid, result, core),
            Pending::Apply(syscall) => self.apply_syscall(pid, syscall, core),
        }
        self.dispatch(host);
    }

    fn on_timer(&mut self, pid: ProcId, token: u64) {
        if self.procs[pid.0 as usize].token != token {
            return;
        }
        let result = match &self.procs[pid.0 as usize].state {
            ProcState::Blocked(WaitCond::Sleep) => SysResult::Done,
            ProcState::Blocked(WaitCond::Poll) => SysResult::TimedOut,
            other => {
                debug_assert!(
                    false,
                    "live timer for {pid:?} found it {other:?}, not sleeping or polling"
                );
                return;
            }
        };
        self.wake(pid, Some(result));
    }

    /// Arms the `Sleep`/`Poll` timer of `pid` for instant `at`, cancelling
    /// any timer it armed before. A timer cancelled by an early wake stays
    /// queued until its instant, so once the queue holds more than twice
    /// what the last compaction left (and more than `COMPACT_FLOOR`
    /// events) the dead events are dropped.
    fn arm_timer(&mut self, pid: ProcId, at: SimTime) {
        let e = &mut self.procs[pid.0 as usize];
        e.token += 1;
        let token = e.token;
        self.queue.schedule(at, KEvent::Timer { pid, token });
        if self.queue.len() > self.compact_at {
            self.compact_queue();
        }
    }

    /// Drops every `Timer` event whose token is stale. Tokens only grow, so
    /// none of them could have fired; live events keep their pop order.
    fn compact_queue(&mut self) {
        let procs = &self.procs;
        self.queue.retain(|ev| match *ev {
            KEvent::Timer { pid, token } => procs[pid.0 as usize].token == token,
            KEvent::Burst { .. } | KEvent::Net(_) => true,
        });
        self.compact_at = COMPACT_FLOOR.max(2 * self.queue.len());
    }

    /// Calls into the process for its next syscall and begins charging it.
    /// A process that still has quantum may continue on `core`, the core
    /// it just ran on.
    fn resume_proc(&mut self, pid: ProcId, result: SysResult, core: usize) {
        let (host, mut proc_box) = {
            let e = &mut self.procs[pid.0 as usize];
            (e.host, e.proc.take())
        };
        let mut ctx = ResumeCtx {
            now: self.now,
            pid,
            host,
        };
        let syscall = proc_box
            .as_mut()
            .expect("process re-entered")
            .resume(&mut ctx, result);
        self.procs[pid.0 as usize].proc = proc_box;
        self.stats.syscalls += 1;

        if matches!(syscall, Syscall::Exit) {
            self.exit_proc(pid);
            return;
        }

        let (cost, tag) = self.cost_of(pid, &syscall);
        {
            let e = &mut self.procs[pid.0 as usize];
            e.pending = Pending::Apply(syscall);
            e.remaining_ns = cost;
            e.burst_tag = tag;
        }
        self.place(pid, core);
    }

    /// Puts a runnable process either straight back on its previous core
    /// (still has quantum, nobody better is waiting) or at the back of the
    /// ready queue.
    fn place(&mut self, pid: ProcId, core: usize) {
        let (host, quantum_left, nice) = {
            let e = &self.procs[pid.0 as usize];
            (e.host, e.quantum_left, e.nice.0)
        };
        let sched = &self.scheds[host.0 as usize];
        let core_free = sched.cores.get(core).is_some_and(|slot| slot.is_none());
        let better_waiting = sched.ready.best_nice().is_some_and(|n| n < nice);
        let expired = quantum_left == 0;
        if core_free && !better_waiting && !expired {
            self.start_burst(pid, core, false);
        } else {
            if expired {
                self.procs[pid.0 as usize].quantum_left = self.quantum;
            }
            self.enqueue_ready(pid, false);
            self.dispatch(host);
        }
    }

    fn exit_proc(&mut self, pid: ProcId) {
        // Threads share a descriptor table: only the last member of the
        // group to exit tears it down.
        let table = std::mem::take(&mut self.procs[pid.0 as usize].fds);
        if std::rc::Rc::strong_count(&table) == 1 {
            let fds: Vec<Fd> = {
                let t = table.borrow();
                (0..t.len() as u32)
                    .map(Fd)
                    .filter(|fd| t[fd.0 as usize].is_some())
                    .collect()
            };
            self.procs[pid.0 as usize].fds = table;
            for fd in fds {
                let _ = self.close_fd(pid, fd);
            }
        }
        for lock in &self.locks {
            debug_assert_ne!(
                lock.holder(),
                Some(pid),
                "process exited holding lock {}",
                lock.name
            );
        }
        self.procs[pid.0 as usize].state = ProcState::Exited;
        self.drain_net();
    }

    // ------------------------------------------------------------ waking

    /// Makes a blocked process runnable. `deliver` overrides the pending
    /// operation with a direct result; `None` re-applies the blocked
    /// syscall.
    fn wake(&mut self, pid: ProcId, deliver: Option<SysResult>) {
        let host = {
            let e = &mut self.procs[pid.0 as usize];
            debug_assert!(matches!(e.state, ProcState::Blocked(_)));
            e.token += 1; // cancel any stale timer
            if let Some(result) = deliver {
                e.pending = Pending::Deliver(result);
            }
            e.remaining_ns = self.cost.wake_retry;
            e.burst_tag = "sched/wakeup";
            e.quantum_left = self.quantum;
            e.host
        };
        self.stats.wakeups += 1;
        self.enqueue_ready(pid, false);
        self.dispatch(host);
    }

    fn block(&mut self, pid: ProcId, syscall: Syscall, cond: WaitCond) {
        match cond {
            WaitCond::Key(key) => self.waiters_one.entry(key).or_default().push_back(pid),
            WaitCond::Connect { ep, fd } => {
                self.connect_waiters.insert(ep, (pid, fd));
            }
            WaitCond::Poll | WaitCond::Sleep => {}
        }
        if let (WaitCond::Poll, Syscall::Poll { fds, .. }) = (&cond, &syscall) {
            for fd in fds {
                if let Ok(kind) = self.fd_kind(pid, *fd) {
                    let key = match kind {
                        FdKind::Ipc(c, s) => WaitKey::IpcRead(c, s),
                        other => WaitKey::EpRead(other.endpoint().expect("net fd")),
                    };
                    // A registration from an earlier wait may still stand
                    // (only the key that fires clears its list); it already
                    // holds this poller's place.
                    let list = self.poll_waiters.entry(key).or_default();
                    if !list.contains(&pid) {
                        list.push(pid);
                    }
                }
            }
        }
        let e = &mut self.procs[pid.0 as usize];
        e.pending = Pending::Apply(syscall);
        e.state = ProcState::Blocked(cond);
    }

    /// Whether `pid` still waits under `key`; queues keep stale entries.
    fn blocked_on(&self, pid: ProcId, key: WaitKey) -> bool {
        matches!(
            &self.procs[pid.0 as usize].state,
            ProcState::Blocked(WaitCond::Key(k)) if *k == key
        )
    }

    /// Wakes the first process validly blocked under `key`.
    fn wake_one(&mut self, key: WaitKey) {
        while let Some(pid) = self.waiters_one.get_mut(&key).and_then(VecDeque::pop_front) {
            if self.blocked_on(pid, key) {
                self.wake(pid, None);
                return;
            }
        }
    }

    /// Wakes every process validly blocked under `key` (writers after a
    /// window opens, where fairness races are resolved by retry).
    fn wake_all(&mut self, key: WaitKey) {
        let Some(queue) = self.waiters_one.get_mut(&key) else {
            return;
        };
        let pids: Vec<ProcId> = queue.drain(..).collect();
        for pid in pids {
            if self.blocked_on(pid, key) {
                self.wake(pid, None);
            }
        }
    }

    /// Wakes pollers watching `key`.
    fn wake_polls(&mut self, key: WaitKey) {
        let Some(list) = self.poll_waiters.get_mut(&key) else {
            return;
        };
        // Waking never blocks anyone, so nothing registers under `key`
        // while the taken list is walked.
        std::mem::swap(list, &mut self.spare_poll);
        let mut pids = std::mem::take(&mut self.spare_poll);
        for pid in pids.drain(..) {
            let valid = matches!(
                &self.procs[pid.0 as usize].state,
                ProcState::Blocked(WaitCond::Poll)
            );
            if valid {
                self.wake(pid, None);
            }
        }
        self.spare_poll = pids;
    }

    fn drain_net(&mut self) {
        for (t, ev) in self.net.take_events() {
            self.queue.schedule(t.max(self.now), KEvent::Net(ev));
        }
        let outcomes = self.net.take_outcomes();
        for outcome in outcomes {
            match outcome {
                NetOutcome::Readable(ep) => {
                    self.wake_one(WaitKey::EpRead(ep));
                    self.wake_polls(WaitKey::EpRead(ep));
                }
                NetOutcome::Writable(ep) => {
                    self.wake_all(WaitKey::EpWrite(ep));
                }
                NetOutcome::ConnectOk(ep) => {
                    if let Some((pid, fd)) = self.connect_waiters.remove(&ep) {
                        self.wake(pid, Some(SysResult::NewFd(fd)));
                    }
                }
                NetOutcome::ConnectErr(ep, errno) => {
                    if let Some((pid, fd)) = self.connect_waiters.remove(&ep) {
                        let _ = self.close_fd(pid, fd);
                        self.wake(pid, Some(SysResult::Err(errno)));
                    }
                }
            }
        }
    }

    // ------------------------------------------------------- descriptors

    fn install_fd(&mut self, pid: ProcId, kind: FdKind) -> Fd {
        if let Some(ep) = kind.endpoint() {
            *self.ep_refs.entry(ep).or_insert(0) += 1;
        }
        if let FdKind::Ipc(chan, side) = kind {
            self.chan_attach.entry((chan, side)).or_default().push(pid);
        }
        let mut fds = self.procs[pid.0 as usize].fds.borrow_mut();
        let slot = fds.iter().position(|f| f.is_none());
        match slot {
            Some(i) => {
                fds[i] = Some(kind);
                Fd(i as u32)
            }
            None => {
                fds.push(Some(kind));
                Fd((fds.len() - 1) as u32)
            }
        }
    }

    fn fd_kind(&self, pid: ProcId, fd: Fd) -> Result<FdKind, Errno> {
        self.procs[pid.0 as usize]
            .fds
            .borrow()
            .get(fd.0 as usize)
            .copied()
            .flatten()
            .ok_or(Errno::BadFd)
    }

    fn close_fd(&mut self, pid: ProcId, fd: Fd) -> Result<(), Errno> {
        let kind = self.procs[pid.0 as usize]
            .fds
            .borrow_mut()
            .get_mut(fd.0 as usize)
            .and_then(|slot| slot.take())
            .ok_or(Errno::BadFd)?;
        if let FdKind::Ipc(chan, side) = kind {
            if let Some(list) = self.chan_attach.get_mut(&(chan, side)) {
                if let Some(pos) = list.iter().position(|&p| p == pid) {
                    list.remove(pos);
                }
            }
        }
        if let Some(ep) = kind.endpoint() {
            self.release_ep_ref(ep);
        }
        Ok(())
    }

    /// Drops one reference to a network endpoint, closing it at zero.
    fn release_ep_ref(&mut self, ep: EpId) {
        let refs = self.ep_refs.get_mut(&ep).expect("untracked endpoint");
        *refs -= 1;
        if *refs == 0 {
            self.ep_refs.remove(&ep);
            self.net.close(self.now, ep);
            // Wakes the close raises fire first; after them nothing can
            // become readable or writable on `ep`, so its wait keys go.
            self.drain_net();
            self.poll_waiters.remove(&WaitKey::EpRead(ep));
            for key in [WaitKey::EpRead(ep), WaitKey::EpWrite(ep)] {
                // Only stale entries may remain, such as a reader killed
                // while blocked on the socket its exit is closing.
                let queue = self.waiters_one.remove(&key).unwrap_or_default();
                debug_assert!(
                    queue.iter().all(|&pid| !self.blocked_on(pid, key)),
                    "a process still waits on closed {key:?}"
                );
            }
        }
    }

    // ---------------------------------------------------------- syscalls

    fn cost_of(&self, pid: ProcId, s: &Syscall) -> (u64, &'static str) {
        let c = &self.cost;
        let (ns, tag) = match s {
            Syscall::Compute { ns, tag } => (*ns, *tag),
            Syscall::Sleep(_) | Syscall::SleepUntil(_) => (c.sleep, "kernel/nanosleep"),
            Syscall::Exit => (c.compute_min, "kernel/exit"),
            Syscall::MsgBind { .. } => (c.bind, "kernel/bind"),
            // The protocol was fixed at bind; the descriptor carries it.
            Syscall::MsgSend { fd, .. } => match self.fd_kind(pid, *fd) {
                Ok(FdKind::Msg(_, MsgProto::Sctp)) => (c.sctp_send, "kernel/sctp_send"),
                _ => (c.udp_send, "kernel/udp_send"),
            },
            Syscall::MsgRecv { fd } => match self.fd_kind(pid, *fd) {
                Ok(FdKind::Msg(_, MsgProto::Sctp)) => (c.sctp_recv, "kernel/sctp_recv"),
                _ => (c.udp_recv, "kernel/udp_recv"),
            },
            Syscall::TcpListen { .. } => (c.bind, "kernel/listen"),
            Syscall::TcpConnect { .. } => (c.tcp_connect, "kernel/tcp_connect"),
            Syscall::TcpAccept { .. } => (c.tcp_accept, "kernel/tcp_accept"),
            Syscall::TcpSend { .. } => (c.tcp_send, "kernel/tcp_send"),
            Syscall::TcpRecv { .. } => (c.tcp_recv, "kernel/tcp_recv"),
            Syscall::Close { fd } => match self.fd_kind(pid, *fd) {
                // TCP teardown is costlier than releasing other sockets.
                Ok(FdKind::Tcp(_)) => (c.tcp_close, "kernel/tcp_close"),
                _ => (c.close, "kernel/close"),
            },
            Syscall::Poll { fds, .. } => (
                c.poll_base + c.poll_per_ready * fds.len() as u64,
                "kernel/epoll_wait",
            ),
            Syscall::IpcAttach { .. } => (c.ipc_attach, "kernel/socketpair"),
            Syscall::IpcSend { msg, .. } => (
                c.ipc_send
                    + if msg.fd.is_some() {
                        c.ipc_fd_install
                    } else {
                        0
                    },
                "kernel/ipc_send",
            ),
            Syscall::IpcRecv { .. } => (c.ipc_recv, "kernel/ipc_recv"),
            Syscall::LockAcquire { .. } => (c.lock_acquire, "kernel/lock_acquire"),
            Syscall::LockRelease { .. } => (c.lock_release, "kernel/lock_release"),
        };
        (ns.max(c.compute_min) + c.syscall_base_for(s), tag)
    }

    fn apply_syscall(&mut self, pid: ProcId, syscall: Syscall, core: usize) {
        use Syscall as S;
        let host = self.procs[pid.0 as usize].host;
        let result: Result<SysResult, WaitCond> = match &syscall {
            S::Compute { .. } => Ok(SysResult::Done),
            S::Sleep(d) => {
                if d.is_zero() {
                    Ok(SysResult::Done)
                } else {
                    self.arm_timer(pid, self.now + *d);
                    Err(WaitCond::Sleep)
                }
            }
            S::SleepUntil(t) => {
                if *t <= self.now {
                    Ok(SysResult::Done)
                } else {
                    self.arm_timer(pid, *t);
                    Err(WaitCond::Sleep)
                }
            }
            S::Exit => unreachable!("Exit handled at resume"),
            S::MsgBind { proto, port } => match self.net.msg_bind(*proto, host, *port) {
                Ok((ep, chosen)) => {
                    let fd = self.install_fd(pid, FdKind::Msg(ep, *proto));
                    Ok(match port {
                        None => SysResult::NewFdPort { fd, port: chosen },
                        Some(_) => SysResult::NewFd(fd),
                    })
                }
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::MsgSend { fd, to, data } => {
                let sent = match self.fd_kind(pid, *fd) {
                    // Each protocol keeps its own send rule.
                    Ok(FdKind::Msg(ep, MsgProto::Udp)) => {
                        self.net.udp_send(self.now, ep, *to, data.clone())
                    }
                    Ok(FdKind::Msg(ep, MsgProto::Sctp)) => {
                        self.net.sctp_send(self.now, ep, *to, data.clone())
                    }
                    Ok(_) => Err(Errno::InvalidOp),
                    Err(e) => Err(e),
                };
                Ok(match sent {
                    Ok(()) => SysResult::Done,
                    Err(e) => SysResult::Err(e),
                })
            }
            S::MsgRecv { fd } => match self.fd_kind(pid, *fd) {
                Ok(FdKind::Msg(ep, _)) => match self.net.msg_try_recv(ep) {
                    Ok(d) => Ok(SysResult::Datagram {
                        from: d.from,
                        data: d.data,
                    }),
                    Err(Errno::WouldBlock) => Err(WaitCond::Key(WaitKey::EpRead(ep))),
                    Err(e) => Ok(SysResult::Err(e)),
                },
                Ok(_) => Ok(SysResult::Err(Errno::InvalidOp)),
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::TcpListen { port, backlog } => match self.net.tcp_listen(host, *port, *backlog) {
                Ok(ep) => Ok(SysResult::NewFd(
                    self.install_fd(pid, FdKind::TcpListen(ep)),
                )),
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::TcpConnect { to } => match self.net.tcp_connect(self.now, host, *to) {
                Ok(ep) => {
                    let fd = self.install_fd(pid, FdKind::Tcp(ep));
                    Err(WaitCond::Connect { ep, fd })
                }
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::TcpAccept { fd } => match self.fd_kind(pid, *fd) {
                Ok(FdKind::TcpListen(ep)) => match self.net.tcp_try_accept(ep) {
                    Ok((conn, peer)) => Ok(SysResult::Accepted {
                        fd: self.install_fd(pid, FdKind::Tcp(conn)),
                        peer,
                    }),
                    Err(Errno::WouldBlock) => Err(WaitCond::Key(WaitKey::EpRead(ep))),
                    Err(e) => Ok(SysResult::Err(e)),
                },
                Ok(_) => Ok(SysResult::Err(Errno::InvalidOp)),
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::TcpSend { fd, data } => match self.fd_kind(pid, *fd) {
                Ok(FdKind::Tcp(ep)) => match self.net.tcp_send(self.now, ep, data.clone()) {
                    Ok(()) => Ok(SysResult::Done),
                    Err(Errno::WouldBlock) => Err(WaitCond::Key(WaitKey::EpWrite(ep))),
                    Err(e) => Ok(SysResult::Err(e)),
                },
                Ok(_) => Ok(SysResult::Err(Errno::InvalidOp)),
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::TcpRecv { fd, max } => match self.fd_kind(pid, *fd) {
                Ok(FdKind::Tcp(ep)) => match self.net.tcp_try_recv(ep, *max) {
                    Ok((data, eof)) => {
                        if data.is_empty() && eof {
                            Ok(SysResult::Eof)
                        } else {
                            Ok(SysResult::Data(data))
                        }
                    }
                    Err(Errno::WouldBlock) => Err(WaitCond::Key(WaitKey::EpRead(ep))),
                    Err(e) => Ok(SysResult::Err(e)),
                },
                Ok(_) => Ok(SysResult::Err(Errno::InvalidOp)),
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::Close { fd } => match self.close_fd(pid, *fd) {
                Ok(()) => Ok(SysResult::Done),
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::Poll { fds, timeout } => {
                let mut ready = Vec::new();
                for fd in fds {
                    if let Ok(kind) = self.fd_kind(pid, *fd) {
                        let is_ready = match kind {
                            FdKind::Ipc(chan, side) => {
                                self.chans[chan.0 as usize].pending_for(side) > 0
                            }
                            other => self.net.readable(other.endpoint().expect("net fd")),
                        };
                        if is_ready {
                            ready.push(*fd);
                        }
                    }
                }
                if !ready.is_empty() {
                    Ok(SysResult::Ready(ready))
                } else {
                    if let Some(d) = timeout {
                        self.arm_timer(pid, self.now + *d);
                    }
                    Err(WaitCond::Poll)
                }
            }
            S::IpcAttach { chan, side } => {
                if (chan.0 as usize) < self.chans.len() {
                    Ok(SysResult::NewFd(
                        self.install_fd(pid, FdKind::Ipc(*chan, *side)),
                    ))
                } else {
                    Ok(SysResult::Err(Errno::BadFd))
                }
            }
            S::IpcSend { fd, msg } => match self.fd_kind(pid, *fd) {
                Ok(FdKind::Ipc(chan, side)) => self.ipc_send(pid, chan, side, *msg),
                Ok(_) => Ok(SysResult::Err(Errno::InvalidOp)),
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::IpcRecv { fd } => match self.fd_kind(pid, *fd) {
                Ok(FdKind::Ipc(chan, side)) => {
                    match self.chans[chan.0 as usize].recv_at(side) {
                        Some(parcel) => {
                            let mut msg = parcel.msg;
                            msg.fd = parcel
                                .passed
                                .map(|kind| self.install_fd_transfer(pid, kind));
                            // Senders towards us may be blocked on the queue
                            // we just drained.
                            self.wake_all(WaitKey::IpcWrite(chan, side.other()));
                            Ok(SysResult::Ipc(msg))
                        }
                        None => Err(WaitCond::Key(WaitKey::IpcRead(chan, side))),
                    }
                }
                Ok(_) => Ok(SysResult::Err(Errno::InvalidOp)),
                Err(e) => Ok(SysResult::Err(e)),
            },
            S::LockAcquire { lock } => {
                if self.locks[lock.0 as usize].try_acquire(pid) {
                    Ok(SysResult::Done)
                } else {
                    // Spin failed: charge a spin+sched_yield episode, go to
                    // the back of the queue, retry when scheduled again.
                    self.stats.lock_yields += 1;
                    let e = &mut self.procs[pid.0 as usize];
                    e.pending = Pending::Apply(syscall.clone());
                    e.remaining_ns = self.cost.lock_spin_yield;
                    e.burst_tag = "kernel/sched_yield";
                    self.enqueue_ready(pid, false);
                    self.dispatch(host);
                    return;
                }
            }
            S::LockRelease { lock } => {
                self.locks[lock.0 as usize].release(pid);
                Ok(SysResult::Done)
            }
        };

        self.drain_net();
        match result {
            Ok(result) => self.resume_proc(pid, result, core),
            Err(cond) => self.block(pid, syscall, cond),
        }
    }

    fn ipc_send(
        &mut self,
        pid: ProcId,
        chan: ChanId,
        side: Side,
        msg: IpcMsg,
    ) -> Result<SysResult, WaitCond> {
        if self.chans[chan.0 as usize].full_towards(side) {
            return Err(WaitCond::Key(WaitKey::IpcWrite(chan, side)));
        }
        // Resolve the passed descriptor now (SCM_RIGHTS pins the object even
        // if the sender closes its copy before delivery).
        let passed = match msg.fd {
            Some(passed_fd) => match self.fd_kind(pid, passed_fd) {
                Ok(kind @ (FdKind::Msg(..) | FdKind::Tcp(_) | FdKind::TcpListen(_))) => {
                    let ep = kind.endpoint().expect("net fd");
                    *self.ep_refs.entry(ep).or_insert(0) += 1;
                    Some(kind)
                }
                Ok(FdKind::Ipc(..)) => return Ok(SysResult::Err(Errno::InvalidOp)),
                Err(e) => return Ok(SysResult::Err(e)),
            },
            None => None,
        };
        self.chans[chan.0 as usize]
            .send_from(side, Parcel { msg, passed })
            .unwrap_or_else(|_| unreachable!("checked capacity above"));
        self.wake_one(WaitKey::IpcRead(chan, side.other()));
        self.wake_polls(WaitKey::IpcRead(chan, side.other()));
        Ok(SysResult::Done)
    }

    /// Installs a descriptor whose endpoint reference was already taken at
    /// send time (ownership transfer, no additional ref).
    fn install_fd_transfer(&mut self, pid: ProcId, kind: FdKind) -> Fd {
        // `install_fd` takes a fresh reference; compensate for the one the
        // parcel already carried.
        let fd = self.install_fd(pid, kind);
        if let Some(ep) = kind.endpoint() {
            let refs = self.ep_refs.get_mut(&ep).expect("tracked endpoint");
            *refs -= 1;
        }
        fd
    }
}

impl CostModel {
    /// The base mode-switch overhead, applied to every real syscall but not
    /// to pure compute bursts.
    fn syscall_base_for(&self, s: &Syscall) -> u64 {
        match s {
            Syscall::Compute { .. } => 0,
            _ => self.syscall_base,
        }
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("now", &self.now)
            .field("procs", &self.procs.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    //! Queue compaction, checked against the queue's real length; bursts
    //! in their cores' queue slots; the run queue and poll registrations.

    use std::cell::RefCell;
    use std::rc::Rc;

    use siperf_simnet::addr::SockAddr;
    use siperf_simnet::endpoint::bytes_from;

    use super::*;

    /// Datagram arrivals a poller saw: (virtual time, sequence number).
    type Arrivals = Rc<RefCell<Vec<(SimTime, u32)>>>;

    const POLL_TIMEOUT: SimDuration = SimDuration::from_secs(10);
    const SPACING: SimDuration = SimDuration::from_micros(500);

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(n)
    }

    fn us(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(n)
    }

    /// A kernel with jitter-free links, so arrival instants are exact.
    fn exact_kernel() -> Kernel {
        let net = NetConfig {
            latency_jitter: SimDuration::ZERO,
            ..NetConfig::lan()
        };
        Kernel::new(net, CostModel::free(), 9)
    }

    /// Spawns a process that polls one UDP socket on `port` with a 10 s
    /// timeout, records every datagram it reads, and exits on a timeout.
    /// Each datagram wakes it early, leaving its previous timer dead.
    fn spawn_poller(k: &mut Kernel, host: HostId, port: u16) -> (ProcId, Arrivals) {
        let got = Arrivals::default();
        let log = got.clone();
        let mut fd = Fd(0);
        let poll = move |fd| Syscall::Poll {
            fds: vec![fd],
            timeout: Some(POLL_TIMEOUT),
        };
        let pid = k.spawn(
            host,
            Nice::NORMAL,
            "poller",
            Box::new(move |ctx: &mut ResumeCtx, last: SysResult| match last {
                SysResult::Start => Syscall::MsgBind {
                    proto: MsgProto::Udp,
                    port: Some(port),
                },
                SysResult::NewFd(f) => {
                    fd = f;
                    poll(fd)
                }
                SysResult::Ready(_) => Syscall::MsgRecv { fd },
                SysResult::Datagram { data, .. } => {
                    let seq = u32::from_le_bytes(data[..4].try_into().expect("4-byte payload"));
                    log.borrow_mut().push((ctx.now, seq));
                    poll(fd)
                }
                SysResult::TimedOut => Syscall::Exit,
                other => panic!("poller got {other:?}"),
            }),
        );
        (pid, got)
    }

    /// Sends datagrams `seqs` to `to` from a bare endpoint, one every
    /// `SPACING` from 1 ms on, and returns the longest queue seen between
    /// sends.
    fn feed(k: &mut Kernel, from: EpId, to: SockAddr, seqs: std::ops::Range<u32>) -> usize {
        let mut longest = 0;
        for seq in seqs {
            k.run_until(ms(1) + SPACING * seq as u64);
            let now = k.now;
            k.net
                .udp_send(now, from, to, bytes_from(seq.to_le_bytes().to_vec()))
                .expect("send");
            k.drain_net();
            longest = longest.max(k.queue.len());
        }
        longest
    }

    #[test]
    fn early_woken_poller_keeps_the_queue_short_and_its_timing() {
        const N: u32 = 10_000;
        let ns = SimDuration::from_nanos;
        // Each datagram lands 60 µs after it is sent; the poller then pays
        // a 10 ns wake burst and a 20 ns `MsgRecv` burst before reading it.
        let expected: Vec<(SimTime, u32)> = (0..N)
            .map(|seq| (ms(1) + SPACING * seq as u64 + ns(60_000 + 30), seq))
            .collect();
        // After the last read, a 20 ns `Poll` burst arms the final timer.
        let timeout_at = expected[N as usize - 1].0 + ns(20) + POLL_TIMEOUT;
        let run = |compact: bool| {
            let mut k = exact_kernel();
            if !compact {
                k.compact_at = usize::MAX;
            }
            let h = k.add_host(1);
            let peer = k.add_host(1);
            let (poller, got) = spawn_poller(&mut k, h, 5060);
            let from = k.net.udp_bind(peer, 7000).expect("bind");
            let longest = feed(&mut k, from, SockAddr::new(h, 5060), 0..N);
            k.run_until(timeout_at);
            assert!(k.alive(poller), "no earlier timer may fire");
            // The live timer fires; the wake burst delivers the timeout.
            k.run_until(timeout_at + ns(10));
            assert!(!k.alive(poller), "the last timer must fire on time");
            let got = got.borrow().clone();
            (got, longest)
        };
        let (got, longest) = run(true);
        assert_eq!(got, expected);
        assert!(
            longest < 2 * COMPACT_FLOOR,
            "queue reached {longest} events with compaction"
        );

        // The same run with compaction switched off: identical arrivals,
        // but every cancelled 10 s timer is still queued.
        let (uncompacted, longest) = run(false);
        assert_eq!(uncompacted, expected);
        assert!(
            longest > 2 * COMPACT_FLOOR,
            "queue peaked at only {longest}"
        );
    }

    /// Spawns a process that binds UDP `port`, makes the `nap` call, and records
    /// when it wakes from it.
    fn spawn_sleeper(
        k: &mut Kernel,
        host: HostId,
        port: u16,
        nap: Syscall,
    ) -> (ProcId, Rc<RefCell<Option<SimTime>>>) {
        let woke = Rc::new(RefCell::new(None));
        let log = woke.clone();
        let mut nap = Some(nap);
        let pid = k.spawn(
            host,
            Nice::NORMAL,
            "sleeper",
            Box::new(move |ctx: &mut ResumeCtx, last: SysResult| match last {
                SysResult::Start => Syscall::MsgBind {
                    proto: MsgProto::Udp,
                    port: Some(port),
                },
                SysResult::NewFd(_) => nap.take().expect("naps once"),
                _ => {
                    *log.borrow_mut() = Some(ctx.now);
                    Syscall::Exit
                }
            }),
        );
        (pid, woke)
    }

    #[test]
    fn kill_cancels_pending_timers_past_compaction() {
        let mut k = exact_kernel();
        let h = k.add_host(2);
        let peer = k.add_host(1);
        let nap = SimDuration::from_secs(30);
        let (doomed, doomed_woke) = spawn_sleeper(&mut k, h, 6000, Syscall::Sleep(nap));
        let (survivor, survivor_woke) =
            spawn_sleeper(&mut k, h, 6001, Syscall::SleepUntil(SimTime::ZERO + nap));
        let (poller, got) = spawn_poller(&mut k, h, 5060);
        let from = k.net.udp_bind(peer, 7000).expect("bind");
        let to = SockAddr::new(h, 5060);
        let rounds = 3 * COMPACT_FLOOR as u32;

        // Compactions run while both sleepers' timers are live ...
        let longest = feed(&mut k, from, to, 0..rounds);
        assert!(longest < 2 * COMPACT_FLOOR, "queue reached {longest}");
        assert_eq!(k.net().endpoints_on(h), 3);
        assert!(k.kill(doomed));
        assert_eq!(k.net().endpoints_on(h), 2, "descriptors reclaimed on kill");

        // ... and again once the kill has made one of them dead.
        let longest = feed(&mut k, from, to, rounds..2 * rounds);
        assert!(longest < 2 * COMPACT_FLOOR, "queue reached {longest}");

        let outcome = k.run_until(ms(60_000));
        assert!(matches!(outcome, RunOutcome::Quiescent { .. }));
        assert_eq!(got.borrow().len(), 2 * rounds as usize);
        assert_eq!(
            *doomed_woke.borrow(),
            None,
            "the cancelled timer must never fire"
        );
        assert!(!k.alive(poller), "the poller's live timer must still fire");
        // The survivor's timer outlived every compaction; it fires on time
        // and the process pays only its wake-up (and a context switch).
        let woke = survivor_woke.borrow().expect("the live timer must fire");
        assert!(
            woke >= SimTime::ZERO + nap
                && woke <= SimTime::ZERO + nap + SimDuration::from_nanos(20),
            "woke at {woke:?}"
        );
        assert!(!k.alive(survivor));
    }

    /// Resume instants a process saw, with a label.
    type Log = Rc<RefCell<Vec<(&'static str, SimTime)>>>;

    /// Spawns a process that logs `label` at each resume: it computes for
    /// `ns` first, then exits.
    fn spawn_computer(
        k: &mut Kernel,
        host: HostId,
        nice: Nice,
        ns: u64,
        label: &'static str,
        log: &Log,
    ) -> ProcId {
        let log = log.clone();
        k.spawn(
            host,
            nice,
            label,
            Box::new(move |ctx: &mut ResumeCtx, last: SysResult| {
                log.borrow_mut().push((label, ctx.now));
                match last {
                    SysResult::Start => Syscall::Compute {
                        ns,
                        tag: "user/work",
                    },
                    _ => Syscall::Exit,
                }
            }),
        )
    }

    #[test]
    fn a_process_killed_mid_burst_never_resumes() {
        let ns = SimDuration::from_nanos;
        let mut k = exact_kernel();
        let h = k.add_host(1);
        let log = Log::default();
        // A 10 ns spawn burst plus a 10 ns context switch, then 1 ms of
        // work: the burst would end at 1 ms + 20 ns.
        let doomed = spawn_computer(&mut k, h, Nice::NORMAL, 1_000_000, "doomed", &log);
        k.run_until(us(500));
        assert!(k.kill(doomed));
        assert_eq!(k.queue.len(), 0, "the killed burst leaves its slot");

        // The heir takes the freed core: spawn and switch (20 ns), then
        // 2 µs of work straight on, with no second switch.
        spawn_computer(&mut k, h, Nice::NORMAL, 2_000, "heir", &log);
        let outcome = k.run_until(ms(2));
        let heir_done = us(502) + ns(20);
        assert_eq!(
            *log.borrow(),
            [
                ("doomed", SimTime::ZERO + ns(20)),
                ("heir", us(500) + ns(20)),
                ("heir", heir_done),
            ]
        );
        assert_eq!(
            outcome,
            RunOutcome::Quiescent {
                last_event: heir_done
            }
        );
        assert_eq!(k.proc_cpu_ns(doomed), 500_000);
    }

    #[test]
    fn a_burst_ending_with_an_earlier_scheduled_arrival_runs_after_it() {
        let ns = SimDuration::from_nanos;
        let mut k = exact_kernel();
        let h = k.add_host(1);
        let peer = k.add_host(1);
        let log = Log::default();
        let recv_log = log.clone();
        // A high-priority receiver blocks in `MsgRecv` long before 1 ms.
        k.spawn(
            h,
            Nice::HIGHEST,
            "receiver",
            Box::new(move |ctx: &mut ResumeCtx, last: SysResult| match last {
                SysResult::Start => Syscall::MsgBind {
                    proto: MsgProto::Udp,
                    port: Some(5060),
                },
                SysResult::NewFd(fd) => Syscall::MsgRecv { fd },
                SysResult::Datagram { .. } => {
                    recv_log.borrow_mut().push(("receiver", ctx.now));
                    Syscall::Exit
                }
                other => panic!("receiver got {other:?}"),
            }),
        );
        k.run_until(ms(1));
        // The datagram is queued first and lands at 1 ms + 60 µs; the
        // computer's burst, queued after it, ends at the same instant
        // (20 ns of spawn and switch, then the rest as work).
        let from = k.net.udp_bind(peer, 7000).expect("bind");
        let now = k.now;
        k.net
            .udp_send(now, from, SockAddr::new(h, 5060), bytes_from(vec![1]))
            .expect("send");
        k.drain_net();
        let arrival = ms(1) + SimDuration::from_micros(60);
        spawn_computer(&mut k, h, Nice::NORMAL, 60_000 - 20, "computer", &log);
        k.run_until(ms(2));
        // The arrival runs first: the receiver wakes and preempts the
        // computer, whose finished burst leaves a minimum 10 ns remainder.
        // Wake plus switch cost 20 ns; the computer then pays its
        // remainder and a switch back.
        assert_eq!(
            *log.borrow(),
            [
                ("computer", ms(1) + ns(20)),
                ("receiver", arrival + ns(20)),
                ("computer", arrival + ns(40)),
            ]
        );
        assert_eq!(k.stats().preemptions, 1);
    }

    #[test]
    fn a_dead_burst_does_not_hold_the_run_open() {
        let mut k = exact_kernel();
        let h = k.add_host(1);
        let other = k.add_host(1);
        let log = Log::default();
        let doomed = spawn_computer(&mut k, h, Nice::NORMAL, 1_000_000, "doomed", &log);
        let (_, woke) = spawn_sleeper(&mut k, other, 6000, Syscall::SleepUntil(us(600)));
        k.run_until(us(500));
        assert!(k.kill(doomed));
        // The killed burst would have ended at 1 ms + 20 ns, past the
        // deadline; the last live event is the sleeper's exit after its
        // 10 ns wake burst.
        let last = us(600) + SimDuration::from_nanos(10);
        assert_eq!(
            k.run_until(us(800)),
            RunOutcome::Quiescent { last_event: last }
        );
        assert_eq!(*woke.borrow(), Some(last));
        assert_eq!(log.borrow().len(), 1, "the doomed process resumed once");
    }

    #[test]
    fn run_queue_matches_an_ordered_map_of_fifos() {
        use siperf_simcore::rng::SimRng;

        let mut rng = SimRng::seed_from_u64(14);
        let mut q = RunQueue::new();
        let mut model: BTreeMap<i8, VecDeque<ProcId>> = BTreeMap::new();
        let mut queued: Vec<(ProcId, i8)> = Vec::new();
        for step in 0..20_000u32 {
            match rng.range_u64(0..4) {
                op @ (0 | 1) => {
                    // Crowd a few levels, but reach both ends of the range.
                    let nice = match rng.range_u64(0..4) {
                        0 => rng.range_u64(0..40) as i8 - 20,
                        n => [-20, 0, 19][n as usize - 1],
                    };
                    let pid = ProcId(step);
                    q.push(pid, nice, op == 0);
                    let fifo = model.entry(nice).or_default();
                    if op == 0 {
                        fifo.push_front(pid);
                    } else {
                        fifo.push_back(pid);
                    }
                    queued.push((pid, nice));
                }
                2 => {
                    let expected = model
                        .values_mut()
                        .find(|f| !f.is_empty())
                        .and_then(|f| f.pop_front());
                    assert_eq!(q.pop(), expected, "pop at step {step}");
                    queued.retain(|&(p, _)| Some(p) != expected);
                }
                _ if !queued.is_empty() => {
                    let (pid, nice) = queued.swap_remove(rng.range_usize(0..queued.len()));
                    q.remove(pid, nice);
                    model.get_mut(&nice).expect("level").retain(|&p| p != pid);
                }
                _ => {}
            }
            let best = model.iter().find(|(_, f)| !f.is_empty()).map(|(&n, _)| n);
            assert_eq!(q.best_nice(), best, "best level at step {step}");
        }
        while let Some(pid) = q.pop() {
            let expected = model
                .values_mut()
                .find(|f| !f.is_empty())
                .and_then(|f| f.pop_front());
            assert_eq!(Some(pid), expected);
        }
        assert!(model.values().all(VecDeque::is_empty));
        assert_eq!(q.nonempty, 0);
    }

    #[test]
    #[should_panic(expected = "nice runs from -20 to 19")]
    fn spawning_outside_the_nice_range_panics() {
        let mut k = exact_kernel();
        let h = k.add_host(1);
        k.spawn(
            h,
            Nice(20),
            "too nice",
            Box::new(|_: &mut ResumeCtx, _: SysResult| Syscall::Exit),
        );
    }

    #[test]
    fn a_poller_registers_once_per_idle_descriptor() {
        const IDLE: u16 = 50;
        const ROUNDS: u32 = 1_000;
        let mut k = exact_kernel();
        let h = k.add_host(1);
        let peer = k.add_host(1);
        // Binds the busy socket on 6000 and idle ones on 6001.., then
        // polls all of them, reading from whichever becomes ready.
        let mut fds = Vec::new();
        let reads = Rc::new(RefCell::new(0u32));
        let count = reads.clone();
        let poll = |fds: &Vec<Fd>| Syscall::Poll {
            fds: fds.clone(),
            timeout: None,
        };
        k.spawn(
            h,
            Nice::NORMAL,
            "poller",
            Box::new(move |_: &mut ResumeCtx, last: SysResult| {
                match last {
                    SysResult::Start => {}
                    SysResult::NewFd(fd) => fds.push(fd),
                    SysResult::Ready(ready) => return Syscall::MsgRecv { fd: ready[0] },
                    SysResult::Datagram { .. } => *count.borrow_mut() += 1,
                    other => panic!("poller got {other:?}"),
                }
                match fds.len() as u16 {
                    n if n <= IDLE => Syscall::MsgBind {
                        proto: MsgProto::Udp,
                        port: Some(6000 + n),
                    },
                    _ => poll(&fds),
                }
            }),
        );
        let from = k.net.udp_bind(peer, 7000).expect("bind");
        let to = SockAddr::new(h, 6000);
        for seq in 0..ROUNDS {
            k.run_until(ms(1) + SPACING * seq as u64);
            let now = k.now;
            k.net
                .udp_send(now, from, to, bytes_from(seq.to_le_bytes().to_vec()))
                .expect("send");
            k.drain_net();
            for list in k.poll_waiters.values() {
                let mut pids = list.clone();
                pids.sort();
                pids.dedup();
                assert_eq!(pids.len(), list.len(), "a pid registered twice: {list:?}");
            }
        }
        k.run_until(ms(1) + SPACING * ROUNDS as u64);
        assert_eq!(*reads.borrow(), ROUNDS);
        // One standing registration per idle socket.
        assert_eq!(
            k.poll_waiters.values().map(Vec::len).sum::<usize>(),
            IDLE as usize + 1
        );
    }

    #[test]
    fn closed_connections_leave_no_poll_registration() {
        const CONNS: u32 = 40;
        let mut k = exact_kernel();
        let server = k.add_host(1);
        let client = k.add_host(1);
        // The server polls its listener and every open connection; it
        // accepts, then reads a ready connection to EOF with blocking
        // reads and closes it.
        let served = Rc::new(RefCell::new(0u32));
        let done = served.clone();
        let mut listener = Fd(0);
        let mut conns: Vec<Fd> = Vec::new();
        let mut reading = Fd(0);
        k.spawn(
            server,
            Nice::NORMAL,
            "server",
            Box::new(move |_: &mut ResumeCtx, last: SysResult| {
                match last {
                    SysResult::Start => {
                        return Syscall::TcpListen {
                            port: 5060,
                            backlog: 8,
                        }
                    }
                    SysResult::NewFd(fd) => listener = fd,
                    SysResult::Ready(ready) if ready[0] == listener => {
                        return Syscall::TcpAccept { fd: listener }
                    }
                    SysResult::Ready(ready) => {
                        reading = ready[0];
                        return Syscall::TcpRecv {
                            fd: reading,
                            max: 64,
                        };
                    }
                    SysResult::Accepted { fd, .. } => conns.push(fd),
                    SysResult::Data(_) => {
                        return Syscall::TcpRecv {
                            fd: reading,
                            max: 64,
                        }
                    }
                    SysResult::Done => {}
                    SysResult::Eof => {
                        *done.borrow_mut() += 1;
                        conns.retain(|&fd| fd != reading);
                        return Syscall::Close { fd: reading };
                    }
                    other => panic!("server got {other:?}"),
                }
                let mut fds = vec![listener];
                fds.extend(&conns);
                Syscall::Poll { fds, timeout: None }
            }),
        );
        // The client opens a connection, sends a byte, pauses so the
        // server blocks reading for the EOF, and closes, again and again.
        let mut step = 0u32;
        let mut fd = Fd(0);
        k.spawn(
            client,
            Nice::NORMAL,
            "client",
            Box::new(move |_: &mut ResumeCtx, last: SysResult| {
                step += 1;
                match step % 4 {
                    _ if step > 4 * CONNS => Syscall::Exit,
                    1 => Syscall::TcpConnect {
                        to: SockAddr::new(server, 5060),
                    },
                    2 => {
                        fd = last.expect_fd();
                        Syscall::TcpSend {
                            fd,
                            data: bytes_from(b"x".to_vec()),
                        }
                    }
                    3 => Syscall::Sleep(SimDuration::from_millis(1)),
                    _ => Syscall::Close { fd },
                }
            }),
        );
        k.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(*served.borrow(), CONNS);
        for key in k.waiters_one.keys() {
            if let WaitKey::EpRead(ep) | WaitKey::EpWrite(ep) = key {
                assert!(
                    k.ep_refs.contains_key(ep),
                    "a wait key outlived its endpoint: {key:?} of {} keys",
                    k.waiters_one.len()
                );
            }
        }
        for key in k.poll_waiters.keys() {
            if let WaitKey::EpRead(ep) = key {
                assert!(
                    k.ep_refs.contains_key(ep),
                    "a poll registration outlived its endpoint: {key:?} of {} keys",
                    k.poll_waiters.len()
                );
            }
        }
        // Only the listener stays registered.
        assert_eq!(k.poll_waiters.len(), 1);
    }

    #[test]
    fn killing_a_blocked_reader_drops_its_wait_key() {
        // The reader's exit closes the socket it is blocked on, leaving
        // its own stale entry in that socket's wait queue.
        let mut k = exact_kernel();
        let h = k.add_host(1);
        let reader = k.spawn(
            h,
            Nice::NORMAL,
            "reader",
            Box::new(|_: &mut ResumeCtx, last: SysResult| match last {
                SysResult::Start => Syscall::MsgBind {
                    proto: MsgProto::Udp,
                    port: Some(5060),
                },
                SysResult::NewFd(fd) => Syscall::MsgRecv { fd },
                other => panic!("reader got {other:?}"),
            }),
        );
        k.run_until(ms(1));
        assert_eq!(k.waiters_one.len(), 1, "the reader blocks");
        assert!(k.kill(reader));
        assert!(k.waiters_one.is_empty());
    }
}
