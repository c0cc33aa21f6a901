//! Scenario construction and execution — the §4.2 benchmark methodology.
//!
//! A scenario stands up the paper's testbed: one four-core server, three
//! client machines, N caller/callee pairs. Phones register during the first
//! phase; calls begin after [`Scenario::call_start`]; throughput counts
//! only operations completing inside the measurement window, exactly as the
//! paper's manager measures only the second phase.

use std::time::Instant;

use siperf_faults::{Fault, FaultSchedule};
use siperf_overload::OverloadConfig;
use siperf_proxy::config::{ProxyConfig, Transport};
use siperf_proxy::core::ProxyStats;
use siperf_proxy::spawn::spawn_proxy;
use siperf_simcore::prelude::*;
use siperf_simnet::addr::{HostId, SockAddr};
use siperf_simnet::{NetConfig, NetStats};
use siperf_simos::cost::CostModel;
use siperf_simos::kernel::{Kernel, KernelStats};
use siperf_simos::process::Process;

use crate::phone::{Arrivals, PhoneCfg, Role};
use crate::phone_msg::{MsgPhone, MsgTransport};
use crate::phone_tcp::TcpPhone;
use crate::stats::WorkloadStats;

/// A complete experiment description.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Label used in reports.
    pub name: String,
    /// The proxy under test.
    pub proxy: ProxyConfig,
    /// Caller/callee pairs ("number of clients" on the paper's x-axes).
    pub pairs: usize,
    /// Client machines (the paper used three).
    pub client_hosts: usize,
    /// Cores per client machine.
    pub client_cores: usize,
    /// Cores on the server (the paper's dual Opteron 280 = four).
    pub server_cores: usize,
    /// TCP ops-per-connection policy (`None` = persistent connections).
    pub ops_per_conn: Option<u32>,
    /// Cancel every k-th call while ringing (`None` = never).
    pub cancel_every: Option<u64>,
    /// Callee ring time before answering (zero in the paper's workload).
    pub ring_delay: SimDuration,
    /// When callers start dialing (registration happens before).
    pub call_start: SimDuration,
    /// Measurement window start (after ramp-up).
    pub measure_from: SimDuration,
    /// Measurement window length.
    pub measure: SimDuration,
    /// Open-loop mode: aggregate Poisson call-arrival rate in calls per
    /// second, split evenly across one open-loop caller per client host.
    /// `None` (the default) keeps the closed-loop caller/callee pairs; with
    /// `Some(rate)`, [`Scenario::pairs`] counts callees only and arrivals
    /// keep coming regardless of how many calls are outstanding.
    pub arrival_rate: Option<f64>,
    /// Setup-delay budget for every caller, closed- or open-loop: a call
    /// whose INVITE transaction takes longer completes but scores no
    /// goodput, the way the overload literature counts sessions established
    /// past their deadline. `None` (the default) counts every completion.
    pub setup_deadline: Option<SimDuration>,
    /// RNG seed; identical seeds replay identically.
    pub seed: u64,
    /// Network parameters.
    pub net: NetConfig,
    /// Kernel cost calibration.
    pub kernel_costs: CostModel,
    /// CPU charged per message on phones.
    pub phone_proc_ns: u64,
    /// Faults injected at fixed virtual-time offsets while the run plays.
    pub faults: FaultSchedule,
}

impl Scenario {
    /// Starts building a scenario with the paper's defaults.
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                name: name.into(),
                proxy: ProxyConfig::paper(Transport::Udp),
                pairs: 100,
                client_hosts: 3,
                client_cores: 4,
                server_cores: 4,
                ops_per_conn: None,
                cancel_every: None,
                ring_delay: SimDuration::ZERO,
                call_start: SimDuration::from_millis(1000),
                measure_from: SimDuration::from_millis(2000),
                measure: SimDuration::from_secs(8),
                arrival_rate: None,
                setup_deadline: None,
                seed: 42,
                net: NetConfig::lan(),
                kernel_costs: CostModel::opteron_2006(),
                phone_proc_ns: 600,
                faults: FaultSchedule::new(),
            },
        }
    }

    /// The measurement window in absolute virtual time.
    pub fn window(&self) -> (SimTime, SimTime) {
        (
            SimTime::ZERO + self.measure_from,
            SimTime::ZERO + self.measure_from + self.measure,
        )
    }

    /// Runs the scenario to completion and gathers every result surface.
    pub fn run(&self) -> ScenarioReport {
        let wall_start = Instant::now();
        let mut world = self.build_world();
        self.drive(&mut world);
        let mut report = self.report(&world);
        report.wall_clock_secs = wall_start.elapsed().as_secs_f64();
        report
    }

    /// Drives a built world to the end of the measurement window, applying
    /// the fault schedule at its appointed instants. The schedule is sorted
    /// by construction, so this is a single forward pass.
    pub fn drive(&self, world: &mut World) {
        let end = self.window().1;
        for ev in self.faults.events() {
            let at = SimTime::ZERO + ev.at;
            if at >= end {
                break;
            }
            world.kernel.run_until(at);
            world.apply_fault(&ev.fault);
        }
        world.kernel.run_until(end);
    }

    /// Builds the simulated world without running it, for tests and
    /// examples that need to drive or inspect the kernel directly.
    pub fn build_world(&self) -> World {
        let mut kernel = Kernel::new(self.net.clone(), self.kernel_costs.clone(), self.seed);
        let server = kernel.add_host(self.server_cores);
        let clients: Vec<HostId> = (0..self.client_hosts)
            .map(|_| kernel.add_host(self.client_cores))
            .collect();
        let proxy = spawn_proxy(&mut kernel, server, self.proxy.clone());

        let window = self.window();
        let stats = WorkloadStats::new(window);
        let mut rng = SimRng::seed_from_u64(self.seed ^ 0x5eed);
        let transport = self.proxy.transport;
        let call_start = SimTime::ZERO + self.call_start;

        let phone_cfg = |user: String, role, port, call_start, stagger, seed| PhoneCfg {
            user,
            role,
            port,
            proxy: proxy.addr,
            domain: "sip.lab".into(),
            transport,
            call_start,
            stagger,
            ops_per_conn: self.ops_per_conn,
            cancel_every: self.cancel_every,
            setup_deadline: self.setup_deadline,
            ring_delay: self.ring_delay,
            proc_ns: self.phone_proc_ns,
            seed,
            stats: stats.clone(),
        };
        let spawn = |kernel: &mut Kernel, host, name: String, cfg| {
            let phone: Box<dyn Process> = match transport {
                Transport::Udp => Box::new(MsgPhone::new(cfg, MsgTransport::Udp)),
                Transport::Sctp => Box::new(MsgPhone::new(cfg, MsgTransport::Sctp)),
                Transport::Tcp => Box::new(TcpPhone::new(cfg)),
            };
            kernel.spawn(host, Default::default(), name, phone);
        };

        // Closed loop: caller/callee pairs. Open loop: `pairs` callees plus
        // one Poisson caller per client host; each pooled caller dials the
        // callees uniformly.
        let phones: Vec<(String, Role)> = match self.arrival_rate {
            Some(_) => (0..self.pairs)
                .map(|i| (format!("e{i}"), Role::Callee))
                .collect(),
            None => (0..self.pairs)
                .flat_map(|i| {
                    let peer = format!("e{i}");
                    let caller = Role::Caller(Arrivals::Closed { peer: peer.clone() });
                    [(format!("c{i}"), caller), (peer, Role::Callee)]
                })
                .collect(),
        };
        for (idx, (user, role)) in phones.into_iter().enumerate() {
            let host = clients[idx % clients.len()];
            let start = call_start + SimDuration::from_nanos(rng.range_u64(0..20_000_000));
            let stagger = SimDuration::from_nanos(rng.range_u64(1..500_000_000));
            let seed = rng.next_u64();
            let name = format!("phone_{user}");
            let cfg = phone_cfg(user, role, 20_000 + idx as u16, start, stagger, seed);
            spawn(&mut kernel, host, name, cfg);
        }

        if let Some(rate) = self.arrival_rate {
            let callees: Vec<String> = (0..self.pairs).map(|i| format!("e{i}")).collect();
            for (h, &host) in clients.iter().enumerate() {
                let role = Role::Caller(Arrivals::Poisson {
                    rate: rate / clients.len() as f64,
                    callees: callees.clone(),
                });
                let stagger = SimDuration::from_nanos(rng.range_u64(1..500_000_000));
                let seed = rng.next_u64();
                let cfg = phone_cfg(
                    format!("o{h}"),
                    role,
                    30_000 + h as u16,
                    call_start,
                    stagger,
                    seed,
                );
                spawn(&mut kernel, host, format!("caller_o{h}"), cfg);
            }
        }

        World {
            kernel,
            proxy,
            stats,
            server,
        }
    }

    /// Collects the report from a (fully or partially) run world.
    ///
    /// `wall_clock_secs` is left at 0 here — only [`Scenario::run`] spans
    /// the whole build/drive/report cycle, so only it can stamp a
    /// meaningful wall-clock duration. No live `Instant` is stored in the
    /// world or the report, keeping reports comparable across runs.
    pub fn report(&self, world: &World) -> ScenarioReport {
        let window = self.window();
        let kernel = &world.kernel;
        let proxy = &world.proxy;
        let server = world.server;
        let w = world.stats.borrow();
        let busy = kernel.host_busy_ns(server);
        let wall = kernel.now().as_secs_f64().max(1e-9);
        let _ = window;
        let lock_contention = {
            let l = &proxy.locks;
            [l.txn, l.usrloc, l.timer, l.conn]
                .into_iter()
                .map(|id| {
                    let lock = kernel.lock(id);
                    (lock.name, lock.contention_ratio())
                })
                .collect()
        };
        ScenarioReport {
            name: self.name.clone(),
            pairs: self.pairs,
            throughput: WindowRate::new(w.ops_in_window, self.measure.as_secs_f64()),
            offered: WindowRate::new(w.attempts_in_window, self.measure.as_secs_f64()),
            ops_total: w.ops_total,
            registered: w.register_ok,
            call_attempts: w.call_attempts,
            call_failures: w.call_failures,
            calls_late: w.calls_late,
            calls_rejected: w.calls_rejected,
            rejection_retries: w.rejection_retries,
            calls_cancelled: w.calls_cancelled,
            phone_retransmits: w.phone_retransmits,
            connect_errors: w.connect_errors,
            reconnects: w.reconnects,
            faults_injected: w.faults_injected,
            connections_reset: w.connections_reset,
            workers_respawned: w.workers_respawned,
            recovered_calls: w.recovered_calls,
            open_calls_peak: w.open_calls_peak,
            invite_p50: w.invite_latency.percentile(50.0),
            invite_p99: w.invite_latency.percentile(99.0),
            bye_p50: w.bye_latency.percentile(50.0),
            proxy: proxy.stats(),
            open_conns: proxy.open_conns(),
            kernel: kernel.stats(),
            net: kernel.net().stats(),
            server_profile: kernel.profiler(server).report(),
            server_utilization: busy as f64 / (self.server_cores as f64 * wall * 1e9),
            server_endpoints: kernel.net().endpoints_on(server),
            server_time_wait: kernel.net().ports_in_time_wait(server),
            lock_contention,
            wall_clock_secs: 0.0,
        }
    }
}

/// A built but externally-driven simulation.
pub struct World {
    /// The simulated OS + network.
    pub kernel: Kernel,
    /// Handle over the proxy under test.
    pub proxy: siperf_proxy::spawn::ProxyHandle,
    /// Shared phone-side statistics.
    pub stats: std::rc::Rc<std::cell::RefCell<WorkloadStats>>,
    /// The server host id.
    pub server: HostId,
}

impl World {
    /// Applies one fault to the running world at the kernel's current
    /// virtual time. Returns whether the fault had anything to act on (a
    /// `TcpReset` with no established connection is a no-op, as is
    /// `KillSupervisor` under a single-process architecture).
    pub fn apply_fault(&mut self, fault: &Fault) -> bool {
        let applied = match fault {
            Fault::BurstLoss { model, duration } => {
                let (model, duration) = (*model, *duration);
                self.kernel
                    .inject_fault(|net, now| net.fault_burst_loss(now, model, duration));
                true
            }
            Fault::Partition { a, b, heal_after } => {
                let (a, b, heal) = (*a, *b, *heal_after);
                self.kernel
                    .inject_fault(|net, now| net.fault_partition(now, a, b, heal));
                true
            }
            Fault::LatencySpike { extra, duration } => {
                let (extra, duration) = (*extra, *duration);
                self.kernel
                    .inject_fault(|net, now| net.fault_latency_spike(now, extra, duration));
                true
            }
            Fault::AcceptFreeze { host, duration } => {
                let (host, duration) = (*host, *duration);
                self.kernel
                    .inject_fault(|net, now| net.fault_freeze_accepts(now, host, duration));
                true
            }
            Fault::TcpReset { host, nth } => {
                let (host, nth) = (*host, *nth);
                let reset = self.kernel.inject_fault(|net, _now| {
                    let est = net.tcp_established_on(host);
                    if est.is_empty() {
                        false
                    } else {
                        net.tcp_reset(est[nth % est.len()]).is_ok()
                    }
                });
                if reset {
                    self.stats.borrow_mut().connections_reset += 1;
                }
                reset
            }
            Fault::KillWorker { index } => {
                self.proxy.respawn_worker(&mut self.kernel, *index);
                self.stats.borrow_mut().workers_respawned += 1;
                true
            }
            Fault::KillSupervisor => {
                let respawned = self.proxy.respawn_supervisor(&mut self.kernel).is_some();
                if respawned {
                    self.stats.borrow_mut().workers_respawned += 1;
                }
                respawned
            }
        };
        if applied {
            self.stats.borrow_mut().faults_injected += 1;
        }
        applied
    }
}

/// Fluent construction for [`Scenario`].
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Selects the transport (resetting proxy config to the paper's for
    /// that transport).
    pub fn transport(mut self, t: Transport) -> Self {
        self.scenario.proxy = ProxyConfig::paper(t);
        self
    }

    /// Replaces the whole proxy configuration.
    pub fn proxy(mut self, cfg: ProxyConfig) -> Self {
        self.scenario.proxy = cfg;
        self
    }

    /// Selects the proxy's overload-control policy for this run. Call
    /// after [`transport`](Self::transport), which resets the proxy
    /// configuration.
    pub fn overload_policy(mut self, policy: OverloadConfig) -> Self {
        self.scenario.proxy.overload = policy;
        self
    }

    /// Sets the number of caller/callee pairs.
    pub fn client_pairs(mut self, pairs: usize) -> Self {
        self.scenario.pairs = pairs;
        self
    }

    /// Sets the TCP ops-per-connection reconnect policy.
    pub fn ops_per_conn(mut self, ops: u32) -> Self {
        self.scenario.ops_per_conn = Some(ops);
        self
    }

    /// Cancels every `k`-th call while it rings (extension workload).
    pub fn cancel_every(mut self, k: u64) -> Self {
        self.scenario.cancel_every = Some(k);
        self
    }

    /// Sets the callee ring time before answering.
    pub fn ring_delay(mut self, d: SimDuration) -> Self {
        self.scenario.ring_delay = d;
        self
    }

    /// Measurement window length in seconds.
    pub fn measure_secs(mut self, secs: u64) -> Self {
        self.scenario.measure = SimDuration::from_secs(secs);
        self
    }

    /// Switches the workload to open-loop mode: calls arrive in a seeded
    /// Poisson process at `rate` calls per second in aggregate, split
    /// across one pooled caller per client host, regardless of how many
    /// calls are outstanding. [`client_pairs`](Self::client_pairs) then
    /// counts callees rather than caller/callee pairs.
    pub fn arrival_rate(mut self, rate: f64) -> Self {
        self.scenario.arrival_rate = Some(rate);
        self
    }

    /// Sets the callers' setup-delay budget: calls whose INVITE transaction
    /// exceeds it complete but count as zero goodput.
    pub fn setup_deadline(mut self, budget: SimDuration) -> Self {
        self.scenario.setup_deadline = Some(budget);
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Overrides the network model.
    pub fn net(mut self, net: NetConfig) -> Self {
        self.scenario.net = net;
        self
    }

    /// Injects a fault schedule into the run.
    pub fn fault_schedule(mut self, faults: FaultSchedule) -> Self {
        self.scenario.faults = faults;
        self
    }

    /// Mutates the proxy configuration in place.
    pub fn tune_proxy(mut self, f: impl FnOnce(&mut ProxyConfig)) -> Self {
        f(&mut self.scenario.proxy);
        self
    }

    /// Finishes building.
    ///
    /// # Panics
    ///
    /// Panics if the measurement window is empty (a zero-length window
    /// would make every ops-per-second figure meaningless) or if an
    /// open-loop arrival rate is set but not positive and finite.
    pub fn build(self) -> Scenario {
        let s = &self.scenario;
        assert!(
            s.measure > SimDuration::ZERO,
            "scenario `{}`: measurement window is empty — set measure_secs > 0",
            s.name
        );
        if let Some(rate) = s.arrival_rate {
            assert!(
                rate.is_finite() && rate > 0.0,
                "scenario `{}`: open-loop arrival rate must be positive and finite, got {rate}",
                s.name
            );
        }
        self.scenario
    }
}

/// Everything a finished run reports.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario label.
    pub name: String,
    /// Caller/callee pairs driven.
    pub pairs: usize,
    /// Operations per second over the measurement window — the paper's
    /// y-axis. Only completed transactions count, so past the saturation
    /// knee this is the run's *goodput*.
    pub throughput: WindowRate,
    /// Call attempts started per second over the window — the *offered*
    /// load the goodput curves plot against.
    pub offered: WindowRate,
    /// All operations completed (including outside the window).
    pub ops_total: u64,
    /// Registrations acknowledged.
    pub registered: u64,
    /// Calls started.
    pub call_attempts: u64,
    /// Calls that failed or timed out.
    pub call_failures: u64,
    /// Open-loop calls that completed past the setup-delay budget (zero
    /// goodput despite consuming full capacity).
    pub calls_late: u64,
    /// Calls the proxy shed with `503 Service Unavailable`.
    pub calls_rejected: u64,
    /// Calls re-attempted after a 503 backoff expired.
    pub rejection_retries: u64,
    /// Calls deliberately cancelled while ringing.
    pub calls_cancelled: u64,
    /// Phone-side retransmissions (UDP).
    pub phone_retransmits: u64,
    /// Failed connects (TCP).
    pub connect_errors: u64,
    /// Policy-driven reconnects (TCP 50/500-ops workloads).
    pub reconnects: u64,
    /// Faults the schedule driver actually applied.
    pub faults_injected: u64,
    /// Established connections torn down by injected RSTs.
    pub connections_reset: u64,
    /// Proxy processes killed and respawned by injected crashes.
    pub workers_respawned: u64,
    /// Calls disturbed by a mid-call fault that still completed after
    /// reconnect-and-redrive.
    pub recovered_calls: u64,
    /// Peak concurrent calls in any open-loop caller's pool (0 for
    /// closed-loop runs).
    pub open_calls_peak: u64,
    /// Invite-transaction latency, median.
    pub invite_p50: SimDuration,
    /// Invite-transaction latency, 99th percentile.
    pub invite_p99: SimDuration,
    /// Bye-transaction latency, median.
    pub bye_p50: SimDuration,
    /// Proxy-side counters.
    pub proxy: ProxyStats,
    /// Connection objects alive at the end.
    pub open_conns: usize,
    /// Kernel scheduler statistics.
    pub kernel: KernelStats,
    /// Network statistics.
    pub net: NetStats,
    /// The server's CPU profile (the paper's OProfile view).
    pub server_profile: ProfileReport,
    /// Server CPU utilization over the whole run.
    pub server_utilization: f64,
    /// Live sockets on the server at the end.
    pub server_endpoints: usize,
    /// Server ports stuck in TIME_WAIT at the end.
    pub server_time_wait: usize,
    /// Contention ratio per proxy lock.
    pub lock_contention: Vec<(&'static str, f64)>,
    /// Host wall-clock seconds the simulation took, captured as a plain
    /// duration when [`Scenario::run`] builds the report (0 when the report
    /// was assembled from an externally-driven world).
    pub wall_clock_secs: f64,
}

impl ScenarioReport {
    /// A deterministic digest of the run: the full report with the one
    /// host-dependent field (wall-clock time) zeroed, so two same-seed runs
    /// must produce byte-identical fingerprints.
    pub fn fingerprint(&self) -> String {
        let mut copy = self.clone();
        copy.wall_clock_secs = 0.0;
        format!("{copy:#?}")
    }

    /// One line for figure tables.
    pub fn summary(&self) -> String {
        format!(
            "{:<28} {:>9.0} ops/s  fail {:>5}  p50 {:>9}  util {:>5.1}%",
            self.name,
            self.throughput.per_sec(),
            self.call_failures,
            self.invite_p50.to_string(),
            100.0 * self.server_utilization,
        )
    }
}

/// The SIP address a scenario's proxy will listen on (host 0 is always the
/// server).
pub fn proxy_addr() -> SockAddr {
    SockAddr::new(HostId(0), siperf_simnet::SIP_PORT)
}
