//! Untraced and traced runs of one workload, with their correctness checks.

use std::time::Instant;

use siperf::proxy::ProxyStats;
use siperf::simcore::time::{SimDuration, SimTime};
use siperf::simnet::NetStats;
use siperf::simos::KernelStats;
use siperf::sip::SipMessage;
use siperf::workload::scenario::World;
use siperf::workload::{Scenario, ScenarioReport, Transport};

use crate::probes;
use crate::report::{fnv1a64, interpolated_percentile_ns, median, peak_rss_mib, Outcome};
use crate::speed;
use crate::workloads::{Horizon, Workload};

/// How one invocation measures.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload seed.
    pub seed: u64,
    /// Host seconds an untraced run keeps repeating the simulation for.
    pub seconds: f64,
    /// Fewest simulations an untraced run makes, however long they take,
    /// counting the untimed first one; at least two.
    pub min_reps: usize,
    /// The simulated horizon.
    pub horizon: Horizon,
    /// Host seconds each layer probe of a traced run measures for.
    pub probe_seconds: f64,
}

/// Set-ups an untraced run makes on their own after each simulation.
const SETUP_REPS: usize = 8;

/// Virtual length of one timed step of an untraced call phase. The
/// reference job of [`speed`] runs after every step.
const STEP: SimDuration = SimDuration::from_millis(100);

/// Virtual length of one slice of the traced run.
const SLICE: SimDuration = SimDuration::from_millis(50);
/// One finished simulation: its report, and the INVITE latency figures
/// drawn from the phones' histogram before the world is dropped.
struct Sim {
    report: ScenarioReport,
    fingerprint: u64,
    invite_samples: u64,
    invite_p50_ms: f64,
    invite_p99_ms: f64,
}

impl Sim {
    fn finish(scenario: &Scenario, world: &World) -> Sim {
        let report = scenario.report(world);
        let stats = world.stats.borrow();
        let h = &stats.invite_latency;
        Sim {
            fingerprint: fnv1a64(&report.fingerprint()),
            invite_samples: h.count(),
            invite_p50_ms: interpolated_percentile_ns(h, 50.0) / 1e6,
            invite_p99_ms: interpolated_percentile_ns(h, 99.0) / 1e6,
            report,
        }
    }

    fn notes(&self) -> Vec<String> {
        let r = &self.report;
        let n = self.invite_samples;
        let beyond_p99 = n - (0.99 * n as f64).ceil() as u64;
        vec![
            format!("sim_fingerprint fnv1a64:{:016x}", self.fingerprint),
            format!(
                "ops_attempted {} ops_failed {} ops_total {}",
                r.call_attempts, r.call_failures, r.ops_total
            ),
            format!("invite_p50_ms {:.4} over {n} samples", self.invite_p50_ms),
            format!(
                "invite_p99_ms {:.4} over {n} samples, {beyond_p99} beyond it",
                self.invite_p99_ms
            ),
        ]
    }
}

/// Phones that must register before calls start: both ends of every
/// closed-loop pair, or every callee plus one pooled caller per client
/// host in open loop.
fn phones(scenario: &Scenario) -> usize {
    if scenario.arrival_rate.is_some() {
        scenario.pairs + scenario.client_hosts
    } else {
        2 * scenario.pairs
    }
}

/// The correctness checks every run makes on its simulation.
fn check(scenario: &Scenario, sim: &Sim, failures: &mut Vec<String>) {
    let r = &sim.report;
    let phones = phones(scenario) as u64;
    if r.registered != phones {
        failures.push(format!("{} of {phones} phones registered", r.registered));
    }
    if r.proxy.parse_errors != 0 {
        failures.push(format!(
            "the proxy failed to parse {} messages",
            r.proxy.parse_errors
        ));
    }
    if r.ops_total == 0 {
        failures.push("no SIP transaction completed".to_string());
    }
}

/// Simulated length of the call phase, from `call_start` to the end of
/// the window.
fn call_span(scenario: &Scenario) -> SimDuration {
    scenario.window().1 - (SimTime::ZERO + scenario.call_start)
}

/// Builds the world and registers its phones, up to `call_start`: the
/// set-up every simulation pays. Returns the world and the host seconds
/// it took.
fn set_up(scenario: &Scenario) -> (World, f64) {
    let start = Instant::now();
    let mut world = scenario.build_world();
    world.kernel.run_until(SimTime::ZERO + scenario.call_start);
    (world, start.elapsed().as_secs_f64())
}

/// Host timings of one untraced simulation.
struct Timed {
    /// Host seconds of the set-up and of the call phase.
    setup_s: f64,
    call_s: f64,
    /// Host seconds of each run of the reference job made alongside.
    jobs: Vec<f64>,
}

/// One untraced simulation: set-up, then the call phase to the end of the
/// window in [`STEP`]-long virtual steps, as `Scenario::drive` runs it for
/// a scenario without faults. With `reference`, the reference job runs
/// after the set-up and after every step, outside the timed parts.
fn simulate(scenario: &Scenario, reference: bool) -> (Sim, Timed) {
    let mut jobs = Vec::new();
    let mut job = || {
        if reference {
            jobs.push(speed::time_job());
        }
    };
    let (mut world, setup_s) = set_up(scenario);
    job();
    let end = scenario.window().1;
    let mut t = world.kernel.now();
    let mut call_s = 0.0;
    while t < end {
        t = (t + STEP).min(end);
        let start = Instant::now();
        world.kernel.run_until(t);
        call_s += start.elapsed().as_secs_f64();
        job();
    }
    let timed = Timed {
        setup_s,
        call_s,
        jobs,
    };
    (Sim::finish(scenario, &world), timed)
}

/// The end-to-end run. The first simulation warms caches and the
/// allocator; it gives the simulated figures, and its host times are not
/// used. The run then repeats the seeded simulation as often as fits in
/// `cfg.seconds`, and until it has made at least `cfg.min_reps`
/// simulations in all. Each repetition's host seconds are scaled to the
/// reference speed by the reference jobs run alongside it (see
/// [`speed`]), and the run reports the median repetition. Every
/// repetition must reproduce the first simulation's fingerprint.
pub fn untraced(workload: Workload, cfg: &RunConfig) -> Outcome {
    let scenario = workload.scenario(cfg.seed, cfg.horizon);
    let started = Instant::now();
    let (sim, _) = simulate(&scenario, true);
    let mut out = Outcome {
        attempted: sim.report.call_attempts,
        call_failures: sim.report.call_failures,
        ..Outcome::default()
    };
    check(&scenario, &sim, &mut out.failures);
    let (mut calls, mut raw_calls, mut setups, mut speeds) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut sims = 1;
    loop {
        // Stop before a repetition that would overrun the run's length.
        let elapsed = started.elapsed().as_secs_f64();
        let per_rep = elapsed / sims as f64;
        if sims >= cfg.min_reps.max(2) && elapsed + per_rep > cfg.seconds {
            break;
        }
        let (again, mut timed) = simulate(&scenario, true);
        sims += 1;
        if again.fingerprint != sim.fingerprint {
            out.failures.push(format!(
                "repetition {sims} changed the simulated results of seed {}",
                cfg.seed
            ));
        }
        // Set-up takes milliseconds next to a call phase of seconds, so it
        // is also repeated on its own, with a reference job after each.
        let mut rep_setups = vec![timed.setup_s];
        for _ in 0..SETUP_REPS {
            rep_setups.push(set_up(&scenario).1);
            timed.jobs.push(speed::time_job());
        }
        // The host's speed against the reference: the job's nominal time
        // over its mean time in this repetition.
        let host_speed =
            speed::NOMINAL_S * timed.jobs.len() as f64 / timed.jobs.iter().sum::<f64>();
        calls.push(timed.call_s * host_speed);
        raw_calls.push(timed.call_s);
        setups.extend(rep_setups.iter().map(|s| s * host_speed));
        speeds.push(host_speed);
    }
    let call_s = median(&calls);
    let rss = peak_rss_mib().unwrap_or_else(|| {
        out.failures.push("VmHWM is unavailable".to_string());
        0.0
    });
    out.set("sim_rate", call_span(&scenario).as_secs_f64() / call_s);
    out.set(
        "host_us_per_op",
        1e6 * call_s / sim.report.ops_total.max(1) as f64,
    );
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", rss);
    out.set("goodput_ops", sim.report.throughput.per_sec());
    out.set("invite_p50_ms", sim.invite_p50_ms);
    out.set("invite_p99_ms", sim.invite_p99_ms);
    out.notes = sim.notes();
    out.notes.push(format!(
        "simulations {sims} (first untimed), call phase host s: median {call_s:.4} \
         at reference speed, {:.4} as waited; host speed x{:.3} of reference \
         (median, range {:.3}-{:.3}); set-ups {}",
        median(&raw_calls),
        median(&speeds),
        speeds.iter().copied().fold(f64::INFINITY, f64::min),
        speeds.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        setups.len()
    ));
    out
}

/// Counters read between slices of the traced run.
#[derive(Debug, Clone, Copy)]
struct Snap {
    /// Host seconds since the world started building.
    host_s: f64,
    kernel: KernelStats,
    net: NetStats,
    proxy: ProxyStats,
    ops: u64,
    busy_ns: u64,
    /// Server CPU by profile domain: user, kernel, sched, and the total.
    cpu_ns: [u64; 4],
}

impl Snap {
    fn take(world: &World, host_s: f64) -> Snap {
        let kernel = &world.kernel;
        let profile = kernel.profiler(world.server).report();
        let domain = |d: &str| -> u64 {
            profile
                .rows()
                .iter()
                .filter(|(tag, _)| {
                    tag.strip_prefix(d)
                        .is_some_and(|rest| rest.starts_with('/'))
                })
                .map(|(_, ns)| ns)
                .sum()
        };
        Snap {
            host_s,
            kernel: kernel.stats(),
            net: kernel.net().stats(),
            proxy: world.proxy.stats(),
            ops: world.stats.borrow().ops_total,
            busy_ns: kernel.host_busy_ns(world.server),
            cpu_ns: [
                domain("user"),
                domain("kernel"),
                domain("sched"),
                profile.total_ns(),
            ],
        }
    }
}

/// The traced simulation and what the probes need to know about its world.
struct Trace {
    sim: Sim,
    build_s: f64,
    /// Snapshots at `call_start`, at the window's start, and at its end.
    at_calls: Snap,
    at_window: Snap,
    at_end: Snap,
    /// The server's profile tags.
    tags: Vec<&'static str>,
    /// Server processes and the server's cores.
    server_procs: usize,
    server_cores: usize,
}

/// Drives the scenario with `Kernel::run_until` in [`SLICE`]-long virtual
/// slices, reading every layer's counters between slices.
fn trace(scenario: &Scenario) -> Trace {
    let start = Instant::now();
    let mut world = scenario.build_world();
    let build_s = start.elapsed().as_secs_f64();
    let call_start = SimTime::ZERO + scenario.call_start;
    let (window_start, end) = scenario.window();
    let mut points: Vec<SimTime> = (1u64..)
        .map(|k| SimTime::ZERO + SLICE.saturating_mul(k))
        .take_while(|t| *t < end)
        .chain([call_start, window_start, end])
        .collect();
    points.sort();
    points.dedup();
    let (mut at_calls, mut at_window) = (None, None);
    let mut last = Snap::take(&world, build_s);
    for t in points {
        world.kernel.run_until(t);
        last = Snap::take(&world, start.elapsed().as_secs_f64());
        if t == call_start {
            at_calls = Some(last);
        }
        if t == window_start {
            at_window = Some(last);
        }
    }
    let proxy = &world.proxy;
    Trace {
        sim: Sim::finish(scenario, &world),
        build_s,
        at_calls: at_calls.expect("call_start is a slice boundary"),
        at_window: at_window.expect("the window start is a slice boundary"),
        at_end: last,
        tags: world
            .kernel
            .profiler(world.server)
            .report()
            .rows()
            .iter()
            .map(|(t, _)| *t)
            .collect(),
        server_procs: proxy.workers.len()
            + usize::from(proxy.supervisor.is_some())
            + usize::from(proxy.timer.is_some()),
        server_cores: world.kernel.host_cores(world.server),
    }
}

/// Layer probe results, in host ns.
#[derive(Default)]
struct Probed {
    syscall: f64,
    queue: f64,
    profile_record: f64,
    udp: f64,
    parse: f64,
    serialize: f64,
    frame: f64,
    core_per_call: f64,
}

fn probe(transport: Transport, tr: &Trace, procs: usize, seconds: f64) -> Result<Probed, String> {
    let mix = probes::call_mix(transport);
    let wires: Vec<Vec<u8>> = mix.iter().map(SipMessage::to_bytes).collect();
    Ok(Probed {
        syscall: probes::syscall_ns(tr.server_procs, tr.server_cores, seconds),
        queue: probes::queue_ns(procs, seconds),
        profile_record: probes::profile_record_ns(&tr.tags, seconds),
        udp: probes::udp_ns(&wires, seconds),
        parse: probes::parse_ns(&wires, seconds),
        serialize: probes::serialize_ns(&mix, seconds),
        frame: probes::frame_ns(&wires, seconds),
        core_per_call: probes::core_ns_per_call(transport, seconds)?,
    })
}

/// The per-layer run: one untraced reference simulation, the same seed
/// traced in virtual slices, then the layer probes. A traced fingerprint
/// that differs from the untraced one voids the trace.
pub fn traced(workload: Workload, cfg: &RunConfig) -> Outcome {
    let scenario = workload.scenario(cfg.seed, cfg.horizon);
    let transport = scenario.proxy.transport;
    let (reference, untraced) = simulate(&scenario, false);
    let untraced_call_s = untraced.call_s;
    let tr = trace(&scenario);
    let r = &tr.sim.report;
    let mut out = Outcome {
        attempted: r.call_attempts,
        call_failures: r.call_failures,
        ..Outcome::default()
    };
    check(&scenario, &tr.sim, &mut out.failures);
    if tr.sim.fingerprint != reference.fingerprint {
        out.failures.push(format!(
            "traced fingerprint {:016x} differs from untraced {:016x}: the trace is void",
            tr.sim.fingerprint, reference.fingerprint
        ));
    }

    // Counts over the call phase.
    let (s, w, e) = (&tr.at_calls, &tr.at_window, &tr.at_end);
    let ops = (e.ops - s.ops).max(1) as f64;
    let per_op = |n: u64| n as f64 / ops;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let syscalls = e.kernel.syscalls - s.kernel.syscalls;
    let datagrams = e.net.udp_sent - s.net.udp_sent;
    let segments = e.net.tcp_segments - s.net.tcp_segments;
    let (ep, sp) = (&e.proxy, &s.proxy);
    let msgs = (ep.requests + ep.responses) - (sp.requests + sp.responses);
    let sheds = ep.overload_rejections - sp.overload_rejections;
    let serialized = (ep.forwards + ep.local_replies) - (sp.forwards + sp.local_replies);
    let fd_requests = ep.fd_requests - sp.fd_requests;
    let fd_hits = ep.fd_cache_hits - sp.fd_cache_hits;

    out.set("simos.syscalls_per_op", per_op(syscalls));
    out.set(
        "simos.ctx_switches_per_op",
        per_op(e.kernel.context_switches - s.kernel.context_switches),
    );
    out.set(
        "simos.wakeups_per_op",
        per_op(e.kernel.wakeups - s.kernel.wakeups),
    );
    out.set(
        "simos.lock_yields_per_op",
        per_op(e.kernel.lock_yields - s.kernel.lock_yields),
    );
    out.set(
        "simos.host_ns_per_syscall",
        1e9 * untraced_call_s / syscalls.max(1) as f64,
    );
    out.set("simnet.datagrams_per_op", per_op(datagrams));
    out.set("simnet.segments_per_op", per_op(segments));
    out.set(
        "simnet.conns_per_op",
        per_op(e.net.tcp_established - s.net.tcp_established),
    );
    out.set("simnet.time_wait_end", r.server_time_wait as f64);
    out.set(
        "simnet.queue_drops",
        (e.net.udp_queue_drops - s.net.udp_queue_drops) as f64,
    );
    out.set("proxy.msgs_per_op", per_op(msgs));
    out.set("proxy.forwards_per_op", per_op(ep.forwards - sp.forwards));
    out.set("proxy.fd_requests_per_op", per_op(fd_requests));
    out.set(
        "proxy.fd_cache_hit_ratio",
        ratio(fd_hits, fd_hits + fd_requests),
    );
    out.set(
        "proxy.idle_scan_per_op",
        per_op(ep.idle_scan_entries - sp.idle_scan_entries),
    );
    out.set(
        "proxy.retransmits_per_op",
        per_op(ep.retransmits_sent - sp.retransmits_sent),
    );
    out.set(
        "overload.shed_share",
        ratio(r.calls_rejected, r.call_attempts),
    );
    out.set(
        "workload.phone_retransmits_per_call",
        ratio(r.phone_retransmits, r.call_attempts),
    );
    out.set(
        "workload.retries_per_call",
        ratio(r.rejection_retries, r.call_attempts),
    );
    out.set("workload.late_share", ratio(r.calls_late, r.call_attempts));
    out.set("workload.open_calls_peak", r.open_calls_peak as f64);
    let span_ns = call_span(&scenario).as_nanos();
    out.set(
        "sim.server_util",
        ratio(e.busy_ns - s.busy_ns, tr.server_cores as u64 * span_ns),
    );
    let cpu = |i: usize| ratio(e.cpu_ns[i] - s.cpu_ns[i], e.cpu_ns[3] - s.cpu_ns[3]);
    out.set("sim.cpu_user_share", cpu(0));
    out.set("sim.cpu_kernel_share", cpu(1));
    out.set("sim.cpu_sched_share", cpu(2));
    for (metric, lock) in [
        ("sim.lock_contention.txn_table", "txn_table"),
        ("sim.lock_contention.usrloc", "usrloc"),
        ("sim.lock_contention.timer_list", "timer_list"),
        ("sim.lock_contention.tcpconn_hash", "tcpconn_hash"),
    ] {
        let found = r.lock_contention.iter().find(|(name, _)| *name == lock);
        if found.is_none() {
            out.failures
                .push(format!("lock {lock} is missing from the report"));
        }
        out.set(metric, found.map_or(0.0, |(_, c)| *c));
    }
    let traced_call_s = e.host_s - s.host_s;
    out.set("host.build_s", tr.build_s);
    out.set("host.register_s", s.host_s - tr.build_s);
    out.set("host.ramp_s", w.host_s - s.host_s);
    out.set("host.window_s", e.host_s - w.host_s);
    out.set(
        "trace.overhead_share",
        traced_call_s / untraced_call_s - 1.0,
    );

    // Probes, and the share of untraced call-phase host time that each
    // layer's in-run count accounts for at its probed price.
    let procs = phones(&scenario) + tr.server_procs;
    let p = probe(transport, &tr, procs, cfg.probe_seconds).unwrap_or_else(|e| {
        out.failures.push(e);
        Probed::default()
    });
    for (metric, v) in [
        ("simos.probe_syscall_ns", p.syscall),
        ("simcore.probe_queue_ns", p.queue),
        ("simcore.probe_profile_record_ns", p.profile_record),
        ("simnet.probe_udp_ns", p.udp),
        ("sip.probe_parse_ns", p.parse),
        ("sip.probe_serialize_ns", p.serialize),
        ("sip.probe_frame_ns", p.frame),
        ("proxy.probe_core_ns_per_call", p.core_per_call),
    ] {
        if !(v > 0.0 && v.is_finite()) {
            out.failures.push(format!("probe {metric} read {v}"));
        }
        out.set(metric, v);
    }
    let wall_ns = 1e9 * untraced_call_s;
    let framed = if transport == Transport::Tcp { msgs } else { 0 };
    // Requests the fast path shed never reach `handle_message`.
    let routed = msgs.saturating_sub(sheds);
    let core_per_msg = p.core_per_call / probes::CORE_MSGS_PER_CALL as f64;
    let additive = [
        ("trace.share.simos", p.syscall * syscalls as f64),
        ("trace.share.simnet", p.udp * (datagrams + segments) as f64),
        ("trace.share.sip_parse", p.parse * msgs as f64),
        ("trace.share.sip_frame", p.frame * framed as f64),
        ("trace.share.proxy_core", core_per_msg * routed as f64),
    ];
    let mut attributed = 0.0;
    for (metric, ns) in additive {
        attributed += ns / wall_ns;
        out.set(metric, ns / wall_ns);
    }
    out.set("trace.unattributed_share", 1.0 - attributed);
    out.set(
        "trace.share.queue",
        p.queue * (syscalls + datagrams + segments) as f64 / wall_ns,
    );
    out.set(
        "trace.share.profile_record",
        p.profile_record * syscalls as f64 / wall_ns,
    );
    out.set(
        "trace.share.sip_serialize",
        p.serialize * serialized as f64 / wall_ns,
    );

    out.notes = tr.sim.notes();
    out.notes.push(format!(
        "call phase host s: untraced {untraced_call_s:.4} traced {traced_call_s:.4}"
    ));
    out
}
