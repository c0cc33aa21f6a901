//! The network fabric: hosts, latency, the endpoint table, and the
//! message sockets UDP and SCTP share.
//!
//! [`Network`] is a pure state machine. The simulated kernel calls socket
//! operations on it, drains the events it wants delivered later
//! ([`Network::take_events`]) into the global event queue, feeds them back
//! through [`Network::handle_event`] when they fire, and drains the
//! readiness [`NetOutcome`]s ([`Network::take_outcomes`]) to wake blocked
//! processes.

use siperf_simcore::arena::Arena;
use siperf_simcore::hash::FastMap;
use siperf_simcore::rng::SimRng;
use siperf_simcore::time::{SimDuration, SimTime};

use crate::addr::{HostId, Port, SockAddr};
use crate::config::NetConfig;
use crate::endpoint::{Bytes, Datagram, Endpoint, EpId, MsgEp, MsgProto};
use crate::error::Errno;
use crate::event::{NetEvent, NetOutcome};
use crate::fault::FaultState;
use crate::ports::PortPool;

/// Aggregate traffic statistics for a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetStats {
    /// UDP datagrams handed to the network.
    pub udp_sent: u64,
    /// UDP datagrams dropped by the loss model.
    pub udp_lost: u64,
    /// UDP datagrams dropped at full receive queues.
    pub udp_queue_drops: u64,
    /// TCP connections fully established.
    pub tcp_established: u64,
    /// TCP connection attempts refused.
    pub tcp_refused: u64,
    /// TCP segments delivered.
    pub tcp_segments: u64,
    /// Application bytes carried over TCP.
    pub tcp_bytes: u64,
    /// SCTP messages delivered.
    pub sctp_messages: u64,
    /// SCTP associations established.
    pub sctp_assocs: u64,
    /// Frames dropped by injected link faults (partition/burst loss).
    pub fault_drops: u64,
    /// Reliable-transport frames delayed by injected link faults.
    pub fault_delays: u64,
    /// TCP connections killed by injected RSTs.
    pub tcp_resets: u64,
}

/// The simulated network fabric.
#[derive(Debug)]
pub struct Network {
    pub(crate) cfg: NetConfig,
    pub(crate) eps: Arena<Endpoint>,
    // Name tables, looked up on every send; `fault.rs::accept_thaw` sorts
    // its one walk. Message sockets keep one table per `MsgProto`, so UDP
    // and SCTP bind the same port independently.
    pub(crate) msg_bound: [FastMap<SockAddr, EpId>; 2],
    pub(crate) tcp_listeners: FastMap<SockAddr, EpId>,
    pub(crate) ports: Vec<PortPool>,
    pub(crate) ep_count: Vec<usize>,
    pub(crate) rng: SimRng,
    /// Dedicated stream for fault decisions (loss, burst chains): isolated
    /// from `rng` so toggling faults never shifts the jitter schedule.
    pub(crate) fault_rng: SimRng,
    pub(crate) faults: FaultState,
    pub(crate) events: Vec<(SimTime, NetEvent)>,
    pub(crate) outcomes: Vec<NetOutcome>,
    pub(crate) stats: NetStats,
}

impl Network {
    /// Creates a fabric with the given parameters and RNG seed (for latency
    /// jitter and the UDP loss model).
    pub fn new(cfg: NetConfig, seed: u64) -> Self {
        Network {
            cfg,
            eps: Arena::with_capacity(1024),
            msg_bound: Default::default(),
            tcp_listeners: FastMap::default(),
            ports: Vec::new(),
            ep_count: Vec::new(),
            rng: SimRng::seed_from_u64(seed ^ 0x6e65_7421),
            fault_rng: SimRng::seed_from_u64(seed ^ 0xfa17_0bad),
            faults: FaultState::default(),
            events: Vec::new(),
            outcomes: Vec::new(),
            stats: NetStats::default(),
        }
    }

    /// Registers a machine and returns its id.
    pub fn add_host(&mut self) -> HostId {
        let id = HostId(self.ports.len() as u32);
        self.ports
            .push(PortPool::new(self.cfg.ephemeral_lo, self.cfg.ephemeral_hi));
        self.ep_count.push(0);
        id
    }

    /// The active configuration.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Live endpoints on `host` (sockets the host's descriptor budget pays
    /// for).
    pub fn endpoints_on(&self, host: HostId) -> usize {
        self.ep_count[host.0 as usize]
    }

    /// Ephemeral ports currently available on `host`.
    pub fn ports_available(&self, host: HostId) -> usize {
        self.ports[host.0 as usize].available()
    }

    /// Ports of `host` currently held in TIME_WAIT.
    pub fn ports_in_time_wait(&self, host: HostId) -> usize {
        self.ports[host.0 as usize].in_time_wait()
    }

    /// Drains wire events scheduled by operations since the last call. The
    /// kernel must enqueue each at its timestamp and hand it back through
    /// [`Network::handle_event`].
    pub fn take_events(&mut self) -> Vec<(SimTime, NetEvent)> {
        std::mem::take(&mut self.events)
    }

    /// Drains readiness outcomes produced since the last call.
    pub fn take_outcomes(&mut self) -> Vec<NetOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// One-way delivery delay for the next frame (latency plus jitter plus
    /// any active latency-spike fault).
    pub(crate) fn delay(&mut self, now: SimTime) -> SimDuration {
        let jitter_ns = self.cfg.latency_jitter.as_nanos();
        let jitter = if jitter_ns == 0 {
            0
        } else {
            self.rng.range_u64(0..jitter_ns)
        };
        self.cfg.one_way_latency + SimDuration::from_nanos(jitter) + self.spike_extra(now)
    }

    pub(crate) fn charge_endpoint(&mut self, host: HostId) -> Result<(), Errno> {
        let n = &mut self.ep_count[host.0 as usize];
        if *n >= self.cfg.max_endpoints_per_host {
            return Err(Errno::Emfile);
        }
        *n += 1;
        Ok(())
    }

    pub(crate) fn uncharge_endpoint(&mut self, host: HostId) {
        let n = &mut self.ep_count[host.0 as usize];
        debug_assert!(*n > 0, "endpoint count underflow");
        *n = n.saturating_sub(1);
    }

    /// True if a read-like operation on `ep` would complete immediately
    /// (data, EOF, failure, or an acceptable connection).
    pub fn readable(&self, ep: EpId) -> bool {
        match self.eps.get(ep) {
            Some(Endpoint::Msg(m)) => !m.rx.is_empty(),
            Some(Endpoint::TcpListener(l)) => !l.queue.is_empty(),
            Some(Endpoint::Tcp(t)) => t.readable(),
            None => true, // stale fd: let the caller observe the error
        }
    }

    /// Dispatches a wire event that the kernel's clock says is due.
    pub fn handle_event(&mut self, now: SimTime, ev: NetEvent) {
        match ev {
            NetEvent::UdpDeliver { to, dgram } => {
                if self.msg_enqueue(to, dgram) == Some(false) {
                    self.stats.udp_queue_drops += 1;
                }
            }
            NetEvent::TcpSyn {
                to_host,
                to_port,
                from_ep,
                from_addr,
            } => self.tcp_syn(now, to_host, to_port, from_ep, from_addr),
            NetEvent::TcpSynAck { to, server_ep } => self.tcp_syn_ack(to, server_ep),
            NetEvent::TcpRefused { to, err } => self.tcp_refused(to, err),
            NetEvent::TcpSegment {
                to,
                data,
                offset,
                len,
            } => self.tcp_segment(to, data, offset, len),
            NetEvent::TcpFin { to } => self.tcp_fin(to),
            NetEvent::PortRelease { host, port } => {
                self.ports[host.0 as usize].release_time_wait(port);
            }
            NetEvent::SctpDeliver {
                to_host,
                to_port,
                from,
                data,
            } => self.sctp_deliver(to_host, to_port, from, data),
            NetEvent::AcceptThaw { host } => self.accept_thaw(now, host),
        }
    }

    // ------------------------------------------------------ message sockets

    /// Binds a message socket of `proto` on `host:port`, or on an
    /// ephemeral port when `port` is `None`; returns it with its port.
    ///
    /// # Errors
    ///
    /// [`Errno::AddrInUse`] if `proto` already has the port,
    /// [`Errno::Emfile`] if the host's descriptor budget is spent, and
    /// ephemeral-pool exhaustion.
    pub fn msg_bind(
        &mut self,
        proto: MsgProto,
        host: HostId,
        port: Option<Port>,
    ) -> Result<(EpId, Port), Errno> {
        let port_num = match port {
            Some(p) => p,
            None => self.ports[host.0 as usize].allocate()?,
        };
        let addr = SockAddr::new(host, port_num);
        let bound = if self.msg_bound[proto as usize].contains_key(&addr) {
            Err(Errno::AddrInUse)
        } else {
            self.charge_endpoint(host)
        };
        if let Err(e) = bound {
            if port.is_none() {
                self.ports[host.0 as usize].release(port_num);
            }
            return Err(e);
        }
        let ep = self.eps.insert(Endpoint::Msg(MsgEp {
            proto,
            local: addr,
            rx: Default::default(),
            assoc: Default::default(),
        }));
        self.msg_bound[proto as usize].insert(addr, ep);
        Ok((ep, port_num))
    }

    /// Binds a UDP socket on `host:port`: [`Network::msg_bind`] for UDP.
    ///
    /// # Errors
    ///
    /// As [`Network::msg_bind`].
    pub fn udp_bind(&mut self, host: HostId, port: Port) -> Result<EpId, Errno> {
        self.msg_bind(MsgProto::Udp, host, Some(port))
            .map(|(ep, _)| ep)
    }

    /// Non-blocking receive of one whole message with its source address.
    ///
    /// # Errors
    ///
    /// [`Errno::WouldBlock`] when the queue is empty; [`Errno::BadFd`] for
    /// endpoints that are not message sockets.
    pub fn msg_try_recv(&mut self, ep: EpId) -> Result<Datagram, Errno> {
        match self.eps.get_mut(ep) {
            Some(Endpoint::Msg(m)) => m.rx.pop_front().ok_or(Errno::WouldBlock),
            _ => Err(Errno::BadFd),
        }
    }

    /// [`Network::msg_try_recv`] under its UDP name.
    ///
    /// # Errors
    ///
    /// As [`Network::msg_try_recv`].
    pub fn udp_try_recv(&mut self, ep: EpId) -> Result<Datagram, Errno> {
        self.msg_try_recv(ep)
    }

    /// The arrival step both protocols share: queues `msg` on `to` and
    /// announces it, or drops it when the queue is full. `Some(queued)`,
    /// or `None` if `to` is gone.
    pub(crate) fn msg_enqueue(&mut self, to: EpId, msg: Datagram) -> Option<bool> {
        let Some(Endpoint::Msg(m)) = self.eps.get_mut(to) else {
            return None;
        };
        if m.rx.len() >= self.cfg.udp_rcv_queue {
            return Some(false);
        }
        m.rx.push_back(msg);
        self.outcomes.push(NetOutcome::Readable(to));
        Some(true)
    }

    /// Sends one datagram from a bound UDP socket to `to`.
    ///
    /// Delivery (or loss) and the receiving socket are both resolved now,
    /// at send time: a datagram to a port that is bound only after the
    /// send vanishes, unlike an SCTP message.
    ///
    /// # Errors
    ///
    /// [`Errno::BadFd`] if `from` is not a UDP socket.
    pub fn udp_send(
        &mut self,
        now: SimTime,
        from: EpId,
        to: SockAddr,
        data: Bytes,
    ) -> Result<(), Errno> {
        let from_addr = match self.eps.get(from) {
            Some(Endpoint::Msg(m)) if m.proto == MsgProto::Udp => m.local,
            _ => return Err(Errno::BadFd),
        };
        self.stats.udp_sent += 1;
        // Draw the latency jitter *before* any drop decision so lossy and
        // clean runs consume the jitter stream identically; all loss
        // randomness comes from the dedicated fault stream.
        let delay = self.delay(now);
        if self.cfg.udp_loss > 0.0 && self.fault_rng.chance(self.cfg.udp_loss) {
            self.stats.udp_lost += 1;
            return Ok(()); // silently lost, like real UDP
        }
        if self.link_drops(now, from_addr.host, to.host) {
            self.stats.udp_lost += 1;
            return Ok(());
        }
        if let Some(&dst) = self.msg_bound[MsgProto::Udp as usize].get(&to) {
            self.events.push((
                now + delay,
                NetEvent::UdpDeliver {
                    to: dst,
                    dgram: Datagram {
                        from: from_addr,
                        data,
                    },
                },
            ));
        }
        // No receiver: datagram vanishes (ICMP unreachable not modelled).
        Ok(())
    }

    /// Closes any endpoint type, releasing names, ports, and peer state.
    pub fn close(&mut self, now: SimTime, ep: EpId) {
        match self.eps.get(ep) {
            Some(Endpoint::Msg(_)) => self.close_msg(ep),
            Some(Endpoint::TcpListener(_)) => self.close_listener(now, ep),
            Some(Endpoint::Tcp(_)) => self.close_tcp(now, ep),
            None => {}
        }
    }

    fn close_msg(&mut self, ep: EpId) {
        if let Some(Endpoint::Msg(m)) = self.eps.get(ep) {
            let (proto, addr) = (m.proto, m.local);
            self.msg_bound[proto as usize].remove(&addr);
            self.eps.remove(ep);
            self.uncharge_endpoint(addr.host);
            if addr.port >= self.cfg.ephemeral_lo && addr.port <= self.cfg.ephemeral_hi {
                self.ports[addr.host.0 as usize].release(addr.port);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::bytes_from;

    fn net() -> (Network, HostId, HostId) {
        let mut n = Network::new(NetConfig::lan(), 1);
        let a = n.add_host();
        let b = n.add_host();
        (n, a, b)
    }

    /// Runs all pending events whose time has come, in order; returns the
    /// outcomes produced. Small helper standing in for the kernel loop.
    fn pump(n: &mut Network) -> Vec<NetOutcome> {
        let mut evs = n.take_events();
        evs.sort_by_key(|(t, _)| *t);
        for (t, ev) in evs {
            n.handle_event(t, ev);
        }
        n.take_outcomes()
    }

    #[test]
    fn udp_roundtrip() {
        let (mut n, a, b) = net();
        let sa = n.udp_bind(a, 5060).unwrap();
        let (sb, port_b) = n.msg_bind(MsgProto::Udp, b, None).unwrap();
        n.udp_send(
            SimTime::ZERO,
            sb,
            SockAddr::new(a, 5060),
            bytes_from(b"INVITE".to_vec()),
        )
        .unwrap();
        let outcomes = pump(&mut n);
        assert_eq!(outcomes, vec![NetOutcome::Readable(sa)]);
        let d = n.udp_try_recv(sa).unwrap();
        assert_eq!(&*d.data, b"INVITE");
        assert_eq!(d.from, SockAddr::new(b, port_b));
        assert_eq!(n.udp_try_recv(sa), Err(Errno::WouldBlock));
        assert_eq!(n.stats().udp_sent, 1);
    }

    #[test]
    fn udp_bind_conflicts() {
        let (mut n, a, _) = net();
        n.udp_bind(a, 5060).unwrap();
        assert_eq!(n.udp_bind(a, 5060), Err(Errno::AddrInUse));
    }

    #[test]
    fn udp_to_unbound_port_vanishes() {
        let (mut n, a, b) = net();
        let (sb, _) = n.msg_bind(MsgProto::Udp, b, None).unwrap();
        n.udp_send(SimTime::ZERO, sb, SockAddr::new(a, 9), bytes_from(vec![1]))
            .unwrap();
        assert!(pump(&mut n).is_empty());
    }

    #[test]
    fn udp_loss_model_drops() {
        let mut cfg = NetConfig::lan();
        cfg.udp_loss = 1.0;
        let mut n = Network::new(cfg, 1);
        let a = n.add_host();
        let b = n.add_host();
        let sa = n.udp_bind(a, 5060).unwrap();
        let (sb, _) = n.msg_bind(MsgProto::Udp, b, None).unwrap();
        n.udp_send(
            SimTime::ZERO,
            sb,
            SockAddr::new(a, 5060),
            bytes_from(vec![1]),
        )
        .unwrap();
        assert!(pump(&mut n).is_empty());
        assert_eq!(n.stats().udp_lost, 1);
        assert_eq!(n.udp_try_recv(sa), Err(Errno::WouldBlock));
    }

    #[test]
    fn udp_queue_overflow_drops() {
        let mut cfg = NetConfig::lan();
        cfg.udp_rcv_queue = 2;
        let mut n = Network::new(cfg, 1);
        let a = n.add_host();
        let b = n.add_host();
        let _sa = n.udp_bind(a, 5060).unwrap();
        let (sb, _) = n.msg_bind(MsgProto::Udp, b, None).unwrap();
        for _ in 0..5 {
            n.udp_send(
                SimTime::ZERO,
                sb,
                SockAddr::new(a, 5060),
                bytes_from(vec![1]),
            )
            .unwrap();
        }
        let readable = pump(&mut n).len();
        assert_eq!(readable, 2);
        assert_eq!(n.stats().udp_queue_drops, 3);
    }

    #[test]
    fn udp_close_releases_name_and_port() {
        let (mut n, a, _) = net();
        let (ep, port) = n.msg_bind(MsgProto::Udp, a, None).unwrap();
        let avail = n.ports_available(a);
        n.close(SimTime::ZERO, ep);
        assert_eq!(n.ports_available(a), avail + 1);
        assert_eq!(n.endpoints_on(a), 0);
        // Name free again.
        n.udp_bind(a, port).unwrap();
    }

    #[test]
    fn udp_and_sctp_share_a_port_independently() {
        let (mut n, a, b) = net();
        let (udp, _) = n.msg_bind(MsgProto::Udp, a, Some(5060)).unwrap();
        let (sctp, _) = n.msg_bind(MsgProto::Sctp, a, Some(5060)).unwrap();
        let (udp_b, _) = n.msg_bind(MsgProto::Udp, b, None).unwrap();
        let (sctp_b, _) = n.msg_bind(MsgProto::Sctp, b, None).unwrap();
        let to = SockAddr::new(a, 5060);
        n.udp_send(SimTime::ZERO, udp_b, to, bytes_from(b"u".to_vec()))
            .unwrap();
        n.sctp_send(SimTime::ZERO, sctp_b, to, bytes_from(b"s".to_vec()))
            .unwrap();
        pump(&mut n);
        assert_eq!(&*n.msg_try_recv(udp).unwrap().data, b"u");
        assert_eq!(n.msg_try_recv(udp), Err(Errno::WouldBlock));
        assert_eq!(&*n.msg_try_recv(sctp).unwrap().data, b"s");
        assert_eq!(n.msg_try_recv(sctp), Err(Errno::WouldBlock));
        // Closing the UDP socket frees only the UDP name.
        n.close(SimTime::ZERO, udp);
        let taken = n.msg_bind(MsgProto::Sctp, a, Some(5060));
        assert_eq!(taken, Err(Errno::AddrInUse));
        n.sctp_send(SimTime::ZERO, sctp_b, to, bytes_from(b"t".to_vec()))
            .unwrap();
        pump(&mut n);
        assert_eq!(&*n.msg_try_recv(sctp).unwrap().data, b"t");
        n.msg_bind(MsgProto::Udp, a, Some(5060)).unwrap();
    }

    #[test]
    fn endpoint_budget_enforced() {
        let mut cfg = NetConfig::lan();
        cfg.max_endpoints_per_host = 1;
        let mut n = Network::new(cfg, 1);
        let a = n.add_host();
        n.udp_bind(a, 1000).unwrap();
        assert_eq!(n.udp_bind(a, 1001), Err(Errno::Emfile));
    }

    #[test]
    fn delay_within_bounds() {
        let (mut n, _, _) = net();
        for _ in 0..100 {
            let d = n.delay(SimTime::ZERO);
            assert!(d >= n.cfg.one_way_latency);
            assert!(d < n.cfg.one_way_latency + n.cfg.latency_jitter);
        }
    }
}
