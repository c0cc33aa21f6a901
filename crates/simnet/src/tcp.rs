//! The TCP model: handshake, ordered byte streams, backpressure, ports.
//!
//! Faithful enough for the paper's phenomena to emerge:
//!
//! * **Connection establishment costs a round trip** and server-side accept
//!   work — why OpenSER must keep connections open across transactions.
//! * **Streams have no message boundaries**: sends are delivered in
//!   MSS-sized segments and receivers see arbitrary chunk boundaries, so the
//!   SIP layer genuinely reframes messages (the reason only one worker may
//!   read a connection, §3.1).
//! * **Receive buffers apply backpressure**: a sender blocks when the peer's
//!   buffer is full — one half of the §6 supervisor/worker deadlock.
//! * **Closes hold ephemeral ports in TIME_WAIT**, so churny workloads with
//!   long idle timeouts starve the pool (§4.3).

use siperf_simcore::time::SimTime;

use crate::addr::{HostId, Port, SockAddr};
use crate::endpoint::{Bytes, Endpoint, EpId, ListenEp, TcpEp, TcpState};
use crate::error::Errno;
use crate::event::{NetEvent, NetOutcome};
use crate::net::Network;

impl Network {
    // ------------------------------------------------------------- setup

    /// Puts a socket into LISTEN state on `host:port`.
    ///
    /// # Errors
    ///
    /// [`Errno::AddrInUse`] if the port already has a listener;
    /// [`Errno::Emfile`] if the host's descriptor budget is spent.
    pub fn tcp_listen(&mut self, host: HostId, port: Port, backlog: usize) -> Result<EpId, Errno> {
        let addr = SockAddr::new(host, port);
        if self.tcp_listeners.contains_key(&addr) {
            return Err(Errno::AddrInUse);
        }
        self.charge_endpoint(host)?;
        let backlog = backlog.min(self.cfg.accept_backlog).max(1);
        let ep = self.eps.insert(Endpoint::TcpListener(ListenEp {
            local: addr,
            backlog,
            queue: Default::default(),
        }));
        self.tcp_listeners.insert(addr, ep);
        Ok(ep)
    }

    /// Starts a connection from `host` to `to`. The returned endpoint is in
    /// `SynSent`; a [`NetOutcome::ConnectOk`] or [`NetOutcome::ConnectErr`]
    /// follows once the handshake resolves.
    ///
    /// # Errors
    ///
    /// [`Errno::PortsExhausted`] or [`Errno::Emfile`] when local resources
    /// are spent.
    pub fn tcp_connect(&mut self, now: SimTime, host: HostId, to: SockAddr) -> Result<EpId, Errno> {
        let port = self.ports[host.0 as usize].allocate()?;
        if let Err(e) = self.charge_endpoint(host) {
            self.ports[host.0 as usize].release(port);
            return Err(e);
        }
        let local = SockAddr::new(host, port);
        let ep = self.eps.insert(Endpoint::Tcp(TcpEp {
            local,
            peer_addr: to,
            peer: EpId::DANGLING,
            state: TcpState::SynSent,
            rx: Default::default(),
            rx_bytes: 0,
            eof: false,
            in_flight: 0,
            next_deliver_at: SimTime::ZERO,
            owns_port: true,
            app_closed: false,
        }));
        // A partition or burst hit on the SYN shows up as handshake delay
        // (the stack retransmits SYNs), never as a silent drop.
        let delay = self.delay(now) + self.link_extra(now, host, to.host);
        self.events.push((
            now + delay,
            NetEvent::TcpSyn {
                to_host: to.host,
                to_port: to.port,
                from_ep: ep,
                from_addr: local,
            },
        ));
        Ok(ep)
    }

    /// Non-blocking accept.
    ///
    /// # Errors
    ///
    /// [`Errno::WouldBlock`] when the queue is empty; [`Errno::BadFd`] on a
    /// non-listener.
    pub fn tcp_try_accept(&mut self, listener: EpId) -> Result<(EpId, SockAddr), Errno> {
        let host = match self.eps.get(listener) {
            Some(Endpoint::TcpListener(l)) => l.local.host,
            _ => return Err(Errno::BadFd),
        };
        if self.accepts_frozen(host) {
            // Accept-queue freeze fault: connections keep queueing but the
            // application cannot reap them until the thaw.
            return Err(Errno::WouldBlock);
        }
        match self.eps.get_mut(listener) {
            Some(Endpoint::TcpListener(l)) => l.queue.pop_front().ok_or(Errno::WouldBlock),
            _ => Err(Errno::BadFd),
        }
    }

    /// Current state of a connection endpoint.
    ///
    /// # Errors
    ///
    /// [`Errno::BadFd`] for anything that is not a live TCP connection.
    pub fn tcp_state(&self, ep: EpId) -> Result<TcpState, Errno> {
        match self.eps.get(ep) {
            Some(Endpoint::Tcp(t)) => Ok(t.state),
            _ => Err(Errno::BadFd),
        }
    }

    // -------------------------------------------------------------- data

    /// Bytes the peer's receive buffer can still absorb from this sender.
    pub fn tcp_free_window(&self, ep: EpId) -> usize {
        let Some(Endpoint::Tcp(t)) = self.eps.get(ep) else {
            return 0;
        };
        let Some(Endpoint::Tcp(peer)) = self.eps.get(t.peer) else {
            return 0;
        };
        self.cfg
            .tcp_rcv_buf
            .saturating_sub(peer.rx_bytes + t.in_flight)
    }

    /// Queues `data` on the stream. All-or-nothing: if the peer's window
    /// cannot take the whole buffer the call fails with
    /// [`Errno::WouldBlock`] and the kernel blocks the writer until a
    /// [`NetOutcome::Writable`] arrives.
    ///
    /// # Errors
    ///
    /// [`Errno::WouldBlock`] on a full window; [`Errno::ConnReset`] when the
    /// peer is gone or has closed; [`Errno::NotConnected`] during the
    /// handshake; [`Errno::BadFd`] on non-connections.
    ///
    /// # Panics
    ///
    /// Panics on empty payloads — a send of nothing is always an
    /// application bug.
    pub fn tcp_send(&mut self, now: SimTime, ep: EpId, data: Bytes) -> Result<(), Errno> {
        assert!(!data.is_empty(), "tcp_send of empty payload");
        let (peer, state, app_closed, from_host, to_host) = match self.eps.get(ep) {
            Some(Endpoint::Tcp(t)) => (
                t.peer,
                t.state,
                t.app_closed,
                t.local.host,
                t.peer_addr.host,
            ),
            _ => return Err(Errno::BadFd),
        };
        if app_closed {
            return Err(Errno::BadFd);
        }
        match state {
            TcpState::SynSent => return Err(Errno::NotConnected),
            TcpState::Failed(e) => return Err(e),
            TcpState::PeerClosed => return Err(Errno::ConnReset),
            TcpState::Established => {}
        }
        if !matches!(self.eps.get(peer), Some(Endpoint::Tcp(_))) {
            return Err(Errno::ConnReset);
        }
        if self.tcp_free_window(ep) < data.len() {
            return Err(Errno::WouldBlock);
        }

        // One fault verdict per send: a "lost" frame on a reliable stream
        // stalls the whole send by a retransmission timeout.
        let fault_extra = self.link_extra(now, from_host, to_host);
        let mss = self.cfg.mss;
        let total = data.len();
        let mut offset = 0;
        while offset < total {
            let len = mss.min(total - offset);
            let delay = self.delay(now) + fault_extra;
            // In-order delivery: a later segment may never arrive earlier
            // than a previous one on the same stream.
            let (deliver_at, seg) = {
                let Some(Endpoint::Tcp(t)) = self.eps.get_mut(ep) else {
                    unreachable!("checked above");
                };
                let at = (now + delay).max(t.next_deliver_at);
                t.next_deliver_at = at;
                t.in_flight += len;
                (
                    at,
                    NetEvent::TcpSegment {
                        to: peer,
                        data: data.clone(),
                        offset,
                        len,
                    },
                )
            };
            self.events.push((deliver_at, seg));
            self.stats.tcp_segments += 1;
            offset += len;
        }
        self.stats.tcp_bytes += total as u64;
        Ok(())
    }

    /// Non-blocking read of up to `max` bytes.
    ///
    /// Returns the bytes read and whether EOF has been reached (peer closed
    /// and the stream is drained).
    ///
    /// # Errors
    ///
    /// [`Errno::WouldBlock`] when no data or EOF is available yet; the
    /// connection's failure errno after a failed connect; [`Errno::BadFd`]
    /// on non-connections.
    pub fn tcp_try_recv(&mut self, ep: EpId, max: usize) -> Result<(Vec<u8>, bool), Errno> {
        let (out, drained, peer, eof) = {
            let t = match self.eps.get_mut(ep) {
                Some(Endpoint::Tcp(t)) => t,
                _ => return Err(Errno::BadFd),
            };
            if let TcpState::Failed(e) = t.state {
                return Err(e);
            }
            let mut out = Vec::with_capacity(max.min(t.rx_bytes));
            while out.len() < max {
                let Some((buf, off)) = t.rx.front_mut() else {
                    break;
                };
                let take = (buf.len() - *off).min(max - out.len());
                out.extend_from_slice(&buf[*off..*off + take]);
                *off += take;
                if *off == buf.len() {
                    t.rx.pop_front();
                }
            }
            t.rx_bytes -= out.len();
            let eof = t.eof && t.rx_bytes == 0;
            if out.is_empty() && !eof {
                return Err(Errno::WouldBlock);
            }
            let drained = !out.is_empty();
            (out, drained, t.peer, eof)
        };
        if drained {
            if let Some(Endpoint::Tcp(_)) = self.eps.get(peer) {
                // Window opened: blocked writers on the peer may proceed.
                self.outcomes.push(NetOutcome::Writable(peer));
            }
        }
        Ok((out, eof))
    }

    // ------------------------------------------------------------- close

    pub(crate) fn close_tcp(&mut self, now: SimTime, ep: EpId) {
        let Some(Endpoint::Tcp(t)) = self.eps.get(ep) else {
            return;
        };
        let host = t.local.host;
        let port = t.local.port;
        let owns_port = t.owns_port;
        let peer = t.peer;
        let state = t.state;
        let passive = t.eof; // peer FIN'd first: we are the passive closer
        let stream_tail = t.next_deliver_at; // FIN may not overtake data

        // Tell the peer we are gone and unstick any of its blocked writers.
        if let Some(Endpoint::Tcp(p)) = self.eps.get_mut(peer) {
            if !p.app_closed {
                // Data still in flight towards us will be discarded when it
                // arrives at our (now removed) endpoint; credit it back so
                // the peer's window accounting cannot wedge.
                p.in_flight = 0;
                let delay = self.delay(now);
                let at = (now + delay).max(stream_tail);
                self.events.push((at, NetEvent::TcpFin { to: peer }));
                self.outcomes.push(NetOutcome::Writable(peer));
            }
        }

        self.eps.remove(ep);
        self.uncharge_endpoint(host);
        if owns_port {
            let pool = &mut self.ports[host.0 as usize];
            let active_close = matches!(state, TcpState::Established) && !passive;
            if active_close {
                pool.enter_time_wait(port);
                self.events.push((
                    now + self.cfg.time_wait,
                    NetEvent::PortRelease { host, port },
                ));
            } else {
                // Never established, failed, or passive close: no TIME_WAIT.
                pool.release(port);
            }
        }
    }

    pub(crate) fn close_listener(&mut self, now: SimTime, ep: EpId) {
        let Some(Endpoint::TcpListener(l)) = self.eps.get(ep) else {
            return;
        };
        let addr = l.local;
        let pending: Vec<EpId> = l.queue.iter().map(|(e, _)| *e).collect();
        for conn in pending {
            self.close_tcp(now, conn);
        }
        self.tcp_listeners.remove(&addr);
        self.eps.remove(ep);
        self.uncharge_endpoint(addr.host);
    }

    // ------------------------------------------------------ wire events

    pub(crate) fn tcp_syn(
        &mut self,
        now: SimTime,
        to_host: HostId,
        to_port: Port,
        from_ep: EpId,
        from_addr: SockAddr,
    ) {
        let refuse = |net: &mut Network, err: Errno| {
            let delay = net.delay(now);
            net.stats.tcp_refused += 1;
            net.events
                .push((now + delay, NetEvent::TcpRefused { to: from_ep, err }));
        };

        let listener = match self.tcp_listeners.get(&SockAddr::new(to_host, to_port)) {
            Some(&l) => l,
            None => return refuse(self, Errno::ConnRefused),
        };
        let (local, queue_full) = match self.eps.get(listener) {
            Some(Endpoint::TcpListener(l)) => (l.local, l.queue.len() >= l.backlog),
            _ => return refuse(self, Errno::ConnRefused),
        };
        if queue_full {
            return refuse(self, Errno::ConnRefused);
        }
        if self.charge_endpoint(to_host).is_err() {
            // Server out of descriptors: SYN answered with RST.
            return refuse(self, Errno::ConnRefused);
        }
        let server_ep = self.eps.insert(Endpoint::Tcp(TcpEp {
            local,
            peer_addr: from_addr,
            peer: from_ep,
            state: TcpState::Established,
            rx: Default::default(),
            rx_bytes: 0,
            eof: false,
            in_flight: 0,
            next_deliver_at: SimTime::ZERO,
            owns_port: false,
            app_closed: false,
        }));
        if let Some(Endpoint::TcpListener(l)) = self.eps.get_mut(listener) {
            l.queue.push_back((server_ep, from_addr));
        }
        self.outcomes.push(NetOutcome::Readable(listener));
        let delay = self.delay(now);
        self.events.push((
            now + delay,
            NetEvent::TcpSynAck {
                to: from_ep,
                server_ep,
            },
        ));
    }

    pub(crate) fn tcp_syn_ack(&mut self, to: EpId, server_ep: EpId) {
        if let Some(Endpoint::Tcp(t)) = self.eps.get_mut(to) {
            if t.state == TcpState::SynSent {
                t.state = TcpState::Established;
                t.peer = server_ep;
                self.stats.tcp_established += 1;
                self.outcomes.push(NetOutcome::ConnectOk(to));
            }
        }
        // Client vanished while connecting: the server-side endpoint will
        // learn via its own FIN path when the app closes; nothing to do.
    }

    pub(crate) fn tcp_refused(&mut self, to: EpId, err: Errno) {
        if let Some(Endpoint::Tcp(t)) = self.eps.get_mut(to) {
            if t.state == TcpState::SynSent {
                t.state = TcpState::Failed(err);
                self.outcomes.push(NetOutcome::ConnectErr(to, err));
                self.outcomes.push(NetOutcome::Readable(to));
            }
        }
    }

    pub(crate) fn tcp_segment(&mut self, to: EpId, data: Bytes, offset: usize, len: usize) {
        // Credit the sender's in-flight accounting even if the receiver is
        // closing, so windows cannot wedge.
        let sender = match self.eps.get(to) {
            Some(Endpoint::Tcp(t)) => Some(t.peer),
            _ => None,
        };
        if let Some(sender) = sender {
            if let Some(Endpoint::Tcp(s)) = self.eps.get_mut(sender) {
                s.in_flight = s.in_flight.saturating_sub(len);
            }
        }
        if let Some(Endpoint::Tcp(t)) = self.eps.get_mut(to) {
            if t.app_closed || matches!(t.state, TcpState::Failed(_)) {
                // Closed locally or killed by an injected RST: data arriving
                // for a dead connection is discarded.
                return;
            }
            t.rx.push_back((slice_bytes(&data, offset, len), 0));
            t.rx_bytes += len;
            self.outcomes.push(NetOutcome::Readable(to));
        }
    }

    pub(crate) fn tcp_fin(&mut self, to: EpId) {
        if let Some(Endpoint::Tcp(t)) = self.eps.get_mut(to) {
            if matches!(t.state, TcpState::Failed(_)) {
                return; // already dead (reset); keep the reset errno
            }
            t.eof = true;
            if t.state == TcpState::Established {
                t.state = TcpState::PeerClosed;
            }
            self.outcomes.push(NetOutcome::Readable(to));
            self.outcomes.push(NetOutcome::Writable(to)); // writers fail fast
        }
    }
}

/// Sub-slices a shared payload without copying when it spans the whole
/// buffer (the common single-segment case).
fn slice_bytes(data: &Bytes, offset: usize, len: usize) -> Bytes {
    if offset == 0 && len == data.len() {
        data.clone()
    } else {
        std::rc::Rc::from(data[offset..offset + len].to_vec().into_boxed_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use crate::endpoint::bytes_from;

    struct Harness {
        net: Network,
        queue: siperf_simcore::queue::EventQueue<NetEvent>,
        outcomes: Vec<NetOutcome>,
        now: SimTime,
    }

    impl Harness {
        fn new(cfg: NetConfig) -> (Self, HostId, HostId) {
            let mut net = Network::new(cfg, 7);
            let a = net.add_host();
            let b = net.add_host();
            (
                Harness {
                    net,
                    queue: siperf_simcore::queue::EventQueue::new(),
                    outcomes: Vec::new(),
                    now: SimTime::ZERO,
                },
                a,
                b,
            )
        }

        /// Runs the network to quiescence, collecting outcomes.
        fn settle(&mut self) {
            loop {
                for (t, ev) in self.net.take_events() {
                    self.queue.schedule(t, ev);
                }
                self.outcomes.extend(self.net.take_outcomes());
                match self.queue.pop() {
                    Some((t, ev)) => {
                        self.now = t;
                        self.net.handle_event(t, ev);
                    }
                    None => break,
                }
            }
        }

        fn connect_pair(&mut self, client: HostId, server: HostId) -> (EpId, EpId) {
            let listener = self.net.tcp_listen(server, 5060, 128).unwrap();
            let c = self
                .net
                .tcp_connect(self.now, client, SockAddr::new(server, 5060))
                .unwrap();
            self.settle();
            let (s, peer) = self.net.tcp_try_accept(listener).unwrap();
            assert_eq!(peer.host, client);
            assert_eq!(self.net.tcp_state(c).unwrap(), TcpState::Established);
            (c, s)
        }
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let (mut h, a, b) = Harness::new(NetConfig::lan());
        let (c, s) = h.connect_pair(a, b);
        assert!(h.outcomes.contains(&NetOutcome::ConnectOk(c)));
        assert_eq!(h.net.tcp_state(s).unwrap(), TcpState::Established);
        assert_eq!(h.net.stats().tcp_established, 1);
    }

    #[test]
    fn connect_without_listener_is_refused() {
        let (mut h, a, b) = Harness::new(NetConfig::lan());
        let c = h
            .net
            .tcp_connect(SimTime::ZERO, a, SockAddr::new(b, 5060))
            .unwrap();
        h.settle();
        assert!(h
            .outcomes
            .contains(&NetOutcome::ConnectErr(c, Errno::ConnRefused)));
        assert_eq!(
            h.net.tcp_state(c).unwrap(),
            TcpState::Failed(Errno::ConnRefused)
        );
        assert_eq!(h.net.stats().tcp_refused, 1);
    }

    #[test]
    fn backlog_overflow_refuses() {
        let (mut h, a, b) = Harness::new(NetConfig::lan());
        h.net.tcp_listen(b, 5060, 2).unwrap();
        for _ in 0..3 {
            h.net.tcp_connect(h.now, a, SockAddr::new(b, 5060)).unwrap();
        }
        h.settle();
        let refused = h
            .outcomes
            .iter()
            .filter(|o| matches!(o, NetOutcome::ConnectErr(_, _)))
            .count();
        assert_eq!(refused, 1);
        assert_eq!(h.net.stats().tcp_established, 2);
    }

    #[test]
    fn data_roundtrip_preserves_bytes_and_order() {
        let (mut h, a, b) = Harness::new(NetConfig::lan());
        let (c, s) = h.connect_pair(a, b);
        h.net
            .tcp_send(h.now, c, bytes_from(b"hello ".to_vec()))
            .unwrap();
        h.net
            .tcp_send(h.now, c, bytes_from(b"world".to_vec()))
            .unwrap();
        h.settle();
        let (data, eof) = h.net.tcp_try_recv(s, 1024).unwrap();
        assert_eq!(&data, b"hello world");
        assert!(!eof);
        // Reply direction.
        h.net
            .tcp_send(h.now, s, bytes_from(b"ok".to_vec()))
            .unwrap();
        h.settle();
        let (data, _) = h.net.tcp_try_recv(c, 1024).unwrap();
        assert_eq!(&data, b"ok");
    }

    #[test]
    fn large_send_is_segmented_but_reassembled_in_order() {
        let (mut h, a, b) = Harness::new(NetConfig::lan());
        let (c, s) = h.connect_pair(a, b);
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        h.net
            .tcp_send(h.now, c, bytes_from(payload.clone()))
            .unwrap();
        h.settle();
        assert!(h.net.stats().tcp_segments >= 7, "should be MSS-chunked");
        let mut got = Vec::new();
        loop {
            match h.net.tcp_try_recv(s, 1000) {
                Ok((bytes, _)) if !bytes.is_empty() => got.extend(bytes),
                _ => break,
            }
        }
        assert_eq!(got, payload);
    }

    #[test]
    fn partial_reads_leave_remainder() {
        let (mut h, a, b) = Harness::new(NetConfig::lan());
        let (c, s) = h.connect_pair(a, b);
        h.net
            .tcp_send(h.now, c, bytes_from(b"abcdef".to_vec()))
            .unwrap();
        h.settle();
        let (first, _) = h.net.tcp_try_recv(s, 2).unwrap();
        assert_eq!(&first, b"ab");
        let (rest, _) = h.net.tcp_try_recv(s, 100).unwrap();
        assert_eq!(&rest, b"cdef");
    }

    #[test]
    fn window_fills_and_reopens() {
        let mut cfg = NetConfig::lan();
        cfg.tcp_rcv_buf = 8;
        cfg.mss = 4;
        let (mut h, a, b) = Harness::new(cfg);
        let (c, s) = h.connect_pair(a, b);
        h.net.tcp_send(h.now, c, bytes_from(vec![1u8; 8])).unwrap();
        assert_eq!(
            h.net.tcp_send(h.now, c, bytes_from(vec![2u8; 1])),
            Err(Errno::WouldBlock)
        );
        h.settle();
        // Still full: receiver has not read.
        assert_eq!(h.net.tcp_free_window(c), 0);
        let (data, _) = h.net.tcp_try_recv(s, 8).unwrap();
        assert_eq!(data.len(), 8);
        h.settle();
        assert!(h.outcomes.contains(&NetOutcome::Writable(c)));
        assert_eq!(h.net.tcp_free_window(c), 8);
        h.net.tcp_send(h.now, c, bytes_from(vec![2u8; 8])).unwrap();
    }

    #[test]
    fn close_delivers_eof_after_data() {
        let (mut h, a, b) = Harness::new(NetConfig::lan());
        let (c, s) = h.connect_pair(a, b);
        h.net
            .tcp_send(h.now, c, bytes_from(b"bye".to_vec()))
            .unwrap();
        h.net.close(h.now, c);
        h.settle();
        let (data, eof) = h.net.tcp_try_recv(s, 2).unwrap();
        assert_eq!(&data, b"by");
        assert!(!eof, "eof only after drain");
        let (data, eof) = h.net.tcp_try_recv(s, 100).unwrap();
        assert_eq!(&data, b"e");
        assert!(eof);
        // Writing back fails fast.
        assert_eq!(
            h.net.tcp_send(h.now, s, bytes_from(vec![1])),
            Err(Errno::ConnReset)
        );
    }

    #[test]
    fn active_close_holds_port_in_time_wait() {
        let (mut h, a, b) = Harness::new(NetConfig::lan());
        let (c, _s) = h.connect_pair(a, b);
        let before = h.net.ports_available(a);
        h.net.close(h.now, c);
        assert_eq!(h.net.ports_in_time_wait(a), 1);
        assert_eq!(h.net.ports_available(a), before);
        h.settle(); // runs the PortRelease event 60 s later
        assert_eq!(h.net.ports_in_time_wait(a), 0);
        assert_eq!(h.net.ports_available(a), before + 1);
    }

    #[test]
    fn passive_close_skips_time_wait() {
        let (mut h, a, b) = Harness::new(NetConfig::lan());
        let (c, s) = h.connect_pair(a, b);
        h.net.close(h.now, s); // server closes first
        h.settle();
        let (_, eof) = h.net.tcp_try_recv(c, 10).unwrap();
        assert!(eof);
        let before = h.net.ports_available(a);
        h.net.close(h.now, c); // passive close on the client
        assert_eq!(h.net.ports_in_time_wait(a), 0);
        assert_eq!(h.net.ports_available(a), before + 1);
    }

    #[test]
    fn close_unsticks_blocked_peer_writers() {
        let mut cfg = NetConfig::lan();
        cfg.tcp_rcv_buf = 4;
        let (mut h, a, b) = Harness::new(cfg);
        let (c, s) = h.connect_pair(a, b);
        h.net.tcp_send(h.now, c, bytes_from(vec![0u8; 4])).unwrap();
        assert_eq!(
            h.net.tcp_send(h.now, c, bytes_from(vec![0u8; 4])),
            Err(Errno::WouldBlock)
        );
        h.net.close(h.now, s); // receiver goes away without reading
        assert!(h.net.take_outcomes().contains(&NetOutcome::Writable(c)));
        // Retry now fails fast instead of blocking forever.
        h.settle();
        assert_eq!(
            h.net.tcp_send(h.now, c, bytes_from(vec![0u8; 4])),
            Err(Errno::ConnReset)
        );
    }

    #[test]
    fn ephemeral_pool_exhaustion() {
        let mut cfg = NetConfig::lan();
        cfg.ephemeral_lo = 40000;
        cfg.ephemeral_hi = 40001;
        let (mut h, a, b) = Harness::new(cfg);
        h.net.tcp_listen(b, 5060, 16).unwrap();
        h.net.tcp_connect(h.now, a, SockAddr::new(b, 5060)).unwrap();
        h.net.tcp_connect(h.now, a, SockAddr::new(b, 5060)).unwrap();
        assert_eq!(
            h.net
                .tcp_connect(h.now, a, SockAddr::new(b, 5060))
                .unwrap_err(),
            Errno::PortsExhausted
        );
    }

    #[test]
    fn server_descriptor_exhaustion_refuses_syn() {
        let mut cfg = NetConfig::lan();
        cfg.max_endpoints_per_host = 1; // the listener consumes the budget
        let (mut h, a, b) = Harness::new(cfg);
        h.net.tcp_listen(b, 5060, 16).unwrap();
        let c = h.net.tcp_connect(h.now, a, SockAddr::new(b, 5060)).unwrap();
        h.settle();
        assert_eq!(
            h.net.tcp_state(c).unwrap(),
            TcpState::Failed(Errno::ConnRefused)
        );
    }

    #[test]
    fn closing_listener_closes_queued_connections() {
        let (mut h, a, b) = Harness::new(NetConfig::lan());
        let l = h.net.tcp_listen(b, 5060, 16).unwrap();
        let c = h.net.tcp_connect(h.now, a, SockAddr::new(b, 5060)).unwrap();
        h.settle();
        h.net.close(h.now, l);
        h.settle();
        // Client sees EOF.
        let (_, eof) = h.net.tcp_try_recv(c, 10).unwrap();
        assert!(eof);
        assert_eq!(h.net.endpoints_on(b), 0);
    }

    #[test]
    fn send_on_listener_is_bad_fd() {
        let (mut h, _a, b) = Harness::new(NetConfig::lan());
        let l = h.net.tcp_listen(b, 5060, 16).unwrap();
        assert_eq!(
            h.net.tcp_send(SimTime::ZERO, l, bytes_from(vec![1])),
            Err(Errno::BadFd)
        );
        assert_eq!(
            h.net.tcp_try_recv(l, 10),
            Err(Errno::WouldBlock).or(Err(Errno::BadFd))
        );
    }
}
