//! SCTP-style one-to-many message endpoints (paper §6).
//!
//! The paper's discussion section argues that SCTP combines the properties
//! that matter here: it is **connection-oriented and reliable** like TCP,
//! but **message-based** like UDP, and — crucially — its association
//! management lives **entirely in the kernel**, invisible to the
//! application. A proxy can therefore use the symmetric UDP architecture
//! (every worker receives from one shared endpoint, any worker sends to any
//! peer) with none of the supervisor/fd-passing machinery that cripples the
//! TCP mode.
//!
//! The model captures exactly those properties: a one-to-many endpoint
//! bound to a port, whole-message delivery, and a kernel-managed association
//! table that charges a setup round-trip latency to the first exchange with
//! each peer and nothing thereafter.

use siperf_simcore::time::SimTime;

use crate::addr::{HostId, Port, SockAddr};
use crate::endpoint::{AssocState, Bytes, Datagram, Endpoint, EpId, MsgProto};
use crate::error::Errno;
use crate::event::NetEvent;
use crate::net::Network;

impl Network {
    /// Sends one message to `to`, implicitly setting up the association on
    /// first use (the kernel's job, not the application's). The receiving
    /// endpoint is found at delivery, unlike a UDP datagram's.
    ///
    /// # Errors
    ///
    /// [`Errno::BadFd`] if `from` is not an SCTP endpoint.
    pub fn sctp_send(
        &mut self,
        now: SimTime,
        from: EpId,
        to: SockAddr,
        data: Bytes,
    ) -> Result<(), Errno> {
        let from_host = match self.eps.get(from) {
            Some(Endpoint::Msg(e)) if e.proto == MsgProto::Sctp => e.local.host,
            _ => return Err(Errno::BadFd),
        };
        // SCTP is reliable: link faults stall the stream, never lose a
        // message.
        let fault_extra = self.link_extra(now, from_host, to.host);
        let base_delay = self.delay(now) + fault_extra;
        let setup = self.cfg.sctp_assoc_setup;
        let one_way = self.cfg.one_way_latency;
        let Some(Endpoint::Msg(ep)) = self.eps.get_mut(from) else {
            unreachable!("checked above");
        };
        let earliest = match ep.assoc.get(&to).copied() {
            Some(AssocState::Established) => now,
            Some(AssocState::Setup { ready_at }) => {
                if ready_at <= now {
                    ep.assoc.insert(to, AssocState::Established);
                    now
                } else {
                    ready_at
                }
            }
            None => {
                // Four-way handshake: two round trips before data flows.
                let ready_at = now + one_way * 4 + setup;
                ep.assoc.insert(to, AssocState::Setup { ready_at });
                ready_at
            }
        };
        let from_addr = ep.local;
        self.events.push((
            earliest.max(now) + base_delay,
            NetEvent::SctpDeliver {
                to_host: to.host,
                to_port: to.port,
                from: from_addr,
                data,
            },
        ));
        Ok(())
    }

    pub(crate) fn sctp_deliver(
        &mut self,
        to_host: HostId,
        to_port: Port,
        from: SockAddr,
        data: Bytes,
    ) {
        let bound = &self.msg_bound[MsgProto::Sctp as usize];
        let Some(&ep) = bound.get(&SockAddr::new(to_host, to_port)) else {
            return; // no endpoint: ABORT chunk in real SCTP, vanishes here
        };
        if let Some(Endpoint::Msg(e)) = self.eps.get_mut(ep) {
            if let std::collections::hash_map::Entry::Vacant(slot) = e.assoc.entry(from) {
                // Receiver side of the handshake: the kernel records the
                // association so replies flow without another setup.
                slot.insert(AssocState::Established);
                self.stats.sctp_assocs += 1;
            }
        }
        if self.msg_enqueue(ep, Datagram { from, data }) == Some(true) {
            self.stats.sctp_messages += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetConfig;
    use crate::endpoint::bytes_from;
    use crate::event::NetOutcome;
    use siperf_simcore::queue::EventQueue;

    struct H {
        net: Network,
        q: EventQueue<NetEvent>,
        now: SimTime,
    }

    impl H {
        fn new() -> (Self, HostId, HostId) {
            let mut net = Network::new(NetConfig::lan(), 3);
            let a = net.add_host();
            let b = net.add_host();
            (
                H {
                    net,
                    q: EventQueue::new(),
                    now: SimTime::ZERO,
                },
                a,
                b,
            )
        }

        fn settle(&mut self) -> Vec<NetOutcome> {
            let mut out = Vec::new();
            loop {
                for (t, ev) in self.net.take_events() {
                    self.q.schedule(t, ev);
                }
                out.extend(self.net.take_outcomes());
                match self.q.pop() {
                    Some((t, ev)) => {
                        self.now = t;
                        self.net.handle_event(t, ev);
                    }
                    None => break,
                }
            }
            out
        }
    }

    #[test]
    fn message_roundtrip_with_boundaries() {
        let (mut h, a, b) = H::new();
        let (server, _) = h.net.msg_bind(MsgProto::Sctp, b, Some(5060)).unwrap();
        let (client, cport) = h.net.msg_bind(MsgProto::Sctp, a, None).unwrap();
        h.net
            .sctp_send(
                h.now,
                client,
                SockAddr::new(b, 5060),
                bytes_from(b"one".to_vec()),
            )
            .unwrap();
        h.net
            .sctp_send(
                h.now,
                client,
                SockAddr::new(b, 5060),
                bytes_from(b"two".to_vec()),
            )
            .unwrap();
        h.settle();
        let m1 = h.net.msg_try_recv(server).unwrap();
        assert_eq!(m1.from, SockAddr::new(a, cport));
        assert_eq!(&*m1.data, b"one");
        let m2 = h.net.msg_try_recv(server).unwrap();
        assert_eq!(&*m2.data, b"two"); // boundaries preserved, order preserved
        assert_eq!(h.net.msg_try_recv(server), Err(Errno::WouldBlock));
    }

    #[test]
    fn first_exchange_pays_association_setup() {
        let (mut h, a, b) = H::new();
        h.net.msg_bind(MsgProto::Sctp, b, Some(5060)).unwrap();
        let (client, _) = h.net.msg_bind(MsgProto::Sctp, a, None).unwrap();
        h.net
            .sctp_send(h.now, client, SockAddr::new(b, 5060), bytes_from(vec![1]))
            .unwrap();
        let evs = h.net.take_events();
        let first_delivery = evs[0].0;
        // Setup costs at least 4 one-way latencies beyond the send latency.
        assert!(
            first_delivery.as_nanos() >= (h.net.config().one_way_latency * 5).as_nanos(),
            "setup not charged: {first_delivery:?}"
        );
        for (t, ev) in evs {
            h.q.schedule(t, ev);
        }
        h.settle();
        // Second message flows at plain latency.
        h.net
            .sctp_send(h.now, client, SockAddr::new(b, 5060), bytes_from(vec![2]))
            .unwrap();
        let evs = h.net.take_events();
        let dt = evs[0].0 - h.now;
        assert!(dt < h.net.config().one_way_latency * 2);
    }

    #[test]
    fn receiver_learns_association_for_replies() {
        let (mut h, a, b) = H::new();
        let (server, _) = h.net.msg_bind(MsgProto::Sctp, b, Some(5060)).unwrap();
        let (client, cport) = h.net.msg_bind(MsgProto::Sctp, a, None).unwrap();
        h.net
            .sctp_send(h.now, client, SockAddr::new(b, 5060), bytes_from(vec![1]))
            .unwrap();
        h.settle();
        let Some(Endpoint::Msg(e)) = h.net.eps.get(server) else {
            panic!("server endpoint gone");
        };
        assert_eq!(e.assoc.len(), 1);
        // Reply does not pay setup again.
        h.net
            .sctp_send(h.now, server, SockAddr::new(a, cport), bytes_from(vec![2]))
            .unwrap();
        let evs = h.net.take_events();
        assert!(evs[0].0 - h.now < h.net.config().one_way_latency * 2);
        for (t, ev) in evs {
            h.q.schedule(t, ev);
        }
        h.settle();
        let reply = h.net.msg_try_recv(client).unwrap();
        assert_eq!(reply.from, SockAddr::new(b, 5060));
    }

    #[test]
    fn bind_conflicts_and_close() {
        let (mut h, a, _) = H::new();
        let (ep, _) = h.net.msg_bind(MsgProto::Sctp, a, Some(5060)).unwrap();
        let taken = h.net.msg_bind(MsgProto::Sctp, a, Some(5060));
        assert_eq!(taken, Err(Errno::AddrInUse));
        h.net.close(SimTime::ZERO, ep);
        assert_eq!(h.net.endpoints_on(a), 0);
        h.net.msg_bind(MsgProto::Sctp, a, Some(5060)).unwrap();
    }

    #[test]
    fn message_to_unbound_port_vanishes() {
        let (mut h, a, b) = H::new();
        let (client, _) = h.net.msg_bind(MsgProto::Sctp, a, None).unwrap();
        h.net
            .sctp_send(h.now, client, SockAddr::new(b, 9999), bytes_from(vec![1]))
            .unwrap();
        let outcomes = h.settle();
        assert!(outcomes.is_empty());
    }
}
