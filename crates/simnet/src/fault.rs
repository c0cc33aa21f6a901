//! Deterministic fault injection: burst loss, partitions, latency spikes,
//! TCP resets, and accept-queue freezes.
//!
//! Every fault decision draws from a **dedicated RNG stream**
//! (`Network::fault_rng`), never from the stream that produces latency
//! jitter. Toggling a fault on or off therefore never perturbs the delivery
//! schedule of unaffected packets — the property `tests/determinism.rs`
//! asserts and every chaos experiment relies on.
//!
//! Reliable transports (TCP, SCTP) never lose application data to link
//! faults in this model: a dropped frame would be retransmitted by the real
//! stack, so a loss verdict manifests as an added
//! [`NetConfig::retrans_delay`](crate::config::NetConfig::retrans_delay)
//! (head-of-line blocking, as Shen & Schulzrinne describe for SIP-over-TCP)
//! instead of a missing byte. Unreliable transports (UDP) simply drop the
//! datagram.

use siperf_simcore::hash::FastMap;
use siperf_simcore::rng::SimRng;
use siperf_simcore::time::{SimDuration, SimTime};

use crate::addr::HostId;
use crate::endpoint::{Endpoint, EpId, TcpState};
use crate::error::Errno;
use crate::event::{NetEvent, NetOutcome};
use crate::net::Network;

/// A two-state Markov (Gilbert–Elliott) burst-loss model.
///
/// The chain steps once per frame while a burst window is active: in the
/// *good* state frames drop with [`loss_good`](Self::loss_good), in the
/// *bad* state with [`loss_bad`](Self::loss_bad); transitions happen with
/// [`p_good_to_bad`](Self::p_good_to_bad) / [`p_bad_to_good`](Self::p_bad_to_good).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Probability of entering the bad state after a good-state frame.
    pub p_good_to_bad: f64,
    /// Probability of returning to the good state after a bad-state frame.
    pub p_bad_to_good: f64,
    /// Loss probability per frame in the good state.
    pub loss_good: f64,
    /// Loss probability per frame in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A harsh but recoverable burst profile: mostly clean, with bad
    /// episodes averaging ~10 frames at 60% loss.
    pub fn bursty() -> Self {
        GilbertElliott {
            p_good_to_bad: 0.05,
            p_bad_to_good: 0.10,
            loss_good: 0.005,
            loss_bad: 0.60,
        }
    }
}

/// A live burst-loss window.
#[derive(Debug)]
struct GeRun {
    model: GilbertElliott,
    bad: bool,
    until: SimTime,
}

impl GeRun {
    /// Steps the chain for one frame; returns whether that frame drops.
    fn step(&mut self, rng: &mut SimRng) -> bool {
        let loss = if self.bad {
            self.model.loss_bad
        } else {
            self.model.loss_good
        };
        let drop = loss > 0.0 && rng.chance(loss);
        let flip = if self.bad {
            self.model.p_bad_to_good
        } else {
            self.model.p_good_to_bad
        };
        if flip > 0.0 && rng.chance(flip) {
            self.bad = !self.bad;
        }
        drop
    }
}

/// Active fault state on the fabric (all healed lazily or by wire events).
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    /// Active burst-loss window, if any.
    burst: Option<GeRun>,
    /// Blackholed host pairs (normalized lo/hi key) → heal time.
    partitions: FastMap<(u32, u32), SimTime>,
    /// Active latency spike: (ends at, extra one-way delay).
    spike: Option<(SimTime, SimDuration)>,
    /// Hosts whose accept queues are frozen → thaw time.
    accept_frozen: FastMap<u32, SimTime>,
}

/// What the fault layer decided for one frame on a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkVerdict {
    /// Deliver with this much extra delay (zero when no fault applies).
    Deliver(SimDuration),
    /// Drop the frame (unreliable transports only).
    Drop,
}

fn pair_key(a: HostId, b: HostId) -> (u32, u32) {
    (a.0.min(b.0), a.0.max(b.0))
}

impl Network {
    // ------------------------------------------------------- link faults

    /// Starts a Gilbert–Elliott burst-loss episode on every link for
    /// `duration`. A new call replaces any active episode (chain restarts
    /// in the good state).
    pub fn fault_burst_loss(&mut self, now: SimTime, model: GilbertElliott, duration: SimDuration) {
        self.faults.burst = Some(GeRun {
            model,
            bad: false,
            until: now + duration,
        });
    }

    /// Blackholes all traffic between hosts `a` and `b` until `heal_after`
    /// from now. Reliable transports see the partition as retransmission
    /// delay; UDP datagrams across it vanish.
    pub fn fault_partition(&mut self, now: SimTime, a: HostId, b: HostId, heal_after: SimDuration) {
        let heal_at = now + heal_after;
        let slot = self
            .faults
            .partitions
            .entry(pair_key(a, b))
            .or_insert(heal_at);
        *slot = (*slot).max(heal_at);
    }

    /// Adds `extra` one-way latency to every frame sent during the next
    /// `duration` (overlapping spikes keep the later deadline).
    pub fn fault_latency_spike(&mut self, now: SimTime, extra: SimDuration, duration: SimDuration) {
        let until = now + duration;
        self.faults.spike = match self.faults.spike {
            Some((old_until, old_extra)) if old_until > until => Some((old_until, old_extra)),
            _ => Some((until, extra)),
        };
    }

    // -------------------------------------------------- transport faults

    /// Freezes `accept()` on `host` for `duration`: queued and newly
    /// arriving connections stay in the backlog (SYNs still complete the
    /// handshake) but `tcp_try_accept` reports `WouldBlock` until the thaw.
    pub fn fault_freeze_accepts(&mut self, now: SimTime, host: HostId, duration: SimDuration) {
        let until = now + duration;
        let slot = self.faults.accept_frozen.entry(host.0).or_insert(until);
        *slot = (*slot).max(until);
        self.events.push((until, NetEvent::AcceptThaw { host }));
    }

    /// True while `host`'s accept queues are frozen.
    pub(crate) fn accepts_frozen(&self, host: HostId) -> bool {
        self.faults.accept_frozen.contains_key(&host.0)
    }

    /// Handles the thaw wire event: re-announces readability of every
    /// listener that queued connections during the freeze.
    pub(crate) fn accept_thaw(&mut self, now: SimTime, host: HostId) {
        match self.faults.accept_frozen.get(&host.0) {
            // An overlapping freeze extended the deadline; this thaw is stale.
            Some(&until) if until > now => return,
            Some(_) => {
                self.faults.accept_frozen.remove(&host.0);
            }
            None => return,
        }
        let mut listeners: Vec<EpId> = self
            .tcp_listeners
            .iter()
            .filter(|(addr, _)| addr.host == host)
            .map(|(_, &ep)| ep)
            .collect();
        listeners.sort();
        for l in listeners {
            if let Some(Endpoint::TcpListener(le)) = self.eps.get(l) {
                if !le.queue.is_empty() {
                    self.outcomes.push(NetOutcome::Readable(l));
                }
            }
        }
    }

    /// Injects an RST on an established connection: both endpoints fail
    /// with [`Errno::ConnReset`], pending receive data is discarded (as a
    /// real RST discards it), and both sides are woken so blocked readers
    /// and writers observe the reset immediately.
    ///
    /// # Errors
    ///
    /// [`Errno::NotConnected`] if the endpoint is not in an established
    /// exchange; [`Errno::BadFd`] if it is not a TCP connection.
    pub fn tcp_reset(&mut self, ep: EpId) -> Result<(), Errno> {
        let peer = match self.eps.get(ep) {
            Some(Endpoint::Tcp(t)) => match t.state {
                TcpState::Established | TcpState::PeerClosed => t.peer,
                _ => return Err(Errno::NotConnected),
            },
            _ => return Err(Errno::BadFd),
        };
        for id in [ep, peer] {
            if let Some(Endpoint::Tcp(t)) = self.eps.get_mut(id) {
                t.state = TcpState::Failed(Errno::ConnReset);
                t.rx.clear();
                t.rx_bytes = 0;
                t.in_flight = 0;
                self.outcomes.push(NetOutcome::Readable(id));
                self.outcomes.push(NetOutcome::Writable(id));
            }
        }
        self.stats.tcp_resets += 1;
        Ok(())
    }

    /// Established TCP connection endpoints local to `host`, in stable
    /// (arena slot) order — the deterministic way for a fault schedule to
    /// pick "the nth connection on the server".
    pub fn tcp_established_on(&self, host: HostId) -> Vec<EpId> {
        self.eps
            .iter()
            .filter_map(|(id, ep)| match ep {
                Endpoint::Tcp(t)
                    if t.local.host == host && matches!(t.state, TcpState::Established) =>
                {
                    Some(id)
                }
                _ => None,
            })
            .collect()
    }

    // ----------------------------------------------------- verdict logic

    /// Decides what link faults do to one frame between `from` and `to`.
    /// Draws (only) from the dedicated fault RNG stream.
    pub(crate) fn link_verdict(
        &mut self,
        now: SimTime,
        from: HostId,
        to: HostId,
        reliable: bool,
    ) -> LinkVerdict {
        // Partition: absolute until healed.
        let key = pair_key(from, to);
        if let Some(&heal_at) = self.faults.partitions.get(&key) {
            if heal_at <= now {
                self.faults.partitions.remove(&key);
            } else if reliable {
                self.stats.fault_delays += 1;
                return LinkVerdict::Deliver((heal_at - now) + self.cfg.retrans_delay);
            } else {
                self.stats.fault_drops += 1;
                return LinkVerdict::Drop;
            }
        }
        // Burst loss: step the Gilbert–Elliott chain once per frame.
        let dropped = match self.faults.burst.as_mut() {
            Some(run) if run.until <= now => {
                self.faults.burst = None;
                false
            }
            Some(run) => run.step(&mut self.fault_rng),
            None => false,
        };
        if dropped {
            if reliable {
                self.stats.fault_delays += 1;
                return LinkVerdict::Deliver(self.cfg.retrans_delay);
            }
            self.stats.fault_drops += 1;
            return LinkVerdict::Drop;
        }
        LinkVerdict::Deliver(SimDuration::ZERO)
    }

    /// Fault verdict for an unreliable frame: `true` means drop it.
    pub(crate) fn link_drops(&mut self, now: SimTime, from: HostId, to: HostId) -> bool {
        matches!(self.link_verdict(now, from, to, false), LinkVerdict::Drop)
    }

    /// Fault verdict for a reliable frame: extra delay to add (zero when no
    /// fault applies).
    pub(crate) fn link_extra(&mut self, now: SimTime, from: HostId, to: HostId) -> SimDuration {
        match self.link_verdict(now, from, to, true) {
            LinkVerdict::Deliver(extra) => extra,
            LinkVerdict::Drop => unreachable!("reliable frames are delayed, never dropped"),
        }
    }

    /// Extra one-way latency a spike adds at `now` (healing it lazily).
    pub(crate) fn spike_extra(&mut self, now: SimTime) -> SimDuration {
        match self.faults.spike {
            Some((until, _)) if until <= now => {
                self.faults.spike = None;
                SimDuration::ZERO
            }
            Some((_, extra)) => extra,
            None => SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::SockAddr;
    use crate::config::NetConfig;
    use crate::endpoint::{bytes_from, MsgProto};

    fn net() -> (Network, HostId, HostId) {
        let mut n = Network::new(NetConfig::lan(), 9);
        let a = n.add_host();
        let b = n.add_host();
        (n, a, b)
    }

    fn pump(n: &mut Network) -> Vec<NetOutcome> {
        let mut out = Vec::new();
        let mut q = siperf_simcore::queue::EventQueue::new();
        loop {
            for (t, ev) in n.take_events() {
                q.schedule(t, ev);
            }
            out.extend(n.take_outcomes());
            match q.pop() {
                Some((t, ev)) => n.handle_event(t, ev),
                None => break,
            }
        }
        out
    }

    #[test]
    fn partition_drops_udp_until_heal() {
        let (mut n, a, b) = net();
        let sa = n.udp_bind(a, 5060).unwrap();
        let (sb, _) = n.msg_bind(MsgProto::Udp, b, None).unwrap();
        n.fault_partition(SimTime::ZERO, a, b, SimDuration::from_secs(1));
        n.udp_send(
            SimTime::ZERO,
            sb,
            SockAddr::new(a, 5060),
            bytes_from(vec![1]),
        )
        .unwrap();
        assert!(pump(&mut n).is_empty());
        assert_eq!(n.stats().fault_drops, 1);
        // After heal, traffic flows again.
        let later = SimTime::ZERO + SimDuration::from_secs(2);
        n.udp_send(later, sb, SockAddr::new(a, 5060), bytes_from(vec![2]))
            .unwrap();
        assert_eq!(pump(&mut n), vec![NetOutcome::Readable(sa)]);
    }

    #[test]
    fn partition_delays_reliable_frames_instead_of_dropping() {
        let (mut n, a, b) = net();
        n.fault_partition(SimTime::ZERO, a, b, SimDuration::from_millis(500));
        let extra = n.link_extra(SimTime::ZERO, a, b);
        assert!(extra >= SimDuration::from_millis(500) + n.config().retrans_delay);
        assert_eq!(n.stats().fault_delays, 1);
        assert_eq!(n.stats().fault_drops, 0);
    }

    #[test]
    fn burst_loss_drops_many_but_not_all() {
        let (mut n, a, b) = net();
        n.fault_burst_loss(
            SimTime::ZERO,
            GilbertElliott::bursty(),
            SimDuration::from_secs(5),
        );
        let (mut drops, total) = (0u32, 2000u32);
        for _ in 0..total {
            if n.link_drops(SimTime::ZERO + SimDuration::from_millis(1), a, b) {
                drops += 1;
            }
        }
        assert!(drops > 0, "burst model never fired");
        assert!(drops < total, "burst model dropped everything");
        // Past the window the model is inert and costs no RNG draws.
        let after = SimTime::ZERO + SimDuration::from_secs(6);
        assert!(!n.link_drops(after, a, b));
    }

    #[test]
    fn latency_spike_inflates_delay_then_heals() {
        let (mut n, _, _) = net();
        let base_max = n.config().one_way_latency + n.config().latency_jitter;
        let extra = SimDuration::from_millis(5);
        n.fault_latency_spike(SimTime::ZERO, extra, SimDuration::from_secs(1));
        let d = n.delay(SimTime::ZERO);
        assert!(d >= n.config().one_way_latency + extra);
        let healed = n.delay(SimTime::ZERO + SimDuration::from_secs(2));
        assert!(healed < base_max);
    }

    #[test]
    fn accept_freeze_blocks_then_thaws() {
        let (mut n, a, b) = net();
        let l = n.tcp_listen(b, 5060, 16).unwrap();
        n.fault_freeze_accepts(SimTime::ZERO, b, SimDuration::from_millis(10));
        n.tcp_connect(SimTime::ZERO, a, SockAddr::new(b, 5060))
            .unwrap();
        // Run events in order, probing the accept queue while still frozen.
        let cutoff = SimTime::ZERO + SimDuration::from_millis(5);
        let mut q = siperf_simcore::queue::EventQueue::new();
        let mut outcomes = Vec::new();
        let mut probed = false;
        loop {
            for (t, ev) in n.take_events() {
                q.schedule(t, ev);
            }
            outcomes.extend(n.take_outcomes());
            let Some((t, ev)) = q.pop() else { break };
            if t > cutoff && !probed {
                // Handshake done (well under 5 ms), thaw still pending:
                // the connection is queued but accept must block.
                assert!(n.accepts_frozen(b));
                assert_eq!(n.tcp_try_accept(l), Err(Errno::WouldBlock));
                probed = true;
            }
            n.handle_event(t, ev);
        }
        outcomes.extend(n.take_outcomes());
        assert!(probed, "thaw event never scheduled");
        // The thaw re-announced the listener and accept now succeeds.
        assert!(!n.accepts_frozen(b));
        assert!(outcomes.contains(&NetOutcome::Readable(l)));
        let (_ep, peer) = n.tcp_try_accept(l).unwrap();
        assert_eq!(peer.host, a);
    }

    #[test]
    fn tcp_reset_fails_both_ends() {
        let (mut n, a, b) = net();
        let l = n.tcp_listen(b, 5060, 16).unwrap();
        let c = n
            .tcp_connect(SimTime::ZERO, a, SockAddr::new(b, 5060))
            .unwrap();
        pump(&mut n);
        let (s, _) = n.tcp_try_accept(l).unwrap();
        let conns = n.tcp_established_on(b);
        assert_eq!(conns, vec![s]);
        n.tcp_reset(s).unwrap();
        assert_eq!(n.tcp_state(s).unwrap(), TcpState::Failed(Errno::ConnReset));
        assert_eq!(n.tcp_state(c).unwrap(), TcpState::Failed(Errno::ConnReset));
        assert_eq!(n.stats().tcp_resets, 1);
        assert_eq!(
            n.tcp_send(SimTime::ZERO, c, bytes_from(vec![1])),
            Err(Errno::ConnReset)
        );
        assert_eq!(n.tcp_try_recv(c, 64), Err(Errno::ConnReset));
        assert!(n.tcp_established_on(b).is_empty());
    }

    #[test]
    fn reset_on_unestablished_endpoint_is_rejected() {
        let (mut n, a, b) = net();
        let c = n
            .tcp_connect(SimTime::ZERO, a, SockAddr::new(b, 5060))
            .unwrap();
        assert_eq!(n.tcp_reset(c), Err(Errno::NotConnected));
        let u = n.udp_bind(a, 7000).unwrap();
        assert_eq!(n.tcp_reset(u), Err(Errno::BadFd));
    }

    #[test]
    fn fault_stream_is_isolated_from_jitter_stream() {
        // Two fabrics, same seed; one suffers heavy uniform UDP loss. The
        // latency draws for *delivered* datagrams must be identical.
        let mut lossy_cfg = NetConfig::lan();
        lossy_cfg.udp_loss = 0.5;
        let mut clean = Network::new(NetConfig::lan(), 77);
        let mut lossy = Network::new(lossy_cfg, 77);
        let mut times = Vec::new();
        for n in [&mut clean, &mut lossy] {
            let a = n.add_host();
            let b = n.add_host();
            let _sa = n.udp_bind(a, 5060).unwrap();
            let (sb, _) = n.msg_bind(MsgProto::Udp, b, None).unwrap();
            for _ in 0..200 {
                n.udp_send(
                    SimTime::ZERO,
                    sb,
                    SockAddr::new(a, 5060),
                    bytes_from(vec![1]),
                )
                .unwrap();
            }
            times.push(
                n.take_events()
                    .into_iter()
                    .map(|(t, _)| t)
                    .collect::<Vec<_>>(),
            );
        }
        let (clean_times, lossy_times) = (&times[0], &times[1]);
        assert!(lossy.stats().udp_lost > 0, "loss model must have fired");
        assert!(lossy_times.len() < clean_times.len());
        // Every delivered datagram in the lossy run kept the exact delivery
        // time it has in the clean run: the loss decisions consumed no
        // jitter randomness.
        let mut clean_iter = clean_times.iter();
        for t in lossy_times {
            assert!(
                clean_iter.any(|c| c == t),
                "delivery time {t:?} not in clean schedule (stream bleed)"
            );
        }
    }
}
