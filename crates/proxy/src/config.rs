//! Proxy configuration: everything the paper varies, in one builder.

use siperf_overload::OverloadConfig;
use siperf_simcore::time::SimDuration;
use siperf_simos::process::Nice;
use siperf_simos::syscall::MsgProto;

/// The network transport the proxy speaks with its phones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Connectionless datagrams — the symmetric-worker architecture (§3.2).
    Udp,
    /// Connection-oriented streams — the supervisor/worker architecture
    /// (§3.1).
    Tcp,
    /// Message-oriented associations managed by the kernel — the §6
    /// alternative that keeps the UDP architecture on a reliable transport.
    Sctp,
}

impl Transport {
    /// The Via transport token.
    pub fn token(self) -> &'static str {
        match self {
            Transport::Udp => "UDP",
            Transport::Tcp => "TCP",
            Transport::Sctp => "SCTP",
        }
    }

    /// Whether the transport retransmits for us.
    pub fn is_reliable(self) -> bool {
        !matches!(self, Transport::Udp)
    }

    /// The message-socket protocol the transport binds, or `None` for
    /// TCP's streams. Every later send and receive on the socket follows
    /// the protocol fixed here.
    pub fn msg_proto(self) -> Option<MsgProto> {
        match self {
            Transport::Udp => Some(MsgProto::Udp),
            Transport::Sctp => Some(MsgProto::Sctp),
            Transport::Tcp => None,
        }
    }
}

/// Concurrency architecture (§6 discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// OpenSER as shipped: worker *processes*; under TCP, descriptors must
    /// be passed through the supervisor over IPC.
    MultiProcess,
    /// The §6 proposal: worker *threads* sharing one descriptor table; no
    /// fd-passing IPC, locks retained.
    MultiThread,
}

/// How idle TCP connections are found and closed (§5.2 vs §5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IdleStrategy {
    /// OpenSER baseline: periodically walk every connection object in the
    /// shared hash table under its lock.
    LinearScan,
    /// The paper's fix: timeout-ordered priority queues (a shared one for
    /// the supervisor, a local one per worker) so only expired connections
    /// are visited.
    PriorityQueue,
}

/// Application-level CPU costs (nanoseconds) charged by proxy code on top
/// of the kernel's syscall costs. The one calibration is [`APP_COSTS`].
#[derive(Debug, Clone)]
pub(crate) struct AppCostModel {
    /// Fixed cost of parsing any message.
    pub parse_base: u64,
    /// Additional parse cost per byte of message.
    pub parse_per_byte: u64,
    /// Transaction-table work for a request (key hash, insert/match).
    pub route_request: u64,
    /// Transaction-table work for a response (match, state update).
    pub route_response: u64,
    /// Location-service lookup (usrloc cache hit).
    pub usrloc_lookup: u64,
    /// Building + serializing one outgoing message.
    pub build_message: u64,
    /// Shedding an INVITE on the pre-parse fast path: request-line sniff,
    /// policy check, canned 503. Must stay far below the full
    /// parse/route/build pipeline — rejection that costs a significant
    /// fraction of serving burns the capacity the policy is defending.
    pub shed_fast: u64,
    /// Inserting a retransmission timer into the shared list.
    pub timer_insert: u64,
    /// Timer-process cost to examine one timer entry.
    pub timer_scan_entry: u64,
    /// Linear-scan cost per connection object examined.
    pub idle_scan_entry: u64,
    /// Priority-queue reposition on connection use.
    pub pq_update: u64,
    /// Priority-queue pop of one expired connection.
    pub pq_pop: u64,
    /// Per-worker fd-cache probe.
    pub fd_cache_lookup: u64,
    /// Connection-table hash lookup/insert.
    pub conn_table_op: u64,
}

/// The application costs every proxy charges, calibrated so the UDP
/// saturation throughput lands in the paper's range on four cores.
pub(crate) const APP_COSTS: AppCostModel = AppCostModel {
    parse_base: 3_500,
    parse_per_byte: 20,
    route_request: 8_000,
    route_response: 5_500,
    usrloc_lookup: 3_000,
    build_message: 3_500,
    shed_fast: 1_800,
    timer_insert: 1_200,
    timer_scan_entry: 150,
    idle_scan_entry: 600,
    pq_update: 250,
    pq_pop: 400,
    fd_cache_lookup: 350,
    conn_table_op: 1_100,
};

impl AppCostModel {
    /// Parse cost for a message of `len` bytes.
    pub(crate) fn parse_cost(&self, len: usize) -> u64 {
        self.parse_base + self.parse_per_byte * len as u64
    }
}

/// Full proxy configuration. Defaults reproduce the paper's §4.3 setup:
/// stateful proxy, 24 UDP / 32 TCP workers, supervisor at nice −20, 10 s
/// idle timeout, linear scan, no fd cache (the Figure 3 baseline).
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Transport protocol.
    pub transport: Transport,
    /// Process vs thread architecture.
    pub arch: Arch,
    /// Worker count (`None` = the paper's per-transport default).
    pub workers: Option<usize>,
    /// Stateful (absorb retransmissions, send 100 Trying) or stateless.
    pub stateful: bool,
    /// Per-worker descriptor cache (§5.2 fix).
    pub fd_cache: bool,
    /// Idle-connection management strategy (§5.3 fix).
    pub idle_strategy: IdleStrategy,
    /// How long an unused connection may stay open.
    pub idle_timeout: SimDuration,
    /// Supervisor scheduling priority (§4.3: −20 avoids starvation).
    pub supervisor_nice: Nice,
    /// IPC channel depth (messages per direction) between supervisor and
    /// each worker.
    pub ipc_capacity: usize,
    /// Overload-control policy consulted before each INVITE transaction.
    /// The paper's proxy has none; the beyond-the-knee experiments select
    /// one to keep goodput from collapsing past saturation.
    pub overload: OverloadConfig,
}

impl ProxyConfig {
    /// The paper's configuration for a given transport.
    pub fn paper(transport: Transport) -> Self {
        ProxyConfig {
            transport,
            arch: Arch::MultiProcess,
            workers: None,
            stateful: true,
            fd_cache: false,
            idle_strategy: IdleStrategy::LinearScan,
            idle_timeout: SimDuration::from_secs(10),
            supervisor_nice: Nice::HIGHEST,
            ipc_capacity: 256,
            overload: OverloadConfig::NoControl,
        }
    }

    /// Worker count: explicit override or the paper's defaults (24 for
    /// UDP/SCTP, 32 for TCP — §4.3).
    pub fn worker_count(&self) -> usize {
        self.workers.unwrap_or(match self.transport {
            Transport::Udp | Transport::Sctp => 24,
            Transport::Tcp => 32,
        })
    }

    /// Applies the paper's §5.2 file-descriptor-cache fix.
    pub fn with_fd_cache(mut self) -> Self {
        self.fd_cache = true;
        self
    }

    /// Applies the paper's §5.3 priority-queue fix.
    pub fn with_priority_queue(mut self) -> Self {
        self.idle_strategy = IdleStrategy::PriorityQueue;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_4_3() {
        let udp = ProxyConfig::paper(Transport::Udp);
        assert_eq!(udp.worker_count(), 24);
        assert!(udp.stateful);
        assert!(!udp.fd_cache);
        assert_eq!(udp.idle_timeout, SimDuration::from_secs(10));
        let tcp = ProxyConfig::paper(Transport::Tcp);
        assert_eq!(tcp.worker_count(), 32);
        assert_eq!(tcp.supervisor_nice, Nice::HIGHEST);
        assert_eq!(tcp.idle_strategy, IdleStrategy::LinearScan);
    }

    #[test]
    fn fix_builders_compose() {
        let fixed = ProxyConfig::paper(Transport::Tcp)
            .with_fd_cache()
            .with_priority_queue();
        assert!(fixed.fd_cache);
        assert_eq!(fixed.idle_strategy, IdleStrategy::PriorityQueue);
    }

    #[test]
    fn overload_defaults_off() {
        let base = ProxyConfig::paper(Transport::Udp);
        assert!(!base.overload.is_active(), "paper proxy has no control");
    }

    #[test]
    fn worker_override() {
        let mut c = ProxyConfig::paper(Transport::Udp);
        c.workers = Some(4);
        assert_eq!(c.worker_count(), 4);
    }

    #[test]
    fn transport_properties() {
        assert!(!Transport::Udp.is_reliable());
        assert!(Transport::Tcp.is_reliable());
        assert!(Transport::Sctp.is_reliable());
        assert_eq!(Transport::Tcp.token(), "TCP");
    }

    #[test]
    fn parse_cost_scales_with_length() {
        let c = APP_COSTS;
        assert!(c.parse_cost(800) > c.parse_cost(200));
        assert_eq!(c.parse_cost(0), c.parse_base);
    }

    #[test]
    fn shed_fast_is_far_cheaper_than_the_full_rejection_path() {
        // An overload policy only defends goodput if refusing a call is
        // nearly free relative to serving one: at 2× overload the admitted
        // rate is (capacity − offered·x)/(1 − x) for rejection/serve cost
        // ratio x, so x must stay under ~0.1 for the policy to hold ~90%
        // of its peak.
        let c = APP_COSTS;
        let full_reject = c.parse_cost(500) + c.route_request + c.usrloc_lookup + c.build_message;
        assert!(c.shed_fast * 10 <= full_reject);
    }
}
