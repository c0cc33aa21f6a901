//! The paper's experiments as one registry.
//!
//! Figures 3–5 share one grid: {100, 500, 1000} clients × {TCP 50 ops/conn,
//! TCP 500 ops/conn, TCP persistent, UDP}, differing only in which fixes
//! the proxy runs with. Every other experiment — the §4.3 ablations, the
//! §5 profiles, the §6 extensions and the sweeps beyond the paper — departs
//! from one bar of that grid in one way, so a [`Cell`] is a bar plus at
//! most one change. [`registry`] lists each experiment EXPERIMENTS.md
//! reports: its cells, the paper's values, its markdown table, and the
//! claims the table must bear out. The `regen` binary runs the cells and
//! rewrites the document; `tests/figure_shapes.rs` checks the same claims
//! at a reduced scale.

use siperf_overload::OverloadConfig;
use siperf_proxy::config::{Arch, ProxyConfig, Transport};
use siperf_simcore::time::SimDuration;
use siperf_simos::process::Nice;

use crate::scenario::{Scenario, ScenarioReport};
use FigureConfig::{Baseline, FdCache, FdCachePlusPq};
use TransportWorkload::{Tcp50, Tcp500, TcpPersistent, Udp};

/// Which proxy build a figure evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureConfig {
    /// Figure 3: stock OpenSER.
    Baseline,
    /// Figure 4: baseline + per-worker fd cache (§5.2).
    FdCache,
    /// Figure 5: fd cache + priority-queue idle management (§5.3).
    FdCachePlusPq,
}

impl FigureConfig {
    /// Applies this figure's fixes to a TCP proxy config.
    pub fn apply(self, cfg: ProxyConfig) -> ProxyConfig {
        match self {
            FigureConfig::Baseline => cfg,
            FigureConfig::FdCache => cfg.with_fd_cache(),
            FigureConfig::FdCachePlusPq => cfg.with_fd_cache().with_priority_queue(),
        }
    }

    /// Figure label in the paper.
    pub fn label(self) -> &'static str {
        match self {
            FigureConfig::Baseline => "Figure 3 (baseline)",
            FigureConfig::FdCache => "Figure 4 (fd cache)",
            FigureConfig::FdCachePlusPq => "Figure 5 (fd cache + priority queue)",
        }
    }

    /// The figure's bar labels in ops/s: rows in [`TransportWorkload::ALL`]
    /// order, columns in [`CLIENT_COUNTS`] order.
    pub fn paper(self) -> &'static [[u64; 3]; 4] {
        match self {
            FigureConfig::Baseline => &FIGURE3,
            FigureConfig::FdCache => &FIGURE4,
            FigureConfig::FdCachePlusPq => &FIGURE5,
        }
    }
}

// The reference values are read off the bar labels of Figures 3–5; the
// assignment of the mid-range TCP bars in Figures 4 and 5 is approximate
// where the figure's bars are within noise of each other.

/// Figure 3 (baseline OpenSER) reference values.
pub const FIGURE3: [[u64; 3]; 4] = [
    [4_651, 5_853, 7_472],
    [6_794, 9_500, 12_359],
    [14_635, 12_630, 9_791],
    [28_395, 33_695, 33_350],
];

/// Figure 4 (file-descriptor cache) reference values.
pub const FIGURE4: [[u64; 3]; 4] = [
    [10_113, 11_703, 13_232],
    [23_400, 23_032, 22_502],
    [22_376, 23_696, 22_238],
    [28_395, 33_695, 33_350],
];

/// Figure 5 (fd cache + priority queue) reference values.
pub const FIGURE5: [[u64; 3]; 4] = [
    [20_529, 18_986, 16_661],
    [22_953, 22_082, 21_237],
    [22_356, 22_574, 21_230],
    [28_395, 33_695, 33_350],
];

/// The paper's value for one bar.
pub fn paper_value(fig: FigureConfig, wl: TransportWorkload, clients: usize) -> u64 {
    let col = CLIENT_COUNTS
        .iter()
        .position(|&c| c == clients)
        .expect("paper client counts are 100/500/1000");
    fig.paper()[wl as usize][col]
}

/// One bar of a figure: the transport workload dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportWorkload {
    /// TCP, reconnect every 50 operations.
    Tcp50,
    /// TCP, reconnect every 500 operations.
    Tcp500,
    /// TCP, connections persist for the whole run.
    TcpPersistent,
    /// UDP.
    Udp,
}

impl TransportWorkload {
    /// All four bars, in the figures' order.
    pub const ALL: [TransportWorkload; 4] = [
        TransportWorkload::Tcp50,
        TransportWorkload::Tcp500,
        TransportWorkload::TcpPersistent,
        TransportWorkload::Udp,
    ];

    /// Legend label as printed in the paper.
    pub fn label(self) -> &'static str {
        match self {
            TransportWorkload::Tcp50 => "TCP 50 ops/conn",
            TransportWorkload::Tcp500 => "TCP 500 ops/conn",
            TransportWorkload::TcpPersistent => "TCP persistent conn",
            TransportWorkload::Udp => "UDP",
        }
    }

    /// The transport this workload runs on.
    pub fn transport(self) -> Transport {
        match self {
            TransportWorkload::Udp => Transport::Udp,
            _ => Transport::Tcp,
        }
    }

    /// The reconnect policy, if any.
    pub fn ops_per_conn(self) -> Option<u32> {
        match self {
            TransportWorkload::Tcp50 => Some(50),
            TransportWorkload::Tcp500 => Some(500),
            _ => None,
        }
    }
}

/// The client counts on the figures' x-axes.
pub const CLIENT_COUNTS: [usize; 3] = [100, 500, 1000];

/// Builds one cell of a figure (a single bar).
pub fn figure_cell(
    fig: FigureConfig,
    workload: TransportWorkload,
    clients: usize,
    measure_secs: u64,
    seed: u64,
) -> Scenario {
    let transport = workload.transport();
    let mut proxy = ProxyConfig::paper(transport);
    if transport == Transport::Tcp {
        proxy = fig.apply(proxy);
    }
    let mut builder = Scenario::builder(format!(
        "{} / {} clients / {}",
        workload.label(),
        clients,
        match fig {
            FigureConfig::Baseline => "baseline",
            FigureConfig::FdCache => "fd-cache",
            FigureConfig::FdCachePlusPq => "fd-cache+pq",
        }
    ))
    .proxy(proxy)
    .client_pairs(clients)
    .measure_secs(measure_secs)
    .seed(seed);
    if let Some(k) = workload.ops_per_conn() {
        builder = builder.ops_per_conn(k);
    }
    builder.build()
}

/// Measured window of every full-scale closed-loop cell, in seconds.
const WINDOW_SECS: u64 = 6;
/// A2's window: long enough for abandoned connections to pile up against
/// the descriptor budget.
const IDLE_WINDOW_SECS: u64 = 30;
/// X3's open-loop window.
const OPEN_WINDOW_SECS: u64 = 4;
/// A2's server descriptor budget.
const IDLE_BUDGET: usize = 3_200;

/// How a [`Cell`] departs from its figure bar.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tweak {
    Bar,
    /// The supervisor's priority (A1).
    Supervisor(Nice),
    /// Idle timeout in seconds, under the descriptor budget (A2).
    IdleTimeout(u64),
    Workers(usize),
    Threaded,
    Sctp,
    Stateless,
    /// Datagram loss in tenths of a percent (X2).
    Loss(u32),
    /// Open-loop Poisson calls/s with a 200 ms setup deadline, shedding
    /// with QueueThreshold or not at all (X3).
    Open {
        rate: u32,
        shed: bool,
    },
}

/// One simulated run: a figure bar at a client count, plus at most one
/// departure from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    fig: FigureConfig,
    workload: TransportWorkload,
    clients: usize,
    tweak: Tweak,
}

impl Cell {
    /// Cells that run the same simulation compare equal: UDP runs no TCP
    /// fix, so every figure shares Figure 3's UDP bar, and no loss, loss
    /// on a reliable transport (only UDP's send rule reads it) or the
    /// default worker count is the bar itself.
    fn new(fig: FigureConfig, workload: TransportWorkload, clients: usize, tweak: Tweak) -> Self {
        let tweak = match tweak {
            Tweak::Loss(l) if l == 0 || workload != Udp => Tweak::Bar,
            Tweak::Workers(n) if n == ProxyConfig::paper(workload.transport()).worker_count() => {
                Tweak::Bar
            }
            t => t,
        };
        let fig = if workload == Udp { Baseline } else { fig };
        Cell {
            fig,
            workload,
            clients,
            tweak,
        }
    }

    /// The scenario this cell runs. The full scale is what EXPERIMENTS.md
    /// reports. The reduced one is what `tests/figure_shapes.rs` checks:
    /// calls from 0.8 s and a window from 1.5 s, 4 s long for bars and 2 s
    /// for the rest.
    pub fn scenario(self, full: bool) -> Scenario {
        let (secs, seed) = match (full, self.tweak) {
            (true, Tweak::IdleTimeout(_)) => (IDLE_WINDOW_SECS, 7),
            (true, Tweak::Open { .. }) => (OPEN_WINDOW_SECS, 7),
            (true, _) => (WINDOW_SECS, 7),
            (false, Tweak::Bar) => (4, 77),
            (false, Tweak::Supervisor(_)) => (2, 5),
            (false, _) => (2, 77),
        };
        let mut s = figure_cell(self.fig, self.workload, self.clients, secs, seed);
        if !full {
            s.call_start = SimDuration::from_millis(800);
            s.measure_from = SimDuration::from_millis(1500);
        }
        let p = &mut s.proxy;
        match self.tweak {
            Tweak::Bar => return s,
            Tweak::Supervisor(nice) => p.supervisor_nice = nice,
            Tweak::IdleTimeout(t) => {
                p.idle_timeout = SimDuration::from_secs(t);
                s.net.max_endpoints_per_host = IDLE_BUDGET;
            }
            Tweak::Workers(n) => p.workers = Some(n),
            Tweak::Threaded => p.arch = Arch::MultiThread,
            Tweak::Sctp => *p = ProxyConfig::paper(Transport::Sctp),
            Tweak::Stateless => p.stateful = false,
            Tweak::Loss(permille) => s.net.udp_loss = permille as f64 / 1000.0,
            Tweak::Open { rate, shed } => {
                if shed {
                    p.overload = OverloadConfig::queue_threshold_default();
                }
                s.arrival_rate = Some(rate as f64);
                s.setup_deadline = Some(SimDuration::from_millis(200));
                s.call_start = SimDuration::from_millis(700);
            }
        }
        s.name = format!("{} / {:?}", s.name, self.tweak);
        s
    }
}

/// A figure bar without its client count.
type Bar = (FigureConfig, TransportWorkload);

fn bar((fig, workload): Bar, clients: usize) -> Cell {
    Cell::new(fig, workload, clients, Tweak::Bar)
}

/// Finished cells, as tables and claims read them.
pub struct Runs<'a> {
    /// The full scale (EXPERIMENTS.md) or the reduced one.
    pub full: bool,
    /// The report of a cell; every cell the experiment lists is there.
    pub report: &'a dyn Fn(Cell) -> &'a ScenarioReport,
}

impl Runs<'_> {
    /// The figures' x-axis at this scale.
    fn clients(&self) -> &'static [usize] {
        &CLIENT_COUNTS[..if self.full { 3 } else { 1 }]
    }

    /// The client count of the §6 extensions at this scale.
    fn pairs(&self) -> usize {
        if self.full {
            500
        } else {
            100
        }
    }

    fn tput(&self, cell: Cell) -> f64 {
        (self.report)(cell).throughput.per_sec()
    }

    fn bar(&self, b: Bar, clients: usize) -> f64 {
        self.tput(bar(b, clients))
    }
}

/// Whether a claim holds, and the measured values behind the verdict.
pub type Check = Box<dyn Fn(&Runs<'_>) -> (bool, String)>;

/// A sentence EXPERIMENTS.md states about an experiment, with its check.
pub struct Claim {
    /// The sentence.
    pub text: &'static str,
    /// Whether `tests/figure_shapes.rs` checks it at the reduced scale.
    pub reduced: bool,
    /// The check.
    pub check: Check,
}

/// Marks a claim for checking at the reduced scale too.
fn both(claim: Claim) -> Claim {
    Claim {
        reduced: true,
        ..claim
    }
}

/// A claim's sentence, waiting for its check.
struct Says(&'static str);

fn says(text: &'static str) -> Says {
    Says(text)
}

impl Says {
    fn when(self, check: impl Fn(&Runs<'_>) -> (bool, String) + 'static) -> Claim {
        let check = Box::new(check);
        Claim {
            text: self.0,
            reduced: false,
            check,
        }
    }
}

/// Bar `.0` over bar `.1` within `lo..=hi` at every client count.
struct Ratio(Bar, Bar, (f64, f64));

impl Ratio {
    /// The claim, checked at both scales.
    fn says(self, text: &'static str) -> Claim {
        let Ratio(a, b, (lo, hi)) = self;
        both(says(text).when(move |r| {
            let ratio = |&n: &usize| r.bar(a, n) / r.bar(b, n);
            let vals: Vec<f64> = r.clients().iter().map(ratio).collect();
            let ok = vals.iter().all(|x| (lo..=hi).contains(x));
            (ok, vals.map_join(times, ", "))
        }))
    }
}

/// One experiment: its cells, its table and its claims.
pub struct Experiment {
    /// The id of its `<!-- regen:ID -->` section in EXPERIMENTS.md.
    pub id: &'static str,
    /// Every cell the table and the claims read, at full scale.
    pub cells: Vec<Cell>,
    /// Renders the markdown table.
    pub table: Box<dyn Fn(&Runs<'_>) -> String>,
    /// What the table must bear out.
    pub claims: Vec<Claim>,
}

/// An experiment from its parts.
fn experiment(
    id: &'static str,
    cells: Vec<Cell>,
    table: impl Fn(&Runs<'_>) -> String + 'static,
    claims: Vec<Claim>,
) -> Experiment {
    let table = Box::new(table);
    Experiment {
        id,
        cells,
        table,
        claims,
    }
}

impl Experiment {
    /// The generated section — the table, then each claim as a bullet —
    /// and whether every claim holds.
    pub fn render(&self, runs: &Runs<'_>) -> (String, bool) {
        let mut out = (self.table)(runs) + "\nShape checks:\n\n";
        let mut all = true;
        for claim in &self.claims {
            let (holds, detail) = (claim.check)(runs);
            let mark = if holds { "" } else { " **(fails)**" };
            out += &format!("* {}: ours {detail}.{mark}\n", claim.text);
            all &= holds;
        }
        (out, all)
    }
}

/// Joins the shown items of a list.
trait MapJoin<T> {
    fn map_join(&self, show: impl Fn(T) -> String, sep: &str) -> String;
}

impl<T: Copy> MapJoin<T> for [T] {
    fn map_join(&self, show: impl Fn(T) -> String, sep: &str) -> String {
        let shown: Vec<String> = self.iter().map(|&x| show(x)).collect();
        shown.join(sep)
    }
}

/// `12345.6` as `12 346`.
fn num(x: impl Into<f64>) -> String {
    let digits = format!("{:.0}", x.into().max(0.0));
    let mut out = String::new();
    for (i, ch) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(' ');
        }
        out.push(ch);
    }
    out
}

fn count(n: u64) -> String {
    num(n as f64)
}

fn pct(x: f64) -> String {
    format!("{:.0}%", 100.0 * x)
}

fn pct1(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

fn times(x: f64) -> String {
    format!("{x:.2}×")
}

fn ms(d: SimDuration) -> String {
    format!("{:.1} ms", d.as_secs_f64() * 1e3)
}

/// A markdown table; `head` and each row are ` | `-separated cells.
fn table(head: &str, rows: impl IntoIterator<Item = String>) -> String {
    let rule = "---|".repeat(head.split(" | ").count());
    let mut out = format!("| {head} |\n|{rule}\n");
    for row in rows {
        out += &format!("| {row} |\n");
    }
    out
}

fn max(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::MIN, f64::max)
}

fn min(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::MAX, f64::min)
}

const INF: f64 = f64::INFINITY;
const TCP: [TransportWorkload; 3] = [Tcp50, Tcp500, TcpPersistent];

/// Every bar of `figs` at every client count.
fn grid(figs: &[FigureConfig]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for n in CLIENT_COUNTS {
        for &fig in figs {
            cells.extend(TransportWorkload::ALL.map(|wl| bar((fig, wl), n)));
        }
    }
    cells
}

/// A cell for every pair of `a` and `b`.
fn product<A: Copy, B: Copy>(a: &[A], b: &[B], cell: impl Fn(A, B) -> Cell) -> Vec<Cell> {
    let cell = &cell;
    a.iter()
        .flat_map(|&x| b.iter().map(move |&y| cell(x, y)))
        .collect()
}

fn figure(id: &'static str, fig: FigureConfig, claims: Vec<Claim>) -> Experiment {
    // Each figure's claims compare it with the figure before; UDP rows
    // appear once, in Figure 3.
    let figs = [Baseline, FdCache, FdCachePlusPq];
    let at = figs.iter().position(|&f| f == fig).expect("a figure");
    let wls: &[TransportWorkload] = if fig == Baseline {
        &TransportWorkload::ALL
    } else {
        &TCP
    };
    let table = move |r: &Runs<'_>| {
        let rows = r.clients().iter().flat_map(|&n| {
            let paper = move |wl| paper_value(fig, wl, n) as f64;
            let udp = r.bar((fig, Udp), n);
            wls.iter().map(move |&wl| {
                let (p, ours, label) = (paper(wl), r.bar((fig, wl), n), wl.label());
                let shares = format!("{} | {}", pct(p / paper(Udp)), pct(ours / udp));
                format!("{n} | {label} | {} | {} | {shares}", num(p), num(ours))
            })
        });
        let head = "clients | workload | paper | measured | paper %UDP | ours %UDP";
        table(head, rows)
    };
    let cells = grid(&figs[at.saturating_sub(1)..=at]);
    experiment(id, cells, table, claims)
}

/// Every TCP bar's share of UDP under `fig`, lowest and highest.
fn band(r: &Runs<'_>, fig: FigureConfig) -> (f64, f64) {
    let share = |n, wl| r.bar((fig, wl), n) / r.bar((fig, Udp), n);
    let at = |n| TCP.map(|wl| share(n, wl));
    let shares: Vec<f64> = r.clients().iter().flat_map(|&n| at(n)).collect();
    (min(shares.clone()), max(shares))
}

fn show_band((lo, hi): (f64, f64)) -> String {
    format!("{:.0}–{}", 100.0 * lo, pct(hi))
}

fn headline() -> Experiment {
    let table = |r: &Runs<'_>| {
        let [base, fixed] = [Baseline, FdCachePlusPq].map(|fig| show_band(band(r, fig)));
        let rows = [
            format!("Baseline TCP, % of UDP (all workloads × client counts) | 13–51% | {base}"),
            format!("Fixed TCP (fd cache + priority queue) | 50–78% | {fixed}"),
        ];
        table(" | paper | measured", rows)
    };
    let bands = says("Each band lies within the paper's, give or take 5 points").when(|r| {
        let (base, fixed) = (band(r, Baseline), band(r, FdCachePlusPq));
        let ok = base.0 > 0.08 && base.1 < 0.56 && fixed.0 > 0.45 && fixed.1 < 0.83;
        (ok, format!("{} and {}", show_band(base), show_band(fixed)))
    });
    let cells = grid(&[Baseline, FdCachePlusPq]);
    experiment("headline", cells, table, vec![bands])
}

fn figure3() -> Experiment {
    let b = |wl| (Baseline, wl);
    let tcp_share = move |r: &Runs<'_>, n| r.bar(b(TcpPersistent), n) / r.bar(b(Udp), n);
    let claims = vec![
        Ratio(b(Udp), b(TcpPersistent), (1.7, INF))
            .says("UDP beats TCP persistent at least 1.7× (paper 1.94× at 100 clients)"),
        says("UDP beats TCP persistent over 3× at 1000 clients (paper 3.4×)").when(move |r| {
            let x = 1.0 / tcp_share(r, 1000);
            (x > 3.0, times(x))
        }),
        says("UDP scales while TCP persistent declines (paper 52→37→29% of UDP)").when(move |r| {
            let share = CLIENT_COUNTS.map(|n| tcp_share(r, n));
            let ok = share.windows(2).all(|w| w[1] < w[0]);
            (ok, share.map_join(pct, "→"))
        }),
        Ratio(b(Tcp50), b(Tcp500), (0.0, 1.02))
            .says("TCP 50 ops/conn does no better than 1.02× 500 ops/conn"),
        Ratio(b(Tcp500), b(TcpPersistent), (0.0, 1.05))
            .says("TCP 500 ops/conn does no better than 1.05× persistent"),
        Ratio(b(Udp), b(Tcp50), (2.3, INF)).says("UDP beats TCP 50 ops/conn at least 2.3×"),
    ];
    figure("fig3", Baseline, claims)
}

fn figure4() -> Experiment {
    let f4 = |wl| (FdCache, wl);
    let claims = vec![
        Ratio(f4(TcpPersistent), f4(Udp), (0.6, 0.88))
            .says("TCP persistent lands at 0.60–0.88× UDP (paper 0.67–0.79×)"),
        Ratio(f4(Tcp500), f4(TcpPersistent), (0.9, INF))
            .says("500 ops/conn is \"very similar\" to persistent: above 0.9× it"),
        Ratio(f4(Tcp50), f4(TcpPersistent), (0.0, 0.78))
            .says("50 ops/conn keeps \"a two-fold difference\": below 0.78× persistent"),
        Ratio(f4(TcpPersistent), (Baseline, TcpPersistent), (1.4, INF))
            .says("The cache lifts TCP persistent at least 1.4× (paper 1.5–2.3×)"),
    ];
    figure("fig4", FdCache, claims)
}

fn figure5() -> Experiment {
    let f5 = |wl| (FdCachePlusPq, wl);
    let claims = vec![
        Ratio(f5(Tcp50), (FdCache, Tcp50), (1.35, INF))
            .says("The queue lifts 50 ops/conn at least 1.35× (paper 1.3–2.0×)"),
        Ratio(f5(Tcp50), f5(TcpPersistent), (0.88, INF))
            .says("50 ops/conn becomes \"very similar\" to persistent: above 0.88× it"),
        Ratio(f5(Tcp50), f5(Udp), (0.5, 0.9))
            .says("50 ops/conn lands at 0.5–0.9× UDP (paper 0.50–0.72×)"),
        Ratio(f5(TcpPersistent), (FdCache, TcpPersistent), (0.9, 1.1))
            .says("The queue has \"negligible effect\" on persistent: within 10%"),
    ];
    figure("fig5", FdCachePlusPq, claims)
}

/// The server-profile shares P1/P2 reads: the fd request's user and kernel
/// IPC, the idle scan, and the scheduler.
fn shares(r: &ScenarioReport) -> [f64; 3] {
    let p = &r.server_profile;
    let ipc = ["kernel/ipc_send", "kernel/ipc_recv", "user/tcpconn_get_fd"].map(|t| p.share(t));
    let sched = p.share("kernel/sched_yield") + p.domain_share("sched");
    [ipc.iter().sum(), p.share("user/tcpconn_timeout"), sched]
}

/// The ranks of the IPC functions in the profile, 1 = hottest.
fn ipc_ranks(r: &ScenarioReport) -> [Option<usize>; 2] {
    let rank = |tag| r.server_profile.rows().iter().position(|(t, _)| *t == tag);
    ["kernel/ipc_send", "kernel/ipc_recv"].map(|tag| rank(tag).map(|i| i + 1))
}

fn show_ranks(r: &ScenarioReport) -> String {
    let [send, recv] = ipc_ranks(r).map(|i| i.map_or("none".into(), |i| format!("#{i}")));
    format!("`ipc_send` {send}, `ipc_recv` {recv}")
}

/// The three hottest user-level functions.
fn top_user(r: &ScenarioReport) -> String {
    let rows = r.server_profile.rows().iter();
    let user: Vec<&str> = rows.filter_map(|(t, _)| t.strip_prefix("user/")).collect();
    user[..3].join(", ")
}

fn hottest(r: &ScenarioReport) -> String {
    let (tag, ns) = r.server_profile.rows()[0];
    let share = ns as f64 / r.server_profile.total_ns() as f64;
    format!("`{tag}` at {}", pct1(share))
}

/// P1/P2's bars at 500 clients: baseline and cached persistent TCP, cached
/// and queued 50 ops/conn, and UDP.
const PROFILED: [Bar; 5] = [
    (Baseline, TcpPersistent),
    (FdCache, TcpPersistent),
    (FdCache, Tcp50),
    (FdCachePlusPq, Tcp50),
    (Baseline, Udp),
];

/// P1/P2's metrics and the paper's values, one per table row.
const PROFILE_ROWS: [&str; 9] = [
    "fd-request IPC share, baseline TCP | 12.0% (user function only)",
    "fd-request IPC share, with fd cache | 4.6%",
    "IPC functions' rank, baseline | in the kernel's top 15",
    "IPC functions' rank, with fd cache | out of the top",
    "top user functions, cached TCP / UDP | \"remarkably like\" each other",
    "idle-scan share, 50 ops/conn vs persistent (fd cache) | almost 3×",
    "hottest function, 50 ops/conn (fd cache) | in the scheduler",
    "scheduler share, linear scan → priority queue | (fixed)",
    "idle-scan share, linear scan → priority queue | (fixed)",
];

fn profiled<'a>(r: &Runs<'a>) -> [&'a ScenarioReport; 5] {
    PROFILED.map(|b| (r.report)(bar(b, 500)))
}

fn profiles() -> Experiment {
    let table = |r: &Runs<'_>| {
        let [base, cached, churn, queued, udp] = profiled(r);
        let [b, c, ch, q] = [base, cached, churn, queued].map(shares);
        let measured = [
            pct1(b[0]) + " (user + kernel)",
            pct1(c[0]),
            show_ranks(base),
            show_ranks(cached),
            format!("{} / {}", top_user(cached), top_user(udp)),
            format!("{} vs {}", pct1(ch[1]), pct1(c[1])),
            hottest(churn),
            format!("{} → {}", pct1(ch[2]), pct1(q[2])),
            format!("{} → {}", pct1(ch[1]), pct1(q[1])),
        ];
        let rows = PROFILE_ROWS.iter().zip(measured);
        let rows = rows.map(|(row, m)| format!("{row} | {m}"));
        table("metric | paper | measured", rows)
    };
    let claims = vec![
        says("The fd cache cuts the IPC share at least 2.6× (paper 12.0% → 4.6%)").when(|r| {
            let [base, cached, ..] = profiled(r).map(|x| shares(x)[0]);
            (base >= 2.6 * cached, times(base / cached))
        }),
        says("Under 50 ops/conn the linear scan's `sched_yield` tops the profile").when(|r| {
            let churn = profiled(r)[2];
            let top = churn.server_profile.rows()[0].0 == "kernel/sched_yield";
            (top, hottest(churn))
        }),
        says("The priority queue at least halves the scheduler and scan shares").when(|r| {
            let [.., churn, queued, _] = profiled(r).map(shares);
            let ok = (1..3).all(|i| queued[i] < churn[i] / 2.0);
            let [scan, sched] = [1, 2].map(|i| format!("{} → {}", pct1(churn[i]), pct1(queued[i])));
            (ok, format!("scheduler {sched}, scan {scan}"))
        }),
    ];
    let cells = PROFILED.map(|b| bar(b, 500)).to_vec();
    experiment("P1/P2", cells, table, claims)
}

/// A1's supervisor priorities: the paper's nice −20, then nice 0.
const NICES: [Nice; 2] = [Nice::HIGHEST, Nice::NORMAL];

fn supervisor(nice: Nice) -> Cell {
    Cell::new(Baseline, TcpPersistent, 500, Tweak::Supervisor(nice))
}

fn a1() -> Experiment {
    let table = |r: &Runs<'_>| {
        let [hi, lo] = NICES.map(|n| r.tput(supervisor(n)));
        let gain = 100.0 * (hi / lo - 1.0);
        let gain = format!("{gain:+.1}% ({} vs {} ops/s)", num(hi), num(lo));
        let row = format!("nice −20 vs nice 0, TCP persistent, 500 clients | +40–100% | {gain}");
        table(" | paper | measured", [row])
    };
    let gain = says("Nice −20 beats nice 0 by over 3%: the paper's direction").when(|r| {
        let [hi, lo] = NICES.map(|n| r.tput(supervisor(n)));
        (hi > 1.03 * lo, times(hi / lo))
    });
    let cells = NICES.map(supervisor).to_vec();
    experiment("A1", cells, table, vec![both(gain)])
}

fn idle(timeout: u64) -> Cell {
    Cell::new(Baseline, Tcp50, 500, Tweak::IdleTimeout(timeout))
}

fn a2() -> Experiment {
    let table = |r: &Runs<'_>| {
        let rows = [120, 10].map(|t| {
            let x = (r.report)(idle(t));
            let (ops, refused) = (num(x.throughput.per_sec()), count(x.connect_errors));
            let sockets = count(x.server_endpoints as u64);
            format!("{t} s | {ops} | {refused} | {sockets}")
        });
        let head = "idle timeout | ops/s | refused connects | server sockets at end";
        table(head, rows)
    };
    let starves = says("120 s exhausts the descriptor budget; 10 s serves more").when(|r| {
        let [long, short] = [idle(120), idle(10)].map(|c| (r.report)(c));
        let [lt, st] = [long, short].map(|x| x.throughput.per_sec());
        let [le, se] = [long, short].map(|x| x.server_endpoints);
        let ok = le >= IDLE_BUDGET && se < IDLE_BUDGET && st > lt;
        let calls = times(st / lt);
        let [le, se] = [le, se].map(|n| count(n as u64));
        (ok, format!("{le} vs {se} sockets, {calls} the calls"))
    });
    experiment("A2", vec![idle(120), idle(10)], table, vec![starves])
}

const WORKERS: [usize; 6] = [4, 8, 16, 24, 32, 48];
/// A3's rows and the paper's worker count for each.
const PICKS: [(TransportWorkload, usize); 2] = [(Udp, 24), (TcpPersistent, 32)];

fn workers(wl: TransportWorkload, n: usize) -> Cell {
    Cell::new(Baseline, wl, 500, Tweak::Workers(n))
}

fn a3() -> Experiment {
    let table = |r: &Runs<'_>| {
        let rows = PICKS.map(|(wl, pick)| {
            let ops = WORKERS.map(|n| match num(r.tput(workers(wl, n))) {
                x if n == pick => format!("**{x}**"),
                x => x,
            });
            let name = wl.transport().token().to_uppercase();
            format!("{name} ops/s | {}", ops.join(" | "))
        });
        let head = format!("workers | {}", WORKERS.map_join(|n| n.to_string(), " | "));
        table(&head, rows)
    };
    let claims = vec![
        says("The paper's picks, 24 UDP and 32 TCP workers, are within 5% of the best").when(|r| {
            let best = |wl| max(WORKERS.map(|n| r.tput(workers(wl, n))));
            let gap = PICKS.map(|(wl, pick)| 1.0 - r.tput(workers(wl, pick)) / best(wl));
            let ok = gap.iter().all(|&g| g < 0.05);
            (ok, gap.map_join(pct1, " and ") + " below")
        }),
        says("TCP gains from workers that block on the supervisor: 32 beat 8").when(|r| {
            let x = r.tput(workers(TcpPersistent, 32)) / r.tput(workers(TcpPersistent, 8));
            (x > 1.0, times(x))
        }),
    ];
    let cells = product(&PICKS, &WORKERS, |(wl, _), n| workers(wl, n));
    experiment("A3", cells, table, claims)
}

/// The labels of the §6 rows.
const EXTENSIONS: [&str; 7] = [
    "UDP (reference)",
    "TCP multi-process, baseline",
    "TCP multi-process, fd cache + pq (Fig. 5)",
    "**TCP multi-threaded (E1)**",
    "TCP multi-threaded, 50 ops/conn",
    "**SCTP, symmetric workers (E2)**",
    "UDP stateless (reference)",
];

/// The cells of the §6 rows at `n` clients.
fn extension_cells(n: usize) -> [Cell; 7] {
    let fixed = |wl, tweak| Cell::new(FdCachePlusPq, wl, n, tweak);
    [
        bar((Baseline, Udp), n),
        bar((Baseline, TcpPersistent), n),
        bar((FdCachePlusPq, TcpPersistent), n),
        fixed(TcpPersistent, Tweak::Threaded),
        fixed(Tcp50, Tweak::Threaded),
        fixed(Udp, Tweak::Sctp),
        fixed(Udp, Tweak::Stateless),
    ]
}

fn extensions() -> Experiment {
    let table = |r: &Runs<'_>| {
        let tput = extension_cells(r.pairs()).map(|c| r.tput(c));
        let rows = EXTENSIONS.iter().zip(tput);
        let rows = rows.map(|(label, x)| format!("{label} | {} | {}", num(x), pct(x / tput[0])));
        table("configuration | ops/s | %UDP", rows)
    };
    // Each claim reads only its own rows, so the reduced scale runs no more.
    let tput = |r: &Runs<'_>, row: usize| r.tput(extension_cells(r.pairs())[row]);
    let claims = vec![
        both(
            says("Threading matches the fixed multi-process build (0.95×)").when(move |r| {
                let (fixed, threaded) = (tput(r, 2), tput(r, 3));
                (threaded > 0.95 * fixed, times(threaded / fixed))
            }),
        ),
        says("The threaded server passes no descriptors, even under churn").when(|r| {
            let fds = |row| {
                (r.report)(extension_cells(r.pairs())[row])
                    .proxy
                    .fd_requests
            };
            let fds = fds(3) + fds(4);
            (fds == 0, format!("{fds} fd requests"))
        }),
        both(
            says("SCTP beats the fixed TCP build and comes within 15% of UDP").when(move |r| {
                let (udp, tcp, sctp) = (tput(r, 0), tput(r, 2), tput(r, 5));
                let ok = sctp > tcp && sctp > 0.85 * udp;
                let (x, y) = (times(sctp / tcp), pct(sctp / udp));
                (ok, format!("{x} the fixed TCP build, {y} of UDP"))
            }),
        ),
    ];
    experiment("E1/E2", extension_cells(500).to_vec(), table, claims)
}

const LOADS: [usize; 6] = [25, 50, 100, 200, 400, 800];
/// X1's builds: UDP, baseline TCP and fixed TCP.
const BUILDS: [Bar; 3] = [
    (Baseline, Udp),
    (Baseline, TcpPersistent),
    (FdCachePlusPq, TcpPersistent),
];

fn load_sweep() -> Experiment {
    let table = |r: &Runs<'_>| {
        let rows = LOADS.map(|n| {
            let cols = BUILDS.map(|b| {
                let x = (r.report)(bar(b, n));
                format!("{} | {}", num(x.throughput.per_sec()), ms(x.invite_p50))
            });
            format!("{n} | {}", cols.join(" | "))
        });
        let head = "clients | UDP ops/s | p50 | TCP baseline ops/s | p50 | fixed TCP ops/s | p50";
        table(head, rows)
    };
    let p50 = |r: &Runs<'_>, b, n| (r.report)(bar(b, n)).invite_p50.as_secs_f64();
    let claims = vec![
        says("Every build's p50 grows over 2.5× from 200 to 800 clients").when(move |r| {
            let growth = BUILDS.map(|b| p50(r, b, 800) / p50(r, b, 200));
            let ok = growth.iter().all(|&x| x > 2.5);
            (ok, growth.map_join(times, ", "))
        }),
        says("The TCP baseline saturates early: under 0.7× fixed TCP from 100 up").when(|r| {
            let share = |&n: &usize| r.bar(BUILDS[1], n) / r.bar(BUILDS[2], n);
            let worst = max(LOADS[2..].iter().map(share));
            (worst < 0.7, format!("at most {}", times(worst)))
        }),
    ];
    let cells = product(&LOADS, &BUILDS, |n, b| bar(b, n));
    experiment("X1", cells, table, claims)
}

/// Datagram loss rates in tenths of a percent.
const LOSSES: [u32; 5] = [0, 5, 10, 20, 50];

fn lossy(wl: TransportWorkload, permille: u32) -> Cell {
    Cell::new(FdCachePlusPq, wl, 300, Tweak::Loss(permille))
}

fn loss_crossover() -> Experiment {
    let table = |r: &Runs<'_>| {
        let rows = LOSSES.map(|l| {
            let udp = (r.report)(lossy(Udp, l));
            let tcp = num(r.tput(lossy(TcpPersistent, l)));
            let (ops, p99) = (num(udp.throughput.per_sec()), ms(udp.invite_p99));
            let (loss, failed) = (l as f64 / 10.0, count(udp.call_failures));
            format!("{loss:.1}% | {ops} | {p99} | {failed} | {tcp}")
        });
        let head = "datagram loss | UDP ops/s | UDP p99 | failed UDP calls | fixed TCP ops/s";
        table(head, rows)
    };
    let claims = vec![
        says("UDP's closed-loop throughput falls below half at 1% loss").when(|r| {
            let x = r.tput(lossy(Udp, 10)) / r.tput(lossy(Udp, 0));
            (x < 0.5, times(x))
        }),
        says("Fixed TCP holds its lossless throughput within 1% at every loss rate").when(|r| {
            let tput = LOSSES.map(|l| r.tput(lossy(TcpPersistent, l)));
            let worst = max(tput.map(|x| (x / tput[0] - 1.0).abs()));
            (worst < 0.01, format!("within {}", pct1(worst)))
        }),
    ];
    let cells = product(&LOSSES, &[Udp, TcpPersistent], |l, wl| lossy(wl, l));
    experiment("X2", cells, table, claims)
}

const RATES: [u32; 5] = [10_000, 14_000, 18_000, 24_000, 30_000];

fn open(rate: u32, shed: bool) -> Cell {
    Cell::new(Baseline, Udp, 300, Tweak::Open { rate, shed })
}

/// Goodput at each offered rate, as a share of the best one.
fn of_peak(r: &Runs<'_>, shed: bool) -> [f64; 5] {
    let tput = RATES.map(|rate| r.tput(open(rate, shed)));
    tput.map(|x| x / max(tput))
}

fn open_loop() -> Experiment {
    let table = |r: &Runs<'_>| {
        let peaks = [false, true].map(|shed| of_peak(r, shed));
        let rows = (0..RATES.len()).map(|i| {
            let [none, queued] = [false, true].map(|s| (r.report)(open(RATES[i], s)));
            let [a, b] = [none, queued].map(|x| num(x.throughput.per_sec()));
            let [pa, pb] = peaks.map(|p| pct(p[i]));
            let (late, shed) = (count(none.calls_late), count(queued.calls_rejected));
            let rate = num(RATES[i]);
            format!("{rate} | {a} | {pa} | {late} | {b} | {pb} | {shed}")
        });
        let head = "offered calls/s | NoControl ops/s | of peak | late calls \
                    | QueueThreshold ops/s | of peak | shed";
        table(head, rows)
    };
    let claims = vec![
        says("Without control goodput falls off a cliff: under 60% of peak at 30k/s").when(|r| {
            let share = of_peak(r, false)[4];
            (share < 0.6, pct(share))
        }),
        says("QueueThreshold holds at least 90% of its peak past the knee").when(|r| {
            let worst = min(of_peak(r, true)[2..].iter().copied());
            (worst >= 0.9, format!("at least {}", pct(worst)))
        }),
        says("The cliff is made of late calls, growing with the rate past the knee").when(|r| {
            let late = |&rate: &u32| (r.report)(open(rate, false)).calls_late;
            let late: Vec<u64> = RATES[2..].iter().map(late).collect();
            let ok = late[0] > 0 && late.windows(2).all(|w| w[1] > w[0]);
            (ok, late.map_join(count, " → "))
        }),
    ];
    let cells = product(&RATES, &[false, true], open);
    experiment("X3", cells, table, claims)
}

/// Every experiment EXPERIMENTS.md reports, in the document's order.
pub fn registry() -> Vec<Experiment> {
    vec![
        headline(),
        figure3(),
        figure4(),
        figure5(),
        profiles(),
        a1(),
        a2(),
        a3(),
        extensions(),
        load_sweep(),
        loss_crossover(),
        open_loop(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use siperf_proxy::config::IdleStrategy;

    #[test]
    fn figure_configs_apply_the_right_fixes() {
        let base = ProxyConfig::paper(Transport::Tcp);
        let f3 = Baseline.apply(base.clone());
        assert!(!f3.fd_cache);
        assert_eq!(f3.idle_strategy, IdleStrategy::LinearScan);
        let f4 = FdCache.apply(base.clone());
        assert!(f4.fd_cache);
        assert_eq!(f4.idle_strategy, IdleStrategy::LinearScan);
        let f5 = FdCachePlusPq.apply(base);
        assert!(f5.fd_cache);
        assert_eq!(f5.idle_strategy, IdleStrategy::PriorityQueue);
    }

    #[test]
    fn workloads_map_to_transport_and_policy() {
        assert_eq!(Udp.transport(), Transport::Udp);
        assert_eq!(Tcp50.ops_per_conn(), Some(50));
        assert_eq!(Tcp500.ops_per_conn(), Some(500));
        assert_eq!(TcpPersistent.ops_per_conn(), None);
        assert_eq!(TransportWorkload::ALL.len(), 4);
    }

    #[test]
    fn cells_carry_the_grid_parameters() {
        let s = figure_cell(FdCache, Tcp50, 500, 8, 1);
        assert_eq!((s.pairs, s.ops_per_conn), (500, Some(50)));
        assert!(s.proxy.fd_cache);
        assert_eq!(s.proxy.worker_count(), 32);
        let udp = figure_cell(Baseline, Udp, 100, 8, 1);
        assert_eq!((udp.proxy.worker_count(), udp.ops_per_conn), (24, None));
    }

    #[test]
    fn tweaks_depart_from_the_bar() {
        let s = |tweak| Cell::new(Baseline, TcpPersistent, 500, tweak).scenario(true);
        let normal = s(Tweak::Supervisor(Nice::NORMAL));
        assert_eq!(normal.proxy.supervisor_nice, Nice::NORMAL);
        let long = idle(120).scenario(true);
        assert_eq!(long.proxy.idle_timeout, SimDuration::from_secs(120));
        assert_eq!(long.net.max_endpoints_per_host, IDLE_BUDGET);
        assert_eq!(long.ops_per_conn, Some(50));
        assert_eq!(s(Tweak::Workers(8)).proxy.worker_count(), 8);
        assert_eq!(s(Tweak::Threaded).proxy.arch, Arch::MultiThread);
        assert_eq!(s(Tweak::Sctp).proxy.transport, Transport::Sctp);
        assert_eq!(
            open(18_000, true).scenario(true).arrival_rate,
            Some(18_000.0)
        );
        // Cells that run the same simulation are one cell.
        assert_eq!(workers(Udp, 24), bar((FdCache, Udp), 500));
        for l in LOSSES {
            assert_eq!(
                lossy(TcpPersistent, l),
                bar((FdCachePlusPq, TcpPersistent), 300)
            );
        }
        assert_ne!(lossy(Udp, 10), bar((FdCachePlusPq, Udp), 300));
    }

    #[test]
    fn paper_tables_match_the_figures_headlines() {
        // Abstract: "TCP performance increases from 13-51% to 50-78% of the
        // UDP performance" — the reference tables must reproduce that.
        let mut baseline = Vec::new();
        let mut fixed = Vec::new();
        for i in 0..CLIENT_COUNTS.len() {
            let udp = FIGURE3[3][i] as f64;
            for row in &FIGURE3[..3] {
                baseline.push(row[i] as f64 / udp);
            }
            for row in &FIGURE5[..3] {
                fixed.push(row[i] as f64 / udp);
            }
        }
        let (bmin, bmax) = (min(baseline.clone()), max(baseline));
        assert!((0.12..=0.17).contains(&bmin), "baseline min {bmin}");
        assert!((0.40..=0.55).contains(&bmax), "baseline max {bmax}");
        let (fmin, fmax) = (min(fixed.clone()), max(fixed));
        assert!((0.45..=0.55).contains(&fmin), "fixed min {fmin}");
        assert!((0.70..=0.85).contains(&fmax), "fixed max {fmax}");
    }

    #[test]
    fn lookup_works() {
        assert_eq!(paper_value(Baseline, Udp, 500), 33_695);
        assert_eq!(paper_value(FdCache, Tcp50, 100), 10_113);
    }
}
