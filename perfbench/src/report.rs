//! The metric registry, the result line, and the small numeric helpers the
//! runs share: the median, interpolated histogram percentiles, the fingerprint
//! hash and peak RSS.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use siperf::simcore::stats::Histogram;

/// A metric's name and unit, exactly as `BENCHMARK.json` lists them.
pub type MetricDef = (&'static str, &'static str);

/// What an untraced run prints: what a user of the simulator sees.
pub const END_TO_END: &[MetricDef] = &[
    ("sim_rate", "sim_s/host_s"),
    ("host_us_per_op", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("goodput_ops", "ops/s"),
    ("invite_p50_ms", "ms"),
    ("invite_p99_ms", "ms"),
];

/// What a traced run prints: counts and host-time estimates per layer.
pub const PER_LAYER: &[MetricDef] = &[
    ("simos.syscalls_per_op", "count/op"),
    ("simos.ctx_switches_per_op", "count/op"),
    ("simos.wakeups_per_op", "count/op"),
    ("simos.lock_yields_per_op", "count/op"),
    ("simos.host_ns_per_syscall", "ns"),
    ("simos.probe_syscall_ns", "ns"),
    ("simcore.probe_queue_ns", "ns"),
    ("simcore.probe_profile_record_ns", "ns"),
    ("simnet.datagrams_per_op", "count/op"),
    ("simnet.probe_udp_ns", "ns"),
    ("simnet.segments_per_op", "count/op"),
    ("simnet.conns_per_op", "count/op"),
    ("simnet.time_wait_end", "count"),
    ("simnet.queue_drops", "count"),
    ("sip.probe_parse_ns", "ns"),
    ("sip.probe_serialize_ns", "ns"),
    ("sip.probe_frame_ns", "ns"),
    ("proxy.msgs_per_op", "count/op"),
    ("proxy.forwards_per_op", "count/op"),
    ("proxy.probe_core_ns_per_call", "ns"),
    ("proxy.fd_requests_per_op", "count/op"),
    ("proxy.fd_cache_hit_ratio", "ratio"),
    ("proxy.idle_scan_per_op", "count/op"),
    ("proxy.retransmits_per_op", "count/op"),
    ("overload.shed_share", "ratio"),
    ("workload.phone_retransmits_per_call", "count/call"),
    ("workload.retries_per_call", "count/call"),
    ("workload.late_share", "ratio"),
    ("workload.open_calls_peak", "count"),
    ("sim.server_util", "ratio"),
    ("sim.cpu_user_share", "ratio"),
    ("sim.cpu_kernel_share", "ratio"),
    ("sim.cpu_sched_share", "ratio"),
    ("sim.lock_contention.txn_table", "ratio"),
    ("sim.lock_contention.usrloc", "ratio"),
    ("sim.lock_contention.timer_list", "ratio"),
    ("sim.lock_contention.tcpconn_hash", "ratio"),
    ("host.build_s", "s"),
    ("host.register_s", "s"),
    ("host.ramp_s", "s"),
    ("host.window_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.share.simos", "ratio"),
    ("trace.share.simnet", "ratio"),
    ("trace.share.sip_parse", "ratio"),
    ("trace.share.sip_frame", "ratio"),
    ("trace.share.proxy_core", "ratio"),
    ("trace.share.queue", "ratio"),
    ("trace.share.profile_record", "ratio"),
    ("trace.share.sip_serialize", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run found: its operations, its failed correctness checks, its
/// metrics, and context lines for the human-readable part of the output.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Call attempts in one simulation of the workload.
    pub attempted: u64,
    /// Calls the simulation itself counted as failed.
    pub call_failures: u64,
    /// Every correctness check that failed, in words.
    pub failures: Vec<String>,
    /// The run's metrics.
    pub metrics: Metrics,
    /// Context printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// True when every correctness check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Operations that failed: the simulation's own call failures, or every
    /// attempt when a correctness check failed.
    pub fn failed(&self) -> u64 {
        if self.correct() {
            self.call_failures
        } else {
            self.attempted
        }
    }

    /// Records a metric value, failing the run's checks if it is not a
    /// finite number (JSON cannot carry it, and it would be a bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        if value.is_finite() {
            self.metrics.insert(name, value);
        } else {
            self.failures
                .push(format!("metric {name} is not finite ({value})"));
            self.metrics.insert(name, 0.0);
        }
    }

    /// The result line: one JSON object carrying the metrics of `defs`.
    ///
    /// # Panics
    ///
    /// Panics if a metric of `defs` was never set, which is a bug in the
    /// run that produced this outcome.
    pub fn json(&self, defs: &[MetricDef]) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed()
        );
        for (i, (name, unit)) in defs.iter().enumerate() {
            let value = self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was never set"));
            let sep = if i == 0 { "" } else { ", " };
            write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        line.push_str("}}");
        line
    }
}

/// Median of a non-empty sample (the mean of the middle two for an even
/// count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Percentile `p` of a latency histogram in nanoseconds, placed linearly
/// between the values `Histogram::percentile` reports.
///
/// `Histogram::percentile` reports a bucket's lower edge, so across seeds
/// a median that stays inside one bucket reads the same to the last
/// digit. This asks that same public method which ranks share the
/// requested rank's value and what the next rank up reads, and places the
/// rank proportionally in between: the uniform-within-bucket estimate,
/// with no knowledge of the bucket layout.
pub fn interpolated_percentile_ns(h: &Histogram, p: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // The rank rule of `Histogram::percentile`; asking for the midpoint
    // of rank k selects exactly rank k despite rounding.
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as u64;
    let at = |k: u64| h.percentile(100.0 * (k as f64 - 0.5) / n as f64).as_nanos();
    let v = at(rank);
    let first = first_rank(1, rank, |k| at(k) >= v);
    let next = first_rank(rank, n + 1, |k| at(k) > v);
    let upper = if next <= n {
        at(next)
    } else {
        h.max().as_nanos()
    };
    let frac = ((rank - first) as f64 + 0.5) / (next - first) as f64;
    v as f64 + frac * upper.saturating_sub(v) as f64
}

/// The first rank in `lo..hi` at which the monotone `pred` holds, or `hi`.
fn first_rank(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// 64-bit FNV-1a: a stable digest for `ScenarioReport::fingerprint()`
/// strings, identical across builds and platforms.
pub fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// This process's peak resident set (`VmHWM`) in MiB, if the platform
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use siperf::simcore::time::SimDuration;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn interpolation_tracks_the_data_where_bucket_edges_do_not() {
        let mut h = Histogram::new();
        for us in 1..=1000u64 {
            h.record(SimDuration::from_micros(us));
        }
        for p in [50.0, 99.0] {
            let v = interpolated_percentile_ns(&h, p);
            let exact = p * 10_000.0;
            assert!(v >= h.percentile(p).as_nanos() as f64, "p{p}: {v}");
            assert!(
                (v - exact).abs() / exact < 0.01,
                "p{p}: {v} vs exact {exact}"
            );
        }
        // A small shift of the data keeps the median in its bucket, so
        // the bucket edge stays put; the interpolated median moves.
        let mut shifted = Histogram::new();
        for us in 3..=1002u64 {
            shifted.record(SimDuration::from_micros(us));
        }
        assert_eq!(shifted.percentile(50.0), h.percentile(50.0));
        assert!(interpolated_percentile_ns(&shifted, 50.0) > interpolated_percentile_ns(&h, 50.0));
    }

    #[test]
    fn result_line_carries_every_metric_and_fails_everything_on_a_bad_check() {
        let mut o = Outcome {
            attempted: 10,
            call_failures: 1,
            ..Outcome::default()
        };
        o.set("sim_rate", 0.5);
        assert_eq!(
            o.json(&[("sim_rate", "sim_s/host_s")]),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"sim_rate\": {\"value\": 0.5, \"unit\": \"sim_s/host_s\"}}}"
        );
        o.set("setup_s", f64::NAN);
        assert!(!o.correct());
        assert_eq!(o.failed(), 10);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
