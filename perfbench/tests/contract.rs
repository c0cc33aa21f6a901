//! The benchmark's own tests: printed names match `BENCHMARK.json`, tiny
//! runs pass their correctness checks, probes return finite positive
//! values, and the contrast predictions between workloads hold.

use siperf::workload::Transport;
use siperf_perfbench::measure::{self, RunConfig};
use siperf_perfbench::probes;
use siperf_perfbench::report::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use siperf_perfbench::workloads::{Horizon, Workload};

const SEED: u64 = 7;

fn tiny() -> RunConfig {
    RunConfig {
        seed: SEED,
        seconds: 0.0,
        min_reps: 2,
        horizon: Horizon::Tiny,
        probe_seconds: 0.01,
    }
}

/// The string field `key` of each object in the top-level list `list` of
/// `BENCHMARK.json`, in order.
fn listed(json: &str, list: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("no {list} list"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("the list closes")];
    let pattern = format!("\"{key}\":");
    body.split('{')
        .skip(1)
        .map(|entry| {
            let at = entry
                .find(&pattern)
                .unwrap_or_else(|| panic!("a {list} entry lacks {key}"));
            let rest = entry[at + pattern.len()..].trim_start();
            let rest = rest.strip_prefix('"').expect("a string value");
            rest[..rest.find('"').expect("a closed string")].to_string()
        })
        .collect()
}

#[test]
fn printed_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (list, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let names: Vec<&str> = defs.iter().map(|d| d.0).collect();
        let units: Vec<&str> = defs.iter().map(|d| d.1).collect();
        assert_eq!(listed(&json, list, "name"), names, "{list} names");
        assert_eq!(listed(&json, list, "unit"), units, "{list} units");
        for name in names {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} is not a valid metric name"
            );
        }
    }
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed(&json, "workloads", "name"), workloads);
}

/// The outcome passed every check and carries exactly the metrics of
/// `defs`.
fn assert_complete(o: &Outcome, defs: &[MetricDef], what: &str) {
    assert!(o.correct(), "{what}: {:?}", o.failures);
    let mut names: Vec<&str> = defs.iter().map(|d| d.0).collect();
    names.sort_unstable();
    assert_eq!(
        o.metrics.keys().copied().collect::<Vec<_>>(),
        names,
        "{what}"
    );
    assert!(o.json(defs).starts_with("{\"correct\": true"), "{what}");
    assert!(o.attempted > 0, "{what}: no call attempted");
}

#[test]
fn tiny_untraced_runs_pass_their_checks_with_nonzero_metrics() {
    for w in Workload::ALL {
        let o = measure::untraced(w, &tiny());
        assert_complete(&o, END_TO_END, w.name());
        for (name, v) in &o.metrics {
            assert!(*v > 0.0, "{}: {name} = {v}", w.name());
        }
    }
}

#[test]
fn tiny_traced_runs_match_untraced_and_hold_the_contrast_predictions() {
    for w in Workload::ALL {
        let o = measure::traced(w, &tiny());
        assert_complete(&o, PER_LAYER, w.name());
        let scenario = w.scenario(SEED, Horizon::Tiny);
        let m = |name: &str| o.metrics[name];
        if scenario.proxy.transport == Transport::Udp {
            for name in [
                "proxy.fd_requests_per_op",
                "simnet.segments_per_op",
                "trace.share.sip_frame",
            ] {
                assert_eq!(m(name), 0.0, "{}: {name}", w.name());
            }
        } else {
            for name in [
                "proxy.fd_requests_per_op",
                "simnet.segments_per_op",
                "trace.share.sip_frame",
            ] {
                assert!(m(name) > 0.0, "{}: {name}", w.name());
            }
        }
        if scenario.arrival_rate.is_none() {
            for name in ["overload.shed_share", "workload.late_share"] {
                assert_eq!(m(name), 0.0, "{}: {name}", w.name());
            }
        }
    }
}

#[test]
fn probes_return_finite_positive_values() {
    let mix = probes::call_mix(Transport::Udp);
    let wires: Vec<Vec<u8>> = mix.iter().map(|m| m.to_bytes()).collect();
    let s = 0.01;
    let values = [
        probes::syscall_ns(8, 4, s),
        probes::queue_ns(64, s),
        probes::profile_record_ns(&["user/a", "kernel/b"], s),
        probes::udp_ns(&wires, s),
        probes::parse_ns(&wires, s),
        probes::serialize_ns(&mix, s),
        probes::frame_ns(&wires, s),
        probes::core_ns_per_call(Transport::Udp, s).expect("the UDP core routes every call"),
        probes::core_ns_per_call(Transport::Tcp, s).expect("the TCP core routes every call"),
    ];
    for v in values {
        assert!(v.is_finite() && v > 0.0, "{values:?}");
    }
}
