//! Reduced-scale checks of the paper's headline results: the experiment
//! registry's claims — who wins, in what order, and that each fix moves
//! the needle the way Figures 3–5, §4.3 and §6 report — on 100-client
//! cells with short windows. EXPERIMENTS.md has the full-scale numbers.

use std::sync::{Mutex, OnceLock};

use siperf::workload::experiments::{registry, Cell, Runs};
use siperf::workload::ScenarioReport;

/// The reduced-scale report of one cell. Several tests read the same
/// cells, so each is simulated once per test binary; a test that asks for
/// a cell another test is still simulating waits for that run.
fn report(cell: Cell) -> &'static ScenarioReport {
    type Slots = Vec<(Cell, &'static OnceLock<ScenarioReport>)>;
    static SLOTS: Mutex<Slots> = Mutex::new(Vec::new());
    let slot = {
        let mut slots = SLOTS.lock().expect("no test panics holding the slots");
        match slots.iter().find(|(key, _)| *key == cell) {
            Some(&(_, slot)) => slot,
            None => {
                let slot: &'static OnceLock<ScenarioReport> = Box::leak(Box::default());
                slots.push((cell, slot));
                slot
            }
        }
    };
    slot.get_or_init(|| cell.scenario(false).run())
}

/// Asserts each reduced-scale claim of experiment `id` that mentions `pick`.
fn holds(id: &str, pick: &str) {
    let experiments = registry();
    let experiment = experiments.iter().find(|e| e.id == id).expect("registered");
    let runs = Runs {
        full: false,
        report: &report,
    };
    let claims = experiment
        .claims
        .iter()
        .filter(|c| c.reduced && c.text.contains(pick));
    let mut checked = 0;
    for claim in claims {
        let (ok, detail) = (claim.check)(&runs);
        assert!(ok, "{id}: {}: ours {detail}", claim.text);
        checked += 1;
    }
    assert!(checked > 0, "no {id} claim mentions {pick:?}");
}

#[test]
fn figure3_baseline_ordering() {
    holds("fig3", "");
}

#[test]
fn figure4_fd_cache_lifts_tcp_but_not_the_churny_workload() {
    holds("fig4", "");
}

#[test]
fn figure5_priority_queue_rescues_the_churny_workload() {
    holds("fig5", "50 ops/conn");
}

#[test]
fn priority_queue_costs_nothing_when_there_is_no_churn() {
    holds("fig5", "negligible");
}

#[test]
fn supervisor_priority_elevation_pays_in_the_right_direction() {
    holds("A1", "");
}

#[test]
fn threaded_architecture_beats_the_fixed_process_architecture() {
    holds("E1/E2", "Threading");
}

#[test]
fn sctp_closes_most_of_the_gap_to_udp() {
    holds("E1/E2", "SCTP");
}
