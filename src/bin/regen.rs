//! Regenerates EXPERIMENTS.md's tables from the experiment registry.
//!
//! `cargo run --release --bin regen [-- --check] [ID...]` runs each
//! distinct cell of the named experiments (all of them by default) once,
//! spread over the machine's cores, and prints each experiment's table
//! and claims. It rewrites the text between `<!-- regen:ID -->` and
//! `<!-- /regen:ID -->` in EXPERIMENTS.md, or with `--check` compares it
//! instead. It exits non-zero when a claim fails or a checked table
//! differs.

use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use siperf::workload::experiments::{registry, Cell, Runs};
use siperf::workload::ScenarioReport;

const DOC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");

fn main() -> ExitCode {
    let (flags, ids): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a == "--check");
    let check = !flags.is_empty();
    let mut experiments = registry();
    let known: Vec<&str> = experiments.iter().map(|e| e.id).collect();
    if let Some(id) = ids.iter().find(|id| !known.contains(&id.as_str())) {
        eprintln!("regen: no experiment `{id}`; known: {}", known.join(" "));
        return ExitCode::from(2);
    }
    experiments.retain(|e| ids.is_empty() || ids.iter().any(|id| id == e.id));
    // Fail before the long runs, not after them.
    let doc = std::fs::read_to_string(DOC).expect("EXPERIMENTS.md is readable");
    let markers = |id| {
        [
            format!("<!-- regen:{id} -->\n"),
            format!("<!-- /regen:{id} -->"),
        ]
    };
    if let Some(e) = experiments
        .iter()
        .find(|e| !markers(e.id).iter().all(|m| doc.contains(m)))
    {
        eprintln!("regen: EXPERIMENTS.md has no `{}` markers", e.id);
        return ExitCode::from(2);
    }

    let mut cells: Vec<Cell> = Vec::new();
    for &cell in experiments.iter().flat_map(|e| &e.cells) {
        if !cells.contains(&cell) {
            cells.push(cell);
        }
    }
    let started = Instant::now();
    let reports = run_all(&cells);
    let secs = started.elapsed().as_secs_f64();
    eprintln!("regen: {} cells in {secs:.0} s", cells.len());
    let report = |cell: Cell| match cells.iter().position(|&c| c == cell) {
        Some(i) => &reports[i],
        None => panic!("{cell:?} is read but not listed"),
    };
    let runs = Runs {
        full: true,
        report: &report,
    };

    let mut next = doc.clone();
    let mut ok = true;
    for e in &experiments {
        let (section, holds) = e.render(&runs);
        println!("## {}\n\n{section}", e.id);
        let [begin, end] = markers(e.id).map(|m| next.find(&m).expect("checked above"));
        let range = begin + markers(e.id)[0].len()..end;
        if check && next[range.clone()] != section {
            eprintln!("regen: the {} table differs from EXPERIMENTS.md", e.id);
            ok = false;
        }
        ok &= holds;
        next.replace_range(range, &section);
    }
    if !check && next != doc {
        std::fs::write(DOC, next).expect("EXPERIMENTS.md is writable");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every cell once, one per core at a time; each thread builds its
/// own world.
fn run_all(cells: &[Cell]) -> Vec<ScenarioReport> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(vec![None; cells.len()]);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let r = cell.scenario(true).run();
                let (n, secs) = (cells.len(), r.wall_clock_secs);
                eprintln!("[{}/{n}] {} ({secs:.1} s)", i + 1, r.name);
                done.lock().expect("no run panics holding the list")[i] = Some(r);
            });
        }
    });
    let done = done.into_inner().expect("every run finished");
    done.into_iter()
        .map(|r| r.expect("every cell ran"))
        .collect()
}
