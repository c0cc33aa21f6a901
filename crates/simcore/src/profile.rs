//! OProfile-style virtual-CPU accounting.
//!
//! The paper's argument rests on execution profiles: the fd-request IPC
//! function consumes 12.0% of CPU time in baseline TCP and 4.6% with the
//! file-descriptor cache, the idle-connection scan triples under the 50
//! ops/connection workload, and the kernel's top functions fill with
//! scheduler entries during sched_yield storms (§5.1–5.2). [`Profiler`]
//! reproduces that evidence: every simulated CPU burst is charged to a
//! function *tag*, and [`ProfileReport`] renders the same kind of
//! "top functions by %" table OProfile produced.
//!
//! Tags follow the convention `"domain/function"`, with domains `user`,
//! `kernel`, and `sched`, e.g. `"user/parse_msg"` or `"kernel/ipc_recv"`.
//!
//! # Examples
//!
//! ```
//! use siperf_simcore::profile::Profiler;
//!
//! let mut p = Profiler::new();
//! p.record("user/parse_msg", 750);
//! p.record("kernel/ipc_send", 250);
//! let report = p.report();
//! assert_eq!(report.share("user/parse_msg"), 0.75);
//! assert_eq!(report.top(1)[0].0, "user/parse_msg");
//! ```

use std::fmt;

use crate::hash::FastMap;

/// Accumulates virtual CPU time per function tag.
///
/// Tags are string literals charged on every simulated burst, so a tag's
/// row is found from the literal's address and length; only the first
/// charge through an address compares text, which lets equal literals at
/// different addresses share one row.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    /// One row per distinct tag text, in order of first charge.
    rows: Vec<(&'static str, u64)>,
    /// Row of every tag literal charged so far, by `(address, length)`.
    row_of: FastMap<(usize, usize), usize>,
    total_ns: u64,
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Charges `ns` nanoseconds of CPU time to `tag`.
    #[inline]
    pub fn record(&mut self, tag: &'static str, ns: u64) {
        if ns == 0 {
            return;
        }
        let row = self.row(tag);
        self.rows[row].1 += ns;
        self.total_ns += ns;
    }

    /// The row of `tag`, created empty on the first sight of its text.
    #[inline]
    fn row(&mut self, tag: &'static str) -> usize {
        let key = (tag.as_ptr() as usize, tag.len());
        if let Some(&row) = self.row_of.get(&key) {
            return row;
        }
        let row = match self.rows.iter().position(|(t, _)| *t == tag) {
            Some(row) => row,
            None => {
                self.rows.push((tag, 0));
                self.rows.len() - 1
            }
        };
        self.row_of.insert(key, row);
        row
    }

    /// Total CPU time charged across all tags.
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// CPU time charged to one tag.
    pub fn ns_for(&self, tag: &str) -> u64 {
        self.rows
            .iter()
            .find(|(t, _)| *t == tag)
            .map_or(0, |&(_, ns)| ns)
    }

    /// Snapshot suitable for sorting and display.
    pub fn report(&self) -> ProfileReport {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        ProfileReport {
            rows,
            total_ns: self.total_ns,
        }
    }

    /// Clears all accumulated samples.
    pub fn reset(&mut self) {
        self.rows.clear();
        self.row_of.clear();
        self.total_ns = 0;
    }

    /// Merges another profiler's samples into this one.
    pub fn merge(&mut self, other: &Profiler) {
        for &(tag, ns) in &other.rows {
            let row = self.row(tag);
            self.rows[row].1 += ns;
        }
        self.total_ns += other.total_ns;
    }
}

/// A sorted snapshot of a [`Profiler`].
#[derive(Debug, Clone)]
pub struct ProfileReport {
    rows: Vec<(&'static str, u64)>,
    total_ns: u64,
}

impl ProfileReport {
    /// The `n` hottest tags with their CPU nanoseconds, descending.
    pub fn top(&self, n: usize) -> &[(&'static str, u64)] {
        &self.rows[..n.min(self.rows.len())]
    }

    /// All rows, hottest first.
    pub fn rows(&self) -> &[(&'static str, u64)] {
        &self.rows
    }

    /// Fraction of total CPU time spent in `tag` (0 when nothing recorded).
    pub fn share(&self, tag: &str) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        let ns = self
            .rows
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, ns)| *ns)
            .unwrap_or(0);
        ns as f64 / self.total_ns as f64
    }

    /// Fraction of total CPU time spent in tags under `domain/` (e.g.
    /// `"kernel"` sums every `kernel/...` tag).
    pub fn domain_share(&self, domain: &str) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        let ns: u64 = self
            .rows
            .iter()
            .filter(|(t, _)| {
                t.strip_prefix(domain)
                    .is_some_and(|rest| rest.starts_with('/'))
            })
            .map(|(_, ns)| *ns)
            .sum();
        ns as f64 / self.total_ns as f64
    }

    /// Total CPU time in the snapshot.
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// Renders an OProfile-style "top functions" table.
    pub fn to_table(&self, top: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<34} {:>9} {:>12}\n", "function", "%", "cpu"));
        for (tag, ns) in self.top(top) {
            out.push_str(&format!(
                "{:<34} {:>8.2}% {:>10.3}ms\n",
                tag,
                100.0 * *ns as f64 / self.total_ns.max(1) as f64,
                *ns as f64 / 1e6,
            ));
        }
        out
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table(15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_totals() {
        let mut p = Profiler::new();
        p.record("user/a", 10);
        p.record("user/a", 20);
        p.record("kernel/b", 70);
        assert_eq!(p.total_ns(), 100);
        assert_eq!(p.ns_for("user/a"), 30);
        assert_eq!(p.ns_for("missing"), 0);
    }

    #[test]
    fn zero_charge_is_ignored() {
        let mut p = Profiler::new();
        p.record("user/a", 0);
        assert_eq!(p.total_ns(), 0);
        assert!(p.report().rows().is_empty());
    }

    #[test]
    fn report_sorted_descending_with_stable_ties() {
        let mut p = Profiler::new();
        p.record("user/z", 50);
        p.record("user/a", 50);
        p.record("user/big", 100);
        let r = p.report();
        let tags: Vec<_> = r.rows().iter().map(|(t, _)| *t).collect();
        assert_eq!(tags, vec!["user/big", "user/a", "user/z"]);
    }

    #[test]
    fn shares() {
        let mut p = Profiler::new();
        p.record("user/parse", 30);
        p.record("kernel/ipc_send", 50);
        p.record("kernel/ipc_recv", 20);
        let r = p.report();
        assert!((r.share("user/parse") - 0.3).abs() < 1e-12);
        assert!((r.domain_share("kernel") - 0.7).abs() < 1e-12);
        assert_eq!(r.domain_share("nope"), 0.0);
        // "kern" must not match "kernel/..."
        assert_eq!(r.domain_share("kern"), 0.0);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = Profiler::new().report();
        assert_eq!(r.share("x"), 0.0);
        assert_eq!(r.total_ns(), 0);
        assert!(r.top(5).is_empty());
    }

    #[test]
    fn merge_and_reset() {
        let mut a = Profiler::new();
        let mut b = Profiler::new();
        a.record("user/x", 10);
        b.record("user/x", 5);
        b.record("user/y", 5);
        a.merge(&b);
        assert_eq!(a.total_ns(), 20);
        assert_eq!(a.ns_for("user/x"), 15);
        a.reset();
        assert_eq!(a.total_ns(), 0);
    }

    #[test]
    fn table_contains_rows() {
        let mut p = Profiler::new();
        p.record("kernel/ipc_send", 120);
        let table = p.report().to_table(10);
        assert!(table.contains("kernel/ipc_send"));
        assert!(table.contains("100.00%"));
    }
}
