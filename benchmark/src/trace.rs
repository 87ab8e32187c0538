//! The benchmark's own spans: recorded in memory around the calls into
//! each layer, summarised per name, and written out when the pass ends.
//! Spans inside the library crates are a later issue; these are built from
//! the outside, from client timestamps and each response's public stage
//! fields.

use crate::json::escape_into;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Shared by every span of one request; 0 for probe spans.
    pub request: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of it the span's children cover.
    pub self_ns: u64,
}

impl NameTotals {
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64 / 1e3
    }

    pub fn mean_self_us(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64 / 1e3
    }
}

/// The file keeps the spans of this many requests (and every probe span);
/// totals are always over the whole pass.
const REQUESTS_WRITTEN: u64 = 4096;

#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn push(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Appends another recorder's spans (each client thread keeps its own).
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span: its duration minus the union of its direct
    /// children's intervals, clipped to the span.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        let mut children: Vec<(usize, u64, u64)> = self
            .spans
            .iter()
            .filter_map(|s| s.parent.map(|p| (p, s.start_ns, s.end_ns)))
            .collect();
        children.sort_unstable();
        let mut covered_to = 0u64;
        let mut current = usize::MAX;
        for (p, start, end) in children {
            let Some(parent) = self.spans.get(p) else {
                continue;
            };
            if p != current {
                current = p;
                covered_to = parent.start_ns;
            }
            let from = start.max(covered_to);
            let to = end.min(parent.end_ns);
            if to > from {
                own[p] -= to - from;
                covered_to = to;
            }
        }
        own
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += own;
        }
        out
    }

    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut name = String::new();
        escape_into(workload, &mut name);
        write!(
            out,
            "{{\"workload\":{name},\"spans_recorded\":{},\"requests_written\":{REQUESTS_WRITTEN},\"unit\":\"ns\",\"spans\":[",
            self.spans.len()
        )?;
        let mut first = true;
        for (id, s) in self.spans.iter().enumerate() {
            if s.request > REQUESTS_WRITTEN {
                continue;
            }
            name.clear();
            escape_into(s.name, &mut name);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":{name},\"start\":{},\"end\":{}}}",
                if first { "" } else { "," },
                s.request,
                s.start_ns,
                s.end_ns
            )?;
            first = false;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut t = Trace::default();
        let root = t.push("request", 1, None, 0, 100);
        let server = t.push("server", 1, Some(root), 10, 90);
        t.push("serve.plan", 1, Some(server), 10, 20);
        t.push("serve.decompress", 1, Some(server), 20, 50);
        t.push("serve.forward", 1, Some(server), 60, 80);
        // request: 100 − server's 80; server: 80 − (10 + 30 + 20).
        assert_eq!(t.self_times(), vec![20, 20, 10, 30, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut t = Trace::default();
        let root = t.push("request", 1, None, 100, 200);
        t.push("a", 1, Some(root), 90, 150); // starts before the parent
        t.push("b", 1, Some(root), 140, 160); // overlaps a
        t.push("c", 1, Some(root), 190, 250); // ends after the parent
        assert_eq!(t.self_times()[root], 100 - 50 - 10 - 10);
        // A reversed interval is stored as empty, never negative.
        let mut u = Trace::default();
        u.push("x", 0, None, 50, 40);
        assert_eq!(u.self_times(), vec![0]);
    }

    #[test]
    fn absorb_keeps_parent_links_and_totals_group_by_name() {
        let mut a = Trace::default();
        let r = a.push("request", 1, None, 0, 10);
        a.push("server", 1, Some(r), 2, 8);
        let mut b = Trace::default();
        let r = b.push("request", 2, None, 0, 30);
        b.push("server", 2, Some(r), 5, 25);
        a.absorb(b);
        assert_eq!(a.spans[3].parent, Some(2));
        let totals = a.totals();
        assert_eq!(
            totals["request"],
            NameTotals {
                count: 2,
                total_ns: 40,
                self_ns: 4 + 10
            }
        );
        assert_eq!(totals["server"].mean_us(), 13.0 / 1e3);
    }
}
