//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `(name, start, end, parent, batch)`; spans are kept in
//! memory and written out once, when the run ends. A layer's *self time*
//! is its span's duration minus the part of that interval its child
//! spans cover. A disabled tracer records nothing, so the untraced run
//! pays one branch per batch.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Handle to an open or closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// Placeholder a disabled tracer hands out.
const OFF: SpanId = SpanId(u32::MAX);

#[derive(Debug, Clone, PartialEq, Eq)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    /// Which batch of requests the span worked on; spans of one batch
    /// share it across layers.
    batch: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, batch: u64) -> SpanId {
        if !self.enabled {
            return OFF;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.filter(|p| *p != OFF).map(|p| p.0),
            batch,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Closes a span now and returns its duration in ns (0 when off).
    pub fn close(&mut self, id: SpanId) -> u64 {
        if id == OFF {
            return 0;
        }
        let end = self.now_ns();
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Records an already-timed interval (ns since the tracer's epoch).
    #[cfg(test)]
    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: parent.map(|p| p.0),
            batch: 0,
        });
    }

    /// Self time of every span: duration minus the union of its
    /// children's intervals, clipped to the span.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for (a, b) in kids {
                    let a = a.clamp(cursor, s.end_ns);
                    let b = b.clamp(cursor, s.end_ns);
                    covered += b - a;
                    cursor = cursor.max(b);
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Summed self time per span name, in ns.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut by_name = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            *by_name.entry(span.name).or_insert(0) += self_ns;
        }
        by_name
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"batch\":{}}}",
                s.name, s.start_ns, s.end_ns, s.batch
            )?;
        }
        out.flush()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new(true);
        t.push("step", 0, 1_000, None);
        let step = Some(SpanId(0));
        t.push("core", 100, 400, step);
        t.push("disksim", 350, 600, step); // overlaps core by 50
        t.push("late", 900, 1_200, step); // runs past its parent
        t.push("leaf", 120, 130, Some(SpanId(1)));
        let selfs = t.self_times();
        // Children cover [100,600) and [900,1000): 600 of the 1000 ns.
        assert_eq!(selfs[0], 400);
        assert_eq!(selfs[1], 290);
        assert_eq!(selfs[2], 250);
        assert_eq!(selfs[4], 10);
        assert_eq!(t.self_ns_by_name()["step"], 400);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x", None, 0);
        let child = t.open("y", Some(id), 0);
        assert_eq!(t.close(child), 0);
        assert_eq!(t.close(id), 0);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn open_close_nest_and_share_a_batch() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer", None, 7);
        let inner = t.open("inner", Some(outer), 7);
        t.close(inner);
        t.close(outer);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].batch, 7);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert!(t.self_times()[0] <= t.spans[0].end_ns - t.spans[0].start_ns);
    }
}
