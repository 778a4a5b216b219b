//! In-memory spans for the traced run: recorded at the layer boundaries
//! the benchmark calls through, kept in memory, written out at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed interval of one request or re-fit cycle.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the trace.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `gan.forward`.
    pub name: &'static str,
    /// Start, µs after the trace epoch.
    pub start_us: f64,
    /// End, µs after the trace epoch.
    pub end_us: f64,
    /// Request or cycle the span belongs to.
    pub trace_id: u64,
}

/// A trace: spans relative to one epoch.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose times are measured from `epoch`.
    pub fn new(epoch: Instant) -> Trace {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a span between two instants; returns its id.
    pub fn add(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
        trace_id: u64,
    ) -> u64 {
        let us = |t: Instant| {
            if t >= self.epoch {
                t.duration_since(self.epoch).as_secs_f64() * 1e6
            } else {
                -(self.epoch.duration_since(t).as_secs_f64() * 1e6)
            }
        };
        let (start_us, end_us) = (us(start), us(end));
        self.add_us(parent, name, start_us, end_us, trace_id)
    }

    /// Records a span given in µs after the epoch; returns its id.
    pub fn add_us(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        start_us: f64,
        end_us: f64,
        trace_id: u64,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_us,
            end_us,
            trace_id,
        });
        id
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(count, total duration µs, total self time µs)`.
    /// A span's self time is its duration minus the part of it that the
    /// union of its children's intervals covers.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p as usize].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut iv: Vec<(f64, f64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c];
                    (c.start_us.max(s.start_us), c.end_us.min(s.end_us))
                })
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            let dur = s.end_us - s.start_us;
            let e = out.entry(s.name).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += dur;
            e.2 += dur - covered;
        }
        out
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"trace_id\":{}}}",
                s.id, parent, s.name, s.start_us, s.end_us, s.trace_id
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new(Instant::now());
        let root = t.add_us(None, "root", 0.0, 10.0, 1);
        t.add_us(Some(root), "child", 1.0, 3.0, 1);
        t.add_us(Some(root), "child", 2.0, 5.0, 1);
        // Clipped to the parent: only [8, 10] counts.
        let late = t.add_us(Some(root), "late", 8.0, 12.0, 1);
        t.add_us(Some(late), "leaf", 9.0, 10.0, 1);
        let st = t.self_times();
        assert_eq!(st["root"], (1, 10.0, 4.0));
        assert_eq!(st["child"], (2, 5.0, 5.0));
        assert_eq!(st["late"], (1, 4.0, 3.0));
        assert_eq!(st["leaf"], (1, 1.0, 1.0));
    }
}
