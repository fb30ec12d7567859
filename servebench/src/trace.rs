//! In-memory spans: name, start, end, parent and request id, recorded by
//! the benchmark around its calls into each layer (nothing is traced inside
//! the program). Written out at the end of a traced run; per-layer metrics
//! are derived from their self times.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: usize = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. A disabled tracer records nothing and costs one branch
/// per call, so untraced runs go through the same code.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, t0: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id (`ROOT` when disabled).
    pub fn open(&mut self, name: &'static str, parent: usize, req: u64) -> usize {
        if !self.on {
            return ROOT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if id != ROOT {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, req);
        let r = f();
        self.close(id);
        r
    }

    /// Each span's duration minus the time its direct children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent] += s.dur_ns();
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| s.dur_ns().saturating_sub(c)).collect()
    }

    /// Self times (ns) of every span called `name`, in recording order.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64)
            .collect()
    }

    /// Total self time (s) of spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.self_ns(name).iter().sum::<f64>() / 1e9
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as a tab-separated row.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, t)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = if s.parent == ROOT { -1 } else { s.parent as i64 };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{t}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let p = t.open("parent", ROOT, 0);
        t.span("child", p, 1, || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.close(p);
        let parent = t.self_ns("parent")[0];
        let child = t.self_ns("child")[0];
        assert!(child >= 5e6);
        assert!(parent < child);
        let mut off = Tracer::new(false);
        off.span("x", ROOT, 0, || ());
        assert_eq!(off.span_count(), 0);
    }
}
