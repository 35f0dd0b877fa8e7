//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans of one traced replay or session, relative to a common origin.
pub struct Spans {
    origin: Instant,
    /// `(name, start ns, duration ns)` in completion order.
    spans: Vec<(&'static str, u64, u64)>,
}

impl Spans {
    /// An empty span log whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    /// Record span `name` from `start` to now.
    pub fn close(&mut self, name: &'static str, start: Instant) {
        let now = Instant::now();
        let s = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let d = now.saturating_duration_since(start).as_nanos() as u64;
        self.spans.push((name, s, d));
    }

    /// Total duration of spans named `name`, in nanoseconds.
    pub fn total(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.0 == name).map(|s| s.2).sum()
    }

    /// Append the spans as `scope,name,start_ns,dur_ns` CSV lines.
    pub fn write_csv(&self, scope: &str, out: &mut String) {
        for &(name, s, d) in &self.spans {
            let _ = writeln!(out, "{scope},{name},{s},{d}");
        }
    }
}
