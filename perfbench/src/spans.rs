//! The benchmark's own spans around public calls into each layer.
//!
//! Spans are kept in memory (name, id, start, end, parent) and written
//! out once the run ends. A span's self time is its duration minus the
//! time its direct children cover. With recording off every call is a
//! cheap no-op, so the same code path serves the untraced run.

use std::fmt::Write;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Rec {
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    child_ns: u64,
}

/// In-memory span recorder for one thread.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    t0: Instant,
    recs: Vec<Rec>,
    open: Vec<usize>,
}

/// Handle of an open span; pass it back to [`Spans::exit`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span is closed with Spans::exit"]
pub struct Open(Option<usize>);

impl Spans {
    /// A recorder; records nothing unless `on`.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            t0: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens `name` as a child of the innermost open span. Spans of one
    /// serve event share that event's index as `id`.
    pub fn enter(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.recs.len();
        let start_ns = self.now_ns();
        self.recs.push(Rec {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            child_ns: 0,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Spans::enter`] (innermost first).
    pub fn exit(&mut self, o: Open) {
        let Some(idx) = o.0 else { return };
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        let r = &mut self.recs[idx];
        r.end_ns = end;
        let (dur, parent) = (end - r.start_ns, r.parent);
        if let Some(p) = parent {
            self.recs[p].child_ns += dur;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let o = self.enter(name, id);
        let out = f();
        self.exit(o);
        out
    }

    /// Durations (seconds) of every closed span named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| r.name == name)
            .map(|r| (r.end_ns - r.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Total duration (seconds) of spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Every span as one JSON line: `seq` is the span's index, `parent`
    /// the parent's index or -1, `self_ns` its self time.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, r) in self.recs.iter().enumerate() {
            let parent = r.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"seq\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                r.name,
                r.id,
                r.start_ns,
                r.end_ns,
                r.end_ns - r.start_ns - r.child_ns
            );
        }
        out
    }

    /// Writes [`Spans::to_jsonl`] to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(true);
        let outer = s.enter("outer", 7);
        let inner = s.enter("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(5));
        s.exit(inner);
        s.exit(outer);
        let field = |line: &str, key: &str| -> i64 {
            let v = &line[line.find(&format!("\"{key}\":")).unwrap() + key.len() + 3..];
            v[..v.find([',', '}']).unwrap()].parse().unwrap()
        };
        let text = s.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let (o, i) = (lines[0], lines[1]);
        assert_eq!((field(o, "parent"), field(i, "parent")), (-1, 0));
        assert_eq!((field(o, "id"), field(i, "id")), (7, 7));
        let dur = |l: &str| field(l, "end_ns") - field(l, "start_ns");
        assert_eq!(field(o, "self_ns"), dur(o) - dur(i));
        assert_eq!(field(i, "self_ns"), dur(i));
        assert!(dur(i) >= 5_000_000);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.time("x", 0, || 3), 3);
        assert!(s.durations("x").is_empty());
    }
}
