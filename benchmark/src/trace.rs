//! In-memory span tracer for the traced run.
//!
//! Spans are recorded around calls into each layer's public functions —
//! name, start, end and the enclosing span — and kept in memory until the
//! run ends, when [`write_chrome_json`] writes them out. Only the calling
//! thread records; layer code that fans out to worker threads is covered
//! by the span around the call. While the tracer is off, [`span`] is a
//! plain call.

use std::cell::RefCell;
use std::fmt::Write as _;
use xsc_metrics::Stopwatch;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Tracer {
    origin: Stopwatch,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        origin: Stopwatch::start(),
        on: false,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off for this thread.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().on = on);
}

/// Runs `f` inside a span named `name` (a plain call while tracing is off).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return None;
        }
        let id = t.spans.len();
        let span = Span {
            name,
            start_ns: t.origin.nanos(),
            end_ns: 0,
            parent: t.open.last().copied(),
        };
        t.spans.push(span);
        t.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        TRACER.with(|t| {
            let mut t = t.borrow_mut();
            t.spans[id].end_ns = t.origin.nanos();
            t.open.pop();
        });
    }
    out
}

/// Index of the next span to be recorded: pass it to the queries below to
/// look only at spans recorded after this point.
pub fn mark() -> usize {
    TRACER.with(|t| t.borrow().spans.len())
}

/// Durations in nanoseconds of the spans named `name` recorded since `since`.
pub fn durations_ns(since: usize, name: &str) -> Vec<u64> {
    TRACER.with(|t| {
        let t = t.borrow();
        t.spans[since.min(t.spans.len())..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    })
}

/// Total seconds in spans named `name` since `since`.
pub fn total_s(since: usize, name: &str) -> f64 {
    durations_ns(since, name).iter().sum::<u64>() as f64 * 1e-9
}

/// Self time in seconds of the spans named `name` since `since`: each
/// span's duration minus the time its direct children cover. Spans are
/// recorded on one thread, so children never overlap each other.
pub fn self_s(since: usize, name: &str) -> f64 {
    TRACER.with(|t| {
        let t = t.borrow();
        let spans = &t.spans[since.min(t.spans.len())..];
        let mut self_ns: i128 = 0;
        for s in spans {
            if s.name == name {
                self_ns += i128::from(s.ns());
            } else if let Some(p) = s.parent {
                if p >= since && t.spans[p].name == name {
                    self_ns -= i128::from(s.ns());
                }
            }
        }
        self_ns.max(0) as f64 * 1e-9
    })
}

/// Every span recorded so far, as a Chrome trace-event JSON document
/// (complete events, microsecond timestamps; `args` carry the span id and
/// its parent's id).
pub fn chrome_json() -> String {
    TRACER.with(|t| {
        let t = t.borrow();
        let mut out = String::from("{\"traceEvents\":[");
        for (id, s) in t.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                id,
                parent
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    })
}

/// Writes [`chrome_json`] to `path`, creating its directory.
pub fn write_chrome_json(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, chrome_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        set_enabled(true);
        let since = mark();
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let outer = total_s(since, "outer");
        let inner = total_s(since, "inner");
        let own = self_s(since, "outer");
        assert!(inner >= 0.02 && outer >= inner + 0.005);
        assert!((own - (outer - inner)).abs() < 1e-9);
        let json = chrome_json();
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":null"));
        set_enabled(false);
        let before = mark();
        span("off", || ());
        assert_eq!(mark(), before, "a disabled tracer records nothing");
    }
}
