//! The benchmark's own wall-clock span ledger.
//!
//! Spans wrap the benchmark's calls into each layer; nothing inside the
//! crates is timed. A span records its name, host start and end, and its
//! parent (the span open when it began). A layer's *self* time is its
//! span's duration minus the time its direct children cover; because the
//! benchmark is sequential, children nest strictly and never overlap, so
//! the self times of every span sum exactly to the root spans' durations.
//!
//! A disabled ledger (`Ledger::off`) reads no clock and keeps nothing, so
//! the untraced end-to-end run pays only a branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

use telemetry::{EntityId, Recorder, Span};

/// Trace process id of the benchmark thread's spans.
const PID: u32 = 1;

/// Accumulated time of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTotal {
    /// Summed span durations, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus direct children), seconds.
    pub self_s: f64,
    /// Completed spans.
    pub calls: u64,
}

struct Open {
    name: &'static str,
    t0: Instant,
    child_s: f64,
}

/// Host-clock spans of one benchmark process.
pub struct Ledger {
    on: bool,
    origin: Instant,
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, LayerTotal>,
    rec: Recorder,
}

impl Ledger {
    /// A ledger that records nothing.
    pub fn off() -> Ledger {
        Ledger {
            on: false,
            origin: Instant::now(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
            rec: Recorder::new(),
        }
    }

    /// A recording ledger; `process` names the trace's only process.
    pub fn on(process: &str) -> Ledger {
        let mut led = Ledger::off();
        led.on = true;
        led.rec
            .process_names
            .insert(PID, format!("perfbench {process}"));
        led.rec
            .thread_names
            .insert((PID, 0), "benchmark".to_string());
        led
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span; every `begin` must be matched by an [`Ledger::end`].
    pub fn begin(&mut self, name: &'static str) {
        if self.on {
            self.stack.push(Open {
                name,
                t0: Instant::now(),
                child_s: 0.0,
            });
        }
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    /// Panics on an `end` without a matching `begin` (a benchmark bug).
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let t1 = Instant::now();
        let open = self.stack.pop().expect("ledger end without begin");
        let dur = t1.duration_since(open.t0).as_secs_f64();
        if let Some(parent) = self.stack.last_mut() {
            parent.child_s += dur;
        }
        let t = self.totals.entry(open.name).or_default();
        t.total_s += dur;
        t.self_s += dur - open.child_s;
        t.calls += 1;
        let ns = |at: Instant| at.duration_since(self.origin).as_nanos() as f64;
        let span = Span {
            entity: EntityId { pid: PID, tid: 0 },
            name: open.name,
            t0_ns: ns(open.t0),
            t1_ns: ns(t1),
            attrs: vec![("depth", (self.stack.len() as u64).into())],
        };
        self.rec.spans.push(span);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// The accumulated totals of `name` (zero if it never ran).
    pub fn get(&self, name: &str) -> LayerTotal {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Every span name with its totals, sorted by name.
    pub fn totals(&self) -> &BTreeMap<&'static str, LayerTotal> {
        &self.totals
    }

    /// The recorded spans as a Chrome trace-event document.
    pub fn chrome_trace(&self) -> String {
        telemetry::chrome_trace(&self.rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_exclude_children_and_sum_to_the_roots() {
        let mut led = Ledger::on("test");
        led.begin("root");
        led.time("child", || {
            std::hint::black_box((0..20_000u64).sum::<u64>())
        });
        led.begin("child");
        led.time("grandchild", || {
            std::hint::black_box((0..20_000u64).sum::<u64>())
        });
        led.end();
        led.end();
        let root = led.get("root");
        let child = led.get("child");
        let grand = led.get("grandchild");
        assert_eq!((root.calls, child.calls, grand.calls), (1, 2, 1));
        assert!(child.self_s <= child.total_s);
        let self_sum: f64 = led.totals().values().map(|t| t.self_s).sum();
        assert!(
            (self_sum - root.total_s).abs() < 1e-9,
            "{self_sum} vs {}",
            root.total_s
        );
        assert!(led.chrome_trace().contains("\"grandchild\""));
    }

    #[test]
    fn a_disabled_ledger_keeps_nothing() {
        let mut led = Ledger::off();
        led.time("x", || ());
        led.end(); // unmatched ends are harmless when off
        assert!(led.totals().is_empty());
    }
}
