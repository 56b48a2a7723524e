//! Spans around the calls into each layer.
//!
//! A span is named `layer.call`. Every span's duration is added to a running
//! total per name whether or not tracing is on (two clock reads per call);
//! with tracing on the span itself is also kept — name, start, end, parent
//! and the id of the maintenance round it belongs to — so a layer's *self*
//! time can be derived as its spans' durations minus what their child spans
//! cover. Spans live in memory until the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<usize>,
    /// Shared by every span of one maintenance round.
    pub round: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open {
    name: &'static str,
    started: Instant,
    index: Option<usize>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    round: u64,
    /// Seconds and call count per span name.
    totals: BTreeMap<&'static str, (f64, u64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: 0,
            totals: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start the next maintenance round: spans opened from now on carry its id.
    pub fn next_round(&mut self) {
        self.round += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start: started.duration_since(self.origin).as_secs_f64(),
                end: f64::NAN,
                parent: self.stack.last().copied(),
                round: self.round,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open {
            name,
            started,
            index,
        }
    }

    /// Close a span; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        let secs = now.duration_since(open.started).as_secs_f64();
        let t = self.totals.entry(open.name).or_insert((0.0, 0));
        t.0 += secs;
        t.1 += 1;
        if let Some(i) = open.index {
            self.spans[i].end = now.duration_since(self.origin).as_secs_f64();
            self.stack.retain(|&s| s != i);
        }
        secs
    }

    /// Total seconds spent in spans called `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.0)
    }

    /// Number of spans called `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.1)
    }

    /// Fold another tracer's totals into this one (a worker thread's).
    pub fn absorb(&mut self, other: &Tracer) {
        for (name, (secs, calls)) in &other.totals {
            let t = self.totals.entry(name).or_insert((0.0, 0));
            t.0 += secs;
            t.1 += calls;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per layer over the maintenance rounds: each span's duration
/// minus the part its direct children cover, summed by the layer prefix of
/// the span name. Only `bench.round` spans and their descendants count —
/// probes and the audit run outside the rounds — so the layers' self times
/// (the harness's own `bench` share included) add up to the round time.
/// Spans on one thread nest strictly, so child coverage is the sum of the
/// child durations.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
    // Parents precede children, so one forward pass settles membership.
    let mut in_round = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        in_round[i] = s.name == ROUND || s.parent.is_some_and(|p| in_round[p]);
        if let Some(p) = s.parent {
            own[p] -= s.end - s.start;
        }
    }
    let mut by_layer = BTreeMap::new();
    for ((s, t), _) in spans.iter().zip(own).zip(&in_round).filter(|(_, r)| **r) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *by_layer.entry(layer).or_insert(0.0) += t;
    }
    by_layer
}

/// Name of the root span of one maintenance round.
pub const ROUND: &str = "bench.round";

/// The span file: every span of the last traced repetition plus the derived
/// per-layer self times and the root (`bench.round`) time they add up to.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    let round_s: f64 = spans
        .iter()
        .filter(|s| s.name == ROUND)
        .map(|s| s.end - s.start)
        .sum();
    Json::obj([
        ("workload", Json::str(workload)),
        ("round_s", Json::Num(round_s)),
        (
            "self_s",
            Json::obj(selfs.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("name", Json::str(s.name)),
                            ("start", Json::Num(s.start)),
                            ("end", Json::Num(s.end)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("round", Json::Num(s.round as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            round: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("bench.round", 0.0, 10.0, None),
            span("core.stage", 1.0, 4.0, Some(0)),
            span("engine.exec", 2.0, 3.0, Some(1)),
            span("warehouse.sync", 5.0, 9.0, Some(0)),
            span("core.commit", 9.0, 9.5, Some(0)),
            // Outside the round: a probe and its child do not count.
            span("core.decode", 10.0, 11.0, None),
            span("engine.exec", 10.2, 10.4, Some(5)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["bench"], 10.0 - 3.0 - 4.0 - 0.5);
        assert_eq!(t["core"], (3.0 - 1.0) + 0.5);
        assert_eq!(t["engine"], 1.0);
        assert_eq!(t["warehouse"], 4.0);
        let sum: f64 = t.values().sum();
        assert!((sum - 10.0).abs() < 1e-12, "self times partition the root");
    }

    #[test]
    fn tracer_nests_spans_and_totals_without_tracing() {
        let mut on = Tracer::new(true);
        on.next_round();
        let a = on.begin("bench.round");
        let b = on.begin("core.stage");
        on.end(b);
        let c = on.begin("warehouse.sync");
        on.end(c);
        on.end(a);
        assert_eq!(on.spans().len(), 3);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert_eq!(on.spans()[2].parent, Some(0));
        assert!(on.spans().iter().all(|s| s.round == 1 && s.end >= s.start));

        let mut off = Tracer::new(false);
        let a = off.begin("core.stage");
        off.end(a);
        assert!(off.spans().is_empty());
        assert_eq!(off.calls("core.stage"), 1);
        off.absorb(&on);
        assert_eq!(off.calls("core.stage"), 2);
    }
}
