//! The per-run telemetry sink: a typed event log plus a metric registry,
//! with a single `enabled` gate so a disabled sink costs one branch per
//! call and allocates nothing.

use crate::event::{Event, EventData, EventKind};
use crate::json::JsonError;
use crate::metrics::MetricSet;
use std::collections::BTreeMap;

/// Hard ceiling on retained events, so a pathological policy cannot OOM
/// a long run; overflow is counted, not silently dropped.
pub const DEFAULT_MAX_EVENTS: usize = 1 << 20;

/// One run's telemetry: events + metrics behind an on/off gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Telemetry {
    enabled: bool,
    events: Vec<Event>,
    max_events: usize,
    dropped: u64,
    metrics: MetricSet,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::enabled()
    }
}

impl Telemetry {
    /// A recording sink.
    pub fn enabled() -> Self {
        Telemetry {
            enabled: true,
            events: Vec::new(),
            max_events: DEFAULT_MAX_EVENTS,
            dropped: 0,
            metrics: MetricSet::new(),
        }
    }

    /// A no-op sink: every call returns after one branch.
    pub fn disabled() -> Self {
        Telemetry {
            enabled: false,
            ..Self::enabled()
        }
    }

    /// Whether the sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Overrides the retained-event ceiling.
    #[must_use]
    pub fn with_max_events(mut self, max: usize) -> Self {
        self.max_events = max;
        self
    }

    /// Records one timestamped event.
    #[inline]
    pub fn emit(&mut self, t_us: u64, data: EventData) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.max_events {
            self.dropped += 1;
            return;
        }
        self.events.push(Event { t_us, data });
    }

    /// Adds `by` to counter `name`.
    #[inline]
    pub fn count(&mut self, name: &str, by: u64) {
        if self.enabled {
            self.metrics.inc(name, by);
        }
    }

    /// Sets gauge `name`.
    #[inline]
    pub fn gauge(&mut self, name: &str, value: f64) {
        if self.enabled {
            self.metrics.set_gauge(name, value);
        }
    }

    /// Records `value` into histogram `name`.
    #[inline]
    pub fn record(&mut self, name: &str, value: f64) {
        if self.enabled {
            self.metrics.record(name, value);
        }
    }

    /// Records `value` into histogram `name` `n` times, bit-identically
    /// to `n` [`Telemetry::record`] calls.
    #[inline]
    pub fn record_repeat(&mut self, name: &str, value: f64, n: u64) {
        if self.enabled {
            self.metrics.record_repeat(name, value, n);
        }
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events dropped past the [`Self::with_max_events`] ceiling.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// The metric registry.
    pub fn metrics(&self) -> &MetricSet {
        &self.metrics
    }

    /// The metric registry for slot-resolved updates
    /// ([`MetricSet::counter_slot`] and friends), or `None` when the sink
    /// is disabled.
    #[inline]
    pub fn metrics_mut(&mut self) -> Option<&mut MetricSet> {
        self.enabled.then_some(&mut self.metrics)
    }

    /// Event totals per kind name (only kinds that occurred appear).
    pub fn event_counts(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for e in &self.events {
            let name = e.kind().name();
            if let Some(n) = out.get_mut(name) {
                *n += 1;
            } else {
                out.insert(name.to_string(), 1);
            }
        }
        out
    }

    /// Events of one kind, in order.
    pub fn events_of(&self, kind: EventKind) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.kind() == kind)
    }

    /// Serializes every event as JSONL (one compact object per line,
    /// trailing newline when non-empty).
    pub fn events_jsonl(&self) -> String {
        events_to_jsonl(&self.events)
    }
}

/// Serializes events as JSONL.
pub fn events_to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_json().to_compact());
        out.push('\n');
    }
    out
}

/// Parses a JSONL event stream (blank lines skipped).
///
/// # Errors
///
/// The first offending line's [`JsonError`], with the 1-based line number
/// prefixed to the message.
pub fn events_from_jsonl(text: &str) -> Result<Vec<Event>, JsonError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let e = Event::from_json_line(line).map_err(|err| JsonError {
            offset: err.offset,
            message: format!("line {}: {}", i + 1, err.message),
        })?;
        out.push(e);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let mut t = Telemetry::disabled();
        t.emit(0, EventData::CoreOnline { core: 1 });
        t.count("x", 5);
        t.gauge("g", 1.0);
        t.record("h", 1.0);
        assert!(t.events().is_empty());
        assert_eq!(t.metrics().counter("x"), None);
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_sink_records_and_counts() {
        let mut t = Telemetry::enabled();
        t.emit(10, EventData::CoreOnline { core: 1 });
        t.emit(20, EventData::CoreOffline { core: 1 });
        t.emit(30, EventData::CoreOffline { core: 2 });
        t.count("sim.ticks", 3);
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.event_counts().get("core-offline"), Some(&2));
        assert_eq!(t.events_of(EventKind::CoreOnline).count(), 1);
        assert_eq!(t.metrics().counter("sim.ticks"), Some(3));
    }

    #[test]
    fn event_ceiling_counts_drops() {
        let mut t = Telemetry::enabled().with_max_events(2);
        for i in 0..5 {
            t.emit(i, EventData::CoreOnline { core: 0 });
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped_events(), 3);
    }

    #[test]
    fn jsonl_round_trip() {
        let mut t = Telemetry::enabled();
        t.emit(
            20_000,
            EventData::FreqChange {
                core: 0,
                from_khz: 300_000,
                to_khz: 960_000,
                requested_khz: 912_000,
            },
        );
        t.emit(40_000, EventData::QuotaShrink { from: 1.0, to: 0.7 });
        let text = t.events_jsonl();
        assert_eq!(text.lines().count(), 2);
        let back = events_from_jsonl(&text).unwrap();
        assert_eq!(back, t.events());
        // Blank lines are tolerated; bad lines are located.
        assert_eq!(events_from_jsonl("\n\n").unwrap(), vec![]);
        let err = events_from_jsonl(&format!("{text}not json")).unwrap_err();
        assert!(err.message.starts_with("line 3"), "{err}");
    }
}
