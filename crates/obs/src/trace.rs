//! Trace capture: a bounded per-thread buffer of phase-scope events,
//! rendered as `chrome://tracing` / Perfetto-compatible JSON
//! (`{"traceEvents":[...]}` with complete `"ph":"X"` events) so one
//! evaluation chain's splice behaviour can be eyeballed on a timeline.
//!
//! Capture is single-consumer by design: [`start`] clears the calling
//! thread's buffer and arms capture process-wide, [`stop`] disarms and
//! drains the calling thread's events. Only armed scopes that ran
//! while a capture was live produce events.

use crate::phase::Phase;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Hard cap on buffered events per thread — a runaway capture degrades
/// to dropping the tail instead of exhausting memory.
const TRACE_CAP: usize = 1 << 20;

/// One completed phase scope on the capture timeline.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// The phase the scope timed.
    pub phase: Phase,
    /// Start offset from the capture base, in nanoseconds.
    pub start_ns: u64,
    /// Scope duration in nanoseconds.
    pub dur_ns: u64,
}

static TRACING: AtomicBool = AtomicBool::new(false);
static BASE: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static EVENTS: RefCell<Vec<TraceEvent>> = const { RefCell::new(Vec::new()) };
}

/// Clears the calling thread's buffer and arms capture.
pub fn start() {
    BASE.get_or_init(Instant::now);
    let _ = EVENTS.try_with(|ev| ev.borrow_mut().clear());
    TRACING.store(true, Ordering::Relaxed);
}

/// Disarms capture and drains the calling thread's events.
pub fn stop() -> Vec<TraceEvent> {
    TRACING.store(false, Ordering::Relaxed);
    EVENTS
        .try_with(|ev| std::mem::take(&mut *ev.borrow_mut()))
        .unwrap_or_default()
}

/// Appends a completed scope when a capture is live. Called by the
/// phase plane on scope drop.
pub(crate) fn note(phase: Phase, start: Instant, dur_ns: u64) {
    if !TRACING.load(Ordering::Relaxed) {
        return;
    }
    let Some(base) = BASE.get() else { return };
    let start_ns = start
        .saturating_duration_since(*base)
        .as_nanos()
        .min(u64::MAX as u128) as u64;
    let _ = EVENTS.try_with(|ev| {
        let mut ev = ev.borrow_mut();
        if ev.len() < TRACE_CAP {
            ev.push(TraceEvent {
                phase,
                start_ns,
                dur_ns,
            });
        }
    });
}

/// Renders events as a chrome://tracing JSON object (timestamps and
/// durations in microseconds, as the format requires).
pub fn render_chrome(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"incdes\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":0,\"tid\":0}}{}\n",
            e.phase.name(),
            e.start_ns as f64 / 1000.0,
            e.dur_ns as f64 / 1000.0,
            if i + 1 < events.len() { "," } else { "" },
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_valid_shape() {
        let events = [
            TraceEvent {
                phase: Phase::Splice,
                start_ns: 1500,
                dur_ns: 250,
            },
            TraceEvent {
                phase: Phase::Slack,
                start_ns: 2000,
                dur_ns: 1000,
            },
        ];
        let json = render_chrome(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"splice\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":1.000"));
        assert!(json.trim_end().ends_with("]}"));
        // Exactly one comma separator for two events.
        assert_eq!(json.matches("},\n").count(), 1);
    }

    #[test]
    fn stop_without_start_is_empty() {
        assert!(stop().is_empty());
    }
}
