//! Ambient recording: [`RunRecorder`] (monotonic span timers, named
//! counters, and value series that roll up into a run manifest) and the
//! free functions instrumented code writes to it with.
//!
//! A recorder is installed on the current thread by [`recording`], the way
//! a thread pool's width is installed by `install`: nothing is passed per
//! call. [`span`], [`span_add`], [`counter`], [`series`] and [`note`] write
//! to the installed recorder; with none installed each is one thread-local
//! read and the event is dropped.
//!
//! Instrumented kernels only ever *read* the computation state, so
//! recording can never perturb results: a run under [`recording`] is
//! bit-identical to one without at any thread count (pinned by the
//! `recording_differential` tests in `reorderlab-core`). Instrumentation
//! sites are placed at per-phase / per-round granularity, never per vertex
//! or per edge, and never inside a parallel closure: the recorder lives on
//! the caller's thread, and pool workers do not inherit it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

thread_local! {
    /// The recorder [`recording`] installed on this thread, if any.
    static CURRENT: RefCell<Option<RunRecorder>> = const { RefCell::new(None) };
}

/// Applies `f` to the installed recorder; drops the event when none is.
/// Never panics, since span guards call it from `Drop`.
fn with_current(f: impl FnOnce(&mut RunRecorder)) {
    let _ = CURRENT.try_with(|slot| {
        if let Ok(Some(rec)) = slot.try_borrow_mut().as_deref_mut() {
            f(rec);
        }
    });
}

/// Puts the outer recorder back when [`recording`] ends, by return or by
/// unwind, so a caught panic leaves nothing installed that it did not find.
struct Restore(Option<RunRecorder>);

impl Drop for Restore {
    fn drop(&mut self) {
        let outer = self.0.take();
        let _ = CURRENT.try_with(|slot| {
            if let Ok(mut current) = slot.try_borrow_mut() {
                *current = outer;
            }
        });
    }
}

/// Runs `f` with `rec` installed as this thread's recorder and hands it
/// back with everything `f` recorded into it.
///
/// Calls nest: an inner `recording` shadows the outer recorder and restores
/// it on the way out, also when `f` panics.
///
/// # Examples
///
/// ```
/// use reorderlab_trace::{counter, recording, span, RunRecorder};
///
/// let (answer, rec) = recording(RunRecorder::new(), || {
///     let _reorder = span("reorder");
///     counter("slashburn/rounds", 12);
///     42
/// });
/// assert_eq!(answer, 42);
/// assert_eq!(rec.counters()["slashburn/rounds"], 12);
/// assert_eq!(rec.spans()["reorder"].count, 1);
/// ```
pub fn recording<T>(rec: RunRecorder, f: impl FnOnce() -> T) -> (T, RunRecorder) {
    let restore = Restore(CURRENT.with(|slot| slot.replace(Some(rec))));
    let out = f();
    let rec = CURRENT.with(|slot| slot.take()).unwrap_or_default();
    drop(restore);
    (out, rec)
}

/// An open span; it closes when dropped. See [`span`].
#[must_use = "a span closes when its guard drops"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    /// Not `Send`: the span belongs to the recorder of the thread that
    /// opened it.
    _thread: PhantomData<*const ()>,
}

impl Drop for Span {
    fn drop(&mut self) {
        with_current(|rec| rec.span_exit(self.name));
    }
}

/// Opens a named span on the installed recorder, closed when the returned
/// guard drops. Spans nest, and a child span's time also counts toward its
/// parent. Span names are `&'static str` by design: instrumented code never
/// formats strings on the hot path.
pub fn span(name: &'static str) -> Span {
    with_current(|rec| rec.span_enter(name));
    Span { name, _thread: PhantomData }
}

/// Folds an externally measured duration in as if a span named `name` had
/// run under the currently open spans. Used by kernels that already collect
/// their own timing structs (Louvain phases).
pub fn span_add(name: &'static str, elapsed: Duration) {
    with_current(|rec| rec.span_add(name, elapsed));
}

/// Adds `delta` to a named counter.
pub fn counter(name: &'static str, delta: u64) {
    with_current(|rec| rec.counter(name, delta));
}

/// Appends one value to a named series (e.g. the per-iteration modularity
/// trajectory of a Louvain run).
pub fn series(name: &'static str, value: f64) {
    with_current(|rec| rec.series(name, value));
}

/// Attaches a free-form key/value annotation to the run.
pub fn note(key: &'static str, value: &str) {
    with_current(|rec| rec.note(key, value));
}

/// Aggregated timing of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Total wall time accumulated under this path.
    pub wall: Duration,
    /// Number of enter/exit (or [`span_add`]) events folded in.
    pub count: u64,
}

/// A live recorder backed by monotonic clocks.
///
/// Span paths are keyed `"outer/inner"`; re-entering the same path
/// accumulates. All maps are ordered (`BTreeMap`) so the roll-up into a
/// manifest is deterministic.
///
/// # Examples
///
/// ```
/// use reorderlab_trace::{counter, recording, series, span, RunRecorder};
///
/// let ((), rec) = recording(RunRecorder::new(), || {
///     let _reorder = span("reorder");
///     counter("graph/vertices", 100);
///     series("modularity", 0.41);
/// });
/// assert_eq!(rec.counters()["graph/vertices"], 100);
/// assert_eq!(rec.spans()["reorder"].count, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunRecorder {
    stack: Vec<(&'static str, Instant)>,
    spans: BTreeMap<String, SpanTotals>,
    counters: BTreeMap<String, u64>,
    series: BTreeMap<String, Vec<f64>>,
    notes: BTreeMap<String, String>,
}

impl RunRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        RunRecorder::default()
    }

    /// Aggregated span timings keyed by `"outer/inner"` path.
    pub fn spans(&self) -> &BTreeMap<String, SpanTotals> {
        &self.spans
    }

    /// Counter totals.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// Recorded series.
    pub fn series_map(&self) -> &BTreeMap<String, Vec<f64>> {
        &self.series
    }

    /// Free-form annotations.
    pub fn notes(&self) -> &BTreeMap<String, String> {
        &self.notes
    }

    /// Number of spans still open (0 after a balanced run).
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }

    fn path_with(&self, name: &str) -> String {
        let mut path = String::new();
        for (frame, _) in &self.stack {
            path.push_str(frame);
            path.push('/');
        }
        path.push_str(name);
        path
    }

    fn span_enter(&mut self, name: &'static str) {
        self.stack.push((name, Instant::now()));
    }

    fn span_exit(&mut self, name: &'static str) {
        // Pop the innermost frame with this name; frames above it (left
        // open by mistake) are folded into their own paths first so no
        // time is silently lost.
        let Some(at) = self.stack.iter().rposition(|(n, _)| *n == name) else {
            return;
        };
        while self.stack.len() > at {
            let Some((frame, start)) = self.stack.pop() else { break };
            let wall = start.elapsed();
            let path = self.path_with(frame);
            let slot = self.spans.entry(path).or_default();
            slot.wall += wall;
            slot.count += 1;
        }
    }

    fn span_add(&mut self, name: &'static str, elapsed: Duration) {
        let path = self.path_with(name);
        let slot = self.spans.entry(path).or_default();
        slot.wall += elapsed;
        slot.count += 1;
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    fn series(&mut self, name: &'static str, value: f64) {
        self.series.entry(name.to_string()).or_default().push(value);
    }

    fn note(&mut self, key: &'static str, value: &str) {
        self.notes.insert(key.to_string(), value.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn installed() -> bool {
        CURRENT.with(|slot| slot.borrow().is_some())
    }

    /// Nothing installed is the no-op recorder: every event is dropped,
    /// and a recorder installed afterwards starts empty.
    #[test]
    fn noop_recorder_is_disabled_and_silent() {
        assert!(!installed());
        {
            let _a = span("a");
            counter("c", 3);
            series("s", 1.0);
            note("k", "v");
            span_add("p", Duration::from_millis(1));
        }
        let ((), rec) = recording(RunRecorder::new(), || {});
        assert!(rec.spans().is_empty() && rec.counters().is_empty());
        assert!(rec.series_map().is_empty() && rec.notes().is_empty());
    }

    #[test]
    fn a_panic_inside_recording_uninstalls_the_recorder() {
        let caught = std::panic::catch_unwind(|| {
            recording(RunRecorder::new(), || {
                counter("before", 1);
                panic!("kernel failed");
            })
        });
        assert!(caught.is_err());
        assert!(!installed(), "the recorder leaked past the caught panic");
        counter("after", 1);
        assert!(!installed());
    }

    #[test]
    fn nested_recording_restores_the_outer_recorder() {
        let ((), outer) = recording(RunRecorder::new(), || {
            counter("outer", 1);
            let ((), inner) = recording(RunRecorder::new(), || counter("inner", 1));
            assert_eq!(inner.counters().keys().collect::<Vec<_>>(), ["inner"]);
            counter("outer", 1);
        });
        assert_eq!(outer.counters().keys().collect::<Vec<_>>(), ["outer"]);
        assert_eq!(outer.counters()["outer"], 2);
        assert!(!installed());
    }

    #[test]
    fn recording_keeps_what_the_recorder_already_held() {
        let ((), first) = recording(RunRecorder::new(), || counter("x", 2));
        let ((), both) = recording(first, || counter("x", 3));
        assert_eq!(both.counters()["x"], 5);
    }

    #[test]
    fn spans_nest_into_paths() {
        let mut rec = RunRecorder::new();
        rec.span_enter("outer");
        rec.span_enter("inner");
        rec.span_exit("inner");
        rec.span_enter("inner");
        rec.span_exit("inner");
        rec.span_exit("outer");
        assert_eq!(rec.open_spans(), 0);
        assert_eq!(rec.spans()["outer"].count, 1);
        assert_eq!(rec.spans()["outer/inner"].count, 2);
        assert!(rec.spans()["outer"].wall >= rec.spans()["outer/inner"].wall);
    }

    #[test]
    fn unbalanced_exit_closes_children() {
        let mut rec = RunRecorder::new();
        rec.span_enter("a");
        rec.span_enter("b");
        rec.span_exit("a"); // b left open: folded as a/b, then a closes
        assert_eq!(rec.open_spans(), 0);
        assert_eq!(rec.spans()["a/b"].count, 1);
        assert_eq!(rec.spans()["a"].count, 1);
        // Exiting a span that was never entered is a no-op.
        rec.span_exit("zombie");
        assert_eq!(rec.open_spans(), 0);
    }

    #[test]
    fn span_add_respects_current_path() {
        let ((), rec) = recording(RunRecorder::new(), || {
            let _louvain = span("louvain");
            span_add("phase", Duration::from_millis(5));
            span_add("phase", Duration::from_millis(7));
        });
        assert_eq!(rec.spans()["louvain/phase"].count, 2);
        assert_eq!(rec.spans()["louvain/phase"].wall, Duration::from_millis(12));
    }

    #[test]
    fn counters_accumulate_and_series_append() {
        let ((), rec) = recording(RunRecorder::new(), || {
            counter("x", 2);
            counter("x", 3);
            series("q", 0.25);
            series("q", 0.5);
            note("kernel", "flat");
        });
        assert_eq!(rec.counters()["x"], 5);
        assert_eq!(rec.series_map()["q"], vec![0.25, 0.5]);
        assert_eq!(rec.notes()["kernel"], "flat");
    }

    #[test]
    fn span_guard_balances() {
        let (out, rec) = recording(RunRecorder::new(), || {
            let _work = span("work");
            counter("inner", 1);
            42
        });
        assert_eq!(out, 42);
        assert_eq!(rec.open_spans(), 0);
        assert_eq!(rec.spans()["work"].count, 1);
    }
}
