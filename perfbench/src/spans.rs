//! In-memory span recorder for the traced run.
//!
//! Spans are opened only by the benchmark's own code, around its calls
//! into the repository's layers. Each span has a name (the layer), a start
//! and end on one monotonic clock, the span that was open on the same
//! thread when it started (its parent), and the id of the pipeline run it
//! belongs to. Nothing is written while the run is measured; the report
//! reads the spans back with [`take`] when it ends.
//!
//! With recording off (the untimed default), [`span`] returns an inert
//! guard without reading the clock or taking the lock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// One finished (or, while its guard lives, open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Nanoseconds since the process clock's origin.
    pub start_ns: u64,
    /// End, same clock; equal to `start_ns` while the span is open.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Pipeline run the span belongs to.
    pub run: u32,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static RUN_ID: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Indices of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The span store. A thread that panicked while holding the lock left
/// it valid (every update is a single push or field store), so a
/// poisoned lock is recovered.
fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Turns recording on or off; spans already open finish normally.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Sets the run id stamped on spans opened from now on.
pub fn set_run(run: u32) {
    RUN_ID.store(run, Ordering::Relaxed);
}

/// Takes every recorded span, leaving the store empty.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *spans())
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard(Option<usize>);

/// Opens a span named `name` (a no-op while recording is off).
pub fn span(name: &'static str) -> Guard {
    if !recording() {
        return Guard(None);
    }
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let start_ns = now_ns();
    let idx = {
        let mut all = spans();
        all.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run: RUN_ID.load(Ordering::Relaxed),
        });
        all.len() - 1
    };
    OPEN.with(|open| open.borrow_mut().push(idx));
    Guard(Some(idx))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        let end_ns = now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&i| i == idx) {
                open.remove(pos);
            }
        });
        if let Some(s) = spans().get_mut(idx) {
            s.end_ns = end_ns;
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = 0;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(cursor);
                if hi > lo {
                    covered += hi - lo;
                    cursor = hi;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans of the layer.
    pub count: u64,
    /// Summed wall nanoseconds.
    pub total_ns: u64,
    /// Summed self nanoseconds.
    pub self_ns: u64,
}

/// Sums wall and self time by span name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_only_once() {
        // root [0,100) ⊃ a [10,40) ⊃ b [20,30); root ⊃ c [50,60).
        let spans = vec![
            sp("root", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("b", 20, 30, Some(1)),
            sp("c", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_siblings_cover_their_union() {
        // Siblings [10,50) and [30,70) under [0,100): union 60.
        let spans = vec![
            sp("root", 0, 100, None),
            sp("x", 10, 50, Some(0)),
            sp("y", 30, 70, Some(0)),
            sp("z", 70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![sp("root", 10, 20, None), sp("late", 15, 40, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn by_layer_sums_wall_and_self_time_per_name() {
        let spans = vec![
            sp("epoch", 0, 100, None),
            sp("fwd", 0, 30, Some(0)),
            sp("fwd", 40, 60, Some(0)),
        ];
        let t = by_layer(&spans);
        assert_eq!(
            t["fwd"],
            LayerTotals {
                count: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
        assert_eq!(t["epoch"].self_ns, 50);
    }

    #[test]
    fn recorder_links_parents_per_thread() {
        set_recording(true);
        set_run(7);
        {
            let _outer = span("outer");
            let _inner = span("inner");
            std::thread::scope(|s| {
                s.spawn(|| drop(span("other_thread")));
            });
        }
        set_recording(false);
        let all = take();
        let find = |n: &str| {
            all.iter()
                .position(|s| s.name == n && s.run == 7)
                .expect("span recorded")
        };
        let (outer, inner, other) = (find("outer"), find("inner"), find("other_thread"));
        assert_eq!(all[outer].parent, None);
        assert_eq!(all[inner].parent.map(|p| all[p].name), Some("outer"));
        assert_eq!(all[other].parent, None);
        assert!(all[outer].end_ns >= all[inner].end_ns);
    }
}
