//! Always-on per-stage self-profiler behind `GET /profile`.
//!
//! Sampling profilers need signal handlers and symbolization; this stack gets most
//! of the value from *scoped instrumentation* instead: pipeline stages, gateway
//! request phases, and pool workers wrap their work in a [`ProfScope`] guard, and
//! the profiler aggregates wall time (self and total), CPU time, allocation notes,
//! and call counts per *stack path* ("gateway.forward;upstream.attempt"). The
//! aggregate is exported as collapsed-stack text — the flamegraph interchange
//! format, one `path;to;frame weight` line per frame, weight = self wall nanos —
//! so an operator can answer "where inside the request did the time go?" straight
//! from the admin endpoint.
//!
//! Scopes are thread-local and strictly LIFO (a guard dropped at end of scope),
//! so there is no cross-thread coordination on the hot path; flushing into the
//! shared aggregate happens once per scope exit. CPU time is read from
//! `/proc/thread-self/schedstat` (zero where unavailable) and allocation counts
//! are explicit via [`ProfScope::note_allocs`] — no global allocator swap.

use crate::clock::Clock;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Arc;

/// Aggregated statistics for one stack path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// Times a scope at this path was entered.
    pub calls: u64,
    /// Wall nanoseconds spent in this frame *excluding* child scopes.
    pub wall_self_nanos: u64,
    /// Wall nanoseconds spent in this frame including child scopes.
    pub wall_total_nanos: u64,
    /// CPU nanoseconds consumed by the owning thread while in the frame
    /// (from `/proc/thread-self/schedstat`; 0 where unsupported).
    pub cpu_nanos: u64,
    /// Allocations explicitly noted via [`ProfScope::note_allocs`].
    pub allocs: u64,
}

struct LiveFrame {
    path: String,
    start_wall: u64,
    start_cpu: u64,
    /// Wall nanos consumed by already-finished child scopes, for self-time.
    child_wall: u64,
    allocs: u64,
}

thread_local! {
    /// The active scope stack of this thread. Strict LIFO by guard discipline.
    static STACK: RefCell<Vec<LiveFrame>> = const { RefCell::new(Vec::new()) };
}

/// CPU nanoseconds consumed by the calling thread, best effort.
///
/// Every stage reads this twice, on the request path: one `clock_gettime`
/// call, not the open/read/close of a `/proc` file (microseconds per stage,
/// which once the stages themselves took microseconds was most of a parent's
/// self time).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_nanos() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields on
    // 64-bit Linux) that clock_gettime only writes to; it keeps no pointer.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    (ts.tv_sec as u64).saturating_mul(1_000_000_000).saturating_add(ts.tv_nsec as u64)
}

/// CPU nanoseconds consumed by the calling thread, best effort (`0` where the
/// platform has no per-thread schedstat).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_nanos() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0)
}

/// Aggregating profiler. Cheap to share (`Arc`), cheap to record into.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use spatial_telemetry::clock::SystemClock;
/// use spatial_telemetry::profile::{ProfScope, Profiler};
///
/// let profiler = Arc::new(Profiler::new(Arc::new(SystemClock::new())));
/// {
///     let _req = ProfScope::enter(&profiler, "request");
///     let _stage = ProfScope::enter(&profiler, "infer");
/// }
/// assert!(profiler.collapsed().contains("request;infer "));
/// ```
#[derive(Debug)]
pub struct Profiler {
    clock: Arc<dyn Clock>,
    frames: Mutex<BTreeMap<String, FrameStats>>,
}

impl Profiler {
    /// Creates a profiler reading wall time from `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Self { clock, frames: Mutex::new(BTreeMap::new()) }
    }

    /// All frames as `(path, stats)` in path order.
    pub fn report(&self) -> Vec<(String, FrameStats)> {
        self.frames.lock().iter().map(|(p, s)| (p.clone(), *s)).collect()
    }

    /// Collapsed-stack text: one `path;to;frame self_wall_nanos` line per frame,
    /// path-sorted, ready for flamegraph tooling.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (path, stats) in self.frames.lock().iter() {
            out.push_str(path);
            out.push(' ');
            out.push_str(&stats.wall_self_nanos.to_string());
            out.push('\n');
        }
        out
    }

    /// Fraction of `root`'s wall time attributed to named child stages:
    /// `1 − self(root)/total(root)`. Returns 0.0 for an unknown or never-timed
    /// root. A high value means the profile explains where the time went.
    pub fn attribution(&self, root: &str) -> f64 {
        let frames = self.frames.lock();
        match frames.get(root) {
            Some(s) if s.wall_total_nanos > 0 => {
                1.0 - s.wall_self_nanos as f64 / s.wall_total_nanos as f64
            }
            _ => 0.0,
        }
    }

    /// Drops all aggregated frames.
    pub fn reset(&self) {
        self.frames.lock().clear();
    }

    fn flush(&self, path: &str, elapsed: u64, self_wall: u64, cpu: u64, allocs: u64) {
        let mut frames = self.frames.lock();
        let stats = frames.entry(path.to_string()).or_default();
        stats.calls += 1;
        stats.wall_self_nanos += self_wall;
        stats.wall_total_nanos += elapsed;
        stats.cpu_nanos += cpu;
        stats.allocs += allocs;
    }
}

/// RAII guard marking one profiled stage. Create with [`ProfScope::enter`];
/// the stage ends when the guard drops. Guards nest (child stages) and must
/// stay on their creating thread (`!Send`) and drop in LIFO order — the natural
/// behaviour of `let _guard = ...` block scoping.
#[must_use = "the stage ends when the guard drops"]
pub struct ProfScope {
    profiler: Arc<Profiler>,
    _not_send: PhantomData<*const ()>,
}

impl ProfScope {
    /// Opens a stage named `name` under the thread's current stage (if any).
    pub fn enter(profiler: &Arc<Profiler>, name: &str) -> Self {
        let now = profiler.clock.now_nanos();
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.last() {
                Some(parent) => format!("{};{}", parent.path, name),
                None => name.to_string(),
            };
            stack.push(LiveFrame {
                path,
                start_wall: now,
                start_cpu: thread_cpu_nanos(),
                child_wall: 0,
                allocs: 0,
            });
        });
        Self { profiler: Arc::clone(profiler), _not_send: PhantomData }
    }

    /// Notes `n` allocations against the current stage.
    pub fn note_allocs(&self, n: u64) {
        STACK.with(|stack| {
            if let Some(top) = stack.borrow_mut().last_mut() {
                top.allocs += n;
            }
        });
    }
}

impl Drop for ProfScope {
    fn drop(&mut self) {
        let now = self.profiler.clock.now_nanos();
        let cpu_now = thread_cpu_nanos();
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let Some(frame) = stack.pop() else {
                return; // unbalanced guard (should not happen): ignore
            };
            let elapsed = now.saturating_sub(frame.start_wall);
            let self_wall = elapsed.saturating_sub(frame.child_wall);
            let cpu = cpu_now.saturating_sub(frame.start_cpu);
            if let Some(parent) = stack.last_mut() {
                parent.child_wall += elapsed;
            }
            self.profiler.flush(&frame.path, elapsed, self_wall, cpu, frame.allocs);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    fn virtual_profiler() -> (VirtualClock, Arc<Profiler>) {
        let clock = VirtualClock::new();
        let profiler = Arc::new(Profiler::new(Arc::new(clock.clone())));
        (clock, profiler)
    }

    #[test]
    fn self_time_excludes_children() {
        let (clock, profiler) = virtual_profiler();
        {
            let _root = ProfScope::enter(&profiler, "root");
            clock.advance_millis(10);
            {
                let _child = ProfScope::enter(&profiler, "child");
                clock.advance_millis(30);
            }
            clock.advance_millis(5);
        }
        let report: BTreeMap<_, _> = profiler.report().into_iter().collect();
        let root = report["root"];
        let child = report["root;child"];
        assert_eq!(root.wall_total_nanos, 45_000_000);
        assert_eq!(root.wall_self_nanos, 15_000_000);
        assert_eq!(child.wall_total_nanos, 30_000_000);
        assert_eq!(child.wall_self_nanos, 30_000_000);
        assert_eq!(root.calls, 1);
        assert_eq!(child.calls, 1);
    }

    #[test]
    fn attribution_measures_explained_time() {
        let (clock, profiler) = virtual_profiler();
        {
            let _root = ProfScope::enter(&profiler, "root");
            clock.advance_millis(1);
            let _child = ProfScope::enter(&profiler, "stage");
            clock.advance_millis(99);
        }
        let a = profiler.attribution("root");
        assert!((a - 0.99).abs() < 1e-9, "attribution={a}");
        assert_eq!(profiler.attribution("missing"), 0.0);
    }

    #[test]
    fn collapsed_output_is_sorted_and_weighted_by_self_time() {
        let (clock, profiler) = virtual_profiler();
        {
            let _r = ProfScope::enter(&profiler, "b");
            clock.advance_millis(2);
        }
        {
            let _r = ProfScope::enter(&profiler, "a");
            clock.advance_millis(3);
        }
        let text = profiler.collapsed();
        assert_eq!(text, "a 3000000\nb 2000000\n");
    }

    #[test]
    fn repeated_scopes_accumulate() {
        let (clock, profiler) = virtual_profiler();
        for _ in 0..4 {
            let _s = ProfScope::enter(&profiler, "loop");
            clock.advance_millis(1);
        }
        let report: BTreeMap<_, _> = profiler.report().into_iter().collect();
        assert_eq!(report["loop"].calls, 4);
        assert_eq!(report["loop"].wall_total_nanos, 4_000_000);
    }

    #[test]
    fn alloc_notes_stick_to_their_stage() {
        let (_clock, profiler) = virtual_profiler();
        {
            let root = ProfScope::enter(&profiler, "root");
            root.note_allocs(2);
            {
                let child = ProfScope::enter(&profiler, "child");
                child.note_allocs(5);
            }
        }
        let report: BTreeMap<_, _> = profiler.report().into_iter().collect();
        assert_eq!(report["root"].allocs, 2);
        assert_eq!(report["root;child"].allocs, 5);
    }

    #[test]
    fn thread_cpu_clock_counts_this_threads_work() {
        let before = thread_cpu_nanos();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let after = thread_cpu_nanos();
        assert!(after >= before, "CPU time went backwards: {before} -> {after}");
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        assert!(after > before, "five million multiply-adds must cost CPU time");
    }

    #[test]
    fn threads_profile_independently() {
        let (_clock, profiler) = virtual_profiler();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let profiler = Arc::clone(&profiler);
                std::thread::spawn(move || {
                    let _s = ProfScope::enter(&profiler, "worker");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report: BTreeMap<_, _> = profiler.report().into_iter().collect();
        assert_eq!(report["worker"].calls, 4);
        // No thread saw another thread's frame as its parent.
        assert_eq!(report.len(), 1);
    }

    #[test]
    fn reset_clears_frames() {
        let (clock, profiler) = virtual_profiler();
        {
            let _s = ProfScope::enter(&profiler, "x");
            clock.advance_millis(1);
        }
        profiler.reset();
        assert!(profiler.collapsed().is_empty());
    }
}
