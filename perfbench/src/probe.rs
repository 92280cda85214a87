//! Bench-side instruments: the front-door wrapper (sabotage delay and
//! call timing), the controller-hook wrapper (period log and call
//! timing), and `/proc` readers for per-thread CPU time, sleeps and peak
//! memory. The program under test is only ever called through its
//! public traits.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use streamshed_engine::hook::{ControlHook, Decision, PeriodSnapshot};
use streamshed_engine::shard::{BatchResult, ShardedEngine};
use streamshed_engine::telemetry::{AdaptState, ControlState, InstrumentedHook};
use streamshed_net::FrontDoor;

/// Call counters of a timed [`BenchDoor`].
#[derive(Debug, Default)]
pub struct DoorTiming {
    /// Admission calls.
    pub calls: AtomicU64,
    /// Tuples offered through them.
    pub tuples: AtomicU64,
    /// Wall time inside them, ns.
    pub ns: AtomicU64,
}

/// A [`FrontDoor`] in front of the engine: busy-waits `delay` inside
/// every call (the sabotage drill) and, when `timing` is set, times each
/// call. The plain run without sabotage hands the engine itself to the
/// server instead.
pub struct BenchDoor {
    pub inner: Arc<ShardedEngine>,
    pub delay: Duration,
    pub timing: Option<Arc<DoorTiming>>,
}

impl BenchDoor {
    fn call(&self, n: usize, f: impl FnOnce(&ShardedEngine) -> BatchResult) -> BatchResult {
        let t0 = Instant::now();
        while t0.elapsed() < self.delay {
            std::hint::spin_loop();
        }
        let res = f(&self.inner);
        if let Some(t) = &self.timing {
            t.calls.fetch_add(1, Ordering::Relaxed);
            t.tuples.fetch_add(n as u64, Ordering::Relaxed);
            t.ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        res
    }
}

impl FrontDoor for BenchDoor {
    fn offer_batch(&self, n: usize) -> BatchResult {
        self.call(n, |e| FrontDoor::offer_batch(e, n))
    }

    fn offer_batch_keyed_lazy(
        &self,
        n: usize,
        key_at: &mut dyn FnMut(usize) -> u64,
    ) -> BatchResult {
        self.call(n, |e| e.offer_batch_keyed_lazy(n, key_at))
    }
}

/// One control period as the controller saw it.
#[derive(Debug, Clone, Copy)]
pub struct PeriodRow {
    /// When the period's snapshot reached the hook.
    pub at: Instant,
    /// Tuples retired by workers during the period.
    pub completed: u64,
    /// Mean delay of those tuples, ms.
    pub delay_ms: Option<f64>,
    /// Tuples queued in the shard rings at the boundary.
    pub queued: u64,
    /// Time inside the wrapped hook, ns (0 when untimed).
    pub hook_ns: u64,
}

/// Wraps the shedding strategy: logs every period snapshot (which is how
/// the bench sees goodput and delay per window), and times the wrapped
/// `on_period` when `timed`.
pub struct Probe<H> {
    pub inner: H,
    pub rows: Arc<Mutex<Vec<PeriodRow>>>,
    pub timed: bool,
}

impl<H: ControlHook> ControlHook for Probe<H> {
    fn on_period(&mut self, s: &PeriodSnapshot) -> Decision {
        let t0 = self.timed.then(Instant::now);
        let d = self.inner.on_period(s);
        let hook_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        self.rows
            .lock()
            .expect("period log poisoned")
            .push(PeriodRow {
                at: Instant::now(),
                completed: s.completed,
                delay_ms: s.mean_delay_ms,
                queued: s.queued_tuples,
                hook_ns,
            });
        d
    }
}

impl<H: InstrumentedHook> InstrumentedHook for Probe<H> {
    fn control_state(&self) -> Option<ControlState> {
        self.inner.control_state()
    }

    fn adapt_state(&self) -> Option<AdaptState> {
        self.inner.adapt_state()
    }
}

/// Thread ids of this process.
pub fn task_ids() -> BTreeSet<u32> {
    std::fs::read_dir("/proc/self/task")
        .map(|d| {
            d.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Cumulative CPU time and sleeps of one thread.
///
/// `io`'s `syscr`/`syscw` would count syscalls, but only the `read` and
/// `write` families: the socket calls (`recv`, `send`) and `poll` the
/// listener makes are invisible there, so the thread's voluntary context
/// switches (each a blocking `poll` that slept) stand in as its count of
/// event-loop wakeups.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskStat {
    /// On-CPU time, ns (`schedstat` field 1).
    pub cpu_ns: u64,
    /// `voluntary_ctxt_switches` from `status`.
    pub wakeups: u64,
}

impl TaskStat {
    /// Reads `tid`'s counters (zeros if the thread is gone).
    pub fn read(tid: u32) -> Self {
        let cpu_ns = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0);
        let wakeups = std::fs::read_to_string(format!("/proc/self/task/{tid}/status"))
            .ok()
            .and_then(|s| {
                s.lines().find_map(|l| {
                    l.strip_prefix("voluntary_ctxt_switches:")?
                        .trim()
                        .parse()
                        .ok()
                })
            })
            .unwrap_or(0);
        Self { cpu_ns, wakeups }
    }

    /// Sum over several threads.
    pub fn sum(tids: &[u32]) -> Self {
        tids.iter()
            .map(|&t| Self::read(t))
            .fold(Self::default(), |a, b| Self {
                cpu_ns: a.cpu_ns + b.cpu_ns,
                wakeups: a.wakeups + b.wakeups,
            })
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
