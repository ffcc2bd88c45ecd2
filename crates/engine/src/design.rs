//! The engine seam: one [`HtapEngine`] implementation over per-design
//! hooks.
//!
//! The paper's design categories (§2.2) differ in what an analytical
//! snapshot is and where freshness lag comes from. Everything else —
//! sessions, load, reset, metrics, the query pipeline and the
//! background threads — is the same for every design, so [`Engine<D>`]
//! writes it once and a [`Design`] supplies only what defines its
//! category.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hat_common::telemetry::{MetricsSnapshot, SpanTimer};
use hat_common::{Result, Row, TableId};
use hat_query::exec::{execute_with, QueryOpts, QueryOutput};
use hat_query::spec::QuerySpec;
use hat_query::view::SnapshotView;
use hat_txn::{SnapshotGuard, Ts};
use parking_lot::{Condvar, Mutex};

use crate::api::{DesignCategory, HtapEngine, Session};
use crate::kernel::RowKernel;

/// A query's pinned snapshot: the guard that holds vacuum off for the
/// whole query, and the view the query scans.
pub struct Snapshot<'a> {
    pub guard: SnapshotGuard,
    pub view: Box<dyn SnapshotView + 'a>,
}

/// What one engine design supplies to [`Engine<D>`]. Every hook but the
/// name and the snapshot step has a do-nothing default.
pub trait Design: Send + Sync + 'static {
    /// The §2.2 category this design implements (ground truth for the
    /// frontier classifier).
    const CATEGORY: DesignCategory;

    /// Engine name used in reports.
    fn name(&self, kernel: &RowKernel) -> String;

    /// The query's snapshot step, timed into `names::SPAN_SNAPSHOT`:
    /// picks and registers the snapshot and builds the view it scans.
    /// Replication waits and merge-on-read view builds belong here.
    fn snapshot<'a>(&'a self, kernel: &'a RowKernel) -> Result<Snapshot<'a>>;

    /// A narrower view for `spec` at `ts`, built after the snapshot timer
    /// stops (the shared design's date-index prefilter).
    fn index_view<'a>(
        &'a self,
        _kernel: &'a RowKernel,
        _spec: &QuerySpec,
        _ts: Ts,
    ) -> Option<Box<dyn SnapshotView + 'a>> {
        None
    }

    /// Sees each bulk-loaded row before the kernel stores it (a standby's
    /// base backup).
    fn load_row(&self, _table: TableId, _row: &Row) {}

    /// Runs once the kernel has finished loading: builds load-time design
    /// state and starts the design's own background loops.
    fn start(self: &Arc<Self>, _kernel: &Arc<RowKernel>, _background: &Background) -> Result<()> {
        Ok(())
    }

    /// Extra work after each kernel vacuum pass.
    fn vacuum(&self, _kernel: &RowKernel) {}

    /// Runs before the kernel resets (replicated designs drain here).
    fn before_reset(&self, _background: &Background) -> Result<()> {
        Ok(())
    }

    /// Runs after the kernel reset: back to the load-time design state.
    fn after_reset(&self, _kernel: &RowKernel) {}

    /// Overlays the design's own gauges on the kernel's metrics.
    fn gauges(&self, _kernel: &RowKernel, _snap: &mut MetricsSnapshot) {}
}

/// An HTAP engine: the shared [`RowKernel`], the design state, and the
/// background loops both run.
pub struct Engine<D: Design> {
    pub(crate) kernel: Arc<RowKernel>,
    pub(crate) design: Arc<D>,
    pub(crate) background: Background,
}

impl<D: Design> Engine<D> {
    pub(crate) fn assemble(kernel: RowKernel, design: D) -> Self {
        Engine {
            kernel: Arc::new(kernel),
            design: Arc::new(design),
            background: Background::default(),
        }
    }

    /// The engine's transactional kernel (tests and diagnostics).
    pub fn kernel(&self) -> &Arc<RowKernel> {
        &self.kernel
    }
}

impl<D: Design> HtapEngine for Engine<D> {
    fn name(&self) -> String {
        self.design.name(&self.kernel)
    }

    fn design(&self) -> DesignCategory {
        D::CATEGORY
    }

    fn load(&self, table: TableId, rows: &mut dyn Iterator<Item = Row>) -> Result<()> {
        let mut tee = rows.inspect(|row| self.design.load_row(table, row));
        self.kernel.load(table, &mut tee)
    }

    fn finish_load(&self) -> Result<()> {
        self.kernel.finish_load();
        self.design.start(&self.kernel, &self.background)?;
        if let Some(every) = self.kernel.config.vacuum_interval {
            let kernel = Arc::clone(&self.kernel);
            let design = Arc::clone(&self.design);
            self.background.every("mvcc-vacuum", every, move || {
                kernel.vacuum_pass();
                design.vacuum(&kernel);
            });
        }
        Ok(())
    }

    fn begin(&self) -> Box<dyn Session + '_> {
        Box::new(self.kernel.begin_session())
    }

    fn query(&self, spec: &QuerySpec, opts: &QueryOpts) -> Result<QueryOutput> {
        self.kernel.stats.queries.inc();
        let span = SpanTimer::start();
        let snapshot = self.design.snapshot(&self.kernel)?;
        span.finish(&self.kernel.stats.snapshot_span);
        let indexed = self.design.index_view(&self.kernel, spec, snapshot.guard.ts());
        let out = execute_with(spec, indexed.as_deref().unwrap_or(&*snapshot.view), opts);
        self.kernel.stats.record_exec(&out.stats);
        Ok(out)
    }

    fn reset(&self) -> Result<()> {
        self.design.before_reset(&self.background)?;
        self.kernel.reset()?;
        self.design.after_reset(&self.kernel);
        Ok(())
    }

    fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.kernel.metrics();
        self.design.gauges(&self.kernel, &mut snap);
        snap
    }
}

/// One background loop's stop flag. Setting it wakes a loop sleeping in
/// [`Stop::sleep`] at once, so shutdown never waits out an interval.
#[derive(Default)]
pub struct Stop {
    raised: AtomicBool,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Stop {
    /// Whether the loop has been told to stop.
    pub fn is_set(&self) -> bool {
        self.raised.load(Ordering::Acquire)
    }

    /// Sleeps for `interval` or until stopped; `true` means run another
    /// tick.
    pub fn sleep(&self, interval: Duration) -> bool {
        let deadline = Instant::now() + interval;
        let mut guard = self.lock.lock();
        while !self.is_set() && !self.wake.wait_until(&mut guard, deadline).timed_out() {}
        !self.is_set()
    }

    fn raise(&self) {
        self.raised.store(true, Ordering::Release);
        // Taking the lock orders the flag before any sleeper's re-check.
        let _guard = self.lock.lock();
        self.wake.notify_all();
    }
}

/// A background loop: its stop flag and its thread.
pub struct Task {
    flag: Arc<Stop>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Task {
    /// Stops the loop and waits for its thread to exit. Idempotent.
    pub fn stop(&self) {
        self.flag.raise();
        let thread = self.thread.lock().take();
        if let Some(thread) = thread {
            let _ = thread.join();
        }
    }
}

/// Owns an engine's background threads. Dropping it stops every loop at
/// once, then joins them all.
#[derive(Default)]
pub struct Background {
    tasks: Mutex<Vec<Arc<Task>>>,
}

impl Background {
    /// Runs `body` on a named thread. `body` must return soon after its
    /// stop flag is set.
    pub fn spawn(&self, name: &str, body: impl FnOnce(&Stop) + Send + 'static) -> Arc<Task> {
        let flag = Arc::new(Stop::default());
        let stop = Arc::clone(&flag);
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || body(&stop))
            .expect("spawn background thread");
        let task = Arc::new(Task { flag, thread: Mutex::new(Some(thread)) });
        let mut tasks = self.tasks.lock();
        // Forget loops already stopped on their own (crashed followers).
        tasks.retain(|t| t.thread.lock().is_some());
        tasks.push(Arc::clone(&task));
        task
    }

    /// Runs `tick` every `interval` until the engine drops.
    pub fn every(&self, name: &str, interval: Duration, mut tick: impl FnMut() + Send + 'static) {
        self.spawn(name, move |stop| {
            while stop.sleep(interval) {
                tick();
            }
        });
    }
}

impl Drop for Background {
    fn drop(&mut self) {
        let tasks = std::mem::take(&mut *self.tasks.lock());
        for task in &tasks {
            task.flag.raise();
        }
        for task in &tasks {
            task.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn drop_wakes_a_long_sleep_at_once() {
        let ticks = Arc::new(AtomicU64::new(0));
        let background = Background::default();
        let counter = Arc::clone(&ticks);
        background.every("test-loop", Duration::from_secs(3600), move || {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        let start = Instant::now();
        drop(background);
        assert!(start.elapsed() < Duration::from_secs(1), "shutdown waited out the interval");
        assert_eq!(ticks.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_stopped_task_leaves_the_others_running() {
        let background = Background::default();
        let ticks = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&ticks);
        background.every("ticker", Duration::from_millis(1), move || {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        let idle = background.spawn("idle", |stop| {
            stop.sleep(Duration::from_secs(3600));
        });
        idle.stop();
        idle.stop();
        let seen = ticks.load(Ordering::Relaxed);
        let deadline = Instant::now() + Duration::from_secs(5);
        while ticks.load(Ordering::Relaxed) == seen {
            assert!(Instant::now() < deadline, "ticker stopped with the idle task");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
