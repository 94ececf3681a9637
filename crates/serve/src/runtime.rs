//! The threaded serving runtime: worker threads driving the
//! deterministic [`Engine`], a supervisor that respawns dead workers,
//! and panic isolation around batch execution.
//!
//! Concurrency layout: the engine sits behind one mutex and workers park
//! on one condvar. A worker takes the lock only to *decide* (poll
//! [`Engine::next_action`]); batch execution runs lock-free on the
//! worker's own [`ActivationArena`], so inference never serializes
//! across workers. Submissions and manual-clock advances notify the
//! condvar.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use mixq_kernels::{ActivationArena, OpCounts};
use mixq_tensor::Tensor;

use crate::clock::{ClockSource, ManualClock};
use crate::config::ServeConfig;
use crate::engine::{Batch, Engine, EngineAction, Pending};
use crate::error::{Priority, ServeError, ServeOutput};
use crate::fault::FaultPlan;
use crate::registry::ModelRegistry;
use crate::response::ResponseHandle;
use crate::stats::{ServeStats, StatsSnapshot};

/// Per-request submission knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Admission priority (`Low` is shed first under pressure).
    pub priority: Priority,
    /// Relative deadline budget in clock-domain µs; `None` falls back to
    /// the runtime's `default_deadline_us` (which may also be `None`).
    pub deadline_us: Option<u64>,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        SubmitOptions {
            priority: Priority::Normal,
            deadline_us: None,
        }
    }
}

impl SubmitOptions {
    /// Set the priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Set a relative deadline budget (µs).
    pub fn with_deadline_us(mut self, us: u64) -> Self {
        self.deadline_us = Some(us);
        self
    }
}

struct Shared {
    engine: Mutex<Engine>,
    work_cv: Condvar,
    clock: ClockSource,
    stats: ServeStats,
    registry: ModelRegistry,
    faults: FaultPlan,
    workers: Mutex<Vec<Option<JoinHandle<()>>>>,
    deaths: Mutex<Vec<usize>>,
    death_cv: Condvar,
    supervisor_done: AtomicBool,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fault-tolerant serving runtime over a verified [`ModelRegistry`].
///
/// See the crate docs for the guarantees. Dropping the runtime performs
/// a drain [`shutdown`](ServeRuntime::shutdown) if one has not run yet.
pub struct ServeRuntime {
    shared: Arc<Shared>,
    supervisor: Option<JoinHandle<()>>,
    shut_down: bool,
}

impl ServeRuntime {
    /// Start a runtime on real (monotonic) time with no injected faults.
    pub fn start(registry: ModelRegistry, cfg: ServeConfig) -> Result<Self, String> {
        Self::start_with(registry, cfg, ClockSource::monotonic(), FaultPlan::new())
    }

    /// Start a runtime with an explicit clock source and fault plan —
    /// the entry point for deterministic tests.
    pub fn start_with(
        registry: ModelRegistry,
        cfg: ServeConfig,
        clock: ClockSource,
        faults: FaultPlan,
    ) -> Result<Self, String> {
        cfg.validate()?;
        if registry.is_empty() {
            return Err("registry holds no models".into());
        }
        let workers = cfg.workers;
        let engine = Engine::new(cfg, registry.infos());
        let shared = Arc::new(Shared {
            engine: Mutex::new(engine),
            work_cv: Condvar::new(),
            clock,
            stats: ServeStats::default(),
            registry,
            faults,
            workers: Mutex::new((0..workers).map(|_| None).collect()),
            deaths: Mutex::new(Vec::new()),
            death_cv: Condvar::new(),
            supervisor_done: AtomicBool::new(false),
        });
        {
            let mut slots = lock(&shared.workers);
            for (idx, slot) in slots.iter_mut().enumerate() {
                *slot = Some(spawn_worker(Arc::clone(&shared), idx));
            }
        }
        let supervisor = Some(spawn_supervisor(Arc::clone(&shared)));
        Ok(ServeRuntime {
            shared,
            supervisor,
            shut_down: false,
        })
    }

    /// Submit one single-item request against a registered model.
    ///
    /// Returns immediately: on admission the caller gets a
    /// [`ResponseHandle`] to wait on; every rejection is a typed
    /// [`ServeError`] in the `Shed` class.
    pub fn submit(
        &self,
        model: &str,
        input: Tensor<f32>,
        opts: SubmitOptions,
    ) -> Result<ResponseHandle, ServeError> {
        use std::sync::atomic::Ordering::Relaxed;
        let stats = &self.shared.stats;
        let Some(id) = self.shared.registry.id_of(model) else {
            stats.submitted.fetch_add(1, Relaxed);
            stats.rejected_bad_input.fetch_add(1, Relaxed);
            return Err(ServeError::UnknownModel {
                model: model.to_string(),
            });
        };
        let net = &self.shared.registry.entry(id).variants[0].net;
        let items = match net.validate_request(&input) {
            Ok(items) => items,
            Err(source) => {
                stats.submitted.fetch_add(1, Relaxed);
                stats.rejected_bad_input.fetch_add(1, Relaxed);
                return Err(ServeError::BadInput { source });
            }
        };
        if items != 1 {
            stats.submitted.fetch_add(1, Relaxed);
            stats.rejected_bad_input.fetch_add(1, Relaxed);
            return Err(ServeError::BadInput {
                source: mixq_core::MixQError::InputShapeMismatch {
                    expected: net.input_shape(),
                    got: input.shape(),
                },
            });
        }
        let now = self.shared.clock.now_us();
        let mut engine = lock(&self.shared.engine);
        let rel = opts.deadline_us.or(engine.config().default_deadline_us);
        let deadline = rel.map(|d| now.saturating_add(d));
        let admitted = engine.admit(now, id, Some(input), opts.priority, deadline, stats);
        drop(engine);
        match admitted {
            Ok((handle, _seq)) => {
                self.shared.work_cv.notify_all();
                Ok(handle)
            }
            Err(e) => Err(e),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The runtime's notion of "now" (µs in its clock domain).
    pub fn now_us(&self) -> u64 {
        self.shared.clock.now_us()
    }

    /// Advance a manual clock by `us` and wake the workers so linger
    /// deadlines and request timeouts fire. Panics if the runtime runs
    /// on a monotonic clock.
    pub fn advance_clock(&self, us: u64) -> u64 {
        let ClockSource::Manual(clock) = &self.shared.clock else {
            panic!("advance_clock requires a manual clock");
        };
        let now = advance_manual(&self.shared, clock, us);
        self.shared.work_cv.notify_all();
        now
    }

    /// A clone of the manual clock, if the runtime uses one.
    pub fn manual_clock(&self) -> Option<ManualClock> {
        match &self.shared.clock {
            ClockSource::Manual(c) => Some(c.clone()),
            ClockSource::Monotonic { .. } => None,
        }
    }

    /// Drain shutdown: refuse new admissions, flush and execute every
    /// queued request (partial batches flush immediately), join all
    /// workers and the supervisor, then return the final counters.
    /// Idempotent; also invoked by `Drop`. Never hangs under a manual
    /// clock: drain-mode flushing requires no time to pass.
    pub fn shutdown(&mut self) -> StatsSnapshot {
        if self.shut_down {
            return self.shared.stats.snapshot();
        }
        self.shut_down = true;
        lock(&self.shared.engine).start_drain();
        self.shared.work_cv.notify_all();
        // Join workers, looping because the supervisor may still be
        // respawning replacements while the queue drains.
        loop {
            let handle = lock(&self.shared.workers)
                .iter_mut()
                .find_map(|slot| slot.take());
            if let Some(handle) = handle {
                let _ = handle.join();
                continue;
            }
            let deaths_pending = !lock(&self.shared.deaths).is_empty();
            if deaths_pending {
                std::thread::yield_now();
                continue;
            }
            break;
        }
        // Stop the supervisor, then sweep up any worker it respawned in
        // the race window above.
        self.shared.supervisor_done.store(true, Ordering::SeqCst);
        self.shared.death_cv.notify_all();
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        while let Some(handle) = lock(&self.shared.workers)
            .iter_mut()
            .find_map(|slot| slot.take())
        {
            let _ = handle.join();
        }
        // Paranoia: nothing should remain queued after a drain, but an
        // abandoned request must still resolve rather than hang.
        lock(&self.shared.engine).abort_queued(&self.shared.stats);
        self.shared.stats.snapshot()
    }
}

impl Drop for ServeRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Signals the supervisor when a worker exits without defusing —
/// i.e. abnormally (scripted kill or a real panic unwinding the loop).
struct WorkerGuard {
    shared: Arc<Shared>,
    idx: usize,
    defused: bool,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        if !self.defused {
            lock(&self.shared.deaths).push(self.idx);
            self.shared.death_cv.notify_all();
        }
    }
}

/// Advances the manual clock under the engine lock; the caller notifies
/// `work_cv` afterwards. A worker reads the clock and parks on `work_cv`
/// while it holds that lock, so an advance made under the lock lands
/// either before the worker's read or after it parked, where the notify
/// wakes it. Advanced without the lock, it could land between the two,
/// and the notify would be lost on a worker that is not yet waiting.
fn advance_manual(shared: &Shared, clock: &ManualClock, us: u64) -> u64 {
    let _engine = lock(&shared.engine);
    clock.advance(us)
}

fn spawn_worker(shared: Arc<Shared>, idx: usize) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("mixq-serve-worker-{idx}"))
        .spawn(move || worker_loop(shared, idx))
        .expect("spawn serve worker")
}

fn spawn_supervisor(shared: Arc<Shared>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("mixq-serve-supervisor".into())
        .spawn(move || supervisor_loop(shared))
        .expect("spawn serve supervisor")
}

fn supervisor_loop(shared: Arc<Shared>) {
    loop {
        let next_death = {
            let mut deaths = lock(&shared.deaths);
            loop {
                if let Some(idx) = deaths.pop() {
                    break Some(idx);
                }
                if shared.supervisor_done.load(Ordering::SeqCst) {
                    break None;
                }
                deaths = shared
                    .death_cv
                    .wait(deaths)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(idx) = next_death else {
            return;
        };
        shared
            .stats
            .respawns
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let handle = spawn_worker(Arc::clone(&shared), idx);
        lock(&shared.workers)[idx] = Some(handle);
        // The replacement polls the engine itself; wake it in case work
        // was already queued when its predecessor died.
        shared.work_cv.notify_all();
    }
}

/// Whether the worker should keep looping or die abnormally (leaving its
/// guard armed so the supervisor respawns it).
enum WorkerFate {
    Continue,
    Die,
}

fn worker_loop(shared: Arc<Shared>, idx: usize) {
    let mut guard = WorkerGuard {
        shared: Arc::clone(&shared),
        idx,
        defused: false,
    };
    let mut arena = ActivationArena::default();
    loop {
        let batch = {
            let mut engine = lock(&shared.engine);
            loop {
                let now = shared.clock.now_us();
                match engine.next_action(now, &shared.stats) {
                    EngineAction::Run(batch) => break Some(batch),
                    EngineAction::Stop => break None,
                    EngineAction::Park => {
                        engine = shared
                            .work_cv
                            .wait(engine)
                            .unwrap_or_else(|e| e.into_inner());
                    }
                    EngineAction::WaitUntil(t) => {
                        if shared.clock.is_manual() {
                            // Virtual time only moves via advance_clock,
                            // which notifies; no timeout needed.
                            engine = shared
                                .work_cv
                                .wait(engine)
                                .unwrap_or_else(|e| e.into_inner());
                        } else {
                            let wait_us = t.saturating_sub(now).max(1);
                            engine = shared
                                .work_cv
                                .wait_timeout(engine, Duration::from_micros(wait_us))
                                .unwrap_or_else(|e| e.into_inner())
                                .0;
                        }
                    }
                }
            }
        };
        let Some(batch) = batch else {
            guard.defused = true;
            return;
        };
        match execute_batch(&shared, &mut arena, batch) {
            WorkerFate::Continue => {}
            WorkerFate::Die => return, // guard armed → supervisor respawns
        }
    }
}

fn execute_batch(shared: &Shared, arena: &mut ActivationArena, mut batch: Batch) -> WorkerFate {
    use std::sync::atomic::Ordering::Relaxed;
    let stats = &shared.stats;
    if shared.faults.should_kill_worker(batch.seq) {
        // Scripted worker death: the thread abandons the batch and
        // exits. Resolve the in-flight requests here (the responder drop
        // guard would catch them anyway, but resolving keeps the failure
        // accounted) and let the supervisor respawn a replacement.
        for pending in batch.reqs.drain(..) {
            pending.responder.resolve(Err(ServeError::WorkerLost));
            stats.failed.fetch_add(1, Relaxed);
        }
        return WorkerFate::Die;
    }
    if let Some(delay_us) = shared.faults.delay_for_batch(batch.seq) {
        match &shared.clock {
            ClockSource::Manual(clock) => {
                advance_manual(shared, clock, delay_us);
                shared.work_cv.notify_all();
            }
            ClockSource::Monotonic { .. } => {
                std::thread::sleep(Duration::from_micros(delay_us));
            }
        }
    }
    let entry = shared.registry.entry(batch.model);
    let variant = &entry.variants[batch.variant];
    let batch_size = batch.reqs.len();
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        compute(&variant.net, &batch.reqs, &shared.faults, arena)
    }));
    match attempt {
        Ok(per_request) => {
            for (pending, logits) in batch.reqs.into_iter().zip(per_request) {
                resolve_computed(
                    shared,
                    pending,
                    logits,
                    &variant.label,
                    batch.degraded,
                    batch_size,
                );
            }
        }
        Err(payload) => {
            stats.worker_panics.fetch_add(1, Relaxed);
            // The unwound walk may have left the arena's pools in an
            // arbitrary state; start clean.
            *arena = ActivationArena::default();
            let detail = panic_detail(payload.as_ref());
            if batch_size == 1 {
                let pending = batch.reqs.pop().expect("batch of one");
                pending
                    .responder
                    .resolve(Err(ServeError::WorkerPanicked { detail }));
                stats.failed.fetch_add(1, Relaxed);
            } else {
                // Bisect by retrying each request alone: innocents
                // complete, only the culprit(s) resolve WorkerPanicked.
                for pending in batch.reqs {
                    stats.batch_retries.fetch_add(1, Relaxed);
                    retry_single(shared, arena, pending, variant, batch.degraded);
                }
            }
        }
    }
    WorkerFate::Continue
}

fn retry_single(
    shared: &Shared,
    arena: &mut ActivationArena,
    pending: Pending,
    variant: &crate::registry::Variant,
    degraded: bool,
) {
    use std::sync::atomic::Ordering::Relaxed;
    let single = std::slice::from_ref(&pending);
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        compute(&variant.net, single, &shared.faults, arena)
    }));
    match attempt {
        Ok(mut per_request) => {
            let logits = per_request.pop().expect("one result for one request");
            resolve_computed(shared, pending, logits, &variant.label, degraded, 1);
        }
        Err(payload) => {
            shared.stats.worker_panics.fetch_add(1, Relaxed);
            *arena = ActivationArena::default();
            let detail = panic_detail(payload.as_ref());
            pending
                .responder
                .resolve(Err(ServeError::WorkerPanicked { detail }));
            shared.stats.failed.fetch_add(1, Relaxed);
        }
    }
}

/// Resolve one computed request: a late completion (past its deadline)
/// still resolves, but as `DeadlineExceeded` rather than `Ok`.
fn resolve_computed(
    shared: &Shared,
    pending: Pending,
    logits: Vec<i32>,
    variant_label: &str,
    degraded: bool,
    batch_size: usize,
) {
    use std::sync::atomic::Ordering::Relaxed;
    let stats = &shared.stats;
    let now = shared.clock.now_us();
    if let Some(deadline) = pending.deadline_us {
        if now > deadline {
            pending.responder.resolve(Err(ServeError::DeadlineExceeded {
                deadline_us: deadline,
                now_us: now,
            }));
            stats.deadline_expired.fetch_add(1, Relaxed);
            return;
        }
    }
    let latency_us = now.saturating_sub(pending.arrival_us);
    pending.responder.resolve(Ok(ServeOutput {
        logits,
        variant: variant_label.to_string(),
        degraded,
        batch_size,
        latency_us,
    }));
    stats.completed_ok.fetch_add(1, Relaxed);
    if degraded {
        stats.degraded.fetch_add(1, Relaxed);
    }
}

/// Run one stacked graph walk over `reqs`, honoring scripted per-request
/// panic faults. Panics propagate to the caller's `catch_unwind`.
fn compute(
    net: &mixq_core::convert::IntNetwork,
    reqs: &[Pending],
    faults: &FaultPlan,
    arena: &mut ActivationArena,
) -> Vec<Vec<i32>> {
    for pending in reqs {
        if faults.should_panic(pending.seq) {
            panic!("injected fault: panic on request {}", pending.seq);
        }
    }
    let item_shape = net.input_shape();
    let mut data = Vec::with_capacity(reqs.len() * item_shape.volume());
    for pending in reqs {
        let input = pending
            .input
            .as_ref()
            .expect("runtime requests carry input tensors");
        data.extend_from_slice(input.data());
    }
    let stacked = Tensor::from_vec(item_shape.with_batch(reqs.len()), data)
        .expect("validated items stack to the batch shape");
    let mut logits = Vec::new();
    let mut ops = OpCounts::default();
    let x = net.quantize_input_items_pooled(&stacked, 0, reqs.len(), arena);
    net.graph().infer_pooled(x, arena, &mut logits, &mut ops);
    logits
        .chunks(net.num_classes())
        .map(<[i32]>::to_vec)
        .collect()
}

fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    use mixq_core::convert::convert_with_backend;
    use mixq_core::memory::QuantScheme;
    use mixq_data::{DatasetSpec, SyntheticKind};
    use mixq_kernels::ReferenceBackend;
    use mixq_models::micro::mobilenet_like_residual;
    use mixq_nn::qat::QatNetwork;
    use mixq_quant::Granularity;

    use super::*;

    /// A one-worker runtime on a manual clock over a tiny calibrated
    /// (untrained) residual CNN.
    fn manual_runtime() -> ServeRuntime {
        let ds = DatasetSpec::new(SyntheticKind::Bars, 8, 8, 3, 4)
            .with_samples(4)
            .generate(1);
        let mut net = QatNetwork::build(&mobilenet_like_residual(8, 3, 8, 4), 41);
        net.calibrate_input(ds.images());
        net.enable_fake_quant(Granularity::PerChannel);
        let net = convert_with_backend(&net, QuantScheme::PerChannelIcn, &ReferenceBackend)
            .expect("calibrated network converts");
        let mut registry = ModelRegistry::new();
        registry
            .register("cnn", vec![("w8".into(), net)])
            .expect("verified network registers");
        ServeRuntime::start_with(
            registry,
            ServeConfig::default().with_workers(1),
            ClockSource::Manual(ManualClock::new()),
            FaultPlan::new(),
        )
        .expect("valid runtime")
    }

    #[test]
    fn advance_clock_waits_for_a_deciding_worker() {
        let rt = manual_runtime();
        let shared = &rt.shared;
        // Stand in for a worker that has read the clock under the engine
        // lock and is about to park.
        let engine = lock(&shared.engine);
        let t0 = shared.clock.now_us();
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let rt = &rt;
            scope.spawn(move || {
                rt.advance_clock(100);
                tx.send(()).expect("test thread is listening");
            });
            // The advance must not land between the read and the park...
            assert!(
                rx.recv_timeout(Duration::from_millis(200)).is_err(),
                "the clock moved while a worker held the engine lock"
            );
            // ...and its notify must reach the worker once it parks.
            let (_engine, wait) = shared
                .work_cv
                .wait_timeout_while(engine, Duration::from_secs(30), |_| {
                    shared.clock.now_us() == t0
                })
                .unwrap_or_else(|e| e.into_inner());
            assert!(!wait.timed_out(), "the advance's notify was lost");
        });
        assert!(rx.recv().is_ok(), "advance_clock returned");
        assert_eq!(rt.now_us(), t0 + 100);
    }
}
