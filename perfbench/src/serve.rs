//! `serve_light` and `serve_saturate`: `ServeRuntime` with one worker
//! over a verified w8→w4 `ModelRegistry` of the 32px width/8 residual
//! MobileNet, batching as in the `table_serve_load` bench.
//!
//! * `serve_light` is an open loop: one generator thread sends
//!   single-image requests on a Poisson schedule at 300 req/s, and each
//!   request is timed from when it was due. Batches stay small, so the
//!   linger and thread wake-ups dominate.
//! * `serve_saturate` is a closed loop: one generator keeps 16 requests
//!   (2 × batch_max) outstanding, waiting for the oldest before sending
//!   the next, and times each from its submit. Every flush is full, so
//!   it measures serving capacity.

use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mixq_core::convert::IntNetwork;
use mixq_data::{Dataset, DatasetSpec, SyntheticKind};
use mixq_kernels::OpCounts;
use mixq_mcu::CortexM7CycleModel;
use mixq_serve::error::class_of;
use mixq_serve::{
    OutcomeClass, ResponseHandle, ServeError, ServeResult, ServeRuntime, StatsSnapshot,
    SubmitOptions,
};
use mixq_tensor::Tensor;

use crate::eval::split;
use crate::harness::{
    best_second, median, per_second_rates, poisson_schedule, sustained, wait_until, Args,
    Latencies, Report, SpanLog, SplitMix64,
};
use crate::models::{
    serve_variants, setup_serve, verify, SetupTimes, BATCH_MAX, SERVE_CLASSES, SERVE_MODEL,
    SERVE_RES,
};
use crate::walk::Replay;
use crate::{alloc, SETUPS};

/// Distinct request images; the seed draws which one each request sends.
const POOL: usize = 64;
const LIGHT_RATE_PER_S: f64 = 300.0;
const OUTSTANDING: usize = 2 * BATCH_MAX;
/// Request records kept per second of a closed loop; the loop stops
/// early if it would need more, so the records never grow mid-run.
const SATURATE_RECORDS_PER_S: f64 = 12_000.0;
/// Full batches that warm the worker before timing.
const WARMUP_BATCHES: usize = 2;
/// `Outcome::variant` of a response no registered variant matches.
const UNKNOWN: u8 = u8::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    Light,
    Saturate,
}

/// One request as the caller saw it, kept fixed-size so the records
/// allocate nothing while the loop runs. Times are ns since the loop's
/// epoch; `from_ns` is the due time (open loop) or submit time (closed).
#[derive(Debug, Clone, Copy)]
struct Outcome {
    image: u16,
    class: OutcomeClass,
    variant: u8,
    degraded: bool,
    batch_size: u8,
    runtime_us: u64,
    logits: [i32; SERVE_CLASSES],
    from_ns: u64,
    submit_ns: u64,
    submitted_ns: u64,
    resolved_ns: u64,
}

impl Outcome {
    fn new(image: usize, result: &ServeResult, labels: &[&str]) -> Outcome {
        let mut o = Outcome {
            image: image as u16,
            class: class_of(result),
            variant: UNKNOWN,
            degraded: false,
            batch_size: 0,
            runtime_us: 0,
            logits: [0; SERVE_CLASSES],
            from_ns: 0,
            submit_ns: 0,
            submitted_ns: 0,
            resolved_ns: 0,
        };
        if let Ok(resp) = result {
            if resp.logits.len() == SERVE_CLASSES {
                o.logits.copy_from_slice(&resp.logits);
                o.variant = labels
                    .iter()
                    .position(|l| *l == resp.variant)
                    .map_or(UNKNOWN, |v| v as u8);
            }
            o.degraded = resp.degraded;
            o.batch_size = resp.batch_size.min(u8::MAX as usize) as u8;
            o.runtime_us = resp.latency_us;
        }
        o
    }
}

fn ns(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

type Sent = (Instant, Instant, Result<ResponseHandle, ServeError>);

/// Submits one request and times the call.
fn submit(rt: &ServeRuntime, image: Tensor<f32>) -> Sent {
    let t0 = Instant::now();
    let handle = rt.submit(SERVE_MODEL, image, SubmitOptions::default());
    (t0, Instant::now(), handle)
}

/// Waits for a request's outcome and stamps when the caller saw it.
fn resolve(
    epoch: Instant,
    image: usize,
    from_ns: u64,
    (t0, t1, handle): Sent,
    labels: &[&str],
) -> Outcome {
    let result = match handle {
        Ok(h) => h.wait(),
        Err(e) => Err(e),
    };
    let resolved = Instant::now();
    let mut o = Outcome::new(image, &result, labels);
    o.from_ns = from_ns;
    o.submit_ns = ns(epoch, t0);
    o.submitted_ns = ns(epoch, t1);
    o.resolved_ns = ns(epoch, resolved);
    o
}

/// The open loop: a generator thread sends on the schedule while this
/// thread collects in order. Returns the window end (the last response).
fn open_loop(
    rt: &ServeRuntime,
    pool: &[Tensor<f32>],
    due: &[u64],
    order: &[usize],
    labels: &[&str],
    outcomes: &mut Vec<Outcome>,
) -> u64 {
    let epoch = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(usize, Sent)>();
        s.spawn(move || {
            for (i, (&d, &k)) in due.iter().zip(order).enumerate() {
                let image = pool[k].clone();
                wait_until(epoch + Duration::from_micros(d));
                let sent = submit(rt, image);
                tx.send((i, sent))
                    .expect("the collector outlives the generator");
            }
        });
        for (i, sent) in rx {
            outcomes.push(resolve(epoch, order[i], due[i] * 1000, sent, labels));
        }
    });
    outcomes.iter().map(|o| o.resolved_ns).max().unwrap_or(1)
}

/// The closed loop: `OUTSTANDING` requests in flight until `window` ends
/// (or the records are full), then a drain. Returns the window end.
fn closed_loop(
    rt: &ServeRuntime,
    pool: &[Tensor<f32>],
    rng: &mut SplitMix64,
    window: Duration,
    labels: &[&str],
    outcomes: &mut Vec<Outcome>,
) -> u64 {
    let mut inflight = VecDeque::with_capacity(OUTSTANDING);
    let epoch = Instant::now();
    let mut end = epoch + window;
    for _ in 0..OUTSTANDING {
        let k = rng.below(pool.len());
        inflight.push_back((k, submit(rt, pool[k].clone())));
    }
    while let Some((k, sent)) = inflight.pop_front() {
        let from_ns = ns(epoch, sent.0);
        outcomes.push(resolve(epoch, k, from_ns, sent, labels));
        let now = Instant::now();
        if outcomes.len() + inflight.len() >= outcomes.capacity() {
            end = end.min(now);
        }
        if now < end {
            let k = rng.below(pool.len());
            inflight.push_back((k, submit(rt, pool[k].clone())));
        }
    }
    ns(epoch, end)
}

fn delta(after: StatsSnapshot, before: StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        submitted: after.submitted - before.submitted,
        accepted: after.accepted - before.accepted,
        rejected_queue_full: after.rejected_queue_full - before.rejected_queue_full,
        rejected_shed: after.rejected_shed - before.rejected_shed,
        rejected_bad_input: after.rejected_bad_input - before.rejected_bad_input,
        completed_ok: after.completed_ok - before.completed_ok,
        deadline_expired: after.deadline_expired - before.deadline_expired,
        failed: after.failed - before.failed,
        degraded: after.degraded - before.degraded,
        batches: after.batches - before.batches,
        flush_full: after.flush_full - before.flush_full,
        flush_deadline: after.flush_deadline - before.flush_deadline,
        flush_drain: after.flush_drain - before.flush_drain,
        batch_retries: after.batch_retries - before.batch_retries,
        worker_panics: after.worker_panics - before.worker_panics,
        respawns: after.respawns - before.respawns,
        max_depth: after.max_depth,
    }
}

fn share(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

pub fn run(args: &Args, load: Load, report: &mut Report, trace_dir: &Path, stamp: &str) -> String {
    let mut out = String::new();
    // Inputs: the image pool, then the schedule and request order.
    let ds = DatasetSpec::new(SyntheticKind::Bars, SERVE_RES, SERVE_RES, 3, SERVE_CLASSES)
        .with_samples(POOL)
        .with_noise(0.05)
        .generate(args.seed);
    let pool: Vec<Tensor<f32>> = (0..POOL).map(|i| ds.sample(i).images).collect();
    let window = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let mut rng = SplitMix64::new(args.seed ^ 0x5EED_0001);
    let (due, order) = match load {
        Load::Light => {
            let due = poisson_schedule(rng.next_u64(), LIGHT_RATE_PER_S, window.as_micros() as u64);
            let order = due.iter().map(|_| rng.below(POOL)).collect();
            (due, order)
        }
        Load::Saturate => (Vec::new(), Vec::new()),
    };
    let capacity = match load {
        Load::Light => due.len(),
        Load::Saturate => (window.as_secs_f64() * SATURATE_RECORDS_PER_S) as usize + OUTSTANDING,
    };
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(capacity);

    // The benchmark's own copies of the variants, for the output checks:
    // what each must answer for each pool image, and its op counts.
    let variants = serve_variants(ds.images(), &mut SetupTimes::default());
    let labels: Vec<&str> = variants.iter().map(|(l, _)| l.as_str()).collect();
    let verify_start = Instant::now();
    for (label, net) in &variants {
        let r = verify(net, &format!("{SERVE_MODEL}/{label}"));
        report.check(r.ok(), || format!("verify_graph {label}: {}", r.render()));
    }
    report.set("verify.s", verify_start.elapsed().as_secs_f64());
    let expected: Vec<Vec<(Vec<i32>, OpCounts)>> = variants
        .iter()
        .map(|(_, net)| pool.iter().map(|img| net.infer(img)).collect())
        .collect();
    let w8 = &variants[0].1;
    report.set("flash_bytes", w8.flash_bytes() as f64);
    report.set("peak_ram_bytes", w8.peak_ram_bytes() as f64);
    let prepacked: usize = variants.iter().map(|v| v.1.prepacked_bytes()).sum();
    report.set("core.prepacked_bytes", prepacked as f64);

    let baseline = alloc::reset_peak();
    let mut times = Vec::with_capacity(SETUPS);
    let mut runtime = None;
    for _ in 0..SETUPS {
        drop(runtime.take());
        let mut t = SetupTimes::default();
        runtime = Some(setup_serve(ds.images(), &mut t));
        times.push(t);
    }
    let mut runtime = runtime.expect("at least one set-up");
    let med = |f: fn(&SetupTimes) -> f64| median(&mut times.iter().map(f).collect::<Vec<_>>());
    report.set("setup_s", med(|t| t.total));
    report.set("core.convert.s", med(|t| t.convert));
    report.set("serve.register.s", med(|t| t.register));
    report.set("serve.start.s", med(|t| t.start));
    report.set("bench.setups", SETUPS as f64);

    // Warm-up: full batches, so the worker's buffers reach their batch_max
    // size; memory is read after set-up and warm-up, since how many
    // requests a stall leaves in flight is the host's doing.
    for _ in 0..WARMUP_BATCHES {
        let sent: Vec<Sent> = (0..BATCH_MAX)
            .map(|k| submit(&runtime, pool[k].clone()))
            .collect();
        for (k, s) in sent.into_iter().enumerate() {
            resolve(Instant::now(), k, 0, s, &labels);
        }
    }
    report.set("host_mem_bytes", (alloc::peak() - baseline) as f64);
    // The worker counts a request just after resolving it: let the
    // warm-up's counts land before the snapshot the audit subtracts.
    let settle = Instant::now();
    let mut before = runtime.stats();
    while before.resolved() < before.accepted && settle.elapsed() < Duration::from_secs(1) {
        std::thread::sleep(Duration::from_micros(100));
        before = runtime.stats();
    }
    let end_ns = match load {
        Load::Light => open_loop(&runtime, &pool, &due, &order, &labels, &mut outcomes),
        Load::Saturate => closed_loop(&runtime, &pool, &mut rng, window, &labels, &mut outcomes),
    };
    let stats = delta(runtime.shutdown(), before);

    // Output checks, after the timed loop. Exactly once: every request the
    // runtime counted resolved to one class, and the runtime's counters
    // agree with what the caller saw.
    let count = |c: OutcomeClass| outcomes.iter().filter(|o| o.class == c).count() as u64;
    let (ok, shed, deadline, failed) = (
        count(OutcomeClass::Ok),
        count(OutcomeClass::Shed),
        count(OutcomeClass::Deadline),
        count(OutcomeClass::Failed),
    );
    let attempted = outcomes.len() as u64;
    report.attempted = attempted;
    report.failed = attempted - ok;
    report.check(
        ok + shed + deadline + failed == stats.submitted
            && stats.submitted == attempted
            && stats.completed_ok == ok
            && stats.deadline_expired == deadline
            && stats.failed == failed
            && stats.rejected_queue_full + stats.rejected_shed + stats.rejected_bad_input == shed,
        || {
            format!(
                "runtime counters {stats:?} disagree with the caller: submitted \
                 {attempted}, ok {ok}, shed {shed}, deadline {deadline}, failed {failed}"
            )
        },
    );
    let mut wrong = 0u64;
    let mut total_ops = OpCounts::default();
    for o in outcomes.iter().filter(|o| o.class == OutcomeClass::Ok) {
        let v = o.variant as usize;
        match expected.get(v).map(|e| &e[o.image as usize]) {
            Some((logits, ops)) if logits[..] == o.logits && o.degraded == (v > 0) => {
                total_ops += *ops;
            }
            _ => wrong += 1,
        }
    }
    report.check(wrong == 0, || {
        format!("{wrong} Ok responses differ from IntNetwork::infer on their variant")
    });

    // End-to-end metrics.
    let mut latency = Latencies::with_capacity(outcomes.len());
    let mut submit_ns = Latencies::with_capacity(outcomes.len());
    let mut runtime_us = Latencies::with_capacity(outcomes.len());
    let mut late_us = Latencies::with_capacity(outcomes.len());
    let mut batch_sum = 0u64;
    for o in &outcomes {
        submit_ns.push(o.submitted_ns - o.submit_ns);
        late_us.push(o.submit_ns.saturating_sub(o.from_ns) / 1000);
        if o.class == OutcomeClass::Ok {
            latency.push(o.resolved_ns.saturating_sub(o.from_ns) / 1000);
            runtime_us.push(o.runtime_us);
            batch_sum += o.batch_size as u64;
        } else {
            latency.miss();
        }
    }
    // A percentile that lands on a miss is charged the whole window. The
    // open loop reports its best second (see `best_second`); the closed
    // loop, where a stall lowers the load instead of queueing it, the
    // whole window.
    let window_us = end_ns / 1000;
    let (p50, p90) = match load {
        Load::Light => {
            let by_due: Vec<(u64, Option<u64>)> = outcomes
                .iter()
                .map(|o| {
                    let ok = o.class == OutcomeClass::Ok;
                    (
                        o.from_ns,
                        ok.then(|| o.resolved_ns.saturating_sub(o.from_ns) / 1000),
                    )
                })
                .collect();
            let schedule_ns = window.as_nanos() as u64;
            (
                best_second(&by_due, schedule_ns, 50.0),
                best_second(&by_due, schedule_ns, 90.0),
            )
        }
        Load::Saturate => (latency.percentile(50.0), latency.percentile(90.0)),
    };
    let (p50, p90) = (p50.unwrap_or(window_us), p90.unwrap_or(window_us));
    let p99 = latency.percentile(99.0).unwrap_or(window_us);
    let ok_done = outcomes
        .iter()
        .filter(|o| o.class == OutcomeClass::Ok)
        .map(|o| o.resolved_ns);
    report.set(
        "samples_per_s",
        sustained(&mut per_second_rates(ok_done, end_ns)),
    );
    report.set("latency_p90_us", p90 as f64);
    report.set("bench.latency.us_p50", p50 as f64);
    report.set("bench.latency.us_p99", p99 as f64);
    report.set("bench.latency_samples", latency.count() as f64);
    report.set("ok_share", share(ok, attempted));
    let cycles = CortexM7CycleModel::default().cycles_from_counts(&total_ops);
    report.set("mcu_cycles_per_sample", cycles as f64 / ok.max(1) as f64);

    // Per-layer serving metrics.
    report.set(
        "serve.submit.us_p50",
        submit_ns.percentile(50.0).unwrap_or(0) as f64 / 1e3,
    );
    report.set(
        "serve.runtime_latency.us_p50",
        runtime_us.percentile(50.0).unwrap_or(0) as f64,
    );
    let mean_batch = batch_sum as f64 / ok.max(1) as f64;
    report.set("serve.batch_fill", mean_batch / BATCH_MAX as f64);
    report.set(
        "serve.linger_flush_share",
        share(stats.flush_deadline, stats.batches),
    );
    report.set("serve.queue_depth_max", stats.max_depth as f64);
    report.set("serve.degraded_share", share(stats.degraded, attempted));
    report.set(
        "serve.retry_share",
        share(stats.batch_retries, stats.batches),
    );
    if load == Load::Light {
        report.set(
            "bench.gen_late.us_p50",
            late_us.percentile(50.0).unwrap_or(0) as f64,
        );
        report.set(
            "bench.gen_late.us_p99",
            late_us.percentile(99.0).unwrap_or(0) as f64,
        );
        report.set("bench.gen_late.us_max", late_us.max() as f64);
    }
    out += &format!(
        "{attempted} requests: ok {ok} (degraded {}) shed {shed} deadline {deadline} failed \
         {failed}; latency p50 {p50} us p90 {p90} us{} p99 {p99} us over {} samples; {} \
         batches, mean batch {mean_batch:.2}, linger flushes {}, max depth {}\n",
        stats.degraded,
        if load == Load::Light {
            " (best second)"
        } else {
            ""
        },
        latency.count(),
        stats.batches,
        stats.flush_deadline,
        stats.max_depth
    );

    if args.trace {
        let batch = mean_batch.round().clamp(1.0, BATCH_MAX as f64) as usize;
        let name = match load {
            Load::Light => "serve_light",
            Load::Saturate => "serve_saturate",
        };
        out += &request_spans(
            &outcomes,
            report,
            &trace_dir.join(format!("{name}.jsonl")),
            stamp,
        );
        out += &trace_walk(
            w8,
            &ds,
            batch,
            window,
            report,
            &trace_dir.join(format!("{name}_walk.jsonl")),
            stamp,
        );
    }
    out
}

/// Spans of each request: the request from due (or submit) to when the
/// caller saw the outcome, its `submit` call, and its `resolve` wait.
fn request_spans(outcomes: &[Outcome], report: &mut Report, path: &Path, stamp: &str) -> String {
    let labels = vec!["request".into(), "submit".into(), "resolve".into()];
    let mut log = SpanLog::new(Instant::now(), labels, 3 * outcomes.len());
    for (i, o) in outcomes.iter().enumerate() {
        let id = i as u64;
        let root = log.record(0, None, id, o.from_ns, o.resolved_ns);
        log.record(1, Some(root), id, o.submit_ns, o.submitted_ns);
        log.record(2, Some(root), id, o.submitted_ns, o.resolved_ns);
    }
    if let Err(e) = log.write_jsonl(path, stamp) {
        report.check(false, || format!("writing {}: {e}", path.display()));
    }
    format!("request spans: {}\n", path.display())
}

/// The w8 walk at the observed batch size, over the pool in whole
/// batches: each batch timed as a whole through `evaluate_batch`, then
/// replayed node by node, so that both see the same host.
fn trace_walk(
    net: &IntNetwork,
    ds: &Dataset,
    batch: usize,
    phase: Duration,
    report: &mut Report,
    path: &Path,
    stamp: &str,
) -> String {
    let walks = split(ds, batch);
    let expected: Vec<(Vec<i32>, OpCounts)> = walks
        .iter()
        .map(|d| {
            let (logits, ops) = net.infer_batch(d.images());
            (logits.concat(), ops)
        })
        .collect();
    const MAX_WALKS: usize = 2000;
    let mut replay = Replay::new(net, Instant::now(), MAX_WALKS);
    let mut untraced_ns = 0u128;
    let mut mismatches = 0u64;
    let start = Instant::now();
    let mut w = 0usize;
    while (start.elapsed() < phase && w < MAX_WALKS) || w == 0 {
        let d = &walks[w % walks.len()];
        let t = Instant::now();
        let (_, ops) = net.evaluate_batch(black_box(d), batch);
        untraced_ns += t.elapsed().as_nanos();
        let got = replay.run(d.images(), 0, batch);
        if got != expected[w % walks.len()] || ops != got.1 {
            mismatches += 1;
        }
        w += 1;
    }
    report.check(mismatches == 0, || {
        format!("{mismatches} replayed walks differ from the untraced path")
    });
    let walk_us = untraced_ns as f64 / 1e3 / replay.samples() as f64;
    report.set("kernels.walk.us_per_sample", walk_us);
    let traced_us = replay.walk_us_per_sample();
    report.set("bench.trace_overhead_share", traced_us / walk_us - 1.0);
    let table = replay.finish(report);
    if let Err(e) = replay.write_spans(path, stamp) {
        report.check(false, || format!("writing {}: {e}", path.display()));
    }
    format!(
        "w8 walk at batch {batch}, {w} walks each timed untraced then replayed: \
         {walk_us:.1} us/sample untraced, {traced_us:.1} traced\n{table}spans: {}\n",
        path.display()
    )
}
