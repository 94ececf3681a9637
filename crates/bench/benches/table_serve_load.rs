//! Serving under load: the `mixq-serve` runtime's latency/shed/degrade
//! behavior as offered load sweeps from idle to overload.
//!
//! Two views, mirroring `table_walk_scaling`:
//!
//! * **deterministic schedule** (`--json`, golden-tested) — the
//!   discrete-event [`Simulator`] replays fixed submission traces
//!   (64 requests at inter-arrival {200, 100, 50, 20, 5} µs, every 8th at
//!   `Low` priority, 800 µs deadlines) against the *real* engine state
//!   machine with a fixed integer [`ServiceModel`], plus one faulted
//!   trace (a scripted panic, a worker kill and a delayed batch). Every
//!   outcome count, flush tally, queue depth and p50/p99 in the golden
//!   is a pure integer function of the trace, so a byte-diff pins the
//!   admission, shed, degradation, deadline and fault-recovery math the
//!   threaded runtime shares;
//! * **measured latency** (stdout and `--bench-json`, never goldened) —
//!   a real [`ServeRuntime`] on the monotonic clock serves a verified
//!   w8→w4 registry of the tiny residual CNN while the bench offers
//!   64 single-image requests at each inter-arrival × worker count. The
//!   report records accepted/shed/degraded splits and the p50/p99
//!   latency of completed requests per row — the paper-facing "what does
//!   overload cost" table. Every submitted request must still resolve
//!   (exactly-once audit on every row). The 4-worker comparison is
//!   reported `null`/skipped (not `false`) through the shared
//!   [`gated_target`] helper when the host cannot run 4 genuine workers.
//!
//! Run with: `cargo bench --bench table_serve_load`
//! (`--json <path>` writes the deterministic golden, `--bench-json
//! <path>` the measured load table for `scripts/bench-report.sh`).

use std::time::Duration;

use mixq_bench::harness::{
    available_cores, bench_json_out_path, gated_target, host_meta, json_array, json_out_path, rule,
    write_json, JsonObject,
};
use mixq_core::convert::{convert_with_backend, IntNetwork};
use mixq_core::memory::QuantScheme;
use mixq_data::{Dataset, DatasetSpec, SyntheticKind};
use mixq_kernels::TiledBackend;
use mixq_models::micro::mobilenet_like_residual;
use mixq_nn::qat::QatNetwork;
use mixq_quant::{BitWidth, Granularity};
use mixq_serve::{
    percentile_us, BatcherConfig, FaultPlan, ModelInfo, ModelRegistry, Priority, ServeConfig,
    ServeError, ServeRuntime, ServiceModel, SimReport, SimSubmit, Simulator, SubmitOptions,
};

const RES: usize = 8;
const CLASSES: usize = 4;
const REQUESTS: usize = 64;
/// Offered inter-arrival gaps (virtual µs) for the simulated sweep. The
/// service model drains a full batch of 8 in 200 µs (25 µs/request), so
/// the sweep crosses from under-load (200 µs gaps) through degradation
/// onset (20 µs) to 5× overload (5 µs gaps) where backpressure sheds and
/// queued requests blow their 800 µs deadlines.
const SIM_GAPS_US: [u64; 5] = [200, 100, 50, 20, 5];
/// Offered inter-arrival gaps (real µs) for the measured sweep.
const LOAD_GAPS_US: [u64; 3] = [500, 200, 100];
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn serve_cfg(workers: usize) -> ServeConfig {
    ServeConfig::default()
        .with_queue_capacity(32)
        .with_shed_watermark(24)
        .with_degrade_watermark(12)
        .with_batcher(BatcherConfig {
            batch_max: 8,
            deadline_us: 500,
        })
        .with_workers(workers)
}

/// A fixed offered-load trace: `REQUESTS` submissions `gap_us` apart,
/// every 8th at `Low` priority (shed fodder), all with an 800 µs deadline.
fn load_trace(gap_us: u64) -> Vec<SimSubmit> {
    (0..REQUESTS as u64)
        .map(|i| {
            let sub = SimSubmit::at(i * gap_us, "cnn").deadline(800);
            if i % 8 == 7 {
                sub.priority(Priority::Low)
            } else {
                sub
            }
        })
        .collect()
}

/// Histogram of a simulated trace's outcome labels by class prefix.
fn outcome_counts(report: &SimReport) -> (usize, usize, usize, usize, usize) {
    let count = |pred: &dyn Fn(&str) -> bool| report.outcomes.iter().filter(|o| pred(o)).count();
    (
        count(&|o| o.starts_with("ok:") && !o.ends_with(":degraded")),
        count(&|o| o.ends_with(":degraded")),
        count(&|o| o.starts_with("shed:")),
        count(&|o| o == "deadline"),
        count(&|o| o.starts_with("failed:")),
    )
}

fn sim_row_json(gap_us: u64, faulted: bool, report: &SimReport) -> String {
    let (ok, degraded, shed, deadline, failed) = outcome_counts(report);
    let reasons = |r: &str| report.flushes.iter().filter(|f| f.reason == r).count();
    let mut obj = JsonObject::new();
    obj.int("inter_arrival_us", gap_us as usize)
        .bool("faulted", faulted)
        .int("requests", report.outcomes.len())
        .int("ok", ok)
        .int("ok_degraded", degraded)
        .int("shed", shed)
        .int("deadline", deadline)
        .int("failed", failed)
        .int("batches", report.flushes.len())
        .int("flush_full", reasons("full"))
        .int("flush_deadline", reasons("deadline"))
        .int("flush_drain", reasons("drain"))
        .int("max_depth", report.stats.max_depth)
        .int("p50_us", report.p50_us as usize)
        .int("p99_us", report.p99_us as usize);
    obj.render()
}

/// An untrained but calibrated tiny residual CNN converted to the
/// integer deployment graph — fast to build, real kernels end to end.
fn tiny_net(bits: BitWidth, ds: &Dataset) -> IntNetwork {
    let spec = mobilenet_like_residual(RES, 3, 8, CLASSES);
    let mut net = QatNetwork::build(&spec, 41);
    net.calibrate_input(ds.images());
    net.enable_fake_quant(Granularity::PerChannel);
    if bits != BitWidth::W8 {
        for i in 0..net.num_blocks() {
            net.set_weight_bits(i, bits);
        }
        net.set_linear_weight_bits(bits);
    }
    convert_with_backend(&net, QuantScheme::PerChannelIcn, &TiledBackend::default())
        .expect("calibrated network converts")
}

struct MeasuredRow {
    workers: usize,
    gap_us: u64,
    ok: u64,
    degraded: u64,
    shed: u64,
    deadline: u64,
    failed: u64,
    p50_us: u64,
    p99_us: u64,
}

/// Offers `REQUESTS` single-image requests at `gap_us` spacing to a
/// fresh runtime and waits for every handle: the exactly-once audit plus
/// the measured latency distribution of the completed requests.
fn measured_run(registry: ModelRegistry, workers: usize, gap_us: u64, ds: &Dataset) -> MeasuredRow {
    let mut runtime =
        ServeRuntime::start(registry, serve_cfg(workers)).expect("runtime starts on real time");
    let mut handles = Vec::with_capacity(REQUESTS);
    for i in 0..REQUESTS {
        let image = ds.sample(i % ds.len()).images;
        let opts = if i % 8 == 7 {
            SubmitOptions::default().with_priority(Priority::Low)
        } else {
            SubmitOptions::default()
        };
        handles.push(runtime.submit("cnn", image, opts));
        std::thread::sleep(Duration::from_micros(gap_us));
    }
    let (mut ok, mut degraded, mut shed, mut deadline, mut failed) = (0u64, 0, 0, 0, 0);
    let mut latencies: Vec<u64> = Vec::new();
    for handle in handles {
        let result = match handle {
            Ok(h) => h.wait(),
            Err(e) => Err(e),
        };
        match result {
            Ok(out) => {
                if out.degraded {
                    degraded += 1;
                } else {
                    ok += 1;
                }
                latencies.push(out.latency_us);
            }
            Err(ServeError::DeadlineExceeded { .. }) => deadline += 1,
            Err(e) if e.class() == mixq_serve::OutcomeClass::Shed => shed += 1,
            Err(_) => failed += 1,
        }
    }
    let stats = runtime.shutdown();
    // The runtime's core guarantee, audited on every measured row: no
    // request is lost or double-resolved, and the queue stayed bounded.
    assert_eq!(
        ok + degraded + shed + deadline + failed,
        REQUESTS as u64,
        "every request resolves exactly once"
    );
    assert_eq!(stats.submitted, REQUESTS as u64);
    assert_eq!(stats.resolved() + shed, REQUESTS as u64);
    assert!(stats.max_depth <= 32, "queue depth bounded by capacity");
    latencies.sort_unstable();
    MeasuredRow {
        workers,
        gap_us,
        ok,
        degraded,
        shed,
        deadline,
        failed,
        p50_us: percentile_us(&latencies, 50),
        p99_us: percentile_us(&latencies, 99),
    }
}

fn main() {
    // ---- deterministic schedule sweep (the golden) -------------------
    let models = vec![ModelInfo {
        name: "cnn".into(),
        variant_labels: vec!["w8".into(), "w4".into()],
    }];
    let service = ServiceModel {
        base_us: 80,
        per_item_us: 15,
    };
    let sim = Simulator::new(serve_cfg(1), models.clone(), service, FaultPlan::new())
        .expect("config validates");

    println!(
        "serving under load — {REQUESTS} requests/trace, batch_max 8, linger 500us, \
         queue 32 (shed Low at 24, degrade w8->w4 at 12), 800us deadlines"
    );
    println!("\n== simulated schedule (virtual us; goldenable) ==");
    println!(
        "{:<10} {:>4} {:>9} {:>6} {:>9} {:>7} {:>8} {:>8} {:>8}",
        "gap_us", "ok", "degraded", "shed", "deadline", "failed", "batches", "p50_us", "p99_us"
    );
    rule(76);
    let mut sim_rows = Vec::new();
    for &gap in &SIM_GAPS_US {
        let report = sim.run(&load_trace(gap));
        let (ok, degraded, shed, deadline, failed) = outcome_counts(&report);
        println!(
            "{gap:<10} {ok:>4} {degraded:>9} {shed:>6} {deadline:>9} {failed:>7} {:>8} {:>8} {:>8}",
            report.flushes.len(),
            report.p50_us,
            report.p99_us
        );
        sim_rows.push(sim_row_json(gap, false, &report));
    }

    // The faulted replay: same 50 µs trace with a scripted request
    // panic, a delayed batch and a worker kill — the golden also pins
    // the bisect-retry and respawn accounting.
    let faults = FaultPlan::new()
        .panic_on_request(7)
        .delay_batch(1, 900)
        .kill_worker_on_batch(2);
    let faulted_sim =
        Simulator::new(serve_cfg(1), models, service, faults).expect("config validates");
    let faulted = faulted_sim.run(&load_trace(50));
    let (ok, degraded, shed, deadline, failed) = outcome_counts(&faulted);
    println!(
        "{:<10} {ok:>4} {degraded:>9} {shed:>6} {deadline:>9} {failed:>7} {:>8} {:>8} {:>8}",
        "50+faults",
        faulted.flushes.len(),
        faulted.p50_us,
        faulted.p99_us
    );
    assert!(failed > 0, "scripted faults must surface as Failed");
    assert_eq!(
        faulted.stats.resolved() + faulted.stats.rejected_queue_full + faulted.stats.rejected_shed,
        faulted.stats.submitted,
        "faulted trace still resolves every request"
    );
    sim_rows.push(sim_row_json(50, true, &faulted));

    if let Some(path) = json_out_path() {
        let mut root = JsonObject::new();
        root.string("bench", "table_serve_load")
            .string("model", "cnn[w8,w4] (mobilenet_like_residual 8px)")
            .int("requests_per_trace", REQUESTS)
            .int("service_base_us", service.base_us as usize)
            .int("service_per_item_us", service.per_item_us as usize)
            .raw("loads", json_array(sim_rows));
        write_json(&path, &root.render());
    }

    // ---- measured latency sweep (never goldened) ---------------------
    println!("\n== measured serving latency (real clock; never goldened) ==");
    let ds = DatasetSpec::new(SyntheticKind::Bars, RES, RES, 3, CLASSES)
        .with_samples(8)
        .with_noise(0.05)
        .generate(9);
    let w8 = tiny_net(BitWidth::W8, &ds);
    let w4 = tiny_net(BitWidth::W4, &ds);
    println!(
        "{:<8} {:<8} {:>4} {:>9} {:>6} {:>9} {:>7} {:>9} {:>9}",
        "workers", "gap_us", "ok", "degraded", "shed", "deadline", "failed", "p50_us", "p99_us"
    );
    rule(76);
    let mut rows: Vec<MeasuredRow> = Vec::new();
    for &workers in &WORKER_COUNTS {
        for &gap in &LOAD_GAPS_US {
            let mut registry = ModelRegistry::new();
            registry
                .register(
                    "cnn",
                    vec![("w8".into(), w8.clone()), ("w4".into(), w4.clone())],
                )
                .expect("verified variants register");
            let row = measured_run(registry, workers, gap, &ds);
            println!(
                "{:<8} {:<8} {:>4} {:>9} {:>6} {:>9} {:>7} {:>9} {:>9}",
                row.workers,
                row.gap_us,
                row.ok,
                row.degraded,
                row.shed,
                row.deadline,
                row.failed,
                row.p50_us,
                row.p99_us
            );
            rows.push(row);
        }
    }

    let heaviest = *LOAD_GAPS_US.last().expect("non-empty sweep");
    let p99_at = |workers: usize| {
        rows.iter()
            .find(|r| r.workers == workers && r.gap_us == heaviest)
            .map(|r| r.p99_us)
            .expect("row measured")
    };
    let (p99_1w, p99_4w) = (p99_at(1), p99_at(4));
    let cores = available_cores();
    rule(76);
    // Same rule as the walk-scaling bench: the 4-worker latency target
    // only means something when 4 workers can actually run in parallel.
    if cores >= 4 {
        println!(
            "4-worker p99 at {heaviest}us gaps: {p99_4w}us vs 1-worker {p99_1w}us (target: <=)"
        );
    } else {
        println!(
            "4-worker p99 at {heaviest}us gaps: {p99_4w}us vs 1-worker {p99_1w}us — \
             target skipped (host has {cores} core{})",
            if cores == 1 { "" } else { "s" }
        );
    }

    if let Some(path) = bench_json_out_path() {
        let json_rows = rows.iter().map(|r| {
            let mut obj = JsonObject::new();
            obj.int("workers", r.workers)
                .int("inter_arrival_us", r.gap_us as usize)
                .int("ok", r.ok as usize)
                .int("ok_degraded", r.degraded as usize)
                .int("shed", r.shed as usize)
                .int("deadline", r.deadline as usize)
                .int("failed", r.failed as usize)
                .int("p50_us", r.p50_us as usize)
                .int("p99_us", r.p99_us as usize);
            obj.render()
        });
        let mut root = JsonObject::new();
        root.string("bench", "table_serve_load")
            .string("model", "cnn[w8,w4] (mobilenet_like_residual 8px)")
            .raw("host", host_meta().render())
            .int("requests_per_row", REQUESTS)
            .raw("latency", json_array(json_rows))
            .int("available_parallelism", cores);
        gated_target(&mut root, "meets_4w_p99_target", p99_4w <= p99_1w, 4);
        write_json(&path, &root.render());
    }
}
