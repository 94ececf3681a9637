//! `eval_mixq128`: a closed loop with one caller timing
//! `IntNetwork::evaluate_batch(dataset, 8)` on MobileNetV1 128_0.25, cut
//! by `assign_bits` to a 256 KiB flash / 80 KiB RAM budget. Each call
//! evaluates one batch of eight images, cycling over eight batches.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use mixq_core::convert::IntNetwork;
use mixq_data::{Dataset, DatasetSpec, SyntheticKind};
use mixq_kernels::{simd, OpCounts, ReferenceBackend, SimdLevel};
use mixq_mcu::CortexM7CycleModel;
use mixq_tensor::{Shape, Tensor};

use crate::harness::{digest, median, sustained, Args, Latencies, Report};
use crate::models::{setup_eval, SetupTimes, EVAL_ASSIGNMENT, EVAL_CLASSES, EVAL_RES};
use crate::walk::Replay;
use crate::{alloc, SETUPS};

const BATCH: usize = 8;
const BATCHES: usize = 8;

/// `ds` cut into datasets of `batch` consecutive samples (a partial tail
/// is dropped).
pub(crate) fn split(ds: &Dataset, batch: usize) -> Vec<Dataset> {
    let shape = ds.images().shape();
    let item = shape.item_volume();
    (0..ds.len() / batch)
        .map(|b| {
            let images = Tensor::from_vec(
                Shape::new(batch, shape.h, shape.w, shape.c),
                ds.images().data()[b * batch * item..(b + 1) * batch * item].to_vec(),
            )
            .expect("slice matches its shape");
            let labels = ds.labels()[b * batch..(b + 1) * batch].to_vec();
            Dataset::new(images, labels, ds.num_classes())
                .expect("a slice of a dataset is a dataset")
        })
        .collect()
}

pub fn run(args: &Args, report: &mut Report, trace_dir: &Path, stamp: &str) -> String {
    let mut out = String::new();
    let ds = DatasetSpec::new(SyntheticKind::Gratings, EVAL_RES, EVAL_RES, 3, EVAL_CLASSES)
        .with_samples(BATCH * BATCHES)
        .generate(args.seed);
    let batches = split(&ds, BATCH);
    // The scalar reference's logits on one batch, from a copy built
    // before the baseline so that it does not count in host_mem_bytes.
    let reference = {
        let mut reference = setup_eval(ds.images(), &mut SetupTimes::default()).net;
        reference.select_backend(&ReferenceBackend);
        simd::set_forced(Some(SimdLevel::Scalar));
        let (logits, _) = reference.infer_batch(batches[0].images());
        simd::set_forced(None);
        logits.concat()
    };

    let baseline = alloc::reset_peak();
    let mut times = Vec::with_capacity(SETUPS);
    let mut model = None;
    for _ in 0..SETUPS {
        drop(model.take());
        let mut t = SetupTimes::default();
        model = Some(setup_eval(ds.images(), &mut t));
        times.push(t);
    }
    let model = model.expect("at least one set-up");
    let net = &model.net;
    let med = |f: fn(&SetupTimes) -> f64| median(&mut times.iter().map(f).collect::<Vec<_>>());
    report.set("setup_s", med(|t| t.total));
    report.set("core.assign.s", med(|t| t.assign));
    report.set("core.convert.s", med(|t| t.convert));
    report.set("verify.s", med(|t| t.verify));
    report.set("bench.setups", SETUPS as f64);
    report.set("core.prepacked_bytes", net.prepacked_bytes() as f64);
    report.set("flash_bytes", net.flash_bytes() as f64);
    report.set("peak_ram_bytes", net.peak_ram_bytes() as f64);
    out += &format!(
        "assignment {} | flash {} B | peak RAM {} B | prepacked {} B | {} nodes\n",
        model.assignment,
        net.flash_bytes(),
        net.peak_ram_bytes(),
        net.prepacked_bytes(),
        net.graph().len()
    );

    // Output checks before timing.
    report.check(model.assignment == EVAL_ASSIGNMENT, || {
        format!("assignment {} != {EVAL_ASSIGNMENT}", model.assignment)
    });
    report.check(model.report.ok(), || {
        format!("verify_graph: {}", model.report.render())
    });
    let logits = net.infer_batch(batches[0].images()).0.concat();
    report.check(digest(&logits) == digest(&reference), || {
        format!(
            "logits digest {:016x} != scalar reference {:016x}",
            digest(&logits),
            digest(&reference)
        )
    });
    let mut distinct = logits.clone();
    distinct.sort_unstable();
    distinct.dedup();
    out += &format!(
        "reference check: {BATCH} items, digest {:016x}, {} distinct logits\n",
        digest(&logits),
        distinct.len()
    );

    // A warm-up sweep records what each batch must return; memory is read
    // after set-up and warm-up. Then the timed closed loop.
    let expected: Vec<(f32, OpCounts)> = batches
        .iter()
        .map(|b| net.evaluate_batch(b, BATCH))
        .collect();
    report.set("host_mem_bytes", (alloc::peak() - baseline) as f64);
    let phase = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let capacity = (phase.as_secs_f64() * 100.0) as usize + 1;
    let mut latencies = Latencies::with_capacity(capacity);
    let mut call_us = Vec::with_capacity(capacity);
    let mut total_ops = OpCounts::default();
    let (mut calls, mut bad_calls) = (0u64, 0u64);
    let start = Instant::now();
    while calls == 0 || start.elapsed() < phase {
        let b = calls as usize % BATCHES;
        let t = Instant::now();
        let got = net.evaluate_batch(black_box(&batches[b]), BATCH);
        let us = (t.elapsed().as_micros() as u64).max(1);
        latencies.push(us);
        call_us.push(us);
        calls += 1;
        total_ops += got.1;
        if got != expected[b] {
            bad_calls += 1;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let samples = calls * BATCH as u64;
    report.attempted = samples;
    report.failed = bad_calls * BATCH as u64;
    report.check(bad_calls == 0, || {
        format!("{bad_calls} of {calls} calls changed accuracy or op counts")
    });
    let p50 = latencies.percentile(50.0).unwrap_or(0);
    let p90 = latencies.percentile(90.0).unwrap_or(0);
    let p99 = latencies.percentile(99.0).unwrap_or(0);
    let mut rates: Vec<f64> = call_us
        .iter()
        .map(|&us| BATCH as f64 * 1e6 / us as f64)
        .collect();
    report.set("samples_per_s", sustained(&mut rates));
    report.set("latency_p90_us", p90 as f64);
    report.set("bench.latency.us_p50", p50 as f64);
    report.set("bench.latency.us_p99", p99 as f64);
    report.set("bench.latency_samples", latencies.count() as f64);
    report.set("ok_share", (calls - bad_calls) as f64 / calls as f64);
    let cycles = CortexM7CycleModel::default().cycles_from_counts(&total_ops);
    report.set("mcu_cycles_per_sample", cycles as f64 / samples as f64);
    let walk_us = elapsed * 1e6 / samples as f64;
    out += &format!(
        "{calls} calls of {BATCH} samples in {elapsed:.2} s; call latency p50 {p50} us, \
         p90 {p90} us, p99 {p99} us over {} calls\n",
        latencies.count()
    );

    if args.trace {
        out += &trace(
            net, &batches, &expected, phase, walk_us, report, trace_dir, stamp,
        );
    }
    out
}

/// The traced run: replays the same batches node by node, each replay
/// right after an untraced `evaluate_batch` call on the same batch so
/// that both see the same host; checks that the replay's logits and op
/// counts equal the untraced path's, and reports per-node times.
#[allow(clippy::too_many_arguments)]
fn trace(
    net: &IntNetwork,
    batches: &[Dataset],
    evaluated: &[(f32, OpCounts)],
    phase: Duration,
    est_walk_us: f64,
    report: &mut Report,
    trace_dir: &Path,
    stamp: &str,
) -> String {
    let expected: Vec<(Vec<i32>, OpCounts)> = batches
        .iter()
        .map(|b| {
            let (logits, ops) = net.infer_batch(b.images());
            (logits.concat(), ops)
        })
        .collect();
    report.check(
        expected.iter().zip(evaluated).all(|(e, v)| e.1 == v.1),
        || "infer_batch and evaluate_batch charge different op counts".into(),
    );
    // Room for every span of the phase at several times the walk rate
    // the timed loop saw.
    let max_walks = (phase.as_secs_f64() * 4e6 / (est_walk_us * BATCH as f64)) as usize + BATCHES;
    let mut replay = Replay::new(net, Instant::now(), max_walks);
    let mut mismatches = 0u64;
    let mut untraced_ns = 0u128;
    let start = Instant::now();
    let mut w = 0usize;
    while start.elapsed() < phase || !w.is_multiple_of(BATCHES) {
        let b = w % BATCHES;
        let t = Instant::now();
        black_box(net.evaluate_batch(black_box(&batches[b]), BATCH));
        untraced_ns += t.elapsed().as_nanos();
        if replay.run(batches[b].images(), 0, BATCH) != expected[b] {
            mismatches += 1;
        }
        w += 1;
    }
    report.check(mismatches == 0, || {
        format!("{mismatches} replayed walks differ from the untraced path")
    });
    let walk_us = untraced_ns as f64 / 1e3 / replay.samples() as f64;
    let traced_us = replay.walk_us_per_sample();
    report.set("kernels.walk.us_per_sample", walk_us);
    report.set("bench.trace_overhead_share", traced_us / walk_us - 1.0);
    let table = replay.finish(report);
    let path = trace_dir.join("eval_mixq128.jsonl");
    if let Err(e) = replay.write_spans(&path, stamp) {
        report.check(false, || format!("writing {}: {e}", path.display()));
    }
    format!(
        "traced replay: {w} walks, {} samples, each after an untraced call; walk \
         {traced_us:.1} us/sample traced vs {walk_us:.1} untraced\n{table}spans: {}\n",
        replay.samples(),
        path.display()
    )
}
