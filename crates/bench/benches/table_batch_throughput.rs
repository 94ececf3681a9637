//! Batch-N graph throughput: samples/sec of the residual MobileNet
//! (`mobilenet_like_residual`) for batch ∈ {1, 4, 8, 32} under the
//! reference and tiled backends.
//!
//! Three views:
//!
//! * **deterministic shape math** (`--json`, golden-tested) — the batched
//!   Eq. 7 peak RAM and the selected kernels' im2col scratch per batch
//!   size, plus the read-only footprint of the blocked-GEMM weight
//!   panels; timings are deliberately excluded so the golden stays
//!   byte-stable;
//! * **measured throughput** (stdout and `--bench-json`, never goldened) —
//!   steady-state samples/sec per backend × batch through the pooled
//!   batched inference path;
//! * **bit-identity** — every backend × batch combination must produce
//!   identical logits for the same samples (asserted on every run).
//!
//! Run with: `cargo bench --bench table_batch_throughput`
//! (`--json <path>` writes the deterministic table, `--bench-json <path>`
//! the measured throughput for `scripts/bench-report.sh`,
//! `--backend reference|tiled` and `--batch N` pick the summary line's
//! configuration).

use std::hint::black_box;
use std::time::Instant;

use mixq_bench::harness::{
    backend_arg, batch_arg, bench_json_out_path, host_meta, json_array, json_out_path, rule,
    write_json, JsonObject,
};
use mixq_core::convert::{convert_with_backend, IntNetwork};
use mixq_core::memory::QuantScheme;
use mixq_data::{DatasetSpec, SyntheticKind};
use mixq_kernels::{ActivationArena, Backend, OpCounts, ReferenceBackend, TiledBackend};
use mixq_models::micro::mobilenet_like_residual;
use mixq_nn::qat::QatNetwork;
use mixq_tensor::Tensor;

const BATCHES: [usize; 4] = [1, 4, 8, 32];
const SWEEPS: usize = 7;

/// Steady-state throughput of one backend at one batch size: median wall
/// time of a full sweep over `images` (walking the graph once per `batch`
/// samples through the pooled batched path), as samples/sec. Also returns
/// the logits of the first batch for the bit-identity cross-check.
fn throughput(net: &IntNetwork, images: &Tensor<f32>, batch: usize) -> (f64, Vec<i32>) {
    let n = images.shape().n;
    assert_eq!(n % batch, 0, "sweep uses full batches only");
    let mut arena = ActivationArena::new();
    let mut logits = Vec::new();
    let mut ops = OpCounts::default();
    let mut first_logits = Vec::new();
    let sweep = |arena: &mut ActivationArena,
                 logits: &mut Vec<i32>,
                 ops: &mut OpCounts,
                 mut keep_first: Option<&mut Vec<i32>>| {
        let mut start = 0usize;
        while start < n {
            let x = net.quantize_input_items_pooled(images, start, batch, arena);
            net.graph().infer_pooled(x, arena, logits, ops);
            if start == 0 {
                if let Some(first) = keep_first.take() {
                    first.extend(logits.iter().copied());
                }
            }
            start += batch;
        }
    };
    // Warm-up: grow every arena buffer to its steady capacity, and keep
    // the first batch's logits for the caller's bit-identity check (the
    // timed sweeps below run capture-free).
    sweep(&mut arena, &mut logits, &mut ops, Some(&mut first_logits));
    let mut runs: Vec<f64> = (0..SWEEPS)
        .map(|_| {
            let t = Instant::now();
            sweep(&mut arena, &mut logits, &mut ops, None);
            black_box(&logits);
            t.elapsed().as_secs_f64()
        })
        .collect();
    runs.sort_by(|a, b| a.total_cmp(b));
    let median = runs[runs.len() / 2];
    (n as f64 / median, first_logits)
}

fn main() {
    let res = 32usize;
    let spec = mobilenet_like_residual(res, 3, 8, 4);
    let ds = DatasetSpec::new(SyntheticKind::Bars, res, res, 3, 4)
        .with_samples(32)
        .with_noise(0.05)
        .generate(5);
    let mut net = QatNetwork::build(&spec, 77);
    net.calibrate_input(ds.images());
    net.enable_fake_quant(mixq_quant::Granularity::PerChannel);
    // 4-bit weights — the paper's mixed low-precision regime: the direct
    // kernels extract sub-byte weight codes in place, the blocked GEMM
    // streams panels decoded once at selection.
    for i in 0..net.num_blocks() {
        net.set_weight_bits(i, mixq_quant::BitWidth::W4);
    }
    net.set_linear_weight_bits(mixq_quant::BitWidth::W4);
    let reference = convert_with_backend(&net, QuantScheme::PerChannelIcn, &ReferenceBackend)
        .expect("calibrated network converts");
    let tiled = convert_with_backend(&net, QuantScheme::PerChannelIcn, &TiledBackend::default())
        .expect("calibrated network converts");

    println!(
        "batch throughput — mobilenet_like_residual {res}px (width/8), {} nodes, {} samples",
        reference.graph().len(),
        ds.len()
    );
    println!(
        "blocked-GEMM panels: reference {} B, tiled {} B (read-only, on top of {} B packed flash)",
        reference.prepacked_bytes(),
        tiled.prepacked_bytes(),
        reference.flash_bytes()
    );

    // Deterministic shape math per batch: the Eq. 7 live set and the
    // im2col scratch both learn the batch dimension.
    println!("\n== batched memory model (deterministic; golden-tested) ==");
    println!(
        "{:<7} {:>14} {:>18} {:>15}",
        "batch", "peak RAM B", "scratch (ref) B", "scratch (tiled) B"
    );
    rule(58);
    let mut json_batches = Vec::new();
    for &b in &BATCHES {
        let ram = reference.peak_ram_bytes_batch(b);
        let s_ref = reference.peak_scratch_bytes_batch(b);
        let s_tiled = tiled.peak_scratch_bytes_batch(b);
        println!("{b:<7} {ram:>14} {s_ref:>18} {s_tiled:>15}");
        let mut obj = JsonObject::new();
        obj.int("batch", b)
            .int("peak_ram_bytes", ram)
            .int("peak_scratch_reference", s_ref)
            .int("peak_scratch_tiled", s_tiled);
        json_batches.push(obj.render());
    }

    // Measured steady-state throughput per backend × batch.
    println!("\n== measured host throughput (samples/sec; never goldened) ==");
    println!(
        "{:<7} {:>16} {:>16} {:>10}",
        "batch", "reference", "tiled", "tiled×"
    );
    rule(54);
    let mut thr: Vec<(usize, f64, f64)> = Vec::new();
    let mut logits_at_batch1 = Vec::new();
    for &b in &BATCHES {
        let (sps_ref, lr) = throughput(&reference, ds.images(), b);
        let (sps_tiled, lt) = throughput(&tiled, ds.images(), b);
        // Bit-identity across backend and batch: the first b samples'
        // logits must agree with the batch-1 reference rows.
        assert_eq!(lr, lt, "backends must be bit-identical at batch {b}");
        if b == 1 {
            logits_at_batch1 = lr.clone();
        } else {
            let classes = logits_at_batch1.len();
            assert_eq!(
                &lr[..classes],
                &logits_at_batch1[..],
                "batch-{b} row 0 must equal the batch-1 logits"
            );
        }
        println!(
            "{b:<7} {sps_ref:>16.1} {sps_tiled:>16.1} {:>9.2}x",
            sps_tiled / sps_ref
        );
        thr.push((b, sps_ref, sps_tiled));
    }
    // Whole-run summary under the bench-smoke flags.
    let flagged_backend = backend_arg();
    let flagged_batch = batch_arg();
    let mut flagged = reference.clone();
    flagged.select_backend(&flagged_backend);
    let batch = flagged_batch.min(ds.len());
    let batch = (1..=batch).rev().find(|b| ds.len() % b == 0).unwrap_or(1);
    let (sps, flagged_first) = throughput(&flagged, ds.images(), batch);
    // The flagged walk must reproduce the batch-1 reference logits.
    let classes = logits_at_batch1.len();
    assert_eq!(
        &flagged_first[..classes],
        &logits_at_batch1[..],
        "flagged walk must be bit-identical to the batch-1 logits"
    );
    println!(
        "\nflagged run ({} backend, batch {batch}): {sps:.1} samples/sec",
        flagged_backend.name()
    );

    if let Some(path) = json_out_path() {
        let mut root = JsonObject::new();
        root.string("bench", "table_batch_throughput")
            .string("network", &format!("mobilenet_like_residual_{res}px_w4"))
            .int("nodes", reference.graph().len())
            .raw("batches", json_array(json_batches.clone()))
            .int("prepacked_bytes_reference", reference.prepacked_bytes())
            .int("prepacked_bytes_tiled", tiled.prepacked_bytes())
            .int("flash_bytes", reference.flash_bytes());
        write_json(&path, &root.render());
    }
    if let Some(path) = bench_json_out_path() {
        let mut root = JsonObject::new();
        root.string("bench", "table_batch_throughput")
            .string("network", &format!("mobilenet_like_residual_{res}px_w4"))
            .raw("host", host_meta().render());
        let rows = thr.iter().map(|&(b, r, t)| {
            let mut obj = JsonObject::new();
            obj.int("batch", b)
                .raw("reference_samples_per_sec", format!("{r:.1}"))
                .raw("tiled_samples_per_sec", format!("{t:.1}"));
            obj.render()
        });
        root.raw("throughput", json_array(rows));
        write_json(&path, &root.render());
    }
}
