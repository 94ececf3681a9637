//! Arena-aware packing acceptance: after a warm-up pass, steady-state
//! integer inference through the pooled path
//! (`quantize_input_items_pooled` + `QGraph::infer_pooled`) performs
//! **zero heap allocations** — every code scratch, packed activation and
//! logits buffer is recycled. The same
//! guarantee is asserted at **batch > 1** (the same two calls over a
//! multi-item range) and for the **tiled backend**, whose
//! blocked-GEMM nodes stream their prepacked weight panels and draw the
//! im2col expansion from the arena's auxiliary scratch. The network's
//! depthwise node reads a **4-bit** activation, so the depthwise core's
//! input decode staging must come from that scratch too, on both
//! backends, at batch 1 and batch 4. A conversion with **4-bit weights**
//! in every block and the head repeats both backends at both batch
//! sizes: the direct convs and the head read sub-byte weight codes in
//! place.
//!
//! This file installs a counting global allocator, so it deliberately
//! contains a single test (parallel tests in the same binary would pollute
//! the counter).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mixq::core::convert::{convert, convert_with_backend, IntNetwork};
use mixq::core::memory::QuantScheme;
use mixq::data::{DatasetSpec, SyntheticKind};
use mixq::kernels::{ActivationArena, OpCounts, OpKind, QOp, TiledBackend};
use mixq::nn::qat::{MicroCnnSpec, QatNetwork};
use mixq::quant::{BitWidth, Granularity};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every call to `System`, which upholds the `GlobalAlloc`
// contract; the atomic counter bump has no effect on allocation semantics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_inference_is_allocation_free() {
    // Build a depthwise-separable micro network with a residual skip, so
    // the pooled path covers conv, depthwise, add, pool and head nodes.
    // (Setup may allocate freely; only the steady state is measured.)
    let spec = {
        use mixq::nn::qat::BlockSpec;
        use mixq::nn::ConvKind;
        let std_block = |c: usize, kernel: usize| BlockSpec {
            out_channels: c,
            stride: 1,
            kind: ConvKind::Standard,
            kernel,
        };
        let dw_block = |c: usize| BlockSpec {
            out_channels: c,
            stride: 1,
            kind: ConvKind::Depthwise,
            kernel: 3,
        };
        MicroCnnSpec::new(8, 8, 2, 3, &[4])
            .with_blocks(vec![std_block(4, 3), dw_block(4), std_block(4, 1)])
            .with_residual(0, 2)
    };
    let ds = DatasetSpec::new(SyntheticKind::Bars, 8, 8, 2, 3)
        .with_samples(4)
        .generate(7);
    let mut net = QatNetwork::build(&spec, 13);
    // The first conv emits 4-bit codes: the depthwise block reads a
    // sub-byte input.
    net.set_act_bits(0, BitWidth::W4);
    net.calibrate_input(ds.images());
    net.enable_fake_quant(Granularity::PerChannel);
    let int_net = convert(&net, QuantScheme::PerChannelIcn).expect("convertible");
    let graph = int_net.graph();
    let (in_shape, in_bits) = graph.input_decl().expect("declared input");
    let (_, bits) = graph.tensor_plan(in_shape, in_bits);
    assert!(
        graph
            .nodes()
            .iter()
            .any(|n| n.op().kind() == OpKind::DepthwiseConv && bits[n.inputs()[0]] == BitWidth::W4),
        "a depthwise node reads a 4-bit activation"
    );
    let image = ds.sample(0).images.clone();

    let mut arena = ActivationArena::new();
    let mut logits = Vec::new();
    let mut ops = OpCounts::default();
    // Warm-up: buffers are created and grown to their steady capacities.
    for _ in 0..2 {
        let x = int_net.quantize_input_items_pooled(&image, 0, 1, &mut arena);
        int_net
            .graph()
            .infer_pooled(x, &mut arena, &mut logits, &mut ops);
    }
    let warm_logits = logits.clone();

    // The counter is process-global, and the libtest harness's own thread
    // occasionally allocates concurrently with the measured window. A real
    // steady-state allocation would fire on *every* attempt, so retrying a
    // few times filters the harness noise without weakening the assertion.
    let mut leaked = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..8 {
            let x = int_net.quantize_input_items_pooled(&image, 0, 1, &mut arena);
            int_net
                .graph()
                .infer_pooled(x, &mut arena, &mut logits, &mut ops);
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        leaked = leaked.min(after - before);
        if leaked == 0 {
            break;
        }
    }
    assert_eq!(leaked, 0, "steady-state inference must not touch the heap");
    // And it still computes the same thing.
    assert_eq!(logits, warm_logits);

    // Batch > 1 through the same graph: one walk per 4 samples, all
    // buffers batch-scaled at warm-up and recycled thereafter. The first
    // logits row must reproduce the single-sample result exactly.
    let classes = int_net.linear().out_features();
    let batched_steady = measure_batched(&int_net, ds.images(), 4);
    assert_eq!(
        batched_steady.0, 0,
        "steady-state batch-4 inference must not touch the heap"
    );
    assert_eq!(&batched_steady.1[..classes], &warm_logits[..]);

    // The tiled backend's blocked-GEMM nodes stream their prepacked
    // panels and draw the im2col expansion from the arena's auxiliary
    // scratch — allocation-free at batch > 1 too, with identical logits.
    let tiled_net =
        convert_with_backend(&net, QuantScheme::PerChannelIcn, &TiledBackend::default())
            .expect("convertible");
    assert!(
        tiled_net.prepacked_bytes() > 0,
        "tiled conversion prepacks weight panels"
    );
    let tiled_steady = measure_batched(&tiled_net, ds.images(), 4);
    assert_eq!(
        tiled_steady.0, 0,
        "steady-state prepacked blocked inference must not touch the heap"
    );
    assert_eq!(
        tiled_steady.1, batched_steady.1,
        "backends are bit-identical"
    );
    let tiled_single = measure_batched(&tiled_net, ds.images(), 1);
    assert_eq!(
        tiled_single.0, 0,
        "steady-state batch-1 tiled inference must not touch the heap"
    );
    assert_eq!(tiled_single.1, warm_logits, "backends are bit-identical");

    // 4-bit weights in every block and the head: the reference backend's
    // direct convs and head read the sub-byte codes in place (no node
    // holds a decoded copy, no call decodes one), the tiled backend's
    // blocked nodes stream their panels — both allocation-free at batch 1
    // and 4, and bit-identical.
    for i in 0..net.num_blocks() {
        net.set_weight_bits(i, BitWidth::W4);
    }
    net.set_linear_weight_bits(BitWidth::W4);
    let w4_ref = convert(&net, QuantScheme::PerChannelIcn).expect("convertible");
    let w4_tiled = convert_with_backend(&net, QuantScheme::PerChannelIcn, &TiledBackend::default())
        .expect("convertible");
    assert_eq!(w4_ref.prepacked_bytes(), 0, "direct nodes cache nothing");
    assert!(w4_ref
        .graph()
        .head()
        .is_some_and(|h| h.weights().needs_unpack()));
    for batch in [1, 4] {
        let (leaked_ref, logits_ref) = measure_batched(&w4_ref, ds.images(), batch);
        assert_eq!(
            leaked_ref, 0,
            "steady-state batch-{batch} direct W4 inference must not touch the heap"
        );
        let (leaked_tiled, logits_tiled) = measure_batched(&w4_tiled, ds.images(), batch);
        assert_eq!(
            leaked_tiled, 0,
            "steady-state batch-{batch} tiled W4 inference must not touch the heap"
        );
        assert_eq!(logits_ref, logits_tiled, "backends are bit-identical");
    }
}

/// Warm-up then measured batched steady state: returns the minimum
/// allocation count observed over the retry window and the final logits.
fn measure_batched(
    net: &IntNetwork,
    images: &mixq::tensor::Tensor<f32>,
    batch: usize,
) -> (u64, Vec<i32>) {
    let mut arena = ActivationArena::new();
    let mut logits = Vec::new();
    let mut ops = OpCounts::default();
    for _ in 0..2 {
        let x = net.quantize_input_items_pooled(images, 0, batch, &mut arena);
        net.graph()
            .infer_pooled(x, &mut arena, &mut logits, &mut ops);
    }
    let mut leaked = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..8 {
            let x = net.quantize_input_items_pooled(images, 0, batch, &mut arena);
            net.graph()
                .infer_pooled(x, &mut arena, &mut logits, &mut ops);
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        leaked = leaked.min(after - before);
        if leaked == 0 {
            break;
        }
    }
    (leaked, logits)
}
