//! Conversion of a trained fake-quantized network `g(x)` into the
//! integer-only deployment model `g'(x)` (paper §4).
//!
//! For every `conv → batch-norm → quant-act` block the transfer function
//! (Eq. 3) is rewritten over integer codes (Eq. 4):
//!
//! ```text
//! Y = quant_act(Zy + (S_i·S_w/S_o)·(γ/σ)·(Φ + Bq)),
//! Φ = Σ (X − Zx)(W − Zw),   Bq = round((B − µ + β·σ/γ)/(S_i·S_w))
//! ```
//!
//! and the per-channel multiplier `M = (S_i·S_w/S_o)(γ/σ)` is decomposed as
//! `M0·2^N0` (Eq. 5) — the **Integer Channel-Normalization** activation.
//! The [`QuantScheme`] selects how the multiplier is realized: folded into
//! the weights per layer (PL+FB), stored per channel (PL+ICN / PC+ICN), or
//! expanded into exact integer thresholds (PC+Thresholds).

use std::ops::Range;

use mixq_data::Dataset;
use mixq_kernels::{
    simd, ActivationArena, AnyOp, Backend, GraphRun, KernelChoice, OpCounts, QActivation, QAdd,
    QAvgPool, QConv2d, QConvWeights, QGraph, QLinear, ReferenceBackend, Requantizer,
    ThresholdChannel, WeightOffset,
};
use mixq_nn::qat::{ConvBlock, QatMode, QatNetwork};
use mixq_nn::ConvKind;
use mixq_quant::{BitWidth, ChannelParams, FixedPointMultiplier, Granularity, QuantParams};
use mixq_tensor::{Shape, Tensor};

use crate::memory::QuantScheme;
use crate::MixQError;

/// Smallest |γ| treated as non-degenerate (a trained batch-norm never gets
/// near this; guards the `β·σ/γ` term of Eq. 4).
const GAMMA_EPS: f32 = 1e-6;

/// The integer-only deployment network `g'(x)`: a [`QGraph`] of integer
/// kernels plus the input quantizer.
///
/// Inference, flash accounting and peak-RAM accounting all delegate to the
/// graph — the network is a thin façade that adds input quantization and
/// dataset-level evaluation.
///
/// See the [crate-level example](crate) and `examples/quickstart.rs`.
#[derive(Debug, Clone, PartialEq)]
pub struct IntNetwork {
    input_quant: QuantParams,
    input_shape: Shape,
    graph: QGraph,
    scheme: QuantScheme,
}

impl IntNetwork {
    /// The deployment scheme this network was converted with.
    pub fn scheme(&self) -> QuantScheme {
        self.scheme
    }

    /// The executable deployment graph.
    pub fn graph(&self) -> &QGraph {
        &self.graph
    }

    /// Mutable access to the deployment graph — deployment-time rewrites
    /// and fault-injection tests forge nodes through this. A mutated
    /// graph carries no proof: re-run `mixq-verify` before trusting it
    /// (the serving registry does so on registration).
    pub fn graph_mut(&mut self) -> &mut QGraph {
        &mut self.graph
    }

    /// The convolution layers, in execution order.
    pub fn layers(&self) -> Vec<&QConv2d> {
        self.graph.convs()
    }

    /// The classifier head.
    ///
    /// # Panics
    ///
    /// Panics if the graph has no head (a converted network always does).
    pub fn linear(&self) -> &QLinear {
        self.graph.head().expect("converted network has a head")
    }

    /// The 8-bit input quantizer.
    pub fn input_quant(&self) -> &QuantParams {
        &self.input_quant
    }

    /// The single-item input shape the network was converted with
    /// (`(1, h, w, c)`).
    pub fn input_shape(&self) -> Shape {
        self.input_shape
    }

    /// Number of classifier outputs (logits per sample).
    pub fn num_classes(&self) -> usize {
        self.linear().out_features()
    }

    /// Checks an untrusted request tensor against the network's input
    /// declaration, returning its batch size — the non-panicking serving
    /// boundary the `try_*` inference APIs and `mixq-serve` admission run
    /// before any kernel touches the data.
    ///
    /// # Errors
    ///
    /// [`MixQError::EmptyBatch`] for a zero-item batch,
    /// [`MixQError::InputLengthMismatch`] when the backing buffer length
    /// disagrees with the declared shape, and
    /// [`MixQError::InputShapeMismatch`] when the per-item shape is not
    /// the network's input shape (oversized batches of wrong-shaped items
    /// included).
    pub fn validate_request(&self, images: &Tensor<f32>) -> Result<usize, MixQError> {
        let shape = images.shape();
        if shape.n == 0 {
            return Err(MixQError::EmptyBatch);
        }
        if images.data().len() != shape.volume() {
            return Err(MixQError::InputLengthMismatch {
                expected: shape.volume(),
                got: images.data().len(),
            });
        }
        if shape.with_batch(1) != self.input_shape {
            return Err(MixQError::InputShapeMismatch {
                expected: self.input_shape,
                got: shape,
            });
        }
        Ok(shape.n)
    }

    /// The kernel implementation each graph node resolved to, in schedule
    /// order — all `DirectConv` for a [`ReferenceBackend`] conversion.
    pub fn kernel_choices(&self) -> Vec<KernelChoice> {
        self.graph.kernel_choices()
    }

    /// Re-resolves every node's kernel against a different backend without
    /// re-running the conversion — logits are bit-identical across
    /// backends, so retargeting is free of accuracy effects.
    ///
    /// # Panics
    ///
    /// Panics if the backend selects a kernel some node does not support.
    pub fn select_backend(&mut self, backend: &dyn Backend) {
        self.graph.select_kernels(backend);
    }

    /// Quantizes a float image into the input activation.
    ///
    /// # Panics
    ///
    /// Panics if the image is not a single item of the expected shape.
    pub fn quantize_input(&self, image: &Tensor<f32>) -> QActivation {
        assert_eq!(image.shape(), self.input_shape, "input shape");
        self.quantize_input_items_pooled(image, 0, 1, &mut ActivationArena::new())
    }

    /// Runs integer-only inference on one float image, returning the `i32`
    /// logits and the operation counts.
    pub fn infer(&self, image: &Tensor<f32>) -> (Vec<i32>, OpCounts) {
        let run = self.infer_detailed(image);
        let ops = run.total_ops();
        (run.into_logits(), ops)
    }

    /// Runs integer-only inference keeping the full per-layer ledger — the
    /// record cycle models turn into per-layer latency breakdowns.
    pub fn infer_detailed(&self, image: &Tensor<f32>) -> GraphRun {
        self.graph.run(self.quantize_input(image))
    }

    /// [`IntNetwork::infer`] behind the request validation of
    /// [`IntNetwork::validate_request`]: a wrong-shape, wrong-length or
    /// batched tensor comes back as a typed [`MixQError`] instead of a
    /// panic.
    ///
    /// # Errors
    ///
    /// See [`IntNetwork::validate_request`]; a multi-item batch is an
    /// [`MixQError::InputShapeMismatch`] here (use
    /// [`IntNetwork::try_infer_batch`]).
    pub fn try_infer(&self, image: &Tensor<f32>) -> Result<(Vec<i32>, OpCounts), MixQError> {
        let batch = self.validate_request(image)?;
        if batch != 1 {
            return Err(MixQError::InputShapeMismatch {
                expected: self.input_shape,
                got: image.shape(),
            });
        }
        Ok(self.infer(image))
    }

    /// [`IntNetwork::infer_batch`] behind the request validation of
    /// [`IntNetwork::validate_request`] — the serving layer's workhorse.
    ///
    /// # Errors
    ///
    /// See [`IntNetwork::validate_request`].
    pub fn try_infer_batch(
        &self,
        images: &Tensor<f32>,
    ) -> Result<(Vec<Vec<i32>>, OpCounts), MixQError> {
        self.validate_request(images)?;
        Ok(self.infer_batch(images))
    }

    /// Predicted class of one image.
    pub fn predict(&self, image: &Tensor<f32>) -> usize {
        let (logits, _) = self.infer(image);
        argmax(&logits)
    }

    /// Quantizes `count` consecutive items of a stacked `(N, h, w, c)`
    /// image tensor, starting at `start`, into **one** batched activation
    /// `(count, h, w, c)`, drawing code scratch and packed storage from
    /// `arena` — together with
    /// [`QGraph::infer_pooled`](mixq_kernels::QGraph::infer_pooled), the
    /// allocation-free steady-state inference path. Every input
    /// quantization of the network runs through it, on
    /// [`simd::quantize::quantize_codes`] at the active SIMD level
    /// (bit-identical to [`QuantParams::quantize`] at every level).
    ///
    /// # Panics
    ///
    /// Panics if the tensor's item shape disagrees with the network input,
    /// the range is out of bounds, or `count` is zero.
    pub fn quantize_input_items_pooled(
        &self,
        images: &Tensor<f32>,
        start: usize,
        count: usize,
        arena: &mut ActivationArena,
    ) -> QActivation {
        assert!(count > 0, "batch must hold at least one item");
        assert_eq!(
            images.shape().with_batch(1),
            self.input_shape,
            "input item shape"
        );
        assert!(start + count <= images.shape().n, "batch range");
        let item = self.input_shape.volume();
        let mut codes = arena.take_scratch();
        codes.clear();
        codes.resize(count * item, 0);
        simd::quantize::quantize_codes(
            simd::active_level(),
            &self.input_quant,
            &images.data()[start * item..(start + count) * item],
            &mut codes,
        );
        let act = QActivation::from_codes_in(
            self.input_shape.with_batch(count),
            &codes,
            BitWidth::W8,
            self.input_quant.zero_point() as u8,
            arena.take_packed(),
        );
        arena.put_scratch(codes);
        act
    }

    /// Runs integer-only inference on a stacked `(N, h, w, c)` image
    /// tensor in **one graph walk**, returning the per-sample logits (one
    /// `Vec` per item, in order) and the total op counts. Bit-identical to
    /// N [`IntNetwork::infer`] calls; the batch amortizes per-layer
    /// dispatch and streams each node's prepacked weights across all
    /// samples.
    pub fn infer_batch(&self, images: &Tensor<f32>) -> (Vec<Vec<i32>>, OpCounts) {
        let batch = images.shape().n;
        let mut arena = ActivationArena::new();
        let mut logits = Vec::new();
        let mut ops = OpCounts::default();
        let x = self.quantize_input_items_pooled(images, 0, batch, &mut arena);
        self.graph
            .infer_pooled(x, &mut arena, &mut logits, &mut ops);
        let classes = self.linear().out_features();
        let per_sample = logits.chunks(classes).map(<[i32]>::to_vec).collect();
        (per_sample, ops)
    }

    /// Classification accuracy over a dataset plus total op counts —
    /// [`IntNetwork::evaluate_batch`] one sample at a time.
    ///
    /// The whole evaluation shares one activation arena: code scratch and
    /// packed activation storage are recycled across samples, so the loop
    /// allocates nothing after its first iteration (asserted by the
    /// `allocation_free` integration test).
    pub fn evaluate(&self, dataset: &Dataset) -> (f32, OpCounts) {
        self.evaluate_batch(dataset, 1)
    }

    /// Classification accuracy over a dataset, walking the graph once per
    /// `batch` samples: each walk quantizes the next `batch` images into
    /// one stacked activation and sweeps every layer across all of them,
    /// so per-layer dispatch and prepacked-weight streaming are amortized.
    /// Accuracy and `OpCounts` are bit-identical to the sample-at-a-time
    /// path (asserted by the batch proptests); only wall-clock changes.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn evaluate_batch(&self, dataset: &Dataset, batch: usize) -> (f32, OpCounts) {
        assert!(batch > 0, "batch size must be positive");
        if dataset.is_empty() {
            return (0.0, OpCounts::default());
        }
        let n = dataset.len();
        let (correct, ops) = self.evaluate_batches(dataset, batch, 0..n.div_ceil(batch));
        (correct as f32 / n as f32, ops)
    }

    /// Walks the dataset's batches `batches` (batch `b` holds samples
    /// `b·batch..`, the dataset's last batch possibly partial) through one
    /// arena, returning the correctly classified count and the ledger.
    fn evaluate_batches(
        &self,
        dataset: &Dataset,
        batch: usize,
        batches: Range<usize>,
    ) -> (usize, OpCounts) {
        let mut arena = ActivationArena::new();
        let mut logits = Vec::new();
        let mut ops = OpCounts::default();
        let mut correct = 0usize;
        let classes = self.linear().out_features();
        for b in batches {
            let start = b * batch;
            let count = batch.min(dataset.len() - start);
            let x = self.quantize_input_items_pooled(dataset.images(), start, count, &mut arena);
            self.graph
                .infer_pooled(x, &mut arena, &mut logits, &mut ops);
            for (j, row) in logits.chunks(classes).enumerate() {
                if argmax(row) == dataset.labels()[start + j] {
                    correct += 1;
                }
            }
        }
        (correct, ops)
    }

    /// [`IntNetwork::evaluate`] sharded across `workers` threads —
    /// [`IntNetwork::evaluate_parallel_batch`] with single-sample batches.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn evaluate_parallel(&self, dataset: &Dataset, workers: usize) -> (f32, OpCounts) {
        self.evaluate_parallel_batch(dataset, workers, 1)
    }

    /// [`IntNetwork::evaluate_batch`] sharded across `workers` threads
    /// (`std::thread::scope`), one arena per worker. The shards are
    /// **whole batches**, not samples: the dataset is split into
    /// `⌈n / batch⌉` batches first and each worker walks a contiguous run
    /// of them, so every graph walk keeps its full batch width (only the
    /// final batch of the dataset may be partial). Accuracy and `OpCounts`
    /// are identical to the sequential path — batches are disjoint and the
    /// ledger sums are order-independent.
    ///
    /// # Panics
    ///
    /// Panics if `workers` or `batch` is zero.
    pub fn evaluate_parallel_batch(
        &self,
        dataset: &Dataset,
        workers: usize,
        batch: usize,
    ) -> (f32, OpCounts) {
        assert!(workers > 0, "need at least one worker");
        assert!(batch > 0, "batch size must be positive");
        if dataset.is_empty() {
            return (0.0, OpCounts::default());
        }
        let n = dataset.len();
        let num_batches = n.div_ceil(batch);
        let workers = workers.min(num_batches);
        let chunk = num_batches.div_ceil(workers);
        let mut results = vec![(0usize, OpCounts::default()); workers];
        std::thread::scope(|s| {
            for (w, slot) in results.iter_mut().enumerate() {
                let batches = w * chunk..((w + 1) * chunk).min(num_batches);
                s.spawn(move || *slot = self.evaluate_batches(dataset, batch, batches));
            }
        });
        let (correct, ops) = results
            .into_iter()
            .fold((0usize, OpCounts::default()), |(c, o), (c2, o2)| {
                (c + c2, o + o2)
            });
        (correct as f32 / n as f32, ops)
    }

    /// A copy of the network whose threshold tables are saturated to the
    /// INT16 storage range Table 2's footprint implies — what a deployment
    /// that stores tables as `int16_t` actually executes. No-op for
    /// non-threshold schemes. See the `ablation_mixed_precision` bench for
    /// the end-to-end accuracy comparison.
    pub fn with_saturated_thresholds(&self) -> IntNetwork {
        let mut net = self.clone();
        for node in net.graph.nodes_mut() {
            if let AnyOp::Conv(c) = node.op_mut() {
                *c = QConv2d::new(
                    c.weights().clone(),
                    c.geometry(),
                    c.requant().saturated_i16(),
                );
            }
        }
        net
    }

    /// Peak RAM of the inference (Eq. 7 evaluated on the *actual* converted
    /// tensors): the liveness-planned high-water mark of the graph's
    /// schedule, with each tensor at its deployed precision. On a chain
    /// this is the classic largest input+output pair; on a residual graph
    /// the pending skip tensor is priced too, and the value matches the
    /// executor's measured `GraphRun::peak_live_bytes` exactly.
    pub fn peak_ram_bytes(&self) -> usize {
        self.peak_ram_bytes_batch(1)
    }

    /// [`IntNetwork::peak_ram_bytes`] for batch-N inference: every tensor
    /// of the live set carries the batch dimension, so the Eq. 7 peak
    /// scales with the batch — the price of amortizing weight streaming
    /// across samples, which a deployment must trade against its `M_RW`.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn peak_ram_bytes_batch(&self, batch: usize) -> usize {
        assert!(batch > 0, "batch size must be positive");
        self.graph
            .peak_ram_bytes(self.input_shape.with_batch(batch), BitWidth::W8)
    }

    /// Largest transient scratch buffer any node needs with its selected
    /// kernel at batch N (the im2col expansion widens to `K × N·cols`);
    /// zero for a reference-selected graph.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn peak_scratch_bytes_batch(&self, batch: usize) -> usize {
        assert!(batch > 0, "batch size must be positive");
        self.graph
            .peak_scratch_bytes(self.input_shape.with_batch(batch), BitWidth::W8)
    }

    /// Read-only bytes of the blocked-GEMM weight panels the deployment
    /// graph caches ([`QGraph::prepacked_bytes`](mixq_kernels::QGraph::prepacked_bytes))
    /// — flash-side accounting, separate from the Table-1 model of
    /// [`IntNetwork::flash_bytes`].
    pub fn prepacked_bytes(&self) -> usize {
        self.graph.prepacked_bytes()
    }

    /// Actual flash bytes of this network: packed weights plus every static
    /// parameter at its §4.1 datatype. Cross-checked against the Table-1
    /// memory model in the integration tests.
    pub fn flash_bytes(&self) -> usize {
        self.graph.flash_bytes()
    }
}

fn argmax(logits: &[i32]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by_key(|&(_, v)| *v)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// The granularity a scheme quantizes weights with.
pub fn scheme_granularity(scheme: QuantScheme) -> Granularity {
    if scheme.is_per_channel() {
        Granularity::PerChannel
    } else {
        Granularity::PerLayer
    }
}

/// Converts a trained fake-quantized network into an integer-only model
/// with the reference kernel backend (direct kernels on every node) —
/// [`convert_with_backend`] with [`ReferenceBackend`].
///
/// # Errors
///
/// See [`convert_with_backend`].
pub fn convert(net: &QatNetwork, scheme: QuantScheme) -> Result<IntNetwork, MixQError> {
    convert_with_backend(net, scheme, &ReferenceBackend)
}

/// Converts a trained fake-quantized network into an integer-only model,
/// resolving every graph node's kernel implementation through `backend` at
/// build time. All backends produce bit-identical logits; they differ in
/// the selected dataflow per node ([`KernelChoice`]) and therefore in the
/// modeled cycles and transient scratch RAM.
///
/// The network must be in fake-quant mode with a calibrated input
/// quantizer; its batch-norm statistics are read as frozen inference
/// parameters (the paper freezes them after the first epoch).
///
/// # Errors
///
/// [`MixQError::NotCalibrated`] / [`MixQError::NotFakeQuantized`] when the
/// network is not ready for deployment conversion.
pub fn convert_with_backend(
    net: &QatNetwork,
    scheme: QuantScheme,
    backend: &dyn Backend,
) -> Result<IntNetwork, MixQError> {
    let input_quant = *net.input_quant().ok_or(MixQError::NotCalibrated)?;
    if net.mode() != QatMode::FakeQuant {
        return Err(MixQError::NotFakeQuantized);
    }
    let granularity = scheme_granularity(scheme);
    let mut graph = QGraph::with_input(net.input_shape(), BitWidth::W8);
    // Scale and zero-point of the tensor flowing *into* each block.
    let mut s_in = input_quant.scale();
    let mut z_in = input_quant.zero_point();
    // Tensor id and scale of each block's (post-residual) output, so skip
    // connections can reference their source branch in the DAG.
    let mut cur_id = 0usize;
    let mut out_ids = Vec::with_capacity(net.num_blocks());
    let mut out_scales = Vec::with_capacity(net.num_blocks());
    for (i, block) in net.blocks().iter().enumerate() {
        let out_q = block.act().quant_params();
        let layer = convert_block(block, scheme, granularity, s_in, z_in)?;
        let kind = if block.conv().kind() == ConvKind::Depthwise {
            "dw"
        } else {
            "conv"
        };
        cur_id = graph.push_node(format!("{kind}{i}"), layer, &[cur_id]);
        let mut s_cur = out_q.scale();
        if let Some(r) = net.residual_ending_at(i) {
            // Lower the skip join to a requantizing add: both branches are
            // zero-based PACT activations, the output lives on the
            // residual activation's grid.
            let skip = &net.residuals()[r];
            let s_res = skip.act().quant_params().scale();
            let add = QAdd::from_scales(
                s_cur as f64,
                out_scales[skip.from()] as f64,
                s_res as f64,
                0,
                0,
                0,
                skip.act().bits(),
            );
            cur_id = graph.push_node(format!("add{i}"), add, &[cur_id, out_ids[skip.from()]]);
            s_cur = s_res;
        }
        out_ids.push(cur_id);
        out_scales.push(s_cur);
        s_in = s_cur;
        z_in = 0; // PACT activations are zero-based
    }
    graph.push("avgpool", QAvgPool);
    // The classifier consumes the pooled features (same scale/zero-point).
    graph.push("fc", convert_linear(net, granularity, s_in, z_in));
    graph.select_kernels(backend);
    Ok(IntNetwork {
        input_quant,
        input_shape: net.input_shape(),
        graph,
        scheme,
    })
}

fn quantize_weights(
    weights: &Tensor<f32>,
    quantizer: &ChannelParams,
    depthwise: bool,
) -> QConvWeights {
    let codes = quantizer.quantize_tensor(weights);
    let offset = if quantizer.is_per_channel() {
        WeightOffset::PerChannel(
            quantizer
                .iter()
                .map(|q| q.zero_point().clamp(i16::MIN as i32, i16::MAX as i32) as i16)
                .collect(),
        )
    } else {
        WeightOffset::PerLayer(quantizer.channel(0).zero_point().clamp(0, 255) as u8)
    };
    QConvWeights::new(
        weights.shape(),
        depthwise,
        codes.data(),
        quantizer.bits(),
        offset,
    )
}

fn convert_block(
    block: &ConvBlock,
    scheme: QuantScheme,
    granularity: Granularity,
    s_in: f32,
    _z_in: i32,
) -> Result<QConv2d, MixQError> {
    let conv = block.conv();
    let depthwise = conv.kind() == ConvKind::Depthwise;
    let out_q = block.act().quant_params();
    let s_out = out_q.scale();
    let out_bits = block.act().bits();
    let co = conv.out_channels();
    let zy = 0i32;

    let requant;
    let qweights;
    match scheme {
        QuantScheme::PerLayerFolded => {
            // Fold batch-norm into the weights, then per-layer quantize.
            let (w_folded, b_folded, _) = block.folded_params();
            let quantizer =
                ChannelParams::from_granularity(&w_folded, block.weight_bits(), granularity);
            qweights = quantize_weights(&w_folded, &quantizer, depthwise);
            let sw = quantizer.channel(0).scale();
            let m = (s_in as f64 * sw as f64) / s_out as f64;
            let bq: Vec<i32> = b_folded
                .iter()
                .map(|&b| (b as f64 / (s_in as f64 * sw as f64)).round() as i32)
                .collect();
            requant = Requantizer::folded(bq, FixedPointMultiplier::from_real(m), zy, out_bits);
        }
        QuantScheme::PerLayerIcn | QuantScheme::PerChannelIcn => {
            // Honours a learned PACT weight clip when present (PL path).
            let quantizer = block.weight_quantizer(granularity);
            qweights = quantize_weights(conv.weights(), &quantizer, depthwise);
            let mut bq = Vec::with_capacity(co);
            let mut mult = Vec::with_capacity(co);
            for c in 0..co {
                let (m, b) = icn_channel_params(block, c, s_in, s_out, quantizer.channel(c));
                bq.push(b.round() as i32);
                mult.push(FixedPointMultiplier::from_real(m));
            }
            requant = Requantizer::icn(bq, mult, zy, out_bits);
        }
        QuantScheme::PerChannelThresholds => {
            let quantizer = block.weight_quantizer(granularity);
            qweights = quantize_weights(conv.weights(), &quantizer, depthwise);
            let mut channels = Vec::with_capacity(co);
            for c in 0..co {
                let (m, b) = icn_channel_params(block, c, s_in, s_out, quantizer.channel(c));
                // Keep the offset real-valued: thresholds are exact.
                channels.push(ThresholdChannel::from_transfer(m, m * b, zy, out_bits));
            }
            requant = Requantizer::thresholds(channels, zy, out_bits);
        }
    }
    Ok(QConv2d::new(qweights, conv.geometry(), requant))
}

/// Per-channel `(M, Bq)` of Eq. 4: `M = (S_i·S_w/S_o)·(γ/σ)` and
/// `Bq = (B − µ + β·σ/γ)/(S_i·S_w)` (returned unrounded).
fn icn_channel_params(
    block: &ConvBlock,
    c: usize,
    s_in: f32,
    s_out: f32,
    wq: &QuantParams,
) -> (f64, f64) {
    let bn = block.bn();
    let gamma_raw = bn.gamma()[c];
    let gamma = if gamma_raw.abs() < GAMMA_EPS {
        GAMMA_EPS.copysign(if gamma_raw == 0.0 { 1.0 } else { gamma_raw })
    } else {
        gamma_raw
    };
    let sigma = bn.running_std()[c];
    let mu = bn.running_mean()[c];
    let beta = bn.beta()[c];
    let bias = block.conv().bias()[c];
    let sw = wq.scale();
    let si_sw = s_in as f64 * sw as f64;
    let m = si_sw / s_out as f64 * (gamma as f64 / sigma as f64);
    let bq = (bias as f64 - mu as f64 + beta as f64 * sigma as f64 / gamma as f64) / si_sw;
    (m, bq)
}

fn convert_linear(net: &QatNetwork, granularity: Granularity, s_in: f32, z_in: i32) -> QLinear {
    let lin = net.linear();
    let quantizer =
        ChannelParams::from_granularity(lin.weights(), net.linear_weight_bits(), granularity);
    let qweights = quantize_weights(lin.weights(), &quantizer, false);
    // Common logits scale: the largest per-class scale, so every rescale
    // multiplier is ≤ 1 (headroom-safe on the MCU).
    let s_ref: f64 = (0..lin.out_features())
        .map(|o| s_in as f64 * quantizer.channel(o).scale() as f64)
        .fold(f64::MIN, f64::max);
    let mut bq = Vec::with_capacity(lin.out_features());
    let mut rescale = Vec::with_capacity(lin.out_features());
    for o in 0..lin.out_features() {
        let s_o = s_in as f64 * quantizer.channel(o).scale() as f64;
        bq.push((lin.bias()[o] as f64 / s_o).round() as i32);
        rescale.push(FixedPointMultiplier::from_real(s_o / s_ref));
    }
    let _ = z_in; // the kernel reads Zx from the activation itself
    QLinear::new(qweights, bq, Some(rescale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixq_data::{DatasetSpec, SyntheticKind};
    use mixq_nn::qat::MicroCnnSpec;
    use mixq_nn::train::{train, TrainConfig};

    fn trained_net(granularity: Granularity, bits: BitWidth) -> (QatNetwork, Dataset) {
        let ds = DatasetSpec::new(SyntheticKind::Bars, 8, 8, 2, 3)
            .with_samples(96)
            .with_noise(0.05)
            .with_amplitude_base(2.0)
            .generate(31);
        let spec = MicroCnnSpec::new(8, 8, 2, 3, &[6, 8]);
        let mut net = QatNetwork::build(&spec, 77);
        let _ = train(&mut net, &ds, &TrainConfig::fast(6));
        net.calibrate_input(ds.images());
        net.enable_fake_quant(granularity);
        for i in 0..net.num_blocks() {
            net.set_weight_bits(i, bits);
        }
        net.set_linear_weight_bits(bits);
        let _ = train(&mut net, &ds, &TrainConfig::fast(4));
        (net, ds)
    }

    #[test]
    fn conversion_requires_calibration_and_fake_quant() {
        let spec = MicroCnnSpec::new(8, 8, 1, 2, &[4]);
        let net = QatNetwork::build(&spec, 0);
        assert_eq!(
            convert(&net, QuantScheme::PerChannelIcn).unwrap_err(),
            MixQError::NotCalibrated
        );
        let mut net2 = QatNetwork::build(&spec, 0);
        net2.calibrate_input(&Tensor::full(Shape::feature_map(8, 8, 1), 1.0));
        assert_eq!(
            convert(&net2, QuantScheme::PerChannelIcn).unwrap_err(),
            MixQError::NotFakeQuantized
        );
    }

    #[test]
    fn icn_inference_matches_fake_quant_accuracy() {
        let (net, ds) = trained_net(Granularity::PerChannel, BitWidth::W8);
        let int_net = convert(&net, QuantScheme::PerChannelIcn).expect("convertible");
        let fq_acc = mixq_nn::train::evaluate(&net, &ds);
        let (int_acc, ops) = int_net.evaluate(&ds);
        assert!(
            (fq_acc - int_acc).abs() <= 0.05,
            "fake-quant {fq_acc} vs integer {int_acc}"
        );
        assert!(ops.macs > 0);
    }

    #[test]
    fn icn_codes_match_fake_quant_activations_within_one_lsb() {
        let (net, ds) = trained_net(Granularity::PerChannel, BitWidth::W8);
        let int_net = convert(&net, QuantScheme::PerChannelIcn).expect("convertible");
        // Compare the first block's activation codes on a few samples.
        let mut total = 0usize;
        let mut off_by_more = 0usize;
        for i in 0..8 {
            let sample = ds.sample(i);
            // Integer path.
            let mut ops = OpCounts::default();
            let x = int_net.quantize_input(&sample.images);
            let y_int = int_net.layers()[0].execute(&x, &mut ops);
            // Fake-quant path, re-quantized to codes.
            let q_in = net.input_quant().unwrap();
            let x_fq = q_in.fake_quantize_tensor(&sample.images);
            let block = &net.blocks()[0];
            let wq = block
                .weight_quantizer(Granularity::PerChannel)
                .fake_quantize_tensor(block.conv().weights());
            let z = block.conv().forward_with(&x_fq, &wq);
            let z = block.bn().forward_eval(&z);
            let (a, _) = block.act().forward(&z);
            let qp = block.act().quant_params();
            for (idx, &v) in a.data().iter().enumerate() {
                let code_fq = qp.quantize(v) as i64;
                let code_int = y_int.codes()[idx] as i64;
                total += 1;
                if (code_fq - code_int).abs() > 1 {
                    off_by_more += 1;
                }
            }
        }
        assert_eq!(
            off_by_more, 0,
            "codes differing by >1 LSB: {off_by_more}/{total}"
        );
    }

    #[test]
    fn tiled_backend_conversion_is_bit_identical_in_logits() {
        use mixq_kernels::{BackendKind, TiledBackend};
        let (net, ds) = trained_net(Granularity::PerChannel, BitWidth::W4);
        let reference = convert(&net, QuantScheme::PerChannelIcn).expect("convertible");
        let tiled =
            convert_with_backend(&net, QuantScheme::PerChannelIcn, &TiledBackend::default())
                .expect("convertible");
        // Standard convolutions lowered onto the blocked GEMM; depthwise,
        // pool, head and the reference conversion stay direct.
        assert!(tiled.kernel_choices().contains(&KernelChoice::BlockedGemm));
        assert!(reference
            .kernel_choices()
            .iter()
            .all(|&c| c == KernelChoice::DirectConv));
        for i in 0..8 {
            let img = &ds.sample(i).images;
            assert_eq!(reference.infer(img).0, tiled.infer(img).0, "sample {i}");
        }
        // Retargeting an existing network reproduces the build-time choices.
        let mut retargeted = reference.clone();
        retargeted.select_backend(&BackendKind::tiled());
        assert_eq!(retargeted.kernel_choices(), tiled.kernel_choices());
        assert_eq!(retargeted, tiled);
    }

    #[test]
    fn thresholds_agree_with_icn_predictions() {
        let (net, ds) = trained_net(Granularity::PerChannel, BitWidth::W4);
        let icn = convert(&net, QuantScheme::PerChannelIcn).expect("convertible");
        let thr = convert(&net, QuantScheme::PerChannelThresholds).expect("convertible");
        let mut agree = 0usize;
        for i in 0..ds.len() {
            let s = ds.sample(i);
            if icn.predict(&s.images) == thr.predict(&s.images) {
                agree += 1;
            }
        }
        let rate = agree as f32 / ds.len() as f32;
        assert!(rate > 0.9, "ICN vs thresholds agreement too low: {rate}");
    }

    #[test]
    fn thresholds_use_comparisons_not_multiplies() {
        let (net, ds) = trained_net(Granularity::PerChannel, BitWidth::W4);
        let thr = convert(&net, QuantScheme::PerChannelThresholds).expect("convertible");
        let (_, ops) = thr.infer(&ds.sample(0).images);
        assert!(ops.threshold_cmps > 0);
        // Only the classifier rescale and pool division count as requants.
        let icn = convert(&net, QuantScheme::PerChannelIcn).expect("convertible");
        let (_, ops_icn) = icn.infer(&ds.sample(0).images);
        assert!(ops_icn.requants > ops.requants);
    }

    #[test]
    fn folded_scheme_runs_and_eight_bit_stays_accurate() {
        // At 8 bits, folding is nearly lossless — the paper's PL+FB INT8
        // baseline works; the collapse only appears at INT4 (Table 2).
        let ds = DatasetSpec::new(SyntheticKind::Bars, 8, 8, 2, 3)
            .with_samples(96)
            .with_noise(0.05)
            .with_amplitude_base(2.0)
            .generate(31);
        let spec = MicroCnnSpec::new(8, 8, 2, 3, &[6, 8]);
        let mut net = QatNetwork::build(&spec, 77);
        let _ = train(&mut net, &ds, &TrainConfig::fast(6));
        net.calibrate_input(ds.images());
        net.enable_fake_quant(Granularity::PerLayer);
        net.set_fold_bn(true);
        let _ = train(&mut net, &ds, &TrainConfig::fast(4));
        let fq_acc = mixq_nn::train::evaluate(&net, &ds);
        let int_net = convert(&net, QuantScheme::PerLayerFolded).expect("convertible");
        let (int_acc, _) = int_net.evaluate(&ds);
        assert!(
            (fq_acc - int_acc).abs() <= 0.08,
            "PL+FB INT8: fake-quant {fq_acc} vs integer {int_acc}"
        );
    }

    #[test]
    fn per_channel_offsets_cost_inner_loop_subtractions() {
        let (net, ds) = trained_net(Granularity::PerChannel, BitWidth::W8);
        let pc = convert(&net, QuantScheme::PerChannelIcn).expect("convertible");
        let (_, ops_pc) = pc.infer(&ds.sample(0).images);
        assert_eq!(ops_pc.offset_subs, ops_pc.macs, "PC: one sub per MAC");
        let (net_pl, _) = trained_net(Granularity::PerLayer, BitWidth::W8);
        let pl = convert(&net_pl, QuantScheme::PerLayerIcn).expect("convertible");
        let (_, ops_pl) = pl.infer(&ds.sample(0).images);
        assert_eq!(ops_pl.offset_subs, 0, "PL: no in-loop subs");
    }

    #[test]
    fn untrusted_requests_are_rejected_with_typed_errors() {
        let (net, ds) = trained_net(Granularity::PerChannel, BitWidth::W8);
        let int_net = convert(&net, QuantScheme::PerChannelIcn).expect("convertible");
        assert_eq!(int_net.input_shape(), Shape::feature_map(8, 8, 2));
        assert_eq!(int_net.num_classes(), 3);
        // Wrong per-item shape.
        let bad = Tensor::full(Shape::feature_map(4, 4, 2), 0.5);
        assert!(matches!(
            int_net.try_infer(&bad),
            Err(MixQError::InputShapeMismatch { .. })
        ));
        // Oversized request: right item volume, absurd spatial dims.
        let huge = Tensor::full(Shape::new(1, 64, 64, 2), 0.5);
        assert!(matches!(
            int_net.try_infer_batch(&huge),
            Err(MixQError::InputShapeMismatch { .. })
        ));
        // Zero-item batch.
        let empty = Tensor::zeros(Shape::new(0, 8, 8, 2));
        assert!(matches!(
            int_net.try_infer_batch(&empty),
            Err(MixQError::EmptyBatch)
        ));
        // A batch through try_infer (single-sample API) is typed too.
        let two = Tensor::full(Shape::new(2, 8, 8, 2), 0.5);
        assert!(matches!(
            int_net.try_infer(&two),
            Err(MixQError::InputShapeMismatch { .. })
        ));
        // Well-formed requests pass through bit-identically.
        let img = &ds.sample(0).images;
        assert_eq!(
            int_net.try_infer(img).expect("valid").0,
            int_net.infer(img).0
        );
        let (rows, _) = int_net
            .try_infer_batch(&two_stack(&ds))
            .expect("valid batch");
        assert_eq!(rows[0], int_net.infer(&ds.sample(0).images).0);
        assert_eq!(rows[1], int_net.infer(&ds.sample(1).images).0);
    }

    fn two_stack(ds: &Dataset) -> Tensor<f32> {
        let a = &ds.sample(0).images;
        let b = &ds.sample(1).images;
        let mut data = a.data().to_vec();
        data.extend_from_slice(b.data());
        Tensor::from_vec(a.shape().with_batch(2), data).expect("stacked")
    }

    #[test]
    fn flash_bytes_reflects_sub_byte_packing() {
        let (mut net, _) = trained_net(Granularity::PerChannel, BitWidth::W8);
        let w8 = convert(&net, QuantScheme::PerChannelIcn)
            .expect("convertible")
            .flash_bytes();
        for i in 0..net.num_blocks() {
            net.set_weight_bits(i, BitWidth::W4);
        }
        net.set_linear_weight_bits(BitWidth::W4);
        let w4 = convert(&net, QuantScheme::PerChannelIcn)
            .expect("convertible")
            .flash_bytes();
        assert!(w4 < w8, "4-bit packing must shrink flash: {w4} vs {w8}");
    }
}
