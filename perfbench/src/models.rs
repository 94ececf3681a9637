//! The programs under test, built through the public set-up path. The
//! weights come from a fixed seed: the model is part of the program, and
//! only the inputs are drawn from the workload seed.

use std::time::Instant;

use mixq_core::convert::{convert_with_backend, IntNetwork};
use mixq_core::memory::{MemoryBudget, QuantScheme};
use mixq_core::mixed::{assign_bits, MixedPrecisionConfig};
use mixq_kernels::TiledBackend;
use mixq_models::micro::{mobilenet_like, mobilenet_like_residual, network_spec_of};
use mixq_nn::qat::QatNetwork;
use mixq_quant::{BitWidth, Granularity};
use mixq_serve::{BatcherConfig, ModelRegistry, ServeConfig, ServeRuntime};
use mixq_tensor::Tensor;
use mixq_verify::{verify_graph, VerifyReport};

const MODEL_SEED: u64 = 77;
const SCHEME: QuantScheme = QuantScheme::PerChannelIcn;

/// MobileNetV1 128_0.25 with a 1000-class head: the paper's shapes.
pub const EVAL_RES: usize = 128;
pub const EVAL_CLASSES: usize = 1000;
/// 256 KiB flash and 80 KiB RAM: tight enough that Algorithms 1–2 cut a
/// depthwise input to 4 bits and the last pointwise layers to 4 and 2.
pub const EVAL_BUDGET: MemoryBudget = MemoryBudget::new(262_144, 81_920);
pub const EVAL_ASSIGNMENT: &str =
    "w[8888888888888888888888884822] a[88848888888888888888888888888]";

/// The 32px width/8 residual MobileNet: 27 convs and 8 residual adds.
pub const SERVE_RES: usize = 32;
pub const SERVE_CLASSES: usize = 4;
pub const SERVE_MODEL: &str = "cnn";
pub const BATCH_MAX: usize = 8;

/// Seconds spent in each step of one set-up; `total` is their sum.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub total: f64,
    pub assign: f64,
    pub convert: f64,
    pub verify: f64,
    pub register: f64,
    pub start: f64,
}

/// Times `f` and adds its seconds to `total` and to `slot`.
fn step<T>(total: &mut f64, slot: Option<&mut f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    let s = t.elapsed().as_secs_f64();
    *total += s;
    if let Some(slot) = slot {
        *slot += s;
    }
    out
}

fn calibrated(spec: &mixq_nn::qat::MicroCnnSpec, calib: &Tensor<f32>) -> QatNetwork {
    let mut qat = QatNetwork::build(spec, MODEL_SEED);
    qat.calibrate_input(calib);
    qat.enable_fake_quant(Granularity::PerChannel);
    qat
}

/// The eval model, with the bit assignment it was cut to and its
/// verification report.
pub struct EvalModel {
    pub net: IntNetwork,
    pub assignment: String,
    pub report: VerifyReport,
}

/// Build and calibration, `assign_bits`, `convert_with_backend` (tiled,
/// prepacked) and `verify_graph`.
pub fn setup_eval(calib: &Tensor<f32>, times: &mut SetupTimes) -> EvalModel {
    let mut total = 0.0;
    let mut qat = step(&mut total, None, || {
        calibrated(&mobilenet_like(EVAL_RES, 3, 4, EVAL_CLASSES), calib)
    });
    let bits = step(&mut total, Some(&mut times.assign), || {
        let spec = network_spec_of(&qat, "mobilenet_128_0.25");
        let bits = assign_bits(&spec, &MixedPrecisionConfig::new(EVAL_BUDGET, SCHEME))
            .expect("the eval budget is feasible");
        for i in 0..qat.num_blocks() {
            qat.set_weight_bits(i, bits.weight_bits[i]);
            qat.set_act_bits(i, bits.act_bits[i + 1]);
        }
        for (r, &b) in bits.res_bits.iter().enumerate() {
            qat.set_residual_act_bits(r, b);
        }
        qat.set_linear_weight_bits(bits.weight_bits[qat.num_blocks()]);
        bits
    });
    let net = step(&mut total, Some(&mut times.convert), || {
        convert_with_backend(&qat, SCHEME, &TiledBackend::default())
            .expect("calibrated network converts")
    });
    let report = step(&mut total, Some(&mut times.verify), || {
        verify(&net, "eval_mixq128")
    });
    times.total += total;
    EvalModel {
        net,
        assignment: bits.to_string(),
        report,
    }
}

/// `verify_graph` on a converted network's declared input.
pub fn verify(net: &IntNetwork, name: &str) -> VerifyReport {
    let (shape, bits) = net
        .graph()
        .input_decl()
        .expect("converted graphs declare their input");
    verify_graph(name, net.graph(), shape, bits)
}

/// The serving runtime's settings, as in the `table_serve_load` bench.
pub fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_queue_capacity(32)
        .with_shed_watermark(24)
        .with_degrade_watermark(12)
        .with_batcher(BatcherConfig {
            batch_max: BATCH_MAX,
            deadline_us: 500,
        })
        .with_workers(1)
}

/// Build and calibration plus `convert_with_backend` of the served
/// variants, preferred (w8) first, then the w4 overload fallback.
pub fn serve_variants(calib: &Tensor<f32>, times: &mut SetupTimes) -> Vec<(String, IntNetwork)> {
    let mut total = 0.0;
    let mut variants = Vec::with_capacity(2);
    for bits in [BitWidth::W8, BitWidth::W4] {
        let mut qat = step(&mut total, None, || {
            calibrated(
                &mobilenet_like_residual(SERVE_RES, 3, 8, SERVE_CLASSES),
                calib,
            )
        });
        if bits != BitWidth::W8 {
            for i in 0..qat.num_blocks() {
                qat.set_weight_bits(i, bits);
            }
            qat.set_linear_weight_bits(bits);
        }
        let net = step(&mut total, Some(&mut times.convert), || {
            convert_with_backend(&qat, SCHEME, &TiledBackend::default())
                .expect("calibrated network converts")
        });
        variants.push((format!("w{}", bits.bits()), net));
    }
    times.total += total;
    variants
}

/// [`serve_variants`], `ModelRegistry::register` (which verifies every
/// variant) and `ServeRuntime::start`.
pub fn setup_serve(calib: &Tensor<f32>, times: &mut SetupTimes) -> ServeRuntime {
    let variants = serve_variants(calib, times);
    let mut total = 0.0;
    let registry = step(&mut total, Some(&mut times.register), || {
        let mut registry = ModelRegistry::new();
        registry
            .register(SERVE_MODEL, variants)
            .expect("verified variants register");
        registry
    });
    let runtime = step(&mut total, Some(&mut times.start), || {
        ServeRuntime::start(registry, serve_config()).expect("runtime starts")
    });
    times.total += total;
    runtime
}
