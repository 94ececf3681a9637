//! Shared runners for the accuracy-shaped benches: train the folding-stress
//! micro-CNN under a scheme/precision and report fake-quant and
//! integer-only accuracy (the synthetic stand-in for the paper's ImageNet
//! numbers; see `DESIGN.md`).

use mixq_core::convert::{convert_with_backend, scheme_granularity};
use mixq_core::memory::QuantScheme;
use mixq_data::{Dataset, DatasetSpec, SyntheticKind};
use mixq_kernels::BackendKind;
use mixq_models::micro::folding_stress_cnn;
use mixq_nn::qat::QatNetwork;
use mixq_nn::train::{evaluate, train, TrainConfig};
use mixq_quant::BitWidth;

/// Result of one synthetic accuracy run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyRun {
    /// Float accuracy before quantization.
    pub float_acc: f32,
    /// Fake-quantized training accuracy after QAT.
    pub fake_quant_acc: f32,
    /// Integer-only held-out accuracy.
    pub int_acc: f32,
    /// Actual flash bytes of the converted model.
    pub flash_bytes: usize,
}

/// The standard stress dataset: 4 classes, 2 channels whose amplitudes
/// differ 40× (the batch-norm scale diversity that breaks PL+FB folding).
pub fn stress_dataset(seed: u64) -> Dataset {
    DatasetSpec::new(SyntheticKind::ChannelBits, 12, 12, 2, 4)
        .with_samples(320)
        .with_noise(0.06)
        .with_amplitude_base(40.0)
        .generate(seed)
}

/// Trains the folding-stress CNN under `scheme` with homogeneous weight
/// precision `bits` and measures the accuracy chain.
pub fn run_stress_scheme(
    train_set: &Dataset,
    test_set: &Dataset,
    scheme: QuantScheme,
    bits: BitWidth,
    seed: u64,
) -> AccuracyRun {
    let spec = folding_stress_cnn(2, 4);
    let mut net = QatNetwork::build(&spec, seed);
    let _ = train(&mut net, train_set, &TrainConfig::fast(12));
    let float_acc = evaluate(&net, train_set);
    net.calibrate_input(train_set.images());
    net.enable_fake_quant(scheme_granularity(scheme));
    if scheme == QuantScheme::PerLayerIcn {
        net.enable_pact_weight_clips();
    }
    for i in 0..net.num_blocks() {
        net.set_weight_bits(i, bits);
    }
    net.set_linear_weight_bits(bits);
    let qat_cfg = if scheme == QuantScheme::PerLayerFolded {
        TrainConfig::fast(8).with_folding_from(1)
    } else {
        TrainConfig::fast(8)
    };
    let _ = train(&mut net, train_set, &qat_cfg);
    let fake_quant_acc = evaluate(&net, train_set);
    let int_net =
        convert_with_backend(&net, scheme, &backend_arg()).expect("trained network converts");
    let (int_acc, _) = int_net.evaluate(test_set);
    AccuracyRun {
        float_acc,
        fake_quant_acc,
        int_acc,
        flash_bytes: int_net.flash_bytes(),
    }
}

/// Post-training quantization (no retraining after enabling fake
/// quantization): trains in float, quantizes, converts, measures. PTQ
/// exposes the raw PL-vs-PC robustness gap that QAT partially repairs.
pub fn run_stress_ptq(
    train_set: &Dataset,
    test_set: &Dataset,
    scheme: QuantScheme,
    bits: BitWidth,
    seed: u64,
) -> AccuracyRun {
    let spec = folding_stress_cnn(2, 4);
    let mut net = QatNetwork::build(&spec, seed);
    let _ = train(&mut net, train_set, &TrainConfig::fast(12));
    let float_acc = evaluate(&net, train_set);
    net.calibrate_input(train_set.images());
    net.enable_fake_quant(scheme_granularity(scheme));
    for i in 0..net.num_blocks() {
        net.set_weight_bits(i, bits);
    }
    net.set_linear_weight_bits(bits);
    if scheme == QuantScheme::PerLayerFolded {
        net.set_fold_bn(true);
    }
    let fake_quant_acc = evaluate(&net, train_set);
    let int_net =
        convert_with_backend(&net, scheme, &backend_arg()).expect("trained network converts");
    let (int_acc, _) = int_net.evaluate(test_set);
    AccuracyRun {
        float_acc,
        fake_quant_acc,
        int_acc,
        flash_bytes: int_net.flash_bytes(),
    }
}

/// Prints a horizontal rule sized for the benches' tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// The `--json <path>` target from the bench binary's arguments, if given.
///
/// Each Table/Figure bench accepts `--json` and writes its *deterministic*
/// shape-math outputs (footprints, bit assignments — never timings or
/// trained accuracies) as machine-readable JSON; the golden-regression CI
/// job diffs those files against the checked-in goldens under
/// `tests/goldens/`. Unknown arguments (e.g. the `--bench` flag cargo
/// passes to harness-free targets) are ignored.
pub fn json_out_path() -> Option<std::path::PathBuf> {
    arg_value("--json").map(std::path::PathBuf::from)
}

/// The value following `flag` in the bench binary's arguments, if present
/// — the one argv scan behind every flag parser here. Unknown arguments
/// (e.g. the `--bench` flag cargo passes to harness-free targets) are
/// ignored.
///
/// # Panics
///
/// Panics if the flag is present without a value.
fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == flag {
            return Some(
                args.next()
                    .unwrap_or_else(|| panic!("{flag} needs a value")),
            );
        }
    }
    None
}

/// The kernel backend selected by the bench binary's `--backend
/// reference|tiled` flag ([`BackendKind::Reference`] when absent).
///
/// Every bench accepts the flag; the ones that execute integer graphs
/// route their conversions through it, so the CI bench-smoke matrix keeps
/// both dispatch paths exercised in release mode. Logits are bit-identical
/// across backends, so accuracy-shaped bench output never changes with the
/// flag — only kernel dataflow, modeled cycles and host timing do.
///
/// # Panics
///
/// Panics on an unknown backend name.
pub fn backend_arg() -> BackendKind {
    match arg_value("--backend").as_deref() {
        None => BackendKind::default(),
        Some("reference") => BackendKind::Reference,
        Some("tiled") => BackendKind::tiled(),
        Some(other) => panic!("unknown backend `{other}` (expected reference|tiled)"),
    }
}

/// The batch size selected by the bench binary's `--batch N` flag (1 when
/// absent). Benches that execute integer graphs walk them once per `N`
/// samples through the batched inference path, so the CI bench-smoke
/// matrix keeps batch-1 and batch-N execution both exercised in release
/// mode. Logits are bit-identical across batch sizes; only wall-clock
/// changes.
///
/// # Panics
///
/// Panics on a malformed or zero batch value.
pub fn batch_arg() -> usize {
    let Some(v) = arg_value("--batch") else {
        return 1;
    };
    let n: usize = v.parse().unwrap_or_else(|_| panic!("bad batch `{v}`"));
    assert!(n > 0, "batch must be positive");
    n
}

/// Host parallelism as a plain count (1 when the OS cannot say).
///
/// This is the single gate every multicore speedup target goes through:
/// benches compare it against the worker count a target needs and report
/// the target as JSON `null` (skipped) rather than `false` when the host
/// cannot express that many genuine workers — a 1-core container must
/// never look like a perf regression.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Appends a multicore target flag to a measured-JSON object: a real
/// boolean when the host has at least `required_cores`, JSON `null`
/// otherwise. Returns whether the target was actually evaluated so the
/// caller can mirror the skip decision on stdout.
pub fn gated_target(obj: &mut JsonObject, key: &str, met: bool, required_cores: usize) -> bool {
    if available_cores() >= required_cores {
        obj.bool(key, met);
        true
    } else {
        obj.raw(key, "null".to_string());
        false
    }
}

/// Host-environment metadata stamped into **measured** bench JSON
/// (`--bench-json` outputs only — the deterministic goldens never include
/// it): compiler target, detected/active SIMD level, CPU features the
/// dispatcher probes, and the host's core count. Keys are stable so the
/// perf-trajectory tooling can attribute throughput shifts to host changes.
pub fn host_meta() -> JsonObject {
    let mut meta = JsonObject::new();
    // `scripts/bench-report.sh` exports the exact `rustc -vV` host triple;
    // fall back to a coarse arch-os stamp when run outside the script.
    let target = std::env::var("MIXQ_RUSTC_TARGET")
        .unwrap_or_else(|_| format!("{}-{}", std::env::consts::ARCH, std::env::consts::OS));
    meta.string("rustc_target", &target);
    meta.string("simd_level", mixq_kernels::simd::active_level().label());
    let features: Vec<String> = detected_cpu_features()
        .into_iter()
        .map(|f| format!("\"{f}\""))
        .collect();
    meta.raw("cpu_features", json_array(features));
    meta.int("available_parallelism", available_cores());
    meta
}

/// The vector-ISA features the SIMD dispatcher probes that are present on
/// this CPU, in a fixed order.
fn detected_cpu_features() -> Vec<&'static str> {
    let mut features = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse2") {
            features.push("sse2");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            features.push("avx2");
        }
    }
    #[cfg(target_arch = "aarch64")]
    features.push("neon");
    features
}

/// The `--bench-json <path>` target from the bench binary's arguments, if
/// given. Unlike [`json_out_path`] (deterministic shape-math goldens),
/// this file receives **measured** host numbers — throughput tables the
/// perf-trajectory tooling (`scripts/bench-report.sh`) collects across
/// PRs; it is never golden-diffed.
pub fn bench_json_out_path() -> Option<std::path::PathBuf> {
    arg_value("--bench-json").map(std::path::PathBuf::from)
}

/// A minimal deterministic JSON writer for the golden outputs: an object
/// whose values are appended in insertion order (stable key order ⇒ stable
/// byte-for-byte files, so a plain `diff` is the regression check).
#[derive(Debug, Default, Clone)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Appends a string field (the value is escaped).
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        let escaped: String = value
            .chars()
            .flat_map(|c| match c {
                '"' | '\\' => vec!['\\', c],
                _ => vec![c],
            })
            .collect();
        self.fields.push((key.to_owned(), format!("\"{escaped}\"")));
        self
    }

    /// Appends an integer field.
    pub fn int(&mut self, key: &str, value: usize) -> &mut Self {
        self.fields.push((key.to_owned(), value.to_string()));
        self
    }

    /// Appends a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.fields.push((key.to_owned(), value.to_string()));
        self
    }

    /// Appends an already-rendered JSON value (e.g. a nested array).
    pub fn raw(&mut self, key: &str, value: String) -> &mut Self {
        self.fields.push((key.to_owned(), value));
        self
    }

    /// Renders the object.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Renders a JSON array of pre-rendered values.
pub fn json_array(values: impl IntoIterator<Item = String>) -> String {
    let body: Vec<String> = values.into_iter().collect();
    format!("[{}]", body.join(", "))
}

/// Writes rendered JSON to `path` (creating parent directories), with a
/// trailing newline so the checked-in goldens stay POSIX-friendly.
///
/// # Panics
///
/// Panics if the file cannot be written — a golden run must not silently
/// skip its output.
pub fn write_json(path: &std::path::Path, rendered: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create JSON output directory");
    }
    std::fs::write(path, format!("{rendered}\n")).expect("write JSON output");
    println!("json written to {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_runner_smoke() {
        let ds = stress_dataset(3);
        let split = ds.split(0.8, 1);
        let run = run_stress_scheme(
            &split.train,
            &split.test,
            QuantScheme::PerChannelIcn,
            BitWidth::W8,
            11,
        );
        assert!(run.float_acc > 0.8);
        assert!(run.int_acc > 0.7);
        assert!(run.flash_bytes > 0);
    }
}
