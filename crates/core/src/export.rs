//! C header export of a converted integer-only network — the artifact a
//! real MCU deployment compiles against (the last arrow of Fig. 1).
//!
//! Emits the bit-packed weight arrays and the per-layer static parameters
//! (`Zx/Zw/Bq/M0/N0/Zy` or threshold tables) at their §4.1 datatypes, all
//! as `static const` data placed in flash; counts (layers, classes,
//! thresholds per channel) are `#define`s and take no flash.
//!
//! Only chain networks export correctly so far. A residual graph's header
//! lacks the `QAdd` parameters, and it passes each layer's output
//! zero-point to the next layer in the list as its `Zx`, which is wrong
//! for a layer that reads a skip or an add.

use std::fmt::Write as _;

use mixq_kernels::{Requantizer, WeightOffset};

use crate::convert::IntNetwork;

/// Renders the network as a self-contained C header.
///
/// For a chain network the emitted arrays account for exactly
/// [`IntNetwork::flash_bytes`] of read-only data under every scheme
/// (checked in tests), so the header is also a ground-truth artifact for
/// the memory model.
///
/// # Examples
///
/// ```no_run
/// # use mixq_core::convert::IntNetwork;
/// # fn get_network() -> IntNetwork { unimplemented!() }
/// use mixq_core::export::emit_c_header;
/// let net = get_network();
/// let header = emit_c_header(&net, "my_model");
/// std::fs::write("my_model.h", header)?;
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn emit_c_header(net: &IntNetwork, name: &str) -> String {
    let mut out = String::new();
    let guard = format!("{}_H", name.to_uppercase());
    let _ = writeln!(out, "/* Generated by mixq — integer-only deployment model.");
    let _ = writeln!(out, " * scheme: {}", net.scheme());
    let _ = writeln!(out, " * flash bytes: {}", net.flash_bytes());
    let _ = writeln!(
        out,
        " * input: zero_point={} scale={:e}",
        net.input_quant().zero_point(),
        net.input_quant().scale()
    );
    let _ = writeln!(out, " */");
    let _ = writeln!(out, "#ifndef {guard}");
    let _ = writeln!(out, "#define {guard}");
    let _ = writeln!(out, "#include <stdint.h>");
    let _ = writeln!(out);

    let mut zx = net.input_quant().zero_point();
    for (i, layer) in net.layers().iter().enumerate() {
        let w = layer.weights();
        let _ = writeln!(
            out,
            "/* layer {i}: {}conv {}x{} stride {}, {} -> {} ch, w{} a{} */",
            if w.is_depthwise() { "dw-" } else { "" },
            layer.geometry().kh,
            layer.geometry().kw,
            layer.geometry().stride,
            if w.is_depthwise() {
                w.out_channels()
            } else {
                w.in_channels()
            },
            w.out_channels(),
            w.bits().bits(),
            layer.requant().out_bits().bits(),
        );
        let _ = writeln!(out, "static const uint8_t {name}_l{i}_zx = {zx};");
        zx = layer.requant().zero_point().clamp(0, 255);
        emit_u8_array(&mut out, &format!("{name}_l{i}_weights"), w.as_bytes());
        match w.offset() {
            WeightOffset::PerLayer(z) => {
                let _ = writeln!(out, "static const uint8_t {name}_l{i}_zw = {z};");
            }
            WeightOffset::PerChannel(zs) => {
                emit_i16_array(&mut out, &format!("{name}_l{i}_zw"), zs);
            }
        }
        emit_requant(&mut out, name, i, layer.requant());
        let _ = writeln!(out);
    }

    // Classifier.
    let lin = net.linear();
    let _ = writeln!(
        out,
        "/* classifier: {} -> {} , w{} */",
        lin.in_features(),
        lin.out_features(),
        lin.weights().bits().bits()
    );
    let _ = writeln!(out, "static const uint8_t {name}_fc_zx = {zx};");
    let _ = writeln!(
        out,
        "static const uint8_t {name}_fc_zy = 0; /* logits stay i32 */"
    );
    emit_u8_array(
        &mut out,
        &format!("{name}_fc_weights"),
        lin.weights().as_bytes(),
    );
    match lin.weights().offset() {
        WeightOffset::PerLayer(z) => {
            let _ = writeln!(out, "static const uint8_t {name}_fc_zw = {z};");
        }
        WeightOffset::PerChannel(zs) => {
            emit_i16_array(&mut out, &format!("{name}_fc_zw"), zs);
        }
    }
    emit_i32_array(&mut out, &format!("{name}_fc_bq"), lin.bq());
    if let Some(rescale) = lin.rescale() {
        let m0: Vec<i32> = rescale.iter().map(|m| m.mantissa()).collect();
        let n0: Vec<i8> = rescale.iter().map(|m| m.exponent()).collect();
        emit_i32_array(&mut out, &format!("{name}_fc_m0"), &m0);
        emit_i8_array(&mut out, &format!("{name}_fc_n0"), &n0);
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "#define {}_NUM_LAYERS {}",
        name.to_uppercase(),
        net.layers().len()
    );
    let _ = writeln!(
        out,
        "#define {}_NUM_CLASSES {}",
        name.to_uppercase(),
        lin.out_features()
    );
    let _ = writeln!(out, "#endif /* {guard} */");
    out
}

fn emit_requant(out: &mut String, name: &str, i: usize, requant: &Requantizer) {
    match requant {
        Requantizer::FoldedPerLayer { bq, mult, zy, .. } => {
            emit_i32_array(out, &format!("{name}_l{i}_bq"), bq);
            let _ = writeln!(
                out,
                "static const int32_t {name}_l{i}_m0 = {};",
                mult.mantissa()
            );
            let _ = writeln!(
                out,
                "static const int8_t {name}_l{i}_n0 = {};",
                mult.exponent()
            );
            let _ = writeln!(out, "static const uint8_t {name}_l{i}_zy = {zy};");
        }
        Requantizer::Icn { bq, mult, zy, .. } => {
            emit_i32_array(out, &format!("{name}_l{i}_bq"), bq);
            let m0: Vec<i32> = mult.iter().map(|m| m.mantissa()).collect();
            let n0: Vec<i8> = mult.iter().map(|m| m.exponent()).collect();
            emit_i32_array(out, &format!("{name}_l{i}_m0"), &m0);
            emit_i8_array(out, &format!("{name}_l{i}_n0"), &n0);
            let _ = writeln!(out, "static const uint8_t {name}_l{i}_zy = {zy};");
        }
        Requantizer::Thresholds { channels, zy, .. } => {
            // Flattened per-channel tables, saturated to the INT16 storage
            // Table 2's footprint implies.
            let flat: Vec<i16> = channels
                .iter()
                .flat_map(|c| {
                    c.thresholds()
                        .iter()
                        .map(|&t| t.clamp(i16::MIN as i64, i16::MAX as i64) as i16)
                })
                .collect();
            emit_i16_array(out, &format!("{name}_l{i}_thr"), &flat);
            let _ = writeln!(
                out,
                "#define {}_L{i}_THR_PER_CH {}",
                name.to_uppercase(),
                channels.first().map(|c| c.len()).unwrap_or(0)
            );
            let _ = writeln!(out, "static const uint8_t {name}_l{i}_zy = {zy};");
        }
    }
}

fn emit_u8_array(out: &mut String, name: &str, data: &[u8]) {
    let _ = write!(out, "static const uint8_t {name}[{}] = {{", data.len());
    emit_values(out, data.iter().map(|v| v.to_string()));
    let _ = writeln!(out, "}};");
}

fn emit_i8_array(out: &mut String, name: &str, data: &[i8]) {
    let _ = write!(out, "static const int8_t {name}[{}] = {{", data.len());
    emit_values(out, data.iter().map(|v| v.to_string()));
    let _ = writeln!(out, "}};");
}

fn emit_i16_array(out: &mut String, name: &str, data: &[i16]) {
    let _ = write!(out, "static const int16_t {name}[{}] = {{", data.len());
    emit_values(out, data.iter().map(|v| v.to_string()));
    let _ = writeln!(out, "}};");
}

fn emit_i32_array(out: &mut String, name: &str, data: &[i32]) {
    let _ = write!(out, "static const int32_t {name}[{}] = {{", data.len());
    emit_values(out, data.iter().map(|v| v.to_string()));
    let _ = writeln!(out, "}};");
}

fn emit_values(out: &mut String, values: impl Iterator<Item = String>) {
    for (i, v) in values.enumerate() {
        if i % 16 == 0 {
            let _ = write!(out, "\n    ");
        }
        let _ = write!(out, "{v},");
    }
    let _ = writeln!(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert;
    use crate::memory::QuantScheme;
    use mixq_data::{DatasetSpec, SyntheticKind};
    use mixq_nn::qat::{MicroCnnSpec, QatNetwork};
    use mixq_nn::train::{train, TrainConfig};
    use mixq_quant::Granularity;

    fn tiny_int_network(scheme: QuantScheme) -> IntNetwork {
        let ds = DatasetSpec::new(SyntheticKind::Bars, 8, 8, 1, 2)
            .with_samples(48)
            .generate(2);
        let spec = MicroCnnSpec::new(8, 8, 1, 2, &[3]);
        let mut net = QatNetwork::build(&spec, 5);
        let _ = train(&mut net, &ds, &TrainConfig::fast(2));
        net.calibrate_input(ds.images());
        net.enable_fake_quant(if scheme.is_per_channel() {
            Granularity::PerChannel
        } else {
            Granularity::PerLayer
        });
        convert(&net, scheme).expect("convertible")
    }

    #[test]
    fn header_contains_expected_symbols() {
        let net = tiny_int_network(QuantScheme::PerChannelIcn);
        let h = emit_c_header(&net, "demo");
        assert!(h.contains("#ifndef DEMO_H"));
        assert!(h.contains("static const uint8_t demo_l0_weights["));
        assert!(h.contains("static const uint8_t demo_l0_zx ="));
        assert!(h.contains("static const uint8_t demo_fc_zx ="));
        assert!(h.contains("demo_l0_bq["));
        assert!(h.contains("demo_l0_m0["));
        assert!(h.contains("demo_l0_n0["));
        assert!(h.contains("demo_fc_weights["));
        assert!(h.contains("DEMO_NUM_CLASSES 2"));
        assert!(h.contains("#endif /* DEMO_H */"));
        // Per-channel → i16 Zw arrays.
        assert!(h.contains("int16_t demo_l0_zw["));
    }

    #[test]
    fn header_is_deterministic() {
        let net = tiny_int_network(QuantScheme::PerChannelIcn);
        assert_eq!(emit_c_header(&net, "m"), emit_c_header(&net, "m"));
    }

    #[test]
    fn thresholds_scheme_emits_tables() {
        let net = tiny_int_network(QuantScheme::PerChannelThresholds);
        let h = emit_c_header(&net, "thr");
        assert!(h.contains("thr_l0_thr["));
        assert!(h.contains("#define THR_L0_THR_PER_CH "));
        assert!(!h.contains("thr_l0_m0"), "thresholds replace M0/N0");
    }

    #[test]
    fn folded_scheme_emits_scalar_multiplier() {
        let net = tiny_int_network(QuantScheme::PerLayerFolded);
        let h = emit_c_header(&net, "fb");
        assert!(h.contains("static const int32_t fb_l0_m0 ="));
        assert!(h.contains("static const int8_t fb_l0_n0 ="));
        assert!(h.contains("static const uint8_t fb_l0_zw ="));
    }

    #[test]
    fn weight_array_lengths_match_flash_accounting() {
        let net = tiny_int_network(QuantScheme::PerChannelIcn);
        let h = emit_c_header(&net, "m");
        // The first weight array's declared length equals the packed bytes.
        let expected = net.layers()[0].weights().byte_len();
        assert!(h.contains(&format!("m_l0_weights[{expected}]")));
    }
}
