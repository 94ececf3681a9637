//! Node-by-node replay of a batched walk through the one public per-node
//! entry point, `QOp::execute_kernel`, with a span around each call; and
//! the per-node rows and per-layer totals built from those spans.

use std::fmt::Write as _;
use std::time::Instant;

use mixq_core::convert::IntNetwork;
use mixq_kernels::{
    ActivationArena, GraphNode, KernelChoice, OpCounts, OpKind, OpOutput, QActivation, QOp,
};
use mixq_mcu::CortexM7CycleModel;
use mixq_quant::BitWidth;
use mixq_tensor::Tensor;

use crate::harness::{Report, SpanLog, PER_LAYER};

/// Label of the root span of one replayed batch.
const WALK: u32 = 0;
/// Label of the input-quantization span.
const QUANTIZE: u32 = 1;
/// Node `i`'s spans carry label `i + NODE_BASE`.
const NODE_BASE: u32 = 2;

/// The per-layer group a node is reported under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group {
    /// Dense convolutions on the blocked GEMM (stem and pointwise).
    Gemm,
    /// Dense convolutions on the direct loop.
    DirectConv,
    /// Depthwise convolutions reading an 8-bit activation.
    Dw8,
    /// Depthwise convolutions reading a 2- or 4-bit activation.
    DwSub8,
    /// Residual adds.
    Add,
    /// Pooling and the classifier.
    Head,
}

impl Group {
    fn of(node: &GraphNode, in_bits: BitWidth) -> Group {
        match node.op().kind() {
            OpKind::Conv if node.choice() == KernelChoice::BlockedGemm => Group::Gemm,
            OpKind::Conv => Group::DirectConv,
            OpKind::DepthwiseConv if in_bits == BitWidth::W8 => Group::Dw8,
            OpKind::DepthwiseConv => Group::DwSub8,
            OpKind::Add => Group::Add,
            OpKind::Pool | OpKind::Linear => Group::Head,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Group::Gemm => "gemm",
            Group::DirectConv => "conv_direct",
            Group::Dw8 => "dw8",
            Group::DwSub8 => "dw_sub8",
            Group::Add => "add",
            Group::Head => "head",
        }
    }
}

/// What is fixed about a node: its group, precisions and flash bytes.
struct NodeInfo {
    group: Group,
    in_bits: String,
    out_bits: u32,
    flash_bytes: u64,
}

/// Replays batches node by node and accumulates per-node counts; the
/// times come from the span log.
pub struct Replay<'n> {
    net: &'n IntNetwork,
    info: Vec<NodeInfo>,
    last: Vec<usize>,
    slots: Vec<Option<QActivation>>,
    arena: ActivationArena,
    log: SpanLog,
    ops: Vec<OpCounts>,
    act_bytes: Vec<u64>,
    samples: u64,
    walks: u64,
}

impl<'n> Replay<'n> {
    pub fn new(net: &'n IntNetwork, epoch: Instant, max_walks: usize) -> Self {
        let graph = net.graph();
        let (_, bits) = graph.tensor_plan(net.input_shape(), BitWidth::W8);
        let info = graph
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let ins: Vec<BitWidth> = node.inputs().iter().map(|&t| bits[t]).collect();
                NodeInfo {
                    group: Group::of(node, ins[0]),
                    in_bits: ins
                        .iter()
                        .map(|b| b.bits().to_string())
                        .collect::<Vec<_>>()
                        .join("+"),
                    out_bits: bits[i + 1].bits(),
                    flash_bytes: QOp::flash_bytes(node.op()) as u64,
                }
            })
            .collect();
        let mut labels = vec!["walk".to_string(), "core.quantize_input".to_string()];
        labels.extend(graph.nodes().iter().map(|n| n.name().to_string()));
        let spans_per_walk = graph.len() + 2;
        Replay {
            net,
            info,
            last: graph.last_uses(),
            slots: Vec::with_capacity(graph.len() + 1),
            arena: ActivationArena::new(),
            log: SpanLog::new(epoch, labels, max_walks * spans_per_walk),
            ops: vec![OpCounts::default(); graph.len()],
            act_bytes: vec![0; graph.len()],
            samples: 0,
            walks: 0,
        }
    }

    /// Replays the batch of `count` items from `start`: quantize, then
    /// every node in schedule order, freeing each tensor at its last use.
    /// Returns the logits and the batch's op counts.
    pub fn run(
        &mut self,
        images: &Tensor<f32>,
        start: usize,
        count: usize,
    ) -> (Vec<i32>, OpCounts) {
        let id = self.walks;
        let nodes = self.net.graph().nodes();
        let walk = self.log.open(WALK, None, id);
        let q = self.log.open(QUANTIZE, Some(walk), id);
        let x = self
            .net
            .quantize_input_items_pooled(images, start, count, &mut self.arena);
        self.log.close(q);
        self.slots.clear();
        self.slots.resize_with(nodes.len() + 1, || None);
        self.slots[0] = Some(x);
        let mut logits = Vec::new();
        let mut total = OpCounts::default();
        for (i, node) in nodes.iter().enumerate() {
            let mut ops = OpCounts::default();
            let (out, in_bytes) = {
                let input = |t: usize| {
                    self.slots[t]
                        .as_ref()
                        .expect("schedule keeps inputs live until their last use")
                };
                let buf: [&QActivation; 2];
                let ins: &[&QActivation] = match *node.inputs() {
                    [a] => {
                        buf = [input(a), input(a)];
                        &buf[..1]
                    }
                    [a, b] => {
                        buf = [input(a), input(b)];
                        &buf
                    }
                    _ => unreachable!("ops take one or two inputs"),
                };
                let s = self.log.open(NODE_BASE + i as u32, Some(walk), id);
                let out = node.op().execute_kernel(
                    node.choice(),
                    node.prepacked(),
                    ins,
                    &mut self.arena,
                    &mut ops,
                );
                self.log.close(s);
                (out, ins.iter().map(|a| a.byte_len() as u64).sum::<u64>())
            };
            let out_bytes = match out {
                OpOutput::Act(a) => {
                    let bytes = a.byte_len() as u64;
                    self.slots[i + 1] = Some(a);
                    bytes
                }
                OpOutput::Logits(l) => {
                    let bytes = 4 * l.len() as u64;
                    logits = l;
                    bytes
                }
            };
            for &t in node.inputs().iter().chain(std::iter::once(&(i + 1))) {
                if self.last[t] == i {
                    if let Some(a) = self.slots[t].take() {
                        self.arena.recycle(a);
                    }
                }
            }
            self.ops[i] += ops;
            self.act_bytes[i] += in_bytes + out_bytes;
            total += ops;
        }
        for slot in self.slots.iter_mut() {
            if let Some(a) = slot.take() {
                self.arena.recycle(a);
            }
        }
        self.log.close(walk);
        self.samples += count as u64;
        self.walks += 1;
        (logits, total)
    }

    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// µs per sample of the replayed walks, spans included.
    pub fn walk_us_per_sample(&self) -> f64 {
        let ns: u64 = self
            .log
            .spans()
            .iter()
            .filter(|s| s.label == WALK)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e3 / self.samples.max(1) as f64
    }

    /// Sets the per-layer metrics and returns the per-node table: name,
    /// op kind, kernel, input and output bits, µs per sample, share of the
    /// replayed walk, MACs, bytes moved (activations in and out plus the
    /// node's flash bytes, from tensor sizes) and modeled Cortex-M7 cycles.
    pub fn finish(&self, report: &mut Report) -> String {
        let samples = self.samples.max(1) as f64;
        let by_label = self.log.self_ns_by_label();
        let us = |ns: u64| ns as f64 / 1e3 / samples;
        let walk_us = self.walk_us_per_sample();
        let model = CortexM7CycleModel::default();
        let mut table = String::new();
        let _ = writeln!(
            table,
            "{:<12} {:<7} {:<13} {:>5} {:>4} {:>10} {:>7} {:>11} {:>10} {:>11}",
            "node",
            "kind",
            "kernel",
            "in",
            "out",
            "us/sample",
            "share",
            "MACs",
            "bytes",
            "M7 cycles"
        );
        let quant_us = us(by_label[QUANTIZE as usize]);
        let _ = writeln!(
            table,
            "{:<12} {:<7} {:<13} {:>5} {:>4} {:>10.2} {:>6.1}%",
            "quantize",
            "-",
            "-",
            "f32",
            "8",
            quant_us,
            100.0 * quant_us / walk_us
        );
        let mut groups: Vec<(Group, f64, f64, f64)> = Vec::new();
        for (i, node) in self.net.graph().nodes().iter().enumerate() {
            let info = &self.info[i];
            let node_us = us(by_label[NODE_BASE as usize + i]);
            let macs = self.ops[i].macs as f64 / samples;
            let bytes = (self.act_bytes[i] + info.flash_bytes * self.walks) as f64 / samples;
            let cycles = model.kernel_cycles(
                node.op().kind(),
                node.choice(),
                &per_sample(self.ops[i], self.samples.max(1)),
            );
            let _ = writeln!(
                table,
                "{:<12} {:<7} {:<13} {:>5} {:>4} {:>10.2} {:>6.1}% {:>11.0} {:>10.0} {:>11}",
                node.name(),
                node.op().kind().label(),
                node.choice().label(),
                info.in_bits,
                info.out_bits,
                node_us,
                100.0 * node_us / walk_us,
                macs,
                bytes,
                cycles
            );
            match groups.iter_mut().find(|g| g.0 == info.group) {
                Some(g) => {
                    g.1 += node_us;
                    g.2 += macs;
                    g.3 += bytes;
                }
                None => groups.push((info.group, node_us, macs, bytes)),
            }
        }
        let overhead_us = us(by_label[WALK as usize]);
        let _ = writeln!(
            table,
            "{:<12} {:<7} {:<13} {:>5} {:>4} {:>10.2} {:>6.1}%",
            "(between)",
            "-",
            "-",
            "-",
            "-",
            overhead_us,
            100.0 * overhead_us / walk_us
        );
        let _ = writeln!(table, "groups (us/sample, share of walk):");
        for &(g, g_us, macs, bytes) in &groups {
            let _ = writeln!(
                table,
                "  kernels.{:<12} {:>10.2} {:>6.1}%  MACs {:>11.0}  bytes {:>10.0}",
                g.label(),
                g_us,
                100.0 * g_us / walk_us,
                macs,
                bytes
            );
            // Only the groups and counts the benchmark lists are reported:
            // the tiled backend puts every dense convolution of these
            // models on the blocked GEMM, so a direct one shows in the
            // table only.
            for (count, value) in [
                ("us_per_sample", g_us),
                ("macs_per_sample", macs),
                ("bytes_per_sample", bytes),
            ] {
                let name = format!("kernels.{}.{count}", g.label());
                if let Some(&(listed, _)) = PER_LAYER.iter().find(|(n, _)| *n == name) {
                    report.set(listed, value);
                }
            }
        }
        report.set("core.quantize_input.us_per_sample", quant_us);
        table
    }

    /// Writes the spans, stamped with `header`.
    pub fn write_spans(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        self.log.write_jsonl(path, header)
    }
}

/// Op counts summed over `samples` samples, divided back to one (rounded
/// down, so a count that is not batch-linear cannot stop the report).
fn per_sample(ops: OpCounts, samples: u64) -> OpCounts {
    OpCounts {
        macs: ops.macs / samples,
        unpacks: ops.unpacks / samples,
        offset_subs: ops.offset_subs / samples,
        requants: ops.requants / samples,
        threshold_cmps: ops.threshold_cmps / samples,
        bias_adds: ops.bias_adds / samples,
        act_loads: ops.act_loads / samples,
        act_stores: ops.act_stores / samples,
    }
}
