//! Harness arithmetic shared by the workloads: arguments, the seeded
//! arrival schedule, percentiles that count misses, spans with self time,
//! the host stamp and probes, and the result line.

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed with `--trace 0` on every workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("samples_per_s", "samples/s"),
    ("latency_p90_us", "us"),
    ("ok_share", "ratio"),
    ("mcu_cycles_per_sample", "cycles"),
    ("flash_bytes", "B"),
    ("peak_ram_bytes", "B"),
    ("host_mem_bytes", "B"),
];

/// Per-layer metrics, printed with `--trace 1` on every workload; a layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("core.assign.s", "s"),
    ("core.convert.s", "s"),
    ("verify.s", "s"),
    ("serve.register.s", "s"),
    ("serve.start.s", "s"),
    ("core.prepacked_bytes", "B"),
    ("core.quantize_input.us_per_sample", "us"),
    ("kernels.gemm.us_per_sample", "us"),
    ("kernels.gemm.macs_per_sample", "count"),
    ("kernels.gemm.bytes_per_sample", "B"),
    ("kernels.dw8.us_per_sample", "us"),
    ("kernels.dw8.macs_per_sample", "count"),
    ("kernels.dw8.bytes_per_sample", "B"),
    ("kernels.dw_sub8.us_per_sample", "us"),
    ("kernels.dw_sub8.macs_per_sample", "count"),
    ("kernels.dw_sub8.bytes_per_sample", "B"),
    ("kernels.add.us_per_sample", "us"),
    ("kernels.head.us_per_sample", "us"),
    ("kernels.walk.us_per_sample", "us"),
    ("serve.submit.us_p50", "us"),
    ("serve.runtime_latency.us_p50", "us"),
    ("serve.batch_fill", "ratio"),
    ("serve.linger_flush_share", "ratio"),
    ("serve.queue_depth_max", "count"),
    ("serve.degraded_share", "ratio"),
    ("serve.retry_share", "ratio"),
    ("bench.gen_late.us_p50", "us"),
    ("bench.gen_late.us_p99", "us"),
    ("bench.gen_late.us_max", "us"),
    ("bench.timer_overshoot.us_p50", "us"),
    ("bench.timer_overshoot.us_p99", "us"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.latency.us_p50", "us"),
    ("bench.latency.us_p99", "us"),
    ("bench.latency_samples", "count"),
    ("bench.nproc", "count"),
    ("bench.setups", "count"),
];

/// Command-line arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {value} is outside (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// SplitMix64: a small seeded generator, so the schedule and the request
/// order depend on nothing but the seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Due times (µs after the window opens) of Poisson arrivals at
/// `rate_per_s`, up to `window_us`.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, window_us: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mean_gap_us = 1e6 / rate_per_s;
    let mut t = 0.0f64;
    let mut due = Vec::new();
    loop {
        t += -rng.unit().ln() * mean_gap_us;
        if t >= window_us as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

/// Latencies of one run: finite samples plus misses (requests that
/// failed, were shed or missed their deadline). A miss ranks above every
/// finite sample, so it exceeds any latency limit.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    us: Vec<u64>,
    misses: u64,
    sorted: bool,
}

impl Latencies {
    pub fn with_capacity(n: usize) -> Self {
        Latencies {
            us: Vec::with_capacity(n),
            misses: 0,
            sorted: true,
        }
    }

    pub fn push(&mut self, us: u64) {
        self.us.push(us);
        self.sorted = false;
    }

    pub fn miss(&mut self) {
        self.misses += 1;
    }

    /// Samples counted, misses included.
    pub fn count(&self) -> u64 {
        self.us.len() as u64 + self.misses
    }

    /// Nearest-rank percentile; `None` when the rank falls on a miss (or
    /// there are no samples).
    pub fn percentile(&mut self, pct: f64) -> Option<u64> {
        if !self.sorted {
            self.us.sort_unstable();
            self.sorted = true;
        }
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((pct / 100.0 * n as f64).ceil() as u64).clamp(1, n);
        self.us.get(rank as usize - 1).copied()
    }

    /// Largest finite sample (0 when there is none).
    pub fn max(&self) -> u64 {
        self.us.iter().copied().max().unwrap_or(0)
    }
}

/// Median of `values` (sorted in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Sustained throughput: the rate that `rates` (one per slice of the
/// window) meet or beat in nine slices of ten. On a shared host a
/// neighbour's burst of load slows whole seconds at a time; the sustained
/// rate reads the typical slice instead of how often a burst happened to
/// land in this run. 0 when there is no slice.
pub fn sustained(rates: &mut [f64]) -> f64 {
    if rates.is_empty() {
        return 0.0;
    }
    rates.sort_by(f64::total_cmp);
    rates[(rates.len() - 1) / 10]
}

/// Items per second in each whole second of a window, from the times
/// (ns since the window opened) at which items completed.
pub fn per_second_rates(done_ns: impl Iterator<Item = u64>, window_ns: u64) -> Vec<f64> {
    let mut counts = vec![0u64; (window_ns / 1_000_000_000) as usize];
    for t in done_ns {
        if let Some(c) = counts.get_mut((t / 1_000_000_000) as usize) {
            *c += 1;
        }
    }
    counts.into_iter().map(|c| c as f64).collect()
}

/// A latency percentile of an open loop, taken within each whole second
/// of the window (requests grouped by when they were due) and reported
/// for the best second. A host stall delays every request due during it
/// and the backlog after, so on a shared host the whole-window tail
/// counts stalls; the best second measures the system. `samples` are
/// `(due_ns, latency)`, `None` for a miss; `None` when every second's
/// percentile lands on a miss.
pub fn best_second(samples: &[(u64, Option<u64>)], window_ns: u64, pct: f64) -> Option<u64> {
    let seconds = (window_ns / 1_000_000_000).max(1) as usize;
    let mut slices: Vec<Latencies> = vec![Latencies::default(); seconds];
    for &(due, latency) in samples {
        if let Some(slice) = slices.get_mut((due / 1_000_000_000) as usize) {
            match latency {
                Some(us) => slice.push(us),
                None => slice.miss(),
            }
        }
    }
    slices.iter_mut().filter_map(|s| s.percentile(pct)).min()
}

/// One traced call: label (an index into its log's label table), start
/// and end in ns since the log's epoch, parent span and request or batch
/// id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub label: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub id: u64,
}

/// Spans kept in memory and written out when the run ends.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    labels: Vec<String>,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, labels: Vec<String>, capacity: usize) -> Self {
        SpanLog {
            epoch,
            labels,
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds from the epoch to `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`SpanLog::close`].
    pub fn open(&mut self, label: u32, parent: Option<usize>, id: u64) -> usize {
        let now = self.ns(Instant::now());
        self.record(label, parent, id, now, now)
    }

    /// Ends span `idx` now.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.ns(Instant::now());
    }

    /// Records a span whose times were taken elsewhere.
    pub fn record(
        &mut self,
        label: u32,
        parent: Option<usize>,
        id: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            label,
            start_ns,
            end_ns,
            parent: parent.map(|p| p as u32),
            id,
        });
        self.spans.len() - 1
    }

    /// Each span's self time: its duration minus the part of it that its
    /// children cover (overlapping children are counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Total self time per label, in ns.
    pub fn self_ns_by_label(&self) -> Vec<u64> {
        let mut by_label = vec![0u64; self.labels.len()];
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            by_label[s.label as usize] += t;
        }
        by_label
    }

    /// Writes the header line, then one JSON object per span.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                self.labels[s.label as usize], s.start_ns, s.end_ns, parent, s.id
            )?;
        }
        out.flush()
    }
}

/// What a run is stamped with: core count, SIMD level and target.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub nproc: usize,
    pub simd: &'static str,
    pub target: &'static str,
}

impl Stamp {
    pub fn take() -> Stamp {
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: mixq_kernels::simd::active_level().label(),
            target: env!("PERFBENCH_TARGET"),
        }
    }
}

impl fmt::Display for Stamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nproc={} simd={} target={}",
            self.nproc, self.simd, self.target
        )
    }
}

/// How far `sleep` overshoots a short request on this host: µs of
/// overshoot for each of `n` sleeps of `sleep_us`.
pub fn timer_overshoot(n: usize, sleep_us: u64) -> Latencies {
    let mut out = Latencies::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        std::thread::sleep(Duration::from_micros(sleep_us));
        let took = t.elapsed().as_micros() as u64;
        out.push(took.saturating_sub(sleep_us));
    }
    out
}

/// Sleeps until shortly before `due`, then spins to it, so an open-loop
/// sender is late only by what the host imposes.
pub fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// FNV-1a over logits: a digest that changes with any logit.
pub fn digest(logits: &[i32]) -> u64 {
    logits.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &v| {
        v.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// The outcome of one run, before it is printed.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold.
    pub check_failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records an output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: end-to-end metrics, or per-layer ones with
    /// `trace`. Every end-to-end metric must have been set; a per-layer
    /// metric left unset reads 0.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.check_failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Checks the harness arithmetic the metrics rest on; every run calls it
/// before measuring, so a broken harness cannot report numbers.
pub fn self_test() -> Result<(), String> {
    fn expect(ok: bool, what: &str) -> Result<(), String> {
        if ok {
            Ok(())
        } else {
            Err(format!("harness self-test failed: {what}"))
        }
    }
    // Percentiles: nearest rank over finite samples, misses above all.
    let mut l = Latencies::with_capacity(100);
    for v in (1..=100).rev() {
        l.push(v);
    }
    expect(l.percentile(50.0) == Some(50), "p50 of 1..=100")?;
    expect(l.percentile(99.0) == Some(99), "p99 of 1..=100")?;
    expect(l.percentile(100.0) == Some(100), "p100 of 1..=100")?;
    for _ in 0..2 {
        l.miss();
    }
    expect(l.count() == 102, "misses are counted")?;
    expect(l.percentile(98.0) == Some(100), "p98 with 2 misses")?;
    expect(l.percentile(99.0).is_none(), "p99 with 2 misses is a miss")?;
    expect(Latencies::default().percentile(50.0).is_none(), "empty")?;
    expect(median(&mut [3.0, 1.0, 2.0]) == 2.0, "odd median")?;
    expect(median(&mut [4.0, 1.0, 2.0, 3.0]) == 2.5, "even median")?;

    // The best second: second 0 has p50 10, second 1 has p50 5, and
    // second 2's p50 is a miss; samples past the window are ignored.
    let per_second = [
        (0, Some(10)),
        (1, Some(10)),
        (2, Some(30)),
        (1_000_000_000, Some(5)),
        (1_500_000_000, Some(40)),
        (2_000_000_000, None),
        (2_100_000_000, None),
        (2_200_000_000, Some(1)),
        (3_000_000_000, Some(0)),
    ];
    expect(
        best_second(&per_second, 3_000_000_000, 50.0) == Some(5),
        "best second's p50",
    )?;
    expect(
        best_second(&per_second[5..7], 3_000_000_000, 50.0).is_none(),
        "a best second of misses is a miss",
    )?;

    // Sustained rate: the slice at rank ⌊(n − 1)/10⌋ from the slowest.
    expect(sustained(&mut []) == 0.0, "no slices")?;
    let mut rates: Vec<f64> = (1..=20).rev().map(f64::from).collect();
    expect(sustained(&mut rates) == 2.0, "sustained rate of 1..=20")?;
    let done = [
        0,
        1,
        999_999_999,
        1_000_000_000,
        2_500_000_000,
        3_000_000_000,
    ];
    expect(
        per_second_rates(done.into_iter(), 3_000_000_000) == [3.0, 1.0, 1.0],
        "per-second rates drop the partial second",
    )?;

    // Span self time: a parent [0, 100) with children [10, 30) and
    // [20, 50) (overlapping) and [90, 120) (clipped) keeps 100 − 40 − 10.
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch, vec!["p".into(), "c".into()], 8);
    let p = log.record(0, None, 1, 0, 100);
    log.record(1, Some(p), 1, 10, 30);
    log.record(1, Some(p), 1, 20, 50);
    log.record(1, Some(p), 1, 90, 120);
    expect(log.self_times_ns() == [50, 20, 30, 30], "span self time")?;
    expect(log.self_ns_by_label() == [50, 80], "self time by label")?;

    // The schedule depends on the seed alone, and its rate is right.
    let a = poisson_schedule(7, 1000.0, 2_000_000);
    expect(a == poisson_schedule(7, 1000.0, 2_000_000), "same seed")?;
    expect(a != poisson_schedule(8, 1000.0, 2_000_000), "other seed")?;
    expect(a.windows(2).all(|w| w[0] <= w[1]), "sorted due times")?;
    expect(
        (1800..2200).contains(&a.len()),
        "Poisson count near rate × window",
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_self_test_passes() {
        self_test().unwrap();
    }

    #[test]
    fn args_round_trip() {
        let args = Args::parse(
            [
                "--workload",
                "serve_light",
                "--seed",
                "3",
                "--seconds",
                "10",
                "--trace",
                "1",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(args.workload, "serve_light");
        assert_eq!(args.seed, 3);
        assert_eq!(args.seconds, 10.0);
        assert!(args.trace);
        assert!(Args::parse(["--seed", "1"].map(String::from)).is_err());
        assert!(Args::parse(["--trace", "2"].map(String::from)).is_err());
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(
                compact.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
        let listed = compact.matches("\"name\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + 3,
            "3 workloads"
        );
    }

    #[test]
    fn result_line_requires_every_end_to_end_metric() {
        let mut r = Report::default();
        assert!(r.result_line(false).is_err());
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.result_line(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let traced = r.result_line(true).unwrap();
        assert!(traced.contains("\"verify.s\": {\"value\": 0, \"unit\": \"s\"}"));
    }
}
