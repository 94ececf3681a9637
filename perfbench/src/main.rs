//! The mixq benchmark: end-to-end metrics of three workloads, and
//! per-layer metrics from a separate traced run, measured from outside by
//! timing calls into each layer's public entry points.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <eval_mixq128|serve_light|serve_saturate> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The seed drives every input: the images, the arrival schedule and the
//! request order. The last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. Spans of a traced run are written to `perfbench/trace/`.
//! The run exits non-zero when an output check fails.

mod alloc;
mod eval;
mod harness;
mod models;
mod serve;
mod walk;

use std::path::Path;

use harness::{Args, Report, Stamp};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = harness::self_test() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let stamp = Stamp::take();
    let header = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"nproc\":{},\"simd\":\"{}\",\"target\":\"{}\"}}",
        args.workload, args.seed, args.seconds, stamp.nproc, stamp.simd, stamp.target
    );
    println!("perfbench {} seed {} | {stamp}", args.workload, args.seed);

    let mut report = Report::default();
    let mut overshoot = harness::timer_overshoot(1000, 100);
    let (p50, p99) = (overshoot.percentile(50.0), overshoot.percentile(99.0));
    report.set("bench.timer_overshoot.us_p50", p50.unwrap_or(0) as f64);
    report.set("bench.timer_overshoot.us_p99", p99.unwrap_or(0) as f64);
    report.set("bench.nproc", stamp.nproc as f64);
    println!(
        "timer overshoot of a 100 us sleep: p50 {} us, p99 {} us",
        p50.unwrap_or(0),
        p99.unwrap_or(0)
    );

    let trace_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("trace");
    let text = match args.workload.as_str() {
        "eval_mixq128" => eval::run(&args, &mut report, &trace_dir, &header),
        "serve_light" => serve::run(&args, serve::Load::Light, &mut report, &trace_dir, &header),
        "serve_saturate" => serve::run(
            &args,
            serve::Load::Saturate,
            &mut report,
            &trace_dir,
            &header,
        ),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    print!("{text}");

    let table: &[(&str, &str)] = if args.trace {
        &harness::PER_LAYER
    } else {
        &harness::END_TO_END
    };
    for &(name, unit) in table {
        if let Some(v) = report.metrics.get(name) {
            println!("{name:<36} {v:>16.3} {unit}");
        }
    }
    for failure in &report.check_failures {
        println!("CHECK FAILED: {failure}");
    }
    match report.result_line(args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if !report.check_failures.is_empty() {
        std::process::exit(1);
    }
}
