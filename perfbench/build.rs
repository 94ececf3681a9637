//! Passes the compilation target to the binary, which stamps it on every
//! result.

fn main() {
    let target = std::env::var("TARGET").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_TARGET={target}");
    println!("cargo:rerun-if-changed=build.rs");
}
