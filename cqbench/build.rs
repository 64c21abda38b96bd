//! Records the compiler version and source revision the benchmark was built
//! with, so every result names the toolchain that produced it.

use std::process::Command;

fn capture(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = capture(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let revision =
        capture("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=CQBENCH_RUSTC={version}");
    println!("cargo:rustc-env=CQBENCH_GIT_REV={revision}");
    println!("cargo:rerun-if-changed=build.rs");
}
