//! The serving parity gate at tier-1 size: `serve_bench` compares the
//! tile kernel against the row-walk reference on every user (revenue
//! bits, payment bits, offer lists) at each requested thread count and
//! exits 1 on any divergence.

use std::process::Command;

#[test]
fn serve_bench_tiny_run_matches_the_reference() {
    let out = Command::new(env!("CARGO_BIN_EXE_serve_bench"))
        .args(["scale=tiny", "target_users=2000", "threads=1,2", "repeat=1"])
        .env_remove("BENCH_JSON")
        .output()
        .expect("serve_bench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("served bit-identically at [1, 2] threads"), "stdout: {stdout}");
}
