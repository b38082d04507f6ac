//! A corrupted response must fail the command: the kv replay check sees it, the
//! result line says so, and the exit code is not 0.

use std::process::Command;

fn run(extra: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "kv-integrated",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.code(), last)
}

#[test]
fn clean_run_passes_and_corrupted_response_fails() {
    let (code, last) = run(&[]);
    assert_eq!(code, Some(0), "{last}");
    assert!(last.starts_with("{\"correct\": true,"), "{last}");
    assert!(last.contains("\"failed\": 0,"), "{last}");

    let (code, last) = run(&["--corrupt-response", "1000"]);
    assert_eq!(code, Some(1), "{last}");
    assert!(last.starts_with("{\"correct\": false,"), "{last}");
    assert!(last.contains("\"failed\": 1,"), "{last}");
}
