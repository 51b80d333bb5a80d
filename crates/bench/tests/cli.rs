//! Argument hygiene of the benchmark binaries: `--help` prints usage and
//! succeeds, and an unknown option is a usage error that writes nothing.
//! (CI runs the `--smoke` and `--check <path>` forms.)

use std::path::PathBuf;
use std::process::{Command, Output};

const BENCH_SWEEP: &str = env!("CARGO_BIN_EXE_bench_sweep");
const BENCH_SERVE: &str = env!("CARGO_BIN_EXE_bench_serve");

/// An empty working directory for one invocation, so the test can see
/// every file the binary writes.
fn empty_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ce-bench-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `bin` with `args` in a fresh empty directory; returns its output
/// and the names of the files it left there.
fn run_in_empty_dir(bin: &str, tag: &str, args: &[&str]) -> (Output, Vec<String>) {
    let dir = empty_dir(tag);
    let output = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn benchmark binary");
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("read scratch dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    written.sort();
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    (output, written)
}

#[test]
fn help_prints_usage_and_writes_nothing() {
    for (bin, tag) in [(BENCH_SWEEP, "sweep-help"), (BENCH_SERVE, "serve-help")] {
        for flag in ["--help", "-h"] {
            let (output, written) = run_in_empty_dir(bin, tag, &[flag]);
            assert_eq!(output.status.code(), Some(0), "{bin} {flag}");
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(stdout.starts_with("usage:"), "{bin} {flag}: {stdout}");
            assert!(written.is_empty(), "{bin} {flag} wrote {written:?}");
        }
    }
}

#[test]
fn unknown_option_is_a_usage_error_that_writes_nothing() {
    for (bin, tag) in [(BENCH_SWEEP, "sweep-bogus"), (BENCH_SERVE, "serve-bogus")] {
        for args in [&["--bogus"][..], &["--smoke", "-x"], &["a.json", "b.json"]] {
            let (output, written) = run_in_empty_dir(bin, tag, args);
            assert_eq!(output.status.code(), Some(2), "{bin} {args:?}");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
            assert!(output.stdout.is_empty(), "{bin} {args:?} printed to stdout");
            assert!(written.is_empty(), "{bin} {args:?} wrote {written:?}");
        }
    }
}
