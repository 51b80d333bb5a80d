//! Argument parsing shared by the `bench_sweep` and `bench_serve`
//! binaries.
//!
//! Both accept the same grammar: `--smoke`, `--check`, `--help`/`-h`, and
//! at most one positional path. Anything else that starts with `-` is a
//! usage error, so a mistyped flag can never become an output path.

use std::process::ExitCode;

/// A parsed benchmark command line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchArgs {
    /// `--smoke`: the small CI-speed pass.
    pub smoke: bool,
    /// `--check`: validate an existing output file instead of timing.
    pub check: bool,
    /// The positional output (or, with `check`, input) path.
    pub path: Option<String>,
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Returns the code the binary should exit with instead of running:
/// success after `--help` printed `usage` to stdout, and 2 after an
/// unknown option or a second path printed the problem and `usage` to
/// stderr.
pub fn parse_bench_args(
    program: &str,
    usage: &str,
    args: impl IntoIterator<Item = String>,
) -> Result<BenchArgs, ExitCode> {
    let mut parsed = BenchArgs::default();
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{usage}");
                return Err(ExitCode::SUCCESS);
            }
            "--smoke" => parsed.smoke = true,
            "--check" => parsed.check = true,
            _ if arg.starts_with('-') || parsed.path.is_some() => {
                eprint!("{program}: unexpected argument `{arg}`\n{usage}");
                return Err(ExitCode::from(2));
            }
            _ => parsed.path = Some(arg),
        }
    }
    Ok(parsed)
}
