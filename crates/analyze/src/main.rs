//! `psdp-audit` CLI: run the workspace determinism & robustness audit.
//!
//! ```text
//! psdp-analyze [--root PATH] [--config FILE] [--json] [--deny-warnings]
//! ```
//!
//! Exit status: `0` clean, `1` findings, `2` usage/config error. CI runs
//! `cargo run -p psdp-analyze -- --deny-warnings` as a fail-fast gate
//! before the test suite.

use std::path::PathBuf;
use std::process::ExitCode;

use psdp_analyze::{run_audit, Options};

const USAGE: &str = "\
psdp-audit: workspace determinism & robustness lint (DESIGN.md §11)

usage: psdp-analyze [--root PATH] [--config FILE] [--json] [--deny-warnings]

  --root PATH       workspace root to audit (default: current directory)
  --config FILE     audit.toml allowlist (default: <root>/audit.toml if present)
  --json            machine-readable report on stdout
  --deny-warnings   treat warnings (unused suppressions/allowlist entries, U1) as fatal
";

struct Cli {
    root: PathBuf,
    config: Option<PathBuf>,
    json: bool,
    deny_warnings: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli { root: PathBuf::from("."), config: None, json: false, deny_warnings: false };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => {
                cli.root = it.next().map(PathBuf::from).ok_or("--root needs a path")?;
            }
            "--config" => {
                cli.config = Some(it.next().map(PathBuf::from).ok_or("--config needs a file")?);
            }
            "--json" => cli.json = true,
            "--deny-warnings" => cli.deny_warnings = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("psdp-audit: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let opts = Options { config_path: cli.config };
    let report = match run_audit(&cli.root, &opts) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("psdp-audit: {msg}");
            return ExitCode::from(2);
        }
    };

    if cli.json {
        print!("{}", report.json());
    } else {
        print!("{}", report.human());
    }
    if report.is_clean(cli.deny_warnings) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
