//! Minimal CLI argument parsing shared by the experiment binaries.
//!
//! Flags understood by every binary:
//!
//! - `--paper`      run the paper's sizes and 10+15 protocol (slow on CPU);
//! - `--quick`      tiny smoke-test sizes (seconds);
//! - `--threads N`  worker count, at least 1 (default: `GPA_THREADS` or all
//!   cores);
//! - `--out DIR`    CSV output directory (default `results/`);
//! - `--seed S`     workload seed;
//! - `--help`       print the flags and exit.

use std::path::PathBuf;

/// Size/protocol scaling selected on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test sizes.
    Quick,
    /// CPU-feasible defaults (minutes).
    Default,
    /// The paper's exact sizes and protocol (hours on CPU).
    Paper,
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Selected scale.
    pub scale: Scale,
    /// Worker threads (None = library default).
    pub threads: Option<usize>,
    /// CSV output directory.
    pub out_dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: Scale::Default,
            threads: None,
            out_dir: PathBuf::from("results"),
            seed: 0x5EED,
        }
    }
}

impl Args {
    /// The flags every binary understands, as `--help` prints them.
    pub(crate) const USAGE: &'static str =
        "flags: --paper | --quick | --threads N | --out DIR | --seed S | --help";

    /// Parse from an iterator of arguments (excluding `argv[0]`).
    /// `Ok(None)` means `--help` was asked for; an unknown flag or a bad
    /// value is an error message.
    pub(crate) fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Option<Args>, String> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--paper" => out.scale = Scale::Paper,
                "--quick" => out.scale = Scale::Quick,
                "--threads" => {
                    let v = it.next().ok_or("--threads requires a value")?;
                    match v.parse() {
                        Ok(n) if n > 0 => out.threads = Some(n),
                        _ => return Err(format!("bad thread count: {v}")),
                    }
                }
                "--out" => {
                    let v = it.next().ok_or("--out requires a directory")?;
                    out.out_dir = PathBuf::from(v);
                }
                "--seed" => {
                    let v = it.next().ok_or("--seed requires a value")?;
                    out.seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
                }
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown flag {other}; try --help")),
            }
        }
        Ok(Some(out))
    }

    /// Parse the process's real command line: `--help` prints the flags
    /// and exits 0, an error prints its message to stderr and exits 2.
    pub fn from_env() -> Args {
        match Args::parse(std::env::args().skip(1)) {
            Ok(Some(a)) => a,
            Ok(None) => {
                println!("{}", Args::USAGE);
                std::process::exit(0);
            }
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Build the [`gpa_core::AttentionEngine`] this run should use — the
    /// front door every experiment binary now dispatches through.
    pub fn make_engine(&self) -> gpa_core::AttentionEngine {
        let threads = self.threads.unwrap_or_else(gpa_parallel::default_threads);
        gpa_core::AttentionEngine::with_threads(threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string())).map(|a| a.expect("not --help"))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale, Scale::Default);
        assert_eq!(a.out_dir, PathBuf::from("results"));
        assert!(a.threads.is_none());
    }

    #[test]
    fn all_flags() {
        let a = parse(&[
            "--paper",
            "--threads",
            "8",
            "--out",
            "/tmp/x",
            "--seed",
            "42",
        ])
        .unwrap();
        assert_eq!(a.scale, Scale::Paper);
        assert_eq!(a.threads, Some(8));
        assert_eq!(a.out_dir, PathBuf::from("/tmp/x"));
        assert_eq!(a.seed, 42);
    }

    #[test]
    fn quick_flag() {
        assert_eq!(parse(&["--quick"]).unwrap().scale, Scale::Quick);
    }

    #[test]
    fn zero_threads_is_a_bad_value() {
        // A pool clamps 0 to one participant; the run would then report
        // "0 threads" while using one, so the value is refused up front.
        assert_eq!(
            parse(&["--threads", "0"]).unwrap_err(),
            "bad thread count: 0"
        );
        assert_eq!(parse(&["--threads", "1"]).unwrap().threads, Some(1));
    }

    #[test]
    fn errors() {
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "x"]).is_err());
        assert!(parse(&["--wat"]).is_err());
        // Asking for help is not an error, wherever it appears.
        for args in [&["--help"][..], &["--quick", "-h"]] {
            let parsed = Args::parse(args.iter().map(|s| s.to_string()));
            assert!(matches!(parsed, Ok(None)), "{args:?}");
        }
    }
}
