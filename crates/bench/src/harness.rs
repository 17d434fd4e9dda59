//! Common command-line plumbing for the experiment binaries.
//!
//! `repro` and the JSON bench binaries (`io_readers`, `parallel_scaling`,
//! `dist_scaling`, `serve_scaling`) accept:
//!
//! * `--scale <f>`   dataset scale factor (default 1.0: the stand-ins of
//!   `tps_graph::datasets`, ~1000× below the paper's graphs)
//! * `--repeats <n>` measurement repetitions (default 3, as in the paper)
//! * `--quick`       shorthand for `--scale 0.1 --repeats 1`
//! * `--csv <dir>`   also write CSV outputs into `<dir>`
//!
//! Parsing is intentionally hand-rolled (no CLI crate in the offline set).

use std::path::PathBuf;

/// Parsed common options.
#[derive(Clone, Debug)]
pub struct BenchArgs {
    /// Dataset scale factor.
    pub scale: f64,
    /// Repetitions per measurement.
    pub repeats: u32,
    /// Optional CSV output directory.
    pub csv_dir: Option<PathBuf>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: 1.0,
            repeats: 3,
            csv_dir: None,
        }
    }
}

impl BenchArgs {
    /// Parse from `std::env::args` (skipping the binary name).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = BenchArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    out.scale = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--scale needs a positive number"));
                }
                "--repeats" => {
                    out.repeats = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--repeats needs a positive integer"));
                }
                "--quick" => {
                    out.scale = 0.1;
                    out.repeats = 1;
                }
                "--csv" => {
                    out.csv_dir = Some(PathBuf::from(
                        it.next().unwrap_or_else(|| die("--csv needs a directory")),
                    ));
                }
                "--help" | "-h" => {
                    eprintln!("options: [--scale f] [--repeats n] [--quick] [--csv dir]");
                    std::process::exit(0);
                }
                other => die(&format!("unknown argument {other:?}")),
            }
        }
        if out.scale <= 0.0 {
            die("--scale must be positive");
        }
        if out.repeats == 0 {
            die("--repeats must be at least 1");
        }
        out
    }

    /// Write `table` as CSV to `<csv_dir>/<name>.csv` if requested.
    pub fn maybe_write_csv(&self, name: &str, table: &tps_metrics::table::Table) {
        if let Some(dir) = &self.csv_dir {
            let path = dir.join(format!("{name}.csv"));
            match table.write_csv(&path) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("failed to write {}: {e}", path.display()),
            }
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.scale, 1.0);
        assert_eq!(a.repeats, 3);
        assert!(a.csv_dir.is_none());
    }

    #[test]
    fn quick_flag() {
        let a = parse(&["--quick"]);
        assert_eq!(a.scale, 0.1);
        assert_eq!(a.repeats, 1);
    }

    #[test]
    fn explicit_values() {
        let a = parse(&["--scale", "0.5", "--repeats", "5", "--csv", "/tmp/x"]);
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.repeats, 5);
        assert_eq!(a.csv_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
    }
}
