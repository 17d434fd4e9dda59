//! Minimal flag parsing for the `tps` subcommands (no CLI crate in the
//! offline dependency set), plus the one shared [`CommonOpts`] parser for
//! the flags every partitioning-adjacent subcommand accepts.

use std::collections::HashMap;

use tps_core::job::ThreadMode;
use tps_io::ReaderBackend;

/// Parsed `--flag value` pairs plus boolean switches.
#[derive(Clone, Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parse `--key value` and `--switch` style arguments.
    ///
    /// `switches` lists the boolean flags, `valued` the value-taking ones;
    /// anything else is rejected by name together with the valid set, so a
    /// typo (`--treads 4`) fails loudly instead of being silently ignored.
    pub fn parse(args: &[String], switches: &[&str], valued: &[&str]) -> Result<Flags, String> {
        let mut out = Flags::default();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {arg:?}"));
            };
            if switches.contains(&name) {
                out.switches.push(name.to_string());
            } else if valued.contains(&name) {
                let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                out.values.insert(name.to_string(), value.clone());
            } else {
                let mut valid: Vec<&str> = switches.iter().chain(valued).copied().collect();
                valid.sort_unstable();
                let valid: Vec<String> = valid.iter().map(|f| format!("--{f}")).collect();
                return Err(format!(
                    "unknown flag --{name} (valid: {})",
                    valid.join(", ")
                ));
            }
        }
        Ok(out)
    }

    /// A required string flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.values
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// An optional string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// An optional parsed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }

    /// Whether a boolean switch was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

/// The flag names [`CommonOpts::from_flags`] consumes — splice into a
/// subcommand's `valued` list so no command re-declares them by hand.
pub const COMMON_VALUED: &[&str] = &[
    "algorithm",
    "alpha",
    "passes",
    "reader",
    "threads",
    "mem-budget-mb",
    "format",
];

/// The typed options shared by every subcommand that runs or configures a
/// partitioning job (`partition`, `dist`, `serve`, `info`): one parser, so
/// defaults and error messages cannot drift between subcommands.
#[derive(Clone, Debug)]
pub struct CommonOpts {
    /// `--algorithm` (default `2ps-l`).
    pub algorithm: String,
    /// `--alpha` balance factor (default 1.05).
    pub alpha: f64,
    /// `--passes` clustering passes (default 1).
    pub passes: u32,
    /// `--threads` execution policy (default auto).
    pub threads: ThreadMode,
    /// `--mem-budget-mb` whole-job memory budget (default 0 = unbudgeted),
    /// split deterministically into cluster pages and headroom.
    pub mem_budget_mb: u64,
    /// `--format` input-format override (default: by file extension).
    pub format: Option<String>,
}

impl CommonOpts {
    /// Parse the shared flags out of `flags`.
    pub fn from_flags(flags: &Flags) -> Result<CommonOpts, String> {
        // `--reader` names the one way a file is read; anything else is an
        // input error.
        if let Some(name) = flags.get("reader") {
            name.parse::<ReaderBackend>()
                .map_err(|e| format!("--reader: {e}"))?;
        }
        let threads = match flags.get("threads") {
            None => ThreadMode::Auto,
            Some(mode) => mode.parse().map_err(|e| format!("--threads: {e}"))?,
        };
        Ok(CommonOpts {
            algorithm: flags.get("algorithm").unwrap_or("2ps-l").to_string(),
            alpha: flags.get_or("alpha", 1.05)?,
            passes: flags.get_or("passes", 1)?,
            threads,
            mem_budget_mb: flags.get_or("mem-budget-mb", 0)?,
            format: flags.get("format").map(String::from),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_values_and_switches() {
        let f = Flags::parse(
            &argv(&["--input", "g.bel", "--quiet"]),
            &["quiet"],
            &["input"],
        )
        .unwrap();
        assert_eq!(f.require("input").unwrap(), "g.bel");
        assert!(f.has("quiet"));
        assert!(!f.has("other"));
    }

    #[test]
    fn missing_value_is_error() {
        let err = Flags::parse(&argv(&["--input"]), &[], &["input"]).unwrap_err();
        assert!(err.contains("--input"));
    }

    #[test]
    fn positional_rejected() {
        assert!(Flags::parse(&argv(&["oops"]), &[], &[]).is_err());
    }

    #[test]
    fn unknown_flag_names_itself_and_the_valid_set() {
        let err =
            Flags::parse(&argv(&["--treads", "4"]), &["quiet"], &["input", "threads"]).unwrap_err();
        assert!(err.contains("--treads"), "{err}");
        assert!(err.contains("--input"), "{err}");
        assert!(err.contains("--quiet"), "{err}");
        assert!(err.contains("--threads"), "{err}");
    }

    #[test]
    fn typed_defaults() {
        let f = Flags::parse(&argv(&["--k", "32"]), &[], &["k"]).unwrap();
        assert_eq!(f.get_or("k", 4u32).unwrap(), 32);
        assert_eq!(f.get_or("alpha", 1.05f64).unwrap(), 1.05);
        assert!(f.get_or::<u32>("k-bad", 1).is_ok());
    }

    #[test]
    fn unparsable_value_is_error() {
        let f = Flags::parse(&argv(&["--k", "many"]), &[], &["k"]).unwrap();
        assert!(f.get_or::<u32>("k", 1).is_err());
    }

    #[test]
    fn common_opts_defaults_and_parsing() {
        let f = Flags::parse(&argv(&[]), &[], COMMON_VALUED).unwrap();
        let c = CommonOpts::from_flags(&f).unwrap();
        assert_eq!(c.algorithm, "2ps-l");
        assert_eq!(c.alpha, 1.05);
        assert_eq!(c.passes, 1);
        assert_eq!(c.threads, ThreadMode::Auto);
        assert_eq!(c.mem_budget_mb, 0);
        assert_eq!(c.format, None);

        let f = Flags::parse(
            &argv(&[
                "--reader",
                "buffered",
                "--threads",
                "serial",
                "--alpha",
                "1.2",
                "--passes",
                "3",
                "--algorithm",
                "2ps-hdrf",
                "--mem-budget-mb",
                "256",
                "--format",
                "text",
            ]),
            &[],
            COMMON_VALUED,
        )
        .unwrap();
        let c = CommonOpts::from_flags(&f).unwrap();
        assert_eq!(c.threads, ThreadMode::Serial);
        assert_eq!(c.alpha, 1.2);
        assert_eq!(c.passes, 3);
        assert_eq!(c.algorithm, "2ps-hdrf");
        assert_eq!(c.mem_budget_mb, 256);
        assert_eq!(c.format.as_deref(), Some("text"));

        for gone in ["floppy", "mmap", "prefetch"] {
            let f = Flags::parse(&argv(&["--reader", gone]), &[], COMMON_VALUED).unwrap();
            let err = CommonOpts::from_flags(&f).unwrap_err();
            assert!(
                err.contains("--reader") && err.contains("buffered"),
                "{err}"
            );
        }
        let f = Flags::parse(&argv(&["--threads", "zero"]), &[], COMMON_VALUED).unwrap();
        assert!(CommonOpts::from_flags(&f).is_err());
    }
}
