//! Per-crate rule scoping: `aroma-lint.toml` at the workspace root.
//!
//! Some crates' *purpose* conflicts with a rule — `lpc-bench` exists to
//! measure wall time, so flagging every `Instant::now` there would bury the
//! signal in boilerplate waivers. The config allows a rule for a whole
//! crate, with the rationale kept as comments in the config file itself
//! (one audited place, instead of dozens of identical line waivers).
//!
//! The format is a hand-parsed TOML subset (the dependency set has no toml
//! crate, and the gate must stay std-only):
//!
//! ```toml
//! # why this crate gets the exemption …
//! [crate "bench"]
//! allow = ["sim-wall-clock"]
//! ```
//!
//! Crate names are the directory names under `crates/`, and a top-level
//! package directory outside it (`e2ebench/`) is a crate of its own name;
//! the root package's `src/`, `examples/`, `tests/` and top-level files
//! belong to the pseudo-crate `"root"`. Unknown rule ids in the config are
//! hard errors — a typo must not silently allow nothing.

use std::collections::BTreeMap;

/// Parsed configuration: crate name → rules allowed crate-wide.
#[derive(Clone, Debug, Default)]
pub struct Config {
    allows: BTreeMap<String, Vec<String>>,
}

/// A config-file problem (reported with a line number, fatal to the run).
#[derive(Clone, Debug)]
pub struct ConfigError {
    /// 1-based line in the config file.
    pub line: u32,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "aroma-lint.toml:{}: {}", self.line, self.msg)
    }
}

impl Config {
    /// Parse the config text.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut current: Option<String> = None;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = raw.trim();
            let err = |msg: String| ConfigError { line: lineno, msg };
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let rest = rest
                    .strip_suffix(']')
                    .ok_or_else(|| err("section header missing `]`".to_string()))?;
                let name = rest
                    .trim()
                    .strip_prefix("crate")
                    .map(str::trim)
                    .and_then(|s| s.strip_prefix('"'))
                    .and_then(|s| s.strip_suffix('"'))
                    .ok_or_else(|| err(format!("expected `[crate \"<name>\"]`, got `{line}`")))?;
                if name.is_empty() {
                    return Err(err("empty crate name".to_string()));
                }
                cfg.allows.entry(name.to_string()).or_default();
                current = Some(name.to_string());
            } else if let Some(rest) = line.strip_prefix("allow") {
                let Some(section) = &current else {
                    return Err(err("`allow` outside a [crate …] section".to_string()));
                };
                let rest = rest
                    .trim()
                    .strip_prefix('=')
                    .map(str::trim)
                    .ok_or_else(|| err("expected `allow = [\"rule\", …]`".to_string()))?;
                let inner = rest
                    .strip_prefix('[')
                    .and_then(|s| s.strip_suffix(']'))
                    .ok_or_else(|| err("expected a `[\"…\"]` list".to_string()))?;
                for item in inner.split(',') {
                    let item = item.trim();
                    if item.is_empty() {
                        continue;
                    }
                    let rule = item
                        .strip_prefix('"')
                        .and_then(|s| s.strip_suffix('"'))
                        .ok_or_else(|| err(format!("rule id must be quoted: `{item}`")))?;
                    if !crate::rules::known_rule(rule) {
                        return Err(err(format!(
                            "unknown rule `{rule}` (typos must not silently allow nothing)"
                        )));
                    }
                    cfg.allows
                        .get_mut(section)
                        .expect("section was just inserted")
                        .push(rule.to_string());
                }
            } else {
                return Err(err(format!("unrecognised line: `{line}`")));
            }
        }
        Ok(cfg)
    }

    /// The crate a workspace-relative path belongs to.
    pub fn crate_of(rel_path: &str) -> &str {
        const ROOT_PACKAGE_DIRS: [&str; 3] = ["src", "tests", "examples"];
        let mut segs = rel_path.split('/');
        match (segs.next(), segs.next()) {
            (Some("crates"), Some(name)) => name,
            (Some(dir), Some(_)) if !ROOT_PACKAGE_DIRS.contains(&dir) => dir,
            _ => "root",
        }
    }

    /// Is `rule` allowed crate-wide for the crate owning `rel_path`?
    pub fn allows(&self, rel_path: &str, rule: &str) -> bool {
        self.allows
            .get(Config::crate_of(rel_path))
            .is_some_and(|rules| rules.iter().any(|r| r == rule))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_and_allows() {
        let cfg = Config::parse(
            "# benches measure wall time by design\n\
             [crate \"bench\"]\n\
             allow = [\"sim-wall-clock\", \"sim-os-env\"]\n\
             \n\
             [crate \"root\"]\n\
             allow = []\n",
        )
        .unwrap();
        assert!(cfg.allows("crates/bench/src/checkbench.rs", "sim-wall-clock"));
        assert!(cfg.allows("crates/bench/src/checkbench.rs", "sim-os-env"));
        assert!(!cfg.allows("crates/bench/src/checkbench.rs", "nondet-iter"));
        assert!(!cfg.allows("crates/net/src/network.rs", "sim-wall-clock"));
        assert!(!cfg.allows("src/lib.rs", "sim-wall-clock"));
    }

    #[test]
    fn crate_of_maps_paths() {
        assert_eq!(Config::crate_of("crates/net/src/network.rs"), "net");
        assert_eq!(Config::crate_of("src/lib.rs"), "root");
        assert_eq!(Config::crate_of("examples/chaos.rs"), "root");
        assert_eq!(Config::crate_of("tests/full_stack.rs"), "root");
        assert_eq!(Config::crate_of("build.rs"), "root");
        assert_eq!(Config::crate_of("e2ebench/src/probe.rs"), "e2ebench");
        assert_eq!(
            Config::crate_of("e2ebench/tests/traced_matches_untraced.rs"),
            "e2ebench"
        );
    }

    #[test]
    fn unknown_rule_in_config_is_fatal() {
        let e = Config::parse("[crate \"net\"]\nallow = [\"nondet-itr\"]\n").unwrap_err();
        assert!(e.msg.contains("unknown rule"));
        assert_eq!(e.line, 2);
    }

    #[test]
    fn malformed_lines_are_fatal() {
        assert!(Config::parse("[crate net]\n").is_err());
        assert!(Config::parse("allow = [\"nondet-iter\"]\n").is_err());
        assert!(Config::parse("[crate \"x\"]\nallow \"nondet-iter\"\n").is_err());
        assert!(Config::parse("wat\n").is_err());
    }

    #[test]
    fn empty_config_allows_nothing() {
        let cfg = Config::parse("").unwrap();
        assert!(!cfg.allows("crates/net/src/network.rs", "nondet-iter"));
    }
}
