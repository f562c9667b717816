//! # lpc-bench — the experiment harness
//!
//! Regenerates every figure and every quantified claim of the paper (see
//! DESIGN.md §4 for the experiment index). Each experiment lives in
//! [`experiments`] as a pure function returning both structured data and a
//! rendered table, so the `repro` binary, the Criterion benches, and the
//! integration tests all share one implementation.
//!
//! Run everything:
//!
//! ```text
//! cargo run -p lpc-bench --release --bin repro -- all
//! ```
//!
//! or a single experiment: `repro e2`, `repro f4`, …

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkbench;
pub mod discbench;
pub mod experiments;
pub mod fanoutbench;
pub mod mcodebench;
pub mod scenarios;

use std::path::Path;

/// Append one rendered JSON document to a `BENCH_*.json` ledger, keeping
/// the file a JSON array of bench entries: a missing file starts a fresh
/// array, a legacy single-object file is wrapped into `[old, new]`, and
/// an existing array gains the entry before its final `]`.
pub fn append_bench_entry(path: &Path, entry: &str) -> std::io::Result<()> {
    let existing = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let trimmed = existing.trim_end();
    let out = if let Some(head) = trimmed.strip_suffix(']') {
        let head = head.trim_end();
        if head.ends_with('[') {
            format!("{head}\n{entry}\n]")
        } else {
            format!("{},\n{}\n]", head.trim_end_matches(','), entry)
        }
    } else if trimmed.is_empty() {
        format!("[\n{entry}\n]")
    } else {
        format!("[\n{trimmed},\n{entry}\n]")
    };
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::append_bench_entry;
    use std::path::PathBuf;

    /// A ledger path of this test's own, with no file there yet.
    fn fresh_ledger(name: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("lpc-bench-{}-{name}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn append_and_read(path: &PathBuf, entry: &str) -> String {
        append_bench_entry(path, entry).expect("append to ledger");
        let text = std::fs::read_to_string(path).expect("read ledger");
        let _ = std::fs::remove_file(path);
        text
    }

    #[test]
    fn ledger_append_starts_a_missing_file() {
        let path = fresh_ledger("missing");
        assert_eq!(append_and_read(&path, r#"{"n":1}"#), "[\n{\"n\":1}\n]");
    }

    #[test]
    fn ledger_append_wraps_a_legacy_single_object() {
        let path = fresh_ledger("legacy");
        std::fs::write(&path, "{\"n\":1}\n").unwrap();
        assert_eq!(
            append_and_read(&path, r#"{"n":2}"#),
            "[\n{\"n\":1},\n{\"n\":2}\n]"
        );
    }

    #[test]
    fn ledger_append_extends_an_existing_array() {
        let path = fresh_ledger("array");
        std::fs::write(&path, "[\n{\"n\":1},\n{\"n\":2}\n]\n").unwrap();
        assert_eq!(
            append_and_read(&path, r#"{"n":3}"#),
            "[\n{\"n\":1},\n{\"n\":2},\n{\"n\":3}\n]"
        );
        // An empty array gains its first entry without a stray comma.
        std::fs::write(&path, "[]").unwrap();
        assert_eq!(append_and_read(&path, r#"{"n":1}"#), "[\n{\"n\":1}\n]");
    }
}
