//! The experiment ids the `repro` harness runs are the ids the documents
//! describe: `ALL_IDS`, in order, must equal the `## <ID> —` headings of
//! EXPERIMENTS.md, the rows of the DESIGN.md §4 table, and the
//! `== <ID> —` headings of the committed `repro_full_output.txt`.

use lpc_bench::experiments::ALL_IDS;
use std::path::Path;

fn repo_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `ALL_IDS` upper-cased, as the documents spell them.
fn expected() -> Vec<String> {
    ALL_IDS.iter().map(|id| id.to_uppercase()).collect()
}

/// The id in `line` if it starts with `prefix`, then an id, then ` —`.
fn heading_id(line: &str, prefix: &str) -> Option<String> {
    let (id, _) = line.strip_prefix(prefix)?.split_once(" —")?;
    let is_id = id.len() >= 2
        && id.starts_with(|c: char| c.is_ascii_uppercase())
        && id[1..].chars().all(|c| c.is_ascii_digit());
    is_id.then(|| id.to_string())
}

#[test]
fn experiments_md_headings_match_all_ids() {
    let ids: Vec<String> = repo_file("EXPERIMENTS.md")
        .lines()
        .filter_map(|l| heading_id(l, "## "))
        .collect();
    assert_eq!(ids, expected());
}

#[test]
fn design_md_experiment_table_matches_all_ids() {
    let design = repo_file("DESIGN.md");
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("4. "))
        .expect("DESIGN.md has a §4");
    let ids: Vec<String> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| ")?.split_once(" |"))
        .map(|(id, _)| id.to_string())
        .filter(|id| id != "Id")
        .collect();
    assert_eq!(ids, expected());
}

#[test]
fn committed_repro_output_headings_match_all_ids() {
    let ids: Vec<String> = repo_file("repro_full_output.txt")
        .lines()
        .filter_map(|l| heading_id(l, "== "))
        .collect();
    assert_eq!(ids, expected());
}
