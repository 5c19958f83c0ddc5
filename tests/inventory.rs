//! DESIGN.md §3 is the module inventory ROADMAP item 5 decides deletions
//! from; it cannot go stale. Every `pub mod <name>;` of a workspace
//! crate's `lib.rs` must be named, as `` `<name>` `` (or `` `<name>/…` ``
//! for a directory module), in that section.

use std::fs;
use std::path::Path;

/// The text of DESIGN.md from the `## 3.` heading up to the next `## `.
fn design_section_3(root: &Path) -> String {
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let start = design.find("\n## 3.").expect("DESIGN.md has a §3") + 1;
    let rest = &design[start..];
    let end = rest[1..].find("\n## ").map_or(rest.len(), |i| i + 1);
    rest[..end].to_string()
}

#[test]
fn every_public_module_has_a_row_in_design_section_3() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let section = design_section_3(root);
    let mut checked = 0;
    let mut missing = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        let lib = entry.expect("crate dir").path().join("src/lib.rs");
        let Ok(text) = fs::read_to_string(&lib) else {
            continue; // a binary-only crate (xtask)
        };
        for line in text.lines() {
            let Some(name) = line
                .trim()
                .strip_prefix("pub mod ")
                .and_then(|rest| rest.strip_suffix(';'))
            else {
                continue;
            };
            checked += 1;
            // A directory module may be named with its files: `operators/*`.
            if !section.contains(&format!("`{name}`")) && !section.contains(&format!("`{name}/")) {
                missing.push(format!("{} :: {name}", lib.display()));
            }
        }
    }
    assert!(
        checked > 50,
        "found only {checked} modules: is the glob right?"
    );
    assert!(
        missing.is_empty(),
        "modules without a DESIGN.md §3 row: {missing:#?}"
    );
}
