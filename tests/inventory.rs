//! DESIGN.md §3 is the module inventory ROADMAP item 5 decides deletions
//! from; it cannot go stale. Every `pub mod <name>;` of a workspace
//! crate's `lib.rs` must be named, as `` `<name>` `` (or `` `<name>/…` ``
//! for a directory module), in that section. The same holds for the
//! vendored stand-ins and DESIGN.md §6, the dependency policy.

use std::fs;
use std::path::Path;

/// The text of DESIGN.md from the `## <number>.` heading up to the next
/// `## `.
fn design_section(root: &Path, number: u32) -> String {
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("read DESIGN.md");
    let heading = format!("\n## {number}.");
    let start = design.find(&heading).expect("DESIGN.md has the section") + 1;
    let rest = &design[start..];
    let end = rest[1..].find("\n## ").map_or(rest.len(), |i| i + 1);
    rest[..end].to_string()
}

#[test]
fn every_public_module_has_a_row_in_design_section_3() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let section = design_section(root, 3);
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

#[test]
fn every_vendored_stand_in_is_a_used_dependency_named_in_design_section_6() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &Path| fs::read_to_string(path).expect("read a manifest");
    let workspace = read(&root.join("Cargo.toml"));
    let table = workspace
        .split("\n[workspace.dependencies]\n")
        .nth(1)
        .expect("the root manifest has [workspace.dependencies]");
    let table = &table[..table.find("\n[").unwrap_or(table.len())];
    // The root package and every crate under crates/ (the stand-ins'
    // own manifests do not count as users).
    let mut users = vec![workspace.clone()];
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        users.push(read(&entry.expect("crate dir").path().join("Cargo.toml")));
    }
    let section = design_section(root, 6);
    let mut vendored = 0;
    let mut stale = Vec::new();
    for entry in fs::read_dir(root.join("vendor")).expect("read vendor/") {
        let name = entry.expect("vendor dir").file_name();
        let name = name.to_str().expect("a UTF-8 directory name");
        vendored += 1;
        if !table.contains(&format!("\n{name} = {{ path = \"vendor/{name}\" }}")) {
            stale.push(format!(
                "vendor/{name}: no [workspace.dependencies] path entry"
            ));
        }
        let used = format!("\n{name}.workspace = true\n");
        if !users.iter().any(|manifest| manifest.contains(&used)) {
            stale.push(format!("vendor/{name}: no workspace crate depends on it"));
        }
        if !section.contains(&format!("`{name}`")) {
            stale.push(format!("vendor/{name}: DESIGN.md §6 does not name it"));
        }
    }
    assert!(
        vendored > 0,
        "found no vendored stand-in: is the path right?"
    );
    assert!(stale.is_empty(), "stale vendored stand-ins: {stale:#?}");
}
