//! DESIGN.md §3 is the module inventory ROADMAP item 5 decides deletions
//! from; it cannot go stale. Every `pub mod <name>;` of a workspace
//! crate's `lib.rs` must be named, as `` `<name>` `` (or `` `<name>/…` ``
//! for a directory module), in that section. The same holds for the
//! vendored stand-ins and DESIGN.md §6, the dependency policy.
//!
//! The lint configuration that carries BORG-L001–L009 (README, "Correctness
//! & static analysis") cannot lose an entry either: the root `clippy.toml`
//! holds the workspace entries, every crate-local one repeats them (clippy
//! reads only the nearest file) and adds its own, and every library crate
//! root denies the unwrap and print lints.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

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

/// A `clippy.toml` as key → values: a scalar's text, or the `path` of
/// each `{ path = "…", reason = "…" }` entry of an array.
fn clippy_config(path: &Path) -> BTreeMap<String, Vec<String>> {
    let text = fs::read_to_string(path).expect("read a clippy.toml");
    let mut config: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut array: Option<String> = None;
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(key) = &array {
            if line == "]" {
                array = None;
            } else {
                let entry = line
                    .strip_prefix("{ path = \"")
                    .and_then(|rest| rest.split('"').next())
                    .unwrap_or_else(|| panic!("{}: unreadable entry {line}", path.display()));
                config
                    .entry(key.clone())
                    .or_default()
                    .push(entry.to_string());
            }
            continue;
        }
        let (key, value) = line
            .split_once(" = ")
            .unwrap_or_else(|| panic!("{}: unreadable line {line}", path.display()));
        if value == "[" {
            array = Some(key.to_string());
        } else {
            config.insert(key.to_string(), vec![value.to_string()]);
        }
    }
    config
}

/// The `clippy.toml` of every crate under `crates/` that has its own.
fn crate_clippy_tomls(root: &Path) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .map(|entry| entry.expect("crate dir").path().join("clippy.toml"))
        .filter(|path| path.exists())
        .collect();
    found.sort();
    found
}

fn crate_config(crate_dir: &str) -> BTreeMap<String, Vec<String>> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    clippy_config(&root.join(crate_dir).join("clippy.toml"))
}

fn assert_disallows(config: &BTreeMap<String, Vec<String>>, key: &str, paths: &[&str]) {
    let listed = config.get(key).map(Vec::as_slice).unwrap_or_default();
    for path in paths {
        assert!(
            listed.iter().any(|p| p == path),
            "{key} lacks {path}: {listed:?}"
        );
    }
}

#[test]
fn root_clippy_toml_holds_the_workspace_entries() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let config = clippy_config(&root.join("clippy.toml"));
    for key in [
        "allow-unwrap-in-tests",
        "allow-expect-in-tests",
        "allow-print-in-tests",
    ] {
        assert_eq!(config.get(key), Some(&vec!["true".to_string()]), "{key}");
    }
    assert_disallows(&config, "disallowed-types", &["std::sync::Mutex"]);
}

#[test]
fn every_crate_clippy_toml_repeats_the_workspace_entries() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let workspace = clippy_config(&root.join("clippy.toml"));
    let locals = crate_clippy_tomls(root);
    assert!(
        locals.len() >= 4,
        "found only {} crate-local clippy.toml files: is the glob right?",
        locals.len()
    );
    let mut missing = Vec::new();
    for path in &locals {
        let local = clippy_config(path);
        for (key, values) in &workspace {
            let has = local.get(key).map(Vec::as_slice).unwrap_or_default();
            for value in values.iter().filter(|v| !has.contains(v)) {
                missing.push(format!("{}: {key} {value}", path.display()));
            }
        }
        if local == workspace {
            missing.push(format!("{}: adds nothing to the root file", path.display()));
        }
    }
    assert!(
        missing.is_empty(),
        "crate-local clippy.toml gaps: {missing:#?}"
    );
}

#[test]
fn virtual_time_crates_disallow_wall_clock_types() {
    for crate_dir in ["crates/desim", "crates/models"] {
        assert_disallows(
            &crate_config(crate_dir),
            "disallowed-types",
            &["std::time::Instant", "std::time::SystemTime"],
        );
    }
}

#[test]
fn executor_crate_disallows_unbounded_recv() {
    assert_disallows(
        &crate_config("crates/parallel"),
        "disallowed-methods",
        &["std::sync::mpsc::Receiver::recv"],
    );
}

#[test]
fn experiments_crate_disallows_raw_thread_spawn() {
    assert_disallows(
        &crate_config("crates/experiments"),
        "disallowed-methods",
        &["std::thread::spawn"],
    );
}

/// The lints named by the `#![deny(..)]` attributes of each library crate root
/// (`crates/*/src/lib.rs` and the root package's `src/lib.rs`).
fn denied_at_library_roots() -> Vec<(PathBuf, Vec<String>)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut libs = vec![root.join("src/lib.rs")];
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        let lib = entry.expect("crate dir").path().join("src/lib.rs");
        if lib.exists() {
            libs.push(lib);
        }
    }
    libs.sort();
    libs.into_iter()
        .map(|lib| {
            let text = fs::read_to_string(&lib).expect("read a crate root");
            let denied = text
                .split("#![deny(")
                .skip(1)
                .flat_map(|rest| rest[..rest.find(")]").unwrap_or(0)].split(','))
                .map(|lint| lint.trim().to_string())
                .filter(|lint| !lint.is_empty())
                .collect();
            (lib, denied)
        })
        .collect()
}

fn assert_every_library_root_denies(lints: &[&str]) {
    let roots = denied_at_library_roots();
    assert!(roots.len() > 10, "found only {} library roots", roots.len());
    let mut missing = Vec::new();
    for (lib, denied) in &roots {
        for lint in lints.iter().filter(|l| !denied.iter().any(|d| d == *l)) {
            missing.push(format!("{}: {lint}", lib.display()));
        }
    }
    assert!(
        missing.is_empty(),
        "library roots not denying: {missing:#?}"
    );
}

#[test]
fn every_library_root_denies_unwrap_and_expect() {
    assert_every_library_root_denies(&["clippy::unwrap_used", "clippy::expect_used"]);
}

#[test]
fn every_library_root_denies_print_macros() {
    assert_every_library_root_denies(&["clippy::print_stdout", "clippy::print_stderr"]);
}

#[test]
fn vendored_rand_defines_no_entropy_source() {
    // With none of these defined, a call to one cannot compile: the
    // stand-in is all the `rand` the workspace can name.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut scanned = 0;
    let mut found = Vec::new();
    for entry in fs::read_dir(root.join("vendor/rand/src")).expect("read vendor/rand/src") {
        let path = entry.expect("a source file").path();
        let text = fs::read_to_string(&path).expect("read a source file");
        scanned += 1;
        for (n, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or_default();
            for word in code.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
                if ["thread_rng", "random", "from_entropy", "OsRng"].contains(&word) {
                    found.push(format!("{}:{}: {word}", path.display(), n + 1));
                }
            }
        }
    }
    assert!(scanned > 0, "no source file under vendor/rand/src");
    assert!(found.is_empty(), "entropy-seeded sources: {found:#?}");
}
