//! Workspace source discovery and file classification for the lint pass.

use std::path::{Path, PathBuf};

/// How a source file participates in the lint pass; rules scope themselves
/// by class (e.g. BORG-L014 applies to library code, not tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library source under `crates/*/src` or the root `src/`.
    Library,
    /// Binary entry points (`src/bin/**`, `src/main.rs` of the xtask crate).
    Bin,
    /// Integration tests, benches, and examples.
    TestOrBench,
}

/// A discovered source file.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root (forward slashes).
    pub rel_path: String,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
    pub class: FileClass,
}

/// Directories scanned for Rust sources, relative to the workspace root.
/// `vendor/` is deliberately absent: the stand-ins there emulate external
/// crates whose whole point may be to wrap forbidden constructs (e.g.
/// parking_lot over `std::sync::Mutex`).
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

/// Path fragments excluded from scanning. The fixtures file contains
/// deliberate violations for the self-test and must not fail `check`.
const EXCLUDED_FRAGMENTS: &[&str] = &["/fixtures/", "/target/"];

/// Locates the workspace root from the xtask manifest directory.
pub fn workspace_root() -> Result<PathBuf, String> {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .map_err(|_| "CARGO_MANIFEST_DIR not set; run via `cargo xtask`".to_string())?;
    Path::new(&manifest)
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("cannot derive workspace root from {manifest}"))
}

/// Recursively collects every `.rs` file under the scan roots.
pub fn discover(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut out = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        if dir.is_dir() {
            walk(root, &dir, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir entry in {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            walk(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("strip_prefix {}: {e}", path.display()))?;
            let rel_path = format!("/{}", rel.display()).replace('\\', "/");
            let rel_path = rel_path.trim_start_matches('/').to_string();
            let probe = format!("/{rel_path}");
            if EXCLUDED_FRAGMENTS.iter().any(|f| probe.contains(f)) {
                continue;
            }
            out.push(SourceFile {
                class: classify(&rel_path),
                rel_path,
                abs_path: path,
            });
        }
    }
    Ok(())
}

/// Classifies a workspace-relative path.
pub fn classify(rel_path: &str) -> FileClass {
    if rel_path.contains("/src/bin/") || rel_path == "crates/xtask/src/main.rs" {
        FileClass::Bin
    } else if rel_path.starts_with("tests/")
        || rel_path.starts_with("examples/")
        || rel_path.contains("/tests/")
        || rel_path.contains("/benches/")
        || rel_path.contains("/examples/")
    {
        FileClass::TestOrBench
    } else {
        FileClass::Library
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_path() {
        assert_eq!(classify("crates/core/src/archive.rs"), FileClass::Library);
        assert_eq!(classify("src/lib.rs"), FileClass::Library);
        assert_eq!(
            classify("crates/experiments/src/bin/borg-exp.rs"),
            FileClass::Bin
        );
        assert_eq!(classify("tests/proptests.rs"), FileClass::TestOrBench);
        assert_eq!(
            classify("crates/core/benches/micro.rs"),
            FileClass::TestOrBench
        );
        assert_eq!(classify("examples/quickstart.rs"), FileClass::TestOrBench);
        assert_eq!(classify("crates/xtask/src/main.rs"), FileClass::Bin);
        assert_eq!(classify("crates/xtask/src/rules.rs"), FileClass::Library);
    }

    #[test]
    fn discovery_finds_known_files_and_skips_fixtures() {
        let root = workspace_root().expect("workspace root");
        let files = discover(&root).expect("discover");
        let rels: Vec<&str> = files.iter().map(|f| f.rel_path.as_str()).collect();
        assert!(rels.contains(&"crates/core/src/archive.rs"), "{rels:?}");
        assert!(rels.contains(&"tests/proptests.rs"));
        assert!(!rels.iter().any(|r| r.contains("fixtures")));
        assert!(!rels.iter().any(|r| r.starts_with("vendor/")));
    }
}
