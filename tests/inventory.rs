//! DESIGN.md §3 is the module inventory ROADMAP item 5 decides deletions
//! from; it cannot go stale. Every `pub mod <name>;` of a workspace
//! crate's `lib.rs` must be named, as `` `<name>` `` (or `` `<name>/…` ``
//! for a directory module), in that section. The same holds for the
//! vendored stand-ins and DESIGN.md §6, the dependency policy.
//!
//! The BORG-Lxxx rules (README, "Correctness & static analysis") live
//! here too: the clippy configuration that holds most of them (the root
//! `clippy.toml`, the crate-local ones that repeat it, the deny lines at
//! each crate root), and text checks for the rest, each a pure
//! `fn(&str) -> Vec<(line, message)>` with a seeded violation and a clean
//! twin below. The checks read [`live_code`] (those that must see tests read
//! [`code_text`]) and find item bodies by brace matching.

use std::collections::{BTreeMap, BTreeSet};
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
    assert!(checked > 50, "found only {checked} modules");
    assert!(missing.is_empty(), "no DESIGN.md §3 row: {missing:#?}");
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
            stale.push(format!("vendor/{name}: not in [workspace.dependencies]"));
        }
        let used = format!("\n{name}.workspace = true\n");
        if !users.iter().any(|manifest| manifest.contains(&used)) {
            stale.push(format!("vendor/{name}: no workspace crate depends on it"));
        }
        if !section.contains(&format!("`{name}`")) {
            stale.push(format!("vendor/{name}: DESIGN.md §6 does not name it"));
        }
    }
    assert!(vendored > 0, "found no vendored stand-in");
    assert!(stale.is_empty(), "stale vendored stand-ins: {stale:#?}");
}

/// The members of `borg-exp all` (rows of the `SUBS` table in `bin_src`
/// with `in_all: true`) that no `Command:` line of `experiments` names. A
/// line names each code span before its `Output:`, so `` Command: `borg-exp
/// fig1` / `fig2` `` names both.
fn unreported_subcommands(bin_src: &str, experiments: &str) -> Vec<String> {
    let named: Vec<&str> = experiments
        .lines()
        .filter_map(|line| line.strip_prefix("Command:"))
        .filter_map(|line| line.split("Output:").next())
        .flat_map(|line| line.split('`').skip(1).step_by(2))
        .filter_map(|code| code.trim_start_matches("borg-exp ").split(' ').next())
        .collect();
    let table = bin_src.split("static SUBS").nth(1).expect("a SUBS table");
    let table = table.split("\n];").next().unwrap_or(table);
    table
        .split("Sub { name: \"")
        .skip(1)
        .filter(|row| row.contains("in_all: true"))
        .filter_map(|row| row.split('"').next())
        .filter(|name| !named.contains(name))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_subcommand_all_runs_has_a_command_line_in_experiments_md() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| fs::read_to_string(root.join(rel)).expect("read a file");
    let bin = read("crates/experiments/src/bin/borg-exp.rs");
    assert!(
        bin.matches("in_all: true").count() > 5,
        "SUBS table not found"
    );
    let missing = unreported_subcommands(&bin, &read("EXPERIMENTS.md"));
    assert!(
        missing.is_empty(),
        "run by `all`, reported nowhere: {missing:?}"
    );
}

#[test]
fn unreported_subcommand_check_has_teeth() {
    let bin = "static SUBS: [Sub; 4] = [\n    Sub { name: \"fig1\", in_all: true },\n    \
               Sub { name: \"fig2\", args: \"\",\n          in_all: true },\n    \
               Sub { name: \"faults\", in_all: true },\n    Sub { name: \"serve\", in_all: false },\n\
               ];\nfn f() { Sub { name: \"late\", in_all: true }; }\n";
    let seeded = "Command: `borg-exp fig1` / `fig2`. Output: `faults`.\nThe `faults` sweep.\n";
    assert_eq!(unreported_subcommands(bin, seeded), ["faults"]);
    let clean = format!("{seeded}Command: `borg-exp faults --smoke`.\n");
    assert!(unreported_subcommands(bin, &clean).is_empty());
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

fn crate_config(crate_dir: &str) -> BTreeMap<String, Vec<String>> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    clippy_config(&root.join(crate_dir).join("clippy.toml"))
}

/// Asserts `config`'s `key` array lists each of the whitespace-separated `paths`.
fn assert_disallows(config: &BTreeMap<String, Vec<String>>, key: &str, paths: &str) {
    let listed = config.get(key).map(Vec::as_slice).unwrap_or_default();
    for path in paths.split_whitespace() {
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
    let types = "std::sync::Mutex std::collections::HashMap std::collections::HashSet";
    assert_disallows(&config, "disallowed-types", types);
    let leaks = "std::string::String::leak std::boxed::Box::leak std::vec::Vec::leak";
    assert_disallows(&config, "disallowed-methods", leaks);
}

#[test]
fn every_crate_clippy_toml_repeats_the_workspace_entries() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let workspace = clippy_config(&root.join("clippy.toml"));
    let locals: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .map(|entry| entry.expect("crate dir").path().join("clippy.toml"))
        .filter(|path| path.exists())
        .collect();
    assert!(locals.len() >= 4, "{} clippy.toml files", locals.len());
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
    assert!(missing.is_empty(), "clippy.toml gaps: {missing:#?}");
}

#[test]
fn virtual_time_crates_disallow_wall_clock_types() {
    let clocks = "std::time::Instant std::time::SystemTime";
    for crate_dir in ["crates/desim", "crates/models"] {
        assert_disallows(&crate_config(crate_dir), "disallowed-types", clocks);
    }
}

#[test]
fn executor_crate_disallows_unbounded_recv() {
    let recv = "std::sync::mpsc::Receiver::recv";
    assert_disallows(&crate_config("crates/parallel"), "disallowed-methods", recv);
}

#[test]
fn experiments_crate_disallows_raw_thread_spawn() {
    assert_disallows(
        &crate_config("crates/experiments"),
        "disallowed-methods",
        "std::thread::spawn",
    );
}

/// The lints named by the `opener` attributes (`#![deny(` or
/// `#![cfg_attr(not(test),deny(`, whitespace-free) of each library crate
/// root (`crates/*/src/lib.rs` and the root package's `src/lib.rs`), and
/// of the two binaries too when `bins` is set.
fn denied_at_roots(opener: &str, bins: bool) -> Vec<(PathBuf, Vec<String>)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut libs = vec![root.join("src/lib.rs")];
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        let lib = entry.expect("crate dir").path().join("src/lib.rs");
        if lib.exists() {
            libs.push(lib);
        }
    }
    if bins {
        libs.push(root.join("crates/experiments/src/bin/borg-exp.rs"));
        libs.push(root.join("crates/xtask/src/main.rs"));
    }
    libs.sort();
    libs.into_iter()
        .map(|lib| {
            let text = fs::read_to_string(&lib).expect("read a crate root");
            let text: String = text.chars().filter(|c| !c.is_whitespace()).collect();
            let denied = text
                .split(opener)
                .skip(1)
                .flat_map(|rest| rest[..rest.find(')').unwrap_or(0)].split(','))
                .filter(|lint| !lint.is_empty())
                .map(str::to_string)
                .collect();
            (lib, denied)
        })
        .collect()
}

fn assert_every_root_denies(opener: &str, bins: bool, lints: &[&str]) {
    let roots = denied_at_roots(opener, bins);
    assert!(roots.len() > 10, "found only {} crate roots", roots.len());
    let mut missing = Vec::new();
    for (lib, denied) in &roots {
        for lint in lints.iter().filter(|l| !denied.iter().any(|d| d == *l)) {
            missing.push(format!("{}: {lint}", lib.display()));
        }
    }
    assert!(missing.is_empty(), "crate roots not denying: {missing:#?}");
}

#[test]
fn every_library_root_denies_unwrap_and_expect() {
    let lints = ["clippy::unwrap_used", "clippy::expect_used"];
    assert_every_root_denies("#![deny(", false, &lints);
}

#[test]
fn every_library_root_denies_print_macros() {
    let lints = ["clippy::print_stdout", "clippy::print_stderr"];
    assert_every_root_denies("#![deny(", false, &lints);
}

#[test]
fn every_library_root_and_bin_denies_float_cmp_outside_tests() {
    let lints = ["clippy::float_cmp", "clippy::float_cmp_const"];
    assert_every_root_denies("#![cfg_attr(not(test),deny(", true, &lints);
}

#[test]
fn protocol_crate_denies_panics_outside_tests() {
    let (_, denied) = denied_at_roots("#![cfg_attr(not(test),deny(", false)
        .into_iter()
        .find(|(lib, _)| lib.ends_with("crates/protocol/src/lib.rs"))
        .expect("the protocol crate root");
    let panics = "clippy::unreachable clippy::todo clippy::unimplemented clippy::indexing_slicing";
    for lint in panics.split(' ') {
        assert!(denied.iter().any(|d| d == lint), "{lint}: {denied:?}");
    }
}

#[test]
fn net_crate_disallows_raw_connect_and_accept() {
    let raw = "std::net::TcpStream::connect std::os::unix::net::UnixStream::connect \
               std::net::TcpListener::accept std::os::unix::net::UnixListener::accept";
    assert_disallows(&crate_config("crates/net"), "disallowed-methods", raw);
}

#[test]
fn vendored_rand_defines_no_entropy_source() {
    // With none of these defined, a call to one cannot compile: the
    // stand-in is all the `rand` the workspace can name.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    source_files(&root.join("vendor/rand/src"), &mut files);
    assert!(!files.is_empty(), "no source file under vendor/rand/src");
    for path in &files {
        let code = live_code(&fs::read_to_string(path).expect("read a source file"));
        for word in ["thread_rng", "random", "from_entropy", "OsRng"] {
            assert!(
                word_at(&code, word).is_empty(),
                "{}: {word}",
                path.display()
            );
        }
    }
}

/// A text check's findings: `(line, "BORG-Lxxx: what")`.
type Findings = Vec<(u32, String)>;

/// Blanks `bytes` to spaces, keeping line breaks.
fn blank(bytes: &mut [u8]) {
    for c in bytes.iter_mut().filter(|c| **c != b'\n') {
        *c = b' ';
    }
}

/// `src` with comments and literals blanked to spaces; line breaks and byte
/// offsets are kept, so an offset here is one into `src`.
fn code_text(src: &str) -> String {
    let (b, mut out, mut i) = (src.as_bytes(), src.as_bytes().to_vec(), 0);
    while i < b.len() {
        let (from, to) = match (b[i], b.get(i + 1)) {
            (b'/', Some(b'/')) => (i, src[i..].find('\n').map_or(b.len(), |n| i + n)),
            (b'/', Some(b'*')) => (i, src[i..].find("*/").map_or(b.len(), |n| i + n + 2)),
            (b'"', _) => {
                let mut j = i + 1;
                while j < b.len() && b[j] != b'"' {
                    j += if b[j] == b'\\' { 2 } else { 1 };
                }
                (i + 1, j)
            }
            (b'\'', Some(b'\\')) => (i, src[i + 3..].find('\'').map_or(b.len(), |n| i + n + 4)),
            (b'\'', _) => match src[i + 1..].chars().next() {
                Some(c) if b.get(i + 1 + c.len_utf8()) == Some(&b'\'') => (i, i + c.len_utf8() + 2),
                _ => (i, i), // a lifetime
            },
            _ => (i, i),
        };
        blank(&mut out[from..to]);
        i = if b[i] == b'"' { to + 1 } else { to.max(i + 1) };
    }
    String::from_utf8(out).expect("blanking keeps UTF-8")
}

/// [`code_text`] with `#[cfg(test)]`/`#[test]` items blanked too.
fn live_code(src: &str) -> String {
    let mut out = code_text(src).into_bytes();
    for attr in ["#[cfg(test)]", "#[test]"].map(str::as_bytes) {
        while let Some(at) = out.windows(attr.len()).position(|w| w == attr) {
            let end = item_end(&out, at + attr.len());
            blank(&mut out[at..end]);
        }
    }
    String::from_utf8(out).expect("blanking keeps UTF-8")
}

/// Just past the item at `from`: its first `{`'s matching `}`, or a `;` outside
/// every bracket (so not the one in `[T; N]`) before any `{`.
fn item_end(code: &[u8], from: usize) -> usize {
    let (mut braces, mut nested) = (0usize, 0usize);
    for (i, c) in code.iter().enumerate().skip(from) {
        match c {
            b'{' => braces += 1,
            b'}' if braces == 1 => return i + 1,
            b'}' => braces = braces.saturating_sub(1),
            b'(' | b'[' => nested += 1,
            b')' | b']' => nested = nested.saturating_sub(1),
            b';' if braces == 0 && nested == 0 => return i + 1,
            _ => {}
        }
    }
    code.len()
}

/// A finding at offset `at` of `code`.
fn hit(code: &str, at: usize, what: String) -> (u32, String) {
    (code[..at].matches('\n').count() as u32 + 1, what)
}

/// Offsets of `word` in `code` where it is not part of a longer identifier.
fn word_at(code: &str, word: &str) -> Vec<usize> {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut found = Vec::new();
    for (at, _) in code.match_indices(word) {
        if !ident(code[..at].chars().next_back()) && !ident(code[at + word.len()..].chars().next())
        {
            found.push(at);
        }
    }
    found
}

/// BORG-L005: no `==`/`!=` in an expression that names `objectives`. This
/// holds the comparisons `clippy::float_cmp` lets through: against 0.0 or
/// ±∞, and inside functions named `*eq*`.
fn objective_equality(src: &str) -> Findings {
    let (code, mut found) = (live_code(src), Vec::new());
    let stops = [',', ';', '{', '}'];
    for (at, op) in code.match_indices("==").chain(code.match_indices("!=")) {
        let from = code[..at].rfind(stops).map_or(0, |i| i + 1);
        let to = code[at..].find(stops).map_or(code.len(), |i| at + i);
        if !word_at(&code[from..to], "objectives").is_empty() {
            found.push(hit(&code, at, format!("BORG-L005: `{op}` on objectives")));
        }
    }
    found
}

/// BORG-L007: an executor declares no recovery state (deadline map,
/// in-flight table, seen-id set, reissue queue); `MasterEngine` keeps it.
fn recovery_state(src: &str) -> Findings {
    let names = "in_flight outstanding completed_ids seen_eval_ids seen_ids reissue_queue \
                 deadlines deadline_map";
    let (code, mut found) = (live_code(src), Vec::new());
    for ty in ["HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque"] {
        for at in word_at(&code, ty) {
            let from = code[..at].rfind([',', ';', '{', '}']).map_or(0, |i| i + 1);
            let decl = &code[from..at];
            for name in names.split(' ').filter(|n| !word_at(decl, n).is_empty()) {
                found.push(hit(&code, at, format!("BORG-L007: `{name}` is a {ty}")));
            }
        }
    }
    found
}

/// BORG-L011: every `Ordering::Relaxed` has a `// borg-lint: relaxed-ok(<reason>)`
/// comment on its line or the one above.
fn unjustified_relaxed(src: &str) -> Findings {
    let lines: Vec<&str> = src.lines().collect();
    let directive = "// borg-lint: relaxed-ok(";
    let reason = |n: usize| lines.get(n)?.split_once(directive)?.1.split(')').next();
    let justified = |n: usize| reason(n).is_some_and(|r| !r.trim().is_empty());
    let (code, mut found) = (live_code(src), Vec::new());
    for at in word_at(&code, "Ordering::Relaxed") {
        let (n, what) = hit(&code, at, "BORG-L011: no `relaxed-ok(reason)`".to_string());
        if !justified(n as usize - 1) && !justified((n as usize).wrapping_sub(2)) {
            found.push((n, what));
        }
    }
    found
}

/// BORG-L013's other half: no socket deadline is ever set to `None`.
fn timeout_removals(src: &str) -> Findings {
    let (code, mut found) = (live_code(src), Vec::new());
    for setter in ["set_read_timeout(", "set_write_timeout("] {
        for (at, _) in code.match_indices(setter) {
            if code[at + setter.len()..].trim_start().starts_with("None") {
                found.push(hit(&code, at, format!("BORG-L013: `{setter}None)`")));
            }
        }
    }
    found
}

/// BORG-L014: a literal metric name at a recorder call is `[a-z0-9._]+`.
fn malformed_metric_names(src: &str) -> Findings {
    let ok = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_';
    let (code, mut found) = (live_code(src), Vec::new());
    for hook in [".counter(", ".gauge(", ".observe(", ".flight("] {
        for (at, _) in code.match_indices(hook) {
            let arg = code[at + hook.len()..].trim_start_matches([' ', '\n', '&']);
            let open = code.len() - arg.len() + 1;
            let Some(len) = arg.strip_prefix('"').and_then(|rest| rest.find('"')) else {
                continue;
            };
            let name = &src[open..open + len];
            if name.is_empty() || !name.chars().all(ok) {
                found.push(hit(&code, open, format!("BORG-L014: {name:?} at `{hook}`")));
            }
        }
    }
    found
}

/// BORG-L015: no `.to_vec()`, `.collect` or `Vec::new()` in the body of a
/// function marked `// borg-lint: hot-path` (above it or its attributes).
fn hot_path_allocations(src: &str) -> Findings {
    let (code, mut found) = (live_code(src), Vec::new());
    for (mark, _) in src.match_indices("// borg-lint: hot-path") {
        let Some(start) = word_at(&code[mark..], "fn").first().map(|i| mark + i) else {
            continue;
        };
        let end = item_end(code.as_bytes(), start);
        for needle in [".to_vec()", ".collect", "Vec::new()"] {
            for (at, _) in code[start..end].match_indices(needle) {
                found.push(hit(&code, start + at, format!("BORG-L015: `{needle}`")));
            }
        }
    }
    found
}

/// No struct has a `SampleLog` field: an executor keeps no timing log of
/// its own, and a reader that wants one attaches `WithSampleLog`, which
/// `distfit.rs` defines beside `SampleLog` (the one file not checked).
fn sample_log_fields(src: &str) -> Findings {
    let (code, mut found) = (live_code(src), Vec::new());
    for at in word_at(&code, "struct") {
        let end = item_end(code.as_bytes(), at);
        for field in word_at(&code[at..end], "SampleLog") {
            found.push(hit(
                &code,
                at + field,
                "a struct keeps a `SampleLog`".into(),
            ));
        }
    }
    found
}

/// BORG-L016: no `#[test]` compares a wall-clock reading against an upper
/// bound unless every test of its file is `#[ignore]`d — such a band fails
/// on a busy host whatever the code does, so it runs in `ci.sh`, in one
/// process, not in tier-1. A reading is an `.elapsed()` call or a name a
/// `let` of the same test binds to an expression holding one; an upper
/// bound puts it left of ` < `/` <= ` or right of ` > `/` >= `, within one
/// `&&`/`||` operand.
fn elapsed_upper_bounds(src: &str) -> Findings {
    let code = code_text(src);
    let tests = test_items(&code);
    if tests.iter().all(|&(ignored, ..)| ignored) {
        return Vec::new();
    }
    let stops = [',', ';', '{', '}'];
    let mut found = Vec::new();
    for (_, start, end) in tests {
        let body = &code[start..end];
        let mut readings = vec![".elapsed()"];
        for at in word_at(body, "let") {
            let statement = &body[at..item_end(body.as_bytes(), at)];
            let name = statement[3..].trim_start();
            let name = name.strip_prefix("mut ").unwrap_or(name);
            let len = name
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(0);
            if len > 0 && statement.contains(".elapsed()") {
                readings.push(&name[..len]);
            }
        }
        for op in [" < ", " <= ", " > ", " >= "] {
            for (at, _) in body.match_indices(op) {
                let side = if op.contains('<') {
                    let from = body[..at].rfind(stops).map_or(0, |i| i + 1);
                    let left = &body[from..at];
                    let cut = [left.rfind("&&"), left.rfind("||")]
                        .into_iter()
                        .flatten()
                        .max();
                    &left[cut.map_or(0, |i| i + 2)..]
                } else {
                    let rest = &body[at + op.len()..];
                    let right = &rest[..rest.find(stops).unwrap_or(rest.len())];
                    let cut = [right.find("&&"), right.find("||")]
                        .into_iter()
                        .flatten()
                        .min();
                    &right[..cut.unwrap_or(right.len())]
                };
                let reads = |r: &&str| {
                    if r.starts_with('.') {
                        side.contains(*r)
                    } else {
                        !word_at(side, r).is_empty()
                    }
                };
                if readings.iter().any(reads) {
                    let what = format!("BORG-L016: a wall-clock reading under `{}`", op.trim());
                    found.push(hit(&code, start + at, what));
                }
            }
        }
    }
    found
}

/// The `#[test]` items of `code` (a [`code_text`]): whether each is
/// `#[ignore]`d, the offset of its `fn` and the end of its body.
fn test_items(code: &str) -> Vec<(bool, usize, usize)> {
    let mut tests = Vec::new();
    for (at, _) in code.match_indices("#[test]") {
        let Some(name) = word_at(&code[at..], "fn").first().map(|i| at + i) else {
            continue;
        };
        // The attribute block: the lines above `#[test]` that open with
        // `#[`, down to the `fn`.
        let mut head = code[..at].rfind('\n').map_or(0, |i| i + 1);
        while let Some(prev) = code[..head.saturating_sub(1)].rfind('\n') {
            if !code[prev + 1..head].trim_start().starts_with("#[") {
                break;
            }
            head = prev + 1;
        }
        let ignored = code[head..name].contains("#[ignore");
        tests.push((ignored, name, item_end(code.as_bytes(), name)));
    }
    tests
}

/// The names of the `#[ignore]`d tests in `src`.
fn ignored_tests(src: &str) -> Vec<String> {
    let code = code_text(src);
    test_items(&code)
        .into_iter()
        .filter(|&(ignored, ..)| ignored)
        .map(|(_, at, _)| {
            let name = code[at + 2..].trim_start();
            let len = name
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(name.len());
            name[..len].to_string()
        })
        .collect()
}

/// The `#[ignore]`d tests of `files` (path, text) that no `cargo test …
/// --ignored` line of `ci` runs, as `path::name`. A line runs a test if it
/// names it, or if it has `--test <stem>` for the test's file and its
/// filter, if it has one, is part of the test's name (cargo's substring
/// match).
fn unrun_ignored_tests(ci: &str, files: &[(String, String)]) -> Vec<String> {
    let steps: Vec<&str> = ci
        .lines()
        .map(str::trim_start)
        .filter(|line| line.starts_with("cargo test") && line.contains(" --ignored"))
        .collect();
    let mut unrun = Vec::new();
    for (path, text) in files {
        let stem = Path::new(path).file_stem().and_then(|s| s.to_str());
        for name in ignored_tests(text) {
            let runs = |step: &&str| {
                if !word_at(step, &name).is_empty() {
                    return true;
                }
                let args = step.split(" -- ").next().unwrap_or(step);
                let words: Vec<&str> = args.split_whitespace().collect();
                let target = words.windows(2).find(|w| w[0] == "--test").map(|w| w[1]);
                // The filter is a last word that is no flag and no flag's value.
                let filter = match words[..] {
                    [.., flag, last]
                        if !last.starts_with('-') && flag != "-p" && flag != "--test" =>
                    {
                        Some(last)
                    }
                    _ => None,
                };
                target.is_some() && target == stem && filter.is_none_or(|f| name.contains(f))
            };
            if !steps.iter().any(runs) {
                unrun.push(format!("{path}::{name}"));
            }
        }
    }
    unrun
}

/// Every `.rs` file under `dir`, binaries included, recursively.
fn source_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("read a source dir") {
        let path = entry.expect("a dir entry").path();
        if path.is_dir() {
            source_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Runs `check` over the `src/` files of `crates` (every crate and the
/// root package when empty), asserts it finds nothing, and returns them.
fn assert_clean(crates: &[&str], check: fn(&str) -> Findings) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs: Vec<PathBuf> = crates.iter().map(|c| root.join("crates").join(c)).collect();
    if crates.is_empty() {
        let crates = fs::read_dir(root.join("crates")).expect("read crates/");
        dirs.extend(crates.map(|e| e.expect("crate dir").path()));
        dirs.push(root.to_path_buf());
    }
    let mut files = Vec::new();
    for dir in &dirs {
        source_files(&dir.join("src"), &mut files);
    }
    assert!(files.len() >= dirs.len(), "only {} files", files.len());
    let (mut found, mut sources) = (Vec::new(), Vec::new());
    for path in &files {
        let text = fs::read_to_string(path).expect("read a source file");
        let at = |(line, what)| format!("{}:{line}: {what}", path.display());
        found.extend(check(&text).into_iter().map(at));
        sources.push(text);
    }
    assert!(found.is_empty(), "{found:#?}");
    sources
}

/// Every `pub fn`/`pub const` defined under a `crates/*/src/` path in
/// `files`: `(path, line, name)`. Definitions are read from [`live_code`],
/// so one in a comment, a literal or a test region does not count.
fn public_items(files: &[(String, String)]) -> Vec<(String, u32, String)> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut defs = Vec::new();
    for (path, text) in files {
        if !path.starts_with("crates/") || path.split('/').nth(2) != Some("src") {
            continue;
        }
        let code = live_code(text);
        for at in word_at(&code, "pub") {
            let rest = code[at + 3..].trim_start();
            let konst = rest.strip_prefix("const ").map(str::trim_start);
            let rest = konst.unwrap_or(rest);
            let fun = rest.strip_prefix("fn ").map(str::trim_start);
            let rest = fun.unwrap_or(rest);
            let len = rest.find(|c| !ident(c)).unwrap_or(rest.len());
            if len > 0 && (konst.is_some() || fun.is_some()) {
                let from = code.len() - rest.len();
                defs.push((
                    path.clone(),
                    hit(text, from, String::new()).0,
                    text[from..from + len].to_string(),
                ));
            }
        }
    }
    defs
}

/// The items of [`public_items`] whose name occurs as a word in `texts`
/// no more often than it is defined.
fn used_only_at_definitions(
    files: &[(String, String)],
    texts: impl Iterator<Item = impl AsRef<str>>,
) -> Vec<(String, u32, String)> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut words: BTreeMap<String, usize> = BTreeMap::new();
    for text in texts {
        let words_of = text.as_ref().split(|c: char| !ident(c));
        for word in words_of.filter(|w| !w.is_empty()) {
            *words.entry(word.to_string()).or_default() += 1;
        }
    }
    let defs = public_items(files);
    let defined = |name: &str| defs.iter().filter(|d| d.2 == name).count();
    defs.iter()
        .filter(|d| words.get(&d.2).copied().unwrap_or(0) <= defined(&d.2))
        .cloned()
        .collect()
}

/// The [`public_items`] of `files` whose name occurs as a word nowhere in
/// the code of `files` but at such definitions. A name in a comment or a
/// literal is no reference; one in a test region is (a test-only item is
/// [`no_public_item_is_test_only`]'s to report).
fn unreferenced_public_items(files: &[(String, String)]) -> Vec<(String, u32, String)> {
    used_only_at_definitions(files, files.iter().map(|(_, text)| code_text(text)))
}

/// The [`public_items`] of `files` that only tests use: every occurrence of
/// the name outside its definitions lies in a test region (what
/// [`live_code`] blanks), a comment or a literal, or in a file under a
/// `tests/` directory.
fn test_only_public_items(files: &[(String, String)]) -> Vec<(String, u32, String)> {
    let live = files
        .iter()
        .filter(|(path, _)| !path.split('/').any(|dir| dir == "tests"))
        .map(|(_, text)| live_code(text));
    used_only_at_definitions(files, live)
}

/// The [`public_items`] of `files`, outside `src/bin/` and not `exempt`,
/// whose name occurs in the code of no file outside the defining crate's
/// `src/`. A binary under `src/bin/` and a file under `tests/` compile as
/// units of their own, so they count as outside, test regions included.
fn crate_local_public_items(
    files: &[(String, String)],
    exempt: &[(String, String)],
) -> Vec<(String, u32, String)> {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let src_of = |path: &str| {
        let dirs: Vec<&str> = path.split('/').collect();
        (dirs.len() > 3 && dirs[0] == "crates" && dirs[2] == "src" && dirs[3] != "bin")
            .then(|| dirs[..3].join("/") + "/")
    };
    let words: Vec<(Option<String>, BTreeSet<String>)> = files
        .iter()
        .map(|(path, text)| {
            let code = code_text(text);
            let words = code.split(|c: char| !ident(c)).filter(|w| !w.is_empty());
            (src_of(path), words.map(str::to_string).collect())
        })
        .collect();
    public_items(files)
        .into_iter()
        .filter(|(path, _, name)| {
            let Some(src) = src_of(path) else {
                return false;
            };
            !exempt.contains(&(path.clone(), name.clone()))
                && !words
                    .iter()
                    .any(|(unit, words)| unit.as_ref() != Some(&src) && words.contains(name))
        })
        .collect()
}

/// Every `.rs` file of the workspace and the benchmark, as `(path relative
/// to the root, text)`.
fn workspace_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        source_files(&root.join(dir), &mut paths);
    }
    let files: Vec<(String, String)> = paths
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(root).expect("under the root");
            let text = fs::read_to_string(p).expect("read a source file");
            (rel.to_string_lossy().into_owned(), text)
        })
        .collect();
    assert!(files.len() > 100, "only {} files", files.len());
    files
}

#[test]
fn no_public_item_is_unreferenced() {
    let found = unreferenced_public_items(&workspace_sources());
    assert!(found.is_empty(), "{found:#?}");
}

/// Public items that only tests use, one a line: the defining file, the
/// item's name and a test that needs it. Each is an oracle, a reference or
/// a check that tests hold the program to: the linear-scan archive's box
/// key and comparator, the ledger's and the merged trace's own checks, the
/// distribution's CDF, the compiled widths a ratio test times.
/// [`no_public_item_is_test_only`] fails on one missing here and on an
/// entry that live code now uses.
const TEST_ONLY: &str = "
crates/core/src/dominance.rs COMPILED_COLUMNS \
    keyed_scan_outruns_the_exact_kernel_five_times_and_the_loop_at_every_count
crates/core/src/dominance.rs constrained_dominance \
    indexed_archive_matches_linear_scan_on_random_streams
crates/core/src/dominance.rs epsilon_box indexed_archive_matches_linear_scan_on_random_streams
crates/desim/src/fault.rs all_recovered degraded_pool_completes_budget_with_every_fault_recovered
crates/desim/src/fault.rs doomed_workers kill_half_the_workers_mid_run_still_completes
crates/models/src/dist.rs cdf cdf_matches_empirical_distribution
crates/obs/src/shard.rs chains_per_eval merged_trace_has_one_chain_per_completed_eval_under_chaos
";

/// The `(file, name)` of each [`TEST_ONLY`] line.
fn test_only_listed() -> Vec<(String, String)> {
    TEST_ONLY
        .lines()
        .filter(|line| !line.is_empty())
        .map(|line| {
            let words: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(words.len(), 3, "{line:?}: want file, name, test");
            (words[0].to_string(), words[1].to_string())
        })
        .collect()
}

#[test]
fn no_public_item_is_test_only() {
    let found: Vec<(String, String)> = test_only_public_items(&workspace_sources())
        .into_iter()
        .map(|(path, _, name)| (path, name))
        .collect();
    let listed = test_only_listed();
    let unlisted: Vec<_> = found.iter().filter(|f| !listed.contains(f)).collect();
    let stale: Vec<_> = listed.iter().filter(|l| !found.contains(l)).collect();
    assert!(
        unlisted.is_empty() && stale.is_empty(),
        "used only by tests, not on TEST_ONLY: {unlisted:#?}\n\
         on TEST_ONLY, but not (or no longer) test-only: {stale:#?}"
    );
}

/// A `pub` item that no other compilation unit names is `pub(crate)` or
/// private, so rustc's `dead_code` lint sees it. The [`TEST_ONLY`] oracles
/// are exempt: their own crate's tests are their users.
#[test]
fn no_public_item_is_crate_local() {
    let found = crate_local_public_items(&workspace_sources(), &test_only_listed());
    assert!(found.is_empty(), "{found:#?}");
}

#[test]
fn crate_local_item_check_has_teeth() {
    let file = |path: &str, text: &str| (path.to_string(), text.to_string());
    let seeded = [
        file(
            "crates/a/src/lib.rs",
            "pub fn shared() {}\npub fn local() { shared(); }\npub const OWN: u32 = 1;\n\
             pub fn oracle() {}\npub fn quoted() {}\n",
        ),
        file("crates/a/src/b.rs", "fn f() { local(); let _ = OWN; }\n"),
        file("crates/a/src/bin/tool.rs", "pub fn in_bin() {}\n"),
        file(
            "crates/b/src/lib.rs",
            "fn g() { a::shared(); let _ = \"quoted\"; } // quoted\n",
        ),
    ];
    let exempt = [("crates/a/src/lib.rs".to_string(), "oracle".to_string())];
    let want: Vec<(String, u32, String)> = [(2, "local"), (3, "OWN"), (5, "quoted")]
        .iter()
        .map(|&(l, n)| ("crates/a/src/lib.rs".to_string(), l, n.to_string()))
        .collect();
    assert_eq!(crate_local_public_items(&seeded, &exempt), want);
    let clean = [
        file(
            "crates/a/src/lib.rs",
            "pub fn by_bin() {}\npub fn by_test() {}\npub const BY_ROOT: u32 = 1;\n\
             pub(crate) fn private() {}\n",
        ),
        file("crates/a/src/bin/tool.rs", "fn main() { a::by_bin(); }\n"),
        file("crates/a/tests/t.rs", "#[test]\nfn t() { a::by_test(); }\n"),
        file("tests/t.rs", "fn t() { let _ = a::BY_ROOT; }\n"),
    ];
    assert_eq!(crate_local_public_items(&clean, &[]), []);
}

#[test]
fn test_only_item_check_has_teeth() {
    let file = |path: &str, text: &str| (path.to_string(), text.to_string());
    let seeded = [
        file(
            "crates/a/src/lib.rs",
            "pub fn live() {}\npub fn oracle() {}\npub const SEED: u64 = 1;\n\
             fn f() { let _ = \"quoted()\"; } // quoted()\npub fn quoted() {}\n\
             #[cfg(test)]\nmod t { fn g() { oracle(); } }\n\
             #[test]\nfn h() { let _ = SEED; }\n",
        ),
        file("crates/a/tests/t.rs", "fn t() { live(); oracle(); }\n"),
        file("src/lib.rs", "pub fn root() { live(); }\n"),
    ];
    let want: Vec<(String, u32, String)> = [(2, "oracle"), (3, "SEED"), (5, "quoted")]
        .iter()
        .map(|&(l, n)| ("crates/a/src/lib.rs".to_string(), l, n.to_string()))
        .collect();
    assert_eq!(test_only_public_items(&seeded), want);
    let clean = [
        file(
            "crates/a/src/lib.rs",
            "pub fn live() {}\npub const LIMIT: u32 = 3;\n\
             #[cfg(test)]\nmod t { pub fn helper() { super::live(); } }\n",
        ),
        file("crates/b/src/lib.rs", "pub fn user() { a::live(); }\n"),
        file(
            "benchmark/src/main.rs",
            "fn main() { let _ = LIMIT; user(); }\n",
        ),
    ];
    assert_eq!(test_only_public_items(&clean), []);
}

#[test]
fn unreferenced_item_check_has_teeth() {
    let file = |path: &str, text: &str| (path.to_string(), text.to_string());
    let seeded = [
        file(
            "crates/a/src/lib.rs",
            "pub fn used() {}\n/// `lonely` is documented here\npub fn lonely() {}\n\
             pub const fn gone() {}\npub const LIMIT: u32 = 3;\n",
        ),
        file(
            "crates/a/src/b.rs",
            "pub fn lonely_too() {}\n// pub fn in_a_comment()\n\
             pub fn commented() {}\npub fn quoted() {}\n",
        ),
        file(
            "tests/t.rs",
            "fn t() { used(); unused_elsewhere(); }\n// commented()\n\
             fn u() { let _ = \"quoted()\"; }\n",
        ),
    ];
    let names: Vec<(String, u32, String)> = unreferenced_public_items(&seeded);
    let want = [
        ("crates/a/src/lib.rs", 3, "lonely"),
        ("crates/a/src/lib.rs", 4, "gone"),
        ("crates/a/src/lib.rs", 5, "LIMIT"),
        ("crates/a/src/b.rs", 1, "lonely_too"),
        ("crates/a/src/b.rs", 3, "commented"),
        ("crates/a/src/b.rs", 4, "quoted"),
    ];
    let want: Vec<(String, u32, String)> = want
        .iter()
        .map(|&(p, l, n)| (p.to_string(), l, n.to_string()))
        .collect();
    assert_eq!(names, want);
    let clean = [
        file(
            "crates/a/src/lib.rs",
            "pub fn used() {}\npub const LIMIT: u32 = 3;\npub(crate) fn private() {}\n\
             #[cfg(test)]\nmod t { pub fn helper() {} }\n",
        ),
        file(
            "benchmark/src/main.rs",
            "fn main() { used(); let _ = LIMIT; }\n",
        ),
    ];
    assert_eq!(unreferenced_public_items(&clean), []);
}

#[test]
fn library_code_passes_every_text_check() {
    assert_clean(&[], objective_equality);
    assert_clean(&["models", "parallel"], recovery_state);
    assert_clean(&[], unjustified_relaxed);
    assert_clean(&["net"], timeout_removals);
    assert_clean(&[], malformed_metric_names);
    let sources = assert_clean(&["core", "metrics"], hot_path_allocations);
    let marked = sources.concat().matches("// borg-lint: hot-path").count();
    assert!(marked >= 42, "only {marked} hot-path functions marked");
}

#[test]
fn no_tier_one_test_bounds_a_wall_clock_reading() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["src", "tests", "examples"] {
        source_files(&root.join(dir), &mut files);
    }
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        let krate = entry.expect("crate dir").path();
        for dir in ["src", "tests"].map(|d| krate.join(d)) {
            if dir.is_dir() {
                source_files(&dir, &mut files);
            }
        }
    }
    let mut found = Vec::new();
    for path in &files {
        let text = fs::read_to_string(path).expect("read a source file");
        let at = |(line, what)| format!("{}:{line}: {what}", path.display());
        found.extend(elapsed_upper_bounds(&text).into_iter().map(at));
    }
    assert!(files.len() > 100, "only {} files", files.len());
    assert!(found.is_empty(), "{found:#?}");
}

#[test]
fn every_ignored_test_runs_in_ci_sh() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for dir in ["src", "tests", "examples"] {
        source_files(&root.join(dir), &mut paths);
    }
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        let krate = entry.expect("crate dir").path();
        for dir in ["src", "tests"].map(|d| krate.join(d)) {
            if dir.is_dir() {
                source_files(&dir, &mut paths);
            }
        }
    }
    let files: Vec<(String, String)> = paths
        .iter()
        .map(|p| {
            let rel = p.strip_prefix(root).expect("under the root");
            let text = fs::read_to_string(p).expect("read a source file");
            (rel.to_string_lossy().into_owned(), text)
        })
        .collect();
    let ignored: usize = files.iter().map(|(_, t)| ignored_tests(t).len()).sum();
    assert!(ignored > 10, "found only {ignored} ignored tests");
    let ci = fs::read_to_string(root.join("ci.sh")).expect("read ci.sh");
    let unrun = unrun_ignored_tests(&ci, &files);
    assert!(
        unrun.is_empty(),
        "ignored, and no ci.sh step runs them: {unrun:#?}"
    );
}

/// The `examples` (file stems) that no `cargo run … --example <stem>` line
/// of `ci` runs. An `echo`ed or commented command runs nothing.
fn unrun_examples(ci: &str, examples: &[String]) -> Vec<String> {
    let runs: Vec<Vec<&str>> = ci
        .lines()
        .map(str::trim_start)
        .filter(|line| line.starts_with("cargo run"))
        .map(|line| line.split_whitespace().collect())
        .collect();
    examples
        .iter()
        .filter(|name| {
            !runs.iter().any(|words| {
                words
                    .windows(2)
                    .any(|w| w[0] == "--example" && w[1] == name.as_str())
            })
        })
        .cloned()
        .collect()
}

#[test]
fn every_example_runs_in_ci_sh() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    source_files(&root.join("examples"), &mut paths);
    let examples: Vec<String> = paths
        .iter()
        .filter_map(|p| p.file_stem()?.to_str().map(str::to_string))
        .collect();
    assert!(examples.len() >= 4, "found only {examples:?}");
    let ci = fs::read_to_string(root.join("ci.sh")).expect("read ci.sh");
    let unrun = unrun_examples(&ci, &examples);
    assert!(unrun.is_empty(), "no ci.sh step runs: {unrun:#?}");
}

#[test]
fn unrun_example_check_has_teeth() {
    let examples = ["quickstart", "real_threads", "custom"].map(String::from);
    let seeded = "set -e\necho \"==> cargo run --example custom\"\n\
                  # cargo run --release --example real_threads\n\
                  cargo build --release --example real_threads\n\
                  cargo run -q --release --example quickstart > /dev/null\n\
                  cargo run --release --example custom_problem\n";
    assert_eq!(
        unrun_examples(seeded, &examples),
        ["real_threads", "custom"]
    );
    let clean = format!(
        "{seeded}cargo run -q --release --example real_threads\n\
         cargo run --example custom > /dev/null\n"
    );
    assert!(unrun_examples(&clean, &examples).is_empty());
}

#[test]
fn unrun_ignored_test_check_has_teeth() {
    let file = |path: &str, text: &str| (path.to_string(), text.to_string());
    let files = [
        file(
            "crates/a/tests/ratio.rs",
            "#[test]\n#[ignore = \"ratio\"]\nfn one() {}\n#[ignore]\n#[test]\nfn two() {}\n",
        ),
        file(
            "crates/b/tests/loopback.rs",
            "#[test]\nfn plain() {}\n#[test]\n#[ignore]\nfn fast_path() {}\n\
             #[test]\n#[ignore]\nfn slow_path() {}\n",
        ),
        file(
            "crates/c/tests/bands.rs",
            "#[test]\n#[ignore]\nfn band() {}\n",
        ),
        file(
            "crates/d/src/scen.rs",
            "mod tests {\n    #[test]\n    #[ignore = \"x\"]\n    fn pinned() {}\n    \
             #[test]\n    #[ignore]\n    fn other() {}\n}\n",
        ),
        file(
            "crates/e/tests/quiet.rs",
            "// #[test]\n// #[ignore]\n// fn commented() {}\n\
             #[test]\nfn t() { let s = \"#[ignore]\"; }\n",
        ),
    ];
    let seeded = "set -e\necho \"==> cargo test -p c --test bands -- --ignored\"\n\
                  cargo test -q --release -p a --test ratio -- --ignored\n\
                  cargo test -q --release -p b --test loopback fast_ -- --ignored\n\
                  cargo test -q --release -p c --test bands\n\
                  cargo test -q -p d --lib scen::tests::pinned -- --ignored --exact\n";
    assert_eq!(
        unrun_ignored_tests(seeded, &files),
        [
            "crates/b/tests/loopback.rs::slow_path",
            "crates/c/tests/bands.rs::band",
            "crates/d/src/scen.rs::other",
        ]
    );
    let clean = format!(
        "{seeded}cargo test -q -p b --test loopback slow_path -- --ignored\n\
         cargo test -q -p c --test bands -- --ignored\n\
         cargo test -q -p d --lib scen::tests::other -- --ignored --exact\n"
    );
    assert!(unrun_ignored_tests(&clean, &files).is_empty());
}

/// Asserts `check` finds the lines `want` in `seeded`, nothing in `clean`.
fn assert_teeth(check: fn(&str) -> Findings, seeded: &str, want: &[u32], clean: &str) {
    let mut lines: Vec<u32> = check(seeded).into_iter().map(|(line, _)| line).collect();
    lines.sort();
    assert_eq!(lines, want, "{seeded}");
    assert_eq!(check(clean), [], "{clean}");
}

#[test]
fn objective_equality_check_has_teeth() {
    let seeded = "fn f(a: &S, b: &S) -> bool {\n    a.objectives()[0] == 0.0\n        \
                  || a.objectives() != b.objectives()\n}\n\
                  fn eq(a: &S) -> bool { a.objectives()[1] == f64::INFINITY }\n";
    let clean = "fn f(a: &S, n: usize) -> bool {\n    let k = a.objectives()[0].to_bits();\n    \
                 n == 2 // objectives == 2\n}\n\
                 #[test]\nfn t() { assert!(a.objectives()[0] == 1.0); }\n";
    assert_teeth(objective_equality, seeded, &[2, 3, 5], clean);
}

#[test]
fn recovery_state_check_has_teeth() {
    let seeded = "struct E {\n    core: C,\n    deadlines: BTreeMap<u64, f64>,\n}\n";
    let clean = "struct E {\n    ids: BTreeSet<u64>, // deadlines: BTreeMap\n}\n\
                 #[cfg(test)]\nmod t {\n    fn t() { let in_flight: HashSet<u64> = s('}'); }\n}\n";
    assert_teeth(recovery_state, seeded, &[3], clean);
}

#[test]
fn relaxed_check_has_teeth() {
    let seeded = "fn f(x: &A) -> u64 {\n    x.load(Ordering::Relaxed)\n}\n\
                  // borg-lint: relaxed-ok()\nfn g(x: &A) { x.load(Ordering::Relaxed); }\n\
                  // mentions relaxed-ok(x) in prose\nfn h(x: &A) { x.load(Ordering::Relaxed); }\n\
                  fn k(x: &A) { x.load(Ordering::Relaxed); } // see \"relaxed-ok(y)\"\n";
    let clean = "// borg-lint: relaxed-ok(a counter nothing else reads)\n\
                 fn f(x: &A) -> u64 { x.load(Ordering::Relaxed) }\n\
                 #[test]\nfn t() { x.load(Ordering::Relaxed); }\n";
    assert_teeth(unjustified_relaxed, seeded, &[2, 5, 7, 8], clean);
}

#[test]
fn timeout_removal_check_has_teeth() {
    let seeded = "fn f(s: S) {\n    s.set_read_timeout(None)?;\n    s.set_write_timeout( None);\n}";
    let clean = "fn f(s: S) {\n    s.set_read_timeout(Some(t))?; // set_read_timeout(None)\n}";
    assert_teeth(timeout_removals, seeded, &[2, 3], clean);
}

#[test]
fn metric_name_check_has_teeth() {
    let seeded =
        "fn f(r: &R) {\n    r.counter(\"Bad-Name\", 1);\n    r.flight(\n        \"\",\n    );\n}";
    let clean = "fn f(r: &R, h: &mut H) {\n    r.counter(\"net.frames_sent\", 1);\n    \
                 r.gauge(metrics::WORKERS, 2.0);\n    h.observe(0.25);\n}\n";
    assert_teeth(malformed_metric_names, seeded, &[2, 4], clean);
}

#[test]
fn hot_path_check_has_teeth() {
    let seeded = "// borg-lint: hot-path\n#[inline]\nfn p(&mut self) -> Vec<f64> {\n    \
                  let v = Vec::new();\n    xs.iter().collect::<Vec<_>>()\n}\n\
                  // borg-lint: hot-path\nfn f(&self) { let _ = self.row.to_vec(); }\n\
                  // borg-lint: hot-path\nfn k<const M: usize>(r: &[u8; M]) {\n    r.to_vec();\n}\n";
    let clean = "// borg-lint: hot-path\nfn p(&mut self, out: &mut Vec<f64>) {\n    \
                 out.push('}'); // not .to_vec()\n    let s = \"}\";\n}\n\
                 fn cold(&self) -> Vec<f64> { xs.to_vec() }\n";
    assert_teeth(hot_path_allocations, seeded, &[4, 5, 8, 11], clean);
}

#[test]
fn elapsed_bound_check_has_teeth() {
    let seeded = "#[test]\nfn t() {\n    assert!(t.elapsed() < d);\n    \
                  let waited = sent.elapsed();\n    assert!(n > 0 && waited <= d, \"{waited:?}\");\n    \
                  assert!(d.as_secs_f64() > t0.elapsed().as_secs_f64());\n}\n\
                  #[ignore = \"a mixed file is not exempt\"]\n#[test]\n\
                  fn u() { assert!(t.elapsed() < d); }\n";
    let clean = "#[test]\nfn t() {\n    let e = t.elapsed();\n    assert!(e >= d && n < 5);\n    \
                 assert!(report.elapsed < d); // t.elapsed() < d\n    \
                 assert!(d < t.elapsed(), \"t.elapsed() < d\");\n}\n\
                 fn helper() -> bool { t.elapsed() < d }\n";
    assert_teeth(elapsed_upper_bounds, seeded, &[3, 5, 6, 10], clean);
    let exempt = "#[test]\n#[ignore = \"wall-clock band\"]\nfn t() { assert!(t.elapsed() < d); }\n\
                  #[ignore]\n#[test]\nfn u() { assert!(t.elapsed() < d); }\n";
    assert_eq!(elapsed_upper_bounds(exempt), []);
}

#[test]
fn no_struct_outside_distfit_keeps_a_sample_log() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        source_files(&entry.expect("crate dir").path().join("src"), &mut files);
    }
    let (mut found, mut exempt) = (Vec::new(), 0);
    for path in &files {
        if path.ends_with("crates/models/src/distfit.rs") {
            exempt += 1;
            continue;
        }
        let text = fs::read_to_string(path).expect("read a source file");
        let at = |(line, what)| format!("{}:{line}: {what}", path.display());
        found.extend(sample_log_fields(&text).into_iter().map(at));
    }
    assert_eq!(exempt, 1, "distfit.rs moved");
    assert!(files.len() > 50, "only {} files", files.len());
    assert!(found.is_empty(), "{found:#?}");
}

#[test]
fn sample_log_field_check_has_teeth() {
    let seeded = "struct Hooks {\n    core: C,\n    ta: SampleLog,\n}\n\
                  pub struct R {\n    pub tf: Option<borg_models::distfit::SampleLog>,\n}\n\
                  struct L(Mutex<SampleLog>);\n";
    let clean =
        "fn fit(log: &SampleLog) -> f64 {\n    let s = SampleLog::new();\n    log.mean()\n}\n\
                 struct M {\n    count: usize, // ta: SampleLog\n}\n\
                 #[cfg(test)]\nmod t {\n    struct T {\n        log: SampleLog,\n    }\n}\n";
    assert_teeth(sample_log_fields, seeded, &[3, 6, 8], clean);
}
