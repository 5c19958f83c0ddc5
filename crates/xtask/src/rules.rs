//! The BORG-Lxxx rule engine.
//!
//! Eight workspace-specific correctness rules run over the token stream
//! from [`crate::lexer`] and the brace-matched item tree from
//! [`crate::itemtree`]:
//!
//! * **BORG-L005** — no direct `==` / `!=` involving objective values.
//!   Objective comparisons must go through the dominance / epsilon-box
//!   predicates, not raw f64 equality.
//! * **BORG-L007** — no direct construction of protocol recovery state
//!   (deadline maps, in-flight tables, seen-eval-id sets, reissue queues)
//!   in executor library code (`crates/models`, `crates/parallel`). That
//!   bookkeeping lives in `borg_protocol::MasterEngine`; a local copy in an
//!   executor re-creates the triplicated reissue/suppression logic the
//!   protocol crate exists to centralise.
//! * **BORG-L010** — no iteration over `HashMap` / `HashSet` bindings in
//!   result-affecting library code. Hash iteration order varies with the
//!   hasher seed and insertion history; anything folded out of it (sums
//!   are safe only by luck, selection and tie-breaking are not) threatens
//!   the same-seed determinism gate. Use `BTreeMap` / `BTreeSet`, or
//!   allowlist a proven order-insensitive fold. (Clippy's
//!   `iter_over_hash_type` sees only `for` loops, not `.iter()` /
//!   `.keys()` chains.)
//! * **BORG-L011** — every `Ordering::Relaxed` carries a
//!   `// borg-lint: relaxed-ok(reason)` comment on the same or previous
//!   line, with a non-empty reason. Relaxed atomics are legal exactly
//!   when no other memory access depends on their ordering; the directive
//!   forces that argument to be written down where the ordering is
//!   chosen.
//! * **BORG-L012** — no `unreachable!` / `unimplemented!` / `todo!` or
//!   panicking slice indexing (`x[i]`) inside `pub fn` bodies of the
//!   protocol crate (`crates/protocol`). The engine is driven by
//!   adversarial event schedules (the model checker delivers them in
//!   every order); a public entry point must reject bad input, not panic
//!   on it. Private helpers may index behind validated invariants, which
//!   is why clippy's crate-wide `indexing_slicing` does not replace it.
//! * **BORG-L013** — every blocking `connect` / `accept` acquisition in
//!   the wire transport (`crates/net`) installs a read and a write
//!   deadline (`set_read_timeout(Some(..))`, `set_write_timeout(Some(..))`)
//!   in the same function body before the stream escapes, and neither
//!   setter is ever called with `None` — an unguarded read blocks forever
//!   when the peer hangs, which is exactly the fault the chaos proxy
//!   injects, and an unguarded write blocks forever on a peer that stops
//!   draining, while the networked master holds its state lock. (That
//!   socket I/O never unwraps is clippy's `unwrap_used` on `borg-net`.)
//! * **BORG-L014** — metric names fed to the `borg_obs::Recorder` hooks
//!   (`.counter(..)`, `.gauge(..)`, `.observe(..)`, `.flight(..)`) in
//!   library code must be `'static` lowercase dotted literals (or
//!   consts/helpers that resolve to one, e.g. the `metrics::*` catalogue
//!   or `event_metric(..)`), never `format!`-built strings. Dynamic
//!   names defeat the stable-schema tap deltas, the metric catalogue
//!   docs, and the allocation-free flight recorder (whose codes are
//!   `&'static str` by type — a leaked formatted name would be a memory
//!   leak per call).
//! * **BORG-L015** — no per-call heap allocation (`.to_vec()`, `.collect()`,
//!   `Vec::new()`) inside functions marked `// borg-lint: hot-path` in
//!   `crates/core` and `crates/metrics` library code. The core's sit on the
//!   produce/consume path the paper's `T_A` measures; the metrics' run once
//!   per archive row a hypervolume tracker counts. The speed campaign
//!   removed their allocations (arena buffers, in-place outputs, flat rows),
//!   and this rule keeps them out. A justified allocation carries the usual
//!   `// borg-lint: allow(BORG-L015)` escape.
//!
//! The other seven ids ([`MOVED`]) are compiler lints: `cargo clippy --
//! -D warnings` enforces them through the root `clippy.toml`, four
//! crate-local ones (clippy reads only the nearest, so each repeats the
//! root's entries) and a `#![deny(..)]` line at each library crate root.
//! Their escape is `#[expect(clippy::…, reason = "…")]`, which fails the
//! build once nothing under it trips the lint. BORG-L002 needs no lint:
//! the vendored `rand` defines no entropy-seeded source, so a call to one
//! cannot compile.
//!
//! A violation is suppressed by a `// borg-lint: allow(BORG-Lxxx)` comment
//! on the same line or the line directly above — or, item-wide, by one on
//! the item's header (or the line above it), which covers the whole item.
//! An allow naming an id this pass does not run is itself reported
//! ([`STALE_ALLOW`]).

use crate::files::{discover, FileClass, SourceFile};
use crate::itemtree::{self, Item, ItemKind};
use crate::lexer::{lex, LexedFile, Token, TokenKind};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::Path;

/// Static description of one rule (drives `--list` output and README docs).
pub struct Rule {
    pub id: &'static str,
    pub summary: &'static str,
}

/// All rules this pass runs, in id order.
pub const RULES: [Rule; 8] = [
    Rule {
        id: "BORG-L005",
        summary: "no direct f64 ==/!= on objective values; use dominance/epsilon predicates",
    },
    Rule {
        id: "BORG-L007",
        summary: "no executor-local recovery state (deadline maps, seen-id sets); \
                  use borg_protocol::MasterEngine",
    },
    Rule {
        id: "BORG-L010",
        summary: "no HashMap/HashSet iteration in result-affecting library code; \
                  use BTreeMap/BTreeSet or allowlist a proven order-insensitive fold",
    },
    Rule {
        id: "BORG-L011",
        summary: "every Ordering::Relaxed carries a `// borg-lint: relaxed-ok(reason)` \
                  justification on the same or previous line",
    },
    Rule {
        id: "BORG-L012",
        summary: "no unreachable!/unimplemented!/todo! or panicking slice indexing in \
                  borg-protocol pub fn bodies; entry points reject bad input",
    },
    Rule {
        id: "BORG-L013",
        summary: "blocking connect/accept in borg-net installs set_read_timeout(Some(..)) \
                  and set_write_timeout(Some(..)) before the stream escapes, and neither \
                  is ever set to None",
    },
    Rule {
        id: "BORG-L014",
        summary: "recorder metric names in library code are lowercase dotted 'static \
                  literals (or catalogue consts); never format!-built strings",
    },
    Rule {
        id: "BORG-L015",
        summary: "no .to_vec()/.collect()/Vec::new() in borg-core or borg-metrics \
                  functions marked `// borg-lint: hot-path`; use arena buffers / in-place \
                  outputs",
    },
];

/// The rules that left this pass, each with what enforces it now.
pub const MOVED: [Rule; 7] = [
    Rule {
        id: "BORG-L001",
        summary: "clippy::unwrap_used + expect_used, denied at each library crate root \
                  (allow-unwrap-in-tests, allow-expect-in-tests)",
    },
    Rule {
        id: "BORG-L002",
        summary: "retired: the vendored rand defines no entropy-seeded source, so a call \
                  to one cannot compile (tests/inventory.rs checks)",
    },
    Rule {
        id: "BORG-L003",
        summary: "clippy::disallowed_types std::time::{Instant, SystemTime} in \
                  crates/{desim,models}/clippy.toml",
    },
    Rule {
        id: "BORG-L004",
        summary: "clippy::disallowed_types std::sync::Mutex in every clippy.toml",
    },
    Rule {
        id: "BORG-L006",
        summary: "clippy::disallowed_methods std::sync::mpsc::Receiver::recv in \
                  crates/parallel/clippy.toml",
    },
    Rule {
        id: "BORG-L008",
        summary: "clippy::print_stdout + print_stderr, denied at each library crate root \
                  (allow-print-in-tests)",
    },
    Rule {
        id: "BORG-L009",
        summary: "clippy::disallowed_methods std::thread::spawn in \
                  crates/experiments/clippy.toml",
    },
];

/// The rule field of a report that a `// borg-lint: allow(..)` names an
/// id this pass does not run.
pub const STALE_ALLOW: &str = "stale-allow";

/// One reported lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    pub message: String,
}

/// Runs every rule over one source file and applies the allowlist.
pub fn check_source(rel_path: &str, class: FileClass, source: &str) -> Vec<Violation> {
    let lexed = lex(source);
    let items = itemtree::parse(&lexed.tokens);
    let regions = test_regions_of(&items, &lexed.tokens);
    let in_test = |line: u32| regions.iter().any(|&(a, b)| a <= line && line <= b);

    let mut found = Vec::new();
    rule_l005(rel_path, class, &lexed.tokens, &in_test, &mut found);
    rule_l007(rel_path, class, &lexed.tokens, &in_test, &mut found);
    rule_l010(rel_path, class, &lexed.tokens, &in_test, &mut found);
    rule_l011(rel_path, class, &lexed, &in_test, &mut found);
    rule_l012(rel_path, class, &lexed.tokens, &items, &in_test, &mut found);
    rule_l013(rel_path, class, &lexed.tokens, &items, &in_test, &mut found);
    rule_l014(rel_path, class, &lexed.tokens, source, &in_test, &mut found);
    rule_l015(rel_path, class, &lexed, &items, &in_test, &mut found);

    let allows = allow_map(&lexed);
    let item_allows = item_allow_ranges(&items, &allows);
    found.retain(|v| {
        let allowed_at = |line: u32| allows.get(&line).is_some_and(|set| set.contains(v.rule));
        let item_allowed = item_allows
            .iter()
            .any(|(rule, a, b)| *rule == v.rule && *a <= v.line && v.line <= *b);
        !(allowed_at(v.line) || (v.line > 1 && allowed_at(v.line - 1)) || item_allowed)
    });
    for allow in &lexed.allows {
        for id in allow
            .rules
            .iter()
            .filter(|id| !RULES.iter().any(|r| r.id == *id))
        {
            let message = match MOVED.iter().find(|r| r.id == *id) {
                Some(moved) => format!(
                    "`borg-lint: allow({id})`: {id} is no longer an xtask rule ({}); a \
                     clippy lint's escape is `#[expect(clippy::…, reason = \"…\")]`",
                    moved.summary
                ),
                None => format!("`borg-lint: allow({id})` names no rule"),
            };
            found.push(Violation {
                rule: STALE_ALLOW,
                file: rel_path.to_string(),
                line: allow.line,
                message,
            });
        }
    }
    found.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    found
}

/// Outcome of linting the whole workspace.
pub struct WorkspaceReport {
    pub files_scanned: usize,
    pub violations: Vec<Violation>,
}

/// Runs the lint pass over every discovered workspace source file.
pub fn check_workspace(root: &Path) -> Result<WorkspaceReport, String> {
    let files = discover(root)?;
    let mut violations = Vec::new();
    for file in &files {
        violations.extend(check_file(file)?);
    }
    Ok(WorkspaceReport {
        files_scanned: files.len(),
        violations,
    })
}

fn check_file(file: &SourceFile) -> Result<Vec<Violation>, String> {
    let source = std::fs::read_to_string(&file.abs_path)
        .map_err(|e| format!("read {}: {e}", file.abs_path.display()))?;
    Ok(check_source(&file.rel_path, file.class, &source))
}

fn allow_map(lexed: &LexedFile) -> HashMap<u32, HashSet<&str>> {
    let mut map: HashMap<u32, HashSet<&str>> = HashMap::new();
    for allow in &lexed.allows {
        let entry = map.entry(allow.line).or_default();
        for rule in &allow.rules {
            entry.insert(rule.as_str());
        }
    }
    map
}

// ---------------------------------------------------------------------------
// Test-region detection and item-scoped allows
// ---------------------------------------------------------------------------

/// Inclusive line ranges covered by `#[cfg(test)]` / `#[test]` items,
/// computed from the item tree: a test-attributed item's whole span is a
/// region (children included), and function bodies — opaque to the tree —
/// fall back to the token scan so statement-level test attributes inside
/// them are still honored.
fn test_regions_of(items: &[Item], tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    for item in items {
        item.walk(&mut |it| {
            if is_test_attribute(&it.attr_idents) {
                regions.push((it.start_line, it.end_line));
            } else if it.kind == ItemKind::Fn {
                if let Some((open, close)) = it.body {
                    regions.extend(scan_test_regions(
                        &tokens[open..=close.min(tokens.len() - 1)],
                    ));
                }
            }
        });
    }
    regions
}

/// Token-scan fallback for test regions (attributes anywhere in a slice).
fn scan_test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_punct(tokens, i, "#") && is_punct(tokens, i + 1, "[") {
            let (idents, close) = attribute_idents(tokens, i + 1);
            if is_test_attribute(&idents) {
                if let Some(end_line) = item_end_line(tokens, close + 1) {
                    regions.push((tokens[i].line, end_line));
                }
            }
            i = close + 1;
        } else {
            i += 1;
        }
    }
    regions
}

/// `(rule, first_line, last_line)` spans from item-scoped allow
/// directives: a `// borg-lint: allow(...)` on an item's header line, on
/// any of its attribute lines, or on the line directly above the item
/// suppresses the named rules across the item's whole span.
fn item_allow_ranges<'a>(
    items: &[Item],
    allows: &HashMap<u32, HashSet<&'a str>>,
) -> Vec<(&'a str, u32, u32)> {
    let mut ranges = Vec::new();
    for item in items {
        item.walk(&mut |it| {
            let first = it.start_line.saturating_sub(1);
            for line in first..=it.header_line {
                if let Some(rules) = allows.get(&line) {
                    for rule in rules {
                        ranges.push((*rule, it.start_line, it.end_line));
                    }
                }
            }
        });
    }
    ranges
}

/// Collects identifier texts inside the attribute starting at `open` (the
/// index of `[`); returns them with the index of the matching `]`.
fn attribute_idents(tokens: &[Token], open: usize) -> (Vec<String>, usize) {
    let mut idents = Vec::new();
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        match tokens[i].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (idents, i);
                }
            }
            _ if tokens[i].kind == TokenKind::Ident => idents.push(tokens[i].text.clone()),
            _ => {}
        }
        i += 1;
    }
    (idents, tokens.len().saturating_sub(1))
}

/// Whether an attribute's identifiers mark a test item: `#[test]`, or a
/// `#[cfg(..)]` mentioning `test` without negation (`cfg(not(test))` is
/// live code in a normal build and stays in scope).
fn is_test_attribute(idents: &[String]) -> bool {
    match idents.first().map(String::as_str) {
        Some("test") => true,
        Some("cfg") | Some("cfg_attr") => {
            idents.iter().any(|t| t == "test") && !idents.iter().any(|t| t == "not")
        }
        _ => false,
    }
}

/// Finds the last line of the item following an attribute: skips further
/// attributes, then brace-matches the body (or stops at a top-level `;`).
fn item_end_line(tokens: &[Token], mut i: usize) -> Option<u32> {
    let mut depth = 0usize;
    while i < tokens.len() {
        if depth == 0 && is_punct(tokens, i, "#") && is_punct(tokens, i + 1, "[") {
            let (_, close) = attribute_idents(tokens, i + 1);
            i = close + 1;
            continue;
        }
        match tokens[i].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(tokens[i].line);
                }
            }
            ";" if depth == 0 => return Some(tokens[i].line),
            _ => {}
        }
        i += 1;
    }
    tokens.last().map(|t| t.line)
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// Tokens that bound the L005 search window: an `==` on one side of these
/// cannot syntactically involve an expression on the other side.
const L005_WINDOW_STOPS: &[&str] = &[",", ";", "{", "}"];
const L005_WINDOW: usize = 10;

fn rule_l005(
    rel_path: &str,
    class: FileClass,
    tokens: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Violation>,
) {
    if class == FileClass::TestOrBench {
        return;
    }
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Punct || (t.text != "==" && t.text != "!=") || in_test(t.line) {
            continue;
        }
        let backward = window_has_objectives(tokens, i, true);
        let forward = window_has_objectives(tokens, i, false);
        if backward || forward {
            out.push(Violation {
                rule: "BORG-L005",
                file: rel_path.to_string(),
                line: t.line,
                message: format!(
                    "direct `{}` on objective values; compare via dominance or epsilon-box \
                     predicates, not raw f64 equality",
                    t.text
                ),
            });
        }
    }
}

/// Looks up to [`L005_WINDOW`] tokens before/after position `i` for the
/// identifier `objectives`, stopping at expression boundaries.
fn window_has_objectives(tokens: &[Token], i: usize, backward: bool) -> bool {
    for step in 1..=L005_WINDOW {
        let j = if backward {
            match i.checked_sub(step) {
                Some(j) => j,
                None => return false,
            }
        } else {
            i + step
        };
        let Some(t) = tokens.get(j) else { return false };
        if t.kind == TokenKind::Punct && L005_WINDOW_STOPS.contains(&t.text.as_str()) {
            return false;
        }
        if t.kind == TokenKind::Ident && t.text == "objectives" {
            return true;
        }
    }
    false
}

/// Identifiers that name protocol recovery state. A declaration binding one
/// of these to a collection type outside `borg-protocol` is an executor
/// growing its own reissue/suppression bookkeeping.
const L007_STATE_NAMES: &[&str] = &[
    "in_flight",
    "outstanding",
    "completed_ids",
    "seen_eval_ids",
    "seen_ids",
    "reissue_queue",
    "deadlines",
    "deadline_map",
];

/// Collection types that hold per-eval recovery state. A scalar named
/// `deadline` or a `Vec<f64>` of samples is fine; a keyed map/set of
/// eval-ids is the protocol engine's job.
const L007_COLLECTIONS: &[&str] = &["HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque"];

/// Tokens that bound the L007 backward search: a binding name on the far
/// side of these cannot be the one annotated with the collection type.
const L007_WINDOW_STOPS: &[&str] = &[",", ";", "{", "}"];
const L007_WINDOW: usize = 12;

fn rule_l007(
    rel_path: &str,
    class: FileClass,
    tokens: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Violation>,
) {
    // Scope: the executor crates' library sources (the homes of the
    // master-slave adapters: the DES loops in `crates/models`, the
    // wall-clock master in `crates/parallel`), plus the self-test fixture.
    // `crates/protocol` deliberately stays out of scope — it is where this
    // state belongs.
    let executor_scope = rel_path.starts_with("crates/models/src/")
        || rel_path.starts_with("crates/parallel/src/")
        || rel_path == FIXTURE_PATH;
    if !executor_scope || class != FileClass::Library {
        return;
    }
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident
            || !L007_COLLECTIONS.contains(&t.text.as_str())
            || in_test(t.line)
        {
            continue;
        }
        if let Some(name) = l007_state_name_behind(tokens, i) {
            out.push(Violation {
                rule: "BORG-L007",
                file: rel_path.to_string(),
                line: t.line,
                message: format!(
                    "`{name}` declared as `{}` re-creates protocol recovery state in an \
                     executor; route reissue/suppression bookkeeping through \
                     borg_protocol::MasterEngine",
                    t.text
                ),
            });
        }
    }
}

/// Looks up to [`L007_WINDOW`] tokens before the collection type at `i` for
/// a recovery-state binding name, stopping at declaration boundaries.
fn l007_state_name_behind(tokens: &[Token], i: usize) -> Option<String> {
    for step in 1..=L007_WINDOW {
        let j = i.checked_sub(step)?;
        let t = tokens.get(j)?;
        if t.kind == TokenKind::Punct && L007_WINDOW_STOPS.contains(&t.text.as_str()) {
            return None;
        }
        if t.kind == TokenKind::Ident && L007_STATE_NAMES.contains(&t.text.as_str()) {
            return Some(t.text.clone());
        }
    }
    None
}

/// Crates whose library code feeds archives, metrics, or experiment
/// results — where hash-order iteration can leak into a reported value
/// and break the same-seed determinism gate.
const L010_SCOPE: &[&str] = &[
    "crates/core/src/",
    "crates/metrics/src/",
    "crates/models/src/",
    "crates/desim/src/",
    "crates/protocol/src/",
    "crates/parallel/src/",
    "crates/experiments/src/",
    "crates/runner/src/",
    "crates/obs/src/",
    "crates/mc/src/",
    "crates/net/src/",
];

/// Iteration methods whose visit order is the hasher's, not the caller's.
const L010_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];

/// Glue tokens allowed between a binding name and its `HashMap`/`HashSet`
/// type or constructor (`let m: HashMap<..>`, `m = HashMap::new()`,
/// `m: &mut HashMap<..>`).
const L010_BINDING_GLUE: &[&str] = &[":", "=", "&", "mut", "<"];

fn rule_l010(
    rel_path: &str,
    class: FileClass,
    tokens: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Violation>,
) {
    let in_scope = L010_SCOPE.iter().any(|p| rel_path.starts_with(p)) || rel_path == FIXTURE_PATH;
    if !in_scope || class != FileClass::Library {
        return;
    }

    // Pass 1: names bound to a hash collection (declarations, fields,
    // params, and `= HashMap::new()` initializers).
    let mut hashed: HashSet<&str> = HashSet::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        let mut j = i;
        while j > 0 {
            let prev = &tokens[j - 1];
            let glue = (prev.kind == TokenKind::Punct || prev.text == "mut")
                && L010_BINDING_GLUE.contains(&prev.text.as_str());
            if glue {
                j -= 1;
            } else {
                break;
            }
        }
        if j < i && j > 0 && tokens[j - 1].kind == TokenKind::Ident {
            hashed.insert(tokens[j - 1].text.as_str());
        }
    }
    if hashed.is_empty() {
        return;
    }

    // Pass 2: iteration over those names.
    for i in 1..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident || in_test(t.line) {
            continue;
        }
        // `name.iter()` / `name.keys()` / …
        if L010_ITER_METHODS.contains(&t.text.as_str())
            && is_punct(tokens, i - 1, ".")
            && is_punct(tokens, i + 1, "(")
            && i >= 2
            && tokens[i - 2].kind == TokenKind::Ident
            && hashed.contains(tokens[i - 2].text.as_str())
        {
            push_l010(rel_path, t.line, &tokens[i - 2].text, &t.text, out);
            continue;
        }
        // `for pat in name {` / `for pat in &name {`
        if hashed.contains(t.text.as_str()) && is_punct(tokens, i + 1, "{") {
            let mut j = i - 1;
            while j > 0 && (is_punct(tokens, j, "&") || is_ident(tokens, j, "mut")) {
                j -= 1;
            }
            if is_ident(tokens, j, "in") {
                push_l010(rel_path, t.line, &t.text, "for-loop", out);
            }
        }
    }
}

fn push_l010(rel_path: &str, line: u32, name: &str, how: &str, out: &mut Vec<Violation>) {
    out.push(Violation {
        rule: "BORG-L010",
        file: rel_path.to_string(),
        line,
        message: format!(
            "iterating hash collection `{name}` ({how}) visits entries in hasher order, \
             which can leak into results; use BTreeMap/BTreeSet or allowlist a proven \
             order-insensitive fold"
        ),
    });
}

fn rule_l011(
    rel_path: &str,
    class: FileClass,
    lexed: &LexedFile,
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Violation>,
) {
    if class != FileClass::Library {
        return;
    }
    let tokens = &lexed.tokens;
    let justified = |line: u32| {
        lexed
            .relaxed_oks
            .iter()
            .any(|d| d.line == line || d.line + 1 == line)
    };
    for i in 2..tokens.len() {
        let t = &tokens[i];
        if t.kind == TokenKind::Ident
            && t.text == "Relaxed"
            && is_punct(tokens, i - 1, "::")
            && is_ident(tokens, i - 2, "Ordering")
            && !in_test(t.line)
            && !justified(t.line)
        {
            out.push(Violation {
                rule: "BORG-L011",
                file: rel_path.to_string(),
                line: t.line,
                message: "`Ordering::Relaxed` without a `// borg-lint: relaxed-ok(reason)` \
                          justification on the same or previous line; state why no other \
                          memory access depends on this ordering (an empty reason does \
                          not count)"
                    .to_string(),
            });
        }
    }
}

/// Panic macros forbidden in protocol entry points.
const L012_PANIC_MACROS: &[&str] = &["unreachable", "unimplemented", "todo"];

fn rule_l012(
    rel_path: &str,
    class: FileClass,
    tokens: &[Token],
    items: &[Item],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Violation>,
) {
    // Scope: the protocol crate's library sources (the engine is driven by
    // adversarial schedules — see crates/mc), plus the self-test fixture.
    let protocol_scope = rel_path.starts_with("crates/protocol/src/") || rel_path == FIXTURE_PATH;
    if !protocol_scope || class != FileClass::Library {
        return;
    }
    for item in items {
        item.walk(&mut |it| {
            if it.kind != ItemKind::Fn || !it.is_pub {
                return;
            }
            let Some((open, close)) = it.body else { return };
            for i in open..=close.min(tokens.len() - 1) {
                let t = &tokens[i];
                if in_test(t.line) {
                    continue;
                }
                if t.kind == TokenKind::Ident
                    && L012_PANIC_MACROS.contains(&t.text.as_str())
                    && is_punct(tokens, i + 1, "!")
                {
                    out.push(Violation {
                        rule: "BORG-L012",
                        file: rel_path.to_string(),
                        line: t.line,
                        message: format!(
                            "`{}!` inside protocol entry point `{}`; the engine is driven \
                             by adversarial event schedules — reject the input (or record \
                             a counter) instead of panicking",
                            t.text,
                            it.name.as_deref().unwrap_or("?"),
                        ),
                    });
                }
                // `x[i]` / `call()[i]` / `arr[0][1]` — panicking index.
                if t.kind == TokenKind::Punct
                    && t.text == "["
                    && i > open
                    && (tokens[i - 1].kind == TokenKind::Ident
                        || tokens[i - 1].text == ")"
                        || tokens[i - 1].text == "]")
                {
                    out.push(Violation {
                        rule: "BORG-L012",
                        file: rel_path.to_string(),
                        line: t.line,
                        message: format!(
                            "slice indexing inside protocol entry point `{}` panics on an \
                             out-of-range value; use `.get()` and handle the miss (or \
                             validate bounds at entry and allowlist the item)",
                            it.name.as_deref().unwrap_or("?"),
                        ),
                    });
                }
            }
        });
    }
}

fn rule_l013(
    rel_path: &str,
    class: FileClass,
    tokens: &[Token],
    items: &[Item],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Violation>,
) {
    // Scope: the wire transport crate's library sources, plus the fixture.
    let net_scope = rel_path.starts_with("crates/net/src/") || rel_path == FIXTURE_PATH;
    if !net_scope || class != FileClass::Library {
        return;
    }
    for item in items {
        item.walk(&mut |it| {
            if it.kind != ItemKind::Fn {
                return;
            }
            let Some((open, close)) = it.body else { return };
            let close = close.min(tokens.len() - 1);
            let name = it.name.as_deref().unwrap_or("?");

            // One scan of the body collects the blocking acquisitions and
            // the two timeout guards.
            let mut acquires: Vec<(u32, String)> = Vec::new();
            let mut has_read_guard = false;
            let mut has_write_guard = false;
            for i in (open + 1)..=close {
                let t = &tokens[i];
                if t.kind != TokenKind::Ident {
                    continue;
                }
                match t.text.as_str() {
                    s @ ("set_read_timeout" | "set_write_timeout") => {
                        let (guard, verb) = if s == "set_read_timeout" {
                            (&mut has_read_guard, "read")
                        } else {
                            (&mut has_write_guard, "write")
                        };
                        if !is_punct(tokens, i + 1, "(") {
                            continue;
                        }
                        if is_ident(tokens, i + 2, "Some") {
                            *guard = true;
                        } else if is_ident(tokens, i + 2, "None") && !in_test(t.line) {
                            out.push(Violation {
                                rule: "BORG-L013",
                                file: rel_path.to_string(),
                                line: t.line,
                                message: format!(
                                    "`{s}(None)` in `{name}` removes the {verb} deadline; a \
                                     blocking socket {verb} with no timeout hangs forever when \
                                     the peer dies or stops draining mid-frame"
                                ),
                            });
                        }
                    }
                    // `TcpStream::connect(..)` / `stream.connect(..)` —
                    // a blocking connection acquisition.
                    "connect"
                        if (is_punct(tokens, i - 1, "::") || is_punct(tokens, i - 1, "."))
                            && is_punct(tokens, i + 1, "(") =>
                    {
                        acquires.push((t.line, "connect".to_string()));
                    }
                    // Raw zero-arg `.accept()` (the std form). The
                    // workspace wrapper takes the timeout as an argument
                    // and installs it before returning, so `.accept(dur)`
                    // is already guarded.
                    "accept"
                        if is_punct(tokens, i - 1, ".")
                            && is_punct(tokens, i + 1, "(")
                            && is_punct(tokens, i + 2, ")") =>
                    {
                        acquires.push((t.line, "accept".to_string()));
                    }
                    _ => {}
                }
            }

            if !(has_read_guard && has_write_guard) {
                for (line, which) in &acquires {
                    if !in_test(*line) {
                        out.push(Violation {
                            rule: "BORG-L013",
                            file: rel_path.to_string(),
                            line: *line,
                            message: format!(
                                "blocking `{which}` in `{name}` without both \
                                 `set_read_timeout(Some(..))` and `set_write_timeout(Some(..))` \
                                 in the same body; install the deadlines before the stream \
                                 escapes so no read or write can block forever"
                            ),
                        });
                    }
                }
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

/// The `borg_obs::Recorder` hooks whose first argument is a metric name.
const L014_METHODS: &[&str] = &["counter", "gauge", "observe", "flight"];

fn rule_l014(
    rel_path: &str,
    class: FileClass,
    tokens: &[Token],
    source: &str,
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Violation>,
) {
    // Scope: all library code (the catalogue/stable-schema contract is a
    // library concern; bins and tests may label ad hoc).
    if class != FileClass::Library {
        return;
    }
    let lines: Vec<&str> = source.lines().collect();
    for i in 2..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident
            || !L014_METHODS.contains(&t.text.as_str())
            || !is_punct(tokens, i - 1, ".")
            || !is_punct(tokens, i + 1, "(")
            || in_test(t.line)
        {
            continue;
        }
        // First token of the name argument (skip a leading borrow).
        let mut j = i + 2;
        while is_punct(tokens, j, "&") {
            j += 1;
        }
        let Some(arg) = tokens.get(j) else { continue };
        if arg.kind == TokenKind::Ident && arg.text == "format" && is_punct(tokens, j + 1, "!") {
            out.push(Violation {
                rule: "BORG-L014",
                file: rel_path.to_string(),
                line: t.line,
                message: format!(
                    "`format!`-built metric name fed to `.{}()`; recorder names must be \
                     `'static` lowercase dotted literals from the metric catalogue \
                     (dynamic names break the stable tap schema and would leak per call \
                     through the allocation-free flight recorder)",
                    t.text
                ),
            });
            continue;
        }
        // A quoted literal (the lexer blanks string/char literal text);
        // numeric literals (e.g. `Histogram::observe(0.25)`) pass through.
        if arg.kind == TokenKind::Literal && arg.text.is_empty() {
            let Some(name) = first_quoted_on_line(&lines, arg.line) else {
                continue;
            };
            let well_formed = !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_');
            if !well_formed {
                out.push(Violation {
                    rule: "BORG-L014",
                    file: rel_path.to_string(),
                    line: arg.line,
                    message: format!(
                        "metric name {name:?} fed to `.{}()` is not a lowercase dotted \
                         literal; recorder names use `[a-z0-9._]` only (see the metric \
                         catalogue in crates/net/src/metrics.rs and DESIGN §11)",
                        t.text
                    ),
                });
            }
        }
    }
}

fn rule_l015(
    rel_path: &str,
    class: FileClass,
    lexed: &LexedFile,
    items: &[Item],
    in_test: &dyn Fn(u32) -> bool,
    out: &mut Vec<Violation>,
) {
    // Scope: algorithm-core and metrics library code (plus the fixture).
    let in_scope = ["crates/core/src/", "crates/metrics/src/"]
        .iter()
        .any(|dir| rel_path.starts_with(dir))
        || rel_path == FIXTURE_PATH;
    if class != FileClass::Library || !in_scope || lexed.hot_paths.is_empty() {
        return;
    }
    let tokens = &lexed.tokens;
    for item in items {
        item.walk(&mut |it| {
            if it.kind != ItemKind::Fn {
                return;
            }
            // A fn opts in via `// borg-lint: hot-path` on its header, its
            // attribute lines, or the line directly above.
            let first = it.start_line.saturating_sub(1);
            let marked = lexed
                .hot_paths
                .iter()
                .any(|&h| first <= h && h <= it.header_line);
            if !marked {
                return;
            }
            let Some((open, close)) = it.body else { return };
            let close = close.min(tokens.len().saturating_sub(1));
            for i in open..=close {
                let t = &tokens[i];
                if t.kind != TokenKind::Ident || in_test(t.line) {
                    continue;
                }
                let what = match t.text.as_str() {
                    "to_vec" if is_punct(tokens, i.wrapping_sub(1), ".") => {
                        Some("`.to_vec()` clones into a fresh Vec")
                    }
                    "collect"
                        if is_punct(tokens, i.wrapping_sub(1), ".")
                            && (is_punct(tokens, i + 1, "(") || is_punct(tokens, i + 1, "::")) =>
                    {
                        Some("`.collect()` materializes a fresh collection")
                    }
                    "Vec" if is_punct(tokens, i + 1, "::") && is_ident(tokens, i + 2, "new") => {
                        Some("`Vec::new()` allocates per call")
                    }
                    _ => None,
                };
                if let Some(what) = what {
                    out.push(Violation {
                        rule: "BORG-L015",
                        file: rel_path.to_string(),
                        line: t.line,
                        message: format!(
                            "{what} inside a `// borg-lint: hot-path` function; reuse an arena \
                             / scratch buffer or an in-place output (justified allocations \
                             carry `// borg-lint: allow(BORG-L015)`)"
                        ),
                    });
                }
            }
        });
    }
}

/// The first double-quoted string on a 1-based source line, if any.
fn first_quoted_on_line<'a>(lines: &[&'a str], line: u32) -> Option<&'a str> {
    let text = lines.get(line as usize - 1)?;
    let start = text.find('"')? + 1;
    let len = text[start..].find('"')?;
    Some(&text[start..start + len])
}

fn is_punct(tokens: &[Token], i: usize, text: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

fn is_ident(tokens: &[Token], i: usize, text: &str) -> bool {
    tokens.get(i).is_some_and(|t| {
        (t.kind == TokenKind::Ident || t.kind == TokenKind::Punct) && t.text == text
    })
}

// ---------------------------------------------------------------------------
// Self-test against the annotated fixture
// ---------------------------------------------------------------------------

/// The annotated fixture (workspace-relative). Every path-scoped rule also
/// admits this path, so one file exercises every rule.
pub const FIXTURE_PATH: &str = "crates/xtask/fixtures/violations.rs";

/// Runs the lint pass over the annotated fixture and diffs the reported
/// violations against the `//~ BORG-Lxxx` expectations embedded in it.
///
/// This proves both directions: every seeded violation is caught, and the
/// test-region / allowlist escapes genuinely suppress reports. A rule the
/// fixture seeds no violation of fails it too: its silence proves nothing.
pub fn self_test(fixture: &Path) -> Result<usize, String> {
    let source = std::fs::read_to_string(fixture)
        .map_err(|e| format!("read fixture {}: {e}", fixture.display()))?;
    self_test_source(&source)
}

fn self_test_source(source: &str) -> Result<usize, String> {
    let expected = parse_expectations(source);
    let unseeded: Vec<&str> = RULES
        .iter()
        .map(|r| r.id)
        .filter(|id| !expected.iter().any(|(_, rule)| rule == id))
        .collect();
    if !unseeded.is_empty() {
        return Err(format!(
            "lint self-test failed: the fixture seeds no violation of {}",
            unseeded.join(", ")
        ));
    }
    let found: BTreeSet<(u32, String)> = check_source(FIXTURE_PATH, FileClass::Library, source)
        .into_iter()
        .map(|v| (v.line, v.rule.to_string()))
        .collect();

    let missing: Vec<_> = expected.difference(&found).collect();
    let unexpected: Vec<_> = found.difference(&expected).collect();
    if missing.is_empty() && unexpected.is_empty() {
        return Ok(expected.len());
    }
    let mut msg = String::from("lint self-test failed:\n");
    for (line, rule) in missing {
        msg.push_str(&format!(
            "  missed expected {rule} at fixture line {line}\n"
        ));
    }
    for (line, rule) in unexpected {
        msg.push_str(&format!("  unexpected {rule} at fixture line {line}\n"));
    }
    Err(msg)
}

/// Parses `//~ BORG-Lxxx [BORG-Lyyy ...]` markers; each names a violation
/// expected on its own line.
fn parse_expectations(source: &str) -> BTreeSet<(u32, String)> {
    let mut expected = BTreeSet::new();
    for (idx, text) in source.lines().enumerate() {
        let line = idx as u32 + 1;
        if let Some(pos) = text.find("//~") {
            for word in text[pos + 3..].split_whitespace() {
                let exact_rule_id = word.len() == "BORG-L001".len()
                    && word.starts_with("BORG-L")
                    && word["BORG-L".len()..].chars().all(|c| c.is_ascii_digit());
                if exact_rule_id {
                    expected.insert((line, word.to_string()));
                }
            }
        }
    }
    expected
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_lib(src: &str) -> Vec<Violation> {
        check_source("crates/core/src/archive.rs", FileClass::Library, src)
    }

    fn rules_at(violations: &[Violation]) -> Vec<(&str, u32)> {
        violations.iter().map(|v| (v.rule, v.line)).collect()
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn lib(a: &S) -> bool { a.objectives()[0] == 1.0 }";
        assert_eq!(rules_at(&check_lib(src)), [("BORG-L005", 2)]);
    }

    #[test]
    fn l005_flags_objective_equality_both_directions() {
        let v = check_lib("if a.objectives()[0] == b { }\nif c != d.objectives()[1] { }");
        assert_eq!(rules_at(&v), [("BORG-L005", 1), ("BORG-L005", 2)]);
        // Equality in an unrelated argument is not flagged across a comma.
        assert!(check_lib("f(a.objectives(), b == c);").is_empty());
        // Tests may compare exact values they constructed.
        let src = "#[cfg(test)]\nmod tests {\n fn t() { assert!(s.objectives()[0] == 1.0); }\n}";
        assert!(check_lib(src).is_empty());
    }

    #[test]
    fn l007_flags_executor_local_recovery_state() {
        let src = "fn master() { let mut in_flight: HashMap<u64, InFlight> = HashMap::new(); }";
        // Out of scope: a non-executor crate, and the protocol crate itself.
        assert!(check_lib(src).is_empty());
        assert!(check_source("crates/protocol/src/engine.rs", FileClass::Library, src).is_empty());
        // In scope: both executor crates' library sources.
        let v = check_source("crates/parallel/src/threads.rs", FileClass::Library, src);
        assert_eq!(rules_at(&v), [("BORG-L007", 1)]);
        let v = check_source("crates/models/src/queueing.rs", FileClass::Library, src);
        assert_eq!(rules_at(&v), [("BORG-L007", 1)]);
        // Struct fields are declarations too.
        let field = "struct Shadow {\n    deadlines: BTreeMap<u64, f64>,\n}";
        let v = check_source("crates/parallel/src/threads.rs", FileClass::Library, field);
        assert_eq!(rules_at(&v), [("BORG-L007", 2)]);
    }

    #[test]
    fn l007_ignores_benign_names_boundaries_and_tests() {
        let in_parallel =
            |src| check_source("crates/parallel/src/threads.rs", FileClass::Library, src);
        // A collection bound to a non-protocol name is fine.
        assert!(
            in_parallel("let candidates: HashMap<u64, Candidate> = HashMap::new();").is_empty()
        );
        // A protocol name without a collection type is fine (e.g. a count).
        assert!(in_parallel("let in_flight: usize = proto.outstanding_len();").is_empty());
        // A name in an unrelated argument is not matched across a comma.
        assert!(in_parallel("report(outstanding, HashMap::new());").is_empty());
        // Test regions may build whatever expectation tables they like.
        let tst = "#[cfg(test)]\nmod tests {\n fn t() { let deadlines: HashSet<u64> = x; }\n}";
        assert!(in_parallel(tst).is_empty());
        // The allowlist escape works.
        let allowed =
            "let in_flight: HashMap<u64, F> = HashMap::new(); // borg-lint: allow(BORG-L007)";
        assert!(in_parallel(allowed).is_empty());
    }

    #[test]
    fn l013_requires_read_deadlines_on_blocking_acquisitions() {
        let in_net = |src| check_source("crates/net/src/transport.rs", FileClass::Library, src);
        // A connect with no deadline in the same body.
        let bare = "fn dial(a: &str) -> std::io::Result<TcpStream> { TcpStream::connect(a) }";
        assert_eq!(rules_at(&in_net(bare)), [("BORG-L013", 1)]);
        // A raw zero-arg accept with no deadline.
        let acc = "fn admit(l: &TcpListener) { let (s, _) = l.accept()?; }";
        assert_eq!(rules_at(&in_net(acc)), [("BORG-L013", 1)]);
        // A read deadline alone leaves writes unbounded.
        let half = "fn dial(a: &str) -> std::io::Result<TcpStream> {\n\
                    let s = TcpStream::connect(a)?;\n\
                    s.set_read_timeout(Some(t))?;\n\
                    Ok(s)\n}";
        assert_eq!(rules_at(&in_net(half)), [("BORG-L013", 2)]);
        // Installing both deadlines in the same body is the sanctioned shape.
        let guarded = "fn dial(a: &str) -> std::io::Result<TcpStream> {\n\
                       let s = TcpStream::connect(a)?;\n\
                       s.set_read_timeout(Some(t))?;\n\
                       s.set_write_timeout(Some(t))?;\n\
                       Ok(s)\n}";
        assert!(in_net(guarded).is_empty());
        // The workspace wrapper form carries the timeout as an argument.
        let wrapper = "fn admit(l: &NetListener) { let s = l.accept(timeout)?; }";
        assert!(in_net(wrapper).is_empty());
        // Removing a deadline is flagged wherever it happens.
        let none = "fn unguard(s: &NetStream) { s.set_read_timeout(None).ok(); }";
        assert_eq!(rules_at(&in_net(none)), [("BORG-L013", 1)]);
        let none = "fn unguard(s: &NetStream) { s.set_write_timeout(None).ok(); }";
        assert_eq!(rules_at(&in_net(none)), [("BORG-L013", 1)]);
        // A field access or wrapper named `connect` is not an acquisition.
        let field = "fn go(o: &Opts) { connect_with_backoff(&o.connect, &mut b, t); }";
        assert!(in_net(field).is_empty());
        // The allowlist escape works for deliberate probes.
        let allowed = "fn probe(a: &str) -> bool { TcpStream::connect(a).is_ok() } \
             // borg-lint: allow(BORG-L013)";
        assert!(in_net(allowed).is_empty());
    }

    #[test]
    fn l014_flags_dynamic_and_malformed_metric_names_in_library_code() {
        // format!-built names are flagged wherever library code records.
        let dynamic = "fn f(rec: &dyn Recorder, w: usize) \
                       { rec.counter(&format!(\"net.w{w}\"), 1); }";
        assert_eq!(rules_at(&check_lib(dynamic)), [("BORG-L014", 1)]);
        // Malformed literals: uppercase and hyphens are out of charset.
        let upper = "fn f(rec: &dyn Recorder) { rec.gauge(\"engine.Outstanding\", 1.0); }";
        assert_eq!(rules_at(&check_lib(upper)), [("BORG-L014", 1)]);
        let hyphen =
            "fn f(rec: &dyn Recorder) { rec.flight(\"net.worker-death\", 0.0, 0, 0, 0.0); }";
        assert_eq!(rules_at(&check_lib(hyphen)), [("BORG-L014", 1)]);
        // Catalogue consts, helper calls, well-formed literals, and
        // value-first sinks stay silent.
        let fine = "fn f(rec: &dyn Recorder, h: &mut Histogram, e: &Event) {\n\
                    rec.counter(metrics::FRAMES_SENT, 1);\n\
                    rec.counter(event_metric(e), 1);\n\
                    rec.observe(\"net.rtt_seconds\", 0.5);\n\
                    h.observe(0.25);\n}";
        assert!(check_lib(fine).is_empty());
        // Bins and tests may label ad hoc.
        let v = check_source(
            "crates/experiments/src/bin/borg-exp.rs",
            FileClass::Bin,
            dynamic,
        );
        assert!(v.is_empty());
        let tst = "#[cfg(test)]\nmod tests {\n fn t(rec: &dyn Recorder) \
                   { rec.counter(&format!(\"x{0}\", 1), 1); }\n}";
        assert!(check_lib(tst).is_empty());
        // The allowlist escape works.
        let allowed = "fn f(rec: &dyn Recorder) \
                       { rec.gauge(\"Legacy.Name\", 1.0); } // borg-lint: allow(BORG-L014)";
        assert!(check_lib(allowed).is_empty());
    }

    #[test]
    fn l015_flags_allocations_only_in_marked_core_functions() {
        let src = "// borg-lint: hot-path\n\
                   fn produce(&mut self) -> Vec<f64> {\n\
                       let parents: Vec<usize> = idxs.iter().collect();\n\
                       let snapshot = xs.to_vec();\n\
                       let mut out = Vec::new();\n\
                       out\n\
                   }\n\
                   fn cold(&self) -> Vec<f64> { xs.to_vec() }\n";
        assert_eq!(
            rules_at(&check_lib(src)),
            [("BORG-L015", 3), ("BORG-L015", 4), ("BORG-L015", 5)]
        );
        // Metrics code is in scope too; the same source elsewhere is not.
        let metrics = check_source("crates/metrics/src/hypervolume.rs", FileClass::Library, src);
        assert_eq!(
            rules_at(&metrics),
            [("BORG-L015", 3), ("BORG-L015", 4), ("BORG-L015", 5)]
        );
        let elsewhere = check_source(
            "crates/experiments/src/hvspeedup.rs",
            FileClass::Library,
            src,
        );
        assert!(elsewhere.is_empty());
    }

    #[test]
    fn l015_recognizes_turbofish_collect_and_honors_allows() {
        let src = "// borg-lint: hot-path\n\
                   fn consume(&mut self) {\n\
                       let v = it.collect::<Vec<_>>();\n\
                   }\n";
        assert_eq!(rules_at(&check_lib(src)), [("BORG-L015", 3)]);
        let allowed = "// borg-lint: hot-path\n\
                       fn consume(&mut self) {\n\
                           // borg-lint: allow(BORG-L015)\n\
                           let v = it.collect::<Vec<_>>();\n\
                       }\n";
        assert!(check_lib(allowed).is_empty());
        // `Vec::with_capacity` and reuse via clear/extend are the sanctioned
        // shapes and stay silent.
        let sanctioned = "// borg-lint: hot-path\n\
                          fn produce(&mut self, out: &mut Vec<f64>) {\n\
                              out.clear();\n\
                              out.extend_from_slice(&xs);\n\
                          }\n";
        assert!(check_lib(sanctioned).is_empty());
    }

    #[test]
    fn allowlist_suppresses_on_same_or_preceding_line() {
        let eq = "fn f(a: &S) -> bool { a.objectives()[0] == 1.0 }";
        let same = format!("{eq} // borg-lint: allow(BORG-L005)");
        assert!(check_lib(&same).is_empty());
        let above = format!("// borg-lint: allow(BORG-L005)\n{eq}");
        assert!(check_lib(&above).is_empty());
        let wrong_rule = format!("// borg-lint: allow(BORG-L007)\n{eq}");
        assert_eq!(rules_at(&check_lib(&wrong_rule)), [("BORG-L005", 2)]);
        let too_far = format!("// borg-lint: allow(BORG-L005)\n\n{eq}");
        assert_eq!(rules_at(&check_lib(&too_far)), [("BORG-L005", 3)]);
    }

    #[test]
    fn an_allow_naming_a_rule_this_pass_does_not_run_is_reported() {
        // A rule that moved to clippy: the report names its lint.
        let moved = check_lib("fn f() { x.unwrap(); } // borg-lint: allow(BORG-L001)");
        assert_eq!(rules_at(&moved), [(STALE_ALLOW, 1)]);
        assert!(
            moved[0].message.contains("clippy::unwrap_used"),
            "{moved:?}"
        );
        // An id no rule ever had, next to a live one that still suppresses.
        let src = "// borg-lint: allow(BORG-L005, BORG-L099)\n\
                   fn f(a: &S) -> bool { a.objectives()[0] == 1.0 }";
        let v = check_lib(src);
        assert_eq!(rules_at(&v), [(STALE_ALLOW, 1)]);
        assert!(v[0].message.contains("BORG-L099"), "{v:?}");
        // Every live id is silent.
        for rule in &RULES {
            let src = format!("fn f() {{}} // borg-lint: allow({})", rule.id);
            assert!(check_lib(&src).is_empty(), "{}", rule.id);
        }
    }

    #[test]
    fn self_test_fails_on_a_rule_the_fixture_does_not_seed() {
        let fixture = std::fs::read_to_string(
            crate::files::workspace_root()
                .expect("workspace root")
                .join(FIXTURE_PATH),
        )
        .expect("read the fixture");
        assert!(self_test_source(&fixture).is_ok());
        // Drop every BORG-L011 marker (and the relaxed atomics they mark):
        // the rule still runs, but nothing shows that it can fire.
        let unseeded: String = fixture
            .lines()
            .filter(|line| !line.contains("//~ BORG-L011"))
            .map(|line| format!("{line}\n"))
            .collect();
        let err = self_test_source(&unseeded).expect_err("an unseeded rule");
        assert!(err.contains("seeds no violation of BORG-L011"), "{err}");
    }

    #[test]
    fn expectation_parser_reads_markers() {
        let exp = parse_expectations("x.unwrap(); //~ BORG-L001\ny(); //~ BORG-L002 BORG-L004\n");
        let items: Vec<_> = exp.into_iter().collect();
        assert_eq!(
            items,
            [
                (1, "BORG-L001".to_string()),
                (2, "BORG-L002".to_string()),
                (2, "BORG-L004".to_string()),
            ]
        );
    }
}
