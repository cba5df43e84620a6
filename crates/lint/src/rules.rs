//! The invariant rules and the engine that applies them to scanned files.
//!
//! Three rule families, all driven by `lint.toml`:
//!
//! * **Serve-path purity** (`serve-alloc`, `serve-lock`, `serve-panic`,
//!   `serve-index`): inside configured hot fns, allocating calls, lock
//!   acquisition, panicking APIs, and `[]` indexing are denied unless the
//!   line (or enclosing fn) carries a
//!   `// lint: allow(<rule>) — <reason>` justification tag.
//! * **Atomic-ordering audit** (`relaxed-ordering`, `seqlock-pairing`):
//!   every `Ordering::Relaxed` outside the whitelisted counter files
//!   needs a `// relaxed-ok: <why>` comment, and in declared seqlock
//!   files a field loaded with `Acquire` must never be stored with
//!   `Relaxed`.
//! * **Unsafe audit** (`safety-comment`, `unsafe-budget`): each `unsafe`
//!   needs a `// SAFETY:` comment within the three preceding lines, and
//!   per-crate `unsafe` occurrence counts must equal the pinned budget.

use crate::config::{fn_pattern_matches, Config};
use crate::scan::FileScan;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Every rule the linter knows, with its `--explain` text.
pub const RULES: &[(&str, &str)] = &[
    (
        "serve-alloc",
        "Allocating calls (Vec::new, vec!, format!, to_string, to_vec, to_owned, \
         Box::new, String::from, collect, ...) are denied inside the hot fns listed \
         in lint.toml [[hot]]. The serve path's zero-allocation budget (see \
         DESIGN.md and crates/authd/tests/zero_alloc.rs) is load-bearing: one \
         format! on the cached-hit path silently regresses the 407 ns hit. \
         Justify intentional allocation with `// lint: allow(serve-alloc) — <reason>`.",
    ),
    (
        "serve-lock",
        "Lock acquisition (.lock(), .read(), .write()) and lock construction \
         (Mutex::new, RwLock::new) are denied inside hot fns. Shards own their \
         state outright and the snapshot cell is the only sanctioned lock — held \
         for an Arc clone, never across a query. Justify with \
         `// lint: allow(serve-lock) — <reason>`.",
    ),
    (
        "serve-panic",
        "Panicking APIs (unwrap, expect, panic!, todo!, unreachable!, \
         unimplemented!) are denied inside hot fns: an authoritative shard must \
         answer or drop, never abort. Where the invariant is locally provable, \
         justify with `// lint: allow(serve-panic) — <reason>`.",
    ),
    (
        "serve-index",
        "`[]` indexing (the statically detectable `expr[...]` form) can panic on \
         out-of-range input, so hot fns must justify each use with \
         `// lint: allow(serve-index) — <why the bound holds>`. Prefer get()/ \
         split_first()/iterators where the shape allows.",
    ),
    (
        "relaxed-ordering",
        "Every `Ordering::Relaxed` outside the whitelisted counter files \
         (lint.toml [atomics] counter_paths) must carry a `// relaxed-ok: <why>` \
         comment naming why no ordering is needed (e.g. monotonic counter read \
         by a reporter, uniqueness-only fetch_add). Relaxed is correct \
         surprisingly rarely; the comment is the review.",
    ),
    (
        "seqlock-pairing",
        "In declared seqlock/publication files (lint.toml [atomics] \
         seqlock_files), a field that is loaded with Acquire anywhere must never \
         be stored with Relaxed: the Release store is what makes the Acquire \
         load meaningful. Flagged stores either need a stronger ordering or a \
         `// lint: allow(seqlock-pairing) — <reason>` tag citing a fence.",
    ),
    (
        "safety-comment",
        "Every `unsafe` (block, fn, impl) needs a `// SAFETY:` comment on the \
         same line or within the three lines above it stating the invariant that \
         makes it sound. Applies everywhere, tests included.",
    ),
    (
        "unsafe-budget",
        "Per-crate `unsafe` occurrence counts are pinned in lint.toml \
         [unsafe_budget]. A count above the pin fails the build (new unsafe must \
         be an explicit diff to the budget); a count below it is a stale pin. \
         Regenerate the pins with `eum-lint --fix-budget`.",
    ),
    (
        "raw-atomic",
        "Audited concurrency files (lint.toml [atomics] facade_files) must \
         import atomics through the eum-mcheck facade (`crate::msync`, a \
         verbatim std re-export in production builds) instead of naming \
         `std::sync::atomic` / `core::sync::atomic` directly. The facade is \
         what lets the model-checked tests compile the same source text \
         against modeled atomics; a raw import silently exempts the file from \
         exhaustive interleaving coverage. Justify with \
         `// lint: allow(raw-atomic) — <reason>`.",
    ),
    (
        "config",
        "lint.toml self-check: hot/seqlock/counter/facade entries must name \
         files that exist in the scan, every fns pattern must match at least \
         one non-test fn (stale pin = error), [graph] boundary entries must \
         resolve to an existing `file.rs::fn`, budget entries must correspond \
         to scanned crates, and justification tags must name known rules and \
         carry a reason.",
    ),
];

/// True when `rule` is one of the known rule names.
pub fn known_rule(rule: &str) -> bool {
    RULES.iter().any(|(r, _)| *r == rule)
}

/// One finding, pointing at `file:line:col`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (byte offset into the raw line).
    pub col: usize,
    /// Rule name (one of [`RULES`]).
    pub rule: String,
    /// Human message.
    pub msg: String,
    /// The offending raw source line, trimmed.
    pub snippet: String,
}

impl Diagnostic {
    fn new(scan: &FileScan, line: usize, col0: usize, rule: &str, msg: String) -> Diagnostic {
        Diagnostic {
            file: scan.path.clone(),
            line,
            col: col0 + 1,
            rule: rule.to_string(),
            msg,
            snippet: scan
                .raw
                .get(line - 1)
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
        }
    }

    /// Renders the rustc-style block form.
    pub fn render(&self) -> String {
        format!(
            "error[{rule}]: {msg}\n  --> {file}:{line}:{col}\n   |  {snippet}\n   = help: `eum-lint --explain {rule}`",
            rule = self.rule,
            msg = self.msg,
            file = self.file,
            line = self.line,
            col = self.col,
            snippet = self.snippet,
        )
    }
}

/// Per-line justification state collected from comments.
struct Allows {
    /// line (1-based) → rules allowed on that line.
    by_line: HashMap<usize, HashSet<String>>,
}

impl Allows {
    fn permits(&self, line: usize, rule: &str) -> bool {
        self.by_line.get(&line).is_some_and(|s| s.contains(rule))
    }
}

/// Parses `lint: allow(...)` tags and `relaxed-ok:` markers out of the
/// file's comments, resolving each tag's scope (own line, next code line,
/// or whole fn when placed directly above a fn signature).
fn collect_allows(scan: &FileScan, diags: &mut Vec<Diagnostic>) -> Allows {
    let mut by_line: HashMap<usize, HashSet<String>> = HashMap::new();
    let n = scan.raw.len();
    for l in 1..=n {
        if scan.comment_is_doc[l - 1] {
            continue; // docs may describe tag syntax without enacting it
        }
        let comment = &scan.comments[l - 1];
        let mut rules_here: Vec<String> = Vec::new();
        if let Some(pos) = comment.find("lint: allow(") {
            let rest = &comment[pos + "lint: allow(".len()..];
            match rest.split_once(')') {
                Some((list, reason)) => {
                    if !reason.chars().any(|c| c.is_alphabetic()) {
                        diags.push(Diagnostic::new(
                            scan,
                            l,
                            0,
                            "config",
                            "justification tag has no reason: write \
                             `// lint: allow(<rule>) — <reason>`"
                                .to_string(),
                        ));
                    }
                    for rule in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                        if known_rule(rule) {
                            rules_here.push(rule.to_string());
                        } else {
                            diags.push(Diagnostic::new(
                                scan,
                                l,
                                0,
                                "config",
                                format!("justification tag names unknown rule `{rule}`"),
                            ));
                        }
                    }
                }
                None => diags.push(Diagnostic::new(
                    scan,
                    l,
                    0,
                    "config",
                    "unterminated justification tag: missing `)`".to_string(),
                )),
            }
        }
        if comment.contains("relaxed-ok:") {
            rules_here.push("relaxed-ordering".to_string());
        }
        if rules_here.is_empty() {
            continue;
        }
        let standalone = scan.code[l - 1].trim().is_empty();
        let targets: Vec<usize> = if !standalone {
            vec![l]
        } else {
            // Next non-blank code line; if it opens a fn, cover the body.
            match (l + 1..=n).find(|&nl| !scan.code[nl - 1].trim().is_empty()) {
                Some(nl) => match scan.fns.iter().find(|f| f.sig_line == nl) {
                    Some(f) => (f.sig_line..=f.end_line).collect(),
                    None => vec![nl],
                },
                None => vec![l],
            }
        };
        for t in targets {
            by_line
                .entry(t)
                .or_default()
                .extend(rules_here.iter().cloned());
        }
    }
    Allows { by_line }
}

/// Deny-listed call patterns searched for on hot lines: substring, the
/// rule it violates, and a short description.
const MACROS: &[(&str, &str, &str)] = &[
    ("vec!", "serve-alloc", "allocating macro"),
    ("format!", "serve-alloc", "allocating macro"),
    ("panic!", "serve-panic", "panicking macro"),
    ("todo!", "serve-panic", "panicking macro"),
    ("unreachable!", "serve-panic", "panicking macro"),
    ("unimplemented!", "serve-panic", "panicking macro"),
];

const PATHS: &[(&str, &str, &str)] = &[
    ("Vec::new", "serve-alloc", "allocating constructor"),
    (
        "Vec::with_capacity",
        "serve-alloc",
        "allocating constructor",
    ),
    ("String::new", "serve-alloc", "allocating constructor"),
    ("String::from", "serve-alloc", "allocating constructor"),
    (
        "String::with_capacity",
        "serve-alloc",
        "allocating constructor",
    ),
    ("Box::new", "serve-alloc", "allocating constructor"),
    ("Arc::new", "serve-alloc", "allocating constructor"),
    ("Rc::new", "serve-alloc", "allocating constructor"),
    ("Mutex::new", "serve-lock", "lock constructor"),
    ("RwLock::new", "serve-lock", "lock constructor"),
    ("Condvar::new", "serve-lock", "lock constructor"),
];

const METHODS: &[(&str, &str, &str)] = &[
    (".to_string()", "serve-alloc", "allocating call"),
    (".to_vec()", "serve-alloc", "allocating call"),
    (".to_owned()", "serve-alloc", "allocating call"),
    (".collect(", "serve-alloc", "allocating call"),
    (".collect::<", "serve-alloc", "allocating call"),
    (".lock()", "serve-lock", "blocking lock acquisition"),
    (".read()", "serve-lock", "blocking lock acquisition"),
    (".write()", "serve-lock", "blocking lock acquisition"),
    (".unwrap()", "serve-panic", "panicking call"),
    (".expect(", "serve-panic", "panicking call"),
];

fn is_ident_char(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Occurrences of `needle` in `hay` whose preceding char is not an
/// identifier char (so `.unwrap()` never matches inside `x_unwrap()`).
fn find_token(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    // Word-boundary checks only make sense where the needle itself starts
    // or ends with an identifier char: `.expect(` already carries its own
    // left boundary in the `.`.
    let needs_pre = needle.starts_with(|c: char| is_ident_char(c as u8));
    while let Some(rel) = hay[from..].find(needle) {
        let at = from + rel;
        let pre_ok = !needs_pre || at == 0 || !is_ident_char(hay.as_bytes()[at - 1]);
        // A path pattern like `Vec::new` must not match `MyVec::new` or
        // `Vec::new_in`; require a non-ident char after, too.
        let end = at + needle.len();
        let post_ok = !needle.ends_with(|c: char| is_ident_char(c as u8))
            || end >= hay.len()
            || !is_ident_char(hay.as_bytes()[end]);
        if pre_ok && post_ok {
            out.push(at);
        }
        from = at + needle.len();
    }
    out
}

/// Statically detectable `expr[...]` indexing: a `[` whose previous
/// non-space char ends an expression (identifier, `)`, `]`, or `?`).
fn find_indexing(code: &str) -> Vec<usize> {
    if code.trim_start().starts_with('#') {
        return Vec::new(); // attribute line
    }
    let b = code.as_bytes();
    let mut out = Vec::new();
    for (i, &c) in b.iter().enumerate() {
        if c != b'[' {
            continue;
        }
        let Some(j) = b[..i].iter().rposition(|&p| p != b' ' && p != b'\t') else {
            continue;
        };
        let p = b[j];
        if !(is_ident_char(p) || p == b')' || p == b']' || p == b'?') {
            continue;
        }
        // `&'a [u8]` and `&mut [u8]` are types, `let [a, b]` a pattern,
        // `in [x, y]` a literal — none is indexing: skip when the
        // preceding identifier run is introduced by a lifetime tick or
        // is a keyword no expression can end with.
        if is_ident_char(p) {
            let start = b[..j].iter().rposition(|&q| !is_ident_char(q));
            if start.is_some_and(|s| b[s] == b'\'') {
                continue;
            }
            let word = &code[start.map_or(0, |s| s + 1)..=j];
            if ["mut", "let", "in", "return", "const", "dyn"].contains(&word) {
                continue;
            }
        }
        out.push(i);
    }
    out
}

/// Resolves the [[hot]] pins for one file into fn indices. Emits a
/// config error for every pattern matching no non-test fn (stale pin).
/// Public so the call-graph pass seeds its closure from the same set.
pub fn resolve_pins(cfg: &Config, scan: &FileScan, diags: &mut Vec<Diagnostic>) -> HashSet<usize> {
    let mut matched: HashSet<usize> = HashSet::new();
    for hot in cfg.hot_for(&scan.path) {
        for pat in &hot.fns {
            let mut any = false;
            for (i, f) in scan.fns.iter().enumerate() {
                if !f.in_test && fn_pattern_matches(pat, &f.name) {
                    matched.insert(i);
                    any = true;
                }
            }
            if !any {
                diags.push(Diagnostic::new(
                    scan,
                    1,
                    0,
                    "config",
                    format!(
                        "[[hot]] {}: fns pattern `{pat}` matches no non-test fn",
                        scan.path
                    ),
                ));
            }
        }
    }
    matched
}

/// Serve-path purity scan over a set of fns in one file. `members` maps
/// fn index → provenance: `None` for directly pinned fns, `Some(chain)`
/// for fns the call-graph closure reached (the chain lands in the
/// message so the reader sees *why* an un-pinned fn is held to the
/// serve-path rules).
fn check_purity(
    scan: &FileScan,
    allows: &Allows,
    members: &HashMap<usize, Option<String>>,
    diags: &mut Vec<Diagnostic>,
) {
    if members.is_empty() {
        return;
    }
    for l in 1..=scan.raw.len() {
        let Some(fi) = scan.fn_index_at(l) else {
            continue;
        };
        let Some(provenance) = members.get(&fi) else {
            continue;
        };
        if scan.is_test_line(l) {
            continue;
        }
        let f = &scan.fns[fi];
        let via = match provenance {
            None => String::new(),
            Some(chain) => format!(" ({chain})"),
        };
        let code = &scan.code[l - 1];
        for (needle, rule, what) in MACROS.iter().chain(PATHS).chain(METHODS) {
            for at in find_token(code, needle) {
                if !allows.permits(l, rule) {
                    diags.push(Diagnostic::new(
                        scan,
                        l,
                        at,
                        rule,
                        format!(
                            "{what} `{}` in hot fn `{}`{via}",
                            needle.trim_matches('.'),
                            f.name
                        ),
                    ));
                }
            }
        }
        for at in find_indexing(code) {
            if !allows.permits(l, "serve-index") {
                diags.push(Diagnostic::new(
                    scan,
                    l,
                    at,
                    "serve-index",
                    format!("`[]` indexing in hot fn `{}` can panic{via}", f.name),
                ));
            }
        }
    }
}

/// Serve-path purity rules over one file's directly pinned fns.
fn check_hot(cfg: &Config, scan: &FileScan, allows: &Allows, diags: &mut Vec<Diagnostic>) {
    let members: HashMap<usize, Option<String>> = resolve_pins(cfg, scan, diags)
        .into_iter()
        .map(|i| (i, None))
        .collect();
    check_purity(scan, allows, &members, diags);
}

/// Purity pass over call-graph-reached fns (`targets`: fn index →
/// provenance chain). Recomputes the file's justification tags without
/// re-emitting tag errors — `check_file` already reported those.
pub fn check_reachable(
    scan: &FileScan,
    targets: &HashMap<usize, String>,
    diags: &mut Vec<Diagnostic>,
) {
    let mut tag_diags = Vec::new();
    let allows = collect_allows(scan, &mut tag_diags);
    let members: HashMap<usize, Option<String>> = targets
        .iter()
        .map(|(&i, chain)| (i, Some(chain.clone())))
        .collect();
    check_purity(scan, &allows, &members, diags);
}

/// Facade audit: declared concurrency files must not name the raw
/// std/core atomics module — atomics come through `crate::msync` so the
/// model-checked tests compile the same source against modeled atomics.
fn check_raw_atomic(cfg: &Config, scan: &FileScan, allows: &Allows, diags: &mut Vec<Diagnostic>) {
    if !cfg.facade_files.contains(&scan.path) {
        return;
    }
    for l in 1..=scan.raw.len() {
        if scan.is_test_line(l) {
            continue;
        }
        let code = &scan.code[l - 1];
        for needle in ["std::sync::atomic", "core::sync::atomic"] {
            for at in find_token(code, needle) {
                if !allows.permits(l, "raw-atomic") {
                    diags.push(Diagnostic::new(
                        scan,
                        l,
                        at,
                        "raw-atomic",
                        format!(
                            "`{needle}` in audited file: import atomics via \
                             `crate::msync` so model-checked builds cover this file"
                        ),
                    ));
                }
            }
        }
    }
}

/// `Ordering::Relaxed` justification audit over one file.
fn check_relaxed(cfg: &Config, scan: &FileScan, allows: &Allows, diags: &mut Vec<Diagnostic>) {
    if cfg.counter_paths.contains(&scan.path) {
        return;
    }
    if scan.path.contains("/tests/") || scan.path.starts_with("tests/") {
        return;
    }
    for l in 1..=scan.raw.len() {
        if scan.is_test_line(l) {
            continue;
        }
        for at in find_token(&scan.code[l - 1], "Ordering::Relaxed") {
            if !allows.permits(l, "relaxed-ordering") {
                diags.push(Diagnostic::new(
                    scan,
                    l,
                    at,
                    "relaxed-ordering",
                    "undocumented `Ordering::Relaxed`: add `// relaxed-ok: <why>`".to_string(),
                ));
            }
        }
    }
}

/// One atomic access found in a seqlock file.
struct AtomicAccess {
    field: String,
    line: usize,
    col: usize,
    is_store: bool,
    ordering: String,
}

/// Extracts `<recv>.load(Ordering::X)` / `<recv>.store(..., Ordering::X)`
/// accesses. The receiver is the identifier right before the call — field
/// names in practice; loop variables keep their own identity.
fn atomic_accesses(scan: &FileScan) -> Vec<AtomicAccess> {
    let mut out = Vec::new();
    for l in 1..=scan.raw.len() {
        if scan.is_test_line(l) {
            continue;
        }
        let code = &scan.code[l - 1];
        for (needle, is_store) in [(".load(", false), (".store(", true)] {
            for at in find_token(code, needle) {
                let field: String = code[..at]
                    .bytes()
                    .rev()
                    .take_while(|&c| is_ident_char(c))
                    .map(|c| c as char)
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect();
                // The Ordering may be on this line or (rustfmt-wrapped) on
                // one of the next two.
                let ordering = (l..=(l + 2).min(scan.raw.len()))
                    .find_map(|sl| {
                        let c = &scan.code[sl - 1];
                        let from = if sl == l { at } else { 0 };
                        c[from..].find("Ordering::").map(|p| {
                            c[from + p + "Ordering::".len()..]
                                .bytes()
                                .take_while(|&b| is_ident_char(b))
                                .map(|b| b as char)
                                .collect::<String>()
                        })
                    })
                    .unwrap_or_default();
                out.push(AtomicAccess {
                    field,
                    line: l,
                    col: at,
                    is_store,
                    ordering,
                });
            }
        }
    }
    out
}

/// Seqlock pairing audit: in declared files, a field loaded with Acquire
/// must not be stored with Relaxed.
fn check_seqlock(cfg: &Config, scan: &FileScan, allows: &Allows, diags: &mut Vec<Diagnostic>) {
    if !cfg.seqlock_files.contains(&scan.path) {
        return;
    }
    let accesses = atomic_accesses(scan);
    let acquire_loaded: HashSet<&str> = accesses
        .iter()
        .filter(|a| !a.is_store && (a.ordering == "Acquire" || a.ordering == "SeqCst"))
        .map(|a| a.field.as_str())
        .collect();
    for a in &accesses {
        if a.is_store
            && a.ordering == "Relaxed"
            && !a.field.is_empty()
            && acquire_loaded.contains(a.field.as_str())
            && !allows.permits(a.line, "seqlock-pairing")
        {
            diags.push(Diagnostic::new(
                scan,
                a.line,
                a.col,
                "seqlock-pairing",
                format!(
                    "`{}` is loaded with Acquire elsewhere in this file but stored \
                     with Relaxed — the publication edge is gone",
                    a.field
                ),
            ));
        }
    }
}

/// Unsafe audit over one file: SAFETY comments, and the occurrence count
/// for the budget.
fn check_unsafe(scan: &FileScan, diags: &mut Vec<Diagnostic>) -> u64 {
    let mut count = 0u64;
    for l in 1..=scan.raw.len() {
        let hits = find_token(&scan.code[l - 1], "unsafe");
        if hits.is_empty() {
            continue;
        }
        count += hits.len() as u64;
        let documented = (l.saturating_sub(3)..=l)
            .filter(|&cl| cl >= 1)
            .any(|cl| scan.comments[cl - 1].contains("SAFETY:"));
        if !documented {
            diags.push(Diagnostic::new(
                scan,
                l,
                hits[0],
                "safety-comment",
                "`unsafe` without a `// SAFETY:` comment on or above the line".to_string(),
            ));
        }
    }
    count
}

/// The crate-budget key for a workspace-relative path: the directory name
/// under `crates/`, or `root` for the top-level package.
pub fn crate_key(path: &str) -> String {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("root")
        .to_string()
}

/// Runs every per-file rule; returns the file's `unsafe` count.
pub fn check_file(cfg: &Config, scan: &FileScan, diags: &mut Vec<Diagnostic>) -> u64 {
    let mut tag_diags = Vec::new();
    let allows = collect_allows(scan, &mut tag_diags);
    diags.extend(tag_diags);
    check_hot(cfg, scan, &allows, diags);
    check_raw_atomic(cfg, scan, &allows, diags);
    check_relaxed(cfg, scan, &allows, diags);
    check_seqlock(cfg, scan, &allows, diags);
    check_unsafe(scan, diags)
}

/// Compares measured per-crate unsafe counts against the pinned budget.
/// Mismatch in either direction is an error so the pin stays exact.
pub fn check_budget(cfg: &Config, counts: &BTreeMap<String, u64>, diags: &mut Vec<Diagnostic>) {
    for (krate, &n) in counts {
        match cfg.unsafe_budget.get(krate) {
            None => diags.push(budget_diag(format!(
                "crate `{krate}` has no [unsafe_budget] entry (found {n} unsafe); \
                 add one or run --fix-budget"
            ))),
            Some(&budget) if n > budget => diags.push(budget_diag(format!(
                "crate `{krate}` has {n} unsafe occurrences, budget pins {budget}; \
                 new unsafe must raise the pin explicitly"
            ))),
            Some(&budget) if n < budget => diags.push(budget_diag(format!(
                "crate `{krate}` has {n} unsafe occurrences but the budget pins \
                 {budget} — stale pin, run --fix-budget"
            ))),
            Some(_) => {}
        }
    }
    for krate in cfg.unsafe_budget.keys() {
        if !counts.contains_key(krate) {
            diags.push(budget_diag(format!(
                "[unsafe_budget] entry `{krate}` matches no scanned crate — stale entry"
            )));
        }
    }
}

fn budget_diag(msg: String) -> Diagnostic {
    Diagnostic {
        file: "lint.toml".to_string(),
        line: 1,
        col: 1,
        rule: "unsafe-budget".to_string(),
        msg,
        snippet: String::new(),
    }
}
