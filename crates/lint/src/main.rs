//! `soap-lint` — workspace source-level determinism lints.
//!
//! The engine's determinism contract (bit-exact output for any thread budget,
//! NaN-total comparisons, documented operational surface) is enforced here as
//! a static pass over the source tree: plain `std` scanning, no parser, no
//! external dependencies.  Comments and string literals are masked before
//! pattern matching, so the rules see only code.
//!
//! Rules (names usable in allow markers):
//!
//! * `partial-cmp`    — raw `.partial_cmp(` is forbidden; route float
//!   comparisons through `soap_symbolic::nan_last` (the one site defining the
//!   NaN total order carries the justification marker).
//! * `instant-now`    — `Instant::now()` is forbidden outside `deadline.rs`:
//!   wall-clock reads are non-deterministic by nature and must be confined to
//!   the deadline governor (other reads carry a justification marker).
//! * `unwrap-expect`  — `.unwrap()` / `.expect(` in non-test library code is
//!   forbidden; return typed errors, or justify the panic site with a marker.
//! * `hashmap-iter`   — `HashMap` iteration in a file that serializes output
//!   is flagged: hash order is arbitrary, so iterate sorted (or justify that
//!   the consumer canonicalizes).
//! * `env-docs`       — every `SOAP_*` name mentioned in non-test code must
//!   appear in `docs/OPERATIONS.md`; the operational surface stays documented.
//! * `bad-marker`     — an allow marker naming an unknown rule or carrying no
//!   justification is itself a violation.
//!
//! Suppression: `// lint:allow(<rule>): <justification>` covers its own line
//! and the next; `// lint:allow-file(<rule>): <justification>` covers the
//! whole file.  Justifications are mandatory — the allowlist is the audit
//! trail.
//!
//! Exit status: 0 when clean, 1 when violations were found (or `--self-check`
//! failed), 2 on usage/IO errors.

#![forbid(unsafe_code)]

// lint:allow-file(env-docs): the SOAP_SELF_CHECK_* names below are synthetic
// fixture vocabulary for --self-check, not real knobs anyone can set.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Every rule the scanner knows, in reporting order.
const RULES: [&str; 6] = [
    "partial-cmp",
    "instant-now",
    "unwrap-expect",
    "hashmap-iter",
    "env-docs",
    "bad-marker",
];

/// One finding: file, 1-based line, rule, human message.
struct Violation {
    rel: String,
    line: usize,
    rule: &'static str,
    msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.rel, self.line, self.rule, self.msg
        )
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut self_check = false;
    let mut explicit: Vec<PathBuf> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("soap-lint: --root needs a directory");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(dir);
            }
            "--self-check" => self_check = true,
            "--help" | "-h" => {
                println!(
                    "usage: soap-lint [--root DIR] [--self-check] [FILE.rs ...]\n\
                     Scans crates/**/*.rs under DIR (default .) and checks the\n\
                     determinism lint rules; see crates/lint/src/main.rs docs."
                );
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                eprintln!("soap-lint: unknown flag {other}");
                return ExitCode::from(2);
            }
            file => explicit.push(PathBuf::from(file)),
        }
        i += 1;
    }

    if self_check {
        return run_self_check(&root);
    }

    let files = if explicit.is_empty() {
        match walk_workspace(&root) {
            Ok(files) => files,
            Err(e) => {
                eprintln!("soap-lint: walking {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    } else {
        explicit
    };
    if files.is_empty() {
        eprintln!("soap-lint: no .rs files found under {}", root.display());
        return ExitCode::from(2);
    }

    let docs = match std::fs::read_to_string(root.join("docs/OPERATIONS.md")) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("soap-lint: reading docs/OPERATIONS.md: {e}");
            return ExitCode::from(2);
        }
    };

    let mut violations = Vec::new();
    let mut env_reads: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for path in &files {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("soap-lint: reading {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let file = SourceFile::parse(&rel, &source);
        violations.extend(file.lint(&mut env_reads));
    }
    violations.extend(check_env_docs(&env_reads, &docs));

    report(&mut violations, files.len())
}

/// Print findings sorted by file/line and return the process exit status.
fn report(violations: &mut [Violation], n_files: usize) -> ExitCode {
    violations.sort_by(|a, b| (&a.rel, a.line).cmp(&(&b.rel, b.line)));
    for v in violations.iter() {
        println!("{v}");
    }
    if violations.is_empty() {
        println!("soap-lint: {n_files} files clean");
        ExitCode::SUCCESS
    } else {
        println!(
            "soap-lint: {} violation(s) in {n_files} files",
            violations.len()
        );
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// All `.rs` files under `root/crates`, skipping build output, VCS state, and
/// the lint fixtures (which contain deliberate violations).
fn walk_workspace(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let crates = root.join("crates");
    let mut files = Vec::new();
    let mut stack = vec![crates];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if name == "target" || name == "fixtures" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

// ---------------------------------------------------------------------------
// Per-file model: masked lines, test region, allow markers
// ---------------------------------------------------------------------------

struct SourceFile<'a> {
    rel: &'a str,
    /// Raw source lines (markers + env names live in comments/strings).
    raw: Vec<&'a str>,
    /// Lines with comments and string/char literals blanked out.
    masked: Vec<String>,
    /// Index of the first `#[cfg(test)]` line; code at/after it is test code.
    test_start: usize,
    /// `lint:allow(rule)` markers: line index -> rules allowed there.
    line_allows: BTreeMap<usize, Vec<&'static str>>,
    /// `lint:allow-file(rule)` markers.
    file_allows: BTreeSet<&'static str>,
    /// Malformed markers found while parsing (reported as `bad-marker`).
    marker_violations: Vec<(usize, String)>,
}

impl<'a> SourceFile<'a> {
    fn parse(rel: &'a str, source: &'a str) -> SourceFile<'a> {
        let raw: Vec<&str> = source.lines().collect();
        let Scanned { masked, comments } = scan_source(source);
        debug_assert_eq!(raw.len(), masked.len());
        let test_start = masked
            .iter()
            .position(|l| l.contains("#[cfg(test)]"))
            .unwrap_or(usize::MAX);
        let mut line_allows: BTreeMap<usize, Vec<&'static str>> = BTreeMap::new();
        let mut file_allows = BTreeSet::new();
        let mut marker_violations = Vec::new();
        for (i, comment) in comments.iter().enumerate() {
            // A marker must BEGIN the comment text, so prose that merely
            // mentions the grammar (like this file's docs) is not parsed.
            let text = comment.trim();
            let (rest, file_wide) = if let Some(r) = text.strip_prefix("lint:allow-file(") {
                (r, true)
            } else if let Some(r) = text.strip_prefix("lint:allow(") {
                (r, false)
            } else {
                continue;
            };
            match parse_marker(rest) {
                Ok(rule) => {
                    if file_wide {
                        file_allows.insert(rule);
                    } else {
                        line_allows.entry(i).or_default().push(rule);
                    }
                }
                Err(why) => marker_violations.push((i, why)),
            }
        }
        SourceFile {
            rel,
            raw,
            masked,
            test_start,
            line_allows,
            file_allows,
            marker_violations,
        }
    }

    /// Whole file is test/bench support (never linted for code rules).
    fn is_test_file(&self) -> bool {
        self.rel
            .split('/')
            .any(|c| c == "tests" || c == "benches" || c == "examples")
    }

    /// Library code: under a `src/` component, excluding binary entry points.
    fn is_library_code(&self) -> bool {
        let parts: Vec<&str> = self.rel.split('/').collect();
        parts.contains(&"src") && !parts.contains(&"bin") && parts.last() != Some(&"main.rs")
    }

    fn in_test_region(&self, line: usize) -> bool {
        line >= self.test_start
    }

    fn allowed(&self, rule: &'static str, line: usize) -> bool {
        if self.file_allows.contains(rule) {
            return true;
        }
        let covers = |i: usize| {
            self.line_allows
                .get(&i)
                .is_some_and(|rules| rules.contains(&rule))
        };
        covers(line) || (line > 0 && covers(line - 1))
    }

    fn push(&self, out: &mut Vec<Violation>, rule: &'static str, line: usize, msg: String) {
        if !self.allowed(rule, line) {
            out.push(Violation {
                rel: self.rel.to_string(),
                line: line + 1,
                rule,
                msg,
            });
        }
    }

    /// Run every code rule over this file, feeding `SOAP_*` mentions into
    /// `env_reads` for the workspace-level docs cross-check.
    fn lint(&self, env_reads: &mut BTreeMap<String, (String, usize)>) -> Vec<Violation> {
        let mut out = Vec::new();
        for (line, why) in &self.marker_violations {
            // Malformed markers are reported even in test files: the marker
            // grammar is the allowlist's audit trail everywhere.
            self.push(&mut out, "bad-marker", *line, why.clone());
        }
        if self.is_test_file() {
            return out;
        }
        let serializes = self.masked.iter().any(|l| {
            l.contains("serde_json")
                || l.contains("Serialize")
                || l.contains("to_writer")
                || l.contains("Value::")
        });
        let map_names = if serializes {
            hashmap_names(&self.masked)
        } else {
            Vec::new()
        };
        for (i, masked) in self.masked.iter().enumerate() {
            if !self.in_test_region(i) {
                self.rule_partial_cmp(&mut out, i, masked);
                self.rule_instant_now(&mut out, i, masked);
                self.rule_unwrap_expect(&mut out, i, masked);
                self.rule_hashmap_iter(&mut out, i, masked, &map_names);
                if !self.allowed("env-docs", i) {
                    collect_env_mentions(self.rel, i, self.raw[i], env_reads);
                }
            }
        }
        out
    }

    fn rule_partial_cmp(&self, out: &mut Vec<Violation>, i: usize, masked: &str) {
        if masked.contains(".partial_cmp(") {
            self.push(
                out,
                "partial-cmp",
                i,
                "raw .partial_cmp() — float comparisons must route through \
                 soap_symbolic::nan_last for a NaN total order"
                    .to_string(),
            );
        }
    }

    fn rule_instant_now(&self, out: &mut Vec<Violation>, i: usize, masked: &str) {
        let base = self.rel.rsplit('/').next().unwrap_or(self.rel);
        if base == "deadline.rs" {
            return;
        }
        if masked.contains("Instant::now") {
            self.push(
                out,
                "instant-now",
                i,
                "wall-clock read outside deadline.rs — time-dependent \
                 logic breaks run-to-run determinism"
                    .to_string(),
            );
        }
    }

    fn rule_unwrap_expect(&self, out: &mut Vec<Violation>, i: usize, masked: &str) {
        if !self.is_library_code() {
            return;
        }
        for pat in [".unwrap()", ".expect("] {
            if masked.contains(pat) {
                self.push(
                    out,
                    "unwrap-expect",
                    i,
                    format!(
                        "{pat} in library code — return a typed error, or \
                         justify the panic with a lint:allow marker"
                    ),
                );
            }
        }
    }

    fn rule_hashmap_iter(
        &self,
        out: &mut Vec<Violation>,
        i: usize,
        masked: &str,
        map_names: &[String],
    ) {
        if masked.contains("sort") || masked.contains("BTree") {
            return; // canonicalized on the same line
        }
        for name in map_names {
            let iterates = masked.contains(&format!("{name}.iter()"))
                || masked.contains(&format!("{name}.keys()"))
                || masked.contains(&format!("{name}.values()"))
                || masked.contains(&format!("in &{name} "))
                || masked.ends_with(&format!("in &{name} {{"));
            if iterates {
                self.push(
                    out,
                    "hashmap-iter",
                    i,
                    format!(
                        "iterating HashMap `{name}` in a file that serializes \
                         output — hash order is arbitrary; sort first or \
                         justify that the consumer canonicalizes"
                    ),
                );
            }
        }
    }
}

/// `rest` is everything after `lint:allow(` / `lint:allow-file(`; returns the
/// (static) rule name or a description of what is wrong with the marker.
fn parse_marker(rest: &str) -> Result<&'static str, String> {
    let Some(close) = rest.find(')') else {
        return Err("allow marker is missing the closing ')'".to_string());
    };
    let rule = rest[..close].trim();
    let Some(rule) = RULES.iter().find(|r| **r == rule) else {
        return Err(format!(
            "allow marker names unknown rule '{rule}' (known: {})",
            RULES.join(", ")
        ));
    };
    let after = rest[close + 1..].trim_start();
    let justification = after.strip_prefix(':').map(str::trim).unwrap_or("");
    if justification.len() < 10 {
        return Err(format!(
            "allow marker for '{rule}' needs a real justification \
             (`lint:allow({rule}): why this is sound`)"
        ));
    }
    Ok(rule)
}

/// Identifiers bound to a `HashMap` in this file: `let [mut] NAME … HashMap`
/// bindings and `NAME: HashMap<` field/param declarations.
fn hashmap_names(masked: &[String]) -> Vec<String> {
    let mut names = BTreeSet::new();
    for line in masked {
        if !line.contains("HashMap") {
            continue;
        }
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("let ") {
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                names.insert(name);
            }
        } else if let Some(colon) = t.find(": HashMap<") {
            let name = &t[..colon];
            if !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                names.insert(name.to_string());
            }
        }
    }
    names.into_iter().collect()
}

/// Record every concrete `SOAP_*` name mentioned on a non-test raw line.
fn collect_env_mentions(
    rel: &str,
    line: usize,
    raw: &str,
    env_reads: &mut BTreeMap<String, (String, usize)>,
) {
    for name in soap_tokens(raw) {
        env_reads
            .entry(name)
            .or_insert_with(|| (rel.to_string(), line + 1));
    }
}

/// Maximal `SOAP_[A-Z0-9_]*` runs in `text`.  A trailing `_` means a prefix
/// under construction (e.g. `SOAP_SERVE_` + flag name), not a concrete
/// variable name, and is skipped; so is a run that is the tail of a longer
/// identifier.
fn soap_tokens(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some(at) = text[i..].find("SOAP_") {
        let start = i + at;
        let mut end = start;
        while end < bytes.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        let is_start =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let name = &text[start..end];
        if is_start && !name.ends_with('_') {
            out.push(name.to_string());
        }
        i = end.max(start + 1);
    }
    out
}

/// The workspace-level half of `env-docs`: every mentioned name must appear
/// in `docs/OPERATIONS.md`.
fn check_env_docs(env_reads: &BTreeMap<String, (String, usize)>, docs: &str) -> Vec<Violation> {
    let documented: BTreeSet<String> = soap_tokens(docs).into_iter().collect();
    env_reads
        .iter()
        .filter(|(name, _)| !documented.contains(*name))
        .map(|(name, (rel, line))| Violation {
            rel: rel.clone(),
            line: *line,
            rule: "env-docs",
            msg: format!("{name} is read here but not documented in docs/OPERATIONS.md"),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Source scanning: one pass builds two parallel views of the file — `masked`
// (comments and string/char literals blanked, so rules see only code) and
// `comments` (comment text only, where allow markers live).  Line structure
// is preserved exactly in both.
// ---------------------------------------------------------------------------

struct Scanned {
    masked: Vec<String>,
    comments: Vec<String>,
}

fn scan_source(source: &str) -> Scanned {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(usize),
        Char,
    }
    let mut st = St::Code;
    let mut code = String::with_capacity(source.len());
    let mut com = String::with_capacity(source.len());
    // Push to the code view and blank the comment view (or vice versa).
    let emit = |code: &mut String, com: &mut String, c: char, to_code: bool| {
        if c == '\n' {
            code.push('\n');
            com.push('\n');
        } else if to_code {
            code.push(c);
            com.push(' ');
        } else {
            code.push(' ');
            com.push(c);
        }
    };
    let bytes = source.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let next = bytes.get(i + 1).map(|b| *b as char);
        match st {
            St::Code => match (c, next) {
                ('/', Some('/')) => {
                    st = St::LineComment;
                    emit(&mut code, &mut com, ' ', true);
                    emit(&mut code, &mut com, ' ', true);
                    i += 2;
                }
                ('/', Some('*')) => {
                    st = St::BlockComment(1);
                    emit(&mut code, &mut com, ' ', true);
                    emit(&mut code, &mut com, ' ', true);
                    i += 2;
                }
                ('r', Some('"')) | ('r', Some('#')) => {
                    // Possible raw string r"..." / r#"..."#.
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while bytes.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&b'"') {
                        st = St::RawStr(hashes);
                        for _ in i..=j {
                            emit(&mut code, &mut com, ' ', true);
                        }
                        i = j + 1;
                    } else {
                        emit(&mut code, &mut com, c, true);
                        i += 1;
                    }
                }
                ('"', _) => {
                    st = St::Str;
                    emit(&mut code, &mut com, ' ', true);
                    i += 1;
                }
                ('\'', _) => {
                    // Lifetime (`'a`) vs char literal: a char literal closes
                    // with a `'` within a few bytes.
                    let mut j = i + 1;
                    if bytes.get(j) == Some(&b'\\') {
                        j += 2; // skip the escape and its target
                        while j < bytes.len() && bytes[j] != b'\'' {
                            j += 1; // \u{...}
                        }
                    } else if j < bytes.len() {
                        j += 1;
                    }
                    if bytes.get(j) == Some(&b'\'') {
                        st = St::Char;
                        emit(&mut code, &mut com, ' ', true);
                        i += 1;
                    } else {
                        emit(&mut code, &mut com, c, true); // lifetime tick
                        i += 1;
                    }
                }
                _ => {
                    emit(&mut code, &mut com, c, true);
                    i += 1;
                }
            },
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                }
                emit(&mut code, &mut com, c, false);
                i += 1;
            }
            St::BlockComment(depth) => match (c, next) {
                ('*', Some('/')) => {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    emit(&mut code, &mut com, ' ', false);
                    emit(&mut code, &mut com, ' ', false);
                    i += 2;
                }
                ('/', Some('*')) => {
                    st = St::BlockComment(depth + 1);
                    emit(&mut code, &mut com, ' ', false);
                    emit(&mut code, &mut com, ' ', false);
                    i += 2;
                }
                _ => {
                    emit(&mut code, &mut com, c, false);
                    i += 1;
                }
            },
            St::Str => match (c, next) {
                ('\\', Some(n)) => {
                    // Keep line structure across `\<newline>` continuations.
                    emit(&mut code, &mut com, ' ', true);
                    emit(
                        &mut code,
                        &mut com,
                        if n == '\n' { '\n' } else { ' ' },
                        true,
                    );
                    i += 2;
                }
                ('"', _) => {
                    st = St::Code;
                    emit(&mut code, &mut com, ' ', true);
                    i += 1;
                }
                _ => {
                    emit(
                        &mut code,
                        &mut com,
                        if c == '\n' { '\n' } else { ' ' },
                        true,
                    );
                    i += 1;
                }
            },
            St::RawStr(hashes) => {
                if c == '"' {
                    let all = (0..hashes).all(|k| bytes.get(i + 1 + k) == Some(&b'#'));
                    if all {
                        st = St::Code;
                        for _ in 0..=hashes {
                            emit(&mut code, &mut com, ' ', true);
                        }
                        i += 1 + hashes;
                        continue;
                    }
                }
                emit(
                    &mut code,
                    &mut com,
                    if c == '\n' { '\n' } else { ' ' },
                    true,
                );
                i += 1;
            }
            St::Char => {
                if c == '\'' {
                    st = St::Code;
                }
                emit(&mut code, &mut com, ' ', true);
                i += 1;
            }
        }
    }
    Scanned {
        masked: code.lines().map(str::to_string).collect(),
        comments: com.lines().map(str::to_string).collect(),
    }
}

// ---------------------------------------------------------------------------
// Self-check: lint the bundled fixtures and assert every rule fires where
// expected (and nowhere in the clean fixture).  This is the synthetic
// violation gate CI runs alongside the workspace scan.
// ---------------------------------------------------------------------------

fn run_self_check(root: &Path) -> ExitCode {
    let fixtures = root.join("crates/lint/fixtures");
    let load = |name: &str| -> Option<String> {
        match std::fs::read_to_string(fixtures.join(name)) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("soap-lint: reading fixture {name}: {e}");
                None
            }
        }
    };
    let (Some(bad), Some(clean)) = (load("violations.rs"), load("clean.rs")) else {
        return ExitCode::from(2);
    };

    let mut env_reads = BTreeMap::new();
    let file = SourceFile::parse("crates/demo/src/violations.rs", &bad);
    let mut violations = file.lint(&mut env_reads);
    violations.extend(check_env_docs(
        &env_reads,
        "only SOAP_SELF_CHECK_DOCUMENTED here",
    ));
    let fired: BTreeSet<&str> = violations.iter().map(|v| v.rule).collect();
    let mut ok = true;
    for rule in RULES {
        if !fired.contains(rule) {
            eprintln!("self-check: rule '{rule}' did NOT fire on the violations fixture");
            ok = false;
        }
    }
    let undocumented = violations
        .iter()
        .any(|v| v.rule == "env-docs" && v.msg.contains("SOAP_SELF_CHECK_UNDOCUMENTED"));
    if !undocumented {
        eprintln!("self-check: env-docs missed SOAP_SELF_CHECK_UNDOCUMENTED");
        ok = false;
    }

    let mut env_reads = BTreeMap::new();
    let file = SourceFile::parse("crates/demo/src/clean.rs", &clean);
    let mut clean_violations = file.lint(&mut env_reads);
    clean_violations.extend(check_env_docs(
        &env_reads,
        "SOAP_SELF_CHECK_DOCUMENTED is the documented one",
    ));
    for v in &clean_violations {
        eprintln!("self-check: clean fixture flagged: {v}");
        ok = false;
    }

    if ok {
        println!(
            "soap-lint: self-check ok ({} violation(s) on the violations fixture, \
             0 on the clean fixture)",
            violations.len()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(rel: &str, source: &str) -> Vec<Violation> {
        let mut env = BTreeMap::new();
        SourceFile::parse(rel, source).lint(&mut env)
    }

    #[test]
    fn masking_blanks_comments_and_strings() {
        let s = scan_source(
            "let a = \".unwrap()\"; // .expect(\nlet b = 1; /* Instant::now\n */ let c = 2;",
        );
        assert!(!s.masked[0].contains(".unwrap()"));
        assert!(!s.masked[0].contains(".expect("));
        assert!(!s.masked[1].contains("Instant::now"));
        assert!(s.masked[2].contains("let c = 2;"));
        assert_eq!(s.masked.len(), 3);
        // The comment view holds the comment text, line-aligned.
        assert!(s.comments[0].contains(".expect("));
        assert!(s.comments[1].contains("Instant::now"));
    }

    #[test]
    fn masking_handles_raw_strings_and_chars() {
        let s = scan_source("let s = r#\".partial_cmp(\"#; let c = '\"'; x.unwrap();");
        assert!(!s.masked[0].contains(".partial_cmp("));
        assert!(s.masked[0].contains(".unwrap()"), "{}", s.masked[0]);
    }

    #[test]
    fn masking_keeps_lines_aligned_across_string_continuations() {
        let src = "print(\n    \"line one\\n\\\n     line two\\n\"\n);\n";
        let s = scan_source(src);
        assert_eq!(s.masked.len(), src.lines().count());
    }

    #[test]
    fn marker_must_begin_the_comment() {
        // Prose that merely mentions the grammar is not a marker (and not a
        // bad-marker violation either).
        let v = lint_str(
            "crates/x/src/lib.rs",
            "// suppression uses lint:allow(rule): justification syntax\nfn f() {}",
        );
        assert!(
            v.is_empty(),
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
        // A marker inside a string literal is not a marker.
        let v = lint_str(
            "crates/x/src/lib.rs",
            "let s = \"lint:allow(unknown): text here\";",
        );
        assert!(v.is_empty());
    }

    #[test]
    fn unwrap_rule_respects_scope_and_markers() {
        let v = lint_str("crates/x/src/lib.rs", "fn f() { y.unwrap(); }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unwrap-expect");
        // Marker on the line above suppresses it.
        let v = lint_str(
            "crates/x/src/lib.rs",
            "// lint:allow(unwrap-expect): held lock cannot poison here\nfn f() { y.unwrap(); }",
        );
        assert!(
            v.is_empty(),
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
        // Binaries and test files are out of scope.
        assert!(lint_str("crates/x/src/bin/tool.rs", "fn f() { y.unwrap(); }").is_empty());
        assert!(lint_str("crates/x/tests/t.rs", "fn f() { y.unwrap(); }").is_empty());
        // Test region of a library file is out of scope.
        let v = lint_str(
            "crates/x/src/lib.rs",
            "fn f() {}\n#[cfg(test)]\nmod tests { fn g() { y.unwrap(); } }",
        );
        assert!(v.is_empty());
    }

    #[test]
    fn instant_now_allows_only_deadline_rs() {
        assert!(lint_str("crates/x/src/deadline.rs", "let t = Instant::now();").is_empty());
        for rel in ["crates/x/src/perf.rs", "crates/x/src/lib.rs"] {
            let v = lint_str(rel, "let t = Instant::now();");
            assert_eq!(v.len(), 1, "{rel}");
            assert_eq!(v[0].rule, "instant-now");
        }
    }

    #[test]
    fn partial_cmp_fires_and_file_marker_suppresses() {
        let v = lint_str("crates/x/src/lib.rs", "a.partial_cmp(&b)");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "partial-cmp");
        let v = lint_str(
            "crates/x/src/lib.rs",
            "// lint:allow-file(partial-cmp): this file defines the total order\na.partial_cmp(&b)",
        );
        assert!(v.is_empty());
    }

    #[test]
    fn hashmap_iter_needs_serialization_context() {
        let src = "use std::collections::HashMap;\n\
                   let mut counts: HashMap<u32, u32> = HashMap::new;\n\
                   for (k, v) in counts.iter() { body(k, v); }\n";
        // No serialization in the file: not flagged.
        assert!(lint_str("crates/x/src/lib.rs", src).is_empty());
        // Same iteration in a file that serializes: flagged.
        let with_ser = format!("{src}serde_json::to_writer(w, &out);\n");
        let v = lint_str("crates/x/src/lib.rs", &with_ser);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "hashmap-iter");
        // Sorting on the iteration line canonicalizes it.
        let sorted = with_ser.replace("body(k, v)", "pairs.sort()");
        assert!(lint_str("crates/x/src/lib.rs", &sorted).is_empty());
    }

    #[test]
    fn env_tokens_are_maximal_and_skip_prefixes() {
        assert_eq!(
            soap_tokens("env::var(\"SOAP_THREADS\") + SOAP_SERVE_ + XSOAP_NOT"),
            vec!["SOAP_THREADS".to_string()]
        );
        let mut reads = BTreeMap::new();
        collect_env_mentions(
            "crates/x/src/lib.rs",
            0,
            "var(\"SOAP_NEW_KNOB\")",
            &mut reads,
        );
        let v = check_env_docs(&reads, "docs mention SOAP_OTHER only");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "env-docs");
        let v = check_env_docs(&reads, "docs mention SOAP_NEW_KNOB properly");
        assert!(v.is_empty());
    }

    #[test]
    fn bad_markers_are_violations() {
        let v = lint_str(
            "crates/x/src/lib.rs",
            "// lint:allow(no-such-rule): whatever this is\nfn f() {}",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "bad-marker");
        let v = lint_str(
            "crates/x/src/lib.rs",
            "// lint:allow(unwrap-expect)\nfn f() { y.unwrap(); }",
        );
        // Missing justification: the marker is invalid AND does not suppress.
        assert_eq!(
            v.len(),
            2,
            "{:?}",
            v.iter().map(|v| v.to_string()).collect::<Vec<_>>()
        );
    }
}
