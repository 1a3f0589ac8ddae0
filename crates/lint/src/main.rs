//! `eva2-lint`: the workspace hot-path invariant linter.
//!
//! A token-level scanner (no `syn`, no dependencies — the build
//! environment is offline) that enforces three invariants CI cannot get
//! from `clippy` alone:
//!
//! 1. **`no-panic`** — modules annotated with a `// lint: hot-path`
//!    marker line must not call `.unwrap()` / `.expect(` or invoke
//!    `panic!` / `todo!` outside test code. Hot-path modules (the serving
//!    engine, GEMM, the microkernel, RFBME, the warp engine) promise
//!    typed-error or clamped behavior; a stray panic there kills a whole
//!    worker pool. Intentional sites carry a
//!    `// lint:allow(no-panic)` escape on the same or the immediately
//!    preceding line, next to a justification.
//! 2. **`forbid-unsafe`** — every crate root (`src/lib.rs` /
//!    `src/main.rs`) must declare `#![forbid(unsafe_code)]`.
//! 3. **`must-use-builder`** — every `pub struct *Builder` must be
//!    `#[must_use]`: a dropped builder is always a bug.
//! 4. **`contained-unwind`** — `catch_unwind` may appear only inside the
//!    block marked `// lint: containment` in `serve/contain.rs` (the
//!    serving engine's per-frame containment seam). Panic-swallowing anywhere
//!    else — kernels, analysis passes, harnesses — hides real bugs
//!    instead of containing them per session.
//!
//! The scanner masks comments and string literals before matching (doc
//! examples legitimately show `.unwrap()`), and skips `#[cfg(test)]`
//! blocks, `tests/`, `benches/`, and `tests.rs` modules by brace
//! counting. `--self-test` seeds one violation per rule through the same
//! scanner and exits zero only if every seeded violation is caught — CI
//! runs it so a silently broken linter cannot keep a green badge.

#![forbid(unsafe_code)]

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Finding {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Lexer states for the comment/string masker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    /// Block comments nest in Rust; the payload is the nesting depth.
    BlockComment(u32),
    Str,
    /// Raw string with `n` leading hashes (`r##"…"##`).
    RawStr(u32),
}

/// Replaces every comment and string-literal character with a space,
/// preserving line structure, so token matching never fires inside prose
/// or message text. Char literals (`'"'`, `'\''`) are masked too;
/// lifetimes (`'a`) are left alone.
fn mask_source(source: &str) -> Vec<String> {
    let mut masked = Vec::new();
    let mut line = String::new();
    let mut state = State::Code;
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            masked.push(std::mem::take(&mut line));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    line.push(' ');
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    line.push(' ');
                } else if c == '"' {
                    state = State::Str;
                    line.push('"');
                } else if (c == 'r' || c == 'b')
                    && !prev_is_ident(&chars, i)
                    && raw_str_hashes(&chars, i).is_some()
                {
                    let (hashes, skip) = raw_str_hashes(&chars, i).expect("just matched");
                    state = State::RawStr(hashes);
                    for _ in 0..skip {
                        line.push(' ');
                    }
                    i += skip;
                    continue;
                } else if c == '\'' {
                    // Char literal or lifetime. A literal closes within a
                    // few chars; a lifetime never closes.
                    if chars.get(i + 1) == Some(&'\\') {
                        line.push(' ');
                        i += 1;
                        while i < chars.len() && chars[i] != '\'' {
                            line.push(' ');
                            i += 1;
                        }
                        line.push(' ');
                    } else if chars.get(i + 2) == Some(&'\'') {
                        line.push_str("   ");
                        i += 2;
                    } else {
                        line.push('\'');
                    }
                } else {
                    line.push(c);
                }
            }
            State::LineComment => line.push(' '),
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    line.push_str("  ");
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    line.push_str("  ");
                    i += 2;
                    continue;
                }
                line.push(' ');
            }
            State::Str => {
                if c == '\\' {
                    line.push(' ');
                    // A trailing `\` continues the string onto the next
                    // line; the newline must still break the masked line.
                    if chars.get(i + 1) == Some(&'\n') {
                        masked.push(std::mem::take(&mut line));
                    } else {
                        line.push(' ');
                    }
                    i += 2;
                    continue;
                }
                if c == '"' {
                    state = State::Code;
                    line.push('"');
                } else {
                    line.push(' ');
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    for _ in 0..=hashes {
                        line.push(' ');
                    }
                    i += hashes as usize + 1;
                    state = State::Code;
                    continue;
                }
                line.push(' ');
            }
        }
        i += 1;
    }
    masked.push(line);
    masked
}

/// Whether the char before `i` can end an identifier (so `r"` in
/// `attr"` is not a raw-string opener).
fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// Matches `r#*"` / `br#*"` at `i`; returns (hash count, chars through
/// the opening quote).
fn raw_str_hashes(chars: &[char], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        Some((hashes, j - i + 1))
    } else {
        None
    }
}

/// Whether the `"` at `i` is followed by `hashes` hash marks.
fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Marks each line that lies inside a `#[cfg(test)]` item by brace
/// counting on the masked source.
fn test_line_mask(masked: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; masked.len()];
    let mut depth = 0usize;
    let mut pending_attr = false;
    let mut skip_above: Option<usize> = None;
    for (idx, line) in masked.iter().enumerate() {
        if line.contains("#[cfg(test)]") {
            pending_attr = true;
        }
        if pending_attr || skip_above.is_some() {
            in_test[idx] = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    if pending_attr {
                        pending_attr = false;
                        skip_above = Some(depth);
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if skip_above == Some(depth) {
                        skip_above = None;
                    }
                }
                _ => {}
            }
        }
    }
    in_test
}

/// Marks each line inside the block opened after a `// lint: containment`
/// marker (the one designated `catch_unwind` seam), by brace counting on
/// the masked source. The marker's own line and the attribute/doc lines
/// between it and the opening brace are included.
fn containment_line_mask(masked: &[String], raw_lines: &[&str]) -> Vec<bool> {
    let mut in_block = vec![false; masked.len()];
    let mut depth = 0usize;
    let mut pending = false;
    let mut close_at: Option<usize> = None;
    for (idx, line) in masked.iter().enumerate() {
        if raw_lines
            .get(idx)
            .is_some_and(|l| l.trim_start().starts_with("// lint: containment"))
        {
            pending = true;
        }
        if pending || close_at.is_some() {
            in_block[idx] = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    if pending {
                        pending = false;
                        close_at = Some(depth);
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if close_at == Some(depth) {
                        close_at = None;
                    }
                }
                _ => {}
            }
        }
    }
    in_block
}

/// Whether line `idx` (0-based) carries or inherits a
/// `// lint:allow(<rule>)` escape.
fn allowed(raw_lines: &[&str], idx: usize, rule: &str) -> bool {
    let marker = format!("lint:allow({rule})");
    raw_lines[idx].contains(&marker) || (idx > 0 && raw_lines[idx - 1].contains(&marker))
}

/// The panic-family tokens the `no-panic` rule rejects. Method calls are
/// matched with a leading dot so `fn expect(` definitions don't trip.
const PANIC_TOKENS: [&str; 4] = [".unwrap()", ".expect(", "panic!", "todo!"];

/// Scans one file. `is_crate_root` enables the `forbid-unsafe` rule.
fn scan_file(label: &str, source: &str, is_crate_root: bool) -> Vec<Finding> {
    let mut findings = Vec::new();
    let raw_lines: Vec<&str> = source.lines().collect();
    let masked = mask_source(source);
    let in_test = test_line_mask(&masked);
    let containment = containment_line_mask(&masked, &raw_lines);
    let hot_path = raw_lines
        .iter()
        .any(|l| l.trim_start().starts_with("// lint: hot-path"));

    if is_crate_root && !source.contains("#![forbid(unsafe_code)]") {
        findings.push(Finding {
            file: label.to_string(),
            line: 1,
            rule: "forbid-unsafe",
            message: "crate root must declare #![forbid(unsafe_code)]".into(),
        });
    }

    for (idx, line) in masked.iter().enumerate() {
        if idx >= raw_lines.len() || in_test[idx] {
            continue;
        }
        if hot_path {
            for token in PANIC_TOKENS {
                if line.contains(token) && !allowed(&raw_lines, idx, "no-panic") {
                    findings.push(Finding {
                        file: label.to_string(),
                        line: idx + 1,
                        rule: "no-panic",
                        message: format!(
                            "`{token}` in a hot-path module; return a typed error or \
                             justify with // lint:allow(no-panic)"
                        ),
                    });
                }
            }
        }
        if line.contains("catch_unwind")
            && !(label.ends_with("serve/contain.rs") && containment[idx])
            && !allowed(&raw_lines, idx, "contained-unwind")
        {
            findings.push(Finding {
                file: label.to_string(),
                line: idx + 1,
                rule: "contained-unwind",
                message: "`catch_unwind` outside serve/contain.rs's `// lint: containment` block; \
                          panic-swallowing belongs only at the serving per-frame boundary"
                    .into(),
            });
        }
        if let Some(name) = line
            .trim_start()
            .strip_prefix("pub struct ")
            .map(|rest| rest.split(['<', ' ', '(', '{', ';']).next().unwrap_or(""))
        {
            if name.ends_with("Builder")
                && !preceding_attrs_contain(&masked, &raw_lines, idx, "must_use")
                && !allowed(&raw_lines, idx, "must-use-builder")
            {
                findings.push(Finding {
                    file: label.to_string(),
                    line: idx + 1,
                    rule: "must-use-builder",
                    message: format!("`{name}` must be #[must_use]: a dropped builder is a bug"),
                });
            }
        }
    }
    findings
}

/// Looks upward from `idx` through the item's attribute/doc block for a
/// `needle` inside an attribute.
fn preceding_attrs_contain(
    masked: &[String],
    raw_lines: &[&str],
    idx: usize,
    needle: &str,
) -> bool {
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let code = masked[j].trim();
        let raw = raw_lines.get(j).map_or("", |l| l.trim());
        let is_attr_or_doc = code.starts_with("#[")
            || code.starts_with('#')
            || code.ends_with(']')
            || code.is_empty() && (raw.starts_with("//") || raw.is_empty());
        if !is_attr_or_doc {
            return false;
        }
        if code.starts_with("#[") && code.contains(needle) {
            return true;
        }
        // Continue through multi-line attributes and doc comments.
        if code.is_empty() && raw.is_empty() {
            return false;
        }
    }
    false
}

/// Whether a path is test-only code the hot-path rules skip entirely.
fn is_test_path(path: &Path) -> bool {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if name == "tests.rs" || name.ends_with("_tests.rs") {
        return true;
    }
    path.components().any(|c| {
        matches!(
            c.as_os_str().to_str(),
            Some("tests") | Some("benches") | Some("examples")
        )
    })
}

/// Recursively collects `.rs` files under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every first-party crate under `root/crates`.
fn lint_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join("src").is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        let mut files = Vec::new();
        rust_files(&src, &mut files)?;
        files.sort();
        for file in files {
            if is_test_path(&file) {
                continue;
            }
            let is_crate_root = file == src.join("lib.rs") || file == src.join("main.rs");
            let source = fs::read_to_string(&file)?;
            let label = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .display()
                .to_string();
            findings.extend(scan_file(&label, &source, is_crate_root));
        }
    }
    Ok(findings)
}

/// Seeds one violation per rule through the real scanner; exits zero
/// only if all are caught and a compliant file stays clean.
fn self_test() -> bool {
    let seeded_panic = "// lint: hot-path\nfn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    let seeded_builder = "pub struct LimitsBuilder {\n    inner: u32,\n}\n";
    let seeded_root = "pub fn lib_fn() {}\n";
    let seeded_unwind =
        "fn f() -> bool {\n    std::panic::catch_unwind(|| true).unwrap_or(false)\n}\n";
    let contained_unwind = concat!(
        "// lint: containment\n",
        "/// The one sanctioned seam.\n",
        "mod contain {\n",
        "    use std::panic::catch_unwind;\n",
        "    pub fn run() { let _ = catch_unwind(|| ()); }\n",
        "}\n",
        "fn outside() { let _ = std::panic::catch_unwind(|| ()); }\n",
    );
    let clean = concat!(
        "#![forbid(unsafe_code)]\n",
        "// lint: hot-path\n",
        "//! Doc prose may show `.unwrap()` freely.\n",
        "#[must_use]\n",
        "pub struct CleanBuilder;\n",
        "fn g(x: Option<u32>) -> u32 {\n",
        "    let s = \"not a real .unwrap() call\";\n",
        "    x.unwrap_or(s.len() as u32)\n",
        "}\n",
        "fn h(x: Option<u32>) -> u32 {\n",
        "    // lint:allow(no-panic) — self-test fixture\n",
        "    x.unwrap()\n",
        "}\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    fn t(x: Option<u32>) -> u32 {\n",
        "        x.unwrap()\n",
        "    }\n",
        "}\n",
    );
    let checks = [
        (
            "seeded no-panic",
            !scan_file("seed.rs", seeded_panic, false).is_empty(),
        ),
        (
            "seeded must-use-builder",
            !scan_file("seed.rs", seeded_builder, false).is_empty(),
        ),
        (
            "seeded forbid-unsafe",
            !scan_file("lib.rs", seeded_root, true).is_empty(),
        ),
        (
            "seeded contained-unwind (kernel file)",
            !scan_file("kernel.rs", seeded_unwind, false).is_empty(),
        ),
        (
            // In serve/contain.rs the containment block is sanctioned but a
            // catch_unwind outside it is still a violation — exactly one
            // finding, on the `outside` line.
            "seeded contained-unwind (outside serve/contain.rs's seam)",
            scan_file("serve/contain.rs", contained_unwind, false).len() == 1,
        ),
        (
            "compliant file stays clean",
            scan_file("lib.rs", clean, true).is_empty(),
        ),
    ];
    let mut ok = true;
    for (what, passed) in checks {
        println!(
            "self-test: {what}: {}",
            if passed { "ok" } else { "FAILED" }
        );
        ok &= passed;
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        return if self_test() {
            println!("eva2-lint self-test: all seeded violations caught");
            ExitCode::SUCCESS
        } else {
            eprintln!("eva2-lint self-test: scanner failed to catch a seeded violation");
            ExitCode::FAILURE
        };
    }
    let root = args
        .iter()
        .position(|a| a == "--root")
        .and_then(|i| args.get(i + 1))
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    match lint_workspace(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("eva2-lint: workspace clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                eprintln!("{f}");
            }
            eprintln!("eva2-lint: {} violation(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("eva2-lint: cannot scan {}: {e}", root.display());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masker_strips_comments_strings_and_char_literals() {
        let masked = mask_source(
            "let a = \"x.unwrap()\"; // .expect( in prose\nlet c = '\"'; let r = r#\"panic!\"#;",
        );
        assert!(!masked[0].contains(".unwrap()"));
        assert!(!masked[0].contains(".expect("));
        assert!(!masked[1].contains("panic!"));
        assert!(masked[0].contains("let a ="));
    }

    #[test]
    fn masker_handles_nested_block_comments_and_lifetimes() {
        let masked = mask_source("/* outer /* panic! */ still comment */ fn f<'a>() {}");
        assert!(!masked[0].contains("panic!"));
        assert!(masked[0].contains("fn f<'a>() {}"));
    }

    #[test]
    fn cfg_test_blocks_are_skipped_by_brace_counting() {
        let src = "// lint: hot-path\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap() }\n}\nfn live() { y.unwrap() }\n";
        let findings = scan_file("f.rs", src, false);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 6);
    }

    #[test]
    fn allow_escape_works_on_same_and_preceding_line() {
        let src = "// lint: hot-path\nfn a() { x.unwrap() } // lint:allow(no-panic)\n// lint:allow(no-panic)\nfn b() { y.unwrap() }\nfn c() { z.unwrap() }\n";
        let findings = scan_file("f.rs", src, false);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 5);
    }

    #[test]
    fn non_hot_path_files_may_unwrap() {
        assert!(scan_file("f.rs", "fn a() { x.unwrap() }\n", false).is_empty());
    }

    #[test]
    fn string_continuations_do_not_shift_line_numbers() {
        let src = "// lint: hot-path\nlet s = \"a \\\n   b\";\nfn live() { x.unwrap() }\n";
        let findings = scan_file("f.rs", src, false);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 4);
    }

    #[test]
    fn must_use_scans_through_doc_and_derive_attributes() {
        let ok = "#[must_use = \"reason\"]\n#[derive(Debug)]\n/// Docs.\npub struct OkBuilder {}\n";
        let bad = "#[derive(Debug)]\npub struct BadBuilder {}\n";
        assert!(scan_file("f.rs", ok, false).is_empty());
        let findings = scan_file("f.rs", bad, false);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "must-use-builder");
    }

    #[test]
    fn catch_unwind_is_flagged_outside_the_containment_seam() {
        // Any file other than serve/contain.rs: flagged even inside a marked
        // block (there is exactly one sanctioned seam, and it lives there).
        let elsewhere =
            "// lint: containment\nmod contain {\n    use std::panic::catch_unwind;\n}\n";
        let findings = scan_file("crates/cnn/src/gemm.rs", elsewhere, false);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "contained-unwind");
        // serve/contain.rs: clean inside the marked block, flagged outside it.
        let serve = "// lint: containment\nmod contain {\n    use std::panic::catch_unwind;\n}\nfn f() { let _ = std::panic::catch_unwind(|| ()); }\n";
        let findings = scan_file("crates/core/src/serve/contain.rs", serve, false);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 5);
        // Nowhere else is the marked block sanctioned.
        assert_eq!(scan_file("crates/core/src/serve.rs", serve, false).len(), 2);
        // The escape hatch still works, with a justification.
        let allowed = "// lint:allow(contained-unwind) — test fixture\nfn f() { let _ = std::panic::catch_unwind(|| ()); }\n";
        assert!(scan_file("crates/cnn/src/gemm.rs", allowed, false).is_empty());
    }

    #[test]
    fn containment_mask_covers_marker_through_block_close() {
        let src =
            "// lint: containment\n/// Docs.\nmod contain {\n    fn inner() {}\n}\nfn after() {}\n";
        let masked = mask_source(src);
        let raw: Vec<&str> = src.lines().collect();
        let mask = containment_line_mask(&masked, &raw);
        assert_eq!(mask[..6], [true, true, true, true, true, false]);
    }

    #[test]
    fn self_test_catches_all_seeded_violations() {
        assert!(self_test());
    }
}
