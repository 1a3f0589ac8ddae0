//! Workspace conventions no compiler lint states: every crate root forbids
//! `unsafe` code, and every public builder is `#[must_use]` (a dropped
//! builder is always a bug).

use std::fs;
use std::path::{Path, PathBuf};

/// The `src/` directory of the root package and of every crate under
/// `crates/`.
fn source_dirs() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.join("src")];
    for entry in fs::read_dir(root.join("crates")).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            dirs.push(src);
        }
    }
    dirs
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_crate_root_forbids_unsafe_code() {
    let mut roots = 0;
    for src in source_dirs() {
        for root in [src.join("lib.rs"), src.join("main.rs")] {
            let Ok(text) = fs::read_to_string(&root) else {
                continue;
            };
            roots += 1;
            assert!(
                text.lines().any(|l| l.trim() == "#![forbid(unsafe_code)]"),
                "{} must declare #![forbid(unsafe_code)]",
                root.display()
            );
        }
    }
    assert!(roots >= 9, "found only {roots} crate roots");
}

#[test]
fn every_public_builder_is_must_use() {
    let mut builders = 0;
    for src in source_dirs() {
        let mut files = Vec::new();
        rust_files(&src, &mut files);
        for file in files {
            let text = fs::read_to_string(&file).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                let Some(rest) = line.trim_start().strip_prefix("pub struct ") else {
                    continue;
                };
                let name: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !name.ends_with("Builder") {
                    continue;
                }
                builders += 1;
                // The attributes and doc lines directly above the item.
                let mut attrs = lines[..i]
                    .iter()
                    .rev()
                    .map(|l| l.trim())
                    .take_while(|l| l.starts_with("#[") || l.starts_with("///"));
                assert!(
                    attrs.any(|l| l.starts_with("#[must_use")),
                    "{}:{}: `{name}` must be #[must_use]",
                    file.display(),
                    i + 1
                );
            }
        }
    }
    // AmcConfigBuilder and EngineLimitsBuilder at least: a scan that finds
    // none is broken, not clean.
    assert!(builders >= 2, "found only {builders} builders");
}
