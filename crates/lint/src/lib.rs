//! `blobseer-lint` — the workspace invariant linter.
//!
//! The repo's discipline — zero-copy data path, lock-free control
//! plane, typed errors — is *measured* by
//! `copymeter`/`lockmeter` and asserted exactly by tier-1 tests.
//! Measurement only covers exercised paths: an unmetered `Mutex` on a
//! branch the tests never hit, a silent `to_vec()` in cold code, or
//! an `as u32` length wrap ships undetected until a workload finds it.
//! This crate is the *static* leg of enforcement: a dependency-free,
//! offline pass over every Rust source in the workspace that checks
//! every path on every PR, gated in CI (`invariant-lint` job).
//!
//! # Usage
//!
//! ```text
//! cargo run -p blobseer-lint -- --workspace          # lint the whole tree
//! cargo run -p blobseer-lint -- --root DIR [PATHS…]  # lint a subtree
//! cargo run -p blobseer-lint -- --rule truncating-cast --workspace
//! cargo run -p blobseer-lint -- --list-rules
//! ```
//!
//! Exit status: `0` clean, `1` violations found, `2` usage/IO error.
//!
//! # Sanctions
//!
//! A violation that is deliberate carries a sanction on the preceding
//! line (or trailing on the same line), with a **mandatory** rationale:
//!
//! ```text
//! // lint: allow(unmetered-copy) — record header words, not payload
//! buf.extend_from_slice(&header);
//! ```
//!
//! Multiple rules may be listed (`allow(rule-a, rule-b) — why`). A
//! sanction without a rationale, or naming a rule this linter does not
//! know, is itself reported under the `bare-allow` rule.
//!
//! # Rule catalog
//!
//! See [`rules`] for the per-rule documentation with motivating
//! examples, and `ROADMAP.md` ("Static invariant enforcement") for how
//! the rules map onto the written invariants.
//!
//! # Design
//!
//! No `syn`, no rustc internals: a hand-rolled lexer ([`lexer`]) that
//! is comment/string/raw-string aware feeds token-shape rules
//! ([`rules`]) over a per-file context ([`context`]) that tracks
//! `#[cfg(test)]` spans and the sanction table. Lexical analysis is
//! deliberately conservative: where it cannot see types (is this
//! `.to_vec()` on a `ByteChain` or a `Vec<PathBuf>`?) the sanction
//! mechanism turns each judgment call into one greppable, justified
//! line of documentation at the site.

#![deny(unsafe_code)]

pub mod context;
pub mod lexer;
pub mod rules;

use context::FileCtx;
use rules::Violation;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories the workspace walk never descends into. `fixtures`
/// holds this crate's own deliberately-violating test inputs.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Collect every `.rs` file under `root`, workspace-relative, sorted.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint one source text under its workspace-relative path.
pub fn lint_source(rel_path: &str, src: &str, only: Option<&[String]>) -> Vec<Violation> {
    let ctx = FileCtx::new(rel_path, src);
    let mut out = Vec::new();
    rules::check_file(&ctx, only, &mut out);
    out
}

/// Lint every `.rs` file under `root` (or just `paths`, if non-empty;
/// each entry may be a file or a directory, absolute or root-relative).
/// Rule scoping is computed from paths relative to `root`, so `root`
/// must be the workspace root for the scoped rules to engage.
pub fn lint_root(
    root: &Path,
    paths: &[PathBuf],
    only: Option<&[String]>,
) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    if paths.is_empty() {
        files = workspace_files(root)?;
    } else {
        for p in paths {
            let abs = if p.is_absolute() {
                p.clone()
            } else {
                root.join(p)
            };
            if abs.is_dir() {
                files.extend(workspace_files(&abs)?);
            } else {
                files.push(abs);
            }
        }
        files.sort();
    }
    let mut out = Vec::new();
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(f)?;
        out.extend(lint_source(&rel, &src, only));
    }
    out.sort_by(|a, b| (&a.rel_path, a.line).cmp(&(&b.rel_path, b.line)));
    Ok(out)
}

/// Walk upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(s) = fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
