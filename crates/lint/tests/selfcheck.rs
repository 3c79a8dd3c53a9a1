//! The linter's two end-to-end guarantees:
//!
//! 1. **Bin contract** — the `blobseer-lint` binary exits `1` and names
//!    the rule and line on a violating tree, `0` on a sanctioned one.
//! 2. **Self-check** — the real workspace is violation-free, so the CI
//!    `invariant-lint` job is green by construction whenever this test
//!    passes.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf();
    assert!(
        root.join("Cargo.toml").exists(),
        "workspace root not found at {root:?}"
    );
    root
}

/// A scratch tree that deletes itself on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("blobseer-lint-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.0.join(rel);
        fs::create_dir_all(path.parent().expect("rel has a parent")).expect("mkdir");
        fs::write(path, contents).expect("write fixture");
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn lint_bin(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_blobseer-lint"))
        .args(args)
        .output()
        .expect("run blobseer-lint");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().unwrap_or(-1), text)
}

#[test]
fn bin_flags_violating_tree_with_rule_and_line() {
    let scratch = Scratch::new("bad");
    scratch.write(
        "crates/dht/src/lib.rs",
        include_str!("fixtures/unmetered_lock_bad.rs"),
    );
    let root = scratch.0.to_string_lossy().into_owned();
    let (code, out) = lint_bin(&["--root", &root, "--rule", "unmetered-lock"]);
    assert_eq!(code, 1, "violating tree must exit 1; output:\n{out}");
    assert!(
        out.contains("crates/dht/src/lib.rs:12: [unmetered-lock]"),
        "diagnostic must name file, line, and rule; output:\n{out}"
    );
}

#[test]
fn bin_accepts_sanctioned_tree() {
    let scratch = Scratch::new("ok");
    scratch.write(
        "crates/dht/src/lib.rs",
        include_str!("fixtures/unmetered_lock_ok.rs"),
    );
    let root = scratch.0.to_string_lossy().into_owned();
    let (code, out) = lint_bin(&["--root", &root]);
    assert_eq!(code, 0, "sanctioned tree must exit 0; output:\n{out}");
}

#[test]
fn bin_lists_rules() {
    let (code, out) = lint_bin(&["--list-rules"]);
    assert_eq!(code, 0);
    for rule in [
        "unmetered-lock",
        "unmetered-copy",
        "undocumented-unsafe",
        "panic-on-serving-path",
        "truncating-cast",
        "bare-allow",
    ] {
        assert!(out.contains(rule), "--list-rules must mention {rule}");
    }
}

#[test]
fn workspace_is_violation_free() {
    let root = workspace_root();
    let violations = blobseer_lint::lint_root(&root, &[], None).expect("walk the workspace");
    assert!(
        violations.is_empty(),
        "the tree must stay lint-clean; found:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
