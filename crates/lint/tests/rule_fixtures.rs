//! Per-rule fixture pairs: the `_bad` fixture must produce the named
//! violations at the expected lines; the `_ok` twin — the same code
//! metered, documented, or sanctioned — must be clean.
//!
//! Fixtures live under `tests/fixtures/` (excluded from the workspace
//! walk) and are linted through the library entry point under a
//! workspace-relative path chosen to engage the rule's scope.

use blobseer_lint::lint_source;
use blobseer_lint::rules::Violation;

/// Lint `src` as if it lived at `rel_path`, restricted to `rule`.
fn run(rule: &str, rel_path: &str, src: &str) -> Vec<Violation> {
    lint_source(rel_path, src, Some(&[rule.to_string()]))
}

/// Assert the violations hit exactly `rule` at exactly `lines`.
fn assert_hits(found: &[Violation], rule: &str, lines: &[u32]) {
    let got: Vec<u32> = found.iter().map(|v| v.line).collect();
    assert_eq!(got, lines, "expected {rule} at {lines:?}, got: {found:?}");
    assert!(found.iter().all(|v| v.rule == rule));
}

#[test]
fn unmetered_lock_fixture_pair() {
    let bad = run(
        "unmetered-lock",
        "crates/dht/src/lib.rs",
        include_str!("fixtures/unmetered_lock_bad.rs"),
    );
    assert_hits(&bad, "unmetered-lock", &[12, 13, 18]);
    let ok = run(
        "unmetered-lock",
        "crates/dht/src/lib.rs",
        include_str!("fixtures/unmetered_lock_ok.rs"),
    );
    assert!(ok.is_empty(), "sanctioned/metered locks flagged: {ok:?}");
}

#[test]
fn unmetered_lock_scope_is_control_plane_only() {
    // The same source outside the control-plane scope is not checked.
    let out = run(
        "unmetered-lock",
        "crates/bench/src/lib.rs",
        include_str!("fixtures/unmetered_lock_bad.rs"),
    );
    assert!(out.is_empty(), "rule engaged outside its scope: {out:?}");
}

#[test]
fn unmetered_copy_fixture_pair() {
    let bad = run(
        "unmetered-copy",
        "crates/proto/src/wire.rs",
        include_str!("fixtures/unmetered_copy_bad.rs"),
    );
    assert_hits(&bad, "unmetered-copy", &[5, 11]);
    let ok = run(
        "unmetered-copy",
        "crates/proto/src/wire.rs",
        include_str!("fixtures/unmetered_copy_ok.rs"),
    );
    assert!(ok.is_empty(), "metered/sanctioned copies flagged: {ok:?}");
}

#[test]
fn undocumented_unsafe_fixture_pair() {
    let bad = run(
        "undocumented-unsafe",
        "crates/util/src/pagebuf.rs",
        include_str!("fixtures/undocumented_unsafe_bad.rs"),
    );
    assert_hits(&bad, "undocumented-unsafe", &[3]);
    let ok = run(
        "undocumented-unsafe",
        "crates/util/src/pagebuf.rs",
        include_str!("fixtures/undocumented_unsafe_ok.rs"),
    );
    assert!(ok.is_empty(), "documented unsafe flagged: {ok:?}");
}

#[test]
fn panic_on_serving_path_fixture_pair() {
    let bad = run(
        "panic-on-serving-path",
        "crates/rpc/src/server.rs",
        include_str!("fixtures/panic_bad.rs"),
    );
    assert_hits(&bad, "panic-on-serving-path", &[3]);
    let ok = run(
        "panic-on-serving-path",
        "crates/rpc/src/server.rs",
        include_str!("fixtures/panic_ok.rs"),
    );
    assert!(ok.is_empty(), "sanctioned/test unwraps flagged: {ok:?}");
}

#[test]
fn truncating_cast_fixture_pair() {
    let bad = run(
        "truncating-cast",
        "crates/proto/src/wire.rs",
        include_str!("fixtures/cast_bad.rs"),
    );
    assert_hits(&bad, "truncating-cast", &[3]);
    let ok = run(
        "truncating-cast",
        "crates/proto/src/wire.rs",
        include_str!("fixtures/cast_ok.rs"),
    );
    assert!(ok.is_empty(), "checked/sanctioned casts flagged: {ok:?}");
}

#[test]
fn overload_erasure_fixture_pair() {
    let bad = run(
        "overload-erasure",
        "crates/rpc/src/tcp.rs",
        include_str!("fixtures/overload_erasure_bad.rs"),
    );
    assert_hits(&bad, "overload-erasure", &[6, 12, 18, 19]);
    let ok = run(
        "overload-erasure",
        "crates/rpc/src/tcp.rs",
        include_str!("fixtures/overload_erasure_ok.rs"),
    );
    assert!(
        ok.is_empty(),
        "overload-aware/sanctioned sites flagged: {ok:?}"
    );
    // Outside serving scope (the bench harness fakes whatever it likes).
    let bench = run(
        "overload-erasure",
        "crates/bench/src/lib.rs",
        include_str!("fixtures/overload_erasure_bad.rs"),
    );
    assert!(
        bench.is_empty(),
        "rule engaged outside its scope: {bench:?}"
    );
}

#[test]
fn bare_allow_fixture() {
    let src = include_str!("fixtures/bare_allow_bad.rs");
    let bare = run("bare-allow", "crates/rpc/src/server.rs", src);
    assert_hits(&bare, "bare-allow", &[3, 7]);
    // A rationale-less sanction also fails to suppress its target rule.
    let panics = run("panic-on-serving-path", "crates/rpc/src/server.rs", src);
    assert_hits(&panics, "panic-on-serving-path", &[4]);
}
