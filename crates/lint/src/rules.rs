//! The rule catalog: each rule encodes one written invariant from
//! `ROADMAP.md` as a token-shape check over [`FileCtx`].
//!
//! Every rule supports the sanction mechanism: a violation is silenced
//! by `// lint: allow(<rule>) — <rationale>` on the preceding line (or
//! trailing on the same line). The rationale is mandatory — a bare
//! `allow` is itself a violation (`bare-allow`), because an allow
//! without a reason is exactly the undocumented exception this linter
//! exists to prevent.
//!
//! # Rules
//!
//! ## `unmetered-lock`
//! Control-plane crates (`dht`, `meta`, `version`, the provider
//! manager, `core`) may only construct or acquire a `Mutex`/`RwLock`
//! next to a `lockmeter` charge, so the "locks are measured, not
//! asserted" invariant holds on *every* path, not just the benched
//! ones.
//!
//! ```text
//! // BAD: an unmetered serialization point
//! let g = self.table.write();
//!
//! // GOOD: charged under its class
//! lockmeter::record_serializing();
//! let g = self.table.write();
//! ```
//!
//! ## `unmetered-copy`
//! Data-path crates (`proto`, `rpc`, `provider`, `meta`, `pagebuf`,
//! `recordlog`) may not copy payload bytes outside the metered entry
//! points (`PageBuf::copy_from_slice`, `stitch_page`,
//! `ByteChain::to_vec`). Fixed-width header fields
//! (`…to_le_bytes()` on the same line) are recognized as non-payload.
//!
//! ```text
//! // BAD: a silent payload copy on a cold branch
//! out.extend_from_slice(payload);
//!
//! // GOOD: metered…
//! copymeter::record_copy(payload.len());
//! out.extend_from_slice(payload);
//! // …or sanctioned with a reason
//! // lint: allow(unmetered-copy) — envelope header bytes, not payload
//! out.extend_from_slice(&head);
//! ```
//!
//! ## `undocumented-unsafe`
//! Every `unsafe` keyword (block, fn, impl, trait) anywhere in the
//! workspace — shims included — must carry a `// SAFETY:` comment
//! ending within three lines above it (attributes may intervene).
//!
//! ## `panic-on-serving-path`
//! `unwrap` / `expect` / `panic!` / `unreachable!` / `todo!` /
//! `unimplemented!` are banned in non-test server code: serving paths
//! return the typed `BlobError` taxonomy, they do not abort. Test
//! modules (`#[cfg(test)]`), `tests/`, benches and examples are out of
//! scope.
//!
//! ## `truncating-cast`
//! `as u16` / `as u32` / `as usize` applied to a length/offset-named
//! value in `proto`, `rpc`, or `recordlog` silently wraps — the exact
//! bug class PR 3 fixed by hand in `Frame::encode`. Externally
//! influenced lengths must use checked `try_into` with a typed error;
//! genuinely bounded casts carry a sanction saying *why* they are
//! bounded.
//!
//! ## `overload-erasure`
//! Serving and conversion code may not construct
//! `BlobError::Unreachable` behind a catch-all — a wildcard match arm
//! (`_ =>`, `Err(_) =>`) or an error-discarding closure
//! (`map_err(|_| …)`). Such a conversion silently demotes
//! `Overload { retry_after_hint }` to a connectivity error, erasing
//! the backpressure signal clients back off on (and `Unreachable` is
//! retried *immediately* on idempotent paths — the opposite of what an
//! overloaded server needs). Match the source error explicitly so
//! `Overload` passes through; a conversion whose source type genuinely
//! cannot carry `Overload` (an `io::Error`, a codec error) is
//! sanctioned with that reason.
//!
//! A catch-all whose statement *also* names `Overload` is not flagged —
//! an explicit `Overload` arm above the wildcard is exactly the fix.
//!
//! ```text
//! // BAD: the storm's typed sheds vanish into "peer dead"
//! resp.map_err(|_| BlobError::Unreachable("provider gone"))?;
//!
//! // GOOD: overload survives to the retry policy…
//! resp.map_err(|e| match e {
//!     o @ BlobError::Overload { .. } => o,
//!     _ => BlobError::Unreachable("provider gone"),
//! })?;
//! // …or the conversion provably cannot see one
//! // lint: allow(overload-erasure) — io::Error source, Overload cannot occur
//! stream.map_err(|_| BlobError::Unreachable("tcp connect failed"))?;
//! ```
//!
//! ## `bare-allow`
//! A sanction that does not parse, names an unknown rule, or omits the
//! rationale.

use crate::context::FileCtx;
use crate::lexer::{TokKind, Token};

/// One diagnostic: `path:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: &'static str,
    pub rel_path: String,
    pub line: u32,
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.rel_path, self.line, self.rule, self.msg
        )
    }
}

pub const UNMETERED_LOCK: &str = "unmetered-lock";
pub const UNMETERED_COPY: &str = "unmetered-copy";
pub const UNDOCUMENTED_UNSAFE: &str = "undocumented-unsafe";
pub const PANIC_ON_SERVING_PATH: &str = "panic-on-serving-path";
pub const TRUNCATING_CAST: &str = "truncating-cast";
pub const OVERLOAD_ERASURE: &str = "overload-erasure";
pub const BARE_ALLOW: &str = "bare-allow";

/// Every rule id this linter knows, with a one-line summary.
pub const RULES: &[(&str, &str)] = &[
    (
        UNMETERED_LOCK,
        "Mutex/RwLock construction or acquisition in control-plane code without an adjacent lockmeter charge",
    ),
    (
        UNMETERED_COPY,
        "payload copy primitive in data-path code outside the metered entry points",
    ),
    (
        UNDOCUMENTED_UNSAFE,
        "`unsafe` without a preceding `// SAFETY:` comment",
    ),
    (
        PANIC_ON_SERVING_PATH,
        "unwrap/expect/panic!/unreachable! in non-test server code (use the BlobError taxonomy)",
    ),
    (
        TRUNCATING_CAST,
        "`as u16/u32/usize` on a length/offset-named value (use checked try_into)",
    ),
    (
        OVERLOAD_ERASURE,
        "Unreachable constructed behind a catch-all arm/closure, erasing a possible Overload",
    ),
    (
        BARE_ALLOW,
        "sanction comment without a rationale, or naming an unknown rule",
    ),
];

/// Is `id` a known rule?
pub fn known_rule(id: &str) -> bool {
    RULES.iter().any(|(r, _)| *r == id)
}

// ---------------------------------------------------------------------------
// Path scoping
// ---------------------------------------------------------------------------

/// Control plane: the crates whose locks the ROADMAP's lock-discipline
/// section governs (dht, meta, version, the provider *manager*, and the
/// client/deployment layer in core).
const CONTROL_PLANE: &[&str] = &[
    "crates/dht/src/",
    "crates/meta/src/",
    "crates/version/src/",
    "crates/provider/src/manager.rs",
    "crates/core/src/",
];

/// Data path: everywhere payload bytes move.
const DATA_PATH: &[&str] = &[
    "crates/proto/src/",
    "crates/rpc/src/",
    "crates/provider/src/",
    "crates/meta/src/",
    "crates/util/src/pagebuf.rs",
    "crates/util/src/recordlog.rs",
];

/// Server code for the panic rule: library sources of every
/// product crate (tests/, benches/, examples/, shims and the bench
/// harness are out of scope).
const SERVING: &[&str] = &[
    "crates/proto/src/",
    "crates/rpc/src/",
    "crates/dht/src/",
    "crates/meta/src/",
    "crates/version/src/",
    "crates/provider/src/",
    "crates/core/src/",
    "crates/util/src/",
];

/// Length-prefix country: where a silent wrap corrupts wire or log state.
const CAST_SCOPE: &[&str] = &[
    "crates/proto/src/",
    "crates/rpc/src/",
    "crates/util/src/recordlog.rs",
];

fn in_scope(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

// ---------------------------------------------------------------------------
// The engine entry point
// ---------------------------------------------------------------------------

/// Run every rule (or the `only` subset) against one file.
pub fn check_file(ctx: &FileCtx, only: Option<&[String]>, out: &mut Vec<Violation>) {
    let enabled = |rule: &str| only.is_none_or(|list| list.iter().any(|r| r == rule));
    if enabled(UNMETERED_LOCK) && in_scope(&ctx.rel_path, CONTROL_PLANE) {
        unmetered_lock(ctx, out);
    }
    if enabled(UNMETERED_COPY) && in_scope(&ctx.rel_path, DATA_PATH) {
        unmetered_copy(ctx, out);
    }
    if enabled(UNDOCUMENTED_UNSAFE) {
        undocumented_unsafe(ctx, out);
    }
    if enabled(PANIC_ON_SERVING_PATH) && in_scope(&ctx.rel_path, SERVING) {
        panic_on_serving_path(ctx, out);
    }
    if enabled(TRUNCATING_CAST) && in_scope(&ctx.rel_path, CAST_SCOPE) {
        truncating_cast(ctx, out);
    }
    if enabled(OVERLOAD_ERASURE) && in_scope(&ctx.rel_path, SERVING) {
        overload_erasure(ctx, out);
    }
    if enabled(BARE_ALLOW) {
        bare_allow(ctx, out);
    }
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

fn text(tokens: &[Token], i: isize) -> &str {
    if i < 0 {
        return "";
    }
    tokens
        .get(i as usize)
        .map(|t| t.text.as_str())
        .unwrap_or("")
}

fn is_ident(tokens: &[Token], i: isize) -> bool {
    i >= 0
        && tokens
            .get(i as usize)
            .is_some_and(|t| t.kind == TokKind::Ident)
}

/// Is token `i` an identifier immediately followed by `(` — i.e. a call
/// or call-shaped definition?
fn is_call(tokens: &[Token], i: usize) -> bool {
    tokens[i].kind == TokKind::Ident && text(tokens, i as isize + 1) == "("
}

/// Scan backwards from `close` (a `)` or `]`) to its matching opener.
/// Returns the opener's index.
fn matching_open(tokens: &[Token], close: usize, open_ch: &str, close_ch: &str) -> Option<usize> {
    let mut depth = 0i64;
    let mut i = close as isize;
    while i >= 0 {
        let t = &tokens[i as usize];
        if t.kind == TokKind::Punct {
            if t.text == close_ch {
                depth += 1;
            } else if t.text == open_ch {
                depth -= 1;
                if depth == 0 {
                    return Some(i as usize);
                }
            }
        }
        i -= 1;
    }
    None
}

// ---------------------------------------------------------------------------
// unmetered-lock
// ---------------------------------------------------------------------------

/// Identifiers whose presence within the preceding lines marks the
/// acquisition as charged.
const LOCK_METERS: &[&str] = &[
    "lockmeter",
    "record_serializing",
    "record_version_assign",
    "record_sharded",
    "record_shared",
];

/// How many lines above an acquisition a charge may sit.
const LOCK_METER_WINDOW: u32 = 6;

fn unmetered_lock(ctx: &FileCtx, out: &mut Vec<Violation>) {
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        let flagged = match t.text.as_str() {
            // Construction: `Mutex::new(` / `RwLock::new(`.
            "Mutex" | "RwLock" => {
                text(toks, i as isize + 1) == ":"
                    && text(toks, i as isize + 2) == ":"
                    && text(toks, i as isize + 3) == "new"
                    && text(toks, i as isize + 4) == "("
            }
            // Acquisition: zero-argument `.lock()` / `.read()` /
            // `.write()` and the try_ variants. The zero-argument shape
            // is what distinguishes a lock acquisition from
            // `io::Read::read(&mut buf)`.
            "lock" | "read" | "write" | "try_lock" | "try_read" | "try_write" => {
                text(toks, i as isize - 1) == "."
                    && text(toks, i as isize + 1) == "("
                    && text(toks, i as isize + 2) == ")"
            }
            _ => false,
        };
        if !flagged
            || ctx.sanctioned(UNMETERED_LOCK, t.line)
            || ctx.nearby_ident(t.line, LOCK_METER_WINDOW, 0, LOCK_METERS)
        {
            continue;
        }
        out.push(Violation {
            rule: UNMETERED_LOCK,
            rel_path: ctx.rel_path.clone(),
            line: t.line,
            msg: format!(
                "`{}` in control-plane code with no lockmeter charge within {} lines; \
                 charge its LockClass or sanction with a rationale",
                t.text, LOCK_METER_WINDOW
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// unmetered-copy
// ---------------------------------------------------------------------------

const COPY_METERS: &[&str] = &["copymeter", "record_copy"];
const COPY_METER_WINDOW: u32 = 4;

/// Fixed-width integer codecs: a copy whose line converts through
/// `to_le_bytes` et al. moves a header field, not payload.
const FIXED_WIDTH: &[&str] = &[
    "to_le_bytes",
    "to_be_bytes",
    "to_ne_bytes",
    "from_le_bytes",
    "from_be_bytes",
];

fn unmetered_copy(ctx: &FileCtx, out: &mut Vec<Violation>) {
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || ctx.in_test(t.line) || !is_call(toks, i) {
            continue;
        }
        let prev = text(toks, i as isize - 1);
        let flagged = match t.text.as_str() {
            // Skip definitions (`fn copy_from_slice`) — the metered
            // entry points *are* the definitions.
            _ if prev == "fn" => false,
            "copy_from_slice" | "extend_from_slice" => {
                // `PageBuf::copy_from_slice` is the metered entry point.
                !(prev == ":" && text(toks, i as isize - 3) == "PageBuf")
            }
            "to_vec" => prev == ".",
            "from" => prev == ":" && text(toks, i as isize - 3) == "Vec",
            _ => false,
        };
        if !flagged
            || ctx.sanctioned(UNMETERED_COPY, t.line)
            || ctx.nearby_ident(t.line, COPY_METER_WINDOW, COPY_METER_WINDOW, COPY_METERS)
            || FIXED_WIDTH.iter().any(|f| ctx.line_has_ident(t.line, f))
        {
            continue;
        }
        out.push(Violation {
            rule: UNMETERED_COPY,
            rel_path: ctx.rel_path.clone(),
            line: t.line,
            msg: format!(
                "`{}` in data-path code outside the metered entry points; route payload \
                 bytes through PageBuf/copymeter or sanction with a rationale",
                t.text
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// undocumented-unsafe
// ---------------------------------------------------------------------------

/// How many lines above the `unsafe` keyword the `SAFETY:` comment may
/// end (attributes and the fn signature may intervene).
const SAFETY_WINDOW: u32 = 3;

fn undocumented_unsafe(ctx: &FileCtx, out: &mut Vec<Violation>) {
    for t in &ctx.tokens {
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        // `// SAFETY:` justifies an unsafe *use*; a rustdoc `# Safety`
        // section states an unsafe fn's *obligations* — either marker
        // in the comment block above satisfies the rule.
        if ctx.comment_above(t.line, SAFETY_WINDOW, &["SAFETY:", "# Safety"])
            || ctx.sanctioned(UNDOCUMENTED_UNSAFE, t.line)
        {
            continue;
        }
        out.push(Violation {
            rule: UNDOCUMENTED_UNSAFE,
            rel_path: ctx.rel_path.clone(),
            line: t.line,
            msg: "`unsafe` without a `// SAFETY:` comment (or rustdoc `# Safety` section) \
                  ending within 3 lines above"
                .into(),
        });
    }
}

// ---------------------------------------------------------------------------
// panic-on-serving-path
// ---------------------------------------------------------------------------

fn panic_on_serving_path(ctx: &FileCtx, out: &mut Vec<Violation>) {
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        let flagged = match t.text.as_str() {
            "unwrap" | "expect" => {
                text(toks, i as isize - 1) == "." && text(toks, i as isize + 1) == "("
            }
            "panic" | "unreachable" | "todo" | "unimplemented" => {
                text(toks, i as isize + 1) == "!"
                    // `core::panic!` style paths still flag; a `panic`
                    // *module* path (`std::panic::catch_unwind`) does not.
                    && text(toks, i as isize - 1) != "#"
            }
            _ => false,
        };
        if !flagged || ctx.sanctioned(PANIC_ON_SERVING_PATH, t.line) {
            continue;
        }
        out.push(Violation {
            rule: PANIC_ON_SERVING_PATH,
            rel_path: ctx.rel_path.clone(),
            line: t.line,
            msg: format!(
                "`{}` on a serving path; return a typed BlobError (or sanction with a \
                 rationale for provable unreachability)",
                t.text
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// truncating-cast
// ---------------------------------------------------------------------------

/// Name fragments that mark a value as a length/offset/size.
const LENGTHY: &[&str] = &[
    "len", "size", "off", "pos", "count", "bytes", "cap", "total",
];

fn lengthy(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    LENGTHY.iter().any(|n| lower.contains(n))
}

fn truncating_cast(ctx: &FileCtx, out: &mut Vec<Violation>) {
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || t.text != "as" || ctx.in_test(t.line) {
            continue;
        }
        let target = text(toks, i as isize + 1);
        if !matches!(target, "u16" | "u32" | "usize") {
            continue;
        }
        let p = i as isize - 1;
        let hit = if is_ident(toks, p) {
            lengthy(text(toks, p))
        } else {
            match text(toks, p) {
                ")" => cast_subject_matches(toks, p as usize, "(", ")"),
                "]" => cast_subject_matches(toks, p as usize, "[", "]"),
                _ => false,
            }
        };
        if !hit || ctx.sanctioned(TRUNCATING_CAST, t.line) {
            continue;
        }
        out.push(Violation {
            rule: TRUNCATING_CAST,
            rel_path: ctx.rel_path.clone(),
            line: t.line,
            msg: format!(
                "`as {target}` on a length/offset-shaped value can silently wrap; use \
                 checked try_into with a typed error, or sanction with the bound that \
                 makes it safe"
            ),
        });
    }
}

/// For `(…) as uN` / `[…] as uN`: if the bracket is a call/index on a
/// named thing (`buf.len() as u32`, `lens[i] as u16`), test that name;
/// for a bare parenthesized expression (`(off + HDR) as usize`), test
/// every identifier inside.
fn cast_subject_matches(toks: &[Token], close: usize, open: &str, close_ch: &str) -> bool {
    let Some(o) = matching_open(toks, close, open, close_ch) else {
        return false;
    };
    if is_ident(toks, o as isize - 1) {
        return lengthy(text(toks, o as isize - 1));
    }
    toks[o..close]
        .iter()
        .any(|t| t.kind == TokKind::Ident && lengthy(&t.text))
}

// ---------------------------------------------------------------------------
// overload-erasure
// ---------------------------------------------------------------------------

/// How many tokens behind an `Unreachable` construction a catch-all
/// introducer may sit (its own match arm's arrow, or the adapter call
/// whose closure builds it — never a whole other statement, hence the
/// `;` boundary in the scan).
const ERASURE_WINDOW: usize = 20;

/// Combinators whose closure rewrites an error value; a discarded
/// binding (`|_|`, `|_e|`) inside one throws the source — Overload
/// included — away.
const ERASING_ADAPTERS: &[&str] = &["map_err", "or_else", "unwrap_or_else", "map_or_else"];

/// Does `w` (the tokens between the statement boundary and the
/// `Unreachable` ident) end in a match arm whose pattern has a
/// wildcard? The *last* arrow in the window is the construction's own
/// arm; a `_` among the few tokens before it (`_ =>`, `Err(_) =>`,
/// `Err(RecvError::Io(_)) =>`) makes that arm a catch-all.
fn wildcard_arm(w: &[Token]) -> bool {
    let arrow = (1..w.len()).rev().find(|&j| {
        w[j].kind == TokKind::Punct
            && w[j].text == ">"
            && w[j - 1].kind == TokKind::Punct
            && w[j - 1].text == "="
    });
    let Some(arrow) = arrow else { return false };
    w[arrow.saturating_sub(9)..arrow - 1]
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text.starts_with('_'))
}

/// Does `w` contain an erasing-adapter call whose closure discards its
/// error (`map_err(|_| …)`, `unwrap_or_else(|_e| …)`)?
fn erasing_closure(w: &[Token]) -> bool {
    (0..w.len().saturating_sub(4)).any(|j| {
        w[j].kind == TokKind::Ident
            && ERASING_ADAPTERS.contains(&w[j].text.as_str())
            && w[j + 1].text == "("
            && w[j + 2].text == "|"
            && w[j + 3].kind == TokKind::Ident
            && w[j + 3].text.starts_with('_')
            && w[j + 4].text == "|"
    })
}

fn overload_erasure(ctx: &FileCtx, out: &mut Vec<Violation>) {
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || t.text != "Unreachable" || ctx.in_test(t.line) {
            continue;
        }
        // The statement being scanned: back from the construction to the
        // nearest `;` (or the window bound).
        let lo = i.saturating_sub(ERASURE_WINDOW);
        let start = (lo..i)
            .rev()
            .find(|&j| toks[j].kind == TokKind::Punct && toks[j].text == ";")
            .map_or(lo, |j| j + 1);
        let w = &toks[start..i];
        // An explicit `Overload` mention in the same statement means the
        // author routed it before falling through — the sanctioned fix.
        if !(wildcard_arm(w) || erasing_closure(w))
            || w.iter()
                .any(|t| t.kind == TokKind::Ident && t.text == "Overload")
            || ctx.sanctioned(OVERLOAD_ERASURE, t.line)
        {
            continue;
        }
        out.push(Violation {
            rule: OVERLOAD_ERASURE,
            rel_path: ctx.rel_path.clone(),
            line: t.line,
            msg: "`Unreachable` built behind a catch-all arm/closure erases a possible \
                  `Overload { retry_after_hint }`; match the source explicitly so overload \
                  survives to the retry policy, or sanction with why the source cannot \
                  carry Overload"
                .into(),
        });
    }
}

// ---------------------------------------------------------------------------
// bare-allow
// ---------------------------------------------------------------------------

fn bare_allow(ctx: &FileCtx, out: &mut Vec<Violation>) {
    for s in &ctx.sanctions {
        if !s.parsed {
            out.push(Violation {
                rule: BARE_ALLOW,
                rel_path: ctx.rel_path.clone(),
                line: s.line,
                msg: "malformed sanction; expected `lint: allow(<rule>) — <rationale>`".into(),
            });
            continue;
        }
        if !s.has_rationale {
            out.push(Violation {
                rule: BARE_ALLOW,
                rel_path: ctx.rel_path.clone(),
                line: s.line,
                msg: "bare allow: a sanction must state its rationale after the rule list".into(),
            });
        }
        for r in &s.rules {
            if !known_rule(r) {
                out.push(Violation {
                    rule: BARE_ALLOW,
                    rel_path: ctx.rel_path.clone(),
                    line: s.line,
                    msg: format!("sanction names unknown rule `{r}`"),
                });
            }
        }
    }
}
