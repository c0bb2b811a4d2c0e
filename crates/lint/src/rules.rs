//! The rule engine: scans [`Lexed`] code lines and
//! the bracket-matched [`TokenStream`] for
//! invariant violations, honoring `// lint: allow(<family>, "<reason>")`
//! annotations.
//!
//! Six rule families are enforced (see the README's "Static guarantees"
//! section for the scope table):
//!
//! * **panic** (`PANIC01`) — no `.unwrap()` / `.expect(…)` / `panic!` /
//!   `todo!` / `unimplemented!` / `unreachable!` in non-test library
//!   code.
//! * **unsafe** (`UNSAFE01`/`UNSAFE02`) — every `unsafe` must carry a
//!   `// SAFETY:` comment nearby, and the library crates must keep
//!   their `#![forbid(unsafe_code)]` attribute.
//! * **determinism** (`DET01`–`DET05`) — no ad-hoc threads, environment
//!   reads, clocks, default-hasher maps, or entropy-seeded RNG
//!   (`thread_rng` / `from_entropy`) in result-affecting code.
//! * **cast** (`CAST01`) — no raw `as` casts to numeric types in
//!   library code: a narrowing or sign-changing `as` silently truncates
//!   or wraps, which is exactly the bug class that corrupts a coloring
//!   without failing the conformance suites. Use `try_from` / `From` or
//!   the `decolor_graph::num` helpers.
//! * **arith** (`ARITH01`) — inside the storage/checkpoint scopes,
//!   `+` / `*` on byte-offset/length expressions must go through
//!   `checked_add` / `checked_mul` (or a pre-validated bound).
//! * **result** (`RES01`/`RES02`) — no `let _ = …` discards and no
//!   statement-level `.ok()` drops in library code: a swallowed fsync
//!   or journal-write error voids the crash-safety guarantees.
//!
//! An annotation applies to the next line that carries code (or to its
//! own line, for trailing comments), must name the rule family, and must
//! give a non-empty reason. An annotation that suppresses nothing is
//! itself a diagnostic (`ALLOW02`), so stale escape hatches cannot
//! accumulate silently.

use crate::lexer::Lexed;
use crate::tokens::{tokenize, TokenKind, TokenStream};

/// How many lines above an `unsafe` keyword a `// SAFETY:` comment is
/// searched for (attributes or the end of a long argument list may sit
/// between the comment and the keyword).
const SAFETY_WINDOW: usize = 8;

/// Bound on how many tokens an operand walk inspects on each side of an
/// arithmetic operator (keeps the pass linear on pathological lines).
const OPERAND_WINDOW: usize = 64;

/// The primitive numeric types a flagged `as` cast can target.
const NUMERIC_TYPES: [&str; 14] = [
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128", "f32",
    "f64",
];

/// Identifier fragments marking an operand as a byte-offset/length
/// expression for the `ARITH01` rule (lower-cased substring match).
const OFFSET_MARKERS: [&str; 13] = [
    "offset", "len", "byte", "entr", "cursor", "slot", "stride", "word", "acc", "durable", "chunk",
    "base", "boundary",
];

/// One enforced rule. `family` groups rules for `allow` annotations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Panic-family call or macro in library code.
    Panic,
    /// `unsafe` without a `// SAFETY:` justification.
    UnsafeSafety,
    /// A library crate lost its `#![forbid(unsafe_code)]` attribute.
    ForbidUnsafe,
    /// `thread::spawn` / `thread::scope` outside the vendored pool.
    DetThread,
    /// `env::var` outside the vendored pool's `DECOLOR_THREADS` read.
    DetEnv,
    /// `Instant::now` / `SystemTime` outside timing crates.
    DetTime,
    /// Default-hasher `HashMap` / `HashSet` in result-affecting code.
    DetHasher,
    /// Entropy-seeded RNG (`thread_rng` / `from_entropy`) in
    /// result-affecting code.
    DetEntropy,
    /// Raw `as` cast to a numeric type in library code.
    LossyCast,
    /// Unchecked `+` / `*` on a byte-offset/length expression in the
    /// storage/checkpoint scopes.
    OffsetArith,
    /// `let _ = …` discarding a value (and any error inside it).
    DiscardedResultLet,
    /// Statement-level `.ok();` dropping a `Result`.
    DiscardedResultOk,
    /// A malformed `// lint: allow(...)` annotation (unknown family or
    /// missing reason).
    AllowSyntax,
    /// A well-formed annotation that suppresses no violation.
    AllowUnused,
}

impl Rule {
    /// The rule's diagnostic name, printed in brackets.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::UnsafeSafety => "unsafe-safety",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::DetThread => "det-thread",
            Rule::DetEnv => "det-env",
            Rule::DetTime => "det-time",
            Rule::DetHasher => "det-hasher",
            Rule::DetEntropy => "det-entropy",
            Rule::LossyCast => "lossy-cast",
            Rule::OffsetArith => "unchecked-offset-arith",
            Rule::DiscardedResultLet => "discarded-result",
            Rule::DiscardedResultOk => "discarded-result-ok",
            Rule::AllowSyntax => "allow-syntax",
            Rule::AllowUnused => "allow-unused",
        }
    }

    /// The rule's stable identifier, printed in every diagnostic and
    /// accepted by `decolor-lint --explain`.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Panic => "PANIC01",
            Rule::UnsafeSafety => "UNSAFE01",
            Rule::ForbidUnsafe => "UNSAFE02",
            Rule::DetThread => "DET01",
            Rule::DetEnv => "DET02",
            Rule::DetTime => "DET03",
            Rule::DetHasher => "DET04",
            Rule::DetEntropy => "DET05",
            Rule::LossyCast => "CAST01",
            Rule::OffsetArith => "ARITH01",
            Rule::DiscardedResultLet => "RES01",
            Rule::DiscardedResultOk => "RES02",
            Rule::AllowSyntax => "ALLOW01",
            Rule::AllowUnused => "ALLOW02",
        }
    }

    /// Every rule, in diagnostic-id order (for `--explain` lookups).
    pub fn all() -> [Rule; 14] {
        [
            Rule::Panic,
            Rule::UnsafeSafety,
            Rule::ForbidUnsafe,
            Rule::DetThread,
            Rule::DetEnv,
            Rule::DetTime,
            Rule::DetHasher,
            Rule::DetEntropy,
            Rule::LossyCast,
            Rule::OffsetArith,
            Rule::DiscardedResultLet,
            Rule::DiscardedResultOk,
            Rule::AllowSyntax,
            Rule::AllowUnused,
        ]
    }

    /// The annotation family that silences this rule.
    pub fn family(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::UnsafeSafety | Rule::ForbidUnsafe => "unsafe",
            Rule::DetThread | Rule::DetEnv | Rule::DetTime | Rule::DetHasher | Rule::DetEntropy => {
                "determinism"
            }
            Rule::LossyCast => "cast",
            Rule::OffsetArith => "arith",
            Rule::DiscardedResultLet | Rule::DiscardedResultOk => "result",
            Rule::AllowSyntax | Rule::AllowUnused => "allow-syntax",
        }
    }

    /// One paragraph per rule: the invariant, why it matters, how to
    /// fix a violation, and the escape hatch. Printed by
    /// `decolor-lint --explain <RULE_ID>`.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::Panic => {
                "PANIC01 panic: library code must not contain `.unwrap()`, `.expect(...)`, \
                 `panic!`, `todo!`, `unimplemented!`, or `unreachable!`. The pipelines return \
                 typed errors (`GraphError`, `AlgoError`) so a malformed input \
                 or corrupt store surfaces as a value the caller can handle, never as a crash \
                 mid-experiment. Fix: return a typed error and propagate with `?`. Escape \
                 hatch: `// lint: allow(panic, \"<invariant that makes this unreachable>\")` \
                 for cases a checked invariant already excludes."
            }
            Rule::UnsafeSafety => {
                "UNSAFE01 unsafe-safety: every `unsafe` keyword needs a `// SAFETY:` comment \
                 on the same line or within the preceding 8 lines stating the invariant that \
                 makes the operation sound. Unsafe code is confined to vendored shims; an \
                 unexplained `unsafe` cannot be audited. Fix: write the SAFETY argument or \
                 remove the unsafe block. Escape hatch: \
                 `// lint: allow(unsafe, \"<reason>\")` (prefer a real SAFETY comment)."
            }
            Rule::ForbidUnsafe => {
                "UNSAFE02 forbid-unsafe: the library crates (graph, runtime, core, baselines, \
                 bench) must keep their crate-level `#![forbid(unsafe_code)]` attribute, so \
                 all unsafe stays inside the audited vendor shims. Fix: restore the attribute; \
                 there is no escape hatch."
            }
            Rule::DetThread => {
                "DET01 det-thread: `thread::spawn` / `thread::scope` outside vendor/rayon \
                 breaks the `DECOLOR_THREADS` invariance contract — results must be \
                 bit-identical at any pool width. Fix: fan out through the vendored pool. \
                 Escape hatch: `// lint: allow(determinism, \"<reason>\")`."
            }
            Rule::DetEnv => {
                "DET02 det-env: `env::var` outside vendor/rayon's `DECOLOR_THREADS` read \
                 makes results depend on ambient environment, which the equivalence suites \
                 cannot see. Fix: thread configuration through explicit parameters. Escape \
                 hatch: `// lint: allow(determinism, \"<reason>\")`."
            }
            Rule::DetTime => {
                "DET03 det-time: `Instant::now` / `SystemTime` outside bench/cli/criterion \
                 puts wall-clock values into result-affecting code. Fix: measure time only in \
                 the timing layers. Escape hatch: `// lint: allow(determinism, \"<reason>\")`."
            }
            Rule::DetHasher => {
                "DET04 det-hasher: default-hasher `HashMap` / `HashSet` iterate in a \
                 per-process random order, so any result derived from iteration silently \
                 depends on the hasher seed (the PR 6 `barabasi_albert` bug). Fix: use \
                 `BTreeMap` / `BTreeSet`, or annotate a membership-only use with \
                 `// lint: allow(determinism, \"<why iteration order cannot leak>\")`."
            }
            Rule::DetEntropy => {
                "DET05 det-entropy: entropy-seeded RNG (`thread_rng`, `from_entropy`) in \
                 result-affecting code makes runs unreproducible even with a fixed input \
                 seed — the same bug class as the hasher rule. Fix: construct RNGs with \
                 `SeedableRng::seed_from_u64` (or equivalent) from the experiment \
                 configuration. Escape hatch: `// lint: allow(determinism, \"<reason>\")`."
            }
            Rule::LossyCast => {
                "CAST01 lossy-cast: raw `as` casts to numeric types are forbidden in library \
                 code because a narrowing or sign-changing `as` (`u64 as usize`, `usize as \
                 u32`, `i64 as u64`, float↔int) silently truncates or wraps — at n = 10^8 the \
                 byte-offset arithmetic overflows 32 bits, and a truncated index corrupts a \
                 coloring without failing the bounds suites. Fix: use `From` / `TryFrom` or \
                 the `decolor_graph::num` helpers (`to_usize`, `to_u32`, `to_u64`, \
                 `byte_offset`), which return a typed `GraphError::Overflow`. Escape hatch: \
                 `// lint: allow(cast, \"<the bound that makes the cast lossless>\")` — for \
                 example inside a hot loop over values validated at store-open time."
            }
            Rule::OffsetArith => {
                "ARITH01 unchecked-offset-arith: inside graph/src/storage/ and \
                 core/src/checkpoint.rs, `+` / `*` (and `+=` / `*=`) on byte-offset or \
                 length expressions must go through `checked_add` / `checked_mul`: an \
                 overflowing offset multiply wraps in release builds and misreads a \
                 \"verified\" store. Fix: checked arithmetic with a typed \
                 `GraphError::Overflow`, or validate a bound once at open/build time. Escape \
                 hatch: `// lint: allow(arith, \"<the validated bound>\")`."
            }
            Rule::DiscardedResultLet => {
                "RES01 discarded-result: `let _ = …` in library code discards a value and \
                 any `Result` inside it — a swallowed fsync/msync/journal-write error turns \
                 a durability guarantee into a silent lie. Fix: propagate with `?` or handle \
                 the error. Escape hatch: `// lint: allow(result, \"<why best-effort is \
                 sound here>\")` — for example cleanup in a destructor."
            }
            Rule::DiscardedResultOk => {
                "RES02 discarded-result-ok: a statement-level `.ok();` converts a `Result` \
                 to an `Option` and immediately drops it, silencing the error path. Fix: \
                 propagate with `?` or match on the error. Escape hatch: \
                 `// lint: allow(result, \"<why the error is ignorable>\")`."
            }
            Rule::AllowSyntax => {
                "ALLOW01 allow-syntax: a `// lint: allow(<family>, \"<reason>\")` annotation \
                 must name a known family (panic, unsafe, determinism, cast, arith, result) \
                 and give a non-empty quoted reason; a reasonless allow is an unreviewable \
                 suppression. Fix: state the invariant that justifies the exception."
            }
            Rule::AllowUnused => {
                "ALLOW02 allow-unused: a well-formed `// lint: allow(...)` annotation whose \
                 guarded line no longer violates the named family is stale and must be \
                 removed — dead escape hatches hide real regressions behind them. Fix: \
                 delete the annotation (or move it back next to the code it justifies)."
            }
        }
    }

    /// The rule with the given stable id, if any (for `--explain`).
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::all().into_iter().find(|r| r.id() == id)
    }
}

/// Which rules apply to a file (decided per crate by
/// [`crate::config`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct RuleSet {
    /// Enforce the panic-freedom rule.
    pub panic: bool,
    /// Enforce `// SAFETY:` on `unsafe`.
    pub safety: bool,
    /// Forbid `thread::spawn` / `thread::scope`.
    pub thread: bool,
    /// Forbid `env::var`.
    pub env: bool,
    /// Forbid `Instant::now` / `SystemTime`.
    pub time: bool,
    /// Forbid default-hasher `HashMap` / `HashSet`.
    pub hasher: bool,
    /// Forbid entropy-seeded RNG (`thread_rng` / `from_entropy`).
    pub entropy: bool,
    /// Forbid raw `as` casts to numeric types.
    pub cast: bool,
    /// Require checked arithmetic on offset/length expressions.
    pub arith: bool,
    /// Forbid `let _ = …` / statement-level `.ok()` discards.
    pub result: bool,
}

/// A single diagnostic: 1-based line, the violated rule, and a message.
#[derive(Clone, Debug)]
pub struct Violation {
    /// 1-based source line.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Positions in `line` where `name` appears as a full identifier.
fn ident_positions(line: &str, name: &str) -> Vec<usize> {
    let chars: Vec<char> = line.chars().collect();
    let needle: Vec<char> = name.chars().collect();
    let mut out = Vec::new();
    if needle.is_empty() || chars.len() < needle.len() {
        return out;
    }
    for i in 0..=chars.len() - needle.len() {
        if chars[i..i + needle.len()] != needle[..] {
            continue;
        }
        let before_ok = i == 0 || !is_ident_char(chars[i - 1]);
        let after = chars.get(i + needle.len()).copied();
        let after_ok = !after.is_some_and(is_ident_char);
        if before_ok && after_ok {
            out.push(i);
        }
    }
    out
}

/// `true` if the identifier at `pos` (of length `len`) is a method call:
/// preceded (modulo spaces) by `.` and followed (modulo spaces) by `(`.
fn is_method_call(line: &str, pos: usize, len: usize) -> bool {
    let chars: Vec<char> = line.chars().collect();
    let mut i = pos;
    let mut dotted = false;
    while i > 0 {
        i -= 1;
        if chars[i] == ' ' {
            continue;
        }
        dotted = chars[i] == '.';
        break;
    }
    if !dotted {
        return false;
    }
    let mut j = pos + len;
    while j < chars.len() && chars[j] == ' ' {
        j += 1;
    }
    j < chars.len() && chars[j] == '('
}

/// `true` if the identifier at `pos` (of length `len`) is a macro
/// invocation: followed (modulo spaces) by `!`.
fn is_macro_call(line: &str, pos: usize, len: usize) -> bool {
    let chars: Vec<char> = line.chars().collect();
    let mut j = pos + len;
    while j < chars.len() && chars[j] == ' ' {
        j += 1;
    }
    j < chars.len() && chars[j] == '!'
}

/// The annotation families an allow directive may name.
const KNOWN_FAMILIES: [&str; 6] = ["panic", "unsafe", "determinism", "cast", "arith", "result"];

/// Parsed `// lint: allow(<family>, "<reason>")` annotation.
struct AllowDirective {
    family: String,
    has_reason: bool,
}

/// A well-formed allow bound to the code line it guards.
struct AllowSite {
    /// 0-based line of the annotation comment (where `ALLOW02` reports).
    annotation_line: usize,
    /// 0-based line of the code the annotation covers.
    target: usize,
    /// The family it silences.
    family: String,
}

/// Extracts `lint: allow(...)` directives from one line's comment text.
fn parse_allows(comment: &str) -> Vec<AllowDirective> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find("lint:") {
        rest = &rest[at + "lint:".len()..];
        let trimmed = rest.trim_start();
        let Some(args) = trimmed.strip_prefix("allow(") else {
            continue;
        };
        let family: String = args
            .chars()
            .take_while(|c| is_ident_char(*c))
            .collect::<String>();
        rest = args;
        if family.is_empty() {
            // Prose mentioning `lint: allow(...)` or `allow(<family>`,
            // not a directive.
            continue;
        }
        let after = &args[family.len()..];
        let after = after.trim_start();
        let has_reason = after
            .strip_prefix(',')
            .map(str::trim_start)
            .and_then(|s| s.strip_prefix('"'))
            .is_some_and(|s| s.chars().take_while(|&c| c != '"').count() >= 3);
        out.push(AllowDirective { family, has_reason });
    }
    out
}

/// Collects well-formed allow sites, reporting malformed directives as
/// `ALLOW01` violations.
fn collect_allows(lexed: &Lexed, violations: &mut Vec<Violation>) -> Vec<AllowSite> {
    let n = lexed.code.len();
    let mut sites = Vec::new();
    for (idx, comment) in lexed.comments.iter().enumerate() {
        if comment.is_empty() {
            continue;
        }
        for directive in parse_allows(comment) {
            let known = KNOWN_FAMILIES.contains(&directive.family.as_str());
            if !known {
                violations.push(Violation {
                    line: idx + 1,
                    rule: Rule::AllowSyntax,
                    message: format!(
                        "unknown `lint: allow` family `{}` (expected one of: {})",
                        directive.family,
                        KNOWN_FAMILIES.join(", ")
                    ),
                });
                continue;
            }
            if !directive.has_reason {
                violations.push(Violation {
                    line: idx + 1,
                    rule: Rule::AllowSyntax,
                    message: format!(
                        "`lint: allow({}, ...)` needs a non-empty quoted reason",
                        directive.family
                    ),
                });
                continue;
            }
            // A trailing annotation covers its own line; a standalone
            // comment line covers the next line that carries code.
            let mut target = idx;
            if lexed.code[idx].trim().is_empty() {
                let mut j = idx + 1;
                while j < n && lexed.code[j].trim().is_empty() {
                    j += 1;
                }
                if j == n {
                    continue;
                }
                target = j;
            }
            sites.push(AllowSite {
                annotation_line: idx,
                target,
                family: directive.family,
            });
        }
    }
    sites
}

/// `true` when the rule set enables at least one rule of `family` (an
/// allow for a disabled family is dormant, not stale).
fn family_enabled(rules: &RuleSet, family: &str) -> bool {
    match family {
        "panic" => rules.panic,
        "unsafe" => rules.safety,
        "determinism" => rules.thread || rules.env || rules.time || rules.hasher || rules.entropy,
        "cast" => rules.cast,
        "arith" => rules.arith,
        "result" => rules.result,
        _ => false,
    }
}

// ------------------------------------------------------ line-based rules --

/// Pushes the per-line (pattern-shaped) candidates for one code line.
fn line_candidates(idx: usize, line: &str, rules: &RuleSet, out: &mut Vec<Violation>) {
    if rules.panic {
        for method in ["unwrap", "expect"] {
            for pos in ident_positions(line, method) {
                if is_method_call(line, pos, method.len()) {
                    out.push(Violation {
                        line: idx + 1,
                        rule: Rule::Panic,
                        message: format!(
                            "`.{method}()` in library code; return a typed error or \
                             annotate with `// lint: allow(panic, \"<invariant>\")`"
                        ),
                    });
                }
            }
        }
        for mac in ["panic", "todo", "unimplemented", "unreachable"] {
            for pos in ident_positions(line, mac) {
                if is_macro_call(line, pos, mac.len()) {
                    out.push(Violation {
                        line: idx + 1,
                        rule: Rule::Panic,
                        message: format!(
                            "`{mac}!` in library code; return a typed error or \
                             annotate with `// lint: allow(panic, \"<invariant>\")`"
                        ),
                    });
                }
            }
        }
    }
    if rules.thread {
        for pat in ["thread::spawn", "thread::scope"] {
            if line.contains(pat) {
                out.push(Violation {
                    line: idx + 1,
                    rule: Rule::DetThread,
                    message: format!(
                        "`{pat}` outside the vendored worker pool breaks the \
                         `DECOLOR_THREADS` invariance contract"
                    ),
                });
            }
        }
    }
    if rules.env && line.contains("env::var") {
        out.push(Violation {
            line: idx + 1,
            rule: Rule::DetEnv,
            message: "`env::var` outside vendor/rayon's `DECOLOR_THREADS` read \
                      makes results depend on ambient environment"
                .into(),
        });
    }
    if rules.time {
        if line.contains("Instant::now") {
            out.push(Violation {
                line: idx + 1,
                rule: Rule::DetTime,
                message: "`Instant::now` outside bench/cli code".into(),
            });
        }
        if !ident_positions(line, "SystemTime").is_empty() {
            out.push(Violation {
                line: idx + 1,
                rule: Rule::DetTime,
                message: "`SystemTime` outside bench/cli code".into(),
            });
        }
    }
    if rules.hasher {
        for ty in ["HashMap", "HashSet"] {
            if !ident_positions(line, ty).is_empty() {
                out.push(Violation {
                    line: idx + 1,
                    rule: Rule::DetHasher,
                    message: format!(
                        "default-hasher `{ty}` in result-affecting code; use \
                         `BTreeMap`/`BTreeSet` or a fixed-seed hasher, or \
                         annotate a membership-only use"
                    ),
                });
            }
        }
    }
    if rules.entropy {
        for f in ["thread_rng", "from_entropy"] {
            if !ident_positions(line, f).is_empty() {
                out.push(Violation {
                    line: idx + 1,
                    rule: Rule::DetEntropy,
                    message: format!(
                        "`{f}` seeds an RNG from process entropy, making results \
                         unreproducible; seed explicitly from the experiment \
                         configuration"
                    ),
                });
            }
        }
    }
}

// ----------------------------------------------------- token-based rules --

/// Rust keywords that terminate an operand walk (they cannot be part of
/// a value expression the arithmetic consumes).
fn is_operand_boundary_keyword(name: &str) -> bool {
    matches!(
        name,
        "let"
            | "return"
            | "if"
            | "else"
            | "while"
            | "for"
            | "in"
            | "match"
            | "fn"
            | "pub"
            | "const"
            | "static"
            | "mut"
            | "ref"
            | "move"
            | "break"
            | "continue"
            | "where"
            | "impl"
            | "use"
            | "mod"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "dyn"
    )
}

/// `true` when the `*` / `+` at token `i` is a binary operator: the
/// previous token must end an operand (identifier, literal, or a
/// closing bracket). Rules out derefs (`*x`), generic bounds after `:`,
/// and unary contexts.
fn is_binary_operator(ts: &TokenStream, i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|j| ts.get(j)) else {
        return false;
    };
    match prev.kind {
        TokenKind::Ident => !is_operand_boundary_keyword(&prev.text) && prev.text != "as",
        TokenKind::Number => true,
        TokenKind::Punct => matches!(prev.text.as_str(), ")" | "]"),
    }
}

/// Collects the identifier names of the operand to the **left** of the
/// operator at `op`, walking through `.` / `::` chains and into bracket
/// groups, stopping at any other operator or delimiter.
fn left_operand_idents(ts: &TokenStream, op: usize, out: &mut Vec<String>) {
    let mut i = op;
    let mut steps = 0;
    while i > 0 && steps < OPERAND_WINDOW {
        i -= 1;
        steps += 1;
        let t = &ts.tokens[i];
        match t.kind {
            TokenKind::Ident => {
                if is_operand_boundary_keyword(&t.text) {
                    return;
                }
                out.push(t.text.clone());
            }
            TokenKind::Number => {}
            TokenKind::Punct => match t.text.as_str() {
                ")" | "]" => {
                    let Some(open) = ts.matching[i] else { return };
                    for k in open..i {
                        if ts.tokens[k].kind == TokenKind::Ident {
                            out.push(ts.tokens[k].text.clone());
                        }
                    }
                    i = open;
                }
                "." | "::" => {}
                _ => return,
            },
        }
    }
}

/// Collects the identifier names of the operand to the **right** of the
/// operator at `op` (symmetric to [`left_operand_idents`]).
fn right_operand_idents(ts: &TokenStream, op: usize, out: &mut Vec<String>) {
    let mut i = op + 1;
    let mut steps = 0;
    // A leading `&` / `*` / `-` prefix is part of the operand.
    while ts
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && matches!(t.text.as_str(), "&" | "*" | "-"))
    {
        i += 1;
    }
    while i < ts.tokens.len() && steps < OPERAND_WINDOW {
        let t = &ts.tokens[i];
        steps += 1;
        match t.kind {
            TokenKind::Ident => {
                if is_operand_boundary_keyword(&t.text) {
                    return;
                }
                out.push(t.text.clone());
            }
            TokenKind::Number => {}
            TokenKind::Punct => match t.text.as_str() {
                "(" | "[" => {
                    let Some(close) = ts.matching[i] else { return };
                    for k in i + 1..close {
                        if ts.tokens[k].kind == TokenKind::Ident {
                            out.push(ts.tokens[k].text.clone());
                        }
                    }
                    i = close;
                }
                "." | "::" => {}
                _ => return,
            },
        }
        i += 1;
    }
}

/// `true` when any collected operand identifier marks a byte-offset or
/// length expression. Primitive type names are skipped (`usize` would
/// otherwise match the `size` marker in every `x as usize` operand).
fn mentions_offset_marker(idents: &[String]) -> bool {
    idents.iter().any(|name| {
        if NUMERIC_TYPES.contains(&name.as_str()) {
            return false;
        }
        let lower = name.to_lowercase();
        OFFSET_MARKERS.iter().any(|m| lower.contains(m))
    })
}

/// `true` when exactly one immediate neighbor of the operator at `op`
/// is the byte-stride literal `8` (storage entries are 8-byte packed
/// words, so `x * 8` is byte arithmetic even when `x` carries no marker
/// name). Two numeric neighbors — `9 * 8` — are a compile-time
/// constant, not runtime offset arithmetic.
fn has_stride_literal(ts: &TokenStream, op: usize) -> bool {
    let prev = op.checked_sub(1).and_then(|j| ts.get(j));
    let next = ts.get(op + 1);
    let is_eight = |t: Option<&crate::tokens::Token>| {
        t.is_some_and(|t| t.kind == TokenKind::Number && t.text == "8")
    };
    let is_number =
        |t: Option<&crate::tokens::Token>| t.is_some_and(|t| t.kind == TokenKind::Number);
    (is_eight(prev) || is_eight(next)) && !(is_number(prev) && is_number(next))
}

/// Pushes the expression-shaped candidates (cast / arith / result) from
/// the token stream.
fn token_candidates(ts: &TokenStream, rules: &RuleSet, out: &mut Vec<Violation>) {
    let n = ts.tokens.len();
    for i in 0..n {
        let t = &ts.tokens[i];
        if rules.cast && t.kind == TokenKind::Ident && t.text == "as" {
            if let Some(ty) = ts.get(i + 1) {
                if ty.kind == TokenKind::Ident && NUMERIC_TYPES.contains(&ty.text.as_str()) {
                    out.push(Violation {
                        line: t.line + 1,
                        rule: Rule::LossyCast,
                        message: format!(
                            "raw `as {}` cast in library code; use `From`/`TryFrom` or the \
                             `decolor_graph::num` helpers, or annotate with \
                             `// lint: allow(cast, \"<lossless bound>\")`",
                            ty.text
                        ),
                    });
                }
            }
        }
        if rules.arith && t.kind == TokenKind::Punct {
            let (op_text, compound) = match t.text.as_str() {
                "+" | "*" => (t.text.as_str(), false),
                "+=" | "*=" => (t.text.as_str(), true),
                _ => continue,
            };
            if !compound && !is_binary_operator(ts, i) {
                continue;
            }
            let mut idents = Vec::new();
            left_operand_idents(ts, i, &mut idents);
            right_operand_idents(ts, i, &mut idents);
            let is_mul = op_text.starts_with('*');
            if mentions_offset_marker(&idents) || (is_mul && has_stride_literal(ts, i)) {
                out.push(Violation {
                    line: t.line + 1,
                    rule: Rule::OffsetArith,
                    message: format!(
                        "unchecked `{op_text}` on an offset/length expression; use \
                         `checked_add`/`checked_mul` with a typed overflow error, or \
                         annotate a validated bound with \
                         `// lint: allow(arith, \"<bound>\")`"
                    ),
                });
            }
        }
        if rules.result && t.kind == TokenKind::Ident && t.text == "let" && ts.is_ident(i + 1, "_")
        {
            // `let _ = …` or `let _: T = …`, but not `let _x` (a named
            // discard keeps the value alive) or tuple patterns.
            if ts.is_punct(i + 2, "=") || ts.is_punct(i + 2, ":") {
                out.push(Violation {
                    line: t.line + 1,
                    rule: Rule::DiscardedResultLet,
                    message: "`let _ = …` discards the value (and any `Result` in it); \
                              propagate with `?` or annotate with \
                              `// lint: allow(result, \"<why best-effort is sound>\")`"
                        .into(),
                });
            }
        }
        if rules.result
            && t.kind == TokenKind::Punct
            && t.text == "."
            && ts.is_ident(i + 1, "ok")
            && ts.is_punct(i + 2, "(")
            && ts.is_punct(i + 3, ")")
            && ts.is_punct(i + 4, ";")
        {
            out.push(Violation {
                line: ts.tokens[i + 1].line + 1,
                rule: Rule::DiscardedResultOk,
                message: "statement-level `.ok();` drops the `Result` and silences its \
                          error; propagate with `?` or annotate with \
                          `// lint: allow(result, \"<why the error is ignorable>\")`"
                    .into(),
            });
        }
    }
}

// ---------------------------------------------------------------- engine --

/// Runs `rules` over a lexed file, returning all violations in line
/// order. Candidates suppressed by a matching allow mark that allow as
/// used; allows that suppress nothing become `ALLOW02` diagnostics.
pub fn lint_lexed(lexed: &Lexed, rules: &RuleSet) -> Vec<Violation> {
    let mut violations = Vec::new();
    let allows = collect_allows(lexed, &mut violations);
    let mut used = vec![false; allows.len()];

    let mut candidates = Vec::new();
    for (idx, line) in lexed.code.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        // The unsafe rule needs the comments context, so it stays here
        // rather than in `line_candidates`.
        if rules.safety && !ident_positions(line, "unsafe").is_empty() {
            let lo = idx.saturating_sub(SAFETY_WINDOW);
            let justified = (lo..=idx).any(|j| lexed.comments[j].contains("SAFETY:"));
            if !justified {
                candidates.push(Violation {
                    line: idx + 1,
                    rule: Rule::UnsafeSafety,
                    message: "`unsafe` without a `// SAFETY:` comment on or above the line".into(),
                });
            }
        }
        line_candidates(idx, line, rules, &mut candidates);
    }
    token_candidates(&tokenize(&lexed.code), rules, &mut candidates);

    for candidate in candidates {
        let mut suppressed = false;
        for (i, site) in allows.iter().enumerate() {
            if site.target + 1 == candidate.line && site.family == candidate.rule.family() {
                used[i] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            violations.push(candidate);
        }
    }
    for (i, site) in allows.iter().enumerate() {
        if !used[i] && family_enabled(rules, &site.family) {
            violations.push(Violation {
                line: site.annotation_line + 1,
                rule: Rule::AllowUnused,
                message: format!(
                    "`lint: allow({}, ...)` suppresses nothing (line {} no longer \
                     violates the `{}` family); remove the stale annotation",
                    site.family,
                    site.target + 1,
                    site.family
                ),
            });
        }
    }
    violations.sort_by_key(|v| v.line);
    violations
}

/// `true` when the scrubbed code contains a crate-level
/// `#![forbid(...)]` attribute listing `unsafe_code` (whitespace-
/// insensitive, tolerant of other lints in the same list).
pub fn has_forbid_unsafe(lexed: &Lexed) -> bool {
    let despaced: String = lexed
        .code
        .iter()
        .flat_map(|l| l.chars())
        .filter(|c| !c.is_whitespace())
        .collect();
    let mut rest = despaced.as_str();
    while let Some(at) = rest.find("#![forbid(") {
        let list = &rest[at + "#![forbid(".len()..];
        let Some(end) = list.find(')') else {
            return false;
        };
        if list[..end].split(',').any(|lint| lint == "unsafe_code") {
            return true;
        }
        rest = &list[end..];
    }
    false
}
