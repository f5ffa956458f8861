//! The rule registry: three syntactic invariants (R3, R4, R6) and five
//! semantic ones (S1–S5).
//!
//! These are the rules clippy cannot express. Rule ids keep their
//! historical numbers: R1, R2 and R7–R12 are enforced by clippy (the root
//! `clippy.toml` and `[workspace.lints.clippy]`, every `reason` prefixed
//! with the rule id), and R5 by the compiler — the vendored `rand` has no
//! unseeded constructor to call.
//!
//! Each R-rule is a pure function from a [`Workspace`] to diagnostics —
//! token-accurate but file-local: comments and string literals can never
//! trigger them, and test code is masked out where a rule targets library
//! code. The S-rules ([`crate::semrules`]) additionally see a
//! workspace-wide [`crate::semrules::SemanticCtx`] (symbol table, call
//! graph, taint sources) and attach call chains to their diagnostics.

use crate::parse::ParsedFile;
use crate::semrules::{self, SemanticCtx};
use crate::{Diagnostic, FileKind, FileUnit, Workspace};

/// Library crates whose `src/` must be free of ad-hoc panics (R1, S1)
/// and whose `try_*` APIs need delegating twins (S5). Each one's crate
/// root denies `clippy::unwrap_used`, `clippy::expect_used` and
/// `clippy::panic`; a test keeps the two lists in step.
pub const PANIC_FREE_CRATES: &[&str] = &[
    "simpadv-trace",
    "simpadv-runtime",
    "simpadv-tensor",
    "simpadv-nn",
    "simpadv-data",
    "simpadv-attacks",
    "simpadv-resilience",
    "simpadv",
];

/// A rule's checker: file-local (syntactic) or workspace-wide (semantic).
pub enum Check {
    /// R-rules: a pure function over the parsed files.
    Syntactic(fn(&Workspace) -> Vec<Diagnostic>),
    /// S-rules: sees the symbol table, call graph and taint sources.
    Semantic(fn(&SemanticCtx) -> Vec<Diagnostic>),
}

/// A rule's identity and entry point.
pub struct Rule {
    /// Stable id (`R3`, `R4`, `R6`, `S1`..`S5`).
    pub id: &'static str,
    /// One-line summary shown by `--list`.
    pub summary: &'static str,
    /// The checker.
    pub check: Check,
}

/// The rule registry, in id order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "R3",
        summary: "attack constructors must validate epsilon/step with \
                  is_finite() and >= 0.0",
        check: Check::Syntactic(rule_r3_ctor_validation),
    },
    Rule {
        id: "R4",
        summary: "no hand-rolled epsilon-ball clamping in crates/attacks outside \
                  projection.rs; use project_ball",
        check: Check::Syntactic(rule_r4_projection_routing),
    },
    Rule {
        id: "R6",
        summary: "panicking tensor ops built on the unwrap_or_else wrapper must \
                  expose a try_* sibling returning TensorError",
        check: Check::Syntactic(rule_r6_try_siblings),
    },
    Rule {
        id: "S1",
        summary: "no public API of a panic-free crate may transitively reach an \
                  unsanctioned unwrap/expect/panic! site; diagnostics carry the call chain",
        check: Check::Semantic(semrules::s1_panic_reachability),
    },
    Rule {
        id: "S2",
        summary: "wall-clock, HashMap/HashSet iteration, available_parallelism and \
                  entropy RNG must not flow into declared determinism sinks \
                  (lint.toml [[taint]]): logical counters, TrainState, BENCH digests",
        check: Check::Semantic(semrules::s2_determinism_taint),
    },
    Rule {
        id: "S3",
        summary: "closures passed to par_map/par_chunks/par_join must not reduce \
                  through unordered combinators (atomics, locks, hash containers); \
                  fold the runtime's ordered per-chunk results instead",
        check: Check::Semantic(semrules::s3_parallel_reduction),
    },
    Rule {
        id: "S4",
        summary: "raw += float-accumulation loops in tensor/nn must live in declared \
                  canonical kernels (lint.toml [[kernel]]) so backends share one \
                  accumulation order",
        check: Check::Semantic(semrules::s4_float_accumulation),
    },
    Rule {
        id: "S5",
        summary: "every try_* function in a panic-free crate has a panicking twin \
                  implemented as a delegating wrapper (checked structurally)",
        check: Check::Semantic(semrules::s5_fallible_siblings),
    },
];

fn diag(rule: &'static str, file: &FileUnit, line: u32, item: &str, message: String) -> Diagnostic {
    Diagnostic {
        rule,
        path: file.path.clone(),
        line,
        item: item.to_string(),
        message,
        chain: Vec::new(),
    }
}

/// Whether token `i` begins a macro invocation of `name` (`name` followed
/// by `!`).
fn is_macro(p: &ParsedFile, i: usize, name: &str) -> bool {
    p.ident(i) == Some(name) && p.is_punct(i + 1, '!')
}

/// Constructor parameters that R3 requires to be validated.
const VALIDATED_PARAMS: &[&str] = &["epsilon", "eps", "step", "step_size"];

/// Whether some `assert!(...)` region in `body` validates `param` with both
/// `is_finite()` and a `>= 0.0` bound.
fn body_validates(p: &ParsedFile, body: std::ops::Range<usize>, param: &str) -> bool {
    let mut i = body.start;
    while i < body.end {
        if is_macro(p, i, "assert") && p.is_open(i + 2, '(') {
            let close = p.match_of[i + 2];
            if close != usize::MAX {
                let region = i + 3..close.min(body.end);
                let mentions = region.clone().any(|k| p.ident(k) == Some(param));
                let finite = region.clone().any(|k| p.ident(k) == Some("is_finite"));
                let lower_bound = region.clone().any(|k| {
                    p.is_punct(k, '>')
                        && p.is_punct(k + 1, '=')
                        && matches!(
                            p.tokens.get(k + 2).map(|t| &t.kind),
                            Some(crate::lexer::TokenKind::Literal(l)) if l.starts_with("0.0")
                        )
                });
                if mentions && finite && lower_bound {
                    return true;
                }
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    false
}

/// R3: attack constructors validate their numeric hyperparameters.
fn rule_r3_ctor_validation(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        if file.kind != FileKind::Src || file.crate_name != "simpadv-attacks" {
            continue;
        }
        let p = &file.parsed;
        for f in &p.functions {
            if f.name != "new" || f.in_test || f.body.is_empty() {
                continue;
            }
            for param in &f.params {
                if !VALIDATED_PARAMS.contains(&param.as_str()) {
                    continue;
                }
                if !body_validates(p, f.body.clone(), param) {
                    out.push(diag(
                        "R3",
                        file,
                        f.line,
                        param,
                        format!(
                            "constructor `new` takes `{param}` but does not validate it; \
                             add `assert!({param} >= 0.0 && {param}.is_finite(), ...)`"
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Clamp-family methods R4 watches for.
const CLAMP_METHODS: &[&str] = &["clamp", "maximum", "minimum", "min", "max"];

/// R4: epsilon-ball projection must go through `project_ball`.
fn rule_r4_projection_routing(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in &ws.files {
        if file.kind != FileKind::Src
            || file.crate_name != "simpadv-attacks"
            || file.path.ends_with("projection.rs")
        {
            continue;
        }
        let p = &file.parsed;
        for i in 0..p.tokens.len() {
            if p.test_mask[i] {
                continue;
            }
            let Some(m) = p.ident(i) else { continue };
            if !CLAMP_METHODS.contains(&m) || !p.is_method_call(i) {
                continue;
            }
            let close = p.match_of[i + 1];
            if close == usize::MAX {
                continue;
            }
            let arg_has_eps = (i + 2..close).any(|k| matches!(p.ident(k), Some("epsilon" | "eps")));
            if arg_has_eps {
                out.push(diag(
                    "R4",
                    file,
                    p.line(i),
                    m,
                    format!(
                        "hand-rolled epsilon clamping via `.{m}(..epsilon..)`; all \
                         ball projection must go through `projection::project_ball`"
                    ),
                ));
            }
        }
    }
    out
}

/// R6: wrapper-pattern tensor ops expose `try_*` siblings.
fn rule_r6_try_siblings(ws: &Workspace) -> Vec<Diagnostic> {
    // Collect every function name defined in tensor src (cross-file).
    let mut tensor_fns: Vec<&str> = Vec::new();
    for file in &ws.files {
        if file.kind == FileKind::Src && file.crate_name == "simpadv-tensor" {
            tensor_fns.extend(file.parsed.functions.iter().map(|f| f.name.as_str()));
        }
    }
    let mut out = Vec::new();
    for file in &ws.files {
        if file.kind != FileKind::Src || file.crate_name != "simpadv-tensor" {
            continue;
        }
        let p = &file.parsed;
        for f in &p.functions {
            if !f.is_pub || f.in_test || f.body.is_empty() || f.name.starts_with("try_") {
                continue;
            }
            let uses_wrapper =
                f.body.clone().any(|i| p.ident(i) == Some("unwrap_or_else") && p.is_method_call(i));
            if !uses_wrapper {
                continue;
            }
            let sibling = format!("try_{}", f.name);
            if !tensor_fns.iter().any(|n| *n == sibling) {
                out.push(diag(
                    "R6",
                    file,
                    f.line,
                    &f.name,
                    format!(
                        "panicking op `{}` wraps a fallible computation but no \
                         `{sibling}` sibling exists; expose the Result-returning form",
                        f.name
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: files.iter().map(|(path, src)| FileUnit::from_source(path, src)).collect(),
        }
    }

    fn run(rule: &str, files: &[(&str, &str)]) -> Vec<Diagnostic> {
        match RULES.iter().find(|r| r.id == rule).expect("known rule").check {
            Check::Syntactic(f) => f(&ws(files)),
            Check::Semantic(_) => panic!("semantic rules are tested in semrules.rs"),
        }
    }

    // ---- R3 ----

    #[test]
    fn r3_fires_when_epsilon_not_validated() {
        let src = r#"
impl Fgsm {
    pub fn new(epsilon: f32) -> Self {
        Self { epsilon }
    }
}
"#;
        let d = run("R3", &[("crates/attacks/src/fgsm.rs", src)]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].item, "epsilon");
    }

    #[test]
    fn r3_accepts_seed_idiom_and_checks_each_param() {
        let src = r#"
impl Pgd {
    pub fn new(epsilon: f32, step: f32, iters: usize) -> Self {
        assert!(epsilon >= 0.0 && epsilon.is_finite(), "invalid epsilon {epsilon}");
        Self { epsilon, step, iters }
    }
}
"#;
        // epsilon validated, step not: exactly one diagnostic, for step.
        let d = run("R3", &[("crates/attacks/src/pgd.rs", src)]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].item, "step");
    }

    #[test]
    fn r3_requires_is_finite_not_just_lower_bound() {
        let src = r#"
impl A {
    pub fn new(epsilon: f32) -> Self {
        assert!(epsilon >= 0.0, "negative epsilon");
        Self { epsilon }
    }
}
"#;
        let d = run("R3", &[("crates/attacks/src/a.rs", src)]);
        assert_eq!(d.len(), 1);
    }

    // ---- R4 ----

    #[test]
    fn r4_fires_on_manual_epsilon_clamp() {
        let src = r#"
fn step(&self, x: &T, orig: &T) -> T {
    x.clamp(orig.sub_scalar(self.epsilon), orig.add_scalar(self.epsilon))
}
"#;
        let d = run("R4", &[("crates/attacks/src/pgd.rs", src)]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].item, "clamp");
    }

    #[test]
    fn r4_allows_projection_rs_and_plain_clamps() {
        let files = [
            (
                "crates/attacks/src/projection.rs",
                "pub fn project_ball(x: &T, eps: f32) -> T { x.maximum(eps) }",
            ),
            ("crates/attacks/src/l2.rs", "fn f(x: &T) -> T { x.clamp(0.0, 1.0) }"),
        ];
        assert!(run("R4", &files).is_empty());
    }

    #[test]
    fn r4_fires_on_min_max_pair_with_eps() {
        let src = "fn f(&self) -> T { d.max(-eps).min(eps) }";
        let d = run("R4", &[("crates/attacks/src/custom.rs", src)]);
        assert_eq!(d.len(), 2);
    }

    // ---- R6 ----

    #[test]
    fn r6_fires_when_wrapper_has_no_try_sibling() {
        let src = r#"
pub fn matmul(&self, o: &T) -> T {
    self.inner_mul(o).unwrap_or_else(|e| panic!("{e}"))
}
"#;
        let d = run("R6", &[("crates/tensor/src/linalg.rs", src)]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].item, "matmul");
    }

    #[test]
    fn r6_satisfied_by_cross_file_sibling() {
        let files = [
            (
                "crates/tensor/src/linalg.rs",
                "pub fn matmul(&self, o: &T) -> T { self.try_matmul(o).unwrap_or_else(|e| panic!(\"{e}\")) }",
            ),
            (
                "crates/tensor/src/fallible.rs",
                "pub fn try_matmul(&self, o: &T) -> Result<T, TensorError> { todo_body() }",
            ),
        ];
        assert!(run("R6", &files).is_empty());
    }

    #[test]
    fn r6_skips_non_wrapper_and_try_fns() {
        let src = r#"
pub fn shape(&self) -> &[usize] { &self.shape }
pub fn try_reshape(&self, s: &[usize]) -> Result<T, E> { inner(s) }
"#;
        assert!(run("R6", &[("crates/tensor/src/ops.rs", src)]).is_empty());
    }
}
