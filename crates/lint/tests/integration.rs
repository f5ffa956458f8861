//! End-to-end tests: the analyzer over real directory trees.
//!
//! Two layers: a synthetic fixture workspace exercising the walker + rule
//! pipeline, and a self-check that the actual repository is clean — the
//! latter is the "lint wall": any rule violation introduced anywhere in
//! the workspace fails this test. The last tests keep the analyzer and
//! the clippy half of the wall (root `clippy.toml`) in step.

use simpadv_lint::rules::PANIC_FREE_CRATES;
use simpadv_lint::{collect_files, config, run, Workspace};
use std::path::{Path, PathBuf};

/// Creates a unique scratch directory for a fixture tree.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("simpadv-lint-{tag}-{}", std::process::id()));
        // A leftover tree from a crashed run would pollute the fixture.
        if root.exists() {
            std::fs::remove_dir_all(&root).expect("clear stale scratch dir");
        }
        std::fs::create_dir_all(&root).expect("create scratch dir");
        Scratch { root }
    }

    #[expect(clippy::disallowed_methods, reason = "R9: scratch fixture files")]
    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(path, content).expect("write fixture file");
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn repo_root() -> &'static Path {
    // crates/lint -> crates -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().and_then(Path::parent).expect("workspace root")
}

#[test]
fn fixture_workspace_pipeline() {
    let s = Scratch::new("fixture");
    s.write(
        "crates/attacks/src/fgsm.rs",
        r#"
impl Fgsm {
    pub fn new(epsilon: f32) -> Self { Self { epsilon } }
    fn step(&self, d: &T) -> T { d.clamp(-self.epsilon, self.epsilon) }
}
"#,
    );
    s.write(
        "crates/attacks/src/projection.rs",
        "pub fn project_ball(d: &T, eps: f32) -> T { d.clamp(-eps, eps) }",
    );
    // target/ and perfbench/ must be skipped even when they hold .rs files.
    s.write("target/debug/build/gen.rs", "fn g(eps: f32) { d.clamp(-eps, eps); }");
    s.write("perfbench/src/main.rs", "fn g(eps: f32) { d.clamp(-eps, eps); }");

    let ws = collect_files(&s.root).expect("walk fixture");
    assert_eq!(ws.files.len(), 2, "target/ and perfbench/ must not be walked");

    // Unvalidated epsilon (R3) and a hand-rolled clamp outside
    // projection.rs (R4), both in fgsm.rs.
    let diags = run(&ws, &config::Config::default());
    let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
    assert_eq!(rules, vec!["R3", "R4"], "diags: {diags:?}");
    assert!(diags.iter().all(|d| d.path == "crates/attacks/src/fgsm.rs"));
}

#[test]
fn repository_is_lint_clean() {
    let root = repo_root();
    let ws = collect_files(root).expect("walk repository");
    assert!(
        ws.files.len() > 50,
        "walker found suspiciously few files ({}): wrong root?",
        ws.files.len()
    );
    let cfg_src = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml");
    let cfg = config::parse(&cfg_src).expect("valid lint.toml");
    let diags = run(&ws, &cfg);
    assert!(
        diags.is_empty(),
        "the workspace violates its own invariants:\n{}",
        diags.iter().map(|d| d.render()).collect::<String>()
    );
}

#[test]
fn planting_an_unwrap_in_tensor_ops_fails_the_run() {
    // The acceptance scenario: copy the real tensor sources into a fixture,
    // plant a public method that reaches an unwrap() one call down, and
    // confirm S1 reports the chain. (A direct unwrap is clippy's to catch.)
    let root = repo_root();
    let s = Scratch::new("planted");
    let ops =
        std::fs::read_to_string(root.join("crates/tensor/src/ops.rs")).expect("read real ops.rs");
    let mut planted = ops.replacen(
        "impl Tensor {",
        "impl Tensor {\n    /// Planted violation.\n    pub fn planted(x: Option<f32>) -> f32 { planted_deep(x) }\n",
        1,
    );
    assert_ne!(planted, ops, "marker line not found in ops.rs");
    planted.push_str("\nfn planted_deep(x: Option<f32>) -> f32 { x.unwrap() }\n");
    s.write("crates/tensor/src/ops.rs", &planted);

    let ws = collect_files(&s.root).expect("walk planted fixture");
    let diags = run(&ws, &config::Config::default());
    let hit = diags
        .iter()
        .find(|d| d.rule == "S1" && d.path == "crates/tensor/src/ops.rs" && d.item == "planted")
        .unwrap_or_else(|| panic!("planted unwrap not caught: {diags:?}"));
    assert!(hit.chain.last().is_some_and(|hop| hop.contains("planted_deep")), "{hit:?}");
}

#[test]
fn rendering_is_rustc_style_and_json_is_parseable_shape() {
    let ws = Workspace {
        files: vec![simpadv_lint::FileUnit::from_source(
            "crates/attacks/src/x.rs",
            "fn f(d: &T, eps: f32) -> T { d.clamp(-eps, eps) }",
        )],
    };
    let diags = run(&ws, &config::Config::default());
    assert_eq!(diags.len(), 1);
    let text = diags[0].render();
    assert!(text.starts_with("error[R4]: "));
    assert!(text.contains("--> crates/attacks/src/x.rs:1"));
    let json = simpadv_lint::render_json(&diags);
    assert!(json.contains("\"rule\":\"R4\""));
    assert!(json.contains("\"line\":1"));
}

/// The clippy half of R1: `#![deny(...)]` at a crate root.
const R1_DENY: &str = "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]";

/// Every crate root carrying R1's clippy deny is a panic-free crate for
/// S1 and S5, and vice versa, so the two halves of the wall police the
/// same set.
#[test]
fn panic_free_crates_deny_the_r1_lints_at_their_root() {
    let mut denying: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(repo_root().join("crates")).expect("read crates/") {
        let dir = entry.expect("dir entry").path();
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else { continue };
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = \""))
            .and_then(|rest| rest.strip_suffix('"'))
            .expect("package name")
            .to_string();
        let lib = std::fs::read_to_string(dir.join("src/lib.rs")).unwrap_or_default();
        if lib.lines().any(|l| l.trim() == R1_DENY) {
            denying.push(name);
        }
    }
    denying.sort();
    let mut expected: Vec<String> = PANIC_FREE_CRATES.iter().map(|c| c.to_string()).collect();
    expected.sort();
    assert_eq!(denying, expected);
}

/// The key/value lines of the TOML table that starts at `header`.
fn table_entries<'a>(toml: &'a str, header: &str) -> Vec<&'a str> {
    toml.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// The planted-violation crate CI runs clippy on lints at exactly the
/// workspace's levels, so a planted violation fails there iff it would
/// fail in the workspace.
#[test]
fn clippy_fixture_mirrors_the_workspace_lint_table() {
    let root = repo_root();
    let workspace = std::fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    let fixture =
        std::fs::read_to_string(root.join("crates/lint/tests/fixtures/clippy/Cargo.toml"))
            .expect("fixture Cargo.toml");
    let levels = table_entries(&workspace, "[workspace.lints.clippy]");
    assert!(levels.contains(&"disallowed_methods = \"deny\""), "{levels:?}");
    assert_eq!(table_entries(&fixture, "[lints.clippy]"), levels);
}
