//! `lint.toml`: the S-rule declaration tables.
//!
//! The file is a sequence of tables:
//!
//! ```toml
//! [[taint]]                 # S2 determinism sink declaration
//! path = "crates/trace/src/clock.rs"
//! item = "tick_forward"
//! reason = "logical counter; must stay thread- and wall-clock-invariant"
//!
//! [[kernel]]                # S4 canonical accumulation kernel
//! path = "crates/tensor/src/ops.rs"
//! item = "add_assign"
//! reason = "the one sanctioned elementwise += loop"
//! ```
//!
//! Every key is required, `reason` included, so each declaration carries
//! its justification into review. The parser covers exactly this subset
//! of TOML (comments, `[[name]]` headers, and `key = "string"` pairs) —
//! anything else is a configuration error. Exceptions to a rule are not
//! declared here: they are `#[expect(clippy::..., reason = "...")]`
//! attributes on the item, which S1 reads as well.

/// One S2 sink declaration: a function whose inputs must stay free of
/// determinism taint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintSink {
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// Function name.
    pub item: String,
    /// Why this function is a determinism sink.
    pub reason: String,
}

/// One S4 kernel declaration: a function allowed to contain raw `+=`
/// float accumulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelEntry {
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// Function name.
    pub item: String,
    /// Why this is a canonical accumulation kernel.
    pub reason: String,
}

/// Parsed configuration.
#[derive(Debug, Default)]
pub struct Config {
    /// S2 determinism sinks.
    pub taints: Vec<TaintSink>,
    /// S4 canonical kernels.
    pub kernels: Vec<KernelEntry>,
}

/// Errors from [`parse`].
#[derive(Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line of the problem.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(line: usize, message: impl Into<String>) -> ConfigError {
    ConfigError { line, message: message.into() }
}

/// Which table a partial entry is being collected for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Taint,
    Kernel,
}

impl Section {
    fn name(self) -> &'static str {
        match self {
            Section::Taint => "taint",
            Section::Kernel => "kernel",
        }
    }
}

/// Parses `lint.toml` source text.
pub fn parse(src: &str) -> Result<Config, ConfigError> {
    struct Partial {
        section: Section,
        line: usize,
        path: Option<String>,
        item: Option<String>,
        reason: Option<String>,
    }
    fn finish(cfg: &mut Config, p: Partial) -> Result<(), ConfigError> {
        let need = |field: Option<String>, name: &str| {
            field.ok_or_else(|| err(p.line, format!("[[{}]] missing `{name}`", p.section.name())))
        };
        let reason = p.reason.ok_or_else(|| {
            err(
                p.line,
                format!(
                    "[[{}]] missing `reason` — every entry must be justified",
                    p.section.name()
                ),
            )
        })?;
        match p.section {
            Section::Taint => {
                cfg.taints.push(TaintSink {
                    path: need(p.path, "path")?,
                    item: need(p.item, "item")?,
                    reason,
                });
            }
            Section::Kernel => {
                cfg.kernels.push(KernelEntry {
                    path: need(p.path, "path")?,
                    item: need(p.item, "item")?,
                    reason,
                });
            }
        }
        Ok(())
    }

    let mut cfg = Config::default();
    let mut current: Option<Partial> = None;
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let section = match line {
            "[[taint]]" => Some(Section::Taint),
            "[[kernel]]" => Some(Section::Kernel),
            _ => None,
        };
        if let Some(section) = section {
            if let Some(p) = current.take() {
                finish(&mut cfg, p)?;
            }
            current = Some(Partial { section, line: lineno, path: None, item: None, reason: None });
            continue;
        }
        if line.starts_with('[') {
            return Err(err(
                lineno,
                format!(
                    "unsupported section `{line}` (only [[taint]] and [[kernel]] are \
                     recognized)"
                ),
            ));
        }
        let Some(eq) = line.find('=') else {
            return Err(err(lineno, format!("expected `key = \"value\"`, found `{line}`")));
        };
        let key = line[..eq].trim();
        let value = line[eq + 1..].trim();
        let value = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')).ok_or_else(|| {
            err(lineno, format!("value for `{key}` must be a double-quoted string"))
        })?;
        let Some(p) = current.as_mut() else {
            return Err(err(lineno, format!("`{key}` outside of a table header")));
        };
        match key {
            "path" => p.path = Some(value.to_string()),
            "item" => p.item = Some(value.to_string()),
            "reason" => p.reason = Some(value.to_string()),
            other => {
                return Err(err(
                    lineno,
                    format!("unknown key `{other}` in [[{}]]", p.section.name()),
                ));
            }
        }
    }
    if let Some(p) = current.take() {
        finish(&mut cfg, p)?;
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_taint_and_kernel_tables() {
        let cfg = parse(
            r#"
[[taint]]
path = "crates/trace/src/clock.rs"
item = "tick_forward"
reason = "logical counter"

[[kernel]]
path = "crates/tensor/src/ops.rs"
item = "add_assign"
reason = "sanctioned elementwise accumulation"
"#,
        )
        .expect("valid config");
        assert_eq!(cfg.taints.len(), 1);
        assert_eq!(cfg.taints[0].item, "tick_forward");
        assert_eq!(cfg.kernels.len(), 1);
        assert_eq!(cfg.kernels[0].path, "crates/tensor/src/ops.rs");
    }

    #[test]
    fn taint_requires_item_and_rejects_rule() {
        let e = parse("[[taint]]\npath = \"x.rs\"\nreason = \"r\"\n").unwrap_err();
        assert!(e.message.contains("item"));
        let e = parse("[[taint]]\nrule = \"S2\"\npath = \"x\"\nitem = \"f\"\nreason = \"r\"\n")
            .unwrap_err();
        assert!(e.message.contains("rule"));
    }

    #[test]
    fn allow_tables_are_gone() {
        let e = parse("[[allow]]\nrule = \"R1\"\npath = \"x.rs\"\nreason = \"r\"\n").unwrap_err();
        assert!(e.message.contains("unsupported section"));
    }

    #[test]
    fn missing_reason_is_an_error() {
        let e = parse("[[kernel]]\npath = \"x.rs\"\nitem = \"f\"\n").unwrap_err();
        assert!(e.message.contains("reason"));
    }

    #[test]
    fn unknown_key_is_an_error() {
        let e = parse("[[kernel]]\npath = \"x\"\nitem = \"f\"\nreason = \"r\"\nbogus = \"v\"\n")
            .unwrap_err();
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn unquoted_value_is_an_error() {
        let e = parse("[[taint]]\npath = x.rs\n").unwrap_err();
        assert!(e.message.contains("double-quoted"));
    }

    #[test]
    fn empty_config_is_fine() {
        let cfg = parse("# nothing here\n").expect("empty ok");
        assert!(cfg.taints.is_empty() && cfg.kernels.is_empty());
    }
}
