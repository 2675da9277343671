//! Documentation link checker: verifies that every intra-repository
//! markdown link in the top-level docs resolves to an existing file,
//! and that every metric name the runbook documents is one the code
//! actually records.
//!
//! Scans the repo root's `*.md` files (plus `docs/` if present) for
//! inline links — `[text](target)` — and fails listing every target
//! that does not exist on disk. External links (`http://`, `https://`,
//! `mailto:`) and pure in-page anchors (`#section`) are skipped;
//! fragments on file links (`ARCHITECTURE.md#caching`) are checked
//! against the file only.
//!
//! `OPERATIONS.md` additionally gets a metric audit: every backticked
//! token that looks like a metric name (dotted, rooted in a known
//! metric namespace) must resolve against `vlp_obs::schema`.
//! Placeholder segments such as `<s>` or `<site>` stand for a concrete
//! instance, and a trailing `.*` is checked as a family prefix. This is
//! what catches drift like a runbook row for a counter the code
//! renamed or never recorded. Runs in CI as the `docs-links` step.
//!
//! Flags: `--root <dir>` (default `.`).

use std::path::{Path, PathBuf};

/// First segments that mark a backticked token as a metric reference.
/// Anything rooted elsewhere (type names, file paths, config knobs) is
/// not audited.
const METRIC_ROOTS: &[&str] = &[
    "service", "chaos", "cg", "lpsolve", "lp", "cr", "dvlp", "roadnet", "platform",
];

/// Extracts inline markdown link targets — the `(...)` of `[...](...)`
/// — from one document, with the line each was found on.
fn link_targets(doc: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (lineno, line) in doc.lines().enumerate() {
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            // A link target opens at `](` and runs to the matching `)`.
            if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
                let start = i + 2;
                if let Some(len) = line[start..].find(')') {
                    out.push((lineno + 1, line[start..start + len].to_string()));
                    i = start + len;
                    continue;
                }
            }
            i += 1;
        }
    }
    out
}

/// Whether `target` is a link this checker should resolve on disk.
fn is_local(target: &str) -> bool {
    !(target.is_empty()
        || target.starts_with('#')
        || target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:"))
}

/// Whether a backticked token reads as a metric name to audit: dotted,
/// free of path/code punctuation, not a filename, and rooted in one of
/// [`METRIC_ROOTS`] or a `bench_*` artifact namespace.
fn looks_like_metric(token: &str) -> bool {
    if !token.contains('.')
        || token.contains(char::is_whitespace)
        || token.contains(['/', ':', '('])
        || token.starts_with('.')
    {
        return false;
    }
    if [".rs", ".md", ".json", ".toml"]
        .iter()
        .any(|ext| token.ends_with(ext))
    {
        return false;
    }
    let root = token.split('.').next().unwrap_or("");
    METRIC_ROOTS.contains(&root) || root.starts_with("bench_")
}

/// Extracts backticked metric-looking tokens from one document, with
/// the line each was found on.
fn metric_tokens(doc: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (lineno, line) in doc.lines().enumerate() {
        let mut rest = line;
        while let Some(open) = rest.find('`') {
            let tail = &rest[open + 1..];
            let Some(close) = tail.find('`') else { break };
            let token = &tail[..close];
            rest = &tail[close + 1..];
            if looks_like_metric(token) {
                out.push((lineno + 1, token.to_string()));
            }
        }
    }
    out
}

/// Whether `token`, read segment-wise with `*` and `<placeholder>`
/// segments as single-segment wildcards, matches the concrete metric
/// `name`.
fn wildcard_matches(token: &str, name: &str) -> bool {
    let t: Vec<&str> = token.split('.').collect();
    let n: Vec<&str> = name.split('.').collect();
    t.len() == n.len()
        && t.iter()
            .zip(&n)
            .all(|(ts, ns)| *ts == "*" || (ts.starts_with('<') && ts.ends_with('>')) || ts == ns)
}

/// Resolves one documented metric token against the schema registry.
/// A trailing `.*` is resolved as a family prefix; `<placeholder>`
/// segments are tried both as a concrete instance (`0`, for
/// family-named series like `service.breaker.state.<s>`) and as
/// single-segment wildcards over the exact registry (for enumerations
/// like `service.tier.<tier>.served`).
fn metric_resolves(token: &str) -> bool {
    if let Some(prefix) = token.strip_suffix(".*") {
        return vlp_obs::schema::is_known_metric_prefix(&format!("{prefix}."));
    }
    if !token.contains(['<', '*']) {
        return vlp_obs::schema::is_known_metric(token);
    }
    let mut name = String::with_capacity(token.len());
    let mut rest = token;
    while let Some(open) = rest.find('<') {
        name.push_str(&rest[..open]);
        match rest[open..].find('>') {
            Some(close) => {
                name.push('0');
                rest = &rest[open + close + 1..];
            }
            None => return false,
        }
    }
    name.push_str(rest);
    (!name.contains('*') && vlp_obs::schema::is_known_metric(&name))
        || vlp_obs::schema::KNOWN_METRICS
            .iter()
            .any(|m| wildcard_matches(token, m))
}

fn markdown_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    let docs = root.join("docs");
    if docs.is_dir() {
        dirs.push(docs);
    }
    for dir in dirs {
        let entries = std::fs::read_dir(&dir).expect("readable doc directory");
        for entry in entries {
            let path = entry.expect("readable directory entry").path();
            if path.extension().is_some_and(|e| e == "md") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

fn main() {
    let mut root = String::from(".");
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--root" => root = argv.next().expect("--root needs a directory"),
            other => {
                eprintln!("unknown flag `{other}` (expected --root <dir>)");
                std::process::exit(2);
            }
        }
    }
    let root = PathBuf::from(root);

    let mut checked = 0usize;
    let mut broken: Vec<String> = Vec::new();
    for file in markdown_files(&root) {
        let doc = std::fs::read_to_string(&file).expect("readable markdown file");
        let base = file.parent().expect("markdown file has a parent");
        for (line, target) in link_targets(&doc) {
            if !is_local(&target) {
                continue;
            }
            // Drop an in-file fragment; the file itself must exist.
            let path_part = target.split('#').next().unwrap_or(&target);
            if path_part.is_empty() {
                continue;
            }
            checked += 1;
            if !base.join(path_part).exists() {
                broken.push(format!("{}:{line}: broken link `{target}`", file.display()));
            }
        }
    }

    let mut metrics_checked = 0usize;
    let runbook = root.join("OPERATIONS.md");
    if runbook.is_file() {
        let doc = std::fs::read_to_string(&runbook).expect("readable OPERATIONS.md");
        for (line, token) in metric_tokens(&doc) {
            metrics_checked += 1;
            if !metric_resolves(&token) {
                broken.push(format!(
                    "{}:{line}: metric `{token}` is not in vlp_obs::schema",
                    runbook.display()
                ));
            }
        }
    }

    if !broken.is_empty() {
        eprintln!("docs_links: FAIL — {} problem(s):", broken.len());
        for b in &broken {
            eprintln!("  {b}");
        }
        std::process::exit(1);
    }
    println!(
        "docs_links: OK — {checked} intra-repo links resolve, \
         {metrics_checked} documented metric names are registered"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_inline_targets_with_line_numbers() {
        let doc = "intro [a](X.md) and [b](sub/Y.md#frag)\nplain line\n[c](#anchor)";
        let targets = link_targets(doc);
        assert_eq!(
            targets,
            vec![
                (1, "X.md".to_string()),
                (1, "sub/Y.md#frag".to_string()),
                (3, "#anchor".to_string()),
            ]
        );
    }

    #[test]
    fn classifies_metric_tokens() {
        assert!(looks_like_metric("service.cache_hits"));
        assert!(looks_like_metric("service.breaker.state.<s>"));
        assert!(looks_like_metric("chaos.injected.*"));
        assert!(looks_like_metric("bench_load.wall.p50_us"));
        assert!(looks_like_metric("lpsolve.warm.fallbacks"));
        // Filenames, code paths, and expressions are not metrics.
        assert!(!looks_like_metric("bench_chaos.json"));
        assert!(!looks_like_metric("crates/platform/src/service.rs"));
        assert!(!looks_like_metric("vlp_obs::schema::validate_snapshot"));
        assert!(!looks_like_metric(
            "service.solve.lp_vars / service.local.solves"
        ));
        assert!(!looks_like_metric(".full_lp_vars"));
        assert!(!looks_like_metric("obfuscate_batch"));
    }

    #[test]
    fn resolves_placeholders_and_families_against_the_registry() {
        assert!(metric_resolves("service.requests"));
        assert!(metric_resolves("service.tier.clustered.served"));
        assert!(metric_resolves("service.breaker.state.<s>"));
        assert!(metric_resolves("chaos.evaluated.<site>"));
        assert!(metric_resolves("bench_local.<scale>.k_map"));
        assert!(metric_resolves("service.tier.*"));
        assert!(metric_resolves("lpsolve.warm.*"));
        assert!(metric_resolves("service.tier.<tier>.served"));
        assert!(metric_resolves("service.tier.*.served"));
        assert!(!metric_resolves("service.tier.<tier>.bogus"));
        // The drift class this gate exists for: a documented counter
        // the code never records.
        assert!(!metric_resolves("lpsolve.warm.fallbacks"));
        assert!(!metric_resolves("service.tier.bogus"));
    }

    #[test]
    fn generated_registry_rejects_a_misspelled_name() {
        assert!(metric_resolves("service.cache_hits"));
        assert!(!metric_resolves("service.cache_hitz"));
        // Names formatted from a shard index or a tier still resolve.
        assert!(metric_resolves("service.breaker.state.<s>"));
        assert!(metric_resolves("service.tier.<tier>.served"));
    }

    #[test]
    fn extracts_metric_tokens_with_line_numbers() {
        let doc = "see `service.batch` and `ARCHITECTURE.md`\n\
                   | `chaos.injected.<site>` | counter |";
        let tokens = metric_tokens(doc);
        assert_eq!(
            tokens,
            vec![
                (1, "service.batch".to_string()),
                (2, "chaos.injected.<site>".to_string()),
            ]
        );
    }

    #[test]
    fn classifies_local_vs_external_targets() {
        assert!(is_local("ARCHITECTURE.md"));
        assert!(is_local("crates/obs/src/lib.rs"));
        assert!(!is_local("#caching"));
        assert!(!is_local("https://example.com/x.md"));
        assert!(!is_local("http://example.com"));
        assert!(!is_local("mailto:a@b.c"));
        assert!(!is_local(""));
    }
}
