//! Machine-readable bench results: a tiny dependency-free JSON writer.
//!
//! Every bench binary ends by dumping its recorded medians to
//! `BENCH_<name>.json` at the repository root, so the performance
//! trajectory of the hot paths is tracked in-tree from run to run (CI
//! fails the release job if the file is missing or malformed). The format
//! is deliberately minimal:
//!
//! ```json
//! {
//!   "bench": "engine",
//!   "provenance": {"mode": "full", "examples": 60000, "nproc": 2,
//!                  "isa_tier": "avx512", "git_rev": "5df7001e…"},
//!   "results": [
//!     {"name": "engine_throughput/scalar_60k", "median_ns": 1222000000}
//!   ]
//! }
//! ```
//!
//! The `provenance` block ([`Provenance`]) says how the medians were
//! produced, so two artifacts are only compared like for like. Benches
//! that do not record it yet omit the key.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Escapes a string for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// How a bench run was produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// `quick` (the reduced CI size) or `full`.
    pub mode: &'static str,
    /// Examples in the largest timed batch.
    pub examples: usize,
    /// CPUs available to the process.
    pub nproc: usize,
    /// The widest instruction-set tier the timed code ran on.
    pub isa_tier: &'static str,
    /// The revision checked out at the workspace root, or `unknown`.
    pub git_rev: String,
}

impl Provenance {
    /// Provenance of a run in this process: `nproc` from
    /// [`std::thread::available_parallelism`], the revision from the
    /// workspace root's `.git`.
    pub fn detect(quick: bool, examples: usize, isa_tier: &'static str) -> Provenance {
        Provenance {
            mode: if quick { "quick" } else { "full" },
            examples,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            isa_tier,
            git_rev: workspace_root().map_or_else(|_| "unknown".into(), |root| git_rev(&root)),
        }
    }

    fn render(&self) -> String {
        format!(
            "{{\"mode\": \"{}\", \"examples\": {}, \"nproc\": {}, \"isa_tier\": \"{}\", \
             \"git_rev\": \"{}\"}}",
            self.mode,
            self.examples,
            self.nproc,
            escape(self.isa_tier),
            escape(&self.git_rev)
        )
    }
}

/// The revision checked out in the repository at `root`, read from its
/// `.git` directory without running git, or `unknown`.
fn git_rev(root: &Path) -> String {
    let read = |p: &str| std::fs::read_to_string(root.join(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|rev| rev.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Renders `(name, median)` pairs as the `BENCH_*.json` document, with
/// the provenance block when there is one.
pub fn render_json(
    bench: &str,
    provenance: Option<&Provenance>,
    entries: &[(String, Duration)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", escape(bench)));
    if let Some(p) = provenance {
        out.push_str(&format!("  \"provenance\": {},\n", p.render()));
    }
    out.push_str("  \"results\": [\n");
    for (i, (name, median)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ns\": {}}}{comma}\n",
            escape(name),
            median.as_nanos()
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Whether the manifest text opens a `[workspace]` table.
fn declares_workspace(manifest: &str) -> bool {
    manifest.lines().any(|line| line.trim() == "[workspace]")
}

/// The nearest directory at or above `start` whose `Cargo.toml` declares
/// a workspace, or `None` when no ancestor does.
fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|m| declares_workspace(&m))
        })
        .map(Path::to_path_buf)
}

/// The workspace root the `BENCH_*.json` artifacts belong in, resolved at
/// run time from the current directory (`cargo run` keeps the caller's
/// directory; `cargo bench` runs in the package directory, one level
/// below a workspace member's root). A binary copied to or built in
/// another tree therefore writes into the tree it runs in.
///
/// # Errors
///
/// `NotFound` when no ancestor of the current directory holds a
/// workspace manifest.
pub fn workspace_root() -> io::Result<PathBuf> {
    let cwd = std::env::current_dir()?;
    find_workspace_root(&cwd).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::NotFound,
            format!("no Cargo workspace manifest at or above {}", cwd.display()),
        )
    })
}

/// Writes `BENCH_<bench>.json` at the workspace root (see
/// [`workspace_root`]), returning the path.
///
/// # Errors
///
/// Propagates root-resolution, file-creation and write failures.
pub fn write_repo_root(
    bench: &str,
    provenance: Option<&Provenance>,
    entries: &[(String, Duration)],
) -> io::Result<PathBuf> {
    let path = workspace_root()?.join(format!("BENCH_{bench}.json"));
    let mut file = std::fs::File::create(&path)?;
    file.write_all(render_json(bench, provenance, entries).as_bytes())?;
    Ok(path)
}

/// A structured JSON value for richer artifacts than the flat
/// `(name, median)` schema — the `pipeline` binary's scenario reports
/// carry nested accuracy/timing/resource objects.
///
/// The serde shim in this offline workspace is a no-op, so this is the
/// workspace's one real JSON emitter; keep it boring.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// An integer (covers counts, milliseconds, LUTs).
    Int(i64),
    /// A finite float (energies, accuracies, watts).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience object constructor from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Renders the value as pretty-printed JSON.
    ///
    /// # Panics
    ///
    /// Panics on non-finite floats: `NaN`/`inf` have no JSON encoding, and
    /// an artifact carrying one is a bug upstream, not a formatting issue.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent + 1);
        let close = "  ".repeat(indent);
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => {
                assert!(f.is_finite(), "non-finite value in JSON artifact: {f}");
                // Rust's `{}` for finite f64 always yields a valid JSON
                // number (round-trippable shortest form).
                out.push_str(&format!("{f}"));
            }
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.write(out, indent + 1);
                    out.push_str(if i + 1 == items.len() { "\n" } else { ",\n" });
                }
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    out.push_str(&pad);
                    out.push('"');
                    out.push_str(&escape(k));
                    out.push_str("\": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 == pairs.len() { "\n" } else { ",\n" });
                }
                out.push_str(&close);
                out.push('}');
            }
        }
    }
}

/// Writes an arbitrary [`Json`] document to `BENCH_<name>.json` at the
/// workspace root (see [`workspace_root`]), returning the path.
///
/// # Errors
///
/// Propagates root-resolution, file-creation and write failures.
pub fn write_named_root(name: &str, doc: &Json) -> io::Result<PathBuf> {
    let path = workspace_root()?.join(format!("BENCH_{name}.json"));
    let mut file = std::fs::File::create(&path)?;
    file.write_all(doc.render().as_bytes())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_valid_minimal_json() {
        let entries = vec![
            ("group/fast".to_string(), Duration::from_nanos(1500)),
            ("group/\"odd\"".to_string(), Duration::from_micros(2)),
        ];
        let json = render_json("engine", None, &entries);
        assert!(!json.contains("provenance"));
        assert!(json.contains("\"bench\": \"engine\""));
        assert!(json.contains("{\"name\": \"group/fast\", \"median_ns\": 1500},"));
        assert!(json.contains("{\"name\": \"group/\\\"odd\\\"\", \"median_ns\": 2000}\n"));
        // Balanced braces/brackets — the structural sanity CI re-checks
        // with a real JSON parser.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn renders_empty_result_list() {
        let json = render_json("train", None, &[]);
        assert!(json.contains("\"results\": [\n  ]"));
    }

    #[test]
    fn renders_provenance_block() {
        let prov = Provenance {
            mode: "quick",
            examples: 4096,
            nproc: 2,
            isa_tier: "avx512",
            git_rev: "abc123".into(),
        };
        let json = render_json(
            "engine",
            Some(&prov),
            &[("g/x".into(), Duration::from_nanos(7))],
        );
        assert!(json.contains(
            "  \"provenance\": {\"mode\": \"quick\", \"examples\": 4096, \"nproc\": 2, \
             \"isa_tier\": \"avx512\", \"git_rev\": \"abc123\"},\n"
        ));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn git_rev_resolves_loose_packed_and_detached_heads() {
        let root = std::env::temp_dir().join(format!("poetbin_git_rev_{}", std::process::id()));
        let git = root.join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).unwrap();
        assert_eq!(git_rev(&root.join("missing")), "unknown");
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(
            git.join("packed-refs"),
            "# pack-refs\nfeed refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(git_rev(&root), "feed");
        std::fs::write(git.join("refs/heads/main"), "beef\n").unwrap();
        assert_eq!(git_rev(&root), "beef");
        std::fs::write(git.join("HEAD"), "cafe\n").unwrap();
        assert_eq!(git_rev(&root), "cafe");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn json_value_renders_all_variants() {
        let doc = Json::obj([
            ("bench", Json::str("pipeline")),
            ("ok", Json::Bool(true)),
            ("count", Json::Int(-3)),
            ("acc", Json::Float(0.9125)),
            (
                "rows",
                Json::Arr(vec![Json::Int(1), Json::str("two \"quoted\"")]),
            ),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        let json = doc.render();
        assert!(json.contains("\"bench\": \"pipeline\""));
        assert!(json.contains("\"ok\": true"));
        assert!(json.contains("\"count\": -3"));
        assert!(json.contains("\"acc\": 0.9125"));
        assert!(json.contains("\"two \\\"quoted\\\"\""));
        assert!(json.contains("\"empty_arr\": []"));
        assert!(json.contains("\"empty_obj\": {}"));
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_floats_stay_round_trippable() {
        // `{}` on f64 renders the shortest round-trippable decimal — valid
        // JSON for every finite value, including ones with exponents.
        for v in [0.0, -1.5, 1e-12, 6.25e7, f64::MAX] {
            let s = Json::Float(v).render();
            let back: f64 = s.trim().parse().unwrap();
            assert_eq!(back, v, "render {s}");
        }
    }

    #[test]
    fn workspace_root_is_the_nearest_ancestor_declaring_a_workspace() {
        let tmp = std::env::temp_dir().join(format!("poetbin-ws-root-{}", std::process::id()));
        let member = tmp.join("ws/crates/member/src");
        std::fs::create_dir_all(&member).unwrap();
        std::fs::write(
            tmp.join("ws/Cargo.toml"),
            "[workspace]\nmembers = [\"crates/member\"]\n",
        )
        .unwrap();
        std::fs::write(
            tmp.join("ws/crates/member/Cargo.toml"),
            "[package]\nname = \"member\"\n",
        )
        .unwrap();
        let ws = tmp.join("ws");
        // From the root itself, a member package and a directory inside it.
        assert_eq!(find_workspace_root(&ws), Some(ws.clone()));
        assert_eq!(
            find_workspace_root(&ws.join("crates/member")),
            Some(ws.clone())
        );
        assert_eq!(find_workspace_root(&member), Some(ws.clone()));
        // A package manifest alone is not a root: without the workspace
        // manifest the walk goes past the member instead of stopping there.
        std::fs::remove_file(tmp.join("ws/Cargo.toml")).unwrap();
        let found = find_workspace_root(&member);
        assert!(
            found.as_deref().is_none_or(|root| !root.starts_with(&ws)),
            "resolved {found:?} inside a tree with no workspace manifest"
        );
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn workspace_root_of_this_checkout_holds_the_root_manifest() {
        let root = workspace_root().expect("tests run inside the workspace");
        let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
        assert!(declares_workspace(&manifest));
        assert!(root.join("crates/bench").is_dir());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn json_rejects_nan() {
        Json::Float(f64::NAN).render();
    }
}
