//! Provenance and the run log.
//!
//! Every run appends one line to `<out>/results.jsonl`: its provenance,
//! outcome and every metric it measured. The output directory is resolved
//! at run time (`--out`, relative to the working directory), never from a
//! compile-time path, so a copied binary writes beside where it runs. The
//! log is how a traced run finds the untraced runs it is compared with,
//! and how a repeated seed is checked to give identical quality figures.

use std::io::Write;
use std::path::Path;

use crate::metrics::Metrics;
use crate::stats::{median, Tally};

/// Where and how a result was produced.
pub struct Provenance {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Whether spans were recorded.
    pub trace: bool,
    /// Measured seconds requested.
    pub seconds: u64,
    /// Hardware threads available.
    pub nproc: usize,
    /// Engine backend that actually ran.
    pub backend: &'static str,
    /// Widest vector tier the JIT selects on this host.
    pub isa_tier: &'static str,
    /// Source revision, when the checkout is a git repository.
    pub git_rev: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Hash of the running executable: runs compare only within a build.
    pub build_id: String,
}

impl Provenance {
    /// One-line JSON fields, without braces.
    fn fields(&self) -> String {
        format!(
            "\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"nproc\": {}, \
             \"backend\": \"{}\", \"isa_tier\": \"{}\", \"git_rev\": \"{}\", \"profile\": \"{}\", \
             \"build_id\": \"{}\"",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.seconds,
            self.nproc,
            self.backend,
            self.isa_tier,
            self.git_rev,
            self.profile,
            self.build_id
        )
    }

    /// Human-readable summary.
    pub fn describe(&self) -> String {
        format!("provenance: {{{}}}", self.fields())
    }
}

/// The JIT's widest vector tier on this host (block widths 4 and 8; one
/// word always runs on general-purpose registers), as the engine probes
/// it, or `none` when the interpreter runs.
pub fn isa_tier(backend: &str) -> &'static str {
    if backend != "jit" {
        return "none";
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            return "avx512";
        }
        "sse2"
    }
    #[cfg(not(target_arch = "x86_64"))]
    "none"
}

/// The checked-out revision, read from `.git` under the working
/// directory without running git (which would search parent
/// directories), or `unknown`.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a hash of the running executable, hex.
pub fn build_id() -> String {
    let Ok(bytes) = std::env::current_exe().and_then(std::fs::read) else {
        return "unknown".into();
    };
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    format!("{hash:016x}")
}

/// The log line for one run.
pub fn log_line(prov: &Provenance, correct: bool, tally: &Tally, metrics: &Metrics) -> String {
    format!(
        "{{{}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        prov.fields(),
        tally.attempted,
        tally.failed,
        metrics.render_all()
    )
}

/// Appends `line` to `<out>/results.jsonl`.
///
/// # Errors
///
/// Propagates directory-creation and write failures.
pub fn append(out: &Path, line: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out.join("results.jsonl"))?;
    writeln!(f, "{line}")
}

/// Earlier log lines, or none when the log does not exist yet.
pub fn earlier(out: &Path) -> Vec<String> {
    std::fs::read_to_string(out.join("results.jsonl"))
        .map(|t| t.lines().map(str::to_string).collect())
        .unwrap_or_default()
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[start..];
    let rest = rest.strip_prefix('"').map_or(rest, |r| r);
    let end = rest.find(['"', ',', '}'])?;
    Some(&rest[..end])
}

/// A metric's value in a log line.
pub fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = line.find(&key)? + key.len();
    let rest = &line[start..];
    rest[..rest.find([',', '}'])?].parse().ok()
}

/// Log lines of the same workload and build, optionally the same seed and
/// tracing mode.
pub fn matching<'a>(
    lines: &'a [String],
    prov: &Provenance,
    seed: Option<u64>,
    trace: Option<bool>,
) -> Vec<&'a str> {
    lines
        .iter()
        .map(String::as_str)
        .filter(|l| {
            field(l, "workload") == Some(prov.workload)
                && field(l, "build_id") == Some(&prov.build_id)
        })
        .filter(|l| seed.is_none_or(|s| field(l, "seed") == Some(&s.to_string())))
        .filter(|l| trace.is_none_or(|t| field(l, "trace") == Some(if t { "1" } else { "0" })))
        .collect()
}

/// Median of a metric over log lines that carry it.
pub fn median_of(lines: &[&str], name: &str) -> Option<f64> {
    let values: Vec<f64> = lines.iter().filter_map(|l| metric_in(l, name)).collect();
    (!values.is_empty()).then(|| median(&values))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prov(workload: &'static str, seed: u64, trace: bool) -> Provenance {
        Provenance {
            workload,
            seed,
            trace,
            seconds: 4,
            nproc: 2,
            backend: "jit",
            isa_tier: "avx512",
            git_rev: "abc".into(),
            profile: "release",
            build_id: "b1".into(),
        }
    }

    #[test]
    fn log_lines_round_trip_fields_and_metrics() {
        let mut m = Metrics::default();
        m.set("train_s", 1.25);
        m.set("pruned_luts", 321.0);
        let p = prov("train-mnist", 7, false);
        let line = log_line(
            &p,
            true,
            &Tally {
                attempted: 3,
                failed: 1,
                mismatched: 0,
            },
            &m,
        );
        assert_eq!(field(&line, "workload"), Some("train-mnist"));
        assert_eq!(field(&line, "seed"), Some("7"));
        assert_eq!(field(&line, "trace"), Some("0"));
        assert_eq!(metric_in(&line, "train_s"), Some(1.25));
        assert_eq!(metric_in(&line, "pruned_luts"), Some(321.0));
        assert_eq!(metric_in(&line, "setup_s"), None);

        let other = log_line(&prov("score-batch", 7, false), true, &Tally::default(), &m);
        let traced = log_line(&prov("train-mnist", 8, true), true, &Tally::default(), &m);
        let lines = vec![line.clone(), other, traced];
        assert_eq!(matching(&lines, &p, None, None).len(), 2);
        assert_eq!(matching(&lines, &p, Some(7), None).len(), 1);
        assert_eq!(matching(&lines, &p, None, Some(false)).len(), 1);
        assert_eq!(
            median_of(&matching(&lines, &p, None, None), "train_s"),
            Some(1.25)
        );
    }
}
