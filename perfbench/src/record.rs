//! The result record: metrics with their medians and quartiles, the exact
//! work counters, and the provenance of the run.

use crate::stats::Summary;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

/// Everything one invocation measured.
#[derive(Debug, Clone, Default)]
pub struct Record {
    pub attempted: u64,
    pub failed: u64,
    /// Reported metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Exact work counters read from the program (`manifest.json`,
    /// `GET /metrics`); they repeat exactly between runs of one build.
    pub counters: Vec<(String, u64)>,
    /// Figures kept in the full record only (not in the final line).
    pub extra: Vec<Metric>,
}

impl Record {
    /// Adds a metric summarised from samples (skipped when there are none).
    pub fn add(&mut self, name: &'static str, unit: &'static str, values: &[f64]) {
        if let Some(summary) = Summary::of(values) {
            self.metrics.push(Metric {
                name,
                unit,
                summary,
            });
        }
    }

    /// Adds a single measured value.
    pub fn add_value(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.add(name, unit, &[value]);
    }

    /// Adds a full-record-only figure.
    pub fn add_extra(&mut self, name: &'static str, unit: &'static str, values: &[f64]) {
        if let Some(summary) = Summary::of(values) {
            self.extra.push(Metric {
                name,
                unit,
                summary,
            });
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The final stdout line: `correct`, `attempted`, `failed` and each
    /// metric's median with its unit.
    pub fn last_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.summary.median),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The full record: provenance, every metric with median, quartiles
    /// and sample count, the exact counters and the extra figures.
    pub fn full(&self, run: &RunInfo, provenance: &Provenance) -> String {
        let mut out = format!(
            "{{\"schema\": \"perfbench/1\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
             \"trace\": {}, \"provenance\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}",
            run.workload,
            run.seed,
            run.seconds,
            run.trace,
            provenance.to_json(),
            self.correct(),
            self.attempted,
            self.failed
        );
        for (key, list) in [("metrics", &self.metrics), ("extra", &self.extra)] {
            let _ = write!(out, ", \"{key}\": {{");
            for (i, m) in list.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let s = &m.summary;
                let _ = write!(
                    out,
                    "\"{}\": {{\"unit\": \"{}\", \"median\": {}, \"q1\": {}, \"q3\": {}, \"samples\": {}}}",
                    m.name,
                    m.unit,
                    number(s.median),
                    number(s.q1),
                    number(s.q3),
                    s.samples
                );
            }
            out.push('}');
        }
        out.push_str(", \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {value}");
        }
        out.push_str("}}");
        out
    }
}

/// A finite number with all its digits (shortest round-trip form).
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The invocation's arguments.
#[derive(Debug, Clone)]
pub struct RunInfo {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Where and on what a record was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub nproc: usize,
    pub cpu_model: String,
    pub loadavg: String,
    pub rustc: String,
    pub git_rev: String,
    pub source_digest: String,
}

impl Provenance {
    /// Collects provenance for the checkout at `root`.
    pub fn collect(root: &Path) -> Provenance {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let loadavg = std::fs::read_to_string("/proc/loadavg")
            .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
            .unwrap_or_else(|_| "unknown".to_string());
        Provenance {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model,
            loadavg,
            rustc: command_line("rustc", &["--version"], root),
            git_rev: command_line("git", &["rev-parse", "HEAD"], root),
            source_digest: format!("{:016x}", source_digest(root)),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"loadavg\": \"{}\", \"rustc\": \"{}\", \
             \"git_rev\": \"{}\", \"source_digest\": \"{}\"}}",
            self.nproc,
            escape(&self.cpu_model),
            escape(&self.loadavg),
            escape(&self.rustc),
            escape(&self.git_rev),
            self.source_digest
        )
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .map(|c| if c == '"' || c == '\\' { ' ' } else { c })
        .collect()
}

/// First stdout line of a command, or `unknown` (a checkout without git
/// metadata has no revision; the source digest still identifies it).
fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the path and bytes of every `.rs`/`.toml`/`.lock` file of
/// the program (`Cargo.*` and `crates/`), in sorted path order.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    collect(&root.join("crates"), &mut files);
    for top in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(top));
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            feed(
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            feed(&bytes);
        }
    }
    h
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml" | "lock")
        ) {
            out.push(path);
        }
    }
}
