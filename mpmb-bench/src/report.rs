//! Metric records, host provenance, and the two output forms: the full
//! report and the one-line result.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Observations behind the value (requests, set-ups, spans…).
    pub samples: usize,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.0.push(Metric {
            name: name.into(),
            // An empty float sum is -0.0; report it as plain 0.
            value: value + 0.0,
            unit,
            samples,
        });
    }

    fn to_json(&self, with_samples: bool) -> Json {
        Json::obj(self.0.iter().map(|m| {
            let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
            if with_samples {
                fields.push(("samples", Json::Num(m.samples as f64)));
            }
            (m.name.as_str(), Json::obj(fields))
        }))
    }
}

/// What one run did and measured.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    /// Every failed request, mismatch or failed check, in words.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics.to_json(false)),
        ])
    }

    /// The full report: provenance, sample counts and every problem.
    pub fn report(&self, provenance: Json, run: Json) -> Json {
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        Json::obj([
            ("provenance", provenance),
            ("run", run),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("error_rate", Json::Num(error_rate)),
            ("metrics", self.metrics.to_json(true)),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
        ])
    }
}

/// The host facts a comparison must match before it means anything.
pub const HOST_KEYS: [&str; 3] = ["nproc", "cpu", "rustc"];

pub fn provenance(root: &Path) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::str(cpu)),
        ("rustc", Json::str(rustc)),
        ("commit", Json::str(git_commit(root))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

/// The checked-out commit read straight from `.git`; `unknown` outside
/// a git checkout.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}
