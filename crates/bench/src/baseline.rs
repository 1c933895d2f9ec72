//! Baseline comparison for the bench binaries' committed JSON outputs.
//!
//! CI's perf-smoke job runs `solver_bench --baseline BENCH_solvers.json
//! --max-regression 0.30` and wants the run to fail only when throughput
//! drops more than the tolerance below the committed figure. The bench
//! output is produced by hand-rolled formatting, so the reader here is a
//! matching hand-rolled scanner — it extracts exactly the fields the
//! comparison needs instead of pulling in a JSON dependency.

/// Extracts the sequential `trials_per_sec` recorded for `method` in a
/// `solver_bench` JSON document. Returns `None` when the method (or the
/// field) is absent, which callers treat as "no baseline to hold".
pub fn sequential_trials_per_sec(json: &str, method: &str) -> Option<f64> {
    let needle = format!("\"method\": \"{method}\"");
    let at = json.find(&needle)? + needle.len();
    let rest = &json[at..];
    // The sequential block is emitted right after the method name and
    // carries the first trials_per_sec in the method object.
    let key = "\"trials_per_sec\": ";
    let kat = rest.find(key)? + key.len();
    parse_leading_f64(&rest[kat..])
}

/// Parses the longest numeric prefix (digits, sign, dot, exponent).
fn parse_leading_f64(s: &str) -> Option<f64> {
    let end = s
        .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(s.len());
    s[..end].parse().ok()
}

/// Whether `current` throughput regresses more than `max_regression`
/// (a fraction, e.g. 0.30) below `baseline`. Higher is better.
pub fn regressed(current: f64, baseline: f64, max_regression: f64) -> bool {
    current < baseline * (1.0 - max_regression)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "phase": "solvers",
  "methods": [
    {
      "method": "os",
      "trials": 2000,
      "sequential": {"secs": 0.5, "trials_per_sec": 4000.0},
      "runs": [
        {"threads": 2, "secs": 0.25, "trials_per_sec": 8000.0, "identical": true}
      ]
    },
    {
      "method": "ols",
      "sequential": {"secs": 1.0, "trials_per_sec": 2100.5}
    }
  ]
}"#;

    #[test]
    fn reads_the_sequential_figure_per_method() {
        assert_eq!(sequential_trials_per_sec(SAMPLE, "os"), Some(4000.0));
        assert_eq!(sequential_trials_per_sec(SAMPLE, "ols"), Some(2100.5));
        assert_eq!(sequential_trials_per_sec(SAMPLE, "mcvp"), None);
    }

    #[test]
    fn regression_gate_is_one_sided() {
        // 30% tolerance: 69 of 100 fails, 70 passes, faster always passes.
        assert!(regressed(69.0, 100.0, 0.30));
        assert!(!regressed(70.0, 100.0, 0.30));
        assert!(!regressed(250.0, 100.0, 0.30));
    }
}
