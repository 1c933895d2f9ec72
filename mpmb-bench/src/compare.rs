//! `mpmb-bench compare`: parent runs against change runs, one row per
//! workload and end-to-end metric.
//!
//! The rule: pair the i-th parent run with the i-th change run (run
//! them alternating). A metric whose median worsens by more than its
//! `BENCHMARK.json` bound is a regression, however wide the spread. A
//! gain needs at least ten pairs, the change to win at least nine
//! tenths of them, ties counting for neither, a median gap wider than
//! the parent's interquartile range, and no more failed operations on
//! the change side than on the parent side. A metric that is neither,
//! and whose run-to-run spread is wider than its bound, is unresolved
//! rather than unchanged, unless every change run beats every parent
//! run. Runs from different hosts are flagged, not compared; a change
//! run that failed its correctness checks is flagged and fails the
//! comparison.

use crate::json::Json;
use crate::report::HOST_KEYS;
use crate::stats::quartiles;
use std::collections::BTreeMap;

/// Fewest parent/change pairs a gain may rest on.
const MIN_PAIRS: usize = 10;

struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

struct Run {
    file: String,
    host: Vec<String>,
    workload: String,
    /// The run's own verdict on its answers.
    correct: bool,
    /// Operations that failed (errors, wrong answers, gate mismatches).
    failed: usize,
    metrics: Json,
}

fn load(path: &str) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_run(path, &text)
}

/// One `--out` report, read from `text`; `path` names it in errors.
fn parse_run(path: &str, text: &str) -> Result<Run, String> {
    let v = Json::parse(text).map_err(|e| format!("{path}: {e}"))?;
    let prov = v
        .get("provenance")
        .ok_or(format!("{path}: no provenance"))?;
    let run = v.get("run").ok_or(format!("{path}: no run section"))?;
    if run.get("trace").and_then(Json::as_f64) != Some(0.0) {
        return Err(format!("{path}: a traced run; compare untraced runs only"));
    }
    Ok(Run {
        file: path.to_string(),
        host: HOST_KEYS
            .iter()
            .map(|k| prov.get(k).map_or("?".into(), |v| v.to_string()))
            .collect(),
        workload: run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}: no workload"))?
            .to_string(),
        correct: v.get("correct") == Some(&Json::Bool(true)),
        failed: v
            .get("failed")
            .and_then(Json::as_f64)
            .ok_or(format!("{path}: no failed count"))? as usize,
        metrics: v
            .get("metrics")
            .cloned()
            .ok_or(format!("{path}: no metrics"))?,
    })
}

fn bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    v.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no end_to_end list"))?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .into(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Gain,
    Regression,
    Unresolved,
    Unchanged,
    HostMismatch,
}

impl Verdict {
    fn name(&self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
            Verdict::HostMismatch => "host-mismatch",
        }
    }
}

pub struct Row {
    pub parent: [f64; 3],
    pub change: [f64; 3],
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Applies the rule to one metric on one workload. `more_failures`:
/// the change side failed more operations than the parent side.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    lower_is_better: bool,
    bound: f64,
    more_failures: bool,
) -> Row {
    let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let (pq, cq) = (quartiles(parent), quartiles(change));
    let scale = |m: f64| if m == 0.0 { 1.0 } else { m.abs() };
    let spread = ((pq[2] - pq[0]) / scale(pq[1])).max((cq[2] - cq[0]) / scale(cq[1]));
    let worse_by = if lower_is_better {
        cq[1] - pq[1]
    } else {
        pq[1] - cq[1]
    } / scale(pq[1]);
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict = if worse_by > bound {
        Verdict::Regression
    } else if pairs >= MIN_PAIRS
        && !more_failures
        && wins * 10 >= pairs * 9
        && better(cq[1], pq[1])
        && (cq[1] - pq[1]).abs() > pq[2] - pq[0]
    {
        Verdict::Gain
    } else if spread > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Row {
        parent: pq,
        change: cq,
        wins,
        pairs,
        verdict,
    }
}

/// `compare --parent FILE… --change FILE… [--bounds BENCHMARK.json]`.
pub fn main(args: &[String]) -> Result<i32, String> {
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut side: Option<&mut Vec<Run>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            "--bounds" => bounds_path = it.next().ok_or("--bounds needs a file")?.clone(),
            file => side
                .as_mut()
                .ok_or("name --parent or --change before the files")?
                .push(load(file)?),
        }
    }
    if parent.is_empty() || change.is_empty() {
        return Err("compare needs --parent FILE… and --change FILE…".into());
    }
    let bounds = bounds(&bounds_path)?;

    for r in parent.iter().chain(&change).filter(|r| !r.correct) {
        eprintln!(
            "incorrect run: {} ({} failed operations; see its problems)",
            r.file, r.failed
        );
    }
    let incorrect_changes = change.iter().filter(|r| !r.correct).count();

    let hosts: Vec<&Run> = parent.iter().chain(&change).collect();
    let host_mismatch = hosts.iter().any(|r| r.host != hosts[0].host);
    if host_mismatch {
        eprintln!("host mismatch: these runs come from different hosts; not comparing");
        for r in &hosts {
            eprintln!("  {}: {}", r.file, r.host.join(" | "));
        }
    }

    let mut by_workload: BTreeMap<&str, (Vec<&Run>, Vec<&Run>)> = BTreeMap::new();
    for r in &parent {
        by_workload.entry(&r.workload).or_default().0.push(r);
    }
    for r in &change {
        by_workload.entry(&r.workload).or_default().1.push(r);
    }
    let value = |r: &Run, name: &str| {
        r.metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };

    println!(
        "{:<12} {:<16} {:>30} {:>30} {:>6} {:>7}  verdict",
        "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "wins", "bound"
    );
    let mut rows = Vec::new();
    let (mut regressions, mut unresolved) = (0, 0);
    for (workload, (p_runs, c_runs)) in &by_workload {
        let failed = |runs: &[&Run]| runs.iter().map(|r| r.failed).sum::<usize>();
        let more_failures = failed(c_runs) > failed(p_runs);
        for b in &bounds {
            let p: Vec<f64> = p_runs.iter().filter_map(|r| value(r, &b.name)).collect();
            let c: Vec<f64> = c_runs.iter().filter_map(|r| value(r, &b.name)).collect();
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let mut row = judge(&p, &c, b.lower_is_better, b.bound, more_failures);
            if host_mismatch {
                row.verdict = Verdict::HostMismatch;
            }
            regressions += usize::from(row.verdict == Verdict::Regression);
            unresolved += usize::from(row.verdict == Verdict::Unresolved);
            let fmt = |q: [f64; 3]| format!("{:.4}/{:.4}/{:.4}", q[0], q[1], q[2]);
            println!(
                "{:<12} {:<16} {:>30} {:>30} {:>6} {:>7}  {}",
                workload,
                b.name,
                fmt(row.parent),
                fmt(row.change),
                format!("{}/{}", row.wins, row.pairs),
                b.bound,
                row.verdict.name()
            );
            let q = |q: [f64; 3]| Json::Arr(q.iter().map(|&v| Json::Num(v)).collect());
            rows.push(Json::obj([
                ("workload", Json::str(*workload)),
                ("metric", Json::str(&b.name)),
                ("parent_quartiles", q(row.parent)),
                ("change_quartiles", q(row.change)),
                ("wins", Json::Num(row.wins as f64)),
                ("pairs", Json::Num(row.pairs as f64)),
                ("verdict", Json::str(row.verdict.name())),
            ]));
        }
    }
    println!(
        "{}",
        Json::obj([
            ("host_mismatch", Json::Bool(host_mismatch)),
            ("incorrect_change_runs", Json::Num(incorrect_changes as f64)),
            ("regressions", Json::Num(regressions as f64)),
            ("unresolved", Json::Num(unresolved as f64)),
            ("rows", Json::Arr(rows)),
        ])
    );
    eprintln!("{regressions} regression(s), {unresolved} unresolved");
    Ok(i32::from(
        host_mismatch || regressions > 0 || incorrect_changes > 0,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PARENT: [f64; 10] = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 10.2];

    #[test]
    fn a_consistent_win_beyond_the_parents_spread_is_a_gain() {
        let change = PARENT.map(|v| v * 0.8);
        let row = judge(&PARENT, &change, true, 0.1, false);
        assert_eq!(row.verdict, Verdict::Gain);
        assert_eq!((row.wins, row.pairs), (10, 10));
    }

    #[test]
    fn fewer_than_ten_pairs_is_not_a_gain() {
        let change = PARENT.map(|v| v * 0.8);
        assert_eq!(
            judge(&PARENT[..9], &change[..9], true, 0.1, false).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_win_with_more_failures_than_the_parent_is_not_a_gain() {
        let change = PARENT.map(|v| v * 0.8);
        assert_eq!(
            judge(&PARENT, &change, true, 0.1, true).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_report_keeps_its_correctness_and_failure_count() {
        let report = |correct: bool, failed: u32| {
            format!(
                r#"{{"provenance":{{"nproc":2,"cpu":"x","rustc":"r"}},"run":{{"workload":"os-open","trace":0}},"correct":{correct},"attempted":100,"failed":{failed},"metrics":{{}}}}"#
            )
        };
        let bad = parse_run("bad", &report(false, 3)).unwrap();
        assert!(!bad.correct);
        assert_eq!(bad.failed, 3);
        let good = parse_run("good", &report(true, 0)).unwrap();
        assert!(good.correct);
        assert_eq!(good.failed, 0);
        let no_count = report(true, 0).replace(r#""failed":0,"#, "");
        assert!(parse_run("x", &no_count).is_err());
    }

    #[test]
    fn eight_wins_in_ten_is_not_a_gain() {
        let parent = [10.0; 10];
        let mut change = [9.0; 10];
        change[0] = 11.0;
        change[1] = 11.0;
        assert_eq!(
            judge(&parent, &change, true, 0.1, false).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn worse_beyond_the_bound_is_a_regression_in_either_direction() {
        let parent = [100.0, 101.0, 99.0, 100.0];
        let slower = [120.0, 121.0, 119.0, 120.0];
        assert_eq!(
            judge(&parent, &slower, true, 0.1, false).verdict,
            Verdict::Regression
        );
        assert_eq!(
            judge(&slower, &parent, false, 0.1, false).verdict,
            Verdict::Regression
        );
        assert_eq!(
            judge(&parent, &parent, true, 0.1, false).verdict,
            Verdict::Unchanged
        );
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent = [50.0, 100.0, 150.0, 80.0, 120.0];
        let change = [60.0, 110.0, 140.0, 90.0, 130.0];
        assert_eq!(
            judge(&parent, &change, true, 0.1, false).verdict,
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_wide_spread_does_not_hide_a_regression() {
        // Spread 0.5 against a bound of 0.25, and every change run is
        // worse than every parent run by more than the bound.
        let parent = [
            50.0, 100.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 130.0,
        ];
        let change = parent.map(|v| v + 200.0);
        assert_eq!(
            judge(&parent, &change, true, 0.25, false).verdict,
            Verdict::Regression
        );
    }
}
