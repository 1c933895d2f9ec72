//! Hostility tests for the Prometheus text parser behind
//! [`obs::merge_prometheus`]: a coordinator's `/metrics/cluster` parses
//! every worker's `/metrics` page, so a truncated, corrupted or
//! malicious page must degrade the merge — skipped lines, odd values —
//! and never panic.

use obs::{merge_prometheus, Registry};
use std::time::{Duration, Instant};

/// A real worker page: labelled and bare counters, a gauge, labelled
/// and bare histograms, and a label value that needs every escape.
fn worker_page() -> String {
    let r = Registry::new();
    r.counter_with(
        "mpmb_requests_total",
        "Requests served.",
        &[("endpoint", "solve"), ("status", "200")],
    )
    .add(41);
    r.counter_with(
        "mpmb_requests_total",
        "Requests served.",
        &[("endpoint", "count"), ("status", "other")],
    )
    .add(2);
    r.counter("mpmb_trials_executed_total", "Trials run.")
        .add(123_456);
    r.gauge("mpmb_inflight", "In-flight requests.").set(3);
    r.gauge_with(
        "mpmb_graph_resident_bytes",
        "Resident bytes per graph.",
        &[("graph", "a\\b\"c\nd")],
    )
    .set(4096);
    let h = r.histogram_with(
        "mpmb_solver_phase_seconds",
        "Phase time.",
        &[0.001, 0.01, 0.1, 1.0],
        &[("phase", "os.sample")],
    );
    for v in [0.0005, 0.02, 0.3, 7.0] {
        h.observe(v);
    }
    r.histogram("mpmb_request_duration_seconds", "Latency.", &[0.005, 0.05])
        .observe(0.004);
    r.render()
}

/// Merges `page` as one node's scrape next to an intact one.
fn merge_with_intact(page: &str) -> String {
    merge_prometheus(&[
        ("w1:1".to_string(), worker_page()),
        ("w2:2".to_string(), page.to_string()),
    ])
}

#[test]
fn the_real_page_merges_and_re_merges() {
    let page = worker_page();
    assert!(page.contains("mpmb_solver_phase_seconds_bucket{phase=\"os.sample\",le=\"0.01\"} 1\n"));
    let merged = merge_with_intact(&page);
    assert!(
        merged.contains("mpmb_trials_executed_total 246912\n"),
        "{merged}"
    );
    assert!(
        merged.contains("mpmb_inflight{node=\"w2:2\"} 3\n"),
        "{merged}"
    );
    assert!(
        merged.contains("mpmb_graph_resident_bytes{graph=\"a\\\\b\\\"c\\nd\"} 4096\n"),
        "{merged}"
    );
    // The merged page is itself a page the parser reads.
    let again = merge_prometheus(&[("c".to_string(), merged)]);
    assert!(
        again.contains("mpmb_trials_executed_total 246912\n"),
        "{again}"
    );
}

#[test]
fn every_prefix_merges_without_panicking() {
    let page = worker_page();
    for cut in 0..=page.len() {
        let Some(prefix) = page.get(..cut) else {
            continue; // inside a multi-byte character
        };
        let merged = merge_with_intact(prefix);
        // The intact node's series always survive a truncated peer.
        assert!(
            merged.contains("mpmb_inflight{node=\"w1:1\"} 3\n"),
            "cut {cut} lost the intact node"
        );
    }
}

#[test]
fn every_single_bit_flip_merges_without_panicking() {
    let page = worker_page();
    let bytes = page.as_bytes();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.to_vec();
            flipped[i] ^= 1 << bit;
            let Ok(text) = std::str::from_utf8(&flipped) else {
                continue; // scrapes are read as UTF-8 before parsing
            };
            let merged = merge_with_intact(text);
            assert!(merged.contains("mpmb_inflight{node=\"w1:1\"} 3\n"));
        }
    }
}

#[test]
fn broken_label_syntax_skips_the_line() {
    for line in [
        "x{a=\"unterminated 1",
        "x{a=\"unterminated} 1",
        "x{a=\"trailing backslash\\",
        "x{a=\"trailing backslash\\\" 1",
        "x{a=\"v\"",
        "x{a=\"v\" 1",
        "x{a=v} 1",
        "x{=\"\"} 1",
        "x{a=\"v\",,} 1",
        "x{",
        "{",
        "{} 1",
        "x{a=\"\\",
        "\\",
        "\"",
    ] {
        let page = format!("# TYPE x gauge\n{line}\nok 2\n");
        let merged = merge_with_intact(&page);
        assert!(
            merged.contains("ok{node=\"w2:2\"} 2\n"),
            "{line:?}:\n{merged}"
        );
    }
}

#[test]
fn non_finite_and_huge_values_do_not_panic() {
    for value in [
        "NaN",
        "nan",
        "Inf",
        "+Inf",
        "-Inf",
        "inf",
        "1e999999",
        "-1e999999",
        "1e-999999",
        "0x10",
        "1_000",
        "",
        " ",
        "--1",
        "1e",
        "18446744073709551616",
    ] {
        let page = format!(
            "# TYPE c counter\nc {value}\n# TYPE g gauge\ng {value}\n\
             # TYPE h histogram\nh_bucket{{le=\"{value}\"}} {value}\nh_sum {value}\nh_count {value}\n"
        );
        let merged = merge_with_intact(&page);
        // Merging a page that already holds such values again is fine too.
        let _ = merge_prometheus(&[("a".into(), merged.clone()), ("b".into(), merged)]);
    }
}

#[test]
fn duplicate_metadata_lines_do_not_panic() {
    let page = "# HELP d first help\n# HELP d second help\n# TYPE d counter\n\
                # TYPE d gauge\n# TYPE d histogram\nd 1\nd_bucket{le=\"1\"} 1\n\
                # HELP d\n# TYPE d\n# TYPE\n# HELP\n# TYPE  \nd_count 1\n";
    let merged = merge_with_intact(page);
    assert!(merged.contains("# HELP d "), "{merged}");
    // A metadata name colliding with a real family of the intact node.
    let clash = "# TYPE mpmb_inflight histogram\nmpmb_inflight_bucket{le=\"1\"} 1\n\
                 # TYPE mpmb_trials_executed_total gauge\nmpmb_trials_executed_total 1\n";
    let merged = merge_with_intact(clash);
    assert!(
        merged.contains("mpmb_inflight{node=\"w1:1\"} 3\n"),
        "{merged}"
    );
}

#[test]
fn bucket_without_le_and_orphan_suffixes_do_not_panic() {
    let page = "# TYPE h histogram\nh_bucket 4\nh_bucket{} 5\nh_bucket{phase=\"x\"} 6\n\
                h_sum{le=\"1\"} 1\nh_count{le=\"+Inf\"} 2\norphan_bucket{le=\"1\"} 3\n\
                _bucket 1\n_sum 1\n_count 1\n";
    let merged = merge_with_intact(page);
    assert!(
        merged.contains("orphan_bucket{le=\"1\",node=\"w2:2\"} 3\n"),
        "{merged}"
    );
}

#[test]
fn odd_whitespace_and_control_bytes_do_not_panic() {
    for page in [
        "\r\n\r\nx 1\r\n",
        "\t\t# TYPE x gauge\t\nx\t1\n",
        "x  1\n x 1\n",
        "\0 1\nx\u{0}1\n",
        "# \n#\n##\n# HELP x \u{1F600}\nx{e=\"\u{1F600}\"} 1\n",
        "x 1 2 3\nx 1 1700000000000\n",
    ] {
        let _ = merge_with_intact(page);
    }
}

/// Merges `page` as one node's scrape next to an intact one, and
/// returns the merged text with the wall time the merge took.
fn timed_merge(page: &str) -> (String, Duration) {
    let start = Instant::now();
    let merged = merge_with_intact(page);
    (merged, start.elapsed())
}

/// A bound for merging a page of 20,000 names, label sets or bucket
/// bounds. Families, label sets and bounds are looked up by hash, so
/// the merge is linear in the page. On a 2-vCPU host these pages merged
/// in 0.25–0.28 s in a debug build and 0.04–0.06 s in a release build.
/// A linear scan per line made the same merges quadratic: 2.1–10.4 s in
/// a debug build and 0.47–2.6 s in a release build, the 20,000-name
/// page slowest.
const LARGE_PAGE_BOUND: Duration = if cfg!(debug_assertions) {
    Duration::from_secs(1)
} else {
    Duration::from_millis(250)
};

#[test]
fn a_page_of_twenty_thousand_names_merges_in_linear_time() {
    let mut page = String::new();
    for i in 0..20_000 {
        page.push_str(&format!(
            "# HELP m{i}_total Help {i}.\n# TYPE m{i}_total counter\nm{i}_total {i}\n"
        ));
    }
    let (merged, took) = timed_merge(&page);
    assert!(took < LARGE_PAGE_BOUND, "took {took:?}");
    assert!(merged.contains("# TYPE m19999_total counter\nm19999_total 19999\n"));
    // The intact node's families keep their first-seen place, ahead of
    // the large page's.
    let intact = merged.find("mpmb_inflight 3\n").unwrap();
    assert!(intact < merged.find("m0_total 0\n").unwrap());
}

#[test]
fn a_family_of_twenty_thousand_label_sets_merges_in_linear_time() {
    let mut page = String::from("# TYPE c counter\n");
    for i in 0..20_000 {
        page.push_str(&format!("c{{k=\"{i}\"}} 1\n"));
    }
    let (merged, took) = timed_merge(&page);
    assert!(took < LARGE_PAGE_BOUND, "took {took:?}");
    assert!(merged.contains("c{k=\"19999\"} 1\n"));
}

#[test]
fn a_histogram_of_twenty_thousand_buckets_merges_in_linear_time() {
    let mut page = String::from("# TYPE h histogram\n");
    for i in 0..20_000 {
        page.push_str(&format!("h_bucket{{le=\"{i}\"}} 1\n"));
    }
    let (merged, took) = timed_merge(&page);
    assert!(took < LARGE_PAGE_BOUND, "took {took:?}");
    assert!(merged.contains("h_bucket{le=\"19999\"} 1\n"));
}
