//! Prometheus text-format parsing and cluster federation merge.
//!
//! A coordinator scrapes each healthy worker's `/metrics` and merges
//! the exposition streams into one: per family, an **aggregate** series
//! set (counters summed, gauges maxed, histograms merged bucket-wise —
//! bucket bounds are identical across nodes by construction, every node
//! registers the same fixed-bound families) followed by the per-node
//! series with a `node` label joined on. The parser accepts exactly the
//! dialect [`crate::Registry::render`] emits (`# HELP`/`# TYPE` lines,
//! `name{labels} value` samples, `\\`/`\"`/`\n` label escapes) and
//! skips anything it cannot read — a malformed scrape degrades, never
//! panics. Families, label sets and bucket bounds are looked up by
//! hash, so a merge costs time linear in the pages, however many
//! distinct names a page holds.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::Hash;

/// Most families read from one page; lines of further families are
/// skipped. A worker registers well under a hundred, so this bounds
/// only what a runaway or hostile page can make the merge hold.
const MAX_FAMILIES_PER_PAGE: usize = 1 << 15;

/// Values in first-seen order, looked up by key in O(1): the merged
/// page renders in first-seen order, and a linear lookup made a page of
/// N distinct names or label sets cost O(N²) to merge.
struct Indexed<K, V> {
    index: HashMap<K, usize>,
    entries: Vec<(K, V)>,
}

impl<K: Hash + Eq + Clone, V> Indexed<K, V> {
    fn new() -> Self {
        Indexed {
            index: HashMap::new(),
            entries: Vec::new(),
        }
    }

    fn get<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.index.get(key).map(|&i| &self.entries[i].1)
    }

    /// The value under `key`, inserted from `make` when absent.
    fn entry<Q>(&mut self, key: &Q, make: impl FnOnce() -> V) -> &mut V
    where
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
        K: Borrow<Q>,
    {
        let i = match self.index.get(key) {
            Some(&i) => i,
            None => {
                self.entries.push((key.to_owned(), make()));
                self.index.insert(key.to_owned(), self.entries.len() - 1);
                self.entries.len() - 1
            }
        };
        &mut self.entries[i].1
    }
}

/// One parsed sample line: the full sample name (including any
/// `_bucket`/`_sum`/`_count` suffix), its labels in source order, and
/// the value.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// A family parsed from one scrape: metadata plus its samples in
/// source order.
#[derive(Debug, Clone)]
struct ParsedFamily {
    help: String,
    kind: String,
    samples: Vec<Sample>,
}

fn unescape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Parses `{k="v",…}` starting after the `{`; returns the labels and
/// the rest of the line after the closing `}`.
fn parse_labels(s: &str) -> Option<(Vec<(String, String)>, &str)> {
    let mut labels = Vec::new();
    let mut rest = s;
    loop {
        rest = rest.trim_start_matches(',');
        if let Some(after) = rest.strip_prefix('}') {
            return Some((labels, after));
        }
        let eq = rest.find("=\"")?;
        let key = rest[..eq].to_string();
        let mut value = String::new();
        let mut chars = rest[eq + 2..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => {
                    value = rest[eq + 2..eq + 2 + i].to_string();
                    end = Some(eq + 2 + i + 1);
                    break;
                }
                _ => {}
            }
        }
        rest = &rest[end?..];
        labels.push((key, unescape_label(&value)));
    }
}

fn parse_sample(line: &str) -> Option<Sample> {
    let (name, labels, rest) = match line.find('{') {
        Some(brace) if brace < line.find(' ').unwrap_or(usize::MAX) => {
            let (labels, rest) = parse_labels(&line[brace + 1..])?;
            (line[..brace].to_string(), labels, rest)
        }
        _ => {
            let sp = line.find(' ')?;
            (line[..sp].to_string(), Vec::new(), &line[sp..])
        }
    };
    let value: f64 = rest.trim().parse().ok()?;
    Some(Sample {
        name,
        labels,
        value,
    })
}

/// Parses one exposition stream into families, keyed by name. Samples
/// that precede any `# TYPE` for their family land in an implicit
/// `untyped` family. Past [`MAX_FAMILIES_PER_PAGE`] families, lines
/// naming a new one are skipped.
fn parse(text: &str) -> Indexed<String, ParsedFamily> {
    fn family<'f>(
        families: &'f mut Indexed<String, ParsedFamily>,
        name: &str,
    ) -> Option<&'f mut ParsedFamily> {
        if families.get(name).is_none() && families.entries.len() >= MAX_FAMILIES_PER_PAGE {
            return None;
        }
        Some(families.entry(name, || ParsedFamily {
            help: String::new(),
            kind: "untyped".to_string(),
            samples: Vec::new(),
        }))
    }
    let mut families = Indexed::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            if let Some((name, help)) = rest.split_once(' ') {
                if let Some(f) = family(&mut families, name) {
                    f.help = help.to_string();
                }
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            if let Some((name, kind)) = rest.split_once(' ') {
                if let Some(f) = family(&mut families, name) {
                    f.kind = kind.to_string();
                }
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some(sample) = parse_sample(line) else {
            continue;
        };
        // A histogram sample's family is its name minus the suffix.
        let family_name = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                let base = sample.name.strip_suffix(suf)?;
                families
                    .get(base)
                    .is_some_and(|f| f.kind == "histogram")
                    .then(|| base.to_string())
            })
            .unwrap_or_else(|| sample.name.clone());
        if let Some(f) = family(&mut families, &family_name) {
            f.samples.push(sample);
        }
    }
    families
}

type Labels = Vec<(String, String)>;

/// Aggregated state of one family across every scraped node.
struct MergedFamily {
    help: String,
    kind: String,
    /// Aggregate scalar series (counters summed / gauges maxed), keyed
    /// by label set in first-seen order.
    scalars: Indexed<Labels, f64>,
    /// Aggregate histogram series keyed by label set minus `le`.
    hists: Indexed<Labels, HistAgg>,
    /// Raw per-node samples, `(node, sample)`, in scrape order.
    per_node: Vec<(String, Sample)>,
}

struct HistAgg {
    /// Cumulative bucket values by `le` text, in first-seen order.
    buckets: Indexed<String, f64>,
    sum: f64,
    count: f64,
}

fn labels_without_le(labels: &[(String, String)]) -> (Vec<(String, String)>, Option<String>) {
    let mut le = None;
    let rest = labels
        .iter()
        .filter(|(k, v)| {
            if k == "le" {
                le = Some(v.clone());
                false
            } else {
                true
            }
        })
        .cloned()
        .collect();
    (rest, le)
}

fn fold_sample(merged: &mut MergedFamily, node: &str, sample: &Sample) {
    merged.per_node.push((node.to_string(), sample.clone()));
    match merged.kind.as_str() {
        // -0.0 is the exact additive identity, so a first sample keeps
        // its value bit for bit (a +0.0 start would turn -0 into 0).
        "counter" => *merged.scalars.entry(&sample.labels[..], || -0.0) += sample.value,
        "histogram" => {
            let (labels, le) = labels_without_le(&sample.labels);
            let agg = merged.hists.entry(&labels[..], || HistAgg {
                buckets: Indexed::new(),
                sum: 0.0,
                count: 0.0,
            });
            if sample.name.ends_with("_bucket") {
                let le = le.unwrap_or_else(|| "+Inf".to_string());
                *agg.buckets.entry(&le[..], || -0.0) += sample.value;
            } else if sample.name.ends_with("_sum") {
                agg.sum += sample.value;
            } else if sample.name.ends_with("_count") {
                agg.count += sample.value;
            }
        }
        // Gauges (and anything untyped) aggregate as a max: summing a
        // worker-count gauge across nodes would be nonsense, the peak is
        // the useful cluster-level reading.
        _ => {
            let v = merged.scalars.entry(&sample.labels[..], || sample.value);
            *v = v.max(sample.value);
        }
    }
}

fn render_labels(out: &mut String, labels: &[(String, String)], node: Option<&str>) {
    if labels.is_empty() && node.is_none() {
        return;
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(n) = node {
        parts.push(format!("node=\"{}\"", escape_label(n)));
    }
    let _ = write!(out, "{{{}}}", parts.join(","));
}

/// Merges Prometheus text scrapes from several nodes into one
/// exposition stream.
///
/// `scrapes` is `(node, text)` in membership order. Per family (first
/// seen wins the ordering and metadata), the output carries the
/// cluster aggregate first — counters summed, gauges maxed, histograms
/// merged bucket-wise per `le` — followed by every node's own series
/// re-emitted with a `node="<node>"` label appended, so dashboards can
/// show both the cluster total and the per-node breakdown from one
/// scrape.
pub fn merge_prometheus(scrapes: &[(String, String)]) -> String {
    let mut families: Indexed<String, MergedFamily> = Indexed::new();
    for (node, text) in scrapes {
        for (name, parsed) in parse(text).entries {
            let merged = families.entry(&name[..], || MergedFamily {
                help: parsed.help.clone(),
                kind: parsed.kind.clone(),
                scalars: Indexed::new(),
                hists: Indexed::new(),
                per_node: Vec::new(),
            });
            for sample in &parsed.samples {
                fold_sample(merged, node, sample);
            }
        }
    }

    let mut out = String::new();
    for (name, f) in &families.entries {
        let _ = writeln!(out, "# HELP {name} {}", f.help);
        let _ = writeln!(out, "# TYPE {name} {}", f.kind);
        for (labels, value) in &f.scalars.entries {
            out.push_str(name);
            render_labels(&mut out, labels, None);
            let _ = writeln!(out, " {value}");
        }
        for (hist_labels, h) in &f.hists.entries {
            for (le, value) in &h.buckets.entries {
                let mut labels = hist_labels.clone();
                labels.push(("le".to_string(), le.clone()));
                let _ = write!(out, "{name}_bucket");
                render_labels(&mut out, &labels, None);
                let _ = writeln!(out, " {value}");
            }
            let _ = write!(out, "{name}_sum");
            render_labels(&mut out, hist_labels, None);
            let _ = writeln!(out, " {}", h.sum);
            let _ = write!(out, "{name}_count");
            render_labels(&mut out, hist_labels, None);
            let _ = writeln!(out, " {}", h.count);
        }
        for (node, sample) in &f.per_node {
            out.push_str(&sample.name);
            render_labels(&mut out, &sample.labels, Some(node));
            let _ = writeln!(out, " {}", sample.value);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn worker_registry(requests: u64, inflight: i64, obs: &[f64]) -> Registry {
        let r = Registry::new();
        r.counter_with("mpmb_requests_total", "Requests.", &[("endpoint", "solve")])
            .add(requests);
        r.gauge("mpmb_inflight", "In-flight requests.")
            .set(inflight);
        let h = r.histogram("mpmb_request_seconds", "Latency.", &[0.01, 0.1, 1.0]);
        for &v in obs {
            h.observe(v);
        }
        r
    }

    #[test]
    fn round_trips_own_render_format() {
        let r = worker_registry(7, 3, &[0.005, 0.5]);
        let text = r.render();
        let families = parse(&text).entries;
        let names: Vec<&str> = families.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(
            names,
            [
                "mpmb_requests_total",
                "mpmb_inflight",
                "mpmb_request_seconds"
            ]
        );
        assert_eq!(families[0].1.kind, "counter");
        assert_eq!(
            families[0].1.samples[0].labels,
            vec![("endpoint".to_string(), "solve".to_string())]
        );
        assert_eq!(families[0].1.samples[0].value, 7.0);
        assert_eq!(families[2].1.kind, "histogram");
        // 3 finite buckets + +Inf + _sum + _count.
        assert_eq!(families[2].1.samples.len(), 6);
    }

    #[test]
    fn families_past_the_cap_are_skipped() {
        let mut page: String = (0..=MAX_FAMILIES_PER_PAGE)
            .map(|i| format!("m{i} 1\n"))
            .collect();
        page.push_str("# HELP m0 Still the first family.\nm0 2\n");
        let families = parse(&page);
        assert_eq!(families.entries.len(), MAX_FAMILIES_PER_PAGE);
        assert!(families
            .get(&format!("m{MAX_FAMILIES_PER_PAGE}")[..])
            .is_none());
        let first = families.get("m0").unwrap();
        assert_eq!(first.help, "Still the first family.");
        assert_eq!(first.samples.len(), 2);
    }

    #[test]
    fn merge_sums_counters_maxes_gauges_and_adds_node_labels() {
        let a = worker_registry(7, 3, &[0.005]).render();
        let b = worker_registry(5, 9, &[0.5]).render();
        let merged = merge_prometheus(&[("w1:1".to_string(), a), ("w2:2".to_string(), b)]);
        assert!(
            merged.contains("mpmb_requests_total{endpoint=\"solve\"} 12\n"),
            "counters sum:\n{merged}"
        );
        assert!(
            merged.contains("mpmb_inflight 9\n"),
            "gauges max:\n{merged}"
        );
        assert!(
            merged.contains("mpmb_requests_total{endpoint=\"solve\",node=\"w1:1\"} 7\n"),
            "per-node counter:\n{merged}"
        );
        assert!(
            merged.contains("mpmb_inflight{node=\"w2:2\"} 9\n"),
            "per-node gauge:\n{merged}"
        );
    }

    #[test]
    fn merge_folds_histograms_bucket_wise() {
        let a = worker_registry(1, 1, &[0.005, 0.005]).render();
        let b = worker_registry(1, 1, &[0.5]).render();
        let merged = merge_prometheus(&[("w1:1".to_string(), a), ("w2:2".to_string(), b)]);
        // Cumulative per le, summed across nodes: 2 obs ≤0.01 on w1,
        // 1 obs ≤1 on w2.
        assert!(merged.contains("mpmb_request_seconds_bucket{le=\"0.01\"} 2\n"));
        assert!(merged.contains("mpmb_request_seconds_bucket{le=\"1\"} 3\n"));
        assert!(merged.contains("mpmb_request_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(merged.contains("mpmb_request_seconds_count 3\n"));
        assert!(merged.contains("mpmb_request_seconds_sum 0.51\n"));
        assert!(merged.contains("mpmb_request_seconds_bucket{le=\"+Inf\",node=\"w2:2\"} 1\n"));
    }

    #[test]
    fn hostile_text_degrades_instead_of_panicking() {
        let junk = "no value line\nname{unterminated 5\n# TYPE lonely\n{} 3\nok 1.5\n";
        let merged = merge_prometheus(&[("n".to_string(), junk.to_string())]);
        assert!(merged.contains("ok 1.5\n"));
        assert!(merged.contains("ok{node=\"n\"} 1.5\n"));
        // Label values with escapes survive the round trip.
        let tricky = "# TYPE t gauge\nt{p=\"a\\\\b\\\"c\\nd\"} 1\n";
        let merged = merge_prometheus(&[("n".to_string(), tricky.to_string())]);
        assert!(merged.contains("t{p=\"a\\\\b\\\"c\\nd\"} 1\n"), "{merged}");
        assert!(merged.contains("t{p=\"a\\\\b\\\"c\\nd\",node=\"n\"} 1\n"));
    }

    #[test]
    fn empty_scrape_list_renders_empty() {
        assert_eq!(merge_prometheus(&[]), "");
    }
}
