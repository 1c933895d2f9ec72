//! Plain-text edge-list serialization.
//!
//! Format: one edge per line, `LEFT_ID<TAB>RIGHT_ID<TAB>WEIGHT<TAB>PROB`,
//! `#`-prefixed comment lines and blank lines ignored. This is the lingua
//! franca of the uncertain-graph literature's dataset dumps (the STRING
//! protein download, KONECT exports, etc.), so real data drops in directly.

use crate::builder::{BuildError, GraphBuilder};
use crate::graph::UncertainBipartiteGraph;
use crate::types::{Left, Right};
use std::fmt;
use std::io::{BufRead, Write};

/// Errors raised while parsing an edge list.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of the problem.
        msg: String,
    },
    /// The parsed edges failed graph validation.
    Build(BuildError),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            IoError::Build(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<BuildError> for IoError {
    fn from(e: BuildError) -> Self {
        IoError::Build(e)
    }
}

impl From<crate::storage::StorageError> for IoError {
    fn from(e: crate::storage::StorageError) -> Self {
        match e {
            crate::storage::StorageError::Io(io) => IoError::Io(io),
            crate::storage::StorageError::Format(c) => IoError::Parse {
                line: 0,
                msg: format!("container: {c}"),
            },
        }
    }
}

/// Reads an uncertain bipartite graph from tab- or space-separated text.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<UncertainBipartiteGraph, IoError> {
    let mut b = GraphBuilder::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let mut field = |name: &str| {
            it.next().ok_or_else(|| IoError::Parse {
                line: lineno,
                msg: format!("missing field `{name}`"),
            })
        };
        let u: u32 = parse(field("left")?, lineno, "left id")?;
        let v: u32 = parse(field("right")?, lineno, "right id")?;
        let w: f64 = parse(field("weight")?, lineno, "weight")?;
        let p: f64 = parse(field("prob")?, lineno, "probability")?;
        if it.next().is_some() {
            return Err(IoError::Parse {
                line: lineno,
                msg: "trailing fields".into(),
            });
        }
        b.add_edge(Left(u), Right(v), w, p)
            .map_err(IoError::Build)?;
    }
    Ok(b.build()?)
}

fn parse<T: std::str::FromStr>(s: &str, line: usize, what: &str) -> Result<T, IoError> {
    s.parse().map_err(|_| IoError::Parse {
        line,
        msg: format!("cannot parse {what} from `{s}`"),
    })
}

/// Reads a graph by path, dispatching on the leading magic so callers
/// can pass text edge lists or `UBGCONT1` containers interchangeably.
pub fn read_auto(path: &std::path::Path) -> Result<UncertainBipartiteGraph, IoError> {
    let file = std::fs::File::open(path)?;
    let mut reader = std::io::BufReader::new(file);
    let peek = reader.fill_buf()?;
    if peek.starts_with(crate::storage::CONTAINER_MAGIC) {
        drop(reader);
        Ok(crate::storage::read_container_path(path)?)
    } else {
        read_edge_list(reader)
    }
}

/// Writes a graph in the same format, with a header comment.
pub fn write_edge_list<W: Write>(g: &UncertainBipartiteGraph, mut w: W) -> std::io::Result<()> {
    writeln!(
        w,
        "# uncertain bipartite graph: |L|={} |R|={} |E|={}",
        g.num_left(),
        g.num_right(),
        g.num_edges()
    )?;
    writeln!(w, "# left\tright\tweight\tprob")?;
    for (e, (u, v)) in g.edge_ids().zip(g.edge_endpoints()) {
        writeln!(w, "{}\t{}\t{}\t{}", u.0, v.0, g.weight(e), g.prob(e))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_preserves_graph() {
        let text = "\
# demo
0\t0\t2\t0.5
0\t1\t2\t0.6
1 0 3 0.3

1 1 3 0.4
";
        let g = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(g.num_edges(), 4);
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let g2 = read_edge_list(Cursor::new(out)).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        assert_eq!(g.edge_endpoints(), g2.edge_endpoints());
        for e in g.edge_ids() {
            assert_eq!(g.weight(e), g2.weight(e));
            assert_eq!(g.prob(e), g2.prob(e));
        }
    }

    #[test]
    fn reports_missing_field_with_line_number() {
        let err = read_edge_list(Cursor::new("0 0 1.0 0.5\n0 1 2.0\n")).unwrap_err();
        match err {
            IoError::Parse { line, msg } => {
                assert_eq!(line, 2);
                assert!(msg.contains("prob"), "{msg}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reports_unparseable_field() {
        let err = read_edge_list(Cursor::new("0 zero 1.0 0.5\n")).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }));
    }

    #[test]
    fn rejects_trailing_fields() {
        let err = read_edge_list(Cursor::new("0 0 1.0 0.5 extra\n")).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }));
    }

    #[test]
    fn surfaces_validation_errors() {
        let err = read_edge_list(Cursor::new("0 0 1.0 1.5\n")).unwrap_err();
        assert!(matches!(
            err,
            IoError::Build(BuildError::InvalidProbability { .. })
        ));
        let err = read_edge_list(Cursor::new("0 0 1.0 0.5\n0 0 1.0 0.5\n")).unwrap_err();
        assert!(matches!(
            err,
            IoError::Build(BuildError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn empty_input_builds_empty_graph() {
        let g = read_edge_list(Cursor::new("# nothing\n")).unwrap();
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn read_auto_dispatches_on_magic() {
        let g = read_edge_list(Cursor::new("0 0 1 0.5\n1 1 2 0.25\n")).unwrap();
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let text_path = dir.join(format!("mpmb_io_test_{pid}.tsv"));
        let cont_path = dir.join(format!("mpmb_io_test_{pid}.ubgc"));
        let legacy_path = dir.join(format!("mpmb_io_test_{pid}.ubg"));
        write_edge_list(&g, std::fs::File::create(&text_path).unwrap()).unwrap();
        crate::storage::write_container_path(&g, &cont_path).unwrap();
        for path in [&text_path, &cont_path] {
            let g2 = read_auto(path).unwrap();
            assert_eq!(g2.num_edges(), g.num_edges(), "{path:?}");
        }
        // A file in the retired `UBGRAPH1` binary format (magic, three
        // u64 counts, one 24-byte edge record) falls through to the
        // text parser, which must reject it as an error, not panic.
        let mut legacy = b"UBGRAPH1".to_vec();
        for count in [1u64, 1, 1] {
            legacy.extend_from_slice(&count.to_le_bytes());
        }
        legacy.extend_from_slice(&[0u8; 24]);
        std::fs::write(&legacy_path, &legacy).unwrap();
        assert!(read_auto(&legacy_path).is_err());
        for path in [text_path, cont_path, legacy_path] {
            let _ = std::fs::remove_file(path);
        }
    }
}
