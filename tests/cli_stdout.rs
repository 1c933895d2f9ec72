//! The `mpmb` CLI's stdout, pinned.
//!
//! `mpmb solve`, `count` and `query` all run through the method table's
//! local entry point (`mpmb_serve::advance_local`); this file pins what
//! they print, byte for byte, on the ABIDE 0.05 stand-in (seed 7), at
//! one thread and at three.
//!
//! Provenance: every expected output below was captured from the
//! release `mpmb` binary of commit `1b673519`, before `solve`'s fast
//! branch, `count` and `query` moved off their direct library calls
//! onto the shared driver. Never re-capture to make a refactor pass.

use std::path::PathBuf;
use std::process::Command;

struct Case {
    args: &'static [&'static str],
    /// Whether the case takes `--threads` (`query` runs single-threaded).
    threaded: bool,
    stdout: &'static str,
}

const CASES: &[Case] = &[
    Case {
        args: &[
            "solve", "--method", "os", "--trials", "400", "--seed", "7", "--top-k", "5",
        ],
        threaded: true,
        stdout: r"rank	butterfly	weight	Pr[E(B)]	P(B)
1	B(u6,u10,v3,v9)	738.359375	0.228318	0.190000
2	B(u1,u11,v4,v8)	734.703125	0.246249	0.172500
3	B(u1,u11,v4,v6)	732.796875	0.218828	0.112500
4	B(u1,u5,v4,v6)	730.046875	0.210415	0.070000
5	B(u5,u11,v4,v6)	723.90625	0.251526	0.062500
",
    },
    Case {
        args: &[
            "solve", "--method", "mcvp", "--trials", "100", "--seed", "7", "--top-k", "5",
        ],
        threaded: true,
        stdout: r"rank	butterfly	weight	Pr[E(B)]	P(B)
1	B(u6,u10,v3,v9)	738.359375	0.228318	0.220000
2	B(u1,u11,v4,v8)	734.703125	0.246249	0.190000
3	B(u1,u11,v4,v6)	732.796875	0.218828	0.070000
4	B(u1,u5,v4,v6)	730.046875	0.210415	0.060000
5	B(u5,u8,v4,v6)	712.015625	0.188232	0.060000
",
    },
    Case {
        args: &[
            "solve", "--method", "ols", "--trials", "400", "--prep", "20", "--seed", "7",
            "--top-k", "5",
        ],
        threaded: true,
        stdout: r"rank	butterfly	weight	Pr[E(B)]	P(B)
1	B(u1,u11,v4,v8)	734.703125	0.246249	0.220000
2	B(u6,u10,v3,v9)	738.359375	0.228318	0.177500
3	B(u1,u5,v4,v6)	730.046875	0.210415	0.127500
4	B(u5,u11,v4,v6)	723.90625	0.251526	0.077500
5	B(u1,u11,v4,v10)	724.59375	0.245097	0.065000
",
    },
    Case {
        args: &[
            "solve", "--method", "ols-kl", "--trials", "100", "--prep", "20", "--seed", "7",
            "--top-k", "5",
        ],
        threaded: true,
        stdout: r"rank	butterfly	weight	Pr[E(B)]	P(B)
1	B(u6,u10,v3,v9)	738.359375	0.228318	0.228318
2	B(u1,u11,v4,v8)	734.703125	0.246249	0.190026
3	B(u1,u5,v4,v6)	730.046875	0.210415	0.104080
4	B(u1,u11,v4,v10)	724.59375	0.245097	0.065781
5	B(u5,u11,v4,v10)	715.3125	0.254420	0.058833
",
    },
    Case {
        args: &[
            "solve", "--method", "fast", "--trials", "2000", "--seed", "7", "--top-k", "5",
        ],
        threaded: true,
        stdout: r"expected butterflies ~ 1898.228997
95% CI [1870.963696, 1925.494297]  relative error 0.0144  (2000 trials)
",
    },
    Case {
        args: &[
            "count", "--method", "exact", "--trials", "300", "--seed", "7",
        ],
        threaded: true,
        stdout: r"expected butterflies (closed form) = 1912.8258
sampled mean = 1946.8267  variance = 118794.1638  (300 trials)
count	freq
1005	0.0033
1010	0.0033
1172	0.0033
1218	0.0033
1253	0.0033
1257	0.0033
1287	0.0033
1290	0.0033
1305	0.0067
1312	0.0033
1331	0.0033
1357	0.0033
1360	0.0033
1373	0.0033
1376	0.0033
1381	0.0033
1425	0.0033
1429	0.0033
1430	0.0033
1452	0.0033
",
    },
    Case {
        args: &[
            "count", "--method", "fast", "--trials", "2000", "--seed", "7",
        ],
        threaded: true,
        stdout: r"expected butterflies (closed form) = 1912.8258
fast estimate = 1898.2290  (95% CI [1870.9637, 1925.4943], relative error 0.0144, 2000 trials)
",
    },
    Case {
        args: &[
            "query", "--u1", "1", "--u2", "11", "--v1", "4", "--v2", "8", "--trials", "500",
            "--seed", "7",
        ],
        threaded: false,
        stdout: r"butterfly B(u1,u11,v4,v8): w = 734.703125
Pr[E(B)]              = 0.246249 (exact)
Pr[B maximum | E(B)]  = 0.782000 (500 conditioned trials)
P(B)                  = 0.192567
",
    },
];

/// Runs the `mpmb` binary, requiring success; returns its stdout.
fn mpmb(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_mpmb"))
        .args(args)
        .output()
        .expect("spawn mpmb");
    assert!(
        out.status.success(),
        "mpmb {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

#[test]
fn cli_stdout_matches_the_pinned_bytes() {
    let dir = std::env::temp_dir().join(format!("mpmb-cli-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph: PathBuf = dir.join("abide-0.05.tsv");
    let graph = graph.to_str().unwrap();
    mpmb(&[
        "generate",
        "--dataset",
        "abide",
        "--scale",
        "0.05",
        "--seed",
        "7",
        "--output",
        graph,
    ]);
    let mut failures = Vec::new();
    for case in CASES {
        let threads: &[&str] = if case.threaded { &["1", "3"] } else { &["1"] };
        for t in threads {
            let mut args = case.args.to_vec();
            args.extend(["--input", graph]);
            if case.threaded {
                args.extend(["--threads", t]);
            }
            let got = mpmb(&args);
            if got != case.stdout {
                failures.push(format!(
                    "mpmb {args:?}:\n--- want\n{}--- got\n{got}",
                    case.stdout
                ));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A zero trial count is a usage error (exit 2, one `error:` line), not
/// a panic, for every command that samples; so is `--prep 0` for the
/// OLS methods, which the server answers with a 400.
#[test]
fn zero_trial_counts_are_usage_errors() {
    let dir = std::env::temp_dir().join(format!("mpmb-cli-zero-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph: PathBuf = dir.join("abide-0.02.tsv");
    let graph = graph.to_str().unwrap();
    mpmb(&[
        "generate",
        "--dataset",
        "abide",
        "--scale",
        "0.02",
        "--seed",
        "7",
        "--output",
        graph,
    ]);
    let cases: &[&[&str]] = &[
        &["solve", "--trials", "0"],
        &["solve", "--method", "os", "--trials", "0"],
        &["solve", "--method", "fast", "--trials", "0"],
        &["solve", "--method", "ols", "--prep", "0"],
        &["solve", "--method", "ols-kl", "--prep", "0"],
        &["count", "--trials", "0"],
        &["count", "--method", "fast", "--trials", "0"],
        &[
            "query", "--u1", "0", "--u2", "1", "--v1", "0", "--v2", "1", "--trials", "0",
        ],
    ];
    for case in cases {
        let mut args = case.to_vec();
        args.extend(["--input", graph]);
        let out = Command::new(env!("CARGO_BIN_EXE_mpmb"))
            .args(&args)
            .output()
            .expect("spawn mpmb");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "mpmb {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "mpmb {args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains("must be positive"),
            "mpmb {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "mpmb {args:?} printed an answer");
    }
    // `--prep` means nothing to the non-OLS methods, as in a request body.
    let mut args = vec!["solve", "--method", "os", "--trials", "10", "--prep", "0"];
    args.extend(["--input", graph]);
    assert!(!mpmb(&args).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
