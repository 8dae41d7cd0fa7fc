//! End-to-end tests of the `csst_analyze` binary: exit codes and
//! output on every registry analysis's demo trace, and option checks
//! that fail before the trace file is read.

use csst_analyses::registry::{self, IndexKind};
use csst_trace::text;
use std::path::Path;
use std::process::{Command, Output};

fn csst_analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_csst_analyze"))
        .args(args)
        .output()
        .expect("run csst_analyze")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn demo_traces_report_like_the_registry() {
    let dir = std::env::temp_dir().join(format!("csst-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut codes = Vec::new();
    for entry in registry::entries() {
        let rendered = text::write(&entry.demo_trace());
        let path = dir.join(format!("{}.txt", entry.name));
        std::fs::write(&path, &rendered).unwrap();
        let trace = text::parse(&rendered).unwrap();
        let expected = entry.run(&trace, IndexKind::Csst, None).unwrap();

        let out = csst_analyze(&[entry.name, path.to_str().unwrap()]);
        let err = stderr(&out);
        assert_eq!(
            out.status.code(),
            Some(expected.exit_code as i32),
            "{}: {err}",
            entry.name
        );
        assert!(
            err.starts_with(&format!("parsed {} events", trace.total_events())),
            "{}: first stderr line must be the parse count: {err}",
            entry.name
        );
        let mut stdout: Vec<String> = expected.lines;
        stdout.push(expected.summary);
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            stdout.join("\n") + "\n",
            "{}",
            entry.name
        );
        codes.push(expected.exit_code);
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(codes.contains(&0) && codes.contains(&1), "{codes:?}");
}

#[test]
fn incompatible_options_fail_before_the_file_is_read() {
    let missing = std::env::temp_dir().join(format!("csst-cli-missing-{}.txt", std::process::id()));
    assert!(!Path::new(&missing).exists());
    let missing = missing.to_str().unwrap();
    let cases: [(&[&str], &str); 3] = [
        (&["hb", missing, "--window", "5"], "does not apply"),
        (
            &["linearizability", missing, "--index", "vc"],
            "needs a fully dynamic index (csst|graph), got `vc`",
        ),
        (
            &["race", missing, "--format", "bogus"],
            "unknown format `bogus`",
        ),
    ];
    for (args, message) in cases {
        let out = csst_analyze(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(message), "{args:?}: {err}");
        assert!(
            !err.contains("cannot read"),
            "{args:?} read the file: {err}"
        );
    }
    // A compatible run does reach the file.
    let out = csst_analyze(&["race", missing, "--window", "4"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));
}
