//! `serve --env mmap` without `--journal` keeps its store in a scratch
//! directory under `$TMPDIR`. Every exit path — success, an error
//! return, and the stream's SIGTERM drain — must remove it again.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const HEADER: &str = "resident=tmp objects=512 obj-size=64 d=2 mem-pages=64 seed=3\n";
const JOB: &str = "objects=800 obj-size=32 d=2 mem-pages=8";

/// Spawn `mmjoin ARGS` with a fresh, empty `TMPDIR` and `script` written
/// to its stdin (left open). Returns the child and its `TMPDIR`.
fn spawn(name: &str, args: &[&str], script: &str) -> (std::process::Child, PathBuf) {
    let tmpdir = std::env::temp_dir().join(format!("mmjoin-scratch-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmpdir);
    std::fs::create_dir_all(&tmpdir).expect("mkdir");
    let mut child = Command::new(env!("CARGO_BIN_EXE_mmjoin"))
        .env("TMPDIR", &tmpdir)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mmjoin");
    let stdin = child.stdin.as_mut().expect("stdin");
    stdin.write_all(script.as_bytes()).expect("write script");
    (child, tmpdir)
}

fn assert_empty(tmpdir: &Path) {
    let left: Vec<_> = std::fs::read_dir(tmpdir)
        .expect("read tmpdir")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert!(left.is_empty(), "scratch store left behind: {left:?}");
    let _ = std::fs::remove_dir_all(tmpdir);
}

#[test]
fn scratch_store_is_removed_on_success_and_error() {
    let stream = ["serve", "--stream", "--env", "mmap"];
    let batch = ["serve", "--env", "mmap", "--budget-pages", "64"];
    let cases: [(&str, &[&str], String, bool); 4] = [
        (
            "stream-ok",
            &stream,
            format!("{HEADER}batch=b0 objects=64 seed=1\ndelete=8 seed=2\n"),
            true,
        ),
        (
            "stream-err",
            &stream,
            format!("{HEADER}batch=b0 objects=64 seed=1\nbogus=1\n"),
            false,
        ),
        (
            "serve-ok",
            &batch,
            format!("{JOB} seed=1\n{JOB} seed=2\n"),
            true,
        ),
        (
            "serve-err",
            &batch,
            format!("{JOB} seed=1\nalg=bogus\n"),
            false,
        ),
    ];
    for (name, args, script, ok) in cases {
        let (mut child, tmpdir) = spawn(name, args, &script);
        drop(child.stdin.take()); // EOF ends the script
        assert_eq!(child.wait().expect("wait").success(), ok, "{name}");
        assert_empty(&tmpdir);
    }
}

#[test]
fn stream_scratch_store_is_removed_after_sigterm_drain() {
    let ops: String = (0..4)
        .map(|i| format!("batch=b{i} objects=64 seed={i}\n"))
        .collect();
    let (mut child, tmpdir) = spawn(
        "term",
        &["serve", "--stream", "--env", "mmap"],
        &(HEADER.to_string() + &ops),
    );
    let mut lines = BufReader::new(child.stdout.take().expect("stdout"));
    let mut seen = 0;
    let mut line = String::new();
    while seen < 2 {
        line.clear();
        assert_ne!(lines.read_line(&mut line).expect("read stdout"), 0);
        seen += usize::from(line.starts_with("done seq="));
    }
    // stdin stays open, so only the signal ends the stream.
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status();
    assert!(kill.expect("run kill").success());
    let mut rest = String::new();
    lines.read_to_string(&mut rest).expect("drain stdout");
    assert!(child.wait().expect("wait").success(), "{rest}");
    assert!(rest.contains("drained cleanly after SIGTERM"), "{rest}");
    assert_empty(&tmpdir);
}
