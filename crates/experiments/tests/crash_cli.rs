//! Exit-code audit under injected faults, against the real binaries:
//! injected EIO/ENOSPC must surface as exit 3 (I/O), corruption as
//! exit 4 (verification), and a crash mid-`corpus gen` must leave a
//! sweepable temp file — never a torn manifest.

#![cfg(unix)]

use std::fs;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique scratch directory per test invocation, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tse-crashcli-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn tracectl(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tracectl"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().unwrap()
}

fn gen_args(dir: &Path) -> Vec<String> {
    [
        "corpus",
        "gen",
        "--dir",
        &dir.display().to_string(),
        "--scales",
        "0.02",
        "--seeds",
        "7",
        "--workloads",
        "em3d",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn stale_temps(dir: &Path) -> Vec<PathBuf> {
    fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(".tmp-"))
        })
        .collect()
}

#[test]
fn injected_faults_exit_3_corruption_exits_4_and_crashes_leave_no_torn_state() {
    let scratch = ScratchDir::new("exitcodes");
    let dir = scratch.0.join("traces");
    let gen: Vec<String> = gen_args(&dir);
    let gen: Vec<&str> = gen.iter().map(String::as_str).collect();

    // ENOSPC while writing the corpus manifest: I/O failure, exit 3,
    // and the manifest never appears (the temp is cleaned on error).
    let out = tracectl(&gen, &[("TSE_FSIO_FAULT", "corpus-manifest:enospc")]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(!dir.join("corpus.json").exists(), "manifest must not land");

    // Crash (abort) between temp write and rename: the process dies by
    // signal and the orphaned temp survives — but no torn manifest.
    let out = tracectl(&gen, &[("TSE_CRASH_POINT", "corpus-manifest.pre-rename")]);
    assert_eq!(out.status.code(), None, "abort dies by signal: {out:?}");
    assert!(out.status.signal().is_some());
    assert!(!dir.join("corpus.json").exists());
    assert!(
        !stale_temps(&dir).is_empty(),
        "crash leaves the temp behind"
    );

    // A clean re-run sweeps the stale temp, completes, and verifies.
    let out = tracectl(&gen, &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(dir.join("corpus.json").exists());
    assert!(stale_temps(&dir).is_empty(), "reopen sweeps stale temps");
    let dir_str = dir.display().to_string();
    let out = tracectl(&["corpus", "verify", &dir_str], &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // Corruption (not an I/O error) is a verification failure: exit 4.
    let trace = fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "tsb1"))
        .expect("generated trace file");
    let mut bytes = fs::read(&trace).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    fs::write(&trace, &bytes).unwrap();
    let out = tracectl(&["corpus", "verify", &dir_str], &[]);
    assert_eq!(out.status.code(), Some(4), "corruption is exit 4: {out:?}");

    // `corpus gc` reports swept `.partial` leftovers with counts.
    fs::write(dir.join("em3d.tsb1.partial"), b"abandoned download").unwrap();
    let out = tracectl(&["corpus", "gc", "--dir", &dir_str], &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("swept 1 stale file"),
        "gc must report the sweep: {stdout}"
    );
    assert!(!dir.join("em3d.tsb1.partial").exists());
}

#[test]
fn sweepctl_plan_write_fault_exits_3() {
    let scratch = ScratchDir::new("planfault");
    let plan = scratch.0.join("plan.json");
    let out = Command::new(env!("CARGO_BIN_EXE_sweepctl"))
        .args([
            "plan",
            "--figure",
            "fig08",
            "--shards",
            "2",
            "--out",
            &plan.display().to_string(),
        ])
        .env("TSE_SCALE", "0.02")
        .env("TSE_FSIO_FAULT", "plan:eio")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(!plan.exists(), "faulted plan write must not land");
}

#[test]
fn retired_and_unknown_flags_exit_2_without_running() {
    let scratch = ScratchDir::new("flags");
    let trace = scratch.0.join("em3d.tsb1");
    let trace = trace.display().to_string();
    let out = tracectl(
        &[
            "gen",
            "--workload",
            "em3d",
            "--scale",
            "0.02",
            "--out",
            &trace,
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // The control: every flag replay reads is accepted.
    let out = tracectl(
        &["replay", &trace, "--engine", "tse", "--lookahead", "8"],
        &[],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // `--threads` was retired with epoch-parallel replay: old scripts
    // must fail loudly, not be served sequential output as if the flag
    // had been honoured. A typo'd flag is the same usage error.
    for bad in [
        vec!["replay", &trace, "--threads", "2"],
        vec!["replay", &trace, "--lokahead", "8"],
        vec!["inspect", &trace, "--verbose"],
        vec!["corpus", "verify", scratch.0.to_str().unwrap(), "--quik"],
    ] {
        let out = tracectl(&bad, &[]);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{bad:?} must not run: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{bad:?}: {stderr}");
    }
}
