//! `build-many` through the real `zr-image` binary: one batch of a
//! multi-stage diamond and a single-stage file on two workers, with
//! `--follow` streaming the diamond's per-stage lines live, plus the
//! flag-parsing exits (a removed flag and an unknown fault point).

use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_zr-image");

const DIAMOND: &str = "FROM alpine:3.19 AS base\nRUN echo shared > /shared\n\
                       FROM base AS left\nRUN echo l > /left\n\
                       FROM base AS right\nRUN echo r > /right\n\
                       FROM base AS final\n\
                       COPY --from=left /left /left\n\
                       COPY --from=right /right /right\n";

const SINGLE: &str = "FROM alpine:3.19\nRUN echo single > /single\n";

struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let path =
            std::env::temp_dir().join(format!("zr-build-many-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("scratch dir");
        Scratch(path)
    }

    /// Write `text` to `name` inside the scratch dir; returns its path.
    fn file(&self, name: &str, text: &str) -> String {
        let path = self.0.join(name);
        std::fs::write(&path, text).expect("write Dockerfile");
        path.display().to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn zr-image")
}

#[test]
fn build_many_follows_a_diamond_and_reports_every_build() {
    let scratch = Scratch::new("follow");
    let diamond = scratch.file("diamond.Dockerfile", DIAMOND);
    let single = scratch.file("single.Dockerfile", SINGLE);
    let out = run(&[
        "build-many",
        "--jobs",
        "2",
        "--follow",
        "diamond",
        &diamond,
        &single,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}\n{stderr}");

    let lines: Vec<&str> = stdout.lines().collect();
    let done = lines
        .iter()
        .position(|l| *l == "[diamond] done")
        .unwrap_or_else(|| panic!("no `[diamond] done` line:\n{stdout}"));
    for stage in ["base", "left", "right"] {
        let prefix = format!("[diamond:{stage}] ");
        let first = lines
            .iter()
            .position(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("no {prefix:?} line:\n{stdout}"));
        assert!(
            first < done,
            "{prefix:?} must stream before done:\n{stdout}"
        );
    }
    for id in ["diamond", "single"] {
        let status = format!("[{id}] status: ");
        assert!(
            lines.iter().any(|l| l.starts_with(&status)),
            "no {status:?} line:\n{stdout}"
        );
    }
}

#[test]
fn build_many_rejects_the_daemon_flag_with_usage() {
    let scratch = Scratch::new("daemon-flag");
    let single = scratch.file("single.Dockerfile", SINGLE);
    let out = run(&["build-many", "--daemon", &single]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn build_many_refuses_a_plan_with_an_unknown_fault_point() {
    let scratch = Scratch::new("bad-plan");
    let single = scratch.file("single.Dockerfile", SINGLE);
    let out = run(&["build-many", "--fault-plan", "no.such.point=1", &single]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("no.such.point"));
}
