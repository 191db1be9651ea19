//! `rlmul report` over a telemetry log written by `rlmul train
//! --telemetry`: the evaluation phases reach the log as span events,
//! so both the per-span breakdown (`--phase`) and the summary's
//! phase-timings table list them.

use std::process::Command;

fn rlmul(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rlmul")).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "rlmul {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn report_lists_evaluation_phases_from_a_train_log() {
    let dir = std::env::temp_dir().join(format!("rlmul-cli-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("run.jsonl");
    let log = log.to_str().unwrap();
    rlmul(&["train", "--method", "sa", "--bits", "6", "--steps", "20", "--telemetry", log]);

    let breakdown = rlmul(&["report", log, "--phase"]);
    for phase in ["elaborate", "lint", "synth"] {
        let row = format!("env.evaluate;{phase} ");
        assert!(breakdown.contains(&row), "no {row:?} row in:\n{breakdown}");
    }

    let summary = rlmul(&["report", log]);
    let table = summary.split("\nphase timings\n").nth(1).unwrap_or_else(|| {
        panic!("no phase-timings table in:\n{summary}");
    });
    for phase in ["elaborate", "lint", "synth"] {
        assert!(
            table.lines().any(|l| l.trim_start().starts_with(phase)),
            "no {phase} row in the phase-timings table:\n{summary}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
