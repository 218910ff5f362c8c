//! Integration tests for the resilient sweep executor: quarantine goldens,
//! torn-checkpoint rejection, finished-run checkpoints, failed checkpoint
//! writes, and the `repro` binary's tri-state exit codes (0 clean, 1 hard
//! error, 2 completed with quarantined cells).
//!
//! The library-level kill/resume byte-identity matrix lives in the repo-root
//! `tests/chaos.rs`; this file covers the contract as seen from outside —
//! checked-in goldens and the process boundary.

use std::path::{Path, PathBuf};
use std::process::Command;

use dvs_bench::golden::{check_against, golden_dir};
use dvs_bench::{
    run_compose_resilient, run_fleet_resilient, run_suite_resilient, tiny_suite, CheckpointConfig,
    ExecFaults, FleetEngine, ResilienceConfig, SweepMode,
};
use dvs_metrics::{PartialAccounting, QuarantineReport};
use dvs_sim::DvsError;
use dvs_workload::FleetSpec;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dvsync_resilience_test").join(name);
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn tiny_run(cfg: &ResilienceConfig, jobs: usize) -> Result<dvs_bench::ResilientSweep, DvsError> {
    run_suite_resilient("tiny", &tiny_suite(), 3, &[4, 5], jobs, SweepMode::Aggregate, None, cfg)
}

/// An always-panicking cell quarantines with a deterministic entry —
/// index, key, attempt count, and cause — pinned by a checked-in golden.
/// Regenerate with `REGEN_GOLDEN=1 cargo test -p dvs-bench --test resilience`.
#[test]
fn quarantine_report_matches_golden() {
    let cfg = ResilienceConfig {
        faults: ExecFaults { panic_in_cell: Some(2), ..ExecFaults::default() },
        ..ResilienceConfig::default()
    };
    let out = tiny_run(&cfg, 1).expect("sweep completes despite the panicking cell");
    assert!(out.degraded());
    check_against(
        &golden_dir().join("quarantine_tiny.json"),
        &out.report.quarantine,
        |actual: &QuarantineReport, golden: &QuarantineReport| {
            if actual == golden {
                return Vec::new();
            }
            let mut diffs = vec![format!(
                "quarantine list diverged: {} entries vs golden {}",
                actual.len(),
                golden.len()
            )];
            for (a, g) in actual.entries.iter().zip(&golden.entries) {
                if a != g {
                    diffs.push(format!("actual {a:?} vs golden {g:?}"));
                }
            }
            diffs
        },
    )
    .unwrap();
}

/// The quarantine outcome is identical at any worker count: same entries,
/// same report bytes, and the measured rows still carry the non-quarantined
/// cells.
#[test]
fn quarantine_is_jobs_invariant() {
    let cfg = ResilienceConfig {
        faults: ExecFaults { panic_in_cell: Some(3), ..ExecFaults::default() },
        ..ResilienceConfig::default()
    };
    let seq = tiny_run(&cfg, 1).expect("sequential run completes");
    let par = tiny_run(&cfg, 4).expect("parallel run completes");
    assert_eq!(seq.report.to_json(), par.report.to_json());
    assert_eq!(seq.report.quarantine.len(), 1);
    assert_eq!(seq.accounting.cells_ok, 5);
}

/// A torn checkpoint write (simulated mid-write crash) must be rejected on
/// resume with a typed corruption error, never silently half-resumed.
#[test]
fn torn_checkpoint_is_rejected_on_resume() {
    let path = temp_dir("torn").join("ck");
    let _ = std::fs::remove_file(&path);
    let ck = |resume: bool, faults: ExecFaults| ResilienceConfig {
        checkpoint: Some(CheckpointConfig {
            path: path.to_string_lossy().into_owned(),
            cadence: 1,
            resume,
        }),
        faults,
        ..ResilienceConfig::default()
    };
    // Every checkpoint write is torn; the injected crash then interrupts.
    let torn =
        ExecFaults { torn_checkpoint_write: true, crash_at_cell: Some(2), ..ExecFaults::default() };
    match tiny_run(&ck(false, torn), 1) {
        Err(DvsError::SweepInterrupted { .. }) => {}
        other => panic!("expected an interrupted sweep, got {other:?}"),
    }
    match tiny_run(&ck(true, ExecFaults::default()), 1) {
        Err(DvsError::CheckpointCorrupt { .. }) => {}
        other => panic!("expected checkpoint corruption on resume, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// What the finished-run and write-failure tests compare: the run's
/// byte-identity artifact, its ledger, and the checkpoint files it wrote.
#[derive(Debug)]
struct Outcome {
    report: String,
    accounting: PartialAccounting,
    writes: usize,
}

type Runner = fn(&ResilienceConfig, usize) -> Result<Outcome, DvsError>;

/// The three checkpointed runners, six cells each: the tiny sweep (two
/// scenarios × three cells), the compositor suite, and a tiny fleet in six
/// shards.
fn six_cell_runners() -> [(&'static str, Runner); 3] {
    [
        ("sweep", |cfg, jobs| {
            let out = tiny_run(cfg, jobs)?;
            let writes = out.checkpoint_writes;
            Ok(Outcome { report: out.report.to_json(), accounting: out.accounting, writes })
        }),
        ("compose", |cfg, jobs| {
            let out = run_compose_resilient(jobs, cfg)?;
            let writes = out.checkpoint_writes;
            Ok(Outcome { report: out.report.to_json(), accounting: out.accounting, writes })
        }),
        ("fleet", |cfg, jobs| {
            let out =
                run_fleet_resilient(&FleetSpec::tiny(96, 24), 6, jobs, FleetEngine::Batched, cfg)?;
            let writes = out.checkpoint_writes;
            Ok(Outcome { report: out.report.to_json()?, accounting: out.accounting, writes })
        }),
    ]
}

/// A finished run's checkpoint holds every cell, whatever the cadence: the
/// run's last completion is written too. Resuming it restores all six
/// cells, writes nothing, and executes nothing — the resumed leg's last
/// cell panics if it ever runs, which would show as a quarantine.
#[test]
fn finished_runs_resume_every_cell_and_execute_nothing() {
    let dir = temp_dir("finished");
    for (name, run) in six_cell_runners() {
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let ck = |resume: bool, faults: ExecFaults| ResilienceConfig {
            checkpoint: Some(CheckpointConfig {
                path: path.to_string_lossy().into_owned(),
                cadence: 4,
                resume,
            }),
            faults,
            ..ResilienceConfig::default()
        };
        let finished = run(&ck(false, ExecFaults::default()), 2).expect("the run finishes");
        let last_cell_panics = ExecFaults { panic_in_cell: Some(5), ..ExecFaults::default() };
        let resumed = run(&ck(true, last_cell_panics), 2).expect("the resume finishes");
        assert_eq!(resumed.accounting.cells_resumed, 6, "{name}: the checkpoint left out its tail");
        assert_eq!(resumed.accounting.cells_quarantined, 0, "{name}: a restored cell ran again");
        assert_eq!(resumed.writes, 0, "{name}: a resume with nothing to do wrote");
        assert_eq!(resumed.report, finished.report, "{name}: the resumed report differs");
        let _ = std::fs::remove_file(&path);
    }
}

/// A checkpoint write that fails ends the run with a typed I/O error at any
/// worker count, for every runner, instead of hanging or finishing without
/// its checkpoint. The path lies under a regular file, so creating its
/// directory fails.
#[test]
fn failed_checkpoint_writes_end_the_run_with_an_io_error() {
    let blocker = temp_dir("unwritable").join("regular-file");
    std::fs::write(&blocker, "not a directory\n").unwrap();
    let cfg = ResilienceConfig {
        checkpoint: Some(CheckpointConfig {
            path: blocker.join("ck").to_string_lossy().into_owned(),
            cadence: 1,
            resume: false,
        }),
        ..ResilienceConfig::default()
    };
    for (name, run) in six_cell_runners() {
        for jobs in [1, 4] {
            match run(&cfg, jobs) {
                Err(DvsError::Io { op, .. }) => assert_eq!(op, "create dir", "{name}, jobs {jobs}"),
                other => panic!("{name}, jobs {jobs}: expected a failed write, got {other:?}"),
            }
        }
    }
    let _ = std::fs::remove_file(&blocker);
}

// ---- Process-boundary tests (the repro binary) ------------------------------

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro binary runs")
}

/// Exit code 0: a clean tiny sweep.
#[test]
fn exit_code_zero_on_clean_sweep() {
    let out = repro(&["sweep", "--tiny"]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("6/6 cells ok"), "stdout: {stdout}");
}

/// Exit code 2: the sweep completed but a cell was quarantined. The output
/// still carries the full table plus the quarantine accounting.
#[test]
fn exit_code_two_on_quarantined_cells() {
    let out = repro(&["sweep", "--tiny", "--inject-panic-cell", "1"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("quarantined cell 1"), "stdout: {stdout}");
    assert!(stdout.contains("5/6 cells ok, 1 quarantined"), "stdout: {stdout}");
}

/// Exit code 1: hard errors — a bad flag value, an unknown argument or
/// artefact, and an interrupted sweep.
#[test]
fn exit_code_one_on_hard_errors() {
    let out = repro(&["sweep", "--tiny", "--mode", "sideways"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--mode"));

    // An unknown argument after the subcommand is named, never ignored;
    // that includes the fleet's retired engine and bench flags.
    for (args, unknown) in [
        (&["compose", "--bogus"][..], "`--bogus`"),
        (&["fleet", "--tiny", "--bogus"][..], "`--bogus`"),
        (&["fleet", "--tiny", "--engine", "per-device"][..], "`--engine`"),
        (&["fleet", "--tiny", "--bench"][..], "`--bench`"),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(unknown), "{args:?}: {stderr}");
    }

    // `bench` is no subcommand, and no artefact either.
    let out = repro(&["bench"]);
    assert_eq!(out.status.code(), Some(1), "stdout: {}", String::from_utf8_lossy(&out.stdout));

    let dir = temp_dir("exit1");
    let ck = dir.join("ck");
    let _ = std::fs::remove_file(&ck);
    let out = repro(&[
        "sweep",
        "--tiny",
        "--checkpoint",
        ck.to_str().unwrap(),
        "--inject-crash-cell",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("interrupted after 2 of 6 cells"));
    let _ = std::fs::remove_file(&ck);
}

/// The full CLI round trip of the acceptance criterion: crash mid-sweep,
/// resume at a different worker count, and the emitted JSON report is
/// byte-identical to the uninterrupted run's.
#[test]
fn cli_kill_resume_round_trip_is_byte_identical() {
    let dir = temp_dir("roundtrip");
    let ck = dir.join("ck");
    let clean_json = dir.join("clean.json");
    let resumed_json = dir.join("resumed.json");
    for p in [&ck, &clean_json, &resumed_json] {
        let _ = std::fs::remove_file(p);
    }

    let out = repro(&["sweep", "--tiny", "--emit-json", clean_json.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));

    let out = repro(&[
        "sweep",
        "--tiny",
        "--checkpoint",
        ck.to_str().unwrap(),
        "--inject-crash-cell",
        "3",
        "--jobs",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(1), "the injected crash is a hard interruption");
    assert!(Path::new(&ck).exists(), "progress survived on disk");

    let out = repro(&[
        "sweep",
        "--tiny",
        "--checkpoint",
        ck.to_str().unwrap(),
        "--resume",
        "--jobs",
        "4",
        "--emit-json",
        resumed_json.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("3 resumed from checkpoint"));

    let clean = std::fs::read(&clean_json).expect("clean report written");
    let resumed = std::fs::read(&resumed_json).expect("resumed report written");
    assert_eq!(clean, resumed, "resumed report is not byte-identical");
    for p in [&ck, &clean_json, &resumed_json] {
        let _ = std::fs::remove_file(p);
    }
}
