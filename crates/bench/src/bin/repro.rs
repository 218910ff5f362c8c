//! The reproduction harness CLI: regenerates every table and figure of the
//! D-VSync paper's evaluation from the simulator.
//!
//! ```text
//! repro --all               # everything (takes a minute or two)
//! repro --all --jobs 4      # same results, four sweep workers
//! repro --fig 11            # one figure
//! repro --table 2           # one table
//! repro --power --chromium  # named sections
//! repro custom spec.json    # run a user-provided ScenarioSpec JSON
//! ```
//!
//! `--jobs N` sets the sweep engine's worker count (default: available
//! parallelism; `--jobs 1` forces the sequential reference path). Output is
//! byte-identical for every job count — see `docs/sweep.md`.

#![forbid(unsafe_code)]

use std::env;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dvs_bench::checkpoint::{read_text, write_text};
use dvs_bench::*;
use dvs_sim::{DvsError, DvsResult};
use dvs_workload::FleetSpec;

struct Job {
    key: &'static str,
    describe: &'static str,
    run: fn() -> String,
}

fn jobs() -> Vec<Job> {
    vec![
        Job {
            key: "fig1",
            describe: "CDF of frame rendering time",
            run: || fig01_cdf::render(&fig01_cdf::run(200_000)),
        },
        Job {
            key: "fig3",
            describe: "pixels per second across flagships",
            run: || fig03_pixels::render(&fig03_pixels::run()),
        },
        Job {
            key: "fig4",
            describe: "graphics features per OS release (heavier shaded)",
            run: || fig04_features::render(&fig04_features::run()),
        },
        Job {
            key: "fig5",
            describe: "frame-drop % summary per platform",
            run: || fig05_summary::render(&fig05_summary::run()),
        },
        Job {
            key: "fig6",
            describe: "frame distribution (drop/stuffing/direct)",
            run: || fig06_distribution::render(&fig06_distribution::run()),
        },
        Job {
            key: "fig7",
            describe: "touch-follow ball latency visualisation",
            run: || fig07_ball::render(&fig07_ball::run(45.0)),
        },
        Job {
            key: "fig9",
            describe: "scope of the D-VSync approach",
            run: || fig09_scope::render(&fig09_scope::run()),
        },
        Job {
            key: "fig10",
            describe: "VSync vs D-VSync execution patterns",
            run: || fig10_trace::render(&fig10_trace::run()),
        },
        Job {
            key: "fig11",
            describe: "FDPS for 25 apps (Pixel 5)",
            run: || fig11_apps::render(&fig11_apps::run()),
        },
        Job {
            key: "fig12",
            describe: "OS use cases, Mate 60 Pro Vulkan",
            run: || fig12_13_oscases::run_fig12().render(),
        },
        Job {
            key: "fig13",
            describe: "OS use cases, Mate 40/60 Pro GLES",
            run: || {
                let mut out = fig12_13_oscases::run_fig13_mate40().render();
                out.push('\n');
                out.push_str(&fig12_13_oscases::run_fig13_mate60().render());
                out
            },
        },
        Job {
            key: "fig14",
            describe: "game simulations",
            run: || fig14_games::render(&fig14_games::run()),
        },
        Job {
            key: "fig15",
            describe: "rendering latency per device",
            run: || fig15_latency::render(&fig15_latency::run()),
        },
        Job {
            key: "fig16",
            describe: "map app case study",
            run: || fig16_map::render(&fig16_map::run()),
        },
        Job {
            key: "table1",
            describe: "platform configuration",
            run: || table1_devices::render(&table1_devices::run()),
        },
        Job {
            key: "table2",
            describe: "perceived stutters over UX tasks",
            run: || table2_stutters::render(&table2_stutters::run()),
        },
        Job {
            key: "cost",
            describe: "§6.4 execution and memory costs",
            run: || costs::render(&costs::run()),
        },
        Job {
            key: "power",
            describe: "§6.7 power and instructions",
            run: || power::render(&power::run()),
        },
        Job {
            key: "chromium",
            describe: "§6.6 browser case study",
            run: || sec66_chromium::render(&sec66_chromium::run()),
        },
        Job {
            key: "multitask",
            describe: "two apps sharing compute (multi-window contention)",
            run: || {
                use dvs_core::{ContentionMode, ContentionSim};
                use dvs_workload::{CostProfile, ScenarioSpec};
                let a =
                    ScenarioSpec::new("left app", 60, 600, CostProfile::scattered(1.0)).generate();
                let b =
                    ScenarioSpec::new("right app", 60, 600, CostProfile::scattered(1.0)).generate();
                let mut out = String::from("Multi-window contention: two apps on shared compute\n");
                out.push_str(&format!(
                    "{:>10} {:>14} {:>16}\n",
                    "capacity", "VSync janks", "D-VSync janks"
                ));
                for capacity in [1.0f64, 1.2, 1.4, 1.7, 2.0] {
                    let sim = ContentionSim::new(60, capacity);
                    let v: usize = sim
                        .run(&[&a, &b], ContentionMode::Vsync { buffers: 3 })
                        .iter()
                        .map(|r| r.janks.len())
                        .sum();
                    let d: usize = sim
                        .run(&[&a, &b], ContentionMode::Dvsync { buffers: 5 })
                        .iter()
                        .map(|r| r.janks.len())
                        .sum();
                    out.push_str(&format!("{capacity:>10.1} {v:>14} {d:>16}\n"));
                }
                out.push_str(
                    "capacity 1.0 = two active apps halve each other; 2.0 = no contention\n",
                );
                out
            },
        },
        Job {
            key: "scenes",
            describe: "scene-driven workloads (§3.1's effects as real content)",
            run: || {
                let mut out =
                    String::from("Scene-driven traces (costs derived from actual UI content)\n");
                for driver in [
                    dvs_render::scenes::notification_center_close(120),
                    dvs_render::scenes::app_open(120),
                    dvs_render::scenes::photo_list_fling(120),
                ] {
                    let trace = driver.trace();
                    let period = trace.period();
                    let heavy = trace.frames.iter().filter(|f| f.total() > period).count();
                    let vsync = {
                        let cfg = dvs_pipeline::PipelineConfig::new(120, 3);
                        dvs_pipeline::Simulator::new(&cfg)
                            .run(&trace, &mut dvs_pipeline::VsyncPacer::new())
                    };
                    let dvsync = {
                        let cfg = dvs_pipeline::PipelineConfig::new(120, 5);
                        let mut pacer =
                            dvs_core::DvsyncPacer::new(dvs_core::DvsyncConfig::with_buffers(5));
                        dvs_pipeline::Simulator::new(&cfg).run(&trace, &mut pacer)
                    };
                    out.push_str(&format!(
                        "  {:<34} {:>3} frames, {:>2} key frames | VSync {:>2} janks, \
                         D-VSync {:>2}\n",
                        trace.name,
                        trace.len(),
                        heavy,
                        vsync.janks.len(),
                        dvsync.janks.len()
                    ));
                }
                out
            },
        },
        Job {
            key: "faults",
            describe: "robustness fault matrix (scenarios × fault profiles × pacers)",
            run: || faultmatrix::run(sweep::default_jobs()).render(),
        },
        Job {
            key: "compose",
            describe: "cross-app interference: compositor scenarios composed vs solo",
            run: || {
                let out =
                    run_compose_resilient(sweep::default_jobs(), &ResilienceConfig::default())
                        .expect("a compose sweep without checkpoints cannot be interrupted");
                compose::render(&out.report.sweep) + &out.report.quarantine.render()
            },
        },
        Job {
            key: "census",
            describe: "§3.2's \"N of 75 cases exhibit frame drops\" counts",
            run: || suite75::render(&suite75::run()),
        },
        Job {
            key: "fps",
            describe: "§3.2's \"95-105 FPS on the 120 Hz screen\" cases",
            run: || fps_report::render(&fps_report::run()),
        },
        Job {
            key: "ablation",
            describe: "design-choice ablations (limits, DTV calibration, IPL, segmentation)",
            run: ablation::render_all,
        },
        Job {
            key: "export",
            describe: "write the scenario suites as editable JSON (for `repro custom`)",
            run: || {
                use dvs_workload::scenarios;
                let dir = std::env::temp_dir().join("dvsync_suites");
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    return format!("could not create {}: {e}\n", dir.display());
                }
                let mut out = String::from("Scenario suites exported as JSON\n");
                let suites: Vec<(&str, Vec<dvs_workload::ScenarioSpec>)> = vec![
                    ("android_apps.json", scenarios::android_app_suite()),
                    ("mate60_vulkan.json", scenarios::mate60_vulkan_suite()),
                    ("mate60_gles.json", scenarios::mate60_gles_suite()),
                    ("mate40_gles.json", scenarios::mate40_gles_suite()),
                    ("games.json", scenarios::game_suite()),
                ];
                for (name, suite) in suites {
                    let path = dir.join(name);
                    match serde_json::to_string_pretty(&suite)
                        .map_err(|e| e.to_string())
                        .and_then(|s| std::fs::write(&path, s).map_err(|e| e.to_string()))
                    {
                        Ok(()) => out.push_str(&format!("  wrote {}\n", path.display())),
                        Err(e) => out.push_str(&format!("  FAILED {}: {e}\n", path.display())),
                    }
                }
                out.push_str("edit a spec and run it with: repro custom <file-with-one-spec>\n");
                out
            },
        },
        Job {
            key: "trace",
            describe: "export Fig. 10's runs as Chrome trace-event JSON (chrome://tracing)",
            run: || {
                let comparison = fig10_trace::run();
                let dir = std::env::temp_dir().join("dvsync_traces");
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    return format!("could not create {}: {e}\n", dir.display());
                }
                let mut out = String::from("Chrome trace export (open in chrome://tracing)\n");
                for (name, report) in [
                    ("vsync.trace.json", &comparison.vsync),
                    ("dvsync.trace.json", &comparison.dvsync),
                ] {
                    let path = dir.join(name);
                    match std::fs::write(&path, dvs_metrics::chrome_trace_json(report)) {
                        Ok(()) => out.push_str(&format!("  wrote {}\n", path.display())),
                        Err(e) => out.push_str(&format!("  FAILED {}: {e}\n", path.display())),
                    }
                }
                out
            },
        },
    ]
}

fn usage(jobs: &[Job]) -> String {
    let mut out = String::from(
        "repro — regenerate the D-VSync paper's tables and figures\n\n\
         usage: repro --all | [--fig N]... [--table N]... [--cost] [--power] [--chromium]\n\
         \x20      repro custom <scenario.json>   # run a ScenarioSpec under all configs\n\
         \x20      repro trace record --out <dir> [--tiny|--quick] [--fitted]\n\
         \x20                 [--fleet [--devices N] [--frames N]] [--jobs N]\n\
         \x20                 # record the benchmark corpora as compact binary traces\n\
         \x20                 # (docs/trace.md); --fitted records calibrated sweep traces,\n\
         \x20                 # --fleet records per-device traces for repro fleet\n\
         \x20      repro trace info <file.dvst>       # header + block summary\n\
         \x20      repro trace convert <in> <out>     # JSON <-> binary (.dvst)\n\
         \x20      repro ingest <log> [--name N] [--rate HZ] [--ui-share F] [--out <dir>]\n\
         \x20                 # external frame-time log (CSV or JSON-lines) -> analysed\n\
         \x20                 # profile -> calibrated ScenarioSpec family + binary trace\n\
         \x20      repro lint [--check] [--emit-json [path]]\n\
         \x20                 # dvs-lint static pass: determinism, hot-path allocation,\n\
         \x20                 # panic hygiene (rules in docs/lint.md; scope in lint.toml).\n\
         \x20                 # --check exits non-zero on any unwaived finding;\n\
         \x20                 # --emit-json defaults to lint_report.json\n\
         \x20      repro sweep [--tiny|--quick] [--retries N]\n\
         \x20                 [--checkpoint <path> [--cadence K] [--resume]]\n\
         \x20                 [--emit-json [path]] [--jobs N] [--trace-dir <dir>]\n\
         \x20                 # resilient sweep executor: panics quarantine instead of\n\
         \x20                 # aborting; kill + --resume reproduces the uninterrupted\n\
         \x20                 # report byte-for-byte (docs/resilience.md). Fault taps:\n\
         \x20                 # --inject-panic-cell K [--inject-panic-attempts N],\n\
         \x20                 # --inject-crash-cell K, --inject-torn-checkpoint\n\
         \x20      repro compose [--retries N] [--emit-json [path]] [--jobs N]\n\
         \x20                 # multi-surface compositor suite under the same executor\n\
         \x20                 # (same --checkpoint and --inject-* flags as repro sweep)\n\
         \x20      repro fleet [--tiny|--quick] [--devices N] [--frames N] [--shards N]\n\
         \x20                 [--jobs N] [--retries N]\n\
         \x20                 [--checkpoint <path> [--cadence K] [--resume]]\n\
         \x20                 [--emit-json [path]] [--trace-dir <dir>]\n\
         \x20                 # population-scale fleet simulation: shards of the seeded\n\
         \x20                 # device space run as resilient-executor cells and reduce\n\
         \x20                 # to mergeable sketches; the report is byte-identical for\n\
         \x20                 # any --jobs/--shards (docs/fleet.md). Same --inject-*\n\
         \x20                 # fault taps as repro sweep\n\
         \x20      --jobs N   sweep worker count (default: available parallelism;\n\
         \x20                 1 = sequential reference path; output identical for all N)\n\n\
         exit codes: 0 clean; 1 hard error; 2 completed with quarantined cells\n\n\
         artefacts:\n",
    );
    for j in jobs {
        out.push_str(&format!("  {:<8} {}\n", j.key, j.describe));
    }
    out
}

/// Runs the `dvs-lint` static pass over the workspace: `repro lint
/// [--check] [--emit-json [path]]`. Without `--check` the pass is
/// advisory (prints findings, exits 0); with it, any unwaived finding or
/// malformed waiver fails the run — the CI `lint-suite` job gates on that.
fn run_lint(args: &[String]) -> Result<(String, bool), String> {
    let check = args.iter().any(|a| a == "--check");
    let emit: Option<String> =
        args.iter().position(|a| a == "--emit-json").map(|p| match args.get(p + 1) {
            Some(next) if !next.starts_with('-') => next.clone(),
            _ => "lint_report.json".to_string(),
        });
    let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
    let root = dvs_lint::find_workspace_root(&cwd)
        .or_else(|| {
            // Fallback for `cargo run -p dvs-bench` from a subdirectory:
            // walk up from the bench crate's own manifest dir.
            dvs_lint::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        })
        .ok_or("no workspace root with a lint.toml found above the current directory")?;
    let analysis = dvs_lint::analyze_workspace(&root).map_err(|e| e.to_string())?;
    let mut out = dvs_lint::render_text(&analysis);
    if let Some(path) = emit {
        let json = dvs_lint::render_json(&analysis);
        std::fs::write(&path, json).map_err(|e| format!("write {path}: {e}"))?;
        out.push_str(&format!("wrote {path}\n"));
    }
    let dirty = check && analysis.is_dirty();
    if dirty {
        out.push_str("repro lint --check: FAILED (unwaived findings above)\n");
    }
    Ok((out, dirty))
}

/// A flag a subcommand accepts after its token, and whether it takes an
/// operand.
type Flag = (&'static str, bool);

/// The executor flags `repro sweep`, `compose` and `fleet` share.
const RESILIENCE_FLAGS: &[Flag] = &[
    ("--jobs", true),
    ("--retries", true),
    ("--checkpoint", true),
    ("--cadence", true),
    ("--resume", false),
    ("--emit-json", true),
    ("--inject-panic-cell", true),
    ("--inject-panic-attempts", true),
    ("--inject-crash-cell", true),
    ("--inject-torn-checkpoint", false),
];

/// The flags `repro sweep` accepts besides [`RESILIENCE_FLAGS`].
const SWEEP_FLAGS: &[Flag] = &[("--tiny", false), ("--quick", false), ("--trace-dir", true)];

/// The flags `repro fleet` accepts besides [`RESILIENCE_FLAGS`].
const FLEET_FLAGS: &[Flag] = &[
    ("--tiny", false),
    ("--quick", false),
    ("--devices", true),
    ("--frames", true),
    ("--shards", true),
    ("--trace-dir", true),
];

/// The flags `repro lint` accepts.
const LINT_FLAGS: &[Flag] = &[("--check", false), ("--emit-json", true)];

/// The flags `repro trace record` accepts.
const TRACE_RECORD_FLAGS: &[Flag] = &[
    ("--out", true),
    ("--tiny", false),
    ("--quick", false),
    ("--fitted", false),
    ("--fleet", false),
    ("--devices", true),
    ("--frames", true),
    ("--jobs", true),
];

/// The flags a subcommand accepts after its token, for the subcommands that
/// check their arguments.
fn subcommand_flags(sub: &str) -> Option<&'static [&'static [Flag]]> {
    Some(match sub {
        "sweep" => &[RESILIENCE_FLAGS, SWEEP_FLAGS],
        "compose" => &[RESILIENCE_FLAGS],
        "fleet" => &[RESILIENCE_FLAGS, FLEET_FLAGS],
        "lint" => &[LINT_FLAGS],
        "trace record" => &[TRACE_RECORD_FLAGS],
        _ => return None,
    })
}

/// Rejects the first argument after a subcommand token that the subcommand
/// does not accept, naming it. CI gates on these subcommands, so a typo'd
/// flag must fail loudly, never silently fall back to a default. A flag's
/// operand is the next argument unless that starts with `-`, as
/// [`flag_value`] reads it.
fn check_args(sub: &str, rest: &[String], accepted: &[&[Flag]]) -> Result<(), String> {
    let mut rest = rest.iter().peekable();
    while let Some(arg) = rest.next() {
        let Some(&(_, operand)) =
            accepted.iter().flat_map(|flags| flags.iter()).find(|f| f.0 == arg)
        else {
            return Err(format!("repro {sub}: unknown argument `{arg}` (see repro --help)"));
        };
        if operand {
            rest.next_if(|next| !next.starts_with('-'));
        }
    }
    Ok(())
}

/// Runs a user-provided `ScenarioSpec` (JSON) under the standard ladder of
/// configurations and prints the comparison.
fn run_custom(path: &str) -> DvsResult<String> {
    let json = read_text(Path::new(path))?;
    let spec: dvs_workload::ScenarioSpec = serde_json::from_str(&json)
        .map_err(|e| DvsError::InvalidConfig(format!("parse {path}: {e}")))?;
    let fitted = if spec.paper_baseline_fdps > 0.0 {
        dvs_pipeline::calibrate_spec(&spec, 3).spec
    } else {
        spec
    };
    let result = suite::run_suite(
        &format!("custom scenario: {}", fitted.name),
        std::slice::from_ref(&fitted),
        3,
        &[4, 5, 7],
    );
    Ok(result.render())
}

/// Whether `flag` appears anywhere on the command line.
fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// The operand following `flag`, if present and not itself a flag.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|p| args.get(p + 1))
        .filter(|a| !a.starts_with('-'))
}

/// The numeric operand of `flag`; an unparseable operand is a typed error.
fn flag_num<T: std::str::FromStr>(args: &[String], flag: &str) -> DvsResult<Option<T>> {
    match flag_value(args, flag) {
        None => Ok(None),
        Some(v) => v.parse::<T>().map(Some).map_err(|_| {
            DvsError::InvalidConfig(format!("{flag} needs a non-negative integer, got {v:?}"))
        }),
    }
}

/// Builds the executor fault-injection config from `--inject-*` flags
/// (shared by `repro sweep` and `repro compose`).
fn parse_faults(args: &[String]) -> DvsResult<ExecFaults> {
    Ok(ExecFaults {
        panic_in_cell: flag_num(args, "--inject-panic-cell")?,
        panic_attempts: flag_num(args, "--inject-panic-attempts")?.unwrap_or(u32::MAX),
        crash_at_cell: flag_num(args, "--inject-crash-cell")?,
        torn_checkpoint_write: has_flag(args, "--inject-torn-checkpoint"),
    })
}

/// Applies `--jobs N` when it appears after the subcommand token (the
/// normalisation loop in `main` only sees flags *before* `sweep`/`compose`).
fn apply_jobs_flag(args: &[String]) -> DvsResult<()> {
    if let Some(n) = flag_num::<usize>(args, "--jobs")? {
        if n == 0 {
            return Err(DvsError::InvalidConfig("--jobs needs a positive integer".into()));
        }
        sweep::set_default_jobs(n);
    }
    Ok(())
}

/// Builds the retry/checkpoint/fault configuration from the command line.
fn parse_resilience(args: &[String]) -> DvsResult<ResilienceConfig> {
    let retries: u32 = flag_num(args, "--retries")?.unwrap_or(RetryPolicy::default().max_attempts);
    let checkpoint = flag_value(args, "--checkpoint").map(|path| -> DvsResult<CheckpointConfig> {
        Ok(CheckpointConfig {
            path: path.clone(),
            cadence: flag_num(args, "--cadence")?.unwrap_or(1),
            resume: has_flag(args, "--resume"),
        })
    });
    Ok(ResilienceConfig {
        retry: RetryPolicy { max_attempts: retries.max(1) },
        checkpoint: checkpoint.transpose()?,
        faults: parse_faults(args)?,
    })
}

/// Runs `repro sweep`: the suite measured through the resilient executor,
/// with retry/quarantine, optional checkpoint/resume, and fault injection.
/// Returns the rendered output plus whether any cell was quarantined (the
/// caller maps that to exit code 2).
fn run_sweep(args: &[String]) -> DvsResult<(String, bool)> {
    apply_jobs_flag(args)?;
    let tiny = has_flag(args, "--tiny");
    let quick = has_flag(args, "--quick");
    let cfg = parse_resilience(args)?;
    let (specs, ladder, label) = if tiny {
        (tiny_suite(), vec![4usize, 5], "tiny resilient sweep".to_string())
    } else {
        let specs = sweepbench::bench_specs(quick);
        let label = if quick {
            "resilient sweep (quick: every 5th case)".to_string()
        } else {
            "resilient sweep (suite75)".to_string()
        };
        (specs, sweepbench::DEFAULT_LADDER.to_vec(), label)
    };
    let baseline_buffers = 3;
    // A recorded trace directory (`repro trace record --fitted`) lets the
    // grid skip calibration; results stay byte-identical because loads are
    // validated and fall back to calibrating.
    let cache = match flag_value(args, "--trace-dir") {
        Some(dir) => GridCache::with_trace_dir(&specs, baseline_buffers, dir),
        None => GridCache::for_suite(&specs, baseline_buffers),
    };
    let out = run_suite_resilient(
        &label,
        &specs,
        baseline_buffers,
        &ladder,
        sweep::default_jobs(),
        SweepMode::Aggregate,
        Some(&cache),
        &cfg,
    )?;
    let mut text = out.render();
    if let Some(pos) = args.iter().position(|a| a == "--emit-json") {
        let path = match args.get(pos + 1) {
            Some(next) if !next.starts_with('-') => next.clone(),
            _ => "sweep_report.json".to_string(),
        };
        // The emitted artifact is the byte-identity surface: identical for
        // interrupted+resumed and uninterrupted runs at any --jobs value.
        write_text(Path::new(&path), &(out.report.to_json() + "\n"))?;
        text.push_str(&format!("wrote {path}\n"));
    }
    Ok((text, out.degraded()))
}

/// Runs `repro compose` through the resilient executor: a panicking
/// compositor scenario retries and quarantines instead of aborting, and
/// quarantined scenarios map to exit code 2.
fn run_compose(args: &[String]) -> DvsResult<(String, bool)> {
    apply_jobs_flag(args)?;
    let cfg = parse_resilience(args)?;
    let out = run_compose_resilient(sweep::default_jobs(), &cfg)?;
    let mut text = out.render();
    if let Some(pos) = args.iter().position(|a| a == "--emit-json") {
        let path = match args.get(pos + 1) {
            Some(next) if !next.starts_with('-') => next.clone(),
            _ => "compose_report.json".to_string(),
        };
        // The emitted artifact is the byte-identity surface: identical for
        // interrupted+resumed and uninterrupted runs at any --jobs value.
        write_text(Path::new(&path), &(out.report.to_json() + "\n"))?;
        text.push_str(&format!("wrote {path}\n"));
    }
    Ok((text, out.degraded()))
}

/// Runs `repro fleet`: a seeded device population through the resilient
/// executor (shards as cells), reduced to mergeable sketches.
fn run_fleet(args: &[String]) -> DvsResult<(String, bool)> {
    apply_jobs_flag(args)?;
    let cfg = parse_resilience(args)?;
    let tiny = has_flag(args, "--tiny");
    let quick = has_flag(args, "--quick");
    let frames: usize =
        flag_num(args, "--frames")?.unwrap_or(if tiny { 24 } else { FRAMES_PER_DEVICE });
    let devices: u64 = flag_num(args, "--devices")?.unwrap_or(if tiny {
        96
    } else if quick {
        20_000
    } else {
        200_000
    });
    let spec = if tiny {
        FleetSpec::tiny(devices, frames)
    } else {
        FleetSpec::default_population("cli", devices, frames)
    };
    let jobs = sweep::default_jobs();
    let shards: usize = flag_num(args, "--shards")?.unwrap_or_else(|| (jobs * 8).max(16));
    let trace_dir = flag_value(args, "--trace-dir").map(PathBuf::from);
    let engine = FleetEngine::Batched;
    let out = run_fleet_resilient_with(&spec, shards, jobs, engine, &cfg, trace_dir.as_deref())?;
    let mut text = out.render();
    if let Some(pos) = args.iter().position(|a| a == "--emit-json") {
        let path = match args.get(pos + 1) {
            Some(next) if !next.starts_with('-') => next.clone(),
            _ => "fleet_report.json".to_string(),
        };
        // The emitted artifact is the byte-identity surface: identical for
        // interrupted+resumed and uninterrupted runs at any --jobs value
        // and any shard count.
        write_text(Path::new(&path), &(out.report.to_json()? + "\n"))?;
        text.push_str(&format!("wrote {path}\n"));
    }
    Ok((text, out.degraded()))
}

/// Runs `repro trace record|info|convert`: the binary trace tooling
/// (plain `repro trace` stays the Chrome trace-event export artefact).
fn run_trace_tool(args: &[String]) -> DvsResult<String> {
    let pos = args
        .iter()
        .position(|a| a.trim_start_matches('-').eq_ignore_ascii_case("trace"))
        .unwrap_or(0);
    let sub = args.get(pos + 1).map(String::as_str).unwrap_or("");
    // Positional operands after the subcommand (flags excluded).
    let operand = |n: usize| {
        args.iter().skip(pos + 2).filter(|a| !a.starts_with('-')).nth(n).ok_or_else(|| {
            DvsError::InvalidConfig(format!("repro trace {sub}: missing operand {n}"))
        })
    };
    match sub {
        "record" => {
            apply_jobs_flag(args)?;
            let Some(dir) = flag_value(args, "--out") else {
                return Err(DvsError::InvalidConfig("trace record needs --out <dir>".into()));
            };
            let dir = Path::new(dir);
            if has_flag(args, "--fleet") {
                let frames: usize = flag_num(args, "--frames")?.unwrap_or(24);
                let devices: u64 = flag_num(args, "--devices")?.unwrap_or(96);
                tracetool::record_fleet(&FleetSpec::tiny(devices, frames), dir)
            } else {
                let specs = if has_flag(args, "--tiny") {
                    tiny_suite()
                } else {
                    sweepbench::bench_specs(has_flag(args, "--quick"))
                };
                tracetool::record_suite(&specs, dir, has_flag(args, "--fitted"), 3)
            }
        }
        "info" => tracetool::info(Path::new(operand(0)?)),
        "convert" => tracetool::convert(Path::new(operand(0)?), Path::new(operand(1)?)),
        other => Err(DvsError::InvalidConfig(format!(
            "repro trace: unknown subcommand {other:?} (record, info, convert)"
        ))),
    }
}

/// Runs `repro ingest <log> [--name N] [--rate HZ] [--ui-share F]
/// [--out DIR]`: external frame-time log → calibrated scenario family.
fn run_ingest(args: &[String]) -> DvsResult<String> {
    let pos = args
        .iter()
        .position(|a| a.trim_start_matches('-').eq_ignore_ascii_case("ingest"))
        .unwrap_or(0);
    let Some(input) = args.get(pos + 1).filter(|a| !a.starts_with('-')) else {
        return Err(DvsError::InvalidConfig("ingest needs a frame-time log path".into()));
    };
    let mut opts = tracetool::IngestOptions::default();
    if let Some(name) = flag_value(args, "--name") {
        opts.name = name.clone();
    }
    if let Some(rate) = flag_num(args, "--rate")? {
        opts.rate_hz = rate;
    }
    if let Some(share) = flag_value(args, "--ui-share") {
        opts.ui_share =
            share.parse::<f64>().ok().filter(|s| (0.0..=1.0).contains(s)).ok_or_else(|| {
                DvsError::InvalidConfig(format!(
                    "--ui-share needs a value in [0, 1], got {share:?}"
                ))
            })?;
    }
    let out = tracetool::ingest(Path::new(input), &opts)?;
    match flag_value(args, "--out") {
        Some(dir) => out.write_artifacts(Path::new(dir)),
        None => Ok(out.render()),
    }
}

/// Maps a tri-state outcome to the process exit code: 0 clean, 2 completed
/// with quarantined cells (degradation, not failure — CI distinguishes the
/// two), and the caller maps hard errors to 1.
fn exit_tristate(result: DvsResult<(String, bool)>) -> ExitCode {
    match result {
        Ok((text, degraded)) => {
            print!("{text}");
            if degraded {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let jobs = jobs();
    let args: Vec<String> = env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage(&jobs));
        return ExitCode::SUCCESS;
    }

    // Normalise: "--fig 11" & "--fig11" -> "fig11"; "--table 2" -> "table2".
    let mut wanted: Vec<String> = Vec::new();
    let mut all = false;
    let mut i = 0;
    while i < args.len() {
        let a = args[i].trim_start_matches('-').to_lowercase();
        // `repro trace` alone stays the Chrome trace-event artefact; a
        // subcommand word selects the binary trace tooling.
        let tool = args
            .get(i + 1)
            .filter(|t| a == "trace" && matches!(t.as_str(), "record" | "info" | "convert"));
        let (sub, rest) = match tool {
            Some(t) => (format!("trace {t}"), &args[i + 2..]),
            None => (a.clone(), &args[i + 1..]),
        };
        let subcommand = tool.is_some()
            || matches!(a.as_str(), "sweep" | "compose" | "fleet" | "ingest" | "lint" | "custom");
        // A subcommand runs alone, so artefacts named before it would never
        // run: refuse the line before anything runs.
        if subcommand && (all || !wanted.is_empty()) {
            let named = if all { "--all".to_string() } else { wanted.join(", ") };
            eprintln!(
                "repro: `{sub}` runs alone; the artefacts named before it ({named}) would be \
                 dropped, so run them separately (see repro --help)"
            );
            return ExitCode::FAILURE;
        }
        if let Some(flags) = subcommand_flags(&sub) {
            if let Err(e) = check_args(&sub, rest, flags) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        match a.as_str() {
            "all" => all = true,
            "sweep" => return exit_tristate(run_sweep(&args)),
            "compose" => return exit_tristate(run_compose(&args)),
            "fleet" => return exit_tristate(run_fleet(&args)),
            "trace" if tool.is_some() => {
                return match run_trace_tool(&args) {
                    Ok(text) => {
                        print!("{text}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        ExitCode::FAILURE
                    }
                };
            }
            "ingest" => {
                return match run_ingest(&args) {
                    Ok(text) => {
                        print!("{text}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        ExitCode::FAILURE
                    }
                };
            }
            "lint" => {
                return match run_lint(&args) {
                    Ok((text, dirty)) => {
                        print!("{text}");
                        if dirty {
                            ExitCode::FAILURE
                        } else {
                            ExitCode::SUCCESS
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        ExitCode::FAILURE
                    }
                };
            }
            "custom" => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("custom needs a scenario JSON path");
                    return ExitCode::FAILURE;
                };
                match run_custom(path) {
                    Ok(text) => {
                        println!("{text}");
                        return ExitCode::SUCCESS;
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "jobs" | "j" => {
                let Some(n) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) else {
                    eprintln!("--jobs needs a positive integer");
                    return ExitCode::FAILURE;
                };
                if n == 0 {
                    eprintln!("--jobs needs a positive integer");
                    return ExitCode::FAILURE;
                }
                sweep::set_default_jobs(n);
                i += 1;
            }
            "fig" | "table" => {
                let Some(n) = args.get(i + 1) else {
                    eprintln!("--{a} needs a number");
                    return ExitCode::FAILURE;
                };
                wanted.push(format!("{a}{n}"));
                i += 1;
            }
            other => wanted.push(other.to_string()),
        }
        // Checked as each word is read, so an unknown word fails before a
        // later subcommand or any artefact runs.
        if let Some(w) = wanted.last().filter(|w| !jobs.iter().any(|j| j.key == w.as_str())) {
            eprintln!("repro: `{w}` names no artefact or subcommand (see repro --help)");
            return ExitCode::FAILURE;
        }
        i += 1;
    }

    let mut matched = 0;
    for job in &jobs {
        if all || wanted.iter().any(|w| w == job.key) {
            println!("{}", (job.run)());
            matched += 1;
        }
    }
    if matched == 0 {
        eprintln!("no artefact matched {wanted:?}\n");
        eprint!("{}", usage(&jobs));
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
