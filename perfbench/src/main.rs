//! The repository benchmark: three workloads measured end to end with
//! tracing off, and a traced run that splits each workload's time,
//! allocations and calls across the layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     [--workload fleet|sweep-cold|sweep-resumable|all] [--seed N]
//!     [--seconds S] [--trace 0|1] [--jobs N]
//! ```
//!
//! `--trace 0` prints `sim_frames_per_s`, `setup_s`, `peak_heap_mb` and
//! `failed_frac`, the first two scaled to nominal host speed by a reference
//! kernel timed in the same run; `--trace 1` alternates untraced and traced
//! passes and prints the per-layer breakdown. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. Any failed output check makes the exit code 1. README.md lists
//! what each metric should move and how the older `BENCH_*.json` headlines
//! map onto it.

mod alloc;
mod exec;
mod fleet;
mod reference;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dvs_metrics::FPE_DTV_EXEC_PER_FRAME;
use dvs_sim::DvsResult;

use crate::exec::{Pass, Probe};
use crate::fleet::Fleet;
use crate::sweep::Sweep;
use crate::trace::{Kind, Summary, LAYERS};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const WORKLOADS: [&str; 3] = ["fleet", "sweep-cold", "sweep-resumable"];

/// Devices in one `fleet` pass: long enough that a pass is a few tenths of
/// a second at two workers, short enough for dozens of passes per window.
const FLEET_DEVICES: u64 = 16_000;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The paper's §6.4 FPE + DTV cost per frame, and the 120 Hz period it is
/// quoted against.
const PAPER_FPE_DTV_US: f64 = 102.6;
const PERIOD_120HZ_NS: f64 = 1e9 / 120.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    jobs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad("fleet, sweep-cold, sweep-resumable or all"));
                }
                args.workload = value;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--jobs" => {
                args.jobs = value.parse().map_err(|_| bad("a positive integer"))?;
                if args.jobs == 0 {
                    return Err(bad("a positive integer"));
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

// ---- Workloads -------------------------------------------------------------

enum Workload {
    Fleet(Fleet),
    Sweep(Sweep),
}

impl Workload {
    /// Builds the workload's inputs from the seed; `sweep-resumable` also
    /// records its calibrated corpus under `dir`.
    fn build(name: &str, seed: u64, jobs: usize, dir: &std::path::Path) -> DvsResult<Self> {
        Ok(match name {
            "fleet" => Workload::Fleet(Fleet::new(seed, FLEET_DEVICES, jobs)),
            "sweep-cold" => Workload::Sweep(Sweep::cold(sweep::suite(seed), jobs)),
            _ => Workload::Sweep(Sweep::resumable(sweep::suite(seed), jobs, dir)?),
        })
    }

    fn run(&self) -> DvsResult<Pass> {
        match self {
            Workload::Fleet(f) => f.run(),
            Workload::Sweep(s) => s.run(),
        }
    }

    fn run_traced(&self, count_events: bool) -> DvsResult<(Pass, Probe, f64)> {
        match self {
            Workload::Fleet(f) => f.run_traced(),
            Workload::Sweep(s) => s.run_traced(count_events),
        }
    }

    fn frames(&self) -> u64 {
        match self {
            Workload::Fleet(f) => f.frames(),
            Workload::Sweep(s) => s.frames(),
        }
    }

    fn dvsync_frames(&self) -> u64 {
        match self {
            Workload::Fleet(f) => f.frames(),
            Workload::Sweep(s) => s.dvsync_frames(),
        }
    }

    /// The older harnesses' unit for `sim_frames_per_s`: devices/min for the
    /// fleet, cells/s for the sweeps.
    fn per_unit(&self, frames_per_s: f64) -> String {
        match self {
            Workload::Fleet(f) => {
                format!("{:.0} devices/min", frames_per_s / f.spec.frames as f64 * 60.0)
            }
            Workload::Sweep(s) => {
                format!("{:.0} cells/s", frames_per_s * s.cells() as f64 / s.frames() as f64)
            }
        }
    }

    fn describe(&self) -> String {
        match self {
            Workload::Fleet(f) => format!(
                "default population: {} devices x {} frames, {} shards, batched engine",
                f.spec.devices, f.spec.frames, f.shards
            ),
            Workload::Sweep(s) => format!(
                "suite75 ladder: {} scenarios, {} cells, {} frames per pass",
                s.specs.len(),
                s.cells(),
                s.frames()
            ),
        }
    }
}

/// A work directory under the current directory, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: &str) -> Self {
        WorkDir(PathBuf::from(".perfbench-work").join(format!("{workload}-{}", std::process::id())))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}

// ---- Measurement -----------------------------------------------------------

/// One metric as the JSON line reports it.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value: if value.is_finite() { value } else { 0.0 }, unit }
}

/// What one workload's run reports.
#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Outcome {
    /// Books a pass: its units, its failures, and whether its digest matches
    /// the reference digest of this run.
    fn book(&mut self, pass: &Pass, reference: u64, what: &str) {
        self.attempted += pass.units;
        let mut failed = pass.failed_units();
        for p in &pass.problems {
            self.problems.push(format!("{what}: {p}"));
        }
        if pass.quarantined > 0 {
            self.problems.push(format!("{what}: {} units quarantined", pass.quarantined));
        }
        if pass.digest != reference {
            self.problems.push(format!(
                "{what}: digest {:016x} differs from the reference {reference:016x}",
                pass.digest
            ));
            failed = pass.units;
        }
        self.failed += failed;
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn spread(v: &[f64]) -> String {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match (s.first(), s.last()) {
        (Some(lo), Some(hi)) => format!("min {lo:.4}, max {hi:.4}, n = {}", s.len()),
        _ => "n = 0".to_string(),
    }
}

/// Builds the workload and runs one warm-up pass, whose digest becomes the
/// run's reference. Returns the workload, the warm-up pass and the seconds
/// taken. Set-up `k` writes into a directory of its own: rewriting the
/// previous set-up's files would force their write-back on ext4.
fn set_up(name: &str, args: &Args, dir: &WorkDir, k: usize) -> DvsResult<(Workload, Pass, f64)> {
    let t = Instant::now();
    let w = Workload::build(name, args.seed, args.jobs, &dir.0.join(format!("set-up-{k}")))?;
    let warm = w.run()?;
    Ok((w, warm, t.elapsed().as_secs_f64()))
}

/// The host's speed right now, as a share of the reference kernel's nominal
/// speed on the same number of threads.
fn host_speed(jobs: usize) -> f64 {
    reference::ops_per_s(jobs) / reference::NOMINAL_OPS_PER_S
}

/// The untraced run: [`SETUPS`] set-ups, then passes until the window ends.
/// Each set-up and each pass is followed by a reference-kernel measurement;
/// the medians of the set-up times and pass rates are scaled by the median
/// host speed to the host's nominal speed.
fn measure(name: &str, args: &Args, out: &mut Outcome) -> DvsResult<()> {
    let dir = WorkDir::new(name);
    alloc::reset_peak();
    let (mut raw_setups, mut setup_speeds) = (Vec::new(), Vec::new());
    let mut built: Option<(Workload, Pass)> = None;
    for k in 0..SETUPS {
        let reference = built.take().map(|(_, warm)| warm.digest);
        let (w, warm, secs) = set_up(name, args, &dir, k)?;
        raw_setups.push(secs);
        setup_speeds.push(host_speed(args.jobs));
        out.book(&warm, reference.unwrap_or(warm.digest), &format!("warm-up pass {}", k + 1));
        built = Some((w, warm));
    }
    let (w, warm) = built.expect("at least one set-up");
    let reference = warm.digest;
    println!("== {name} (seed {}, jobs {}, tracing off) ==", args.seed, args.jobs);
    println!("{}", w.describe());

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut rates, mut speeds) = (Vec::new(), Vec::new());
    while rates.is_empty() || Instant::now() < deadline {
        let t = Instant::now();
        let pass = w.run()?;
        rates.push(w.frames() as f64 / t.elapsed().as_secs_f64());
        speeds.push(host_speed(args.jobs));
        out.book(&pass, reference, &format!("pass {}", rates.len()));
    }
    let peak_mb = alloc::peak_bytes() as f64 / 1e6;
    let (raw_fps, speed) = (median(&rates), median(&speeds));
    let fps = raw_fps / speed;
    let (raw_setup, setup_speed) = (median(&raw_setups), median(&setup_speeds));
    let setup_s = raw_setup * setup_speed;
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!("digest {reference:016x} on every pass: {}", out.problems.is_empty());
    println!("sim_frames_per_s {fps:.1} 1/s = {} at nominal host speed", w.per_unit(fps));
    println!(
        "                 {raw_fps:.1} 1/s = {} per host second (median pass; {}), \
         host at {speed:.3} of nominal (median; {})",
        w.per_unit(raw_fps),
        spread(&rates),
        spread(&speeds)
    );
    println!(
        "setup_s          {setup_s:.4} s at nominal host speed, {raw_setup:.4} s on the host \
         (median set-up; {}), host at {setup_speed:.3} of nominal",
        spread(&raw_setups)
    );
    println!("peak_heap_mb     {peak_mb:.3} MB (set-up included)");
    println!("failed_frac      {failed_frac} ({} of {} units)", out.failed, out.attempted);
    println!("model: {}", warm.headline);
    out.metrics.push(metric("sim_frames_per_s", fps, "1/s"));
    out.metrics.push(metric("setup_s", setup_s, "s"));
    out.metrics.push(metric("peak_heap_mb", peak_mb, "MB"));
    Ok(())
}

/// The traced run: untraced and traced passes alternate over the window,
/// with the same inputs and worker count; the traced passes' spans fold
/// into the per-layer breakdown.
fn measure_traced(name: &str, args: &Args, out: &mut Outcome) -> DvsResult<()> {
    let dir = WorkDir::new(name);
    let (w, warm, _) = set_up(name, args, &dir, 0)?;
    let reference = warm.digest;
    out.book(&warm, reference, "warm-up pass");
    println!("== {name} (seed {}, jobs {}, traced) ==", args.seed, args.jobs);
    println!("{}", w.describe());

    let mut summary = Summary::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut wall, mut events, mut decoded, mut ckpt_bytes) = (0.0, 0, 0, 0);
    let mut exec = exec::ExecCounts::default();
    let mut untraced_units = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while traced.is_empty() || Instant::now() < deadline {
        let t = Instant::now();
        let pass = w.run()?;
        plain.push(w.frames() as f64 / t.elapsed().as_secs_f64());
        out.book(&pass, reference, "untraced pass");
        untraced_units += pass.units;
        exec.cache_hits += pass.exec.cache_hits;
        exec.cache_misses += pass.exec.cache_misses;
        exec.cache_loads += pass.exec.cache_loads;
        exec.retried += pass.exec.retried;

        let (pass, probe, secs) = w.run_traced(traced.is_empty())?;
        traced.push(w.frames() as f64 / secs);
        out.book(&pass, reference, "traced pass");
        if traced.len() == 1 {
            events = probe.events;
        }
        wall += secs;
        decoded += probe.decoded_frames;
        ckpt_bytes += probe.checkpoint_bytes;
        if let Err(e) = summary.fold(probe.threads) {
            out.problems.push(format!("span accounting: {e}"));
        }
    }
    let passes = summary.passes.max(1) as f64;
    let overhead_pct = (median(&plain) / median(&traced) - 1.0) * 100.0;

    println!(
        "{:<22} {:>11} {:>12} {:>10} {:>18} {:>12} {:>13}",
        "layer (per pass)", "calls", "self ms", "p50 us", "tail us", "allocs", "alloc bytes"
    );
    for kind in LAYERS {
        let l = summary.layer(kind);
        let (tail_name, q) = l.hist.tail();
        let tail_us = l.hist.quantile(q) / 1e3;
        let p50_us = l.hist.quantile(0.5) / 1e3;
        let label =
            if l.calls == 0 { "-".to_string() } else { format!("{tail_us:.3} ({tail_name})") };
        println!(
            "{:<22} {:>11.1} {:>12.3} {:>10.3} {:>18} {:>12.1} {:>13.0}",
            kind.name(),
            l.calls as f64 / passes,
            l.self_ns as f64 / 1e6 / passes,
            p50_us,
            label,
            l.allocs as f64 / passes,
            l.bytes as f64 / passes
        );
        let n = kind.name();
        out.metrics.push(metric(format!("{n}.calls"), l.calls as f64 / passes, "count"));
        out.metrics.push(metric(format!("{n}.self_s"), l.self_ns as f64 / 1e9 / passes, "s"));
        out.metrics.push(metric(format!("{n}.p50_us"), p50_us, "us"));
        out.metrics.push(metric(format!("{n}.tail_us"), tail_us, "us"));
        out.metrics.push(metric(format!("{n}.allocs"), l.allocs as f64 / passes, "count"));
        out.metrics.push(metric(format!("{n}.alloc_bytes"), l.bytes as f64 / passes, "B"));
    }

    let decode = summary.layer(Kind::Decode);
    let decode_fps = ratio(decoded as f64, decode.self_ns as f64 / 1e9);
    let simulate = summary.layer(Kind::Simulate);
    let ns_per_event = ratio(simulate_ns(&summary) / passes, events as f64);
    let plan = summary.layer(Kind::CorePlan);
    let plan_ns_per_frame = ratio(plan.self_ns as f64 / passes, w.dvsync_frames() as f64);
    let plan_period_pct = plan_ns_per_frame / PERIOD_120HZ_NS * 100.0;
    let busy = summary.busy_ns as f64;
    let busy_frac = ratio(busy / 1e9, args.jobs as f64 * wall);
    let unattributed = ratio(summary.unattributed_ns as f64, busy);
    let lookups = (exec.cache_hits + exec.cache_misses) as f64;
    let hit_ratio = ratio(exec.cache_hits as f64, lookups);
    let recorded = ratio(exec.cache_loads as f64, exec.cache_misses as f64);
    let units = untraced_units as f64;
    let retry_ratio = ratio(exec.retried as f64, units);
    println!(
        "workload.decode        {decode_fps:.0} frames/s ({decoded} frames over {} ns)",
        decode.self_ns
    );
    println!(
        "pipeline.simulate      {events} events per pass, {ns_per_event:.1} ns/event \
         (span time over the events CoreStats counts; {} calls per pass)",
        simulate.calls as f64 / passes
    );
    println!(
        "core.plan (§6.4)       p50 {:.0} ns, {} {:.0} ns per decision; {plan_ns_per_frame:.0} ns \
         per D-VSync frame = {plan_period_pct:.4} % of a 120 Hz period (paper: FPE + DTV \
         {PAPER_FPE_DTV_US} µs = {:.2} %; modelled FPE_DTV_EXEC_PER_FRAME {} µs)",
        plan.hist.quantile(0.5),
        plan.hist.tail().0,
        plan.hist.quantile(plan.hist.tail().1),
        PAPER_FPE_DTV_US * 1e3 / PERIOD_120HZ_NS * 100.0,
        FPE_DTV_EXEC_PER_FRAME.as_micros_f64()
    );
    println!(
        "exec.busy_frac         {busy_frac:.4} ({:.3} busy s over {} threads x {wall:.3} s)",
        busy / 1e9,
        args.jobs
    );
    println!(
        "exec.unattributed_frac {unattributed:.4} ({:.3} s of busy time in no layer span)",
        summary.unattributed_ns as f64 / 1e9
    );
    println!(
        "exec.cache_hit_ratio   {hit_ratio:.4} ({} hits of {lookups} lookups)",
        exec.cache_hits
    );
    println!(
        "exec.recorded_ratio    {recorded:.4} ({} of {} misses replayed a recording)",
        exec.cache_loads, exec.cache_misses
    );
    println!("exec.retry_ratio       {retry_ratio:.4} ({} of {units} units retried)", exec.retried);
    println!("exec.checkpoint_bytes  {:.0} B per pass", ckpt_bytes as f64 / passes);
    println!(
        "trace_overhead_pct     {overhead_pct:.2} % (median untraced {:.1} vs traced {:.1} \
         frames/s over {} pass pairs)",
        median(&plain),
        median(&traced),
        traced.len()
    );
    let extras = [
        ("workload.decode_frames_per_s", decode_fps, "1/s"),
        ("exec.checkpoint_bytes", ckpt_bytes as f64 / passes, "B"),
        ("pipeline.events", events as f64, "count"),
        ("pipeline.ns_per_event", ns_per_event, "ns"),
        ("core.plan_period_pct", plan_period_pct, "%"),
        ("exec.busy_frac", busy_frac, "ratio"),
        ("exec.unattributed_frac", unattributed, "ratio"),
        ("exec.cache_hit_ratio", hit_ratio, "ratio"),
        ("exec.recorded_ratio", recorded, "ratio"),
        ("exec.retry_ratio", retry_ratio, "ratio"),
        ("trace_overhead_pct", overhead_pct, "%"),
    ];
    for (n, v, u) in extras {
        out.metrics.push(metric(n, v, u));
    }
    Ok(())
}

/// The simulate span's whole duration, pacer callbacks included: the self
/// time of `pipeline.simulate` plus the callbacks it covers.
fn simulate_ns(s: &Summary) -> f64 {
    (s.layer(Kind::Simulate).self_ns
        + s.layer(Kind::CorePlan).self_ns
        + s.layer(Kind::VsyncPlan).self_ns) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn json_line(out: &Outcome, prefix: &str, metrics: &mut Vec<String>) {
    for m in &out.metrics {
        metrics.push(format!(
            "\"{prefix}{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench [--workload fleet|sweep-cold|sweep-resumable|all] [--seed N] \
                 [--seconds S] [--trace 0|1] [--jobs N]"
            );
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let (mut attempted, mut failed, mut problems, mut metrics) = (0, 0, Vec::new(), Vec::new());
    for name in &names {
        let mut out = Outcome::default();
        let ran = if args.trace {
            measure_traced(name, &args, &mut out)
        } else {
            measure(name, &args, &mut out)
        };
        if let Err(e) = ran {
            out.problems.push(e.to_string());
            out.failed = out.failed.max(1);
            out.attempted = out.attempted.max(out.failed);
        }
        for p in &out.problems {
            eprintln!("perfbench: check failed: {name}: {p}");
        }
        println!();
        let prefix = if names.len() > 1 { format!("{name}.") } else { String::new() };
        json_line(&out, &prefix, &mut metrics);
        attempted += out.attempted;
        failed += out.failed;
        problems.extend(out.problems);
    }
    let correct = problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_workload::FleetSpec;

    /// Folds one traced pass and checks it against an untraced pass of the
    /// same inputs: equal digests, clean checks, and span accounting in
    /// which every layer's self time plus the unattributed time sums to the
    /// threads' busy time.
    fn traced_matches_untraced(w: &Workload) -> Summary {
        let plain = w.run().expect("untraced pass runs");
        let (traced, probe, wall) = w.run_traced(true).expect("traced pass runs");
        assert!(plain.problems.is_empty(), "{:?}", plain.problems);
        assert!(traced.problems.is_empty(), "{:?}", traced.problems);
        assert_eq!(traced.digest, plain.digest, "traced report differs from the program's");
        assert!(wall > 0.0 && probe.events > 0);
        let mut summary = Summary::default();
        summary.fold(probe.threads).expect("spans account for busy time");
        let attributed: u64 = summary.layers.iter().map(|l| l.self_ns).sum();
        assert_eq!(attributed + summary.unattributed_ns, summary.busy_ns);
        assert!(summary.busy_ns > 0);
        summary
    }

    #[test]
    fn tiny_fleet_traced_pass_accounts_for_busy_time() {
        let fleet = Fleet { spec: FleetSpec::tiny(96, 24), shards: 4, jobs: 2 };
        let s = traced_matches_untraced(&Workload::Fleet(fleet));
        assert_eq!(s.layer(Kind::Sample).calls, 96);
        assert_eq!(s.layer(Kind::Fold).calls, 96);
        assert_eq!(s.layer(Kind::Merge).calls, 8, "one serialize and one merge per shard");
        assert!(s.layer(Kind::CorePlan).calls > 0);
        for idle in [Kind::Calibrate, Kind::Decode, Kind::Checkpoint, Kind::VsyncPlan] {
            assert_eq!(s.layer(idle).calls, 0, "{} is never called on the fleet", idle.name());
        }
    }

    #[test]
    fn tiny_cold_sweep_traced_pass_accounts_for_busy_time() {
        let sweep = Sweep::cold(dvs_bench::tiny_suite(), 2);
        let s = traced_matches_untraced(&Workload::Sweep(sweep));
        assert_eq!(s.layer(Kind::Calibrate).calls, 2);
        assert_eq!(s.layer(Kind::Simulate).calls, 10);
        assert_eq!(s.layer(Kind::Decode).calls, 0);
    }

    #[test]
    fn tiny_resumable_sweep_replays_and_checkpoints() {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        let sweep = Sweep::resumable(dvs_bench::tiny_suite(), 2, &dir).expect("corpus records");
        let s = traced_matches_untraced(&Workload::Sweep(sweep));
        assert_eq!(s.layer(Kind::Calibrate).calls, 0, "calibration moved into set-up");
        assert_eq!(s.layer(Kind::Decode).calls, 2);
        let periodic = 10 / sweep::CHECKPOINT_CADENCE as u64;
        assert_eq!(s.layer(Kind::Checkpoint).calls, periodic + 1, "cadence writes + final flush");
        std::fs::remove_dir_all(&dir).ok();
    }
}
