//! Quickstart: the same workload under VSync and D-VSync.
//!
//! Generates a 60 Hz scenario with sporadic heavy key frames, runs it
//! through the classic triple-buffered VSync pipeline and through D-VSync
//! with increasing buffer counts, and prints the frame drops, latency, and
//! frame-kind distribution for each.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use dvsync::prelude::*;

fn main() {
    // A ten-second, 60 Hz scenario: short frames with key frames striking
    // roughly twice per second, in one-second animation segments.
    let spec =
        ScenarioSpec::new("quickstart", 60, 600, CostProfile::scattered(2.0)).with_paper_fdps(2.0);

    // Calibrate the key-frame rate so the VSync baseline drops ~2 frames/s,
    // like a mid-pack app in the paper's Figure 11.
    let calibrated = calibrate_spec(&spec, 3);
    let spec = calibrated.spec;
    println!(
        "calibrated key-frame rate: {:.2}/s (baseline measures {:.2} FDPS)\n",
        spec.cost.long_rate_per_sec,
        calibrated.baseline.fdps()
    );

    println!(
        "{:<22} {:>7} {:>9} {:>10} {:>9} {:>9}",
        "architecture", "janks", "FDPS", "latency", "stuffed%", "direct%"
    );

    let baseline = run_segmented(&spec, 3, || Box::new(VsyncPacer::new()));
    print_row("VSync (3 buffers)", &baseline);

    for buffers in [4usize, 5, 7] {
        let report = run_segmented(&spec, buffers, move || {
            Box::new(DvsyncPacer::new(DvsyncConfig::with_buffers(buffers)))
        });
        print_row(&format!("D-VSync ({buffers} buffers)"), &report);
    }

    println!(
        "\nEvery D-VSync frame was rendered for exactly the refresh it appeared at\n\
         (the Display Time Virtualizer's guarantee), while cutting latency to the\n\
         two-period pipeline floor."
    );
}

fn print_row(label: &str, report: &RunReport) {
    let dist = report.distribution();
    println!(
        "{:<22} {:>7} {:>9.2} {:>8.1}ms {:>8.1}% {:>8.1}%",
        label,
        report.janks.len(),
        report.fdps(),
        report.mean_latency_ms(),
        dist.stuffed * 100.0,
        dist.direct * 100.0
    );
}
