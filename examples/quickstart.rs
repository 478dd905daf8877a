//! Quickstart: profile a workload, build hints, and compare Thermometer
//! against LRU and the optimal policy.
//!
//! ```text
//! cargo run --release -p thermometer --example quickstart
//! ```

use btb_model::policies::{BeladyOpt, Lru, Srrip};
use btb_workloads::{AppSpec, InputConfig};
use thermometer::pipeline::{Pipeline, PipelineConfig};
use thermometer::ThermometerPolicy;

fn main() {
    // 1. A synthetic data center application (see btb-workloads for the
    //    13 models mirroring the paper's benchmark list).
    let spec = AppSpec::by_name("kafka").expect("kafka is built in");
    println!("generating traces for {} ...", spec.name);
    // Trace length matters: the training profile must cover the branch
    // working set before its hints transfer (the figure harness uses 2M).
    let train = spec.generate(InputConfig::input(0), 1_500_000);
    let test = spec.generate(InputConfig::input(1), 1_500_000);

    // 2. The profile-guided pipeline: replay Belady's OPT offline over the
    //    training trace, classify branches into hot/warm/cold, and emit the
    //    per-branch 2-bit hints.
    let pipeline = Pipeline::new(PipelineConfig::default());
    let profile = pipeline.profile(&train);
    let hints = thermometer::HintTable::from_profile(
        &profile,
        &thermometer::TemperatureConfig::paper_default(),
    );
    let hist = hints.category_histogram();
    println!(
        "profiled {} branches over {} OPT-replayed accesses: {} cold / {} warm / {} hot",
        profile.unique_branches(),
        profile.accesses,
        hist[0],
        hist[1],
        hist[2],
    );

    // 3. Simulate the *test* input (a different execution) under each
    //    policy on the Table 1 frontend.
    let lru = pipeline.run(&test, Lru::new(), None);
    let srrip = pipeline.run(&test, Srrip::new(), None);
    let therm = pipeline.run(&test, ThermometerPolicy::new(), Some(&hints));
    let opt = pipeline.run(&test, BeladyOpt::new(), None);

    println!("\npolicy        IPC     BTB MPKI   speedup over LRU");
    for report in [&lru, &srrip, &therm, &opt] {
        println!(
            "{:12} {:.3}   {:8.3}   {:+.2}%",
            report.label,
            report.ipc(),
            report.btb_mpki(),
            report.speedup_over(&lru)
        );
    }
    println!(
        "\nThermometer removed {:.1}% of LRU's BTB misses (OPT: {:.1}%).",
        therm.miss_reduction_over(&lru),
        opt.miss_reduction_over(&lru)
    );
}
