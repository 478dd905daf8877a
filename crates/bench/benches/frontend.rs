//! Frontend simulation rate: records per second through the full FDIP
//! model (TAGE + BTB + caches + timing). This bounds figure regeneration
//! time — the Fig. 1/11 grids run ~100 of these simulations.
//!
//! `lru_sim` is one run from a cold frontend: building the frontend event
//! stream plus one replay. `six_policies` is a policy comparison on one
//! trace — the benchmark's six policies through one fresh `Pipeline`, so
//! one build and six replays — and is what the stream sharing speeds up.
//!
//! Also measures the figure grid itself (a smoke-scale `fig01`) serially
//! and through the shared pool, so the scatter/gather overhead and the
//! machine's actual speedup are on record next to the per-sim rate.
//!
//! Run with `cargo bench -p thermometer-bench --bench frontend`;
//! results land in `results/bench_frontend.json` (median/MAD).

use std::hint::black_box;

use btb_model::policies::Lru;
use btb_trace::Trace;
use btb_workloads::{AppSpec, InputConfig};
use sim_support::BenchHarness;
use thermometer::pipeline::{Pipeline, PipelineConfig};
use thermometer::ThermometerPolicy;
use thermometer_bench::{run_figure, RunCtx, Scale};
use uarch_sim::{Frontend, FrontendConfig};

const STREAM_LEN: usize = 200_000;
const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

fn workload() -> Trace {
    AppSpec::by_name("kafka")
        .expect("built-in")
        .generate(InputConfig::input(0), STREAM_LEN)
}

fn main() {
    let trace = workload();
    let records = Some(trace.len() as u64);

    let mut harness = BenchHarness::new("frontend");
    harness.bench("lru_sim", records, || {
        let mut fe = Frontend::new(FrontendConfig::table1(), Lru::new());
        black_box(fe.run(&trace, None))
    });
    // A fresh Pipeline per iteration: its memo would otherwise keep the
    // event stream from one iteration to the next.
    harness.bench("full_pipeline_profile_plus_sim", records, || {
        let pipeline = Pipeline::new(PipelineConfig::default());
        let hints = pipeline.profile_to_hints(&trace);
        black_box(pipeline.run(&trace, ThermometerPolicy::new(), Some(&hints)))
    });
    let hints = Pipeline::default().profile_to_hints(&trace);
    harness.bench("six_policies", records, || {
        let pipeline = Pipeline::new(PipelineConfig::default());
        let mut reports: Vec<_> = ["lru", "srrip", "ghrp", "hawkeye", "opt"]
            .iter()
            .map(|name| {
                pipeline
                    .run_named(&trace, name, None)
                    .expect("known policy")
            })
            .collect();
        reports.push(pipeline.run(&trace, ThermometerPolicy::new(), Some(&hints)));
        black_box(reports)
    });

    // The grid executor, serial vs. pooled, on one representative figure.
    // Output is byte-identical either way (tests/grid_parallel.rs); only
    // wall-clock may differ, by up to the machine's core count.
    let smoke = Scale::smoke();
    let cells = Some(smoke.apps.len() as u64);
    let mut serial = RunCtx::new(1);
    harness.bench("fig01_grid_serial", cells, || {
        black_box(run_figure(&mut serial, "fig01", &smoke))
    });
    let mut pooled = RunCtx::default(); // SIM_THREADS or available parallelism
    harness.bench("fig01_grid_pooled", cells, || {
        black_box(run_figure(&mut pooled, "fig01", &smoke))
    });
    harness.note(&format!(
        "fig01_grid_pooled ran with {} worker thread(s); cells are independent, so \
         figures all --threads N scales with cores until cells per figure (3-13) are exhausted. \
         Full-sweep before/after wall-clock for this machine is recorded in results/grid_stats.json.",
        pooled.threads()
    ));
    harness.finish(RESULTS_DIR);
}
