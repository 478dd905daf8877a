//! Figures 11–16: the main evaluation (§4.2 of the paper).
//!
//! The evaluation methodology follows §4.1: Thermometer's hints come from a
//! *training* execution (input `#0`); the measured execution is a different
//! input (`#1` by default, `#1..#3` for Fig. 13).

use btb_model::policies::{BeladyOpt, Ghrp, Hawkeye, Lru, Srrip};
use btb_model::BtbConfig;
use btb_workloads::InputConfig;
use thermometer::accuracy::measure_accuracy;
use thermometer::pipeline::{Pipeline, PipelineConfig};
use thermometer::{HolisticOnly, ThermometerPolicy};

use super::{test_trace, train_trace};
use crate::scale::Scale;
use crate::text::{FigureResult, Row};
use crate::{per_app, RunCtx};

/// Fig. 11: Thermometer (including the 7979-entry iso-storage variant) vs.
/// prior policies and OPT.
pub fn fig11(ctx: &mut RunCtx, scale: &Scale) -> FigureResult {
    let rows = per_app(ctx, "fig11", &scale.apps, |spec| {
        let pipeline = Pipeline::new(PipelineConfig::default());
        let iso = pipeline.with_btb(BtbConfig::iso_storage_7979());
        let train = train_trace(spec, scale);
        let test = test_trace(spec, scale);
        let hints = pipeline.profile_to_hints(&train);
        let hints_iso = iso.profile_to_hints(&train);
        let lru = pipeline.run(&test, Lru::new(), None);
        Row::new(
            spec.name.clone(),
            [
                pipeline.run(&test, Srrip::new(), None),
                pipeline.run(&test, Ghrp::default(), None),
                pipeline.run(&test, Hawkeye::default(), None),
                pipeline.run(&test, ThermometerPolicy::new(), Some(&hints)),
                iso.run(&test, ThermometerPolicy::new(), Some(&hints_iso)),
                pipeline.run(&test, BeladyOpt::new(), None),
            ]
            .map(|r| r.speedup_over(&lru))
            .to_vec(),
        )
    });
    let mut fig = FigureResult {
        id: "fig11".into(),
        title: "Thermometer vs. prior replacement policies and OPT, over LRU".into(),
        unit: "IPC speedup %".into(),
        columns: [
            "SRRIP",
            "GHRP",
            "Hawkeye",
            "Thermometer",
            "Therm-7979",
            "OPT",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        notes: vec![
            "Paper: Thermometer 8.7% average (83.6% of OPT's 10.4%), 5.6x the best prior work \
             (SRRIP, 1.5%); the iso-storage 7979-entry variant performs comparably."
                .into(),
            "Hints are trained on input #0 and evaluated on input #1, per §4.1.".into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}

/// Fig. 12: BTB miss reduction over LRU.
pub fn fig12(ctx: &mut RunCtx, scale: &Scale) -> FigureResult {
    let rows = per_app(ctx, "fig12", &scale.apps, |spec| {
        let pipeline = Pipeline::new(PipelineConfig::default());
        let train = train_trace(spec, scale);
        let test = test_trace(spec, scale);
        let hints = pipeline.profile_to_hints(&train);
        let lru = pipeline.run(&test, Lru::new(), None);
        Row::new(
            spec.name.clone(),
            [
                pipeline.run(&test, Srrip::new(), None),
                pipeline.run(&test, Ghrp::default(), None),
                pipeline.run(&test, Hawkeye::default(), None),
                pipeline.run(&test, ThermometerPolicy::new(), Some(&hints)),
                pipeline.run(&test, BeladyOpt::new(), None),
            ]
            .map(|r| r.miss_reduction_over(&lru))
            .to_vec(),
        )
    });
    let mut fig = FigureResult {
        id: "fig12".into(),
        title: "BTB miss reduction over LRU".into(),
        unit: "miss reduction %".into(),
        columns: ["SRRIP", "GHRP", "Hawkeye", "Thermometer", "OPT"]
            .map(String::from)
            .to_vec(),
        rows,
        notes: vec![
            "Paper: Thermometer removes 21.3% of all BTB misses (62.6% of OPT's 34%); prior \
             policies manage at most 6.7%."
                .into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}

/// Fig. 13: generalization across inputs — training-input profile vs.
/// same-input profile, as a percentage of the optimal speedup.
pub fn fig13(ctx: &mut RunCtx, scale: &Scale) -> FigureResult {
    let per_app_rows = per_app(ctx, "fig13", &scale.apps, |spec| {
        let pipeline = Pipeline::new(PipelineConfig::default());
        let train = train_trace(spec, scale);
        let train_hints = pipeline.profile_to_hints(&train);
        let mut rows = Vec::new();
        for input in 1..=3u32 {
            let test = spec.generate(InputConfig::input(input), scale.trace_len);
            let same_hints = pipeline.profile_to_hints(&test);
            let lru = pipeline.run(&test, Lru::new(), None);
            let opt_speedup = pipeline
                .run(&test, BeladyOpt::new(), None)
                .speedup_over(&lru);
            let pct = |speedup: f64| {
                if opt_speedup.abs() < 1e-9 {
                    0.0
                } else {
                    speedup / opt_speedup * 100.0
                }
            };
            rows.push(Row::new(
                format!("{} #{input}", spec.name),
                vec![
                    pct(pipeline.run(&test, Srrip::new(), None).speedup_over(&lru)),
                    pct(pipeline
                        .run(&test, ThermometerPolicy::new(), Some(&train_hints))
                        .speedup_over(&lru)),
                    pct(pipeline
                        .run(&test, ThermometerPolicy::new(), Some(&same_hints))
                        .speedup_over(&lru)),
                ],
            ));
        }
        rows
    });
    let mut fig = FigureResult {
        id: "fig13".into(),
        title: "Speedup across application inputs as % of the optimal policy's speedup".into(),
        unit: "% of OPT speedup".into(),
        columns: [
            "SRRIP",
            "Therm-training-profile",
            "Therm-same-input-profile",
        ]
        .map(String::from)
        .to_vec(),
        rows: per_app_rows.into_iter().flatten().collect(),
        notes: vec![
            "Paper: the training-input profile retains most of the same-input benefit because \
             ~81% of branches keep their temperature category across inputs."
                .into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}

/// Fig. 14: offline OPT-simulation cost.
///
/// The paper reports wall-clock seconds; wall-clock is not reproducible, and
/// this report must regenerate byte-identically (EXPERIMENTS.md), so the
/// figure reports the deterministic work metric — taken-branch accesses the
/// OPT replay processes — plus the unique-branch count that sizes the
/// resulting profile. Measured wall-clock per access lives in the bench
/// harness (`cargo bench --bench profiling` → `results/bench_profiling.json`).
pub fn fig14(ctx: &mut RunCtx, scale: &Scale) -> FigureResult {
    let rows = per_app(ctx, "fig14", &scale.apps, |spec| {
        let pipeline = Pipeline::new(PipelineConfig::default());
        let train = train_trace(spec, scale);
        let profile = pipeline.profile(&train);
        let accesses: u64 = profile.branches.values().map(|c| c.taken).sum();
        Row::new(
            spec.name.clone(),
            vec![
                accesses as f64 / 1e6,
                profile.unique_branches() as f64 / 1e3,
            ],
        )
    });
    let mut fig = FigureResult {
        id: "fig14".into(),
        title: "Offline optimal-replacement simulation cost".into(),
        unit: "work per profiling run".into(),
        columns: vec!["OPT accesses (M)".into(), "Unique branches (K)".into()],
        rows,
        notes: vec![
            "Paper: 4.18-167 s per application (23.53 s average) on their traces — comparable to \
             production post-link-optimizer runtimes. The deterministic work metric is reported \
             here; multiply by the measured per-access cost from \
             results/bench_profiling.json (opt_profile median / elements) for wall-clock time."
                .into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}

/// Fig. 15: replacement coverage — evictions where the temperature
/// distinguished the candidates.
pub fn fig15(ctx: &mut RunCtx, scale: &Scale) -> FigureResult {
    let rows = per_app(ctx, "fig15", &scale.apps, |spec| {
        let pipeline = Pipeline::new(PipelineConfig::default());
        let train = train_trace(spec, scale);
        let test = test_trace(spec, scale);
        let hints = pipeline.profile_to_hints(&train);
        let (_, coverage) = pipeline.run_thermometer_detailed(&test, &hints);
        Row::new(spec.name.clone(), vec![coverage.coverage() * 100.0])
    });
    let mut fig = FigureResult {
        id: "fig15".into(),
        title: "Replacement coverage of Thermometer".into(),
        unit: "% of replacement decisions".into(),
        columns: vec!["Coverage".into()],
        rows,
        notes: vec![
            "Paper: 61.4% of replacement decisions are resolved by temperature (the rest fall \
             back to LRU among equal-temperature candidates)."
                .into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}

/// Fig. 16: replacement accuracy of transient-only (LRU), holistic-only,
/// and Thermometer decisions.
pub fn fig16(ctx: &mut RunCtx, scale: &Scale) -> FigureResult {
    let config = BtbConfig::table1();
    let rows = per_app(ctx, "fig16", &scale.apps, |spec| {
        let pipeline = Pipeline::new(PipelineConfig::default());
        let train = train_trace(spec, scale);
        let test = test_trace(spec, scale);
        let hints = pipeline.profile_to_hints(&train);
        let transient = measure_accuracy(&test, config, Lru::new(), None);
        let holistic = measure_accuracy(&test, config, HolisticOnly::new(), Some(&hints));
        let therm = measure_accuracy(&test, config, ThermometerPolicy::new(), Some(&hints));
        Row::new(
            spec.name.clone(),
            vec![
                transient.accuracy() * 100.0,
                holistic.accuracy() * 100.0,
                therm.accuracy() * 100.0,
            ],
        )
    });
    let mut fig = FigureResult {
        id: "fig16".into(),
        title: "Replacement accuracy: victims whose actual reuse distance >= associativity".into(),
        unit: "accuracy %".into(),
        columns: ["Transient", "Holistic", "Thermometer"]
            .map(String::from)
            .to_vec(),
        rows,
        notes: vec![
            "Paper: transient-only 46.06%, holistic-only 63.72%, Thermometer 68.20% — combining \
             both signals wins."
                .into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}
