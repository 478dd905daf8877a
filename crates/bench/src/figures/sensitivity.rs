//! Figures 19–21: sensitivity studies and prefetcher composition (§4.3).

use btb_model::policies::{BeladyOpt, Lru, Srrip};
use btb_model::BtbConfig;
use btb_trace::Trace;
use btb_workloads::AppSpec;
use thermometer::pipeline::{Pipeline, PipelineConfig};
use thermometer::{TemperatureConfig, ThermometerPolicy};
use uarch_sim::prefetch::TwigPrefetcher;
use uarch_sim::{Frontend, FrontendConfig};

use super::{test_trace, train_trace};
use crate::scale::Scale;
use crate::text::{FigureResult, Row};
use crate::{per_app, RunCtx};

/// The three applications the paper's sensitivity plots track.
const SWEEP_APPS: [&str; 3] = ["cassandra", "drupal", "tomcat"];

fn sweep_apps(scale: &Scale) -> Vec<AppSpec> {
    let chosen: Vec<AppSpec> = scale
        .apps
        .iter()
        .filter(|s| SWEEP_APPS.contains(&s.name.as_str()))
        .cloned()
        .collect();
    if chosen.is_empty() {
        scale.apps.iter().take(3).cloned().collect()
    } else {
        chosen
    }
}

/// Thermometer's and SRRIP's speedups as a percentage of OPT's, for one
/// pipeline configuration.
fn pct_of_opt(pipeline: &Pipeline, train: &Trace, test: &Trace) -> (f64, f64) {
    let hints = pipeline.profile_to_hints(train);
    let lru = pipeline.run(test, Lru::new(), None);
    let opt = pipeline
        .run(test, BeladyOpt::new(), None)
        .speedup_over(&lru);
    let pct = |speedup: f64| {
        if opt.abs() < 1e-9 {
            0.0
        } else {
            speedup / opt * 100.0
        }
    };
    (
        pct(pipeline
            .run(test, ThermometerPolicy::new(), Some(&hints))
            .speedup_over(&lru)),
        pct(pipeline.run(test, Srrip::new(), None).speedup_over(&lru)),
    )
}

fn sweep_columns(apps: &[AppSpec]) -> Vec<String> {
    apps.iter()
        .flat_map(|s| [format!("Therm-{}", s.name), format!("SRRIP-{}", s.name)])
        .collect()
}

/// Fig. 19 (left): sensitivity to the number of BTB entries.
pub fn fig19_entries(ctx: &mut RunCtx, scale: &Scale) -> FigureResult {
    let apps = sweep_apps(scale);
    let sizes = [1024usize, 2048, 4096, 8192, 16384, 32768];
    let per_app_curves = per_app(ctx, "fig19-entries", &apps, |spec| {
        let train = train_trace(spec, scale);
        let test = test_trace(spec, scale);
        sizes
            .iter()
            .map(|&entries| {
                let pipeline =
                    Pipeline::new(PipelineConfig::default()).with_btb(BtbConfig::new(entries, 4));
                pct_of_opt(&pipeline, &train, &test)
            })
            .collect::<Vec<_>>()
    });
    let rows = sizes
        .iter()
        .enumerate()
        .map(|(i, entries)| {
            let mut values = Vec::new();
            for curve in &per_app_curves {
                values.push(curve[i].0);
                values.push(curve[i].1);
            }
            Row::new(format!("{}K entries", entries / 1024), values)
        })
        .collect();
    FigureResult {
        id: "fig19-entries".into(),
        title: "Share of the optimal policy's speedup vs. BTB size (4-way)".into(),
        unit: "% of OPT speedup".into(),
        columns: sweep_columns(&apps),
        rows,
        notes: vec![
            "Paper: Thermometer beats SRRIP at every size and tracks OPT better as the BTB \
             grows."
                .into(),
        ],
        ..Default::default()
    }
}

/// Fig. 19 (right): sensitivity to associativity (8192 entries).
pub fn fig19_ways(ctx: &mut RunCtx, scale: &Scale) -> FigureResult {
    let apps = sweep_apps(scale);
    let ways_list = [4usize, 8, 16, 32, 64, 128];
    let per_app_curves = per_app(ctx, "fig19-ways", &apps, |spec| {
        let train = train_trace(spec, scale);
        let test = test_trace(spec, scale);
        ways_list
            .iter()
            .map(|&ways| {
                let pipeline =
                    Pipeline::new(PipelineConfig::default()).with_btb(BtbConfig::new(8192, ways));
                pct_of_opt(&pipeline, &train, &test)
            })
            .collect::<Vec<_>>()
    });
    let rows = ways_list
        .iter()
        .enumerate()
        .map(|(i, ways)| {
            let mut values = Vec::new();
            for curve in &per_app_curves {
                values.push(curve[i].0);
                values.push(curve[i].1);
            }
            Row::new(format!("{ways} ways"), values)
        })
        .collect();
    FigureResult {
        id: "fig19-ways".into(),
        title: "Share of the optimal policy's speedup vs. associativity (8192 entries)".into(),
        unit: "% of OPT speedup".into(),
        columns: sweep_columns(&apps),
        rows,
        notes: vec!["Paper: Thermometer's advantage over SRRIP holds from 4 to 128 ways.".into()],
        ..Default::default()
    }
}

/// Fig. 20 (left): sensitivity to the number of temperature categories.
pub fn fig20_categories(ctx: &mut RunCtx, scale: &Scale) -> FigureResult {
    let apps = sweep_apps(scale);
    let category_counts = [2usize, 3, 4, 8, 16];
    let per_app_curves = per_app(ctx, "fig20-categories", &apps, |spec| {
        let train = train_trace(spec, scale);
        let test = test_trace(spec, scale);
        category_counts
            .iter()
            .map(|&categories| {
                let temperature = if categories == 3 {
                    TemperatureConfig::paper_default()
                } else {
                    TemperatureConfig::uniform(categories)
                };
                let pipeline = Pipeline::new(PipelineConfig {
                    frontend: FrontendConfig::table1(),
                    temperature,
                });
                pct_of_opt(&pipeline, &train, &test)
            })
            .collect::<Vec<_>>()
    });
    let rows = category_counts
        .iter()
        .enumerate()
        .map(|(i, categories)| {
            let mut values = Vec::new();
            for curve in &per_app_curves {
                values.push(curve[i].0);
                values.push(curve[i].1);
            }
            Row::new(format!("{categories} categories"), values)
        })
        .collect();
    FigureResult {
        id: "fig20-categories".into(),
        title: "Share of the optimal policy's speedup vs. temperature categories".into(),
        unit: "% of OPT speedup".into(),
        columns: sweep_columns(&apps),
        rows,
        notes: vec![
            "Paper: 3-4 categories (2-bit hints) work best; 2 lose coverage, 8-16 fragment the \
             LRU tie-break."
                .into(),
        ],
        ..Default::default()
    }
}

/// Fig. 20 (right): sensitivity to the FTQ size (FDIP run-ahead).
pub fn fig20_ftq(ctx: &mut RunCtx, scale: &Scale) -> FigureResult {
    let apps = sweep_apps(scale);
    let ftq_sizes = [64u32, 128, 192, 256];
    let per_app_curves = per_app(ctx, "fig20-ftq", &apps, |spec| {
        let train = train_trace(spec, scale);
        let test = test_trace(spec, scale);
        ftq_sizes
            .iter()
            .map(|&ftq| {
                // The paper's FTQ axis is in instructions (its Table 1
                // default "24-entry FTQ" is 192 instructions).
                let mut frontend = FrontendConfig::table1();
                frontend.timing.ftq_instructions = ftq;
                let pipeline = Pipeline::new(PipelineConfig {
                    frontend,
                    temperature: TemperatureConfig::paper_default(),
                });
                pct_of_opt(&pipeline, &train, &test)
            })
            .collect::<Vec<_>>()
    });
    let rows = ftq_sizes
        .iter()
        .enumerate()
        .map(|(i, ftq)| {
            let mut values = Vec::new();
            for curve in &per_app_curves {
                values.push(curve[i].0);
                values.push(curve[i].1);
            }
            Row::new(format!("{ftq}-instruction FTQ"), values)
        })
        .collect();
    FigureResult {
        id: "fig20-ftq".into(),
        title: "Share of the optimal policy's speedup vs. FTQ size".into(),
        unit: "% of OPT speedup".into(),
        columns: sweep_columns(&apps),
        rows,
        notes: vec![
            "Paper: Thermometer's share of the optimal speedup is nearly constant across FTQ \
             sizes — it generalizes across FDIP implementations."
                .into(),
        ],
        ..Default::default()
    }
}

/// Fig. 21: composing Thermometer with the Twig BTB prefetcher.
pub fn fig21(ctx: &mut RunCtx, scale: &Scale) -> FigureResult {
    let rows = per_app(ctx, "fig21", &scale.apps, |spec| {
        let pipeline = Pipeline::new(PipelineConfig::default());
        let train = train_trace(spec, scale);
        let test = test_trace(spec, scale);
        let hints = pipeline.profile_to_hints(&train);
        let config = pipeline.config().frontend;
        let twig = || Box::new(TwigPrefetcher::train(&train, config.btb, 16));

        let mut fe = Frontend::new(config, Lru::new());
        fe.set_prefetcher(twig());
        let lru_twig = pipeline.simulate(&mut fe, &test);
        let mut fe = Frontend::new(config, Srrip::new());
        fe.set_prefetcher(twig());
        let srrip_twig = pipeline.simulate(&mut fe, &test);
        let mut fe = Frontend::new(config, ThermometerPolicy::new());
        fe.set_hints(hints.to_map());
        fe.set_prefetcher(twig());
        let therm_twig = pipeline.simulate(&mut fe, &test);
        let mut fe = Frontend::new(config, BeladyOpt::new());
        fe.set_prefetcher(twig());
        let opt_twig = pipeline.simulate(&mut fe, &test);

        Row::new(
            spec.name.clone(),
            [srrip_twig, therm_twig, opt_twig]
                .map(|r| r.speedup_over(&lru_twig))
                .to_vec(),
        )
    });
    let mut fig = FigureResult {
        id: "fig21".into(),
        title: "Replacement policies under Twig BTB prefetching, over LRU+Twig".into(),
        unit: "IPC speedup %".into(),
        columns: ["SRRIP+Twig", "Thermometer+Twig", "OPT+Twig"]
            .map(String::from)
            .to_vec(),
        rows,
        notes: vec![
            "Paper: Thermometer+Twig gains 30.9% over LRU+Twig (95.9% of OPT+Twig's 32.2%); \
             prefetching and profile-guided replacement compose."
                .into(),
        ],
        ..Default::default()
    };
    fig.push_average_row();
    fig
}
