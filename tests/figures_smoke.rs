//! Smoke-runs every figure harness at a tiny scale and checks structural
//! and directional invariants of the produced data.

use sim_support::assert_snapshot;
use thermometer_bench::{figure_by_id, FigureResult, Scale, FIGURE_IDS};

fn run(id: &str, scale: &Scale) -> Vec<FigureResult> {
    figure_by_id(id, scale).unwrap_or_else(|| panic!("unknown figure {id}"))
}

/// Also pins the rendered markdown of every figure at smoke scale, so a
/// refactor that should not move a number is checked byte for byte. Bless
/// intentional changes with
/// `UPDATE_GOLDENS=1 cargo test -p thermometer-bench --test figures_smoke`.
#[test]
fn every_figure_produces_rows_and_columns() {
    let scale = Scale::smoke();
    let mut markdown = String::new();
    for id in FIGURE_IDS {
        for fig in run(id, &scale) {
            markdown.push_str(&fig.to_markdown());
            assert!(!fig.rows.is_empty(), "{id}: no rows");
            assert!(!fig.columns.is_empty(), "{id}: no columns");
            for row in &fig.rows {
                assert_eq!(
                    row.values.len(),
                    fig.columns.len(),
                    "{id}: row {} has {} values for {} columns",
                    row.label,
                    row.values.len(),
                    fig.columns.len()
                );
                for v in &row.values {
                    assert!(v.is_finite(), "{id}: non-finite value in {}", row.label);
                }
            }
        }
    }
    assert_snapshot!("figures_smoke", markdown);
}

#[test]
fn fig02_perfect_btb_dominates_on_average() {
    let scale = Scale::smoke();
    let fig = run("fig02", &scale).remove(0);
    let avg = fig.rows.last().expect("avg row");
    assert_eq!(avg.label, "Avg");
    let (btb, _bp, _icache) = (avg.values[0], avg.values[1], avg.values[2]);
    assert!(btb >= 0.0, "perfect BTB can never slow down: {btb}");
}

#[test]
fn fig07_cdf_is_monotone_and_ends_at_100() {
    let scale = Scale::smoke();
    let fig = run("fig07", &scale).remove(0);
    for col in 0..fig.columns.len() {
        let series: Vec<f64> = fig.rows.iter().map(|r| r.values[col]).collect();
        for w in series.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "{}: CDF not monotone: {w:?}",
                fig.columns[col]
            );
        }
        let last = *series.last().expect("non-empty");
        assert!(
            (last - 100.0).abs() < 1e-6,
            "{}: CDF ends at {last}",
            fig.columns[col]
        );
    }
}

#[test]
fn fig06_heat_curve_is_decreasing() {
    let scale = Scale::smoke();
    let fig = run("fig06", &scale).remove(0);
    for col in 0..fig.columns.len() {
        let series: Vec<f64> = fig.rows.iter().map(|r| r.values[col]).collect();
        for w in series.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "{}: heat curve increased: {w:?}",
                fig.columns[col]
            );
        }
    }
}

#[test]
fn fig09_cold_bypasses_more_than_hot() {
    let scale = Scale::smoke();
    let fig = run("fig09", &scale).remove(0);
    let avg = fig.rows.last().expect("avg row");
    let (cold, hot) = (avg.values[0], avg.values[2]);
    assert!(
        cold > hot,
        "cold bypass {cold} should exceed hot bypass {hot}"
    );
}

#[test]
fn fig05_transient_variance_exceeds_holistic() {
    let scale = Scale::smoke();
    let fig = run("fig05", &scale).remove(0);
    let avg = fig.rows.last().expect("avg row");
    assert!(
        avg.values[0] > avg.values[1],
        "transient {} must exceed holistic {}",
        avg.values[0],
        avg.values[1]
    );
}

#[test]
fn fig15_coverage_is_a_percentage() {
    let scale = Scale::smoke();
    let fig = run("fig15", &scale).remove(0);
    for row in &fig.rows {
        assert!(
            (0.0..=100.0).contains(&row.values[0]),
            "{}: {}",
            row.label,
            row.values[0]
        );
    }
}

#[test]
fn fig16_accuracy_orders_transient_holistic_thermometer() {
    let scale = Scale::smoke();
    let fig = run("fig16", &scale).remove(0);
    let avg = fig.rows.last().expect("avg row");
    let (_transient, holistic, therm) = (avg.values[0], avg.values[1], avg.values[2]);
    // Thermometer refines holistic with the transient tie-break; on average
    // it must not be worse than holistic alone (paper: 68.2% vs 63.7%).
    assert!(
        therm >= holistic - 5.0,
        "thermometer accuracy {therm} collapsed below holistic {holistic}"
    );
}

#[test]
fn markdown_report_renders_for_all_figures() {
    let scale = Scale::smoke();
    let fig = run("fig01", &scale).remove(0);
    let md = fig.to_markdown();
    assert!(md.contains("### fig01"));
    assert!(md.contains("| workload |"));
}
