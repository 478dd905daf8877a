//! One function per paper figure, plus the registry used by the `figures`
//! binary. See DESIGN.md §4 for the experiment index.

mod characterization;
mod evaluation;
mod extensions;
mod sensitivity;
mod suites;

pub use characterization::{fig01, fig02, fig03, fig04, fig05, fig06, fig07, fig08, fig09};
pub use evaluation::{fig11, fig12, fig13, fig14, fig15, fig16};
pub use extensions::{ablation, extra_policies, hierarchy, trrip_grid};
pub use sensitivity::{fig19_entries, fig19_ways, fig20_categories, fig20_ftq, fig21};
pub use suites::{fig17, fig18};

use crate::grid::RunCtx;
use crate::scale::Scale;
use crate::text::FigureResult;
use btb_trace::Trace;
use btb_workloads::{AppSpec, InputConfig};

/// All figure ids in paper order, plus the extension experiments.
pub const FIGURE_IDS: [&str; 24] = [
    "fig01",
    "fig02",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "fig20",
    "fig21",
    "extra-policies",
    "ablation",
    "trrip",
    "hierarchy",
];

/// Runs one figure by id (`"fig19"`/`"fig20"` produce both sub-tables)
/// within the run `ctx`.
///
/// Returns `None` for an unknown id.
pub fn run_figure(ctx: &mut RunCtx, id: &str, scale: &Scale) -> Option<Vec<FigureResult>> {
    let figs = match id {
        "fig01" => vec![fig01(ctx, scale)],
        "fig02" => vec![fig02(ctx, scale)],
        "fig03" => vec![fig03(ctx, scale)],
        "fig04" => vec![fig04(ctx, scale)],
        "fig05" => vec![fig05(ctx, scale)],
        "fig06" => vec![fig06(ctx, scale)],
        "fig07" => vec![fig07(ctx, scale)],
        "fig08" => vec![fig08(ctx, scale)],
        "fig09" => vec![fig09(ctx, scale)],
        "fig11" => vec![fig11(ctx, scale)],
        "fig12" => vec![fig12(ctx, scale)],
        "fig13" => vec![fig13(ctx, scale)],
        "fig14" => vec![fig14(ctx, scale)],
        "fig15" => vec![fig15(ctx, scale)],
        "fig16" => vec![fig16(ctx, scale)],
        "fig17" => vec![fig17(ctx, scale)],
        "fig18" => vec![fig18(ctx, scale)],
        "fig19" => vec![fig19_entries(ctx, scale), fig19_ways(ctx, scale)],
        "fig20" => vec![fig20_categories(ctx, scale), fig20_ftq(ctx, scale)],
        "fig21" => vec![fig21(ctx, scale)],
        "extra-policies" => vec![extra_policies(ctx, scale)],
        "ablation" => vec![ablation(ctx, scale)],
        "trrip" => vec![trrip_grid(ctx, scale)],
        "hierarchy" => vec![hierarchy(ctx, scale)],
        _ => return None,
    };
    Some(figs)
}

/// [`run_figure`] in a fresh default [`RunCtx`]: fault-free, panics
/// propagate, width from `SIM_THREADS` or the machine.
pub fn figure_by_id(id: &str, scale: &Scale) -> Option<Vec<FigureResult>> {
    run_figure(&mut RunCtx::default(), id, scale)
}

/// The training trace (input `#0`) for an application.
pub(crate) fn train_trace(spec: &AppSpec, scale: &Scale) -> Trace {
    let trace = spec.generate(InputConfig::input(0), scale.trace_len);
    crate::grid::note_accesses(trace.len() as u64);
    trace
}

/// The default test trace (input `#1`).
pub(crate) fn test_trace(spec: &AppSpec, scale: &Scale) -> Trace {
    let trace = spec.generate(InputConfig::input(1), scale.trace_len);
    crate::grid::note_accesses(trace.len() as u64);
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_id() {
        let scale = Scale::smoke();
        // Don't run them all here (that's the integration test's job);
        // just ensure unknown ids are rejected.
        assert!(figure_by_id("fig99", &scale).is_none());
    }
}
