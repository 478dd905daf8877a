//! Throughput of the BTB under each replacement policy: accesses per
//! second on a recorded workload stream. Replacement-policy overhead is
//! what bounds how long a trace the figure harness can afford.
//!
//! Run with `cargo bench -p thermometer-bench --bench btb_policies`;
//! results land in `results/bench_btb_policies.json` (median/MAD).

use std::hint::black_box;

use btb_model::policies::{BeladyOpt, Ghrp, Hawkeye, Lru, Random, Srrip, Trrip};
use btb_model::{AccessContext, Btb, BtbConfig, ReplacementPolicy};
use btb_trace::{NextUseOracle, Trace};
use btb_workloads::{AppSpec, InputConfig};
use sim_support::BenchHarness;
use thermometer::{HintTable, OptProfile, TemperatureConfig, ThermometerPolicy};

const STREAM_LEN: usize = 100_000;
const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

fn workload() -> Trace {
    AppSpec::by_name("kafka")
        .expect("built-in")
        .generate(InputConfig::input(0), STREAM_LEN)
}

/// The access stream, fully materialized. Hint lookup, oracle indexing and
/// taken-branch filtering are stream *preparation*, not BTB work, so they
/// happen once outside the timed region — exactly as the oracle build
/// already did. The timed loop is then purely `Btb::access`.
fn contexts(trace: &Trace, oracle: &NextUseOracle, hints: &HintTable) -> Vec<AccessContext> {
    trace
        .taken()
        .enumerate()
        .map(|(i, r)| AccessContext {
            pc: r.pc,
            target: r.target,
            kind: r.kind,
            hint: hints.hint(r.pc),
            next_use: oracle.next_use(i),
            access_index: i as u64,
        })
        .collect()
}

fn drive<P: ReplacementPolicy>(ctxs: &[AccessContext], policy: P) -> u64 {
    let mut btb = Btb::new(BtbConfig::table1(), policy);
    for ctx in ctxs {
        black_box(btb.access(ctx));
    }
    btb.stats().hits
}

fn main() {
    let trace = workload();
    let oracle = NextUseOracle::build(&trace);
    let profile = OptProfile::measure(&trace, BtbConfig::table1());
    let hints = HintTable::from_profile(&profile, &TemperatureConfig::paper_default());
    let ctxs = contexts(&trace, &oracle, &hints);
    let accesses = Some(ctxs.len() as u64);

    let mut harness = BenchHarness::new("btb_policies");
    harness.note(
        "containers: BTreeMap on result-bearing iteration paths, \
         fixed-seed DetHashMap on lookup-only hot paths (simlint D01); \
         access stream (hints, oracle next-use) materialized outside the \
         timed region -- the loop measures Btb::access only",
    );
    harness.bench("lru", accesses, || drive(&ctxs, Lru::new()));
    harness.bench("random", accesses, || drive(&ctxs, Random::with_seed(7)));
    harness.bench("srrip", accesses, || drive(&ctxs, Srrip::new()));
    harness.bench("trrip", accesses, || drive(&ctxs, Trrip::new()));
    harness.bench("ghrp", accesses, || drive(&ctxs, Ghrp::default()));
    harness.bench("hawkeye", accesses, || drive(&ctxs, Hawkeye::default()));
    harness.bench("opt", accesses, || drive(&ctxs, BeladyOpt::new()));
    harness.bench("thermometer", accesses, || {
        drive(&ctxs, ThermometerPolicy::new())
    });
    harness.finish(RESULTS_DIR);
}
