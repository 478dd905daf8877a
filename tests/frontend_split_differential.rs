//! Frontend split differential battery: the two-stage frontend
//! ([`FrontendEvents::build`] once per trace, then
//! [`Frontend::run_events`] per BTB organization) must report exactly what
//! the fused single-pass loop it replaced ([`FusedFrontend`]) reports.
//!
//! "Exactly" is `==` on every [`SimReport`] field, the `f64` stall and
//! cycle sums included: the replay keeps the fused loop's order of
//! floating-point operations, so any reordering shows up here. The battery
//! covers every policy in the zoo under each perfect-structure switch and
//! each BTB prefetcher (Twig, Confluence, and Shotgun's partitioned BTB
//! through `Frontend::with_btb`), on two applications — one of them
//! verilator, whose I-cache miss stream is the heaviest in the suite.
//! Every replay of an application shares one event stream, as a policy
//! comparison does.

use btb_model::policies::Lru;
use btb_model::BtbConfig;
use btb_trace::{NextUseOracle, Trace};
use btb_workloads::{AppSpec, InputConfig};
use thermometer::pipeline::POLICY_NAMES;
use thermometer::{HintTable, Pipeline, PipelineConfig, PolicyKind};
use uarch_sim::prefetch::{Confluence, Prefetcher, ShotgunBtb, TwigPrefetcher};
use uarch_sim::reference::FusedFrontend;
use uarch_sim::{Frontend, FrontendConfig, FrontendEvents, PerfectOptions, SimReport};

const RECORDS: usize = 40_000;

/// One application's test trace with everything a policy may consume.
struct Case {
    test: Trace,
    train: Trace,
    events: FrontendEvents,
    hints: HintTable,
    oracle: NextUseOracle,
}

fn case(app: &str) -> Case {
    let spec = AppSpec::by_name(app).expect("built-in app");
    let train = spec.generate(InputConfig::input(0), RECORDS);
    let test = spec.generate(InputConfig::input(1), RECORDS);
    let hints = Pipeline::new(PipelineConfig::default()).profile_to_hints(&train);
    Case {
        events: FrontendEvents::build(&test),
        oracle: NextUseOracle::build(&test),
        test,
        train,
        hints,
    }
}

fn policy(name: &str) -> PolicyKind {
    PolicyKind::by_name(name).expect("POLICY_NAMES are in the PolicyKind vocabulary")
}

/// Which BTB prefetcher, if any, rides along.
#[derive(Copy, Clone, Debug)]
enum Assist {
    None,
    Twig,
    Confluence,
}

fn prefetcher(assist: Assist, case: &Case, btb: BtbConfig) -> Option<Box<dyn Prefetcher>> {
    match assist {
        Assist::None => None,
        Assist::Twig => Some(Box::new(TwigPrefetcher::train(&case.train, btb, 16))),
        Assist::Confluence => Some(Box::new(Confluence::new())),
    }
}

/// Runs `name` on a plain BTB through both paths and requires equal
/// reports.
fn check_plain(case: &Case, name: &str, config: FrontendConfig, assist: Assist) {
    let kind = policy(name);
    let hints = kind.wants_hints().then(|| case.hints.to_map());
    let oracle = kind.needs_oracle().then_some(&case.oracle);

    let mut fused = FusedFrontend::new(config, policy(name));
    let mut split = Frontend::new(config, kind);
    if let Some(h) = &hints {
        fused.set_hints(h.clone());
        split.set_hints(h.clone());
    }
    if let Some(pf) = prefetcher(assist, case, config.btb) {
        fused.set_prefetcher(pf);
        split.set_prefetcher(prefetcher(assist, case, config.btb).expect("same assist"));
    }
    let want = fused.run(&case.test, oracle);
    let got = split.run_events(&case.test, &case.events, oracle);
    assert_same(
        &got,
        &want,
        &format!("{name} {:?} {assist:?}", config.perfect),
    );
}

/// Runs `name` on Shotgun's partitioned BTB through both paths.
fn check_shotgun(case: &Case, name: &str) {
    let config = FrontendConfig::table1();
    let kind = policy(name);
    let hints = kind.wants_hints().then(|| case.hints.to_map());
    let oracle = kind.needs_oracle().then_some(&case.oracle);
    let shotgun = || ShotgunBtb::new(config.btb, policy(name), policy(name));

    let mut fused = FusedFrontend::with_btb(config, shotgun());
    let mut split = Frontend::with_btb(config, shotgun());
    if let Some(h) = &hints {
        fused.set_hints(h.clone());
        split.set_hints(h.clone());
    }
    let want = fused.run(&case.test, oracle);
    let got = split.run_events(&case.test, &case.events, oracle);
    assert_same(&got, &want, &format!("{name} shotgun"));
}

fn assert_same(got: &SimReport, want: &SimReport, what: &str) {
    assert!(want.btb.accesses > 0, "{what}: simulated nothing");
    // `==` on the whole report, then the f64 fields bit for bit (`==`
    // would accept -0.0 for 0.0).
    assert_eq!(
        got, want,
        "{what}: two-stage report differs from the fused loop"
    );
    for (g, w) in [
        (got.cycles, want.cycles),
        (got.btb_stall_cycles, want.btb_stall_cycles),
        (got.direction_stall_cycles, want.direction_stall_cycles),
        (got.target_stall_cycles, want.target_stall_cycles),
        (got.icache_stall_cycles, want.icache_stall_cycles),
    ] {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: f64 sums differ in bits");
    }
}

fn perfect_options() -> [PerfectOptions; 4] {
    [
        PerfectOptions::default(),
        PerfectOptions {
            btb: true,
            ..Default::default()
        },
        PerfectOptions {
            branch_predictor: true,
            ..Default::default()
        },
        PerfectOptions {
            icache: true,
            ..Default::default()
        },
    ]
}

fn perfect_structures(app: &str) {
    let case = case(app);
    for name in POLICY_NAMES {
        for perfect in perfect_options() {
            let config = FrontendConfig {
                perfect,
                ..FrontendConfig::table1()
            };
            check_plain(&case, name, config, Assist::None);
        }
    }
}

fn btb_prefetchers(app: &str) {
    let case = case(app);
    for name in POLICY_NAMES {
        for assist in [Assist::Twig, Assist::Confluence] {
            check_plain(&case, name, FrontendConfig::table1(), assist);
        }
        check_shotgun(&case, name);
    }
}

#[test]
fn every_policy_under_perfect_structures_kafka() {
    perfect_structures("kafka");
}

#[test]
fn every_policy_under_perfect_structures_verilator() {
    perfect_structures("verilator");
}

#[test]
fn every_policy_with_btb_prefetchers_kafka() {
    btb_prefetchers("kafka");
}

#[test]
fn every_policy_with_btb_prefetchers_verilator() {
    btb_prefetchers("verilator");
}

#[test]
fn pipeline_runners_match_the_fused_loop() {
    // The memoized path end to end: one Pipeline, one stream, every
    // runner in the CLI vocabulary, each against a fresh fused run.
    let case = case("kafka");
    let pipeline = Pipeline::new(PipelineConfig::default());
    for name in POLICY_NAMES {
        let got = pipeline
            .run_named(&case.test, name, Some(&case.hints))
            .expect("known policy");
        let kind = policy(name);
        let mut fused = FusedFrontend::new(FrontendConfig::table1(), policy(name));
        if kind.wants_hints() {
            fused.set_hints(case.hints.to_map());
        }
        let mut want = fused.run(&case.test, kind.needs_oracle().then_some(&case.oracle));
        want.label = got.label.clone();
        assert_same(&got, &want, name);
    }
    for perfect in perfect_options() {
        let got = pipeline.run_perfect(&case.test, perfect);
        let config = FrontendConfig {
            perfect,
            ..FrontendConfig::table1()
        };
        let mut want = FusedFrontend::new(config, Lru::new()).run(&case.test, None);
        want.label = got.label.clone();
        assert_same(&got, &want, &format!("run_perfect {perfect:?}"));
    }
}
