//! Public-API surface tests of the thermometer crate: labels, detailed
//! runs, the oracle decision, and profile/hint interactions.

use btb_model::policies::BeladyOpt;
use btb_model::{BtbConfig, ExclusiveTwoLevelBtb, ReplacementPolicy, TwoLevelBtb};
use btb_trace::NextUseOracle;
use btb_workloads::{AppSpec, InputConfig};
use thermometer::pipeline::{Pipeline, PipelineConfig};
use thermometer::{HintTable, OptProfile, TemperatureConfig, ThermometerNoBypass};
use uarch_sim::prefetch::ShotgunBtb;
use uarch_sim::{Frontend, FrontendConfig, SimReport};

fn small_trace(input: u32) -> btb_trace::Trace {
    let spec = AppSpec {
        functions: 300,
        handlers: 30,
        ..AppSpec::by_name("python").unwrap()
    };
    spec.generate(InputConfig::input(input), 50_000)
}

/// Equal reports, with the `f64` cycle sum compared bit for bit.
fn assert_same(got: &SimReport, want: &SimReport, what: &str) {
    assert_eq!(got, want, "{what}");
    assert_eq!(got.cycles.to_bits(), want.cycles.to_bits(), "{what}");
}

#[test]
fn opt_builds_its_oracle_however_it_is_reached() {
    let trace = small_trace(0);
    // A BTB small enough to evict, so OPT's victim choices matter.
    let p = Pipeline::new(PipelineConfig::default()).with_btb(BtbConfig::new(512, 4));
    let config = p.config().frontend;
    let oracle = NextUseOracle::build(&trace);

    let mut want = Frontend::new(config, BeladyOpt::new()).run(&trace, Some(&oracle));
    want.label = "OPT".into();
    let blind = Frontend::new(config, BeladyOpt::new()).run(&trace, None);
    assert_ne!(blind.btb, want.btb, "the oracle must change OPT's run");
    assert_same(&p.run(&trace, BeladyOpt::new(), None), &want, "run");
    let boxed: Box<dyn ReplacementPolicy> = Box::new(BeladyOpt::new());
    assert_same(&p.run(&trace, boxed, None), &want, "boxed");
    let named = p.run_named(&trace, "opt", None).expect("opt is known");
    assert_same(&named, &want, "run_named");

    let shotgun = || ShotgunBtb::new(config.btb, BeladyOpt::new(), BeladyOpt::new());
    let want = Frontend::with_btb(config, shotgun()).run(&trace, Some(&oracle));
    let got = p.simulate(&mut Frontend::with_btb(config, shotgun()), &trace);
    assert_same(&got, &want, "shotgun");

    let l1 = BtbConfig::new(config.btb.entries() / 8, config.btb.ways());
    let inclusive = || TwoLevelBtb::new(l1, config.btb, BeladyOpt::new());
    let want = Frontend::with_btb(config, inclusive()).run(&trace, Some(&oracle));
    let got = p.simulate(&mut Frontend::with_btb(config, inclusive()), &trace);
    assert_same(&got, &want, "inclusive two-level");

    // The exclusive last level is filled only by L1 spills, which carry no
    // next use, so this case pins the plumbing rather than the oracle.
    let exclusive = || ExclusiveTwoLevelBtb::new(l1, config.btb, BeladyOpt::new());
    let want = Frontend::with_btb(config, exclusive()).run(&trace, Some(&oracle));
    let got = p.simulate(&mut Frontend::with_btb(config, exclusive()), &trace);
    assert_same(&got, &want, "exclusive two-level");
}

#[test]
fn detailed_run_reports_consistent_coverage() {
    let trace = small_trace(0);
    let p = Pipeline::new(PipelineConfig {
        frontend: FrontendConfig {
            btb: BtbConfig::new(1024, 4),
            ..FrontendConfig::table1()
        },
        temperature: TemperatureConfig::paper_default(),
    });
    let hints = p.profile_to_hints(&trace);
    let (report, coverage) = p.run_thermometer_detailed(&trace, &hints);
    assert_eq!(report.label, "Thermometer");
    // Bypasses seen by the policy must equal the BTB's bypass counter.
    assert_eq!(coverage.bypasses, report.btb.bypasses);
    assert!(coverage.decisions >= report.btb.evictions);
    assert!((0.0..=1.0).contains(&coverage.coverage()));
}

#[test]
fn no_bypass_ablation_never_bypasses_on_real_traffic() {
    let trace = small_trace(1);
    let p = Pipeline::new(PipelineConfig {
        frontend: FrontendConfig {
            btb: BtbConfig::new(512, 4),
            ..FrontendConfig::table1()
        },
        temperature: TemperatureConfig::paper_default(),
    });
    let hints = p.profile_to_hints(&trace);
    let report = p.run(&trace, ThermometerNoBypass::new(), Some(&hints));
    assert_eq!(report.btb.bypasses, 0);
    assert_eq!(report.label, "Therm-NoBypass");
}

#[test]
fn hint_bits_scale_with_categories() {
    let trace = small_trace(0);
    let profile = OptProfile::measure(&trace, BtbConfig::table1());
    for (categories, bits) in [(2usize, 1u32), (4, 2), (8, 3), (16, 4)] {
        let cfg = TemperatureConfig::uniform(categories);
        let hints = HintTable::from_profile(&profile, &cfg);
        assert_eq!(hints.bits(), bits, "{categories} categories");
        let max_hint = (0..categories as u8).max().unwrap();
        assert!(hints.to_map().values().all(|&h| h <= max_hint));
    }
}

#[test]
fn threshold_search_lands_inside_grid() {
    let trace = small_trace(0);
    let profile = OptProfile::measure(&trace, BtbConfig::table1());
    let grid = thermometer::temperature::default_candidates();
    let (y1, y2) = thermometer::temperature::search_thresholds(&profile, &grid);
    assert!(
        grid.contains(&(y1, y2)),
        "search returned ({y1},{y2}) outside the grid"
    );
}

#[test]
fn profiles_of_different_inputs_differ_but_overlap() {
    let a = OptProfile::measure(&small_trace(0), BtbConfig::table1());
    let b = OptProfile::measure(&small_trace(1), BtbConfig::table1());
    let keys_a: std::collections::BTreeSet<&u64> = a.branches.keys().collect();
    let keys_b: std::collections::BTreeSet<&u64> = b.branches.keys().collect();
    let inter = keys_a.intersection(&keys_b).count();
    assert!(
        inter > keys_a.len() / 2,
        "inputs should share most branches"
    );
    assert_ne!(
        a.branches, b.branches,
        "different inputs must differ somewhere"
    );
}

#[test]
fn pipeline_temperature_config_affects_hints() {
    let trace = small_trace(0);
    let coarse = Pipeline::new(PipelineConfig {
        frontend: FrontendConfig::table1(),
        temperature: TemperatureConfig::uniform(2),
    });
    let fine = Pipeline::new(PipelineConfig {
        frontend: FrontendConfig::table1(),
        temperature: TemperatureConfig::uniform(16),
    });
    let h_coarse = coarse.profile_to_hints(&trace);
    let h_fine = fine.profile_to_hints(&trace);
    assert_eq!(h_coarse.bits(), 1);
    assert_eq!(h_fine.bits(), 4);
    assert_eq!(
        h_coarse.len(),
        h_fine.len(),
        "same branches, different precision"
    );
}
