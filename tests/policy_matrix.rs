//! Policy-matrix invariants: every replacement policy, driven by real
//! workload traces, must satisfy the BTB accounting identities, and
//! Belady's OPT must dominate them all.

use btb_model::policies::{BeladyOpt, Ghrp, Hawkeye, Lru, Random, Srrip};
use btb_model::{AccessContext, Btb, BtbConfig, BtbStats, ReplacementPolicy};
use btb_trace::{BranchKind, BranchRecord, NextUseOracle, Trace};
use btb_workloads::{AppSpec, InputConfig};
use sim_support::forall;

fn workload(name: &str) -> Trace {
    AppSpec::by_name(name)
        .expect("built-in app")
        .generate(InputConfig::input(0), 120_000)
}

fn drive<P: ReplacementPolicy>(trace: &Trace, policy: P, config: BtbConfig) -> BtbStats {
    let oracle = policy.needs_oracle().then(|| NextUseOracle::build(trace));
    let mut btb = Btb::new(config, policy);
    for (i, r) in trace.taken().enumerate() {
        let ctx = AccessContext {
            pc: r.pc,
            target: r.target,
            kind: r.kind,
            hint: 0,
            next_use: oracle.as_ref().map_or(u64::MAX, |o| o.next_use(i)),
            access_index: i as u64,
        };
        btb.access(&ctx);
    }
    btb.stats().clone()
}

#[test]
fn accounting_identities_hold_for_every_policy() {
    let trace = workload("python");
    let config = BtbConfig::new(2048, 4);
    let stats: Vec<(&str, BtbStats)> = vec![
        ("LRU", drive(&trace, Lru::new(), config)),
        ("Random", drive(&trace, Random::with_seed(3), config)),
        ("SRRIP", drive(&trace, Srrip::new(), config)),
        ("GHRP", drive(&trace, Ghrp::default(), config)),
        ("Hawkeye", drive(&trace, Hawkeye::default(), config)),
        ("OPT", drive(&trace, BeladyOpt::new(), config)),
    ];
    let accesses = stats[0].1.accesses;
    for (name, s) in &stats {
        assert_eq!(s.accesses, accesses, "{name}: access count differs");
        assert_eq!(
            s.hits + s.misses,
            s.accesses,
            "{name}: hits+misses != accesses"
        );
        assert_eq!(
            s.fills + s.evictions + s.bypasses,
            s.misses,
            "{name}: miss breakdown"
        );
        assert_eq!(
            s.fills, stats[0].1.fills,
            "{name}: cold fills are policy-independent"
        );
    }
}

#[test]
fn opt_dominates_every_online_policy_on_real_workloads() {
    for name in ["kafka", "python", "finagle-http"] {
        let trace = workload(name);
        let config = BtbConfig::new(2048, 4);
        let opt = drive(&trace, BeladyOpt::new(), config);
        for (label, stats) in [
            ("LRU", drive(&trace, Lru::new(), config)),
            ("Random", drive(&trace, Random::with_seed(1), config)),
            ("SRRIP", drive(&trace, Srrip::new(), config)),
            ("GHRP", drive(&trace, Ghrp::default(), config)),
            ("Hawkeye", drive(&trace, Hawkeye::default(), config)),
        ] {
            assert!(
                opt.hits >= stats.hits,
                "{name}: OPT ({}) lost to {label} ({})",
                opt.hits,
                stats.hits
            );
        }
    }
}

#[test]
fn only_opt_style_policies_bypass() {
    let trace = workload("kafka");
    let config = BtbConfig::new(1024, 4);
    for (label, stats) in [
        ("LRU", drive(&trace, Lru::new(), config)),
        ("SRRIP", drive(&trace, Srrip::new(), config)),
        ("GHRP", drive(&trace, Ghrp::default(), config)),
        ("Hawkeye", drive(&trace, Hawkeye::default(), config)),
    ] {
        assert_eq!(stats.bypasses, 0, "{label} must never bypass");
    }
    let opt = drive(&trace, BeladyOpt::new(), config);
    assert!(
        opt.bypasses > 0,
        "OPT should bypass cold streams under pressure"
    );
}

#[test]
fn capacity_monotonicity_for_opt() {
    // More capacity can never hurt the optimal policy.
    let trace = workload("python");
    let mut prev_hits = 0;
    for entries in [512usize, 1024, 2048, 4096] {
        let stats = drive(&trace, BeladyOpt::new(), BtbConfig::new(entries, 4));
        assert!(
            stats.hits >= prev_hits,
            "OPT hits decreased from {prev_hits} to {} at {entries} entries",
            stats.hits
        );
        prev_hits = stats.hits;
    }
}

/// On arbitrary access streams and geometries (including remainder sets),
/// no online policy beats OPT, and no set ever holds more entries than its
/// associativity allows — checked after every single access.
#[test]
fn prop_no_policy_beats_opt_and_sets_never_overflow() {
    fn synthetic(pcs: &[u64]) -> Trace {
        let mut t = Trace::new("policy-matrix-prop");
        for &pc in pcs {
            t.push(BranchRecord::taken(
                pc << 2,
                0x1,
                BranchKind::UncondDirect,
                0,
            ));
        }
        t
    }

    fn checked_hits<P: ReplacementPolicy>(trace: &Trace, policy: P, config: BtbConfig) -> u64 {
        let stats = {
            let oracle = NextUseOracle::build(trace);
            let mut btb = Btb::new(config, policy);
            for (i, r) in trace.taken().enumerate() {
                let ctx = AccessContext {
                    pc: r.pc,
                    target: r.target,
                    kind: r.kind,
                    hint: 0,
                    next_use: oracle.next_use(i),
                    access_index: i as u64,
                };
                btb.access(&ctx);
                for s in 0..btb.geometry().sets() {
                    let occ = btb.set_occupancy(s);
                    let cap = btb.geometry().ways_of(s);
                    assert!(occ <= cap, "set {s} holds {occ} entries, capacity {cap}");
                }
            }
            assert!(btb.occupancy() <= config.entries());
            btb.stats().clone()
        };
        assert_eq!(stats.hits + stats.misses, stats.accesses);
        stats.hits
    }

    forall!(cases: 32, gen: |rng| {
        let len = rng.gen_range(1usize..400);
        let pcs: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..48)).collect();
        // Entries not divisible by ways exercises the remainder set.
        let ways = rng.gen_range(1usize..5);
        let entries = rng.gen_range(ways..=4 * ways + 3);
        (pcs, entries, ways)
    }, prop: |(pcs, entries, ways)| {
        let trace = synthetic(pcs);
        let config = BtbConfig::new(*entries, *ways);
        let opt = checked_hits(&trace, BeladyOpt::new(), config);
        for (label, hits) in [
            ("LRU", checked_hits(&trace, Lru::new(), config)),
            ("Random", checked_hits(&trace, Random::with_seed(11), config)),
            ("SRRIP", checked_hits(&trace, Srrip::new(), config)),
            ("GHRP", checked_hits(&trace, Ghrp::default(), config)),
            ("Hawkeye", checked_hits(&trace, Hawkeye::default(), config)),
        ] {
            assert!(opt >= hits, "OPT ({opt} hits) lost to {label} ({hits} hits)");
        }
    });
}

#[test]
fn remainder_set_geometry_runs_every_policy() {
    // The 7979-entry geometry has a 3-way remainder set; every policy must
    // handle the shorter row.
    let trace = workload("finagle-http");
    let config = BtbConfig::iso_storage_7979();
    for stats in [
        drive(&trace, Lru::new(), config),
        drive(&trace, Srrip::new(), config),
        drive(&trace, Ghrp::default(), config),
        drive(&trace, Hawkeye::default(), config),
        drive(&trace, BeladyOpt::new(), config),
    ] {
        assert!(stats.hits > 0);
        assert_eq!(stats.hits + stats.misses, stats.accesses);
    }
}
