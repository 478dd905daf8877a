//! Differential test battery: pairs of policies that must be *behaviourally
//! identical* under constrained configurations, plus OPT dominance over the
//! full policy zoo.
//!
//! Differential pairs are the cheapest cross-checks the policy zoo admits:
//!
//! * **LRU ≡ tree-PLRU at 1–2 ways.** A PLRU tree with two leaves is one
//!   bit pointing away from the last-touched way — exact LRU. Any
//!   divergence means one of the two recency implementations is wrong.
//! * **SRRIP ≡ DRRIP pinned to SRRIP.** With set dueling frozen
//!   ([`Drrip::pinned_srrip`]) every set inserts at the long re-reference
//!   point, so DRRIP's RRPV machinery (victim scan, aging, hit promotion)
//!   must reproduce SRRIP access for access.
//! * **SRRIP ≡ TRRIP with temperature collapsed.** TRRIP's only deviation
//!   from SRRIP is choosing insertion/promotion RRPVs by temperature
//!   class; with every class pinned to warm ([`Trrip::pinned_srrip`]) or
//!   every hint uniformly warm, it must be bit-identical to SRRIP — over
//!   random streams *and* the full 13-app trace corpus.
//! * **OPT dominance.** No online policy — including the extension zoo
//!   (FIFO, PLRU, DRRIP, TRRIP, SHiP, Random) — collects more hits than
//!   Belady's OPT on the same trace.

use btb_model::policies::{
    BeladyOpt, Drrip, Fifo, Ghrp, Hawkeye, Lru, PseudoLru, Random, Ship, Srrip, Trrip,
};
use btb_model::{AccessContext, Btb, BtbConfig, BtbStats, ReplacementPolicy};
use btb_trace::{BranchKind, BranchRecord, NextUseOracle, Trace};
use btb_workloads::{AppSpec, InputConfig};
use sim_support::forall;

fn workload(name: &str) -> Trace {
    AppSpec::by_name(name)
        .expect("built-in app")
        .generate(InputConfig::input(0), 100_000)
}

fn drive<P: ReplacementPolicy>(trace: &Trace, policy: P, config: BtbConfig) -> BtbStats {
    drive_hinted(trace, policy, config, 0)
}

/// Like [`drive`], but stamps every access with a uniform temperature
/// hint — the knob the TRRIP ≡ SRRIP differentials turn.
fn drive_hinted<P: ReplacementPolicy>(
    trace: &Trace,
    policy: P,
    config: BtbConfig,
    hint: u8,
) -> BtbStats {
    let oracle = policy.needs_oracle().then(|| NextUseOracle::build(trace));
    let mut btb = Btb::new(config, policy);
    for (i, r) in trace.taken().enumerate() {
        let ctx = AccessContext {
            pc: r.pc,
            target: r.target,
            kind: r.kind,
            hint,
            next_use: oracle.as_ref().map_or(u64::MAX, |o| o.next_use(i)),
            access_index: i as u64,
        };
        btb.access(&ctx);
    }
    btb.stats().clone()
}

/// A synthetic trace over a small PC alphabet, with a mix of branch kinds
/// so the hit path (target updates) is exercised too.
fn synthetic(pcs: &[u64]) -> Trace {
    let mut t = Trace::new("policy-differential");
    for (i, &pc) in pcs.iter().enumerate() {
        let kind = match pc % 3 {
            0 => BranchKind::UncondDirect,
            1 => BranchKind::CondDirect,
            _ => BranchKind::IndirectJump,
        };
        t.push(BranchRecord::taken(pc << 2, 0x40 + (i as u64 % 7), kind, 0));
    }
    t
}

#[test]
fn prop_plru_equals_lru_at_one_and_two_ways() {
    forall!(cases: 48, gen: |rng| {
        let len = rng.gen_range(1usize..500);
        let pcs: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..64)).collect();
        let ways = rng.gen_range(1usize..=2);
        let sets = rng.gen_range(1usize..9);
        (pcs, sets * ways, ways)
    }, prop: |(pcs, entries, ways)| {
        let trace = synthetic(pcs);
        let config = BtbConfig::new(*entries, *ways);
        let lru = drive(&trace, Lru::new(), config);
        let plru = drive(&trace, PseudoLru::new(), config);
        assert_eq!(
            lru, plru,
            "LRU and tree-PLRU diverged at {ways} way(s), {entries} entries"
        );
    });
}

#[test]
fn plru_equals_lru_on_real_workloads_at_two_ways() {
    for name in ["kafka", "python"] {
        let trace = workload(name);
        let config = BtbConfig::new(1024, 2);
        let lru = drive(&trace, Lru::new(), config);
        let plru = drive(&trace, PseudoLru::new(), config);
        assert_eq!(lru, plru, "{name}: 2-way PLRU must be exact LRU");
    }
}

#[test]
fn prop_pinned_drrip_equals_srrip() {
    forall!(cases: 48, gen: |rng| {
        let len = rng.gen_range(1usize..600);
        let pcs: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..96)).collect();
        let ways = rng.gen_range(1usize..6);
        let sets = rng.gen_range(1usize..17);
        (pcs, sets * ways, ways)
    }, prop: |(pcs, entries, ways)| {
        let trace = synthetic(pcs);
        let config = BtbConfig::new(*entries, *ways);
        let srrip = drive(&trace, Srrip::new(), config);
        let drrip = drive(&trace, Drrip::pinned_srrip(), config);
        assert_eq!(
            srrip, drrip,
            "pinned DRRIP diverged from SRRIP at {ways} ways, {entries} entries"
        );
    });
}

#[test]
fn pinned_drrip_equals_srrip_on_real_workloads() {
    for name in ["kafka", "finagle-http"] {
        let trace = workload(name);
        let config = BtbConfig::new(2048, 4);
        let srrip = drive(&trace, Srrip::new(), config);
        let drrip = drive(&trace, Drrip::pinned_srrip(), config);
        assert_eq!(srrip, drrip, "{name}: pinned DRRIP must match SRRIP");
    }
    // Sanity: the un-pinned selector actually changes behaviour somewhere
    // (otherwise the pin proves nothing).
    let thrash: Vec<u64> = (0..60_000).map(|i| i % 128).collect();
    let trace = synthetic(&thrash);
    let config = BtbConfig::new(64, 4);
    let srrip = drive(&trace, Srrip::new(), config);
    let full = drive(&trace, Drrip::new(), config);
    assert_ne!(
        srrip, full,
        "full DRRIP should diverge from SRRIP on a thrashing loop"
    );
}

#[test]
fn prop_pinned_trrip_equals_srrip() {
    forall!(cases: 48, gen: |rng| {
        let len = rng.gen_range(1usize..600);
        let pcs: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..96)).collect();
        let ways = rng.gen_range(1usize..6);
        let sets = rng.gen_range(1usize..17);
        let hint = rng.gen_range(0u32..4) as u8;
        (pcs, sets * ways, ways, hint)
    }, prop: |(pcs, entries, ways, hint)| {
        let trace = synthetic(pcs);
        let config = BtbConfig::new(*entries, *ways);
        let srrip = drive(&trace, Srrip::new(), config);
        // Pinned TRRIP must ignore whatever hint the frontend supplies.
        let trrip = drive_hinted(&trace, Trrip::pinned_srrip(), config, *hint);
        assert_eq!(
            srrip, trrip,
            "pinned TRRIP diverged from SRRIP at {ways} ways, {entries} entries (hint {hint})"
        );
    });
}

#[test]
fn prop_uniformly_warm_trrip_equals_srrip() {
    // The un-pinned policy, with every access hinted warm: the warm class's
    // insertion/promotion RRPVs are exactly SRRIP's constants, so the
    // temperature machinery must be invisible.
    forall!(cases: 48, gen: |rng| {
        let len = rng.gen_range(1usize..600);
        let pcs: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..96)).collect();
        let ways = rng.gen_range(1usize..6);
        let sets = rng.gen_range(1usize..17);
        (pcs, sets * ways, ways)
    }, prop: |(pcs, entries, ways)| {
        let trace = synthetic(pcs);
        let config = BtbConfig::new(*entries, *ways);
        let srrip = drive(&trace, Srrip::new(), config);
        let trrip = drive_hinted(&trace, Trrip::new(), config, 1);
        assert_eq!(
            srrip, trrip,
            "uniformly-warm TRRIP diverged from SRRIP at {ways} ways, {entries} entries"
        );
    });
}

#[test]
fn collapsed_trrip_equals_srrip_over_the_full_corpus() {
    // Bit-identical statistics on every one of the 13 application models,
    // both ways of collapsing the temperature axis: pinning the policy and
    // hinting every access warm.
    let config = BtbConfig::new(2048, 4);
    for spec in AppSpec::all() {
        let trace = spec.generate(InputConfig::input(0), 100_000);
        let srrip = drive(&trace, Srrip::new(), config);
        let pinned = drive_hinted(&trace, Trrip::pinned_srrip(), config, 2);
        assert_eq!(
            srrip, pinned,
            "{}: pinned TRRIP must match SRRIP",
            spec.name
        );
        let warm = drive_hinted(&trace, Trrip::new(), config, 1);
        assert_eq!(
            srrip, warm,
            "{}: uniformly-warm TRRIP must match SRRIP",
            spec.name
        );
    }
    // Sanity: a *different* uniform class must diverge somewhere, or the
    // equivalences above prove nothing about the temperature plumbing.
    let trace = workload("kafka");
    let srrip = drive(&trace, Srrip::new(), config);
    let cold = drive_hinted(&trace, Trrip::new(), config, 0);
    assert_ne!(
        srrip, cold,
        "uniformly-cold TRRIP should diverge from SRRIP on kafka"
    );
}

#[test]
fn prop_no_policy_in_the_full_zoo_beats_opt() {
    forall!(cases: 24, gen: |rng| {
        let len = rng.gen_range(1usize..400);
        let pcs: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..48)).collect();
        let ways = rng.gen_range(1usize..5);
        let sets = rng.gen_range(1usize..9);
        (pcs, sets * ways, ways)
    }, prop: |(pcs, entries, ways)| {
        let trace = synthetic(pcs);
        let config = BtbConfig::new(*entries, *ways);
        let opt = drive(&trace, BeladyOpt::new(), config);
        for (label, stats) in [
            ("LRU", drive(&trace, Lru::new(), config)),
            ("FIFO", drive(&trace, Fifo::new(), config)),
            ("PLRU", drive(&trace, PseudoLru::new(), config)),
            ("Random", drive(&trace, Random::with_seed(17), config)),
            ("SRRIP", drive(&trace, Srrip::new(), config)),
            ("DRRIP", drive(&trace, Drrip::new(), config)),
            ("DRRIP-pinned", drive(&trace, Drrip::pinned_srrip(), config)),
            ("TRRIP", drive(&trace, Trrip::new(), config)),
            ("TRRIP-warm", drive_hinted(&trace, Trrip::new(), config, 1)),
            ("TRRIP-pinned", drive(&trace, Trrip::pinned_srrip(), config)),
            ("SHiP", drive(&trace, Ship::new(), config)),
            ("GHRP", drive(&trace, Ghrp::default(), config)),
            ("Hawkeye", drive(&trace, Hawkeye::default(), config)),
        ] {
            assert!(
                opt.hits >= stats.hits,
                "OPT ({} hits) lost to {label} ({} hits)",
                opt.hits,
                stats.hits
            );
        }
    });
}

#[test]
fn full_zoo_hits_bounded_by_opt_on_a_real_workload() {
    let trace = workload("python");
    let config = BtbConfig::new(2048, 4);
    let opt = drive(&trace, BeladyOpt::new(), config);
    for (label, stats) in [
        ("FIFO", drive(&trace, Fifo::new(), config)),
        ("PLRU", drive(&trace, PseudoLru::new(), config)),
        ("DRRIP", drive(&trace, Drrip::new(), config)),
        ("SHiP", drive(&trace, Ship::new(), config)),
    ] {
        assert!(
            opt.hits >= stats.hits,
            "OPT ({}) lost to {label} ({})",
            opt.hits,
            stats.hits
        );
    }
}
