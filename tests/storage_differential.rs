//! Storage differential battery: the flat SoA [`Btb`] must be
//! behaviour-identical to the legacy per-entry [`ReferenceBtb`] it
//! replaced, for every policy in the zoo, on adversarial random streams.
//!
//! "Identical" is strict: the same access outcomes in the same order, the
//! same statistics (hits, misses, fills, evictions, bypasses, prefetch
//! counters), and the same final per-set contents in way order. Any SoA
//! shortcut that changes scan order, tie-breaks, or the prefix-valid
//! invariant shows up here with a shrunk witness stream.

use btb_model::policies::{
    BeladyOpt, Drrip, Fifo, Ghrp, Hawkeye, Lru, PseudoLru, Random, Ship, Srrip, Trrip,
};
use btb_model::reference::ReferenceBtb;
use btb_model::{AccessContext, Btb, BtbConfig, ReplacementPolicy};
use btb_trace::BranchKind;
use sim_support::{forall, SimRng};
use thermometer::{HolisticOnly, PolicyKind, ThermometerNoBypass, ThermometerPolicy};

/// One step of a differential stream.
#[derive(Clone, Debug)]
enum Op {
    /// A demand access with a fully populated context.
    Access(AccessContext),
    /// A prefetcher-initiated hinted fill.
    Prefetch { pc: u64, target: u64, hint: u8 },
    /// An invalidation (the multilevel hierarchies' back-invalidate /
    /// move-up path) — exercises swap-remove metadata relocation.
    Invalidate { pc: u64 },
}

/// A small, collision-heavy op stream: few sets, PCs clustered so sets
/// fill, conflict, and (for hinted policies) bypass.
fn arb_ops(rng: &mut SimRng, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| {
            let pc = rng.gen_range(0u64..48) * 4;
            let kind =
                BranchKind::from_code(rng.gen_range(0u32..6) as u8).expect("codes 0..6 are valid");
            let roll = rng.gen_range(0u32..16);
            if roll < 2 {
                Op::Prefetch {
                    pc,
                    target: pc + rng.gen_range(1u64..0x100),
                    hint: rng.gen_range(0u32..4) as u8,
                }
            } else if roll == 2 {
                Op::Invalidate { pc }
            } else {
                Op::Access(AccessContext {
                    pc,
                    target: pc + rng.gen_range(1u64..0x100),
                    kind,
                    hint: rng.gen_range(0u32..4) as u8,
                    next_use: rng.gen_range(0u64..200),
                    access_index: 0, // both BTBs stamp their own
                })
            }
        })
        .collect()
}

/// Drives the same ops through both implementations and requires identical
/// observable behaviour at every step and identical final state.
fn differential<P: ReplacementPolicy>(label: &str, make: impl Fn() -> P, ops: &[Op]) {
    // 4 sets x 4 ways plus a remainder-set geometry in the mix below.
    for config in [BtbConfig::new(16, 4), BtbConfig::new(15, 4)] {
        let mut soa = Btb::new(config, make());
        let mut reference = ReferenceBtb::new(config, make());
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Access(ctx) => {
                    let a = soa.access(ctx);
                    let b = reference.access(ctx);
                    assert_eq!(a, b, "{label}: outcome diverged at op {i} ({ctx:?})");
                }
                Op::Prefetch { pc, target, hint } => {
                    let a = soa.prefetch_fill_hinted(*pc, *target, BranchKind::UncondDirect, *hint);
                    let b = reference.prefetch_fill_hinted(
                        *pc,
                        *target,
                        BranchKind::UncondDirect,
                        *hint,
                    );
                    assert_eq!(a, b, "{label}: prefetch diverged at op {i} (pc {pc:#x})");
                }
                Op::Invalidate { pc } => {
                    let a = soa.invalidate(*pc);
                    let b = reference.invalidate(*pc);
                    assert_eq!(a, b, "{label}: invalidate diverged at op {i} (pc {pc:#x})");
                }
            }
        }
        assert_eq!(soa.stats(), reference.stats(), "{label}: stats diverged");
        assert_eq!(
            soa.occupancy(),
            reference.occupancy(),
            "{label}: occupancy diverged"
        );
        assert_eq!(
            soa.snapshot(),
            reference.snapshot(),
            "{label}: final set contents diverged"
        );
    }
}

/// Every policy in the zoo, exercised over one shrinkable random stream.
fn zoo(ops: &[Op]) {
    differential("LRU", Lru::new, ops);
    differential("FIFO", Fifo::new, ops);
    differential("PLRU", PseudoLru::new, ops);
    differential("Random", || Random::with_seed(0x5eed), ops);
    differential("SRRIP", Srrip::new, ops);
    differential("DRRIP", Drrip::new, ops);
    differential("DRRIP-pinned", Drrip::pinned_srrip, ops);
    differential("TRRIP", Trrip::new, ops);
    differential("TRRIP-pinned", Trrip::pinned_srrip, ops);
    differential("SHiP", Ship::new, ops);
    differential("GHRP", Ghrp::default, ops);
    differential("Hawkeye", Hawkeye::default, ops);
    differential("OPT", BeladyOpt::new, ops);
    differential("Thermometer", ThermometerPolicy::new, ops);
    differential("Therm-NoBypass", ThermometerNoBypass::new, ops);
    differential("Holistic", HolisticOnly::new, ops);
    differential(
        "PolicyKind",
        || PolicyKind::by_name("srrip").expect("srrip is known"),
        ops,
    );
    differential(
        "PolicyKind-trrip",
        || PolicyKind::by_name("trrip").expect("trrip is known"),
        ops,
    );
}

#[test]
fn soa_storage_matches_reference_for_the_policy_zoo() {
    forall!(cases: 24, gen: |rng| {
        let len = rng.gen_range(32usize..400);
        arb_ops(rng, len)
    }, shrink: sim_support::forall::shrink_halves, prop: |ops| {
        zoo(ops);
    });
}

#[test]
fn soa_storage_matches_reference_on_long_thrashing_stream() {
    // One long deterministic stream with heavy conflict pressure, beyond
    // what the shrinkable cases cover.
    let mut rng = SimRng::seed_from_u64(0xb7b);
    let ops = arb_ops(&mut rng, 20_000);
    zoo(&ops);
}

#[test]
fn probe_and_clear_match_reference() {
    let mut rng = SimRng::seed_from_u64(0xc1ea);
    let ops = arb_ops(&mut rng, 500);
    let config = BtbConfig::new(15, 4);
    let mut soa = Btb::new(config, Lru::new());
    let mut reference = ReferenceBtb::new(config, Lru::new());
    for op in &ops {
        if let Op::Access(ctx) = op {
            soa.access(ctx);
            reference.access(ctx);
        }
    }
    for pc in (0u64..64).map(|p| p * 4) {
        assert_eq!(
            soa.probe(pc),
            reference.probe(pc),
            "probe({pc:#x}) diverged"
        );
    }
    soa.clear();
    assert_eq!(soa.occupancy(), 0);
    assert_eq!(soa.stats().accesses, 0);
    for pc in (0u64..64).map(|p| p * 4) {
        assert!(soa.probe(pc).is_none(), "clear left {pc:#x} resident");
    }
}
