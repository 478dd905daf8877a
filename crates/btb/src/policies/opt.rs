//! Belady's optimal replacement (OPT / MIN) with bypass.
//!
//! Evicts the candidate whose next use lies furthest in the future,
//! *including the incoming branch itself* — when the incoming branch is the
//! furthest-used candidate, insertion is bypassed entirely. This is the
//! provably optimal, impractical policy the paper uses both as the
//! performance ceiling (Figs. 1, 4, 11) and as the offline profiling engine
//! for Thermometer (§3.2).
//!
//! The future knowledge arrives through
//! [`AccessContext::next_use`], precomputed by
//! [`btb_trace::NextUseOracle`]. Driving this policy with contexts whose
//! `next_use` is always `NEVER` degenerates to FIFO-with-bypass and is
//! almost certainly a bug — the driver must supply the oracle.

use btb_trace::next_use::NEVER;

use crate::policies::WayTable;
use crate::policy::{AccessContext, ReplacementPolicy, Victim};
use crate::{BtbEntry, Geometry};

/// Belady's OPT for the BTB access stream.
#[derive(Clone, Debug, Default)]
pub struct BeladyOpt {
    next_use: WayTable<u64>,
}

impl BeladyOpt {
    /// Creates an OPT policy. Remember to pass oracle `next_use` values on
    /// every access.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for BeladyOpt {
    fn name(&self) -> &'static str {
        "OPT"
    }

    fn needs_oracle(&self) -> bool {
        true
    }

    fn reset(&mut self, geometry: &Geometry) {
        self.next_use = WayTable::sized(geometry);
    }

    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessContext) {
        *self.next_use.get_mut(set, way) = ctx.next_use;
    }

    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessContext) {
        *self.next_use.get_mut(set, way) = ctx.next_use;
    }

    fn choose_victim(&mut self, set: usize, resident: &[BtbEntry], ctx: &AccessContext) -> Victim {
        let row = self.next_use.row(set);
        // `>=` preserves the last-maximum tie-break of the old
        // `max_by_key` without its panic path.
        let (far_way, far_use) =
            (0..resident.len()).fold(
                (0, 0),
                |(bw, bu), w| {
                    if row[w] >= bu {
                        (w, row[w])
                    } else {
                        (bw, bu)
                    }
                },
            );
        // Bypass when the incoming branch recurs no sooner than every
        // resident entry (ties favour bypass: inserting buys nothing).
        if ctx.next_use >= far_use || ctx.next_use == NEVER {
            Victim::Bypass
        } else {
            Victim::Evict(far_way)
        }
    }

    fn on_replace(&mut self, set: usize, way: usize, _evicted: &BtbEntry, ctx: &AccessContext) {
        *self.next_use.get_mut(set, way) = ctx.next_use;
    }

    fn on_invalidate(&mut self, set: usize, way: usize, last: usize) {
        self.next_use.swap_remove(set, way, last);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::Lru;
    use crate::{Btb, BtbConfig};
    use btb_trace::{BranchKind, BranchRecord, NextUseOracle, Trace};
    use sim_support::forall;

    fn oracle_of(pcs: &[u64]) -> NextUseOracle {
        let mut t = Trace::new("opt-test");
        for &pc in pcs {
            t.push(BranchRecord::taken(pc, 0x1, BranchKind::UncondDirect, 0));
        }
        NextUseOracle::build(&t)
    }

    fn hits<P: ReplacementPolicy>(policy: P, config: BtbConfig, oracle: &NextUseOracle) -> u64 {
        let mut btb = Btb::new(config, policy);
        for i in 0..oracle.len() {
            btb.access_taken(
                oracle.pc(i),
                0x1,
                BranchKind::UncondDirect,
                oracle.next_use(i),
            );
        }
        btb.stats().hits
    }

    #[test]
    fn textbook_belady_example() {
        // Classic page-reference string, 1 set x 3 ways (fully assoc., cap 3):
        // 7 0 1 2 0 3 0 4 2 3 0 3 2. Classic MIN (forced insertion) gets 6
        // hits; OPT-with-bypass gets 7 because it refuses to insert the
        // never-reused 4 instead of evicting 0 (which recurs at position 10).
        let stream = [7u64, 0, 1, 2, 0, 3, 0, 4, 2, 3, 0, 3, 2];
        let oracle = oracle_of(&stream);
        assert_eq!(hits(BeladyOpt::new(), BtbConfig::new(3, 3), &oracle), 7);
    }

    #[test]
    fn never_reused_branch_is_bypassed_when_full() {
        let stream = [1u64, 2, 3, 99, 1, 2, 3];
        let oracle = oracle_of(&stream);
        let mut btb = Btb::new(BtbConfig::new(3, 3), BeladyOpt::new());
        for i in 0..oracle.len() {
            btb.access_taken(
                oracle.pc(i),
                0x1,
                BranchKind::UncondDirect,
                oracle.next_use(i),
            );
        }
        // 99 never recurs: with the set full it must be bypassed, so
        // 1, 2, 3 all hit on their second round.
        assert_eq!(btb.stats().bypasses, 1);
        assert_eq!(btb.stats().hits, 3);
    }

    /// OPT-with-bypass never yields fewer hits than any online policy on
    /// any stream (optimality, spot-checked across the whole zoo).
    #[test]
    fn prop_opt_dominates_every_online_policy() {
        use crate::policies::{Drrip, Fifo, Ghrp, Hawkeye, PseudoLru, Random, Ship, Srrip};
        forall!(cases: 48, gen: |rng| {
            let len = rng.gen_range(1usize..300);
            (0..len).map(|_| rng.gen_range(0u64..24)).collect::<Vec<u64>>()
        }, shrink: sim_support::forall::shrink_halves, prop: |pcs| {
            let oracle = oracle_of(pcs);
            let config = BtbConfig::new(8, 4);
            let opt = hits(BeladyOpt::new(), config, &oracle);
            let rivals: Vec<(&str, u64)> = vec![
                ("LRU", hits(Lru::new(), config, &oracle)),
                ("FIFO", hits(Fifo::new(), config, &oracle)),
                ("PLRU", hits(PseudoLru::new(), config, &oracle)),
                ("Random", hits(Random::with_seed(5), config, &oracle)),
                ("SRRIP", hits(Srrip::new(), config, &oracle)),
                ("DRRIP", hits(Drrip::new(), config, &oracle)),
                ("SHiP", hits(Ship::new(), config, &oracle)),
                ("GHRP", hits(Ghrp::default(), config, &oracle)),
                ("Hawkeye", hits(Hawkeye::default(), config, &oracle)),
            ];
            for (name, h) in rivals {
                assert!(opt >= h, "OPT {opt} < {name} {h} on {pcs:?}");
            }
        });
    }

    /// OPT hit count is monotone in associativity for a fixed set count
    /// (more capacity never hurts the optimal policy).
    #[test]
    fn prop_opt_monotone_in_ways() {
        forall!(cases: 48, gen: |rng| {
            let len = rng.gen_range(1usize..200);
            (0..len).map(|_| rng.gen_range(0u64..40)).collect::<Vec<u64>>()
        }, shrink: sim_support::forall::shrink_halves, prop: |pcs| {
            let oracle = oracle_of(pcs);
            let mut prev = 0;
            for ways in [1usize, 2, 4] {
                // Fix 2 sets; capacity = 2 * ways.
                let h = hits(BeladyOpt::new(), BtbConfig::new(2 * ways, ways), &oracle);
                assert!(h >= prev);
                prev = h;
            }
        });
    }
}
