//! Shotgun-lite: a statically partitioned, BTB-directed prefetching BTB.
//!
//! Shotgun splits the BTB by branch type: a large U-BTB for unconditional
//! branches (whose targets expose the program's region structure), a small
//! C-BTB for conditionals, and a RIB for return-instruction metadata. On a
//! U-BTB hit it prefetches the conditional branches of the target's
//! *spatial region*, learned from past executions.
//!
//! The model reproduces the three weaknesses the paper identifies (§2.2):
//!
//! 1. the static partition rarely matches an application's conditional /
//!    unconditional working-set split (26–45% of conditionals do not fit),
//! 2. part of the storage budget holds prefetch metadata (region
//!    footprints) rather than branch targets — modeled by shrinking the
//!    usable entry budget,
//! 3. temporal novelty still defeats the region predictor.

use sim_support::DetHashMap;

use btb_model::{
    AccessContext, AccessOutcome, Btb, BtbConfig, BtbEntry, BtbInterface, BtbStats,
    ReplacementPolicy,
};
use btb_trace::BranchKind;

use crate::cache::BLOCK_BYTES;

/// Fraction of the storage budget spent on region-footprint metadata.
const METADATA_FRACTION: f64 = 0.15;
/// Fraction of the remaining entries given to the U-BTB.
const UBTB_FRACTION: f64 = 0.60;
/// Branches remembered per spatial region.
const REGION_CAP: usize = 12;

/// The partitioned Shotgun BTB. Implements [`BtbInterface`] so it can slot
/// into the frontend in place of a conventional BTB.
#[derive(Debug)]
pub struct ShotgunBtb<P> {
    ubtb: Btb<P>,
    cbtb: Btb<P>,
    /// Region start block → conditional branches inside the region.
    /// Looked up per access (hot); never iterated, so the seeded map is
    /// safe.
    regions: DetHashMap<u64, Vec<(u64, u64)>>,
    /// Prefetch fills issued.
    pub issued: u64,
}

fn is_unconditional(kind: BranchKind) -> bool {
    !kind.is_conditional()
}

impl<P: ReplacementPolicy> ShotgunBtb<P> {
    /// Builds a Shotgun BTB from a total entry budget, handing each
    /// partition its own replacement policy instance.
    ///
    /// # Panics
    ///
    /// Panics if the budget is too small to form both partitions.
    pub fn new(total: BtbConfig, policy_u: P, policy_c: P) -> Self {
        let ways = total.ways();
        let usable = ((total.entries() as f64) * (1.0 - METADATA_FRACTION)) as usize;
        let u_entries = ((usable as f64 * UBTB_FRACTION) as usize / ways).max(1) * ways;
        let c_entries = ((usable - u_entries) / ways).max(1) * ways;
        Self {
            ubtb: Btb::new(BtbConfig::new(u_entries, ways), policy_u),
            cbtb: Btb::new(BtbConfig::new(c_entries, ways), policy_c),
            regions: DetHashMap::default(),
            issued: 0,
        }
    }

    fn region_of(addr: u64) -> u64 {
        // 512B spatial regions (8 blocks).
        addr / (8 * BLOCK_BYTES)
    }

    /// Partition sizes `(u_btb, c_btb)` in entries.
    pub fn partition_entries(&self) -> (usize, usize) {
        (
            self.ubtb.geometry().entries(),
            self.cbtb.geometry().entries(),
        )
    }
}

impl<P: ReplacementPolicy> BtbInterface for ShotgunBtb<P> {
    fn access(&mut self, ctx: &AccessContext) -> AccessOutcome {
        // Learn region footprints for conditionals.
        if ctx.kind.is_conditional() {
            let region = Self::region_of(ctx.pc);
            let list = self.regions.entry(region).or_default();
            if !list.iter().any(|&(pc, _)| pc == ctx.pc) && list.len() < REGION_CAP {
                list.push((ctx.pc, ctx.target));
            }
        }

        let outcome = if is_unconditional(ctx.kind) {
            let outcome = self.ubtb.access(ctx);
            // BTB-directed prefetch: a known unconditional branch reveals
            // the upcoming region; prefill its conditional branches.
            if outcome.is_hit() {
                let region = Self::region_of(ctx.target);
                if let Some(list) = self.regions.get(&region) {
                    let fills: Vec<(u64, u64)> = list
                        .iter()
                        .copied()
                        .filter(|&(pc, _)| self.cbtb.probe(pc).is_none())
                        .collect();
                    for (pc, target) in fills {
                        self.cbtb.prefetch_fill(pc, target, BranchKind::CondDirect);
                        self.issued += 1;
                    }
                }
            }
            outcome
        } else {
            self.cbtb.access(ctx)
        };
        outcome
    }

    fn probe(&self, pc: u64) -> Option<BtbEntry> {
        self.ubtb.probe(pc).or_else(|| self.cbtb.probe(pc))
    }

    fn prefetch_fill(&mut self, pc: u64, target: u64, kind: BranchKind) -> bool {
        if is_unconditional(kind) {
            self.ubtb.prefetch_fill(pc, target, kind)
        } else {
            self.cbtb.prefetch_fill(pc, target, kind)
        }
    }

    fn stats(&self) -> BtbStats {
        let u = self.ubtb.stats();
        let c = self.cbtb.stats();
        BtbStats {
            accesses: u.accesses + c.accesses,
            hits: u.hits + c.hits,
            misses: u.misses + c.misses,
            target_mismatches: u.target_mismatches + c.target_mismatches,
            fills: u.fills + c.fills,
            evictions: u.evictions + c.evictions,
            bypasses: u.bypasses + c.bypasses,
            prefetch_fills: u.prefetch_fills + c.prefetch_fills,
            prefetch_evictions: u.prefetch_evictions + c.prefetch_evictions,
        }
    }

    fn capacity(&self) -> usize {
        self.ubtb.geometry().entries() + self.cbtb.geometry().entries()
    }

    fn clear(&mut self) {
        self.ubtb.clear();
        self.cbtb.clear();
        self.regions.clear();
        self.issued = 0;
    }

    fn needs_oracle(&self) -> bool {
        self.ubtb.needs_oracle() || self.cbtb.needs_oracle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btb_model::policies::Lru;

    fn ctx(pc: u64, target: u64, kind: BranchKind) -> AccessContext {
        AccessContext {
            pc,
            target,
            kind,
            ..Default::default()
        }
    }

    #[test]
    fn capacity_is_lost_to_metadata() {
        let sg = ShotgunBtb::new(BtbConfig::table1(), Lru::new(), Lru::new());
        let (u, c) = sg.partition_entries();
        assert!(u + c < 8192, "metadata overhead not modeled: {u} + {c}");
        assert!(u > c, "U-BTB should dominate the partition");
    }

    #[test]
    fn partitions_route_by_kind() {
        let mut sg = ShotgunBtb::new(BtbConfig::new(64, 4), Lru::new(), Lru::new());
        sg.access(&ctx(0x100, 0x1000, BranchKind::DirectCall));
        sg.access(&ctx(0x104, 0x200, BranchKind::CondDirect));
        assert!(sg.ubtb.probe(0x100).is_some());
        assert!(sg.ubtb.probe(0x104).is_none());
        assert!(sg.cbtb.probe(0x104).is_some());
    }

    #[test]
    fn ubtb_hit_prefetches_target_region_conditionals() {
        let mut sg = ShotgunBtb::new(BtbConfig::new(64, 4), Lru::new(), Lru::new());
        // Teach the region: conditional at 0x1000 (region of 0x1000).
        sg.access(&ctx(0x1000, 0x1040, BranchKind::CondDirect));
        // Unconditional into that region: first access misses (fills), the
        // second hits and triggers the region prefetch.
        sg.access(&ctx(0x500, 0x1000, BranchKind::UncondDirect));
        // Evict the conditional by thrashing its set... simpler: clear cbtb.
        sg.cbtb.clear();
        assert!(sg.cbtb.probe(0x1000).is_none());
        sg.access(&ctx(0x500, 0x1000, BranchKind::UncondDirect));
        assert!(
            sg.cbtb.probe(0x1000).is_some(),
            "region prefetch did not fill the conditional"
        );
        assert!(sg.issued > 0);
    }

    #[test]
    fn conditional_pressure_overwhelms_small_cbtb() {
        // Many conditionals vs a partition sized for few: miss rate stays
        // high even on re-execution — the paper's partition-mismatch
        // failure mode.
        let mut sg = ShotgunBtb::new(BtbConfig::new(64, 4), Lru::new(), Lru::new());
        let (_, c_entries) = sg.partition_entries();
        let conds = (c_entries * 4) as u64;
        for _ in 0..4 {
            for i in 0..conds {
                sg.access(&ctx(0x2000 + i * 4, 0x9000, BranchKind::CondDirect));
            }
        }
        let s = sg.stats();
        assert!(
            s.misses as f64 > 0.5 * s.accesses as f64,
            "conditionals should thrash the small C-BTB: {s:?}"
        );
    }
}
