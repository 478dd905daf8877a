//! Two-level BTB organizations (extension).
//!
//! Several BTB designs the paper cites in §5 (Bulldozer's L1/L2 BTB,
//! two-level tables, BTB-X) split the BTB into a small fast first level and
//! a large second level. This module implements both classic contents
//! disciplines:
//!
//! * [`TwoLevelBtb`] — *inclusive*: L1 is a small LRU cache of the
//!   policy-managed L2, so every L1-resident branch is also L2-resident.
//!   When L2 evicts an entry, the copy in L1 is back-invalidated to keep
//!   the inclusion invariant (`tests/multilevel_properties.rs` pins it).
//! * [`ExclusiveTwoLevelBtb`] — *exclusive/victim*, in the style of Micro
//!   BTB's last-level table (PAPERS.md): a branch is resident in exactly
//!   one level. The last level is filled **only on L1 eviction**, and a
//!   last-level hit *moves* the entry back up. The last level therefore
//!   sees the L1 victim stream rather than the demand stream.
//!
//! The interesting interaction with replacement: L1 **filters** the reuse
//! stream the last-level policy observes — hot branches hit in L1 and stop
//! refreshing their last-level recency, so transient policies (LRU/SRRIP)
//! mistake the hottest entries for dead ones. Thermometer's holistic hints
//! and TRRIP's temperature-biased RRPVs do not depend on observed recency,
//! making them naturally robust to filtering (the `hierarchy` figure suite
//! quantifies this).

use btb_trace::BranchKind;

use crate::policies::Lru;
use crate::{
    AccessContext, AccessOutcome, Btb, BtbConfig, BtbEntry, BtbInterface, BtbStats,
    ReplacementPolicy,
};

/// An inclusive two-level BTB: small LRU L1 in front of a policy-managed L2.
#[derive(Debug)]
pub struct TwoLevelBtb<P> {
    l1: Btb<Lru>,
    l2: Btb<P>,
    stats: BtbStats,
    /// Accesses served by the first level.
    pub l1_hits: u64,
    /// Accesses served by the second level (L1 miss).
    pub l2_hits: u64,
}

impl<P: ReplacementPolicy> TwoLevelBtb<P> {
    /// Builds a two-level BTB.
    ///
    /// # Panics
    ///
    /// Panics if L1 is not smaller than L2.
    pub fn new(l1: BtbConfig, l2: BtbConfig, policy: P) -> Self {
        assert!(l1.entries() < l2.entries(), "L1 must be smaller than L2");
        Self {
            l1: Btb::new(l1, Lru::new()),
            l2: Btb::new(l2, policy),
            stats: BtbStats::default(),
            l1_hits: 0,
            l2_hits: 0,
        }
    }

    /// The first level (for residency inspection in tests).
    pub fn l1(&self) -> &Btb<Lru> {
        &self.l1
    }

    /// The second level (for policy inspection).
    pub fn l2(&self) -> &Btb<P> {
        &self.l2
    }

    /// Back-invalidation: whatever the L2 operation just evicted must leave
    /// L1 too, or L1 would serve hits for branches L2 no longer holds
    /// (breaking inclusion).
    fn back_invalidate(&mut self) {
        if let Some(victim) = self.l2.take_evicted() {
            self.l1.invalidate(victim.pc);
        }
    }
}

impl<P: ReplacementPolicy> BtbInterface for TwoLevelBtb<P> {
    fn access(&mut self, ctx: &AccessContext) -> AccessOutcome {
        self.stats.accesses += 1;
        // L1 probe first: a hit is served without touching L2 (the
        // filtering effect).
        if self.l1.probe(ctx.pc).is_some() {
            let outcome = self.l1.access(ctx);
            debug_assert!(outcome.is_hit());
            self.stats.hits += 1;
            self.l1_hits += 1;
            return outcome;
        }
        let outcome = self.l2.access(ctx);
        match outcome {
            AccessOutcome::Hit { .. } => {
                self.stats.hits += 1;
                self.l2_hits += 1;
                // Promote into L1 (inclusive: the entry stays in L2).
                self.l1.prefetch_fill(ctx.pc, ctx.target, ctx.kind);
            }
            AccessOutcome::MissInserted => {
                self.stats.misses += 1;
                self.back_invalidate();
                self.l1.prefetch_fill(ctx.pc, ctx.target, ctx.kind);
            }
            AccessOutcome::MissBypassed => {
                self.stats.misses += 1;
                self.stats.bypasses += 1;
            }
        }
        outcome
    }

    fn probe(&self, pc: u64) -> Option<BtbEntry> {
        self.l1.probe(pc).or_else(|| self.l2.probe(pc))
    }

    fn prefetch_fill(&mut self, pc: u64, target: u64, kind: BranchKind) -> bool {
        self.prefetch_fill_hinted(pc, target, kind, 0)
    }

    fn prefetch_fill_hinted(&mut self, pc: u64, target: u64, kind: BranchKind, hint: u8) -> bool {
        let inserted = self.l2.prefetch_fill_hinted(pc, target, kind, hint);
        self.back_invalidate();
        inserted
    }

    fn stats(&self) -> BtbStats {
        // Merge: totals from the wrapper, structural counters from L2.
        let l2 = self.l2.stats();
        BtbStats {
            accesses: self.stats.accesses,
            hits: self.stats.hits,
            misses: self.stats.misses,
            target_mismatches: l2.target_mismatches,
            fills: l2.fills,
            evictions: l2.evictions,
            bypasses: l2.bypasses,
            prefetch_fills: l2.prefetch_fills,
            prefetch_evictions: l2.prefetch_evictions,
        }
    }

    fn capacity(&self) -> usize {
        self.l2.geometry().entries()
    }

    fn clear(&mut self) {
        self.l1.clear();
        self.l2.clear();
        self.stats = BtbStats::default();
        self.l1_hits = 0;
        self.l2_hits = 0;
    }

    fn needs_oracle(&self) -> bool {
        self.l1.needs_oracle() || self.l2.needs_oracle()
    }
}

/// A Micro BTB-style exclusive (victim) two-level BTB: a branch is
/// resident in exactly one level. The policy-managed last level is filled
/// **only on L1 eviction** — it caches L1's victims, not the demand stream
/// — and a last-level hit moves the entry back into L1 (removing it from
/// the last level). Any zoo policy may manage the last level; hint-aware
/// ones (Thermometer, TRRIP) see the victims' temperature hints because
/// evicted entries carry their hint bits down.
#[derive(Debug)]
pub struct ExclusiveTwoLevelBtb<P> {
    l1: Btb<Lru>,
    l2: Btb<P>,
    stats: BtbStats,
    /// Accesses served by the first level.
    pub l1_hits: u64,
    /// Accesses served by the last level (entry moved up on the hit).
    pub l2_hits: u64,
    /// L1 victims the last-level policy declined to absorb (bypass) —
    /// those entries leave the hierarchy entirely.
    pub dropped_victims: u64,
}

impl<P: ReplacementPolicy> ExclusiveTwoLevelBtb<P> {
    /// Builds an exclusive two-level BTB.
    ///
    /// # Panics
    ///
    /// Panics if L1 is not smaller than the last level.
    pub fn new(l1: BtbConfig, l2: BtbConfig, policy: P) -> Self {
        assert!(l1.entries() < l2.entries(), "L1 must be smaller than L2");
        Self {
            l1: Btb::new(l1, Lru::new()),
            l2: Btb::new(l2, policy),
            stats: BtbStats::default(),
            l1_hits: 0,
            l2_hits: 0,
            dropped_victims: 0,
        }
    }

    /// The first level (for residency inspection in tests).
    pub fn l1(&self) -> &Btb<Lru> {
        &self.l1
    }

    /// The last level (for policy inspection).
    pub fn l2(&self) -> &Btb<P> {
        &self.l2
    }

    /// Spills the entry the last L1 operation displaced (if any) into the
    /// last level — the *only* path that fills it. The last-level policy
    /// may still bypass the spill, dropping the victim from the hierarchy.
    fn spill_l1_victim(&mut self) {
        if let Some(victim) = self.l1.take_evicted() {
            if !self
                .l2
                .prefetch_fill_hinted(victim.pc, victim.target, victim.kind, victim.hint)
            {
                self.dropped_victims += 1;
            }
        }
    }
}

impl<P: ReplacementPolicy> BtbInterface for ExclusiveTwoLevelBtb<P> {
    fn access(&mut self, ctx: &AccessContext) -> AccessOutcome {
        self.stats.accesses += 1;
        if self.l1.probe(ctx.pc).is_some() {
            let outcome = self.l1.access(ctx);
            debug_assert!(outcome.is_hit());
            self.stats.hits += 1;
            self.l1_hits += 1;
            return outcome;
        }
        // Exclusive move-up: pull the entry out of the last level (if it is
        // there), insert the branch into L1, and spill whatever L1 evicted.
        // Removing before inserting keeps the exclusivity invariant even
        // when the L1 victim maps to the set the promoted entry vacated.
        let promoted = self.l2.invalidate(ctx.pc);
        let outcome = self.l1.access(ctx);
        self.spill_l1_victim();
        match promoted {
            Some(entry) => {
                self.stats.hits += 1;
                self.l2_hits += 1;
                let target_matched = entry.target == ctx.target;
                if !target_matched {
                    self.stats.target_mismatches += 1;
                }
                AccessOutcome::Hit { target_matched }
            }
            None => {
                self.stats.misses += 1;
                debug_assert!(outcome.is_miss(), "L1 probe said absent");
                outcome
            }
        }
    }

    fn probe(&self, pc: u64) -> Option<BtbEntry> {
        self.l1.probe(pc).or_else(|| self.l2.probe(pc))
    }

    fn prefetch_fill(&mut self, pc: u64, target: u64, kind: BranchKind) -> bool {
        self.prefetch_fill_hinted(pc, target, kind, 0)
    }

    fn prefetch_fill_hinted(&mut self, pc: u64, target: u64, kind: BranchKind, hint: u8) -> bool {
        if self.l1.probe(pc).is_some() || self.l2.probe(pc).is_some() {
            return true; // already resident somewhere in the hierarchy
        }
        // Prefetches land in L1 like demand fills (exclusive: never in
        // both); the displaced victim spills down as usual.
        let inserted = self.l1.prefetch_fill_hinted(pc, target, kind, hint);
        self.spill_l1_victim();
        inserted
    }

    fn stats(&self) -> BtbStats {
        // Totals (accesses/hits/misses/target mismatches) come from the
        // wrapper, which is the only place hierarchy hits are visible.
        // Structural counters describe where entries move: fills are L1
        // insertions, prefetch counters are the victim spills into the last
        // level, evictions are last-level evictions caused by spills, and
        // bypasses are victims the last-level policy refused (dropped from
        // the hierarchy).
        let l1 = self.l1.stats();
        let l2 = self.l2.stats();
        BtbStats {
            accesses: self.stats.accesses,
            hits: self.stats.hits,
            misses: self.stats.misses,
            target_mismatches: self.stats.target_mismatches + l1.target_mismatches,
            fills: l1.fills + l1.prefetch_fills,
            evictions: l2.prefetch_evictions,
            bypasses: self.dropped_victims,
            prefetch_fills: l2.prefetch_fills,
            prefetch_evictions: l2.prefetch_evictions,
        }
    }

    fn capacity(&self) -> usize {
        // Exclusive: the levels hold disjoint entries, so capacity adds.
        self.l1.geometry().entries() + self.l2.geometry().entries()
    }

    fn clear(&mut self) {
        self.l1.clear();
        self.l2.clear();
        self.stats = BtbStats::default();
        self.l1_hits = 0;
        self.l2_hits = 0;
        self.dropped_victims = 0;
    }

    fn needs_oracle(&self) -> bool {
        self.l1.needs_oracle() || self.l2.needs_oracle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::Srrip;

    fn ctx(pc: u64) -> AccessContext {
        AccessContext {
            pc,
            target: pc + 0x100,
            kind: BranchKind::UncondDirect,
            ..Default::default()
        }
    }

    fn two_level() -> TwoLevelBtb<Lru> {
        TwoLevelBtb::new(BtbConfig::new(4, 4), BtbConfig::new(64, 4), Lru::new())
    }

    #[test]
    fn l1_serves_repeats() {
        let mut btb = two_level();
        btb.access(&ctx(0x40)); // L2 miss, inserted everywhere
        btb.access(&ctx(0x40)); // L1 hit
        assert_eq!(btb.l1_hits, 1);
        assert_eq!(btb.l2_hits, 0);
        assert_eq!(btb.stats().hits, 1);
    }

    #[test]
    fn l2_hit_promotes_into_l1() {
        let mut btb = two_level();
        // Fill L1 (4 entries, distinct sets? 4 sets x ... pc/4 % 1? L1 4x4 =
        // 1 set of 4) with other branches to evict 0x40 from L1 later.
        btb.access(&ctx(0x40));
        for pc in [0x44u64, 0x48, 0x4c, 0x50] {
            btb.access(&ctx(pc));
        }
        // 0x40 fell out of the 4-entry L1 but remains in L2 (inclusive).
        let before = btb.l2_hits;
        btb.access(&ctx(0x40));
        assert_eq!(
            btb.l2_hits,
            before + 1,
            "expected L2 to serve the filtered branch"
        );
        // And it was promoted: the next access hits L1.
        btb.access(&ctx(0x40));
        assert!(btb.l1_hits >= 1);
    }

    #[test]
    fn filtering_starves_l2_recency() {
        // A hot branch that always hits L1 never refreshes its L2 LRU state:
        // streaming traffic in its L2 set can evict it from L2 even though
        // it is the hottest branch in the program. A monolithic LRU of the
        // same capacity would keep it.
        // L1: 4 entries fully associative; L2: 4 sets x 4 ways (mono same).
        let mut two = TwoLevelBtb::new(BtbConfig::new(4, 4), BtbConfig::new(16, 4), Lru::new());
        let mut mono = Btb::new(BtbConfig::new(16, 4), Lru::new());

        // Hot branch 0x40 lives in L2 set 0. Each round: the hot branch
        // interleaves with set-0 cold traffic (which silently pushes it out
        // of L2 while L1 keeps serving it), then a burst of set-1 traffic
        // flushes the small L1 without touching L2 set 0. The monolithic
        // LRU sees the hot branch's reuse directly (distance 1) and keeps
        // it; the two-level LRU takes a full miss every round.
        let mut stream = Vec::new();
        let mut cold0 = 0x1000u64; // set-0 colds: (pc>>2) % 4 == 0
        let mut cold1 = 0x2004u64; // set-1 colds
        for _ in 0..20u64 {
            // Three hot touches, each followed by one set-0 cold...
            for _ in 0..3 {
                stream.push(0x40);
                stream.push(cold0);
                cold0 += 16;
            }
            // ...then two more set-0 colds (5 per round: enough to push the
            // untouched hot entry out of the 4-way L2 set, but never more
            // than 3 between the monolithic BTB's direct hot touches)...
            for _ in 0..2 {
                stream.push(cold0);
                cold0 += 16;
            }
            // ...and a set-1 burst that flushes the 4-entry L1.
            for _ in 0..5 {
                stream.push(cold1);
                cold1 += 16;
            }
        }
        let mut two_hot_misses = 0;
        let mut mono_hot_misses = 0;
        for &pc in &stream {
            let out_two = BtbInterface::access(&mut two, &ctx(pc));
            let out_mono = mono.access(&ctx(pc));
            if pc == 0x40 {
                two_hot_misses += u64::from(out_two.is_miss());
                mono_hot_misses += u64::from(out_mono.is_miss());
            }
        }
        assert!(
            two_hot_misses > mono_hot_misses,
            "filtering should cost the two-level LRU hot misses: {two_hot_misses} vs {mono_hot_misses}"
        );
    }

    #[test]
    fn works_with_any_policy_and_clear_resets() {
        let mut btb = TwoLevelBtb::new(BtbConfig::new(4, 4), BtbConfig::new(64, 4), Srrip::new());
        for pc in 0..100u64 {
            BtbInterface::access(&mut btb, &ctx(pc * 4));
        }
        let s = btb.stats();
        assert_eq!(s.hits + s.misses, s.accesses);
        btb.clear();
        assert_eq!(btb.stats().accesses, 0);
        assert!(BtbInterface::probe(&btb, 0x0).is_none());
    }

    #[test]
    fn l2_eviction_back_invalidates_l1() {
        // L1 1 set x 2 ways, L2 1 set x 4 ways. 0x40 is kept hot in L1
        // (every re-touch is L1-filtered, so its L2 recency starves) while
        // four other branches fill the L2 set. The 5th distinct branch
        // evicts 0x40 from L2 — and the still-hot copy in L1 must go with
        // it, or L1 would serve hits for a branch L2 no longer holds.
        let mut btb = TwoLevelBtb::new(BtbConfig::new(2, 2), BtbConfig::new(4, 4), Lru::new());
        for pc in [0x40u64, 0x44, 0x40, 0x48, 0x40, 0x4c, 0x40] {
            btb.access(&ctx(pc));
        }
        assert!(btb.l1().probe(0x40).is_some(), "hot branch is L1-resident");
        btb.access(&ctx(0x50)); // L2 is full; its LRU victim is 0x40
        assert!(
            btb.l2().probe(0x40).is_none(),
            "L2 evicted the starved entry"
        );
        assert!(
            btb.l1().probe(0x40).is_none(),
            "back-invalidation must remove the L1 copy"
        );
        // Inclusion holds for everything still in L1.
        for pc in (0..0x60u64).step_by(4) {
            if btb.l1().probe(pc).is_some() {
                assert!(btb.l2().probe(pc).is_some(), "{pc:#x} in L1 but not L2");
            }
        }
    }

    fn exclusive() -> ExclusiveTwoLevelBtb<Lru> {
        // L1: 1 set x 2 ways; L2: 1 set x 4 ways.
        ExclusiveTwoLevelBtb::new(BtbConfig::new(2, 2), BtbConfig::new(4, 4), Lru::new())
    }

    #[test]
    fn exclusive_fills_last_level_only_on_l1_eviction() {
        let mut btb = exclusive();
        btb.access(&ctx(0x40));
        btb.access(&ctx(0x44));
        // Both fit in L1; the last level must still be empty.
        assert_eq!(btb.l2().occupancy(), 0, "no L1 eviction yet");
        btb.access(&ctx(0x48)); // L1 evicts 0x40, which spills down
        assert!(btb.l1().probe(0x40).is_none());
        assert!(btb.l2().probe(0x40).is_some(), "victim spilled to L2");
    }

    #[test]
    fn exclusive_hit_moves_the_entry_up() {
        let mut btb = exclusive();
        for pc in [0x40u64, 0x44, 0x48] {
            btb.access(&ctx(pc));
        }
        // 0x40 now lives only in the last level.
        let before = btb.l2_hits;
        let out = btb.access(&ctx(0x40));
        assert!(out.is_hit());
        assert_eq!(btb.l2_hits, before + 1);
        assert!(btb.l1().probe(0x40).is_some(), "moved up into L1");
        assert!(btb.l2().probe(0x40).is_none(), "and out of the last level");
    }

    #[test]
    fn exclusive_never_holds_a_pc_in_both_levels() {
        let mut btb = exclusive();
        for i in 0..400u64 {
            let pc = ((i * 7) % 13) * 4;
            btb.access(&ctx(pc));
            for probe_pc in (0..13u64).map(|p| p * 4) {
                let in_l1 = btb.l1().probe(probe_pc).is_some();
                let in_l2 = btb.l2().probe(probe_pc).is_some();
                assert!(
                    !(in_l1 && in_l2),
                    "{probe_pc:#x} resident in both levels after access {i}"
                );
            }
        }
        let s = btb.stats();
        assert_eq!(s.hits + s.misses, s.accesses);
    }

    #[test]
    fn exclusive_works_with_any_policy_and_clear_resets() {
        let mut btb =
            ExclusiveTwoLevelBtb::new(BtbConfig::new(4, 4), BtbConfig::new(64, 4), Srrip::new());
        for pc in 0..100u64 {
            BtbInterface::access(&mut btb, &ctx(pc * 4));
        }
        let s = btb.stats();
        assert_eq!(s.hits + s.misses, s.accesses);
        assert_eq!(BtbInterface::capacity(&btb), 68);
        btb.clear();
        assert_eq!(btb.stats().accesses, 0);
        assert!(BtbInterface::probe(&btb, 0x0).is_none());
    }
}
