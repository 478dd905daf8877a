//! Object-safe BTB access interface.
//!
//! The frontend simulator and BTB prefetchers need to drive *any* BTB
//! organization — a plain [`Btb`] with some policy, or a composite like
//! Shotgun's statically partitioned BTB. This trait is the object-safe
//! common denominator.

use btb_trace::BranchKind;

use crate::{AccessContext, AccessOutcome, Btb, BtbEntry, BtbStats, ReplacementPolicy};

/// Anything that behaves like a BTB: demand accesses, probes, prefetch
/// fills, and statistics.
pub trait BtbInterface {
    /// Performs one demand access for a dynamically taken branch.
    fn access(&mut self, ctx: &AccessContext) -> AccessOutcome;

    /// Looks up `pc` without mutating replacement state. Returns the entry
    /// by value: the flat SoA storage keeps entry fields in separate
    /// arrays, so there is no whole `BtbEntry` in memory to borrow.
    fn probe(&self, pc: u64) -> Option<BtbEntry>;

    /// Installs an entry on behalf of a prefetcher; returns false when the
    /// underlying policy rejected (bypassed) the fill.
    fn prefetch_fill(&mut self, pc: u64, target: u64, kind: BranchKind) -> bool;

    /// Like [`BtbInterface::prefetch_fill`] but with an explicit temperature
    /// hint (the hint travels in the branch instruction, so prefetch fill
    /// paths see it too). Defaults to ignoring the hint.
    fn prefetch_fill_hinted(&mut self, pc: u64, target: u64, kind: BranchKind, _hint: u8) -> bool {
        self.prefetch_fill(pc, target, kind)
    }

    /// Hints that `pc` will be accessed soon (software prefetch of the
    /// relevant set row). Purely advisory — defaults to a no-op, and
    /// implementations must not change any observable state.
    fn warm(&self, _pc: u64) {}

    /// Aggregated statistics. Composite organizations report the sum of
    /// their parts.
    fn stats(&self) -> BtbStats;

    /// Total entry capacity.
    fn capacity(&self) -> usize;

    /// Empties storage and resets statistics and policy state.
    fn clear(&mut self);

    /// Whether any replacement policy inside this organization reads the
    /// next-use oracle ([`ReplacementPolicy::needs_oracle`]). Composite
    /// organizations OR their parts.
    fn needs_oracle(&self) -> bool;
}

impl<P: ReplacementPolicy> BtbInterface for Btb<P> {
    fn access(&mut self, ctx: &AccessContext) -> AccessOutcome {
        Btb::access(self, ctx)
    }

    fn probe(&self, pc: u64) -> Option<BtbEntry> {
        Btb::probe(self, pc)
    }

    fn prefetch_fill(&mut self, pc: u64, target: u64, kind: BranchKind) -> bool {
        Btb::prefetch_fill(self, pc, target, kind)
    }

    fn prefetch_fill_hinted(&mut self, pc: u64, target: u64, kind: BranchKind, hint: u8) -> bool {
        Btb::prefetch_fill_hinted(self, pc, target, kind, hint)
    }

    fn warm(&self, pc: u64) {
        Btb::warm(self, pc);
    }

    fn stats(&self) -> BtbStats {
        Btb::stats(self).clone()
    }

    fn capacity(&self) -> usize {
        self.geometry().entries()
    }

    fn clear(&mut self) {
        Btb::clear(self);
    }

    fn needs_oracle(&self) -> bool {
        self.policy().needs_oracle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::Lru;
    use crate::BtbConfig;

    #[test]
    fn trait_object_drives_btb() {
        let mut btb: Box<dyn BtbInterface> = Box::new(Btb::new(BtbConfig::new(8, 2), Lru::new()));
        let ctx = AccessContext {
            pc: 0x40,
            target: 0x80,
            ..Default::default()
        };
        assert!(btb.access(&ctx).is_miss());
        assert!(btb.access(&ctx).is_hit());
        assert_eq!(btb.stats().hits, 1);
        assert_eq!(btb.capacity(), 8);
        assert!(!btb.needs_oracle());
        btb.clear();
        assert!(btb.probe(0x40).is_none());
    }
}
