//! The replacement-policy abstraction.

use btb_trace::BranchKind;

use crate::{BtbEntry, Geometry};

/// Everything a policy may consult about the access being performed.
#[derive(Copy, Clone, Debug)]
pub struct AccessContext {
    /// PC of the taken branch being looked up.
    pub pc: u64,
    /// Its resolved target.
    pub target: u64,
    /// Its kind.
    pub kind: BranchKind,
    /// Thermometer temperature hint carried by the instruction (0 = coldest
    /// category; 0 for configurations without hints).
    pub hint: u8,
    /// Oracle position of the *next* access to this PC in the taken-branch
    /// stream, or [`btb_trace::next_use::NEVER`]. Online policies must
    /// ignore this; Belady's OPT requires it.
    pub next_use: u64,
    /// Position of this access in the taken-branch stream (set by the BTB).
    pub access_index: u64,
}

impl Default for AccessContext {
    fn default() -> Self {
        Self {
            pc: 0,
            target: 0,
            kind: BranchKind::default(),
            hint: 0,
            next_use: btb_trace::next_use::NEVER,
            access_index: 0,
        }
    }
}

/// A replacement decision for a full set.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Victim {
    /// Evict the entry in this way and insert the incoming branch.
    Evict(usize),
    /// Do not insert the incoming branch (BTB bypass, paper §2.5).
    Bypass,
}

/// A BTB replacement policy.
///
/// The policy owns whatever per-(set, way) metadata it needs (LRU
/// timestamps, RRPVs, predictor tables, ...) and is driven by the [`crate::Btb`]
/// through these callbacks. Implementations must be deterministic given the
/// access stream (Random uses an internally seeded generator).
pub trait ReplacementPolicy {
    /// Human-readable policy name as used in the paper's figures
    /// ("LRU", "SRRIP", "GHRP", "Hawkeye", "OPT", "Thermometer").
    fn name(&self) -> &'static str;

    /// (Re)sizes metadata for the geometry and clears all learned state.
    fn reset(&mut self, geometry: &Geometry);

    /// The access hit `way` of `set`.
    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessContext);

    /// The access missed and the entry was filled into the free `way` of
    /// `set`.
    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessContext);

    /// The access missed and `set` is full: pick a victim way among
    /// `resident` (indexed by way), or [`Victim::Bypass`] to skip insertion.
    fn choose_victim(&mut self, set: usize, resident: &[BtbEntry], ctx: &AccessContext) -> Victim;

    /// `evicted` was replaced by the incoming branch in `way` of `set`
    /// (called after [`ReplacementPolicy::choose_victim`] returned
    /// `Evict(way)`).
    fn on_replace(&mut self, set: usize, way: usize, evicted: &BtbEntry, ctx: &AccessContext);

    /// The entry in `way` of `set` was invalidated (removed without a
    /// replacement — multilevel hierarchies migrate entries this way). To
    /// keep resident ways a contiguous prefix the storage moved the entry
    /// from way `last` into `way` (`last == way` when the removed entry was
    /// the prefix tail). Policies with per-way metadata must move `last`'s
    /// metadata into `way`; the vacated tail slot is reinitialised by the
    /// next `on_fill` before it can be consulted again. Default: no-op, for
    /// policies without per-way state.
    fn on_invalidate(&mut self, _set: usize, _way: usize, _last: usize) {}

    /// Whether this policy reads [`AccessContext::next_use`], so a run must
    /// build the [`btb_trace::NextUseOracle`] to drive it. Default: false,
    /// for every online policy.
    fn needs_oracle(&self) -> bool {
        false
    }
}

/// Blanket impl so `Box<dyn ReplacementPolicy>` (used by heterogeneous
/// experiment grids) is itself a policy.
impl ReplacementPolicy for Box<dyn ReplacementPolicy> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn reset(&mut self, geometry: &Geometry) {
        (**self).reset(geometry);
    }

    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessContext) {
        (**self).on_hit(set, way, ctx);
    }

    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessContext) {
        (**self).on_fill(set, way, ctx);
    }

    fn choose_victim(&mut self, set: usize, resident: &[BtbEntry], ctx: &AccessContext) -> Victim {
        (**self).choose_victim(set, resident, ctx)
    }

    fn on_replace(&mut self, set: usize, way: usize, evicted: &BtbEntry, ctx: &AccessContext) {
        (**self).on_replace(set, way, evicted, ctx);
    }

    fn on_invalidate(&mut self, set: usize, way: usize, last: usize) {
        (**self).on_invalidate(set, way, last);
    }

    fn needs_oracle(&self) -> bool {
        (**self).needs_oracle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::Lru;
    use crate::{Btb, BtbConfig};

    #[test]
    fn boxed_policy_behaves_like_inner() {
        let boxed: Box<dyn ReplacementPolicy> = Box::new(Lru::new());
        let mut a = Btb::new(BtbConfig::new(8, 2), boxed);
        let mut b = Btb::new(BtbConfig::new(8, 2), Lru::new());
        for pc in [0u64, 4, 8, 0, 12, 8] {
            let oa = a.access_taken(pc, pc + 1, BranchKind::UncondDirect, u64::MAX);
            let ob = b.access_taken(pc, pc + 1, BranchKind::UncondDirect, u64::MAX);
            assert_eq!(oa, ob, "diverged at pc {pc}");
        }
        assert_eq!(a.policy().name(), "LRU");
    }
}
