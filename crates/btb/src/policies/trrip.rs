//! TRRIP — Temperature-based Re-Reference Interval Prediction, after
//! *A TRRIP Down Memory Lane* (see PAPERS.md): SRRIP's RRPV machinery with
//! insertion and promotion intervals selected by the same k-bit temperature
//! classes Thermometer's profiling step computes (0 = coldest).
//!
//! Where Thermometer replaces the whole victim-selection rule with
//! coldest-first search, TRRIP keeps the RRIP rule and only *biases* it
//! through the hint: cold branches insert at the distant re-reference point
//! (first in line for eviction) and re-promote reluctantly, warm branches
//! behave exactly like SRRIP, hot branches insert near-immediate. The
//! victim scan is the shared [`rrip_victim`] aging helper, so the policy
//! inherits SRRIP's scan resistance and its closed-form aging.
//!
//! With every class mapped to the warm row — [`Trrip::pinned_srrip`] — or
//! equivalently every hint pinned to [`SRRIP_CLASS`], TRRIP is
//! *behaviourally identical* to SRRIP; `tests/policy_differential.rs` pins
//! that equivalence over the trace corpus, which locks the temperature
//! tables down to pure biasing (no hidden divergence in the RRPV plumbing).

use crate::policies::{rrip_victim, WayTable};
use crate::policy::{AccessContext, ReplacementPolicy, Victim};
use crate::{BtbEntry, Geometry};

const RRPV_MAX: u8 = 3; // 2-bit counters, as in SRRIP

/// Insertion RRPV per temperature class `[cold, warm, hot]`; hints above
/// the hot class clamp to it. The warm row is SRRIP's long re-reference
/// insertion.
const INSERT_RRPV: [u8; 3] = [RRPV_MAX, 2, 1];

/// Hit-promotion RRPV per temperature class `[cold, warm, hot]`. Warm and
/// hot promote to near-immediate like SRRIP's hit priority; cold entries
/// keep a long prediction even when they hit, so one lucky re-reference
/// does not anchor a profiled-cold branch in the set.
const PROMOTE_RRPV: [u8; 3] = [1, 0, 0];

/// The temperature class whose insertion/promotion rows reproduce SRRIP
/// exactly (insert long, promote to 0).
pub const SRRIP_CLASS: u8 = 1;

/// TRRIP: SRRIP-style RRPVs with temperature-driven insertion/promotion.
#[derive(Clone, Debug, Default)]
pub struct Trrip {
    rrpv: WayTable<u8>,
    /// When set, every access uses the [`SRRIP_CLASS`] rows regardless of
    /// its hint — the differential-test configuration.
    pinned: bool,
}

impl Trrip {
    /// Creates a TRRIP policy. Temperature classes flow in through
    /// [`AccessContext::hint`] (0 = coldest), exactly like Thermometer's.
    pub fn new() -> Self {
        Self::default()
    }

    /// A TRRIP whose temperature tables are pinned to `SRRIP_CLASS`:
    /// every class inserts long and promotes to near-immediate, exactly
    /// like [`Srrip`](crate::policies::Srrip). Used by the differential
    /// tests — with the temperature signal frozen, TRRIP must be
    /// *behaviourally identical* to SRRIP, which pins the shared RRPV
    /// machinery (victim scan, aging, hit promotion) against divergence.
    pub fn pinned_srrip() -> Self {
        Self {
            pinned: true,
            ..Self::default()
        }
    }

    /// Current RRPV of a way (exposed for tests and ablations).
    pub fn rrpv(&self, set: usize, way: usize) -> u8 {
        *self.rrpv.get(set, way)
    }

    #[inline]
    fn class(&self, hint: u8) -> usize {
        if self.pinned {
            usize::from(SRRIP_CLASS)
        } else {
            usize::from(hint).min(INSERT_RRPV.len() - 1)
        }
    }
}

impl ReplacementPolicy for Trrip {
    fn name(&self) -> &'static str {
        "TRRIP"
    }

    fn reset(&mut self, geometry: &Geometry) {
        self.rrpv = WayTable::sized(geometry);
    }

    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessContext) {
        *self.rrpv.get_mut(set, way) = PROMOTE_RRPV[self.class(ctx.hint)];
    }

    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessContext) {
        *self.rrpv.get_mut(set, way) = INSERT_RRPV[self.class(ctx.hint)];
    }

    fn choose_victim(
        &mut self,
        set: usize,
        _resident: &[BtbEntry],
        _ctx: &AccessContext,
    ) -> Victim {
        Victim::Evict(rrip_victim(self.rrpv.row_mut(set), RRPV_MAX))
    }

    fn on_replace(&mut self, set: usize, way: usize, _evicted: &BtbEntry, ctx: &AccessContext) {
        *self.rrpv.get_mut(set, way) = INSERT_RRPV[self.class(ctx.hint)];
    }

    fn on_invalidate(&mut self, set: usize, way: usize, last: usize) {
        self.rrpv.swap_remove(set, way, last);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::Srrip;
    use crate::{Btb, BtbConfig};
    use btb_trace::BranchKind;

    fn ctx(pc: u64, hint: u8) -> AccessContext {
        AccessContext {
            pc,
            target: pc + 0x100,
            kind: BranchKind::UncondDirect,
            hint,
            ..Default::default()
        }
    }

    fn drive_hinted<P: ReplacementPolicy>(
        policy: P,
        stream: &[(u64, u8)],
        config: BtbConfig,
    ) -> (u64, u64) {
        let mut btb = Btb::new(config, policy);
        for &(pc, hint) in stream {
            btb.access(&ctx(pc * 4, hint));
        }
        (btb.stats().hits, btb.stats().misses)
    }

    #[test]
    fn warm_hints_everywhere_reproduce_srrip() {
        // With every branch in the SRRIP class the temperature bias is
        // inert; the policy must match SRRIP access for access.
        let stream: Vec<(u64, u8)> = (0..4000u64).map(|i| ((i * 13) % 37, SRRIP_CLASS)).collect();
        let config = BtbConfig::new(16, 4);
        let trrip = drive_hinted(Trrip::new(), &stream, config);
        let srrip = drive_hinted(Srrip::new(), &stream, config);
        assert_eq!(trrip, srrip);
    }

    #[test]
    fn pinned_ignores_hints_entirely() {
        let stream: Vec<(u64, u8)> = (0..4000u64)
            .map(|i| ((i * 13) % 37, (i % 4) as u8))
            .collect();
        let warm: Vec<(u64, u8)> = stream.iter().map(|&(pc, _)| (pc, SRRIP_CLASS)).collect();
        let config = BtbConfig::new(16, 4);
        assert_eq!(
            drive_hinted(Trrip::pinned_srrip(), &stream, config),
            drive_hinted(Srrip::new(), &warm, config),
        );
    }

    #[test]
    fn insertion_rrpv_follows_the_hint() {
        let mut btb = Btb::new(BtbConfig::new(4, 4), Trrip::new());
        btb.access(&ctx(0, 0)); // cold -> distant
        btb.access(&ctx(1, 1)); // warm -> long
        btb.access(&ctx(2, 2)); // hot -> near
        assert_eq!(btb.policy().rrpv(0, 0), RRPV_MAX);
        assert_eq!(btb.policy().rrpv(0, 1), 2);
        assert_eq!(btb.policy().rrpv(0, 2), 1);
        // Hints above the hot class clamp instead of indexing out of range.
        btb.access(&ctx(3, 7));
        assert_eq!(btb.policy().rrpv(0, 3), 1);
    }

    #[test]
    fn cold_hits_promote_reluctantly() {
        let mut btb = Btb::new(BtbConfig::new(4, 4), Trrip::new());
        btb.access(&ctx(0, 0));
        btb.access(&ctx(0, 0)); // a hit, but the branch is profiled cold
        assert_eq!(btb.policy().rrpv(0, 0), PROMOTE_RRPV[0]);
        btb.access(&ctx(1, 2));
        btb.access(&ctx(1, 2)); // hot hit promotes to near-immediate
        assert_eq!(btb.policy().rrpv(0, 1), 0);
    }

    #[test]
    fn hot_hints_survive_cold_scans_better_than_srrip() {
        // A recurring working set tagged hot, polluted by a one-shot scan
        // tagged cold. SRRIP cannot tell them apart at insertion; TRRIP
        // inserts the scan at the distant point and keeps the hot set.
        let mut stream = Vec::new();
        let mut scan_pc = 100u64;
        for _ in 0..60 {
            for &pc in &[1u64, 2, 3] {
                stream.push((pc, 2u8));
            }
            for _ in 0..4 {
                stream.push((scan_pc, 0u8));
                scan_pc += 1;
            }
        }
        let config = BtbConfig::new(4, 4);
        let (trrip_hits, _) = drive_hinted(Trrip::new(), &stream, config);
        let (srrip_hits, _) = drive_hinted(Srrip::new(), &stream, config);
        assert!(
            trrip_hits > srrip_hits,
            "TRRIP ({trrip_hits} hits) should beat SRRIP ({srrip_hits} hits) on a \
             hot working set under a cold scan"
        );
    }
}
