//! DRRIP — Dynamic RRIP with set dueling (Jaleel et al., ISCA'10).
//!
//! SRRIP's static long-re-reference insertion loses to *bimodal* insertion
//! (BRRIP: insert at distant re-reference most of the time) on thrashing
//! working sets. DRRIP picks between them at run time by *set dueling*:
//! a few leader sets always run SRRIP, a few always run BRRIP, and a
//! policy-selection counter trained by leader-set misses steers the
//! follower sets. Included as an extension baseline: the paper evaluates
//! SRRIP; DRRIP is the natural next rung on the RRIP ladder.

use crate::policies::{rrip_victim, WayTable};
use crate::policy::{AccessContext, ReplacementPolicy, Victim};
use crate::{BtbEntry, Geometry};

const RRPV_MAX: u8 = 3;
const RRPV_LONG: u8 = 2;
/// BRRIP inserts at distant (RRPV_MAX) except once every `BRRIP_EPSILON`.
const BRRIP_EPSILON: u64 = 32;
/// Leader sets: every Nth set leads SRRIP, every Nth+offset leads BRRIP.
const LEADER_STRIDE: usize = 32;
/// 10-bit policy selector.
const PSEL_MAX: i32 = 512;

/// The DRRIP policy.
#[derive(Clone, Debug, Default)]
pub struct Drrip {
    rrpv: WayTable<u8>,
    /// Policy selector: positive favours BRRIP, negative favours SRRIP.
    psel: i32,
    brrip_tick: u64,
    /// When set, every set uses this flavour — set dueling disabled.
    pinned: Option<Flavour>,
}

/// Which insertion flavour a set uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Flavour {
    Srrip,
    Brrip,
}

impl Drrip {
    /// Creates a DRRIP policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// A DRRIP whose set dueling is pinned to the SRRIP flavour: every set
    /// inserts at `RRPV_LONG`, exactly like [`Srrip`](crate::policies::Srrip).
    /// Used by the differential tests — with the selector frozen, DRRIP must
    /// be *behaviourally identical* to SRRIP, which pins the shared RRPV
    /// machinery (victim scan, aging, hit promotion) against divergence.
    pub fn pinned_srrip() -> Self {
        Self {
            pinned: Some(Flavour::Srrip),
            ..Self::default()
        }
    }

    fn flavour(&self, set: usize) -> Flavour {
        if let Some(flavour) = self.pinned {
            return flavour;
        }
        match set % LEADER_STRIDE {
            0 => Flavour::Srrip,
            1 => Flavour::Brrip,
            _ => {
                if self.psel > 0 {
                    Flavour::Brrip
                } else {
                    Flavour::Srrip
                }
            }
        }
    }

    /// Leader-set misses train the selector toward the *other* policy.
    fn train_on_miss(&mut self, set: usize) {
        match set % LEADER_STRIDE {
            0 => self.psel = (self.psel + 1).min(PSEL_MAX), // SRRIP leader missed
            1 => self.psel = (self.psel - 1).max(-PSEL_MAX), // BRRIP leader missed
            _ => {}
        }
    }

    fn insertion_rrpv(&mut self, set: usize) -> u8 {
        match self.flavour(set) {
            Flavour::Srrip => RRPV_LONG,
            Flavour::Brrip => {
                self.brrip_tick += 1;
                if self.brrip_tick.is_multiple_of(BRRIP_EPSILON) {
                    RRPV_LONG
                } else {
                    RRPV_MAX
                }
            }
        }
    }

    /// The current policy-selector value (for tests and ablation reports).
    pub fn selector(&self) -> i32 {
        self.psel
    }
}

impl ReplacementPolicy for Drrip {
    fn name(&self) -> &'static str {
        "DRRIP"
    }

    fn reset(&mut self, geometry: &Geometry) {
        self.rrpv = WayTable::sized(geometry);
        self.psel = 0;
        self.brrip_tick = 0;
    }

    fn on_hit(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        *self.rrpv.get_mut(set, way) = 0;
    }

    fn on_fill(&mut self, set: usize, way: usize, _ctx: &AccessContext) {
        self.train_on_miss(set);
        let rrpv = self.insertion_rrpv(set);
        *self.rrpv.get_mut(set, way) = rrpv;
    }

    fn choose_victim(
        &mut self,
        set: usize,
        _resident: &[BtbEntry],
        _ctx: &AccessContext,
    ) -> Victim {
        Victim::Evict(rrip_victim(self.rrpv.row_mut(set), RRPV_MAX))
    }

    fn on_replace(&mut self, set: usize, way: usize, _evicted: &BtbEntry, _ctx: &AccessContext) {
        self.train_on_miss(set);
        let rrpv = self.insertion_rrpv(set);
        *self.rrpv.get_mut(set, way) = rrpv;
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

    fn drive<P: ReplacementPolicy>(policy: P, stream: &[u64], sets: usize) -> u64 {
        let mut btb = Btb::new(BtbConfig::new(sets * 4, 4), policy);
        for &pc in stream {
            btb.access_taken(pc, 0x1, BranchKind::UncondDirect, u64::MAX);
        }
        btb.stats().hits
    }

    #[test]
    fn selector_moves_under_thrash() {
        // A cyclic working set larger than capacity thrashes SRRIP leaders;
        // their misses push the selector toward BRRIP.
        let mut btb = Btb::new(BtbConfig::new(256, 4), Drrip::new());
        let stream: Vec<u64> = (0..40_000).map(|i| ((i % 512) * 4) as u64).collect();
        for &pc in &stream {
            btb.access_taken(pc, 0x1, BranchKind::UncondDirect, u64::MAX);
        }
        assert!(btb.policy().selector() != 0, "selector never trained");
    }

    #[test]
    fn drrip_survives_thrash_better_than_srrip() {
        // Cyclic loop of 2x capacity over every set: SRRIP (like LRU) gets
        // ~zero hits; BRRIP-style insertion retains a resident subset.
        let stream: Vec<u64> = (0..60_000).map(|i| ((i % 128) * 4) as u64).collect();
        let srrip = drive(Srrip::new(), &stream, 16); // 64 entries, loop 128
        let drrip = drive(Drrip::new(), &stream, 16);
        assert!(
            drrip > srrip,
            "DRRIP ({drrip}) should beat SRRIP ({srrip}) on a thrashing loop"
        );
    }

    #[test]
    fn behaves_on_friendly_streams() {
        // A fitting working set: everything hits after warmup under both.
        let stream: Vec<u64> = (0..10_000).map(|i| ((i % 32) * 4) as u64).collect();
        let srrip = drive(Srrip::new(), &stream, 16);
        let drrip = drive(Drrip::new(), &stream, 16);
        assert!(
            (srrip as i64 - drrip as i64).abs() < 200,
            "srrip {srrip} vs drrip {drrip}"
        );
    }
}
