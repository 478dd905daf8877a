//! GHRP — Global History based Replacement Policy (Ajorpaz et al.,
//! ISCA'18), the only prior replacement policy designed for the BTB.
//!
//! GHRP predicts *dead* BTB entries (entries that will not hit again before
//! eviction) from the global control-flow history. Each access computes a
//! *signature* hashing the branch PC with a global history register of
//! recent branch addresses; three skewed prediction tables of saturating
//! counters vote on whether the entry is dead. Victim selection prefers
//! predicted-dead entries and falls back to LRU.
//!
//! Training follows the dead-block-predictor recipe: an entry evicted
//! without an intervening hit trains its last-access signature toward
//! *dead*; a hit trains the previous signature toward *live*.

use crate::policies::WayTable;
use crate::policy::{AccessContext, ReplacementPolicy, Victim};
use crate::{BtbEntry, Geometry};

/// Tuning knobs for [`Ghrp`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GhrpConfig {
    /// log2 of each prediction table's entry count.
    pub table_bits: u32,
    /// Counter saturation maximum (3-bit counters saturate at 7).
    pub counter_max: u8,
    /// Sum-of-three-counters threshold at or above which an entry is
    /// predicted dead.
    pub dead_threshold: u16,
    /// Number of recent branch PCs folded into the history register.
    pub history_length: u32,
}

impl Default for GhrpConfig {
    /// Parameters close to the ISCA'18 configuration: 3 × 4K-entry tables of
    /// 3-bit counters, threshold 12 of a possible 21.
    fn default() -> Self {
        Self {
            table_bits: 12,
            counter_max: 7,
            dead_threshold: 12,
            history_length: 4,
        }
    }
}

#[derive(Copy, Clone, Debug, Default)]
struct EntryMeta {
    /// Signature computed at this entry's most recent access.
    signature: u64,
    /// Whether the entry has hit since it was (re)filled.
    referenced: bool,
    /// LRU stamp.
    stamp: u64,
}

/// The GHRP policy.
#[derive(Clone, Debug)]
pub struct Ghrp {
    config: GhrpConfig,
    tables: [Vec<u8>; 3],
    history: u64,
    meta: WayTable<EntryMeta>,
    clock: u64,
}

/// GHRP with [`GhrpConfig::default`] (the paper's configuration).
impl Default for Ghrp {
    fn default() -> Self {
        Self::new(GhrpConfig::default())
    }
}

impl Ghrp {
    /// Creates a GHRP policy with the given configuration.
    pub fn new(config: GhrpConfig) -> Self {
        let size = 1usize << config.table_bits;
        Self {
            config,
            tables: [vec![0; size], vec![0; size], vec![0; size]],
            history: 0,
            meta: WayTable::default(),
            clock: 0,
        }
    }

    fn signature(&self, pc: u64) -> u64 {
        // Fold pc with the history register; the three tables then apply
        // independent avalanche mixes of this signature.
        pc ^ self.history.rotate_left(7)
    }

    fn indices(&self, signature: u64) -> [usize; 3] {
        let mask = (1u64 << self.config.table_bits) - 1;
        let mix = |x: u64, k: u64| -> u64 {
            let mut h = x.wrapping_mul(k);
            h ^= h >> 29;
            h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^ (h >> 32)
        };
        [
            (mix(signature, 0x9e37_79b9_7f4a_7c15) & mask) as usize,
            (mix(signature, 0xc2b2_ae3d_27d4_eb4f) & mask) as usize,
            (mix(signature, 0x1656_67b1_9e37_79f9) & mask) as usize,
        ]
    }

    /// Whether the predictor currently believes `signature` is dead.
    fn predict_dead(&self, signature: u64) -> bool {
        let sum: u16 = self
            .indices(signature)
            .iter()
            .zip(&self.tables)
            .map(|(&i, t)| u16::from(t[i]))
            .sum();
        sum >= self.config.dead_threshold
    }

    fn train(&mut self, signature: u64, dead: bool) {
        let idx = self.indices(signature);
        for (i, table) in idx.iter().zip(self.tables.iter_mut()) {
            let c = &mut table[*i];
            if dead {
                *c = (*c + 1).min(self.config.counter_max);
            } else {
                *c = c.saturating_sub(1);
            }
        }
    }

    fn push_history(&mut self, pc: u64) {
        let keep = u64::from(self.config.history_length);
        self.history = (self.history << 4) ^ (pc & 0xffff);
        // Bound the register width so old history ages out.
        self.history &= (1u64 << (keep * 4).min(63)) - 1;
    }

    fn touch(&mut self, set: usize, way: usize, signature: u64, referenced: bool) {
        self.clock += 1;
        let m = self.meta.get_mut(set, way);
        m.signature = signature;
        m.referenced = referenced;
        m.stamp = self.clock;
    }
}

impl ReplacementPolicy for Ghrp {
    fn name(&self) -> &'static str {
        "GHRP"
    }

    fn reset(&mut self, geometry: &Geometry) {
        for t in &mut self.tables {
            t.fill(0);
        }
        self.history = 0;
        self.meta = WayTable::sized(geometry);
        self.clock = 0;
    }

    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessContext) {
        // The fill-time signature proved live. Train only on the *first*
        // re-reference: hits outnumber evictions ~20:1 in BTB streams, and
        // training on every hit drives all counters to zero, degenerating
        // the policy into LRU.
        let m = *self.meta.get(set, way);
        if !m.referenced {
            self.train(m.signature, false);
        }
        let sig = self.signature(ctx.pc);
        self.touch(set, way, sig, true);
        self.push_history(ctx.pc);
    }

    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessContext) {
        let sig = self.signature(ctx.pc);
        self.touch(set, way, sig, false);
        self.push_history(ctx.pc);
    }

    fn choose_victim(&mut self, set: usize, resident: &[BtbEntry], _ctx: &AccessContext) -> Victim {
        // Prefer a predicted-dead entry; tie-break (and fall back) on LRU.
        // One allocation-free scan tracking the LRU way among the
        // predicted-dead and among all ways; strict `<` preserves the
        // first-minimum tie-break of the old `min_by_key` over a pool.
        let row = self.meta.row(set);
        let mut dead: Option<(u64, usize)> = None;
        let mut any: Option<(u64, usize)> = None;
        for (w, m) in row.iter().enumerate().take(resident.len()) {
            let stamp = m.stamp;
            if self.predict_dead(m.signature) && dead.is_none_or(|(s, _)| stamp < s) {
                dead = Some((stamp, w));
            }
            if any.is_none_or(|(s, _)| stamp < s) {
                any = Some((stamp, w));
            }
        }
        let victim = dead.or(any).map_or(0, |(_, w)| w);
        Victim::Evict(victim)
    }

    fn on_replace(&mut self, set: usize, way: usize, _evicted: &BtbEntry, ctx: &AccessContext) {
        // The evicted entry's last signature: dead if it never re-hit.
        let m = *self.meta.get(set, way);
        self.train(m.signature, !m.referenced);
        let sig = self.signature(ctx.pc);
        self.touch(set, way, sig, false);
        self.push_history(ctx.pc);
    }

    fn on_invalidate(&mut self, set: usize, way: usize, last: usize) {
        self.meta.swap_remove(set, way, last);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Btb, BtbConfig};
    use btb_trace::BranchKind;

    #[test]
    fn dead_signatures_become_predicted_dead() {
        let mut p = Ghrp::new(GhrpConfig {
            history_length: 0,
            ..GhrpConfig::default()
        });
        p.reset(&BtbConfig::new(4, 4).geometry());
        let sig = p.signature(0x1234);
        assert!(
            !p.predict_dead(sig),
            "fresh predictor must not predict dead"
        );
        for _ in 0..8 {
            p.train(sig, true);
        }
        assert!(p.predict_dead(sig));
        for _ in 0..8 {
            p.train(sig, false);
        }
        assert!(
            !p.predict_dead(sig),
            "live training must rehabilitate the signature"
        );
    }

    #[test]
    fn counters_saturate() {
        let mut p = Ghrp::default();
        p.reset(&BtbConfig::new(4, 4).geometry());
        for _ in 0..100 {
            p.train(42, true);
        }
        let idx = p.indices(42);
        for (i, t) in idx.iter().zip(&p.tables) {
            assert_eq!(t[*i], p.config.counter_max);
        }
        for _ in 0..100 {
            p.train(42, false);
        }
        let idx = p.indices(42);
        for (i, t) in idx.iter().zip(&p.tables) {
            assert_eq!(t[*i], 0);
        }
    }

    #[test]
    fn falls_back_to_lru_when_nothing_predicted_dead() {
        // Without training, GHRP behaves exactly like LRU.
        let mut ghrp_btb = Btb::new(BtbConfig::new(4, 4), Ghrp::default());
        let mut lru_btb = Btb::new(BtbConfig::new(4, 4), crate::policies::Lru::new());
        // Unique PCs only: no hits, so no live/dead training signal ever
        // flips a prediction (dead training only on replace of unreferenced
        // entries, which does happen — but predictions start at 0 and the
        // first few evictions can't reach the threshold).
        for pc in 0..6u64 {
            let a = ghrp_btb.access_taken(pc * 4, 0x1, BranchKind::UncondDirect, u64::MAX);
            let b = lru_btb.access_taken(pc * 4, 0x1, BranchKind::UncondDirect, u64::MAX);
            assert_eq!(a, b);
        }
        assert_eq!(ghrp_btb.stats().evictions, lru_btb.stats().evictions);
    }

    #[test]
    fn history_affects_signature() {
        let mut p = Ghrp::default();
        p.reset(&BtbConfig::new(4, 4).geometry());
        let s1 = p.signature(0x1000);
        p.push_history(0xabcd);
        let s2 = p.signature(0x1000);
        assert_ne!(
            s1, s2,
            "same pc under different history must produce different signatures"
        );
    }
}
