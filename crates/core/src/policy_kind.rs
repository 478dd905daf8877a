//! Enum dispatch over the CLI policy vocabulary.
//!
//! [`Pipeline::run_named`](crate::pipeline::Pipeline::run_named) runs every
//! [`POLICY_NAMES`](crate::pipeline::POLICY_NAMES) entry through one
//! `Frontend<Btb<PolicyKind>>` instantiation: one enum whose variants hold
//! the concrete policies, with each [`ReplacementPolicy`] method a `match`
//! that the optimizer turns into a jump table. Unlike
//! `Box<dyn ReplacementPolicy>`, the policy state lives inline (no pointer
//! chase on the hot path) and the per-variant bodies stay inlinable. Code
//! that names a concrete policy type passes it to
//! [`Pipeline::run`](crate::pipeline::Pipeline::run) instead, which
//! monomorphizes for that type.

use btb_model::policies::{
    BeladyOpt, Drrip, Fifo, Ghrp, Hawkeye, Lru, PseudoLru, Random, Ship, Srrip, Trrip,
};
use btb_model::{AccessContext, BtbEntry, Geometry, ReplacementPolicy, Victim};

use crate::policy::ThermometerPolicy;

/// Every policy reachable through [`POLICY_NAMES`](crate::pipeline::POLICY_NAMES),
/// as one inline-stored enum.
#[derive(Clone, Debug)]
pub enum PolicyKind {
    /// Classic least-recently-used (the baseline).
    Lru(Lru),
    /// Insertion-order eviction.
    Fifo(Fifo),
    /// Tree pseudo-LRU.
    Plru(PseudoLru),
    /// Uniform-random victim (seeded).
    Random(Random),
    /// Static RRIP.
    Srrip(Srrip),
    /// Dynamic RRIP with set dueling.
    Drrip(Drrip),
    /// Temperature-hinted RRIP (needs hints to help).
    Trrip(Trrip),
    /// Signature-based hit prediction.
    Ship(Ship),
    /// Global-history reference prediction.
    Ghrp(Ghrp),
    /// OPT-trained friendliness prediction.
    Hawkeye(Hawkeye),
    /// Belady's offline optimum (needs the next-use oracle).
    Opt(BeladyOpt),
    /// The paper's profile-guided policy (needs hints to help).
    Thermometer(ThermometerPolicy),
}

/// Dispatches `$self` to the variant's policy value.
macro_rules! each_kind {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            PolicyKind::Lru($p) => $body,
            PolicyKind::Fifo($p) => $body,
            PolicyKind::Plru($p) => $body,
            PolicyKind::Random($p) => $body,
            PolicyKind::Srrip($p) => $body,
            PolicyKind::Drrip($p) => $body,
            PolicyKind::Trrip($p) => $body,
            PolicyKind::Ship($p) => $body,
            PolicyKind::Ghrp($p) => $body,
            PolicyKind::Hawkeye($p) => $body,
            PolicyKind::Opt($p) => $body,
            PolicyKind::Thermometer($p) => $body,
        }
    };
}

impl PolicyKind {
    /// Builds the policy for one of the canonical CLI names (the
    /// [`POLICY_NAMES`](crate::pipeline::POLICY_NAMES) vocabulary), with
    /// the same constructor arguments `run_named` has always used.
    /// Returns `None` for an unknown name.
    pub fn by_name(name: &str) -> Option<Self> {
        Some(match name {
            "lru" => Self::Lru(Lru::new()),
            "fifo" => Self::Fifo(Fifo::new()),
            "plru" => Self::Plru(PseudoLru::new()),
            "random" => Self::Random(Random::with_seed(0x5eed)),
            "srrip" => Self::Srrip(Srrip::new()),
            "drrip" => Self::Drrip(Drrip::new()),
            "trrip" => Self::Trrip(Trrip::new()),
            "ship" => Self::Ship(Ship::new()),
            "ghrp" => Self::Ghrp(Ghrp::default()),
            "hawkeye" => Self::Hawkeye(Hawkeye::default()),
            "opt" => Self::Opt(BeladyOpt::new()),
            "thermometer" => Self::Thermometer(ThermometerPolicy::new()),
            _ => return None,
        })
    }

    /// Whether this policy consumes temperature hints — the pipeline only
    /// profiles a training trace for policies that will read the result.
    pub fn wants_hints(&self) -> bool {
        matches!(self, Self::Thermometer(_) | Self::Trrip(_))
    }
}

impl ReplacementPolicy for PolicyKind {
    fn name(&self) -> &'static str {
        each_kind!(self, p => p.name())
    }

    fn reset(&mut self, geometry: &Geometry) {
        each_kind!(self, p => p.reset(geometry));
    }

    fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessContext) {
        each_kind!(self, p => p.on_hit(set, way, ctx));
    }

    fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessContext) {
        each_kind!(self, p => p.on_fill(set, way, ctx));
    }

    fn choose_victim(&mut self, set: usize, resident: &[BtbEntry], ctx: &AccessContext) -> Victim {
        each_kind!(self, p => p.choose_victim(set, resident, ctx))
    }

    fn on_replace(&mut self, set: usize, way: usize, evicted: &BtbEntry, ctx: &AccessContext) {
        each_kind!(self, p => p.on_replace(set, way, evicted, ctx));
    }

    fn on_invalidate(&mut self, set: usize, way: usize, last: usize) {
        each_kind!(self, p => p.on_invalidate(set, way, last));
    }

    fn needs_oracle(&self) -> bool {
        each_kind!(self, p => p.needs_oracle())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::POLICY_NAMES;

    /// Runtime companion to simlint's registry rules: R01/R02 already
    /// pin name-list ↔ builder ↔ variants statically; this additionally
    /// checks each constructed policy reports its display label.
    #[test]
    fn covers_the_cli_vocabulary_with_matching_labels() {
        let labels = [
            ("lru", "LRU"),
            ("fifo", "FIFO"),
            ("plru", "PLRU"),
            ("random", "Random"),
            ("srrip", "SRRIP"),
            ("drrip", "DRRIP"),
            ("trrip", "TRRIP"),
            ("ship", "SHiP"),
            ("ghrp", "GHRP"),
            ("hawkeye", "Hawkeye"),
            ("opt", "OPT"),
            ("thermometer", "Thermometer"),
        ];
        assert_eq!(labels.len(), POLICY_NAMES.len());
        for (name, label) in labels {
            let kind = PolicyKind::by_name(name).expect("known name");
            assert_eq!(kind.name(), label);
            assert_eq!(kind.needs_oracle(), name == "opt", "{name}");
        }
        assert!(PolicyKind::by_name("nosuch").is_none());
    }

    #[test]
    fn enum_dispatch_matches_direct_policy() {
        use btb_model::{Btb, BtbConfig};
        use btb_trace::BranchKind;

        let mut direct = Btb::new(BtbConfig::new(16, 4), Lru::new());
        let mut wrapped = Btb::new(
            BtbConfig::new(16, 4),
            PolicyKind::by_name("lru").expect("lru is known"),
        );
        for i in 0..500u64 {
            let pc = (i * 13) % 97;
            let a = direct.access_taken(pc, pc + 1, BranchKind::UncondDirect, u64::MAX);
            let b = wrapped.access_taken(pc, pc + 1, BranchKind::UncondDirect, u64::MAX);
            assert_eq!(a, b, "diverged at access {i}");
        }
        assert_eq!(direct.stats(), wrapped.stats());
    }
}
