//! The policy zoo, declared once, and enum dispatch over it.
//!
//! One `policy_zoo!` table lists every member as
//! `Variant(Payload) = "cli-name" => constructor,` and expands to the
//! [`PolicyKind`] enum, the [`POLICY_NAMES`] vocabulary, the
//! [`PolicyKind::by_name`] builder and the [`ReplacementPolicy`] dispatch.
//! The compiler therefore holds those four together: a member cannot be
//! named without a variant, built without a name, or left out of dispatch.
//! simlint's R04/R05 guard the two legs the compiler cannot see, the
//! differential tests and the figure suite.
//!
//! [`Pipeline::run_named`](crate::pipeline::Pipeline::run_named) runs every
//! name through one `Frontend<Btb<PolicyKind>>` instantiation: one enum
//! whose variants hold the concrete policies, with each
//! [`ReplacementPolicy`] method a `match` that the optimizer turns into a
//! jump table. Unlike `Box<dyn ReplacementPolicy>`, the policy state lives
//! inline (no pointer chase on the hot path) and the per-variant bodies
//! stay inlinable. Code that names a concrete policy type passes it to
//! [`Pipeline::run`](crate::pipeline::Pipeline::run) instead, which
//! monomorphizes for that type.

use btb_model::policies::{
    BeladyOpt, Drrip, Fifo, Ghrp, Hawkeye, Lru, PseudoLru, Random, Ship, Srrip, Trrip,
};
use btb_model::{AccessContext, BtbEntry, Geometry, ReplacementPolicy, Victim};

use crate::policy::ThermometerPolicy;

/// Expands the zoo table into the enum, [`POLICY_NAMES`], `by_name` and
/// the [`ReplacementPolicy`] dispatch.
macro_rules! policy_zoo {
    (
        $(#[$meta:meta])*
        pub enum $Kind:ident {
            $( $(#[$vmeta:meta])* $V:ident($P:ty) = $name:literal => $ctor:expr, )*
        }
    ) => {
        $(#[$meta])*
        pub enum $Kind {
            $( $(#[$vmeta])* $V($P), )*
        }

        /// Policy names accepted by
        /// [`Pipeline::run_named`](crate::pipeline::Pipeline::run_named), in
        /// canonical order: the `btbsim --policy` vocabulary, generated from
        /// the [`PolicyKind`] table.
        pub const POLICY_NAMES: [&str; [$($name),*].len()] = [$($name),*];

        impl $Kind {
            /// Builds the policy for one of the canonical CLI names (the
            /// [`POLICY_NAMES`] vocabulary), with the constructor its table
            /// row gives. Returns `None` for an unknown name.
            pub fn by_name(name: &str) -> Option<Self> {
                Some(match name {
                    $( $name => Self::$V($ctor), )*
                    _ => return None,
                })
            }
        }

        impl ReplacementPolicy for $Kind {
            fn name(&self) -> &'static str {
                match self { $( Self::$V(p) => p.name(), )* }
            }

            fn reset(&mut self, geometry: &Geometry) {
                match self { $( Self::$V(p) => p.reset(geometry), )* }
            }

            fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessContext) {
                match self { $( Self::$V(p) => p.on_hit(set, way, ctx), )* }
            }

            fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessContext) {
                match self { $( Self::$V(p) => p.on_fill(set, way, ctx), )* }
            }

            fn choose_victim(
                &mut self,
                set: usize,
                resident: &[BtbEntry],
                ctx: &AccessContext,
            ) -> Victim {
                match self { $( Self::$V(p) => p.choose_victim(set, resident, ctx), )* }
            }

            fn on_replace(
                &mut self,
                set: usize,
                way: usize,
                evicted: &BtbEntry,
                ctx: &AccessContext,
            ) {
                match self { $( Self::$V(p) => p.on_replace(set, way, evicted, ctx), )* }
            }

            fn on_invalidate(&mut self, set: usize, way: usize, last: usize) {
                match self { $( Self::$V(p) => p.on_invalidate(set, way, last), )* }
            }

            fn needs_oracle(&self) -> bool {
                match self { $( Self::$V(p) => p.needs_oracle(), )* }
            }
        }
    };
}

policy_zoo! {
    /// Every policy reachable through [`POLICY_NAMES`], as one inline-stored
    /// enum.
    #[derive(Clone, Debug)]
    pub enum PolicyKind {
        /// Classic least-recently-used (the baseline).
        Lru(Lru) = "lru" => Lru::new(),
        /// Insertion-order eviction.
        Fifo(Fifo) = "fifo" => Fifo::new(),
        /// Tree pseudo-LRU.
        Plru(PseudoLru) = "plru" => PseudoLru::new(),
        /// Uniform-random victim (seeded).
        Random(Random) = "random" => Random::with_seed(0x5eed),
        /// Static RRIP.
        Srrip(Srrip) = "srrip" => Srrip::new(),
        /// Dynamic RRIP with set dueling.
        Drrip(Drrip) = "drrip" => Drrip::new(),
        /// Temperature-hinted RRIP (needs hints to help).
        Trrip(Trrip) = "trrip" => Trrip::new(),
        /// Signature-based hit prediction.
        Ship(Ship) = "ship" => Ship::new(),
        /// Global-history reference prediction.
        Ghrp(Ghrp) = "ghrp" => Ghrp::default(),
        /// OPT-trained friendliness prediction.
        Hawkeye(Hawkeye) = "hawkeye" => Hawkeye::default(),
        /// Belady's offline optimum (needs the next-use oracle).
        Opt(BeladyOpt) = "opt" => BeladyOpt::new(),
        /// The paper's profile-guided policy (needs hints to help).
        Thermometer(ThermometerPolicy) = "thermometer" => ThermometerPolicy::new(),
    }
}

impl PolicyKind {
    /// Whether this policy consumes temperature hints — the pipeline only
    /// profiles a training trace for policies that will read the result.
    pub fn wants_hints(&self) -> bool {
        matches!(self, Self::Thermometer(_) | Self::Trrip(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The labels are written out by hand, apart from the table, so a row
    /// whose constructor builds the wrong policy shows up here.
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
