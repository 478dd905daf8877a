//! End-to-end pipeline: profile → hints → simulate, plus baseline runners.
//!
//! This is the library's high-level entry point and the engine behind the
//! figure harness: one [`Pipeline`] holds a frontend configuration and a
//! temperature configuration and can run any of the paper's policies over
//! any trace with consistent settings.
//!
//! Every run goes through [`Pipeline::simulate`], which replays a memoized
//! [`FrontendEvents`] stream: comparing policies on one trace runs TAGE,
//! the I-cache hierarchy, the IBTB and the RAS once, not once per policy.

use std::cell::RefCell;
use std::rc::Rc;

use btb_model::policies::Lru;
use btb_model::{Btb, BtbConfig, BtbInterface, ReplacementPolicy};
use btb_trace::{NextUseOracle, Trace};
use uarch_sim::{Frontend, FrontendConfig, FrontendEvents, PerfectOptions, SimReport};

use crate::hints::HintTable;
use crate::policy::ThermometerPolicy;
use crate::policy_kind::PolicyKind;
/// Re-exported from [`crate::policy_kind`], where the zoo table defines it.
pub use crate::policy_kind::POLICY_NAMES;
use crate::profile::OptProfile;
use crate::temperature::TemperatureConfig;

/// Pipeline settings.
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineConfig {
    /// Frontend/BTB/timing configuration (Table 1 by default).
    pub frontend: FrontendConfig,
    /// Temperature categories and thresholds (50%/80%, 3 categories, by
    /// default).
    pub temperature: TemperatureConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            frontend: FrontendConfig::table1(),
            temperature: TemperatureConfig::paper_default(),
        }
    }
}

/// The profile-guided workflow plus baseline runners.
///
/// A pipeline remembers the [`FrontendEvents`] of the last trace it
/// simulated, keyed by the trace's length and content fingerprint: the
/// stream depends on the records alone, and every configuration field
/// applies at replay. The memo holds one entry, and the old stream is
/// dropped before a new one is built. The memo makes a `Pipeline` `!Sync`:
/// parallel callers build one per task (it is configuration only, so that
/// costs nothing).
#[derive(Clone, Debug, Default)]
pub struct Pipeline {
    config: PipelineConfig,
    events: RefCell<Option<(StreamKey, Rc<FrontendEvents>)>>,
}

/// What identifies a trace to the event memo.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct StreamKey {
    len: usize,
    fingerprint: u64,
}

impl Pipeline {
    /// Creates a pipeline with the given settings.
    pub fn new(config: PipelineConfig) -> Self {
        Self {
            config,
            events: RefCell::default(),
        }
    }

    /// The settings in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Step 1–2: replay OPT over the profile trace.
    pub fn profile(&self, trace: &Trace) -> OptProfile {
        OptProfile::measure(trace, self.config.frontend.btb)
    }

    /// Steps 1–3: profile and classify into a hint table.
    pub fn profile_to_hints(&self, trace: &Trace) -> HintTable {
        HintTable::from_profile(&self.profile(trace), &self.config.temperature)
    }

    /// Step 4, or any baseline: simulates `trace` under `policy`, with
    /// `hints` attached when given, through [`Pipeline::simulate`]. The
    /// report is labelled with the policy's name.
    pub fn run<P: ReplacementPolicy>(
        &self,
        trace: &Trace,
        policy: P,
        hints: Option<&HintTable>,
    ) -> SimReport {
        self.run_frontend(
            &mut Frontend::new(self.config.frontend, policy),
            trace,
            hints,
        )
    }

    /// Thermometer with `hints`, also returning the replacement coverage
    /// counters (paper Fig. 15).
    pub fn run_thermometer_detailed(
        &self,
        trace: &Trace,
        hints: &HintTable,
    ) -> (SimReport, crate::policy::CoverageCounters) {
        let mut fe = Frontend::new(self.config.frontend, ThermometerPolicy::new());
        let report = self.run_frontend(&mut fe, trace, Some(hints));
        (report, fe.btb().policy().coverage())
    }

    /// Runs the policy named by one of [`POLICY_NAMES`] (the CLI
    /// vocabulary). Hint-consuming policies (`"thermometer"`, `"trrip"`)
    /// use `hints` when given and otherwise profile the simulated trace
    /// itself; every other policy ignores `hints`. Returns `None` for an
    /// unknown name.
    ///
    /// Dispatch goes through [`PolicyKind`], so the whole vocabulary shares
    /// one `Frontend<Btb<PolicyKind>>` instantiation (enum dispatch on the
    /// per-access path) instead of monomorphizing the simulation loop once
    /// per policy type.
    pub fn run_named(
        &self,
        trace: &Trace,
        name: &str,
        hints: Option<&HintTable>,
    ) -> Option<SimReport> {
        let policy = PolicyKind::by_name(name)?;
        let own_hints;
        let hints = match hints {
            _ if !policy.wants_hints() => None,
            Some(h) => Some(h),
            None => {
                own_hints = self.profile_to_hints(trace);
                Some(&own_hints)
            }
        };
        Some(self.run(trace, policy, hints))
    }

    /// The shared core of the policy runners: attaches `hints`, simulates,
    /// and labels the report with the policy's name.
    fn run_frontend<P: ReplacementPolicy>(
        &self,
        fe: &mut Frontend<Btb<P>>,
        trace: &Trace,
        hints: Option<&HintTable>,
    ) -> SimReport {
        if let Some(h) = hints {
            fe.set_hints(h.to_map());
        }
        let mut report = self.simulate(fe, trace);
        report.label = fe.btb().policy().name().into();
        report
    }

    /// A limit-study run (Fig. 2): LRU replacement with perfect structures.
    pub fn run_perfect(&self, trace: &Trace, perfect: PerfectOptions) -> SimReport {
        let mut config = self.config.frontend;
        config.perfect = perfect;
        let mut fe = Frontend::new(config, Lru::new());
        let mut report = self.simulate(&mut fe, trace);
        report.label = match (perfect.btb, perfect.branch_predictor, perfect.icache) {
            (true, false, false) => "Perfect-BTB".into(),
            (false, true, false) => "Perfect-BP".into(),
            (false, false, true) => "Perfect-I-Cache".into(),
            _ => "Perfect".into(),
        };
        report
    }

    /// Runs `fe` over `trace` — [`Frontend::run`], with the event stream
    /// taken from this pipeline's memo, or built into it when `trace` is
    /// not the trace the memo holds. `fe` may carry any BTB organization,
    /// prefetcher, hints or configuration. The next-use oracle is built for
    /// this run, and dropped after it, exactly when the BTB's policies
    /// [need it](BtbInterface::needs_oracle).
    pub fn simulate<B: BtbInterface>(&self, fe: &mut Frontend<B>, trace: &Trace) -> SimReport {
        let oracle = fe.btb().needs_oracle().then(|| NextUseOracle::build(trace));
        fe.run_events(trace, &self.events(trace), oracle.as_ref())
    }

    /// The memoized event stream of `trace`.
    fn events(&self, trace: &Trace) -> Rc<FrontendEvents> {
        let key = StreamKey {
            len: trace.len(),
            fingerprint: trace.fingerprint(),
        };
        let mut slot = self.events.borrow_mut();
        if let Some((held, events)) = slot.as_ref() {
            if *held == key {
                return Rc::clone(events);
            }
        }
        // Drop the old stream first: at most one is ever alive.
        *slot = None;
        let events = Rc::new(FrontendEvents::build(trace));
        *slot = Some((key, Rc::clone(&events)));
        events
    }

    /// Convenience: a pipeline identical to this one but with a different
    /// BTB geometry (for the iso-storage and sensitivity studies). It
    /// starts with an empty event memo.
    pub fn with_btb(&self, btb: BtbConfig) -> Pipeline {
        let mut config = self.config.clone();
        config.frontend.btb = btb;
        Pipeline::new(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btb_model::policies::BeladyOpt;
    use btb_workloads::{AppSpec, InputConfig};

    fn lru_report(p: &Pipeline, trace: &Trace) -> SimReport {
        p.run(trace, Lru::new(), None)
    }

    fn small_trace(input: u32) -> Trace {
        let spec = AppSpec {
            functions: 400,
            handlers: 60,
            ..AppSpec::by_name("kafka").unwrap()
        };
        spec.generate(InputConfig::input(input), 30_000)
    }

    #[test]
    fn end_to_end_thermometer_beats_lru_on_same_input() {
        let trace = small_trace(0);
        let p = Pipeline::new(PipelineConfig {
            frontend: FrontendConfig {
                btb: BtbConfig::new(1024, 4), // small BTB so the footprint thrashes it
                // at the paper's ~4x pressure ratio
                ..FrontendConfig::table1()
            },
            ..PipelineConfig::default()
        });
        let hints = p.profile_to_hints(&trace);
        let lru = lru_report(&p, &trace);
        let therm = p.run(&trace, ThermometerPolicy::new(), Some(&hints));
        let opt = p.run(&trace, BeladyOpt::new(), None);
        assert!(
            therm.btb.misses < lru.btb.misses,
            "thermometer misses {} vs lru {}",
            therm.btb.misses,
            lru.btb.misses
        );
        assert!(opt.btb.misses <= therm.btb.misses, "OPT is the floor");
        assert!(therm.ipc() > lru.ipc());
    }

    #[test]
    fn labels_are_set() {
        let trace = small_trace(0);
        let p = Pipeline::new(PipelineConfig::default());
        assert_eq!(lru_report(&p, &trace).label, "LRU");
        assert_eq!(p.run(&trace, BeladyOpt::new(), None).label, "OPT");
        let hints = p.profile_to_hints(&trace);
        let therm = p.run(&trace, ThermometerPolicy::new(), Some(&hints));
        assert_eq!(therm.label, "Thermometer");
        let perfect = p.run_perfect(
            &trace,
            uarch_sim::PerfectOptions {
                btb: true,
                ..Default::default()
            },
        );
        assert_eq!(perfect.label, "Perfect-BTB");
    }

    #[test]
    fn cross_input_hints_still_help() {
        let train = small_trace(0);
        let test = small_trace(1);
        let p = Pipeline::new(PipelineConfig {
            frontend: FrontendConfig {
                btb: BtbConfig::new(1024, 4),
                ..FrontendConfig::table1()
            },
            ..PipelineConfig::default()
        });
        let train_hints = p.profile_to_hints(&train);
        let same_hints = p.profile_to_hints(&test);
        // Cross-input agreement should be high (paper: ~81%).
        let agreement = train_hints.agreement_with(&same_hints);
        assert!(agreement > 0.5, "agreement {agreement}");
        let lru = lru_report(&p, &test);
        let cross = p.run(&test, ThermometerPolicy::new(), Some(&train_hints));
        assert!(
            cross.btb.misses <= lru.btb.misses,
            "cross-input thermometer {} vs lru {}",
            cross.btb.misses,
            lru.btb.misses
        );
    }

    #[test]
    fn run_named_covers_the_cli_vocabulary() {
        let trace = small_trace(0);
        let p = Pipeline::new(PipelineConfig::default());
        for name in POLICY_NAMES {
            let report = p.run_named(&trace, name, None).expect("known policy name");
            assert!(report.btb.accesses > 0, "{name} simulated nothing");
        }
        assert!(p.run_named(&trace, "nosuch", None).is_none());
        // Dispatch agrees with the direct runners.
        let named = p.run_named(&trace, "lru", None).unwrap();
        let direct = lru_report(&p, &trace);
        assert_eq!(named.btb.misses, direct.btb.misses);
        assert_eq!(named.label, direct.label);
    }

    /// A copy of `trace` with one record's `inst_gap` changed: same name,
    /// same length, different content.
    fn one_record_changed(trace: &Trace, index: usize) -> Trace {
        let mut records = trace.records().to_vec();
        records[index].inst_gap += 40;
        Trace::from_records(trace.name(), records)
    }

    /// What the memo holds, or `None`.
    fn held(p: &Pipeline) -> Option<StreamKey> {
        p.events.borrow().as_ref().map(|(key, _)| *key)
    }

    #[test]
    fn memo_tells_same_name_same_length_traces_apart() {
        let a = small_trace(1);
        let b = one_record_changed(&a, a.len() / 2);
        assert_eq!((a.name(), a.len()), (b.name(), b.len()));
        let p = Pipeline::new(PipelineConfig::default());
        let lru_a = lru_report(&p, &a);
        let lru_b = lru_report(&p, &b);
        assert_eq!(lru_b, lru_report(&Pipeline::default(), &b));
        assert_ne!(lru_a, lru_b, "the edited record must change the run");
        assert_eq!(held(&p).map(|k| k.fingerprint), Some(b.fingerprint()));
    }

    #[test]
    fn memo_never_crosses_pipelines_or_perfect_icache_runs() {
        let trace = small_trace(1);
        let p = Pipeline::new(PipelineConfig::default());
        let icache = PerfectOptions {
            icache: true,
            ..Default::default()
        };
        // A perfect-I-cache run after a normal one, and the reverse, on a
        // warm memo: both equal a cold pipeline's report.
        let lru = lru_report(&p, &trace);
        let perfect = p.run_perfect(&trace, icache);
        assert_eq!(perfect, Pipeline::default().run_perfect(&trace, icache));
        assert_eq!(perfect.l1i_misses, 0);
        assert_eq!(perfect.icache_stall_cycles, 0.0);
        assert_eq!(lru_report(&p, &trace), lru);
        let q = Pipeline::default();
        assert_eq!(q.run_perfect(&trace, icache), perfect);
        assert_eq!(lru_report(&q, &trace), lru);

        // with_btb builds a pipeline with its own, empty memo.
        let small = BtbConfig::new(1024, 4);
        let derived = p.with_btb(small);
        assert_eq!(held(&derived), None);
        let got = lru_report(&derived, &trace);
        assert_eq!(
            got,
            lru_report(&Pipeline::default().with_btb(small), &trace)
        );
        assert_ne!(got.btb.misses, lru.btb.misses, "geometry reached the BTB");

        // A pipeline configured with a perfect I-cache, switching traces.
        let mut config = PipelineConfig::default();
        config.frontend.perfect.icache = true;
        let r = Pipeline::new(config.clone());
        let other = small_trace(0);
        assert_eq!(
            lru_report(&r, &other),
            lru_report(&Pipeline::new(config.clone()), &other)
        );
        assert_eq!(
            lru_report(&r, &trace),
            lru_report(&Pipeline::new(config), &trace)
        );
    }

    #[test]
    fn memo_alternating_traces_keeps_exact_reports() {
        let a = small_trace(1);
        let b = small_trace(2);
        let p = Pipeline::new(PipelineConfig::default());
        let hints = p.profile_to_hints(&small_trace(0));
        let both = |t| {
            (
                lru_report(&p, t),
                p.run(t, ThermometerPolicy::new(), Some(&hints)),
            )
        };
        let first = both(&a);
        let weak_a = std::rc::Rc::downgrade(&p.events.borrow().as_ref().unwrap().1);
        let on_b = lru_report(&p, &b);
        assert!(
            weak_a.upgrade().is_none(),
            "A's stream outlived the switch to B"
        );
        let again = both(&a);
        assert_eq!(again, first);
        assert_eq!(on_b, lru_report(&Pipeline::default(), &b));
        assert_eq!(held(&p).map(|k| k.len), Some(a.len()));
    }

    #[test]
    fn with_btb_changes_geometry_only() {
        let p = Pipeline::new(PipelineConfig::default());
        let q = p.with_btb(BtbConfig::iso_storage_7979());
        assert_eq!(q.config().frontend.btb.entries(), 7979);
        assert_eq!(q.config().temperature, p.config().temperature);
    }
}
