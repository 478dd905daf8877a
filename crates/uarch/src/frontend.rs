//! The decoupled-frontend (FDIP) simulation, in two stages.
//!
//! One pass over a branch trace models, per record:
//!
//! 1. **Fetch bandwidth** — `inst_gap + 1` instructions at `fetch_width`
//!    per cycle.
//! 2. **I-cache behaviour** — every 64B block the record's instruction
//!    range touches is fetched through the hierarchy; the *run-ahead lead*
//!    (how far the BPU+prefetcher run ahead of fetch, bounded by the FTQ)
//!    hides miss latency. Frontend squashes collapse the lead, exposing
//!    subsequent misses — the coupling that makes BTB misses so expensive
//!    in FDIP frontends (paper §2.2).
//! 3. **Branch prediction events** — TAGE direction prediction, BTB lookup
//!    for taken branches, IBTB for indirect targets, RAS for returns. One
//!    penalty is charged per record (the most severe event: direction
//!    flush > target flush > BTB-miss re-steer), and any squash zeroes the
//!    lead.
//!
//! TAGE, the I-cache hierarchy, the IBTB and the RAS never read BTB state:
//! a re-steer collapses the prefetch shield but does not change what any
//! of them hold. So the simulation splits into two stages that together
//! give the same report, bit for bit, as one fused loop would:
//!
//! * [`FrontendEvents::build`] runs those four structures once per trace
//!   and records, per record, whether the direction and the indirect or
//!   return target were predicted wrong, and the hit level of each block
//!   fetch that missed L1I.
//! * [`Frontend::run_events`] replays that stream under one BTB
//!   organization: the BTB access, the BTB prefetcher, the hints, and the
//!   `lead`/cycle accounting, in the fused loop's order, so every `f64`
//!   sum is bit-identical. `lead` is the only coupling between the BTB and
//!   the I-cache stalls.
//!
//! Comparing many BTB policies on one trace builds the stream once and
//! replays it per policy (`thermometer::Pipeline` memoizes it).
//! [`Frontend::run`] is build + replay. The fused loop survives as
//! [`crate::reference::FusedFrontend`], the differential-test oracle.
//!
//! The per-branch Thermometer hint (if a hint table is installed) rides
//! into the BTB through [`AccessContext::hint`].

use std::fmt;

use sim_support::DetHashMap;

use btb_model::{
    AccessContext, AccessOutcome, Btb, BtbConfig, BtbEntry, BtbInterface, BtbStats,
    ReplacementPolicy,
};
use btb_trace::{next_use::NEVER, BranchKind, NextUseOracle, Trace};

use crate::cache::{HitLevel, InstrHierarchy, BLOCK_BYTES};
use crate::ibtb::Ibtb;
use crate::prefetch::Prefetcher;
use crate::ras::Ras;
use crate::report::SimReport;
use crate::tage::Tage;
use crate::timing::TimingConfig;

/// Limit-study switches (paper Fig. 2).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PerfectOptions {
    /// Every BTB access hits (no re-steers; replacement is bypassed).
    pub btb: bool,
    /// Every conditional direction is predicted correctly.
    pub branch_predictor: bool,
    /// Every instruction fetch hits L1I.
    pub icache: bool,
}

/// Full frontend configuration.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FrontendConfig {
    /// Timing parameters.
    pub timing: TimingConfig,
    /// BTB geometry.
    pub btb: BtbConfig,
    /// Limit-study switches.
    pub perfect: PerfectOptions,
}

impl FrontendConfig {
    /// The paper's Table 1 configuration with no perfect structures.
    pub fn table1() -> Self {
        Self {
            timing: TimingConfig::table1(),
            btb: BtbConfig::table1(),
            perfect: PerfectOptions::default(),
        }
    }
}

impl Default for FrontendConfig {
    fn default() -> Self {
        Self::table1()
    }
}

/// Record flag: TAGE mispredicted this conditional's direction.
const DIRECTION_WRONG: u8 = 1;
/// Record flag: the IBTB (indirect) or RAS (return) target was wrong.
const TARGET_WRONG: u8 = 2;
/// Record flag: at least one of the record's block fetches missed L1I.
const FETCH_MISSES: u8 = 4;

/// Fetch-stream symbol closing one record's list of L1I misses.
const END_OF_RECORD: u8 = 0;

/// The policy-independent half of a frontend pass over one trace: the
/// outcomes of TAGE, the I-cache hierarchy, the IBTB and the RAS, which no
/// BTB organization, BTB prefetcher, hint table, timing parameter or
/// perfect-structure switch can change.
///
/// The encoding is compact because a policy comparison keeps one stream
/// alive next to its trace: one flag byte per record, plus 2-bit symbols
/// packed four to a byte for the records whose flags say they missed L1I
/// — the hit level of each such fetch in walk order (1 = L2, 2 = LLC,
/// 3 = memory), then a 0. Fetches that hit L1I cost nothing and are not
/// stored.
pub struct FrontendEvents {
    flags: Vec<u8>,
    fetches: Vec<u8>,
    l1i_misses: u64,
    l2i_misses: u64,
    llc_misses: u64,
}

impl FrontendEvents {
    /// Runs TAGE, the Table 1 I-cache hierarchy, the IBTB and the RAS over
    /// `trace` once, from cold, and records their outcomes.
    pub fn build(trace: &Trace) -> Self {
        let mut tage = Tage::new();
        let mut ras = Ras::table1();
        let mut ibtb = Ibtb::table1();
        let mut icache = InstrHierarchy::table1();
        let mut flags = Vec::with_capacity(trace.len());
        let mut fetches = SymbolWriter::default();

        for r in trace.records() {
            let mut f = 0;
            let start = r.pc.saturating_sub(u64::from(r.inst_gap) * 4);
            let last_block = r.pc / BLOCK_BYTES;
            let mut block = start / BLOCK_BYTES;
            while block <= last_block {
                let level = icache.fetch_block(block);
                block += 1;
                let symbol = match level {
                    HitLevel::L1 => continue,
                    HitLevel::L2 => 1,
                    HitLevel::Llc => 2,
                    HitLevel::Memory => 3,
                };
                fetches.push(symbol);
                f |= FETCH_MISSES;
            }
            if f & FETCH_MISSES != 0 {
                fetches.push(END_OF_RECORD);
            }

            if r.kind.is_conditional() {
                let pred = tage.predict(r.pc);
                if pred.taken != r.taken {
                    f |= DIRECTION_WRONG;
                }
                tage.update(r.pc, r.taken, pred);
            } else {
                tage.note_taken_transfer(r.pc);
            }

            if r.taken {
                let target_wrong = match r.kind {
                    BranchKind::IndirectJump | BranchKind::IndirectCall => {
                        let wrong = ibtb.predict(r.pc) != Some(r.target);
                        ibtb.update(r.pc, r.target);
                        wrong
                    }
                    BranchKind::Return => ras.pop() != Some(r.target),
                    _ => false,
                };
                if target_wrong {
                    f |= TARGET_WRONG;
                }
                if r.kind.is_call() {
                    ras.push(r.pc + 4);
                }
            }
            flags.push(f);
        }

        let mut fetches = fetches.bytes;
        fetches.shrink_to_fit();
        Self {
            flags,
            fetches,
            l1i_misses: icache.l1i.misses,
            l2i_misses: icache.l2.misses,
            llc_misses: icache.llc.misses,
        }
    }
}

impl fmt::Debug for FrontendEvents {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrontendEvents")
            .field("records", &self.flags.len())
            .field("fetch_bytes", &self.fetches.len())
            .field("l1i_misses", &self.l1i_misses)
            .field("l2i_misses", &self.l2i_misses)
            .field("llc_misses", &self.llc_misses)
            .finish()
    }
}

/// Appends 2-bit symbols, four to a byte, low bits first.
#[derive(Default)]
struct SymbolWriter {
    bytes: Vec<u8>,
    len: usize,
}

impl SymbolWriter {
    fn push(&mut self, symbol: u8) {
        let shift = (self.len % 4) * 2;
        if shift == 0 {
            self.bytes.push(symbol);
        } else if let Some(last) = self.bytes.last_mut() {
            *last |= symbol << shift;
        }
        self.len += 1;
    }
}

/// Reads back what [`SymbolWriter`] wrote; past the end it reads
/// [`END_OF_RECORD`].
struct SymbolReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl SymbolReader<'_> {
    fn next(&mut self) -> u8 {
        let byte = self
            .bytes
            .get(self.pos / 4)
            .copied()
            .unwrap_or(END_OF_RECORD);
        let symbol = (byte >> ((self.pos % 4) * 2)) & 3;
        self.pos += 1;
        symbol
    }
}

/// The trace-driven frontend simulator, generic over the BTB organization.
pub struct Frontend<B> {
    config: FrontendConfig,
    btb: B,
    prefetcher: Option<Box<dyn Prefetcher>>,
    /// Looked up per branch record (hot); never iterated, so the seeded
    /// O(1) map is safe.
    hints: Option<DetHashMap<u64, u8>>,
}

impl<P: ReplacementPolicy> Frontend<Btb<P>> {
    /// Creates a frontend around a plain BTB running `policy`.
    pub fn new(config: FrontendConfig, policy: P) -> Self {
        let btb = Btb::new(config.btb, policy);
        Self::with_btb(config, btb)
    }
}

impl<B: BtbInterface> Frontend<B> {
    /// Creates a frontend around an arbitrary BTB organization (e.g.
    /// Shotgun's partitioned BTB).
    pub fn with_btb(config: FrontendConfig, btb: B) -> Self {
        config
            .timing
            .validate()
            .expect("invalid timing configuration");
        Self {
            config,
            btb,
            prefetcher: None,
            hints: None,
        }
    }

    /// Installs a BTB prefetcher (Confluence/Twig style).
    pub fn set_prefetcher(&mut self, prefetcher: Box<dyn Prefetcher>) {
        self.prefetcher = Some(prefetcher);
    }

    /// Installs a Thermometer hint table (branch PC → temperature category,
    /// 0 = coldest).
    pub fn set_hints(&mut self, hints: DetHashMap<u64, u8>) {
        self.hints = Some(hints);
    }

    /// The BTB, for post-run inspection.
    pub fn btb(&self) -> &B {
        &self.btb
    }

    /// Simulates the trace once and reports: [`FrontendEvents::build`]
    /// followed by [`Frontend::run_events`]. For Belady's OPT the caller
    /// must pass the trace's [`NextUseOracle`]; online policies pass `None`.
    ///
    /// A `Frontend` is single-shot: construct a fresh one per run (learned
    /// BTB and prefetcher state would otherwise leak across runs).
    pub fn run(&mut self, trace: &Trace, oracle: Option<&NextUseOracle>) -> SimReport {
        self.run_events(trace, &FrontendEvents::build(trace), oracle)
    }

    /// Simulates the trace once over `events`, the stream
    /// [`FrontendEvents::build`] made from this same trace, and reports.
    /// Many frontends can replay one stream.
    ///
    /// # Panics
    ///
    /// Panics if `events` does not cover exactly `trace.len()` records.
    pub fn run_events(
        &mut self,
        trace: &Trace,
        events: &FrontendEvents,
        oracle: Option<&NextUseOracle>,
    ) -> SimReport {
        assert_eq!(
            events.flags.len(),
            trace.len(),
            "frontend event stream built from a different trace"
        );
        let t = self.config.timing;
        let perfect = self.config.perfect;
        let max_lead = t.max_lead();
        let mut report = SimReport {
            workload: trace.name().to_owned(),
            ..SimReport::default()
        };

        let mut cycles = 0.0f64;
        let mut lead = 0.0f64; // run-ahead shield, cycles
        let mut access_index: u64 = 0; // position in the taken stream
        let mut fetches = SymbolReader {
            bytes: &events.fetches,
            pos: 0,
        };

        // Division by a power of two is exact, and so is multiplying by its
        // (exactly representable) reciprocal — bit-identical results without
        // a per-record divide. Non-power-of-two widths keep the division.
        let fetch_width = f64::from(t.fetch_width);
        let inv_fetch_width = (t.fetch_width.is_power_of_two()).then(|| 1.0 / fetch_width);
        // Per fetch symbol (1 = L2, 2 = LLC, 3 = memory): the latency, and
        // what a miss costs while the shield is up (latency / mlp).
        let mlp = f64::from(t.prefetch_mlp);
        let miss_cost = [t.l2_latency, t.llc_latency, t.memory_latency]
            .map(|latency| (latency, f64::from(latency), f64::from(latency) / mlp));

        for (r, &flags) in trace.records().iter().zip(&events.flags) {
            let insts = u64::from(r.inst_gap) + 1;
            report.instructions += insts;
            let base = match inv_fetch_width {
                Some(inv) => insts as f64 * inv,
                None => insts as f64 / fetch_width,
            };
            cycles += base;
            // The BPU produces one record per bpu_cycles_per_branch while
            // fetch consumes it in `base` cycles: lead grows on big blocks,
            // shrinks on branchy code.
            lead = (lead + base - t.bpu_cycles_per_branch).clamp(0.0, max_lead);

            // --- I-cache: the record's L1I misses, in walk order. A perfect
            // I-cache never reads the fetch stream at all. ---
            if flags & FETCH_MISSES != 0 && !perfect.icache {
                loop {
                    let (latency, full, overlapped) = match fetches.next() {
                        END_OF_RECORD => break,
                        symbol => miss_cost[usize::from(symbol) - 1],
                    };
                    if latency > 0 {
                        // With the shield up, the FTQ's prefetches overlap:
                        // a miss stream costs latency/mlp per block. With
                        // the shield down (right after a squash) the first
                        // block is a serialized demand miss.
                        let effective = if lead > 0.0 { overlapped } else { full };
                        let stall = (effective - lead).max(0.0);
                        cycles += stall;
                        report.icache_stall_cycles += stall;
                        // Fetch stalled while the BPU kept running: the
                        // shield regrows by the stall we just served.
                        lead = (lead + stall).min(max_lead);
                    }
                }
            }

            // --- Branch prediction events ---
            let mut direction_flush = false;
            if r.kind.is_conditional() {
                report.cond_branches += 1;
                if flags & DIRECTION_WRONG != 0 && !perfect.branch_predictor {
                    report.cond_mispredicts += 1;
                    direction_flush = true;
                }
            }

            let mut target_flush = false;
            let mut btb_missed = false;
            if r.taken {
                let outcome = if perfect.btb {
                    report.btb.accesses += 1;
                    report.btb.hits += 1;
                    AccessOutcome::Hit {
                        target_matched: true,
                    }
                } else {
                    let hint = self
                        .hints
                        .as_ref()
                        .and_then(|h| h.get(&r.pc))
                        .copied()
                        .unwrap_or(0);
                    let next_use = oracle.map_or(NEVER, |o| o.next_use(access_index as usize));
                    let ctx = AccessContext {
                        pc: r.pc,
                        target: r.target,
                        kind: r.kind,
                        hint,
                        next_use,
                        access_index,
                    };
                    let mut outcome = self.btb.access(&ctx);
                    if let Some(pf) = self.prefetcher.as_mut() {
                        // A miss served by the prefetcher's staging buffer
                        // costs nothing: the target was prefetched and is
                        // ready at lookup time.
                        if outcome.is_miss() && pf.buffer_hit(r.pc) {
                            report.btb_buffer_hits += 1;
                            outcome = AccessOutcome::Hit {
                                target_matched: true,
                            };
                        }
                        // Prefetched entries carry their true instruction
                        // hint (the hint lives in the branch instruction
                        // bytes, so any fill path sees it).
                        let mut hinted = HintedBtb {
                            btb: &mut self.btb,
                            hints: self.hints.as_ref(),
                        };
                        pf.on_branch(r, outcome, &mut hinted);
                    }
                    outcome
                };
                access_index += 1;
                btb_missed = outcome.is_miss();

                // Target prediction (only meaningful on a BTB hit: without
                // an entry the frontend did not even know a branch was
                // here, which the BTB-miss penalty already covers).
                match r.kind {
                    BranchKind::IndirectJump | BranchKind::IndirectCall => {
                        report.indirect_branches += 1;
                        if !btb_missed && flags & TARGET_WRONG != 0 {
                            report.indirect_mispredicts += 1;
                            target_flush = true;
                        }
                    }
                    BranchKind::Return => {
                        report.returns += 1;
                        if !btb_missed && flags & TARGET_WRONG != 0 {
                            report.return_mispredicts += 1;
                            target_flush = true;
                        }
                    }
                    _ => {
                        if let AccessOutcome::Hit {
                            target_matched: false,
                        } = outcome
                        {
                            // Stale direct-branch entry (aliasing): treated
                            // as a target flush.
                            target_flush = true;
                        }
                    }
                }
            }

            // --- Charge the most severe event once; any squash kills the
            // run-ahead shield. ---
            if direction_flush {
                cycles += f64::from(t.cond_mispredict_penalty);
                report.direction_stall_cycles += f64::from(t.cond_mispredict_penalty);
                lead = 0.0;
            } else if target_flush {
                cycles += f64::from(t.target_mispredict_penalty);
                report.target_stall_cycles += f64::from(t.target_mispredict_penalty);
                lead = 0.0;
            } else if btb_missed {
                cycles += f64::from(t.btb_miss_penalty);
                report.btb_stall_cycles += f64::from(t.btb_miss_penalty);
                lead = 0.0;
            }
        }

        report.cycles = cycles;
        if !perfect.btb {
            report.btb = self.btb.stats();
        }
        if !perfect.icache {
            report.l1i_misses = events.l1i_misses;
            report.l2i_misses = events.l2i_misses;
            report.llc_misses = events.llc_misses;
        }
        report
    }
}

/// Adapter that injects instruction hints into prefetch fills, so a BTB
/// prefetcher installs entries with their true temperature rather than the
/// coldest category (which Thermometer would otherwise evict or reject
/// immediately).
pub(crate) struct HintedBtb<'a, B> {
    pub(crate) btb: &'a mut B,
    pub(crate) hints: Option<&'a DetHashMap<u64, u8>>,
}

impl<B: BtbInterface> BtbInterface for HintedBtb<'_, B> {
    fn access(&mut self, ctx: &AccessContext) -> AccessOutcome {
        self.btb.access(ctx)
    }

    fn probe(&self, pc: u64) -> Option<BtbEntry> {
        self.btb.probe(pc)
    }

    fn prefetch_fill(&mut self, pc: u64, target: u64, kind: BranchKind) -> bool {
        match self.hints.and_then(|h| h.get(&pc)).copied() {
            Some(hint) if hint > 0 => self.btb.prefetch_fill_hinted(pc, target, kind, hint),
            _ => self.btb.prefetch_fill(pc, target, kind),
        }
    }

    fn stats(&self) -> BtbStats {
        self.btb.stats()
    }

    fn capacity(&self) -> usize {
        self.btb.capacity()
    }

    fn clear(&mut self) {
        self.btb.clear();
    }

    fn needs_oracle(&self) -> bool {
        self.btb.needs_oracle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btb_model::policies::{BeladyOpt, Lru as LruPolicy};
    use btb_trace::BranchRecord;

    /// A loop of `n` taken branches in distinct blocks.
    fn loop_trace(n: u64, rounds: u64, gap: u32) -> Trace {
        let mut t = Trace::new("loop");
        for _ in 0..rounds {
            for i in 0..n {
                t.push(BranchRecord::taken(
                    0x10000 + i * 256,
                    0x10000 + ((i + 1) % n) * 256,
                    BranchKind::UncondDirect,
                    gap,
                ));
            }
        }
        t
    }

    /// Each two-stage report equals the fused reference loop's.
    fn assert_matches_fused(trace: &Trace, config: FrontendConfig) {
        let fused = crate::reference::FusedFrontend::new(config, LruPolicy::new()).run(trace, None);
        let split = Frontend::new(config, LruPolicy::new()).run(trace, None);
        assert_eq!(split, fused, "{} under {:?}", trace.name(), config.perfect);
    }

    #[test]
    fn two_stage_run_matches_the_fused_loop() {
        let mut callret = Trace::new("callret");
        for i in 0..3_000u64 {
            let site = 0x1000 + (i % 7) * 0x100;
            callret.push(BranchRecord::taken(site, 0x9000, BranchKind::DirectCall, 3));
            // Every fifth return goes somewhere the RAS does not predict.
            let ret = site + if i % 5 == 0 { 0x40 } else { 4 };
            callret.push(BranchRecord::taken(0x9010, ret, BranchKind::Return, 2));
            callret.push(BranchRecord::taken(
                0x9020 + (i % 3) * 64,
                0x5000 + (i % 5) * 64,
                BranchKind::IndirectJump,
                (i % 40) as u32,
            ));
            callret.push(BranchRecord::not_taken(0x5010, BranchKind::CondDirect, 1));
        }
        let mut stalls = FrontendConfig::table1();
        stalls.timing.fetch_width = 5; // the non-power-of-two divide path
        stalls.timing.l2_latency = 0; // zero-latency levels charge nothing
        for trace in [loop_trace(20_000, 3, 9), callret] {
            for perfect in [
                PerfectOptions::default(),
                PerfectOptions {
                    btb: true,
                    ..Default::default()
                },
                PerfectOptions {
                    branch_predictor: true,
                    ..Default::default()
                },
                PerfectOptions {
                    icache: true,
                    ..Default::default()
                },
            ] {
                assert_matches_fused(
                    &trace,
                    FrontendConfig {
                        perfect,
                        ..FrontendConfig::table1()
                    },
                );
            }
            assert_matches_fused(&trace, stalls);
        }
    }

    #[test]
    fn fetch_symbols_round_trip_across_byte_boundaries() {
        let symbols: Vec<u8> = (0..23u8).map(|i| (i * 7 + i / 3) % 4).collect();
        let mut w = SymbolWriter::default();
        for &s in &symbols {
            w.push(s);
        }
        assert_eq!(w.bytes.len(), symbols.len().div_ceil(4));
        let mut r = SymbolReader {
            bytes: &w.bytes,
            pos: 0,
        };
        let read: Vec<u8> = symbols.iter().map(|_| r.next()).collect();
        assert_eq!(read, symbols);
        assert_eq!(
            r.next(),
            END_OF_RECORD,
            "past the end reads as a record end"
        );
    }

    #[test]
    fn one_record_spanning_many_missing_blocks_replays_exactly() {
        // A 10k-instruction straight-line run: ~625 cold blocks in one
        // record, far past any per-record count a flag byte could hold.
        let mut trace = Trace::new("long");
        trace.push(BranchRecord::taken(
            0x80_0000,
            0x1000,
            BranchKind::UncondDirect,
            10_000,
        ));
        trace.push(BranchRecord::taken(
            0x1000,
            0x80_0000,
            BranchKind::UncondDirect,
            3,
        ));
        let events = FrontendEvents::build(&trace);
        assert!(events.l1i_misses > 600);
        assert_matches_fused(&trace, FrontendConfig::table1());
    }

    #[test]
    #[should_panic(expected = "different trace")]
    fn run_events_rejects_a_stream_of_another_trace() {
        let events = FrontendEvents::build(&loop_trace(8, 2, 1));
        Frontend::new(FrontendConfig::table1(), LruPolicy::new()).run_events(
            &loop_trace(8, 3, 1),
            &events,
            None,
        );
    }

    #[test]
    fn instruction_count_matches_trace() {
        let trace = loop_trace(8, 10, 5);
        let mut fe = Frontend::new(FrontendConfig::table1(), LruPolicy::new());
        let report = fe.run(&trace, None);
        assert_eq!(report.instructions, trace.instruction_count());
        assert!(report.cycles > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = loop_trace(100, 20, 3);
        let run = || Frontend::new(FrontendConfig::table1(), LruPolicy::new()).run(&trace, None);
        assert_eq!(run(), run());
    }

    #[test]
    fn perfect_btb_is_never_slower() {
        let trace = loop_trace(20_000, 4, 3); // thrash the 8K BTB
        let base = Frontend::new(FrontendConfig::table1(), LruPolicy::new()).run(&trace, None);
        let mut cfg = FrontendConfig::table1();
        cfg.perfect.btb = true;
        let perfect = Frontend::new(cfg, LruPolicy::new()).run(&trace, None);
        assert!(
            perfect.ipc() > base.ipc(),
            "perfect {:.3} vs base {:.3}",
            perfect.ipc(),
            base.ipc()
        );
        assert_eq!(perfect.btb_stall_cycles, 0.0);
        assert_eq!(perfect.btb.misses, 0);
    }

    #[test]
    fn perfect_icache_removes_icache_stalls() {
        let trace = loop_trace(20_000, 4, 9);
        let mut cfg = FrontendConfig::table1();
        cfg.perfect.icache = true;
        let r = Frontend::new(cfg, LruPolicy::new()).run(&trace, None);
        assert_eq!(r.icache_stall_cycles, 0.0);
        assert_eq!(r.l1i_misses, 0);
    }

    #[test]
    fn opt_beats_lru_on_btb_thrash() {
        let trace = loop_trace(10_000, 8, 3);
        let oracle = NextUseOracle::build(&trace);
        let lru = Frontend::new(FrontendConfig::table1(), LruPolicy::new()).run(&trace, None);
        let opt =
            Frontend::new(FrontendConfig::table1(), BeladyOpt::new()).run(&trace, Some(&oracle));
        assert!(
            opt.btb.misses < lru.btb.misses,
            "opt misses {} vs lru {}",
            opt.btb.misses,
            lru.btb.misses
        );
        assert!(opt.ipc() > lru.ipc());
    }

    #[test]
    fn small_loop_has_no_steady_state_stalls() {
        // 16 branches fit everywhere: after warmup, IPC approaches the
        // fetch-bandwidth bound (one 6-instruction record per cycle).
        let trace = loop_trace(16, 10_000, 5);
        let r = Frontend::new(FrontendConfig::table1(), LruPolicy::new()).run(&trace, None);
        let bound = 6.0;
        assert!(r.ipc() > 0.9 * bound, "ipc {:.2} vs bound {bound}", r.ipc());
        // All stall cycles stem from the 16-record warmup.
        assert_eq!(r.btb.misses, 16);
    }

    #[test]
    fn returns_predicted_by_ras() {
        // call -> ret pairs, well-nested: no return mispredicts after the
        // BTB warms up.
        let mut trace = Trace::new("callret");
        for _ in 0..500 {
            trace.push(BranchRecord::taken(
                0x1000,
                0x2000,
                BranchKind::DirectCall,
                3,
            ));
            trace.push(BranchRecord::taken(0x2010, 0x1004, BranchKind::Return, 3));
        }
        let r = Frontend::new(FrontendConfig::table1(), LruPolicy::new()).run(&trace, None);
        assert_eq!(r.returns, 500);
        assert!(
            r.return_mispredicts <= 1,
            "ras mispredicts {}",
            r.return_mispredicts
        );
    }

    #[test]
    fn big_code_footprint_shows_icache_pressure() {
        // Unique blocks, one pass: everything cold-misses.
        let mut trace = Trace::new("cold");
        for i in 0..50_000u64 {
            trace.push(BranchRecord::taken(
                0x100000 + i * 64,
                0x100000 + (i + 1) * 64,
                BranchKind::UncondDirect,
                10,
            ));
        }
        let r = Frontend::new(FrontendConfig::table1(), LruPolicy::new()).run(&trace, None);
        assert!(r.l1i_misses > 40_000);
        assert!(r.l2i_misses > 40_000);
        assert!(r.icache_stall_cycles > 0.0);
    }

    #[test]
    fn hints_reach_the_btb() {
        use btb_model::{BtbEntry, Geometry, Victim};

        /// A policy that records the hints it saw.
        #[derive(Default)]
        struct HintSpy {
            seen: std::cell::RefCell<Vec<u8>>,
            lru: LruPolicy,
        }
        impl ReplacementPolicy for HintSpy {
            fn name(&self) -> &'static str {
                "spy"
            }
            fn reset(&mut self, g: &Geometry) {
                self.lru.reset(g);
            }
            fn on_hit(&mut self, s: usize, w: usize, c: &AccessContext) {
                self.seen.borrow_mut().push(c.hint);
                self.lru.on_hit(s, w, c);
            }
            fn on_fill(&mut self, s: usize, w: usize, c: &AccessContext) {
                self.seen.borrow_mut().push(c.hint);
                self.lru.on_fill(s, w, c);
            }
            fn choose_victim(&mut self, s: usize, r: &[BtbEntry], c: &AccessContext) -> Victim {
                self.lru.choose_victim(s, r, c)
            }
            fn on_replace(&mut self, s: usize, w: usize, e: &BtbEntry, c: &AccessContext) {
                self.lru.on_replace(s, w, e, c);
            }
        }

        let mut trace = Trace::new("hints");
        trace.push(BranchRecord::taken(
            0x100,
            0x200,
            BranchKind::UncondDirect,
            1,
        ));
        trace.push(BranchRecord::taken(
            0x104,
            0x300,
            BranchKind::UncondDirect,
            0,
        ));
        let mut fe = Frontend::new(FrontendConfig::table1(), HintSpy::default());
        fe.set_hints([(0x100u64, 2u8)].into_iter().collect());
        fe.run(&trace, None);
        assert_eq!(*fe.btb().policy().seen.borrow(), vec![2, 0]);
    }
}
