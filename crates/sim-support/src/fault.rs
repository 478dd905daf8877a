//! Deterministic fault injection and the partial-failure error taxonomy.
//!
//! A 700-trace figure grid runs for hours; a single corrupt input or a
//! panicking cell must not abort the whole batch. This module supplies the
//! two halves of that contract:
//!
//! * **Taxonomy** — [`SimError`] classifies every failure as
//!   [`FaultClass::Transient`] (retry is worthwhile: I/O hiccups, injected
//!   flakes), [`FaultClass::Poison`] (deterministically wrong input: a
//!   corrupt trace, a panicking cell — quarantine it and move on), or
//!   [`FaultClass::Fatal`] (the run itself is compromised — abort).
//!   Executors decide retry vs quarantine vs abort from the class alone.
//! * **Injection** — a [`FaultPlan`] parsed from a spec string (the
//!   `--fault-plan` flag of `figures`, `hintd` and `hintload`) chooses,
//!   *deterministically*, which grid cells panic, which `results/` writes
//!   fail, which wire frames are injured and how a process dies mid-run.
//!   Every choice is a pure function of the plan seed and the fault site,
//!   so a faulty run is exactly reproducible — the property the
//!   crash-resume CI stage relies on. The binary that parsed the plan owns
//!   it as a [`FaultState`] inside its run context and passes it down
//!   explicitly; nothing here is process-global, so runs with different
//!   plans can execute side by side.
//!
//! [`isolated`] is the only sanctioned `catch_unwind` wrapper outside the
//! pool (enforced by simlint rule S03): it converts panics into [`SimError`]
//! and performs the bounded deterministic retry loop for transient faults.
//!
//! # Plan spec grammar
//!
//! Comma-separated `key=value` entries; each names a fault site and what
//! happens there. Keys may repeat. Where several entries match one site the
//! first wins, except that an exact `panic=` cell beats `panic-rate=`.
//!
//! | entry | example | fault |
//! |-------|---------|-------|
//! | `seed=N`                     | `seed=7`                   | seeds `panic-rate` draws (default 0) |
//! | `panic=FIG:IDX:CLASS`        | `panic=fig01:2:poison`     | cell `(FIG, IDX)` panics with `CLASS` |
//! | `panic-rate=P:CLASS`         | `panic-rate=0.5:transient` | every cell panics with probability `P` |
//! | `io=PATTERN:K`               | `io=grid_stats:2`          | first `K` writes to paths containing `PATTERN` fail transiently |
//! | `exit-after=N`               | `exit-after=3`             | `proc` `die` for every process: exit 86 once `N` cells (or `hintd` batches) are journaled |
//! | `net=C:O:drop[:CLASS]`       | `net=0:2:drop`             | frame `O` on connection `C` is discarded |
//! | `net=C:O:delay:MS[:CLASS]`   | `net=1:0:delay:250`        | the frame is delayed `MS` ms (capped at 10 000) |
//! | `net=C:O:trunc:N[:CLASS]`    | `net=1:3:trunc:7:fatal`    | only the first `N` bytes are delivered |
//! | `net=C:O:garble:N:X[:CLASS]` | `net=2:1:garble:5:255`     | byte `N` (mod frame length) is XORed with `X` (not 0) |
//! | `proc=S:A:die[:AFTER]`       | `proc=2:0:die:3`           | worker `(S, A)` exits 86 after `AFTER` journaled cells |
//! | `proc=S:A:hang[:AFTER]`      | `proc=1:0:hang:2`          | the worker wedges until killed |
//! | `proc=S:A:torn[:AFTER]`      | `proc=3:1:torn`            | the worker tears its journal, then exits 86 |
//! | `proc=S:A:garbage[:AFTER]`   | `proc=4:0:garbage`         | the worker prints garbage and exits 0 unfinished |
//!
//! `CLASS` is `transient` (a cell panic fires on attempt 0 only, so a retry
//! succeeds), `poison` (fires on every attempt), or `fatal`. Net faults are
//! `transient` unless the optional trailing `CLASS` overrides it. `S` is the
//! 1-based shard number of `--shard S/N` (an unsharded run is shard 1), `A`
//! the 0-based attempt, and `AFTER` (≥ 1) defaults to 1. A process arms at
//! most one process fault: the first `proc=` or `exit-after=` entry that
//! matches its `(shard, attempt)`.
//!
//! Each binary accepts only the keys whose sites it reaches
//! ([`FaultPlan::accept_only`]), so a plan never parses and then silently
//! does nothing.
//!
//! ```
//! use sim_support::FaultPlan;
//!
//! // Every example row of the table above parses, alone and all together.
//! let source = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/src/fault.rs"));
//! let examples: Vec<&str> = source
//!     .lines()
//!     .filter_map(|line| line.strip_prefix("//! | `"))
//!     .map(|row| row.split('|').nth(1).unwrap().trim().trim_matches('`'))
//!     .collect();
//! assert_eq!(examples.len(), 13);
//! for example in &examples {
//!     FaultPlan::parse(example).unwrap_or_else(|e| panic!("{example}: {e}"));
//! }
//! FaultPlan::parse(&examples.join(",")).unwrap();
//! ```

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use crate::rng::{SimRng, SplitMix64};

/// Exit code of a fired `die` (or `exit-after`) process fault —
/// distinguishable from ordinary failures in `scripts/ci.sh`.
pub const CRASH_EXIT_CODE: i32 = 86;

/// How a failure should be treated by the executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// Worth retrying: the same operation may succeed on the next attempt.
    Transient,
    /// Deterministically broken input or computation: retrying cannot help;
    /// quarantine the unit and continue with the rest of the batch.
    Poison,
    /// The run itself is compromised; abort instead of continuing.
    Fatal,
}

impl FaultClass {
    /// Lower-case name used in specs, journals and `grid_stats.json`.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Transient => "transient",
            FaultClass::Poison => "poison",
            FaultClass::Fatal => "fatal",
        }
    }

    /// Parses a spec-string class name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "transient" => Ok(FaultClass::Transient),
            "poison" => Ok(FaultClass::Poison),
            "fatal" => Ok(FaultClass::Fatal),
            other => Err(format!(
                "unknown fault class {other:?} (transient|poison|fatal)"
            )),
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A classified simulation failure. The class drives the executor's
/// retry/quarantine/abort decision; the message records the root cause for
/// `grid_stats.json` and the journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimError {
    /// Retry / quarantine / abort.
    pub class: FaultClass,
    /// Human-readable root cause.
    pub message: String,
}

impl SimError {
    /// A retryable failure.
    pub fn transient(message: impl Into<String>) -> Self {
        Self {
            class: FaultClass::Transient,
            message: message.into(),
        }
    }

    /// A deterministic failure: quarantine, don't retry.
    pub fn poison(message: impl Into<String>) -> Self {
        Self {
            class: FaultClass::Poison,
            message: message.into(),
        }
    }

    /// A run-compromising failure: abort.
    pub fn fatal(message: impl Into<String>) -> Self {
        Self {
            class: FaultClass::Fatal,
            message: message.into(),
        }
    }

    /// Recovers a `SimError` from a panic payload. Injected faults travel as
    /// `SimError` payloads and keep their class; organic panics (assertion
    /// failures, indexing bugs, corrupt-input unwinds) are deterministic for
    /// a given cell, so they classify as [`FaultClass::Poison`].
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> Self {
        match payload.downcast::<SimError>() {
            Ok(err) => *err,
            Err(payload) => {
                let message = if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_owned()
                } else {
                    "opaque panic payload".to_owned()
                };
                SimError::poison(format!("panic: {message}"))
            }
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.class, self.message)
    }
}

impl std::error::Error for SimError {}

/// Outcome of [`isolated`]: the task's result plus how many attempts ran.
#[derive(Debug)]
pub struct Isolated<T> {
    /// `Ok` with the task's value, or the classified failure after the
    /// final attempt.
    pub result: Result<T, SimError>,
    /// Attempts executed (≥ 1).
    pub attempts: u32,
}

/// Runs `f`, converting panics into [`SimError`] and retrying transient
/// failures up to `max_retries` extra times. `f` receives the zero-based
/// attempt number, so deterministic fault injection can fire on chosen
/// attempts only.
///
/// This is the one sanctioned panic-capture site for task execution
/// (simlint S03); poison and fatal failures are never retried, keeping the
/// attempt sequence a pure function of `(f, max_retries)`.
pub fn isolated<T>(max_retries: u32, mut f: impl FnMut(u32) -> T) -> Isolated<T> {
    let mut attempt = 0u32;
    loop {
        match catch_unwind(AssertUnwindSafe(|| f(attempt))) {
            Ok(value) => {
                return Isolated {
                    result: Ok(value),
                    attempts: attempt + 1,
                }
            }
            Err(payload) => {
                let error = SimError::from_panic(payload);
                let retry = error.class == FaultClass::Transient && attempt < max_retries;
                if !retry {
                    return Isolated {
                        result: Err(error),
                        attempts: attempt + 1,
                    };
                }
                attempt += 1;
            }
        }
    }
}

/// Where a planned fault fires: the typed site half of a plan entry.
#[derive(Clone, Debug, PartialEq)]
enum Site {
    /// Grid cell `(figure, index)` — `panic=`.
    Cell { figure: String, index: usize },
    /// Any grid cell whose seeded draw is below the rate — `panic-rate=`.
    CellRate(f64),
    /// Writes to paths containing the pattern — `io=`.
    Write(String),
    /// Frame `op` on client connection `conn` — `net=`.
    Conn { conn: u64, op: u64 },
    /// Sweep worker `shard` (1-based) on attempt `attempt` — `proc=`.
    Shard { shard: u64, attempt: u32 },
    /// Every process — `exit-after=`.
    AnyProcess,
}

impl Site {
    /// The spec key that addresses this site.
    fn key(&self) -> &'static str {
        match self {
            Site::Cell { .. } => "panic",
            Site::CellRate(_) => "panic-rate",
            Site::Write(_) => "io",
            Site::Conn { .. } => "net",
            Site::Shard { .. } => "proc",
            Site::AnyProcess => "exit-after",
        }
    }
}

/// What happens at a [`Site`].
#[derive(Clone, Debug, PartialEq)]
enum Fault {
    /// The cell panics with this class.
    Panic(FaultClass),
    /// The first `K` attempts per matching path fail transiently.
    Io(u32),
    /// The frame is injured on the wire.
    Net(NetFault),
    /// The process dies, wedges, tears its journal or lies.
    Proc(ProcFault),
}

/// A deterministic fault-injection plan: a seed plus `(site, fault)`
/// entries in spec order. See the [module docs](self) for the spec
/// grammar. All injection decisions are pure functions of the plan and the
/// fault site, never of scheduling or wall-clock.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    seed: Option<u64>,
    entries: Vec<(Site, Fault)>,
}

/// Upper bound accepted for `net` delay entries: fault plans must never
/// make a test hang for minutes on a typo.
const MAX_NET_DELAY_MS: u64 = 10_000;

/// The `:`-separated fields of one `key=value` entry.
struct Fields<'a> {
    entry: &'a str,
    parts: Vec<&'a str>,
}

impl Fields<'_> {
    fn err(&self, why: impl std::fmt::Display) -> String {
        format!("fault-plan entry {:?}: {why}", self.entry)
    }

    /// Field `i`, parsed; `what` names it in the error.
    fn get<T: std::str::FromStr>(&self, i: usize, what: &str) -> Result<T, String> {
        let missing = || self.err(format!("missing {what}"));
        let raw = self.parts.get(i).ok_or_else(missing)?;
        raw.parse()
            .map_err(|_| self.err(format!("bad {what} {raw:?}")))
    }

    fn class(&self, i: usize) -> Result<FaultClass, String> {
        FaultClass::parse(&self.get::<String>(i, "class")?)
    }
}

impl FaultPlan {
    /// Parses a `--fault-plan` spec string. An empty spec is an empty plan.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault-plan entry {entry:?} is not key=value"))?;
            let key = key.trim();
            if key == "seed" {
                let seed = value.trim().parse();
                plan.seed =
                    Some(seed.map_err(|_| format!("fault-plan entry {entry:?}: bad seed"))?);
                continue;
            }
            let f = Fields {
                entry,
                parts: value.trim().split(':').collect(),
            };
            // Each arm yields the entry and how many fields it may use.
            let (site, fault, used) = match key {
                "panic" => {
                    let figure: String = f.get(0, "figure id")?;
                    if figure.is_empty() {
                        return Err(f.err("missing figure id"));
                    }
                    let index = f.get(1, "cell index")?;
                    let site = Site::Cell { figure, index };
                    (site, Fault::Panic(f.class(2)?), 3)
                }
                "panic-rate" => {
                    let p: f64 = f.get(0, "probability")?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(f.err(format!("probability {p} outside [0, 1]")));
                    }
                    (Site::CellRate(p), Fault::Panic(f.class(1)?), 2)
                }
                "io" => {
                    let site = Site::Write(f.get(0, "path pattern")?);
                    (site, Fault::Io(f.get(1, "failure count")?), 2)
                }
                "exit-after" => {
                    let fault = ProcFault {
                        kind: ProcFaultKind::Die,
                        after_cells: f.get(0, "cell count")?,
                    };
                    (Site::AnyProcess, Fault::Proc(fault), 1)
                }
                "net" => {
                    let site = Site::Conn {
                        conn: f.get(0, "connection id")?,
                        op: f.get(1, "operation index")?,
                    };
                    let (kind, n) = match f.get::<String>(2, "kind")?.as_str() {
                        "drop" => (NetFaultKind::Drop, 3),
                        "delay" => {
                            let ms = f.get(3, "delay")?;
                            if ms > MAX_NET_DELAY_MS {
                                return Err(f.err(format!(
                                    "delay {ms} ms exceeds the {MAX_NET_DELAY_MS} ms cap"
                                )));
                            }
                            (NetFaultKind::Delay { ms }, 4)
                        }
                        "trunc" => {
                            let offset = f.get(3, "truncate offset")?;
                            (NetFaultKind::Truncate { offset }, 4)
                        }
                        "garble" => {
                            let offset = f.get(3, "garble offset")?;
                            let xor = f.get(4, "garble mask")?;
                            if xor == 0 {
                                return Err(f.err("garble mask 0 is a no-op"));
                            }
                            (NetFaultKind::Garble { offset, xor }, 5)
                        }
                        other => return Err(f.err(format!("unknown net fault kind {other:?}"))),
                    };
                    let class = if f.parts.len() > n {
                        f.class(n)?
                    } else {
                        kind.class()
                    };
                    (site, Fault::Net(NetFault { kind, class }), n + 1)
                }
                "proc" => {
                    let shard = f.get(0, "shard number")?;
                    if shard == 0 {
                        return Err(f.err("shards are 1-based (as in --shard i/N)"));
                    }
                    let site = Site::Shard {
                        shard,
                        attempt: f.get(1, "attempt index")?,
                    };
                    let kind = match f.get::<String>(2, "kind")?.as_str() {
                        "die" => ProcFaultKind::Die,
                        "hang" => ProcFaultKind::Hang,
                        "torn" => ProcFaultKind::TornJournal,
                        "garbage" => ProcFaultKind::GarbageStdout,
                        other => return Err(f.err(format!("unknown proc fault kind {other:?}"))),
                    };
                    let after_cells = if f.parts.len() > 3 {
                        f.get(3, "cell count")?
                    } else {
                        1
                    };
                    if after_cells == 0 {
                        return Err(f.err("AFTER must be >= 1"));
                    }
                    let fault = ProcFault { kind, after_cells };
                    (site, Fault::Proc(fault), 4)
                }
                other => return Err(format!("unknown fault-plan key {other:?}")),
            };
            if f.parts.len() > used {
                return Err(f.err("trailing fields"));
            }
            plan.entries.push((site, fault));
        }
        Ok(plan)
    }

    /// Rejects the plan if it uses a key outside `keys`. Each binary passes
    /// the keys whose sites it reaches, so an entry that could never fire
    /// is a usage error instead of a silent no-op.
    pub fn accept_only(self, keys: &[&str]) -> Result<Self, String> {
        let seed = self.seed.map(|_| "seed");
        let used = seed
            .into_iter()
            .chain(self.entries.iter().map(|(site, _)| site.key()));
        for key in used {
            if !keys.contains(&key) {
                return Err(format!(
                    "fault-plan key {key}= has no fault site in this binary (accepted: {})",
                    keys.join(", ")
                ));
            }
        }
        Ok(self)
    }

    /// The first entry whose site satisfies `at`: the one lookup behind
    /// every fault site.
    fn find(&self, at: impl Fn(&Site) -> bool) -> Option<&(Site, Fault)> {
        self.entries.iter().find(|(site, _)| at(site))
    }

    /// The fault class planned for cell `(figure, index)`, if any — a pure
    /// function of the plan and the site.
    pub fn cell_fault(&self, figure: &str, index: usize) -> Option<FaultClass> {
        let exact = |site: &Site| matches!(site, Site::Cell { figure: f, index: i } if f == figure && *i == index);
        let drawn =
            |site: &Site| matches!(site, Site::CellRate(p) if self.cell_draw(figure, index) < *p);
        match self.find(exact).or_else(|| self.find(drawn))? {
            (_, Fault::Panic(class)) => Some(*class),
            _ => None,
        }
    }

    /// The cell's seeded draw in [0, 1) for `panic-rate` (53-bit mantissa).
    fn cell_draw(&self, figure: &str, index: usize) -> f64 {
        let site =
            self.seed.unwrap_or(0) ^ fnv1a(figure.as_bytes()) ^ (index as u64).wrapping_mul(0x9e37);
        let draw = SplitMix64::new(site).next_u64();
        ((draw >> 11) as f64) / ((1u64 << 53) as f64)
    }

    /// The wire fault planned for operation `op` on connection `conn`.
    pub fn net_fault(&self, conn: u64, op: u64) -> Option<NetFault> {
        match self.find(|site| *site == Site::Conn { conn, op })? {
            (_, Fault::Net(fault)) => Some(*fault),
            _ => None,
        }
    }

    /// The process fault for worker `(shard, attempt)`: the first `proc=`
    /// entry for those coordinates or `exit-after=` entry.
    pub fn proc_fault(&self, shard: u64, attempt: u32) -> Option<ProcFault> {
        let here =
            |site: &Site| *site == Site::AnyProcess || *site == Site::Shard { shard, attempt };
        match self.find(here)? {
            (_, Fault::Proc(fault)) => Some(fault.clone()),
            _ => None,
        }
    }

    /// The plan's first `io=PATTERN:K` entry, with fresh attempt counters.
    pub fn io_faults(&self) -> IoFaults {
        let pattern = match self.find(|site| matches!(site, Site::Write(_))) {
            Some((Site::Write(pattern), Fault::Io(k))) => Some((pattern.clone(), *k)),
            _ => None,
        };
        IoFaults {
            pattern,
            attempts: Vec::new(),
        }
    }
}

/// The `io=PATTERN:K` entry of a [`FaultPlan`] plus its per-path attempt
/// counters. Whoever performs the writes owns it (a run's [`FaultState`], a
/// `hintd` shard) and hands it to the [`crate::fsio`] write helpers; the
/// default value injects nothing.
#[derive(Debug, Default)]
pub struct IoFaults {
    pattern: Option<(String, u32)>,
    attempts: Vec<(String, u32)>,
}

impl IoFaults {
    /// Injection checkpoint for `results/` writes: returns an injected
    /// transient error ([`io::ErrorKind::Interrupted`], so callers' bounded
    /// retry loops recognise it as retryable) for the first `K` attempts on
    /// any path containing `PATTERN`.
    pub fn inject(&mut self, path: &str) -> Option<io::Error> {
        let (pattern, k) = self.pattern.as_ref()?;
        if !path.contains(pattern.as_str()) {
            return None;
        }
        let k = *k;
        let attempts = match self.attempts.iter_mut().position(|(p, _)| p == path) {
            Some(i) => &mut self.attempts[i].1,
            None => {
                self.attempts.push((path.to_owned(), 0));
                &mut self.attempts.last_mut().expect("just pushed").1
            }
        };
        *attempts += 1;
        (*attempts <= k).then(|| {
            io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected transient i/o fault on {path} (attempt {attempts})"),
            )
        })
    }
}

/// One run's fault-injection state: the plan, its injected-I/O counters,
/// the journaled-cell crash countdown and the armed process fault. The
/// binary that parsed `--fault-plan` builds it; the default state injects
/// nothing.
#[derive(Debug, Default)]
pub struct FaultState {
    plan: FaultPlan,
    /// The plan's `io=` entry, handed to the [`crate::fsio`] write helpers.
    pub io: IoFaults,
    cells_completed: u64,
    proc_fault: Option<ArmedProcFault>,
}

impl FaultState {
    /// Fresh state for an unsharded run of `plan` (shard 1, attempt 0,
    /// no journal to tear).
    pub fn new(plan: FaultPlan) -> Self {
        Self::for_worker(plan, 1, 0, None)
    }

    /// Fresh state for sweep worker `(shard, attempt)`: arms the plan's
    /// [`FaultPlan::proc_fault`] for those coordinates, which fires inside
    /// [`cell_completed`](Self::cell_completed). `journal` is what the
    /// torn-journal kind tears.
    pub fn for_worker(plan: FaultPlan, shard: u64, attempt: u32, journal: Option<PathBuf>) -> Self {
        let proc_fault = plan.proc_fault(shard, attempt).map(|fault| ArmedProcFault {
            fault,
            journal_path: journal,
        });
        Self {
            io: plan.io_faults(),
            plan,
            cells_completed: 0,
            proc_fault,
        }
    }

    /// Injection checkpoint at the start of a cell attempt. Panics with a
    /// [`SimError`] payload when the plan targets this cell: transient
    /// faults fire on attempt 0 only (so one retry heals them); poison and
    /// fatal faults fire on every attempt.
    pub fn cell_attempt(&self, figure: &str, index: usize, attempt: u32) {
        if let Some(class) = self.plan.cell_fault(figure, index) {
            if class != FaultClass::Transient || attempt == 0 {
                std::panic::panic_any(SimError {
                    class,
                    message: format!(
                        "injected {class} fault at cell {figure}[{index}] (attempt {attempt})"
                    ),
                });
            }
        }
    }

    /// Crash checkpoint: counts journaled cells (or `hintd` batches) and,
    /// when the armed [`ProcFault`] is due, performs it — a mid-run crash
    /// for the resume tests, the shard-supervisor battery and the `hintd`
    /// recovery tests.
    pub fn cell_completed(&mut self) {
        self.cells_completed += 1;
        let done = self.cells_completed;
        let due = |armed: &mut ArmedProcFault| done >= armed.fault.after_cells;
        if let Some(armed) = self.proc_fault.take_if(due) {
            armed.fire(done);
        }
    }
}

/// Installs a panic hook that silences injected faults (payload is a
/// [`SimError`]) and shrinks organic cell panics to one line — quarantined
/// cells already report through `grid_stats.json`, so the default
/// multi-line hook output would only drown the run log.
pub fn silence_injected_panics() {
    std::panic::set_hook(Box::new(|info| {
        if info.payload().downcast_ref::<SimError>().is_some() {
            return;
        }
        let location = info
            .location()
            .map(|l| format!("{}:{}", l.file(), l.line()))
            .unwrap_or_else(|| "<unknown>".to_owned());
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("opaque panic payload");
        eprintln!("cell panic at {location}: {message}");
    }));
}

/// A single deterministic byte-stream corruption, for fuzzing decoders
/// against truncated / bit-flipped / garbage input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// Cut the stream to `len` bytes.
    Truncate(usize),
    /// Flip one bit of one byte.
    FlipBit {
        /// Byte offset (taken modulo the stream length).
        offset: usize,
        /// Bit index 0..8.
        bit: u8,
    },
    /// Overwrite one byte.
    ReplaceByte {
        /// Byte offset (taken modulo the stream length).
        offset: usize,
        /// Replacement value.
        value: u8,
    },
    /// Replace the whole stream with arbitrary bytes.
    Garbage(Vec<u8>),
}

impl Corruption {
    /// Draws a corruption appropriate for a stream of `len` bytes.
    pub fn arbitrary(rng: &mut SimRng, len: usize) -> Corruption {
        let byte = |rng: &mut SimRng| (rng.next_u64() >> 56) as u8;
        if len == 0 {
            let n = rng.gen_range(1usize..64);
            return Corruption::Garbage((0..n).map(|_| byte(rng)).collect());
        }
        match rng.gen_range(0u32..4) {
            0 => Corruption::Truncate(rng.gen_range(0usize..len)),
            1 => Corruption::FlipBit {
                offset: rng.gen_range(0usize..len),
                bit: rng.gen_range(0u32..8) as u8,
            },
            2 => Corruption::ReplaceByte {
                offset: rng.gen_range(0usize..len),
                value: byte(rng),
            },
            _ => {
                let n = rng.gen_range(1usize..64);
                Corruption::Garbage((0..n).map(|_| byte(rng)).collect())
            }
        }
    }

    /// Applies the corruption in place.
    pub fn apply(&self, bytes: &mut Vec<u8>) {
        match self {
            Corruption::Truncate(len) => bytes.truncate(*len),
            Corruption::FlipBit { offset, bit } => {
                if !bytes.is_empty() {
                    let i = offset % bytes.len();
                    bytes[i] ^= 1 << (bit % 8);
                }
            }
            Corruption::ReplaceByte { offset, value } => {
                if !bytes.is_empty() {
                    let i = offset % bytes.len();
                    bytes[i] = *value;
                }
            }
            Corruption::Garbage(garbage) => *bytes = garbage.clone(),
        }
    }
}

/// One deterministic network fault, injected at a codec boundary (the
/// length-prefixed frame layer of `hintd` and anything else that ships
/// byte frames over a stream). Each variant models a concrete wire
/// failure; [`NetFaultKind::class`] maps it onto the transient/poison/fatal
/// taxonomy so client retry loops classify wire errors exactly the way
/// [`crate::pool::ThreadPool::try_par_map`] classifies cell failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFaultKind {
    /// The frame is silently discarded: never written to the stream. The
    /// sender observes a missing response (read timeout / closed stream).
    Drop,
    /// The frame is delivered after a deterministic delay of `ms`
    /// milliseconds — long enough to trip read deadlines and the
    /// idle-connection reaper when configured above them.
    Delay {
        /// Injected delay, milliseconds (capped at parse time).
        ms: u64,
    },
    /// Only the first `offset` bytes of the frame reach the stream; the
    /// connection is then unusable mid-frame (the receiver sees a torn
    /// length-prefixed frame and must drop the connection).
    Truncate {
        /// Bytes delivered before the cut.
        offset: usize,
    },
    /// One byte of the frame is XORed with `xor` — a bit-level corruption
    /// the receiver's decoder must reject rather than act on.
    Garble {
        /// Byte offset (taken modulo the frame length by appliers).
        offset: usize,
        /// XOR mask applied to the byte (0 is rejected at parse time).
        xor: u8,
    },
}

impl NetFaultKind {
    /// Taxonomy mapping. Every wire-level fault is [`FaultClass::Transient`]
    /// from the sender's perspective: resending the frame (on a fresh
    /// connection where the stream state is torn) heals it, exactly like an
    /// injected I/O flake. Spec entries may override the class (e.g. to
    /// test that a poison-classified failure is *not* retried).
    pub fn class(self) -> FaultClass {
        FaultClass::Transient
    }

    /// Lower-case spec name.
    pub fn name(self) -> &'static str {
        match self {
            NetFaultKind::Drop => "drop",
            NetFaultKind::Delay { .. } => "delay",
            NetFaultKind::Truncate { .. } => "trunc",
            NetFaultKind::Garble { .. } => "garble",
        }
    }
}

/// A planned network fault: fires on exactly one `(connection, operation)`
/// site, with an explicit taxonomy class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetFault {
    /// What happens to the frame.
    pub kind: NetFaultKind,
    /// How the sender's retry logic should treat the resulting failure.
    pub class: FaultClass,
}

/// A process-level fault: how a sharded-sweep worker process dies (or
/// misbehaves) once it has journaled `after_cells` grid cells. Unlike the
/// in-process [`FaultPlan`] checkpoints — which panic *inside* a cell and
/// are healed by `fault::isolated` — these simulate the failure modes a
/// shard **supervisor** must survive: the whole worker disappearing,
/// wedging, or lying about success.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProcFaultKind {
    /// `process::exit(CRASH_EXIT_CODE)` mid-sweep — the moral equivalent of
    /// an OOM kill or `kill -9`; the fsync'd journal is all that survives.
    Die,
    /// The worker stops making progress but never exits: an infinite
    /// bounded-sleep loop. Only the supervisor's journal-watermark
    /// heartbeat (or an external `kill -9`) can clear it.
    Hang,
    /// A torn-journal exit: raw non-newline-terminated bytes (including an
    /// invalid-UTF-8 byte) are appended to the journal, then the process
    /// dies — the on-disk state a power loss mid-`write(2)` leaves behind.
    TornJournal,
    /// The worker prints garbage to stdout and exits **0** without
    /// finishing its shard: a false success the supervisor must catch via
    /// journal-coverage verification, never via exit status.
    GarbageStdout,
}

impl ProcFaultKind {
    /// Lower-case spec name.
    pub fn name(&self) -> &'static str {
        match self {
            ProcFaultKind::Die => "die",
            ProcFaultKind::Hang => "hang",
            ProcFaultKind::TornJournal => "torn",
            ProcFaultKind::GarbageStdout => "garbage",
        }
    }
}

/// One planned process-level fault, armed inside a grid run, a sweep
/// worker or `hintd`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcFault {
    /// What the worker does at the trigger point.
    pub kind: ProcFaultKind,
    /// Grid cells (or `hintd` batches) journaled before the fault fires.
    pub after_cells: u64,
}

/// An armed process fault plus the journal path [`ProcFaultKind::TornJournal`]
/// tears. At most one fault is armed per run (one worker = one shard
/// attempt = one plan entry, `exit-after=` included).
#[derive(Debug)]
struct ArmedProcFault {
    fault: ProcFault,
    journal_path: Option<PathBuf>,
}

impl ArmedProcFault {
    /// Performs the fault. Never returns (exit or hang).
    fn fire(self, cells_done: u64) -> ! {
        match self.fault.kind {
            ProcFaultKind::Die => {
                eprintln!("proc fault: dying after {cells_done} journaled cells");
                std::process::exit(CRASH_EXIT_CODE);
            }
            ProcFaultKind::Hang => {
                eprintln!("proc fault: hanging after {cells_done} journaled cells");
                // Wedge without burning a core; only the supervisor's
                // heartbeat timeout (or kill -9) clears this state.
                loop {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                }
            }
            ProcFaultKind::TornJournal => {
                eprintln!("proc fault: tearing journal after {cells_done} journaled cells");
                if let Some(path) = &self.journal_path {
                    use std::io::Write as _;
                    // Raw append, no newline, invalid UTF-8 mid-record: the
                    // exact bytes a power loss mid-write leaves behind. The
                    // fsync matters — the *torn* state must itself be durable
                    // for the resume path to prove it tolerates it.
                    if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(path) {
                        let _ = f.write_all(b"{\"kind\":\"cell\",\"figure\":\"t\xFForn");
                        let _ = f.sync_all();
                    }
                }
                std::process::exit(CRASH_EXIT_CODE);
            }
            ProcFaultKind::GarbageStdout => {
                use std::io::Write as _;
                eprintln!("proc fault: garbage stdout + false success after {cells_done} cells");
                let mut out = std::io::stdout();
                let _ = out.write_all(&[0xA5u8; 64]);
                let _ = out.write_all(b"\x00GARBAGE NOT A FIGURE\x00");
                let _ = out.flush();
                // Exit 0: the lie. Supervisors must verify journal coverage,
                // not trust exit status.
                std::process::exit(0);
            }
        }
    }
}

/// FNV-1a over a byte string; the workspace's standard cheap stable hash
/// (fault-site draws here, shard selection in `hintd`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_returns_value_first_try() {
        let out = isolated(3, |attempt| {
            assert_eq!(attempt, 0);
            42
        });
        assert_eq!(out.result.unwrap(), 42);
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn isolated_retries_transient_then_succeeds() {
        let out = isolated(2, |attempt| {
            if attempt == 0 {
                std::panic::panic_any(SimError::transient("flaky"));
            }
            attempt
        });
        assert_eq!(out.result.unwrap(), 1);
        assert_eq!(out.attempts, 2);
    }

    #[test]
    fn isolated_gives_up_after_retry_budget() {
        let out: Isolated<()> = isolated(2, |_| {
            std::panic::panic_any(SimError::transient("always flaky"));
        });
        let err = out.result.unwrap_err();
        assert_eq!(err.class, FaultClass::Transient);
        assert_eq!(out.attempts, 3, "initial attempt + 2 retries");
    }

    #[test]
    fn isolated_never_retries_poison_and_classifies_organic_panics() {
        let out: Isolated<()> = isolated(5, |_| {
            std::panic::panic_any(SimError::poison("bad input"));
        });
        assert_eq!(out.attempts, 1);
        assert_eq!(out.result.unwrap_err().class, FaultClass::Poison);

        let organic: Isolated<()> = isolated(5, |_| panic!("index out of bounds"));
        assert_eq!(organic.attempts, 1, "organic panics are poison: no retry");
        let err = organic.result.unwrap_err();
        assert_eq!(err.class, FaultClass::Poison);
        assert!(err.message.contains("index out of bounds"), "{err}");
    }

    #[test]
    fn plan_spec_round_trips_the_grammar() {
        let plan =
            FaultPlan::parse("seed=7,panic=fig01:2:poison,panic=fig09:0:transient,io=stats:2")
                .unwrap();
        assert_eq!(plan.seed, Some(7));
        assert_eq!(plan.cell_fault("fig01", 2), Some(FaultClass::Poison));
        assert_eq!(plan.cell_fault("fig09", 0), Some(FaultClass::Transient));
        assert_eq!(plan.cell_fault("fig01", 1), None);
        assert_eq!(plan.io_faults().pattern, Some(("stats".to_owned(), 2)));

        let with_exit = FaultPlan::parse("exit-after=5").unwrap();
        let die = with_exit
            .proc_fault(3, 2)
            .expect("exit-after matches every process");
        assert_eq!((die.kind, die.after_cells), (ProcFaultKind::Die, 5));

        assert!(FaultPlan::parse("panic=fig01:x:poison").is_err());
        assert!(FaultPlan::parse("panic-rate=1.5:poison").is_err());
        assert!(FaultPlan::parse("frobnicate=1").is_err());
        assert!(FaultPlan::parse("seed=x").is_err());
        assert!(FaultPlan::parse("").unwrap().entries.is_empty());
    }

    #[test]
    fn plan_keys_are_checked_per_binary() {
        let fits = |spec: &str, keys: &[&str]| {
            let plan = FaultPlan::parse(spec).unwrap();
            plan.accept_only(keys).is_ok()
        };
        let hintd = ["io", "exit-after"];
        assert!(fits("io=journal:1,exit-after=3", &hintd));
        for spec in [
            "seed=1",
            "panic=f:1:poison",
            "panic-rate=0.1:poison",
            "net=0:0:drop",
        ] {
            assert!(!fits(spec, &hintd), "hintd must reject {spec}");
        }
        assert!(fits("net=0:0:drop", &["net"]) && !fits("proc=1:0:die", &["net"]));
        assert!(fits("", &[]), "an empty plan fits every binary");
    }

    #[test]
    fn rate_based_faults_are_deterministic_per_site() {
        let plan = FaultPlan::parse("seed=3,panic-rate=0.5:poison").unwrap();
        let draws: Vec<Option<FaultClass>> = (0..64).map(|i| plan.cell_fault("figX", i)).collect();
        let again: Vec<Option<FaultClass>> = (0..64).map(|i| plan.cell_fault("figX", i)).collect();
        assert_eq!(draws, again, "same plan + site => same decision");
        let hits = draws.iter().filter(|d| d.is_some()).count();
        assert!((10..=54).contains(&hits), "rate 0.5 hit {hits}/64 cells");
        let other_seed = FaultPlan::parse("seed=4,panic-rate=0.5:poison").unwrap();
        let other: Vec<Option<FaultClass>> =
            (0..64).map(|i| other_seed.cell_fault("figX", i)).collect();
        assert_ne!(draws, other, "seed must matter");
        // An exact cell beats the rate, wherever it sits in the spec.
        let both = FaultPlan::parse("panic-rate=1:poison,panic=figX:0:transient").unwrap();
        assert_eq!(both.cell_fault("figX", 0), Some(FaultClass::Transient));
        assert_eq!(both.cell_fault("figX", 1), Some(FaultClass::Poison));
    }

    #[test]
    fn installed_plan_panics_targeted_cells_only() {
        let faults = FaultState::new(FaultPlan::parse("panic=unit:1:transient").unwrap());
        faults.cell_attempt("unit", 0, 0); // untargeted: no panic
        faults.cell_attempt("unit", 1, 1); // transient fires on attempt 0 only
        let out: Isolated<()> = isolated(0, |attempt| faults.cell_attempt("unit", 1, attempt));
        let err = out.result.unwrap_err();
        assert_eq!(err.class, FaultClass::Transient);
        assert!(err.message.contains("unit[1]"), "{err}");
        // With one retry the transient fault heals.
        let healed = isolated(1, |attempt| {
            faults.cell_attempt("unit", 1, attempt);
            "ok"
        });
        assert_eq!(healed.result.unwrap(), "ok");
        assert_eq!(healed.attempts, 2);
    }

    #[test]
    fn io_faults_fail_first_k_attempts_on_matching_paths() {
        let mut io = FaultPlan::parse("io=grid_stats:2").unwrap().io_faults();
        assert!(
            io.inject("results/figures.md").is_none(),
            "pattern mismatch"
        );
        let first = io
            .inject("results/grid_stats.json")
            .expect("attempt 1 fails");
        assert_eq!(first.kind(), io::ErrorKind::Interrupted);
        assert!(io.inject("results/grid_stats.json").is_some(), "attempt 2");
        assert!(
            io.inject("results/grid_stats.json").is_none(),
            "attempt 3 ok"
        );
        assert!(
            IoFaults::default()
                .inject("results/grid_stats.json")
                .is_none(),
            "no plan"
        );
    }

    #[test]
    fn net_fault_plan_round_trips_the_grammar() {
        let plan =
            FaultPlan::parse("net=0:2:drop,net=1:0:delay:250,net=1:3:trunc:7,net=2:1:garble:5:255")
                .expect("valid spec");
        assert_eq!(plan.entries.len(), 4);
        assert_eq!(
            plan.net_fault(0, 2),
            Some(NetFault {
                kind: NetFaultKind::Drop,
                class: FaultClass::Transient,
            })
        );
        assert_eq!(
            plan.net_fault(1, 0).map(|f| f.kind),
            Some(NetFaultKind::Delay { ms: 250 })
        );
        assert_eq!(
            plan.net_fault(1, 3).map(|f| f.kind),
            Some(NetFaultKind::Truncate { offset: 7 })
        );
        assert_eq!(
            plan.net_fault(2, 1).map(|f| f.kind),
            Some(NetFaultKind::Garble {
                offset: 5,
                xor: 255
            })
        );
        assert_eq!(plan.net_fault(0, 0), None, "unplanned site is clean");

        assert!(FaultPlan::parse("net=0:drop").is_err(), "missing op");
        assert!(FaultPlan::parse("net=0:0:warp").is_err(), "unknown kind");
        assert!(FaultPlan::parse("net=0:0:delay").is_err(), "delay wants ms");
        assert!(
            FaultPlan::parse("net=0:0:delay:99999").is_err(),
            "delay cap enforced"
        );
        assert!(
            FaultPlan::parse("net=0:0:garble:1:0").is_err(),
            "no-op garble rejected"
        );
        assert!(
            FaultPlan::parse("net=0:0:drop:poison:x").is_err(),
            "trailing fields rejected"
        );
    }

    #[test]
    fn net_fault_class_defaults_transient_and_overrides_parse() {
        for spec in [
            "net=7:0:drop",
            "net=7:0:delay:1",
            "net=7:0:trunc:0",
            "net=7:0:garble:0:1",
        ] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert_eq!(
                plan.net_fault(7, 0).unwrap().class,
                FaultClass::Transient,
                "{spec}: wire faults default to transient"
            );
        }
        let overridden = FaultPlan::parse("net=7:0:drop:poison,net=7:1:trunc:3:fatal").unwrap();
        assert_eq!(
            overridden.net_fault(7, 0).unwrap().class,
            FaultClass::Poison
        );
        assert_eq!(overridden.net_fault(7, 1).unwrap().class, FaultClass::Fatal);
    }

    #[test]
    fn proc_fault_plan_round_trips_the_grammar() {
        let plan =
            FaultPlan::parse("proc=2:0:die:3,proc=1:0:hang:2,proc=3:1:torn,proc=4:0:garbage")
                .expect("valid spec");
        assert_eq!(plan.entries.len(), 4);
        assert_eq!(
            plan.proc_fault(2, 0),
            Some(ProcFault {
                kind: ProcFaultKind::Die,
                after_cells: 3,
            })
        );
        assert_eq!(
            plan.proc_fault(1, 0).map(|f| f.kind),
            Some(ProcFaultKind::Hang)
        );
        assert_eq!(
            plan.proc_fault(3, 1),
            Some(ProcFault {
                kind: ProcFaultKind::TornJournal,
                after_cells: 1,
            }),
            "AFTER defaults to 1"
        );
        assert_eq!(
            plan.proc_fault(4, 0).map(|f| f.kind),
            Some(ProcFaultKind::GarbageStdout)
        );
        // Keyed by (shard, attempt): a restart of shard 2 is clean.
        assert_eq!(plan.proc_fault(2, 1), None);
        assert_eq!(plan.proc_fault(5, 0), None, "unplanned shard is clean");

        assert!(FaultPlan::parse("proc=1:die").is_err(), "missing attempt");
        assert!(
            FaultPlan::parse("proc=0:0:die").is_err(),
            "shards are 1-based"
        );
        assert!(
            FaultPlan::parse("proc=1:0:explode").is_err(),
            "unknown kind"
        );
        assert!(FaultPlan::parse("proc=1:0:die:0").is_err(), "AFTER >= 1");
        assert!(
            FaultPlan::parse("proc=1:0:die:1:x").is_err(),
            "trailing fields rejected"
        );
    }

    #[test]
    fn proc_fault_lookup_is_deterministic_and_first_match_wins() {
        let plan = FaultPlan::parse("proc=1:0:die:5,proc=1:0:hang:9").unwrap();
        let a = plan.proc_fault(1, 0);
        let b = plan.proc_fault(1, 0);
        assert_eq!(a, b, "same coordinates => same fault");
        assert_eq!(a.map(|f| f.kind), Some(ProcFaultKind::Die));
        // `exit-after` competes in spec order with the keyed entries.
        let mixed = FaultPlan::parse("proc=2:0:hang:1,exit-after=4").unwrap();
        let kind = |shard, attempt| mixed.proc_fault(shard, attempt).map(|f| f.kind);
        assert_eq!(kind(2, 0), Some(ProcFaultKind::Hang));
        assert_eq!(kind(2, 1), Some(ProcFaultKind::Die));
    }

    #[test]
    fn arming_below_threshold_is_inert_and_disarm_clears() {
        let never = format!("proc=1:0:die:{},exit-after=1", u64::MAX);
        let mut faults = FaultState::new(FaultPlan::parse(&never).unwrap());
        // Threshold unreachable: the checkpoint must be a no-op.
        faults.cell_completed();
        faults.cell_completed();
        // A fault keyed to another worker stays unarmed.
        let plan = FaultPlan::parse("proc=2:0:die:1").unwrap();
        FaultState::for_worker(plan, 1, 0, None).cell_completed();
        // A fresh state has nothing armed.
        FaultState::default().cell_completed();
    }

    #[test]
    fn corruption_applies_deterministically() {
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..200 {
            let n = rng.gen_range(0usize..32);
            let mut bytes: Vec<u8> = (0..n).map(|_| (rng.next_u64() >> 56) as u8).collect();
            let original = bytes.clone();
            let corruption = Corruption::arbitrary(&mut rng, bytes.len());
            corruption.apply(&mut bytes);
            let mut again = original.clone();
            corruption.apply(&mut again);
            assert_eq!(bytes, again, "apply must be deterministic");
            if let Corruption::Truncate(n) = corruption {
                assert_eq!(bytes.len(), n.min(original.len()));
            }
        }
    }
}
