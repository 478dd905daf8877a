//! The experiment cell grid: every figure's inner (app × policy × config)
//! loop, made enumerable and executed through `sim-support`'s deterministic
//! scatter/gather pool.
//!
//! A **cell** is one independent unit of a figure — typically "one
//! application through every policy of the figure's column set". Cells are
//! scattered onto [`sim_support::pool`] workers and gathered **in canonical
//! (submission) order**, so the assembled [`FigureResult`](crate::FigureResult)
//! tables are byte-identical whatever the thread count or completion order
//! (`tests/grid_parallel.rs` pins this).
//!
//! # Determinism rules
//!
//! * Cells never share a live RNG. Each cell gets its own stream, split from
//!   a per-figure parent **by index before dispatch** ([`SimRng::split`] per
//!   cell, drawn serially), so the stream a cell sees is a pure function of
//!   `(figure id, cell index)` — not of scheduling. Reach it with
//!   [`with_cell_rng`].
//! * Audit note (`workloads::exec`): trace generation already builds a fresh
//!   `Executor` per `(app, input)` pair seeded from `structure_seed` +
//!   `input_id`, so no `&mut` RNG ever crosses a cell boundary in the figure
//!   closures today. The grid makes that a structural guarantee rather than a
//!   convention, and `tests/grid_parallel.rs` runs the cells in permuted
//!   order to prove results are order-independent.
//!
//! # Run context
//!
//! Everything a run configures or accumulates lives in one owned
//! [`RunCtx`]: the worker pool, the fault plan and [`FaultPolicy`], the
//! per-cell [hook](RunCtx::hook), and the stats and quarantine sinks. The
//! binaries build it once and pass it down explicitly, through the figure
//! functions to [`RunCtx::run_cells`]. Nothing is process-global, so two
//! runs in one process (parallel tests) cannot see each other's settings.
//!
//! # Observability
//!
//! Each cell records wall-time, simulated BTB accesses (reported by
//! [`note_accesses`]) and the pool queue depth at dispatch into
//! [`RunCtx::stats`]; the `figures` binary writes them to
//! `results/grid_stats.json` via [`RunCtx::write_grid_stats`].
//!
//! # Fault tolerance
//!
//! By default a panicking cell aborts the whole figure (the pre-PR-5
//! behaviour, which unit tests rely on). The `figures` binary instead sets
//! a [`FaultPolicy`] with `isolate = true`: each cell then runs through
//! [`sim_support::fault::isolated`], transient failures are retried up to
//! `max_retries` times (the cell RNG is re-seeded per attempt, so a retry
//! reproduces the clean-run result bit-for-bit), poison cells are recorded
//! in [`RunCtx::quarantined`] and dropped from the gathered output, and
//! fatal errors still abort. The per-cell hook fires in canonical order on
//! the gathering thread — the `figures` binary uses it to append
//! checkpoint-journal lines.

use std::cell::RefCell;
use std::path::Path;
use std::time::Instant;

use sim_support::fault::{self, FaultClass, FaultState, IoFaults, SimError};
use sim_support::{fsio, pool, SimRng, ThreadPool};

/// Seed folded with the figure id to root each figure's cell-RNG tree.
const GRID_SEED: u64 = 0x6e1d_5eed_b7b2_0221;

/// Per-cell measurement, recorded in canonical order.
#[derive(Clone, Debug)]
pub struct CellStat {
    /// Figure id (`"fig11"`, `"extra-policies"`, ...).
    pub figure: String,
    /// Human label for the cell (application or trace name).
    pub label: String,
    /// Canonical index of the cell within its figure grid.
    pub index: usize,
    /// Wall-clock the cell closure took.
    pub wall_ms: f64,
    /// Simulated BTB accesses the cell reported via [`note_accesses`]
    /// (trace records pushed through generators/simulators; approximate
    /// work units, 0 when the closure reported nothing).
    pub accesses: u64,
    /// `accesses / wall`, the cell's simulation throughput.
    pub accesses_per_sec: f64,
    /// Pool jobs still queued when this cell started (0 on the serial path).
    pub queue_depth: usize,
    /// Attempts the cell took (1 unless a transient fault was retried).
    pub attempts: u32,
}

/// How `run_cells` treats a failing cell. The default (`isolate = false`)
/// propagates the first panic, exactly like the pre-fault-tolerance grid.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Catch per-cell panics instead of propagating them.
    pub isolate: bool,
    /// Extra attempts granted to transiently failing cells.
    pub max_retries: u32,
}

/// A cell dropped from its figure after exhausting its options: poison, or
/// transient with the retry budget spent. Recorded in `grid_stats.json`.
#[derive(Clone, Debug)]
pub struct Quarantined {
    /// Figure id the cell belonged to.
    pub figure: String,
    /// Human label for the cell.
    pub label: String,
    /// Canonical index of the cell within its figure grid.
    pub index: usize,
    /// Final failure class (never `Fatal` — fatal aborts instead).
    pub class: FaultClass,
    /// Root-cause message from the classified failure.
    pub reason: String,
    /// Attempts executed before giving up.
    pub attempts: u32,
}

/// Per-cell outcome passed to the [hook](RunCtx::hook), in canonical order.
pub enum CellOutcome<'a> {
    /// The cell completed and its value was gathered.
    Completed(&'a CellStat),
    /// The cell was quarantined and its value dropped.
    Quarantined(&'a Quarantined),
}

/// Callback invoked once per gathered cell on the submitting thread, with
/// the run's injected-I/O state for any writes it makes.
pub type CellHook = Box<dyn FnMut(CellOutcome<'_>, &mut IoFaults) + Send>;

struct ActiveCell {
    accesses: u64,
    rng: SimRng,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveCell>> = const { RefCell::new(None) };
}

/// One run's configuration and sinks. See the [module docs](self).
pub struct RunCtx {
    /// Fault plan, injected-I/O counters, crash countdown, armed proc fault.
    pub faults: FaultState,
    /// How failing cells are treated.
    pub policy: FaultPolicy,
    /// Called once per settled cell, in canonical order, from the thread
    /// that called [`run_cells`](Self::run_cells).
    pub hook: Option<CellHook>,
    /// Completed cells, in canonical order per figure.
    pub stats: Vec<CellStat>,
    /// Cells dropped from their figure (plus any a `--resume` re-surfaces).
    pub quarantined: Vec<Quarantined>,
    /// Serial path only: visit cells in reverse index order. Gathered
    /// output must not change — the permuted-schedule regression hook of
    /// `tests/grid_parallel.rs`.
    pub reverse_serial: bool,
    pool: Option<ThreadPool>,
}

impl Default for RunCtx {
    /// A fault-free, propagate-panics run at the width `SIM_THREADS` (or
    /// the machine) asks for.
    fn default() -> Self {
        Self::new(pool::resolve_threads(None))
    }
}

impl RunCtx {
    /// A fault-free, propagate-panics run on `threads` workers; 1 (or 0)
    /// runs every cell serially on the calling thread.
    pub fn new(threads: usize) -> Self {
        Self {
            faults: FaultState::default(),
            policy: FaultPolicy::default(),
            hook: None,
            stats: Vec::new(),
            quarantined: Vec::new(),
            reverse_serial: false,
            pool: (threads > 1).then(|| ThreadPool::new(threads)),
        }
    }

    /// Worker threads cells run on (1 = serial).
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, ThreadPool::threads)
    }

    /// The run's pool, `None` on the serial path.
    pub fn pool(&self) -> Option<&ThreadPool> {
        self.pool.as_ref()
    }

    /// Runs one figure's cells through the run's pool and gathers results
    /// in canonical order. `label` names each cell for [`RunCtx::stats`];
    /// `f` is the cell body. Without a pool this is a plain serial loop.
    pub fn run_cells<I, T, L, F>(&mut self, figure: &str, items: &[I], label: L, f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        L: Fn(&I) -> String + Sync,
        F: Fn(&I) -> T + Sync,
    {
        // Split one private stream per cell up front, serially, so cell i's
        // stream depends only on (figure, i) — never on execution order.
        let mut parent = SimRng::seed_from_u64(GRID_SEED ^ fault::fnv1a(figure.as_bytes()));
        let seeds: Vec<u64> = items.iter().map(|_| parent.next_u64()).collect();
        let policy = self.policy;
        let reverse = self.reverse_serial;
        let faults = &self.faults;
        let pool = self.pool.as_ref();

        let run_one = |index: usize, item: &I, attempt: u32| -> (T, CellStat) {
            // Injection checkpoint: panics with a SimError payload when the
            // run's fault plan targets this cell. No-op without a plan.
            faults.cell_attempt(figure, index, attempt);
            let queue_depth = pool.map_or(0, ThreadPool::queued);
            // Save/restore rather than set/clear: a worker that help-runs other
            // queued cells while one of its own waits must not lose its context.
            // Re-seeding from seeds[index] on every attempt keeps a retried
            // cell's stream identical to a clean first run.
            let previous = ACTIVE.replace(Some(ActiveCell {
                accesses: 0,
                rng: SimRng::seed_from_u64(seeds[index]),
            }));
            let start = Instant::now();
            let value = f(item);
            let wall = start.elapsed();
            let cell = ACTIVE.replace(previous).expect("cell context intact");
            let wall_ms = wall.as_secs_f64() * 1e3;
            let accesses_per_sec = if wall.as_secs_f64() > 0.0 {
                cell.accesses as f64 / wall.as_secs_f64()
            } else {
                0.0
            };
            let stat = CellStat {
                figure: figure.to_string(),
                label: label(item),
                index,
                wall_ms,
                accesses: cell.accesses,
                accesses_per_sec,
                queue_depth,
                attempts: attempt + 1,
            };
            (value, stat)
        };

        // A panicking cell leaves the ACTIVE context of the unwound attempt
        // behind on its worker thread; the save/restore in run_one only runs
        // to completion on non-panicking attempts. That is safe — the next
        // attempt (or the next cell on that worker) replaces the slot
        // wholesale — but it is why run_one must never observe a previous
        // attempt's context.
        let gathered: Vec<Result<(T, CellStat), (SimError, u32)>> = if policy.isolate {
            let isolated = match pool {
                Some(p) => p.try_par_map(items, policy.max_retries, |i, item, attempt| {
                    run_one(i, item, attempt)
                }),
                None => serial(items.len(), reverse, |index| {
                    fault::isolated(policy.max_retries, |attempt| {
                        run_one(index, &items[index], attempt)
                    })
                }),
            };
            isolated
                .into_iter()
                .map(|cell| {
                    let attempts = cell.attempts;
                    match cell.result {
                        Ok((value, mut stat)) => {
                            stat.attempts = attempts;
                            Ok((value, stat))
                        }
                        Err(err) => Err((err, attempts)),
                    }
                })
                .collect()
        } else {
            let plain = match pool {
                Some(p) => p.par_map(items, |i, item| run_one(i, item, 0)),
                None => serial(items.len(), reverse, |index| {
                    run_one(index, &items[index], 0)
                }),
            };
            plain.into_iter().map(Ok).collect()
        };

        // Gather: canonical (submission) order. The hook and the crash
        // checkpoint run here, on this thread, so journal lines and simulated
        // crash points are as deterministic as the results themselves.
        let mut values = Vec::with_capacity(gathered.len());
        for (index, outcome) in gathered.into_iter().enumerate() {
            match outcome {
                Ok((value, stat)) => {
                    if let Some(hook) = self.hook.as_mut() {
                        hook(CellOutcome::Completed(&stat), &mut self.faults.io);
                    }
                    self.stats.push(stat);
                    values.push(value);
                }
                Err((err, _)) if err.class == FaultClass::Fatal => {
                    // Fatal means the run is compromised; re-raise rather than
                    // pretend a partial grid is a result.
                    std::panic::panic_any(err);
                }
                Err((err, attempts)) => {
                    let record = Quarantined {
                        figure: figure.to_string(),
                        label: label(&items[index]),
                        index,
                        class: err.class,
                        reason: err.message,
                        attempts,
                    };
                    if let Some(hook) = self.hook.as_mut() {
                        hook(CellOutcome::Quarantined(&record), &mut self.faults.io);
                    }
                    self.quarantined.push(record);
                }
            }
            // Crash checkpoint for `exit-after=` / `proc=` process faults.
            self.faults.cell_completed();
        }
        values
    }

    /// Writes [`RunCtx::stats`] and [`RunCtx::quarantined`] plus run-level
    /// context as JSON — the observability artifact
    /// `results/grid_stats.json`.
    pub fn write_grid_stats(
        &mut self,
        path: &Path,
        total_wall_ms: f64,
        notes: &[String],
    ) -> std::io::Result<()> {
        let escape = fsio::json_escape;
        let (cells, quarantined) = (&self.stats, &self.quarantined);
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"threads\": {},\n", self.threads()));
        out.push_str(&format!("  \"total_wall_ms\": {total_wall_ms:.3},\n"));
        let cell_wall: f64 = cells.iter().map(|c| c.wall_ms).sum();
        out.push_str(&format!("  \"cell_wall_ms\": {cell_wall:.3},\n"));
        out.push_str(&format!("  \"cells_run\": {},\n", cells.len()));
        out.push_str(&format!(
            "  \"cells_quarantined\": {},\n",
            quarantined.len()
        ));
        if let Some(pool) = &self.pool {
            let stats = pool.stats();
            out.push_str(&format!(
                "  \"pool\": {{ \"threads\": {}, \"steals\": {}, \"executed\": {}, \
                 \"queue_depth_hwm\": {} }},\n",
                stats.threads, stats.steals, stats.executed, stats.depth_hwm
            ));
        }
        out.push_str("  \"notes\": [\n");
        for (i, note) in notes.iter().enumerate() {
            let comma = if i + 1 < notes.len() { "," } else { "" };
            out.push_str(&format!("    \"{}\"{comma}\n", escape(note)));
        }
        out.push_str("  ],\n");
        out.push_str("  \"quarantined\": [\n");
        for (i, q) in quarantined.iter().enumerate() {
            let comma = if i + 1 < quarantined.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{ \"figure\": \"{}\", \"label\": \"{}\", \"index\": {}, \
                 \"class\": \"{}\", \"reason\": \"{}\", \"attempts\": {} }}{comma}\n",
                escape(&q.figure),
                escape(&q.label),
                q.index,
                q.class,
                escape(&q.reason),
                q.attempts
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"cells\": [\n");
        for (i, cell) in cells.iter().enumerate() {
            let comma = if i + 1 < cells.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{ \"figure\": \"{}\", \"label\": \"{}\", \"index\": {}, \
                 \"wall_ms\": {:.3}, \"accesses\": {}, \"accesses_per_sec\": {:.0}, \
                 \"queue_depth\": {}, \"attempts\": {} }}{comma}\n",
                escape(&cell.figure),
                escape(&cell.label),
                cell.index,
                cell.wall_ms,
                cell.accesses,
                cell.accesses_per_sec,
                cell.queue_depth,
                cell.attempts
            ));
        }
        out.push_str("  ]\n}\n");
        // Atomic: a run killed mid-write must never leave a truncated stats file.
        fsio::write_atomic(path, out.as_bytes(), &mut self.faults.io)
    }
}

/// Credits `n` simulated accesses to the currently running cell. A no-op
/// outside a cell (unit tests calling figure helpers directly).
pub fn note_accesses(n: u64) {
    ACTIVE.with_borrow_mut(|active| {
        if let Some(cell) = active {
            cell.accesses += n;
        }
    });
}

/// Runs `f` with the current cell's private RNG stream — a pure function of
/// `(figure id, cell index)`, never shared between cells. Outside a cell a
/// fixed fallback stream is used so callers stay deterministic in unit tests.
pub fn with_cell_rng<R>(f: impl FnOnce(&mut SimRng) -> R) -> R {
    ACTIVE.with_borrow_mut(|active| match active {
        Some(cell) => f(&mut cell.rng),
        None => f(&mut SimRng::seed_from_u64(GRID_SEED)),
    })
}

/// Runs `f` over the cell indices `0..n` on this thread — in reverse order
/// when `reverse` — and returns the results in index order.
fn serial<R>(n: usize, reverse: bool, f: impl FnMut(usize) -> R) -> Vec<R> {
    if !reverse {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<R> = (0..n).rev().map(f).collect();
    out.reverse();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_support::FaultPlan;

    fn isolating(max_retries: u32, plan: &str, threads: usize) -> RunCtx {
        let mut ctx = RunCtx::new(threads);
        ctx.policy = FaultPolicy {
            isolate: true,
            max_retries,
        };
        ctx.faults = FaultState::new(FaultPlan::parse(plan).unwrap());
        ctx
    }

    #[test]
    fn cells_gather_in_canonical_order() {
        let items: Vec<usize> = (0..12).collect();
        for threads in [1, 3] {
            let out = RunCtx::new(threads).run_cells(
                "unit-grid",
                &items,
                |i| format!("cell{i}"),
                |&i| i * 3,
            );
            assert_eq!(out, (0..12).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn reversed_serial_order_gathers_identically() {
        let items: Vec<usize> = (0..9).collect();
        let run = |reverse_serial| {
            let mut ctx = RunCtx::new(1);
            ctx.reverse_serial = reverse_serial;
            ctx.run_cells(
                "unit-rev",
                &items,
                |i| i.to_string(),
                |&i| with_cell_rng(|rng| rng.next_u64()).wrapping_add(i as u64),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn cell_rng_is_a_function_of_figure_and_index() {
        let items = [0usize, 1, 2];
        let mut ctx = RunCtx::new(1);
        let mut draw = |figure| {
            ctx.run_cells(
                figure,
                &items,
                |i| i.to_string(),
                |_| with_cell_rng(|rng| rng.next_u64()),
            )
        };
        let a = draw("unit-rng");
        let b = draw("unit-rng");
        let other = draw("unit-rng2");
        assert_eq!(a, b, "same figure + index => same stream");
        assert_ne!(a, other, "different figure => different streams");
        assert_ne!(a[0], a[1], "cells never share a stream");
    }

    #[test]
    fn isolation_quarantines_poison_and_keeps_siblings() {
        let mut ctx = isolating(1, "panic=unit-iso:2:poison", 1);
        let items: Vec<usize> = (0..5).collect();
        let clean_minus_cell2: Vec<usize> = vec![0, 10, 30, 40];
        let out = ctx.run_cells("unit-iso", &items, |i| i.to_string(), |&i| i * 10);
        assert_eq!(out, clean_minus_cell2, "only the poison cell is dropped");
        assert_eq!(ctx.quarantined.len(), 1, "{:?}", ctx.quarantined);
        let record = &ctx.quarantined[0];
        assert_eq!(record.index, 2);
        assert_eq!(record.class, FaultClass::Poison);
        assert_eq!(record.attempts, 1, "poison is not retried");
        assert!(record.reason.contains("injected"), "{}", record.reason);
    }

    #[test]
    fn isolation_retries_transient_to_success() {
        let items: Vec<usize> = (0..3).collect();
        let body = |&i: &usize| with_cell_rng(|rng| rng.next_u64()).wrapping_add(i as u64);
        let mut ctx = isolating(1, "panic=unit-retry:1:transient", 1);
        let out = ctx.run_cells("unit-retry", &items, |i| i.to_string(), body);
        let clean = RunCtx::new(1).run_cells("unit-retry", &items, |i| i.to_string(), body);
        assert_eq!(out, clean, "a retried cell reproduces its clean value");
        let attempts: Vec<u32> = ctx.stats.iter().map(|s| s.attempts).collect();
        assert_eq!(attempts, [1, 2, 1], "one transient fault, one retry");
    }

    #[test]
    fn without_isolation_panics_still_propagate() {
        // simlint: allow(S03) -- asserts the default policy lets panics escape
        let result = std::panic::catch_unwind(|| {
            RunCtx::new(1).run_cells(
                "unit-prop",
                &[0usize, 1],
                |i| i.to_string(),
                |&i| {
                    assert!(i != 1, "cell 1 exploded");
                    i
                },
            )
        });
        assert!(result.is_err(), "default policy must propagate");
    }

    #[test]
    fn accesses_are_credited_to_the_running_cell() {
        let mut ctx = RunCtx::new(1);
        let items = [10u64, 20];
        ctx.run_cells(
            "unit-acc",
            &items,
            |i| i.to_string(),
            |&n| {
                note_accesses(n);
                n
            },
        );
        assert_eq!(ctx.stats.len(), 2);
        assert_eq!(ctx.stats[0].accesses, 10);
        assert_eq!(ctx.stats[1].accesses, 20);
        assert_eq!(ctx.stats[0].index, 0);
    }

    /// Two runs with different fault plans, policies and widths execute
    /// side by side on two threads, on the same figure id; a barrier starts
    /// every round of both together. Each must see only its own faults,
    /// quarantine records, stats and attempts — which process-global run
    /// state could not guarantee.
    #[test]
    fn concurrent_runs_keep_their_state_apart() {
        const ROUNDS: usize = 20;
        let items: Vec<usize> = (0..6).collect();
        let body = |&i: &usize| with_cell_rng(|rng| rng.next_u64()).wrapping_add(i as u64);
        let clean = RunCtx::new(1).run_cells("race", &items, |i| i.to_string(), body);
        let start = std::sync::Barrier::new(2);
        let run = |mut ctx: RunCtx| {
            let outputs: Vec<Vec<u64>> = (0..ROUNDS)
                .map(|_| {
                    start.wait();
                    ctx.run_cells("race", &items, |i| i.to_string(), body)
                })
                .collect();
            (ctx, outputs)
        };
        let (healing, poisoned) = std::thread::scope(|s| {
            let healing = s.spawn(|| run(isolating(1, "panic=race:1:transient", 1)));
            let poisoned = s.spawn(|| run(isolating(0, "panic=race:2:poison", 3)));
            (healing.join().unwrap(), poisoned.join().unwrap())
        });

        let (ctx, outputs) = healing;
        assert!(outputs.iter().all(|out| *out == clean), "retries heal");
        assert!(ctx.quarantined.is_empty(), "{:?}", ctx.quarantined);
        assert_eq!(ctx.stats.len(), ROUNDS * items.len());
        for stat in &ctx.stats {
            let expect = if stat.index == 1 { 2 } else { 1 };
            assert_eq!(stat.attempts, expect, "{stat:?}");
        }

        let (ctx, outputs) = poisoned;
        let mut without_cell2 = clean.clone();
        without_cell2.remove(2);
        assert!(outputs.iter().all(|out| *out == without_cell2));
        assert_eq!(ctx.quarantined.len(), ROUNDS);
        assert!(ctx
            .quarantined
            .iter()
            .all(|q| q.index == 2 && q.class == FaultClass::Poison && q.attempts == 1));
        assert_eq!(ctx.stats.len(), ROUNDS * (items.len() - 1));
        assert!(ctx.stats.iter().all(|s| s.attempts == 1 && s.index != 2));
    }
}
