//! Cell-level fault tolerance: with isolation enabled, an injected panic in
//! one grid cell must not take down its siblings — the poisoned cell is
//! quarantined with a reason, transient faults retry to an identical result,
//! and every surviving cell's numbers are byte-identical to a fault-free
//! run. Each test owns its [`RunCtx`] (fault plan, policy, width, sinks),
//! so the tests run in parallel without serialization.

use sim_support::{fault, FaultPlan, FaultState, IoFaults};
use thermometer_bench::{run_figure, FaultPolicy, RunCtx, Scale};

/// A `threads`-wide run that isolates failing cells under `plan`.
fn faulty_ctx(threads: usize, plan: &str, max_retries: u32) -> RunCtx {
    let mut ctx = RunCtx::new(threads);
    ctx.faults = FaultState::new(FaultPlan::parse(plan).expect("valid plan"));
    ctx.policy = FaultPolicy {
        isolate: true,
        max_retries,
    };
    ctx
}

fn fig01_markdown(ctx: &mut RunCtx, scale: &Scale) -> String {
    run_figure(ctx, "fig01", scale).expect("known figure id")[0].to_markdown()
}

fn fig01_rows(ctx: &mut RunCtx, scale: &Scale) -> Vec<(String, Vec<u64>)> {
    let figs = run_figure(ctx, "fig01", scale).expect("known figure id");
    figs[0]
        .rows
        .iter()
        .map(|r| {
            // Bit-exact comparison: f64 equality would paper over NaN and
            // signed-zero drift.
            (
                r.label.clone(),
                r.values.iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

#[test]
fn poison_quarantines_one_cell_and_siblings_are_bit_identical() {
    fault::silence_injected_panics();
    let scale = Scale::smoke();

    let reference = fig01_rows(&mut RunCtx::new(2), &scale);
    assert_eq!(reference.len(), scale.apps.len() + 1, "apps + Avg row");

    let victim = scale.apps[1].name.clone();
    let mut ctx = faulty_ctx(2, "seed=1,panic=fig01:1:poison", 1);
    let survived = fig01_rows(&mut ctx, &scale);

    // Exactly the victim cell is quarantined, with an attributable reason.
    let quarantined = &ctx.quarantined;
    assert_eq!(quarantined.len(), 1, "{quarantined:?}");
    let q = &quarantined[0];
    assert_eq!(
        (q.figure.as_str(), q.index, &q.label),
        ("fig01", 1, &victim)
    );
    assert_eq!(q.class.name(), "poison");
    assert!(
        q.reason.contains("fig01[1]"),
        "reason must locate the cell: {}",
        q.reason
    );

    // Siblings survive, in order, bit-identical to the fault-free run.
    // (The Avg row legitimately changes — it now averages fewer rows.)
    let expect: Vec<_> = reference
        .iter()
        .filter(|(label, _)| *label != victim && label != "Avg")
        .cloned()
        .collect();
    let got: Vec<_> = survived
        .iter()
        .filter(|(label, _)| label != "Avg")
        .cloned()
        .collect();
    assert_eq!(got, expect, "surviving cells drifted under fault injection");
}

#[test]
fn transient_fault_retries_to_a_byte_identical_figure() {
    fault::silence_injected_panics();
    let scale = Scale::smoke();

    let reference = fig01_markdown(&mut RunCtx::new(2), &scale);

    // The transient fires on attempt 0 only; one retry must fully recover.
    let mut ctx = faulty_ctx(2, "seed=1,panic=fig01:0:transient", 2);
    let retried = fig01_markdown(&mut ctx, &scale);

    assert_eq!(
        retried, reference,
        "a retried transient must not perturb the figure"
    );
    assert!(ctx.quarantined.is_empty(), "nothing to quarantine");
    let stats = &ctx.stats;
    let cell = stats
        .iter()
        .find(|s| s.figure == "fig01" && s.index == 0)
        .expect("cell 0 recorded");
    assert_eq!(cell.attempts, 2, "one injected transient, one retry");
    assert!(
        stats
            .iter()
            .filter(|s| s.figure == "fig01" && s.index != 0)
            .all(|s| s.attempts == 1),
        "siblings must not retry"
    );
}

/// ISSUE 10 satellite regression: a torn (truncated, non-newline-
/// terminated) final journal line — the on-disk state a power loss or
/// `kill -9` mid-`write(2)` leaves behind, possibly with invalid UTF-8 —
/// is treated as **uncommitted**, never as a replay error, and the
/// journal's owner truncates it so the next append lands cleanly.
#[test]
fn torn_journal_tail_is_uncommitted_not_an_error() {
    use std::io::Write as _;
    let dir = std::env::temp_dir().join("fault-tolerance-tests");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("torn-tail.jsonl");
    let _ = std::fs::remove_file(&path);

    let faults = &mut IoFaults::default();
    let journal = thermometer_bench::Journal::new(&path);
    journal.start("fp-torn", faults).expect("start");
    journal
        .append_figure("fig01", "display one\n", "| a |\n", faults)
        .expect("commit fig01");
    // Tear the tail mid-record, with an invalid-UTF-8 byte for good
    // measure — exactly what ProcFaultKind::TornJournal injects.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("reopen journal");
    f.write_all(b"{\"kind\":\"figure\",\"figure\":\"t\xFForn")
        .expect("tear tail");
    drop(f);

    // Replay: the torn bytes are invisible, fig01 survives.
    let loaded = journal
        .load("fp-torn")
        .expect("torn tail must not error")
        .expect("fingerprint still matches");
    assert_eq!(loaded.figures.len(), 1, "committed figure lost");
    assert_eq!(loaded.figures[0].id, "fig01");

    // Load repaired the tail (owner semantics): the next append starts a
    // fresh line and both commits replay.
    journal
        .append_figure("fig02", "display two\n", "| b |\n", faults)
        .expect("append after repair");
    let reloaded = journal
        .load("fp-torn")
        .expect("reload")
        .expect("fingerprint matches");
    assert_eq!(
        reloaded
            .figures
            .iter()
            .map(|f| f.id.as_str())
            .collect::<Vec<_>>(),
        vec!["fig01", "fig02"],
        "append after torn tail must not fuse records"
    );
}

#[test]
fn quarantine_outcome_is_thread_count_invariant() {
    fault::silence_injected_panics();
    let scale = Scale::smoke();

    let run = |threads: usize| {
        let mut ctx = faulty_ctx(threads, "seed=7,panic=fig01:2:poison", 1);
        let markdown = fig01_markdown(&mut ctx, &scale);
        (markdown, ctx.quarantined.len())
    };

    let (serial, serial_q) = run(1);
    let (parallel, parallel_q) = run(4);
    assert_eq!(serial_q, 1);
    assert_eq!(parallel_q, 1);
    assert_eq!(
        serial, parallel,
        "quarantine decisions must not depend on worker count"
    );
}
