//! Parallel-vs-serial equivalence: the figure grid must produce
//! **byte-identical** `FigureResult` output whatever the worker count, and
//! whatever order the cells actually execute in. This is the test that lets
//! `figures --threads N` exist at all without weakening PR 1's determinism
//! guarantees.
//!
//! Every run here owns its [`RunCtx`] — width, hook and stats sinks — so
//! these tests run in parallel with each other and with the rest of the
//! suite without any serialization.

use sim_support::fault::fnv1a;
use sim_support::{forall, IoFaults};
use thermometer_bench::{grid, journal, merge, run_figure, shard, Journal, RunCtx, Scale};

fn render(ctx: &mut RunCtx, ids: &[&str], scale: &Scale) -> String {
    let mut out = String::new();
    for id in ids {
        for fig in run_figure(ctx, id, scale).expect("known figure id") {
            out.push_str(&fig.to_markdown());
        }
    }
    out
}

#[test]
fn four_threads_match_one_thread_byte_for_byte() {
    let scale = Scale::smoke();
    // Per-app figures plus fig17 (per-trace suite grid) so both grid entry
    // points are exercised, plus the extension suites whose cells run
    // several frontends each (trrip head-to-head, hierarchy sweep).
    let ids = ["fig01", "fig09", "fig15", "fig17", "trrip", "hierarchy"];

    let serial = render(&mut RunCtx::new(1), &ids, &scale);
    let parallel = render(&mut RunCtx::new(4), &ids, &scale);

    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "--threads 4 output differs from --threads 1"
    );
    assert_eq!(
        fnv1a(serial.as_bytes()),
        fnv1a(parallel.as_bytes()),
        "golden hashes differ"
    );
}

/// Regression for the PRNG-sharing hazard: executing the same cells in
/// **reverse** order must gather the same results, which is only true if no
/// RNG (or any other mutable state) is threaded across cells.
#[test]
fn permuted_cell_execution_order_is_invisible() {
    let scale = Scale::smoke();
    let ids = ["fig01", "fig06"];

    let mut reversed_ctx = RunCtx::new(1);
    reversed_ctx.reverse_serial = true;
    let forward = render(&mut RunCtx::new(1), &ids, &scale);
    let reversed = render(&mut reversed_ctx, &ids, &scale);
    assert_eq!(
        forward, reversed,
        "cell results depend on execution order — a cross-cell RNG or \
         shared mutable state leaked into the grid"
    );

    // The per-cell RNG streams themselves are order-independent too.
    let items: Vec<usize> = (0..8).collect();
    let draw = |_: &usize| grid::with_cell_rng(|rng| rng.next_u64());
    let a = RunCtx::new(1).run_cells("order-probe", &items, |i| i.to_string(), draw);
    let b = reversed_ctx.run_cells("order-probe", &items, |i| i.to_string(), draw);
    assert_eq!(a, b, "cell RNG streams depend on execution order");
}

/// The `--shard i/N` partition the sweep supervisor relies on: for any
/// list length and any N in 1..=8, the shards are **disjoint** (no index
/// appears twice), **exhaustive** (every index appears), and **stable**
/// (recomputing yields the same partition).
#[test]
fn shard_partitions_are_disjoint_exhaustive_and_stable() {
    forall!(
        cases: 96,
        gen: |rng| {
            let len = rng.gen_range(0..48u64) as usize;
            let n = rng.gen_range(1..=8u64) as usize;
            (len, n)
        },
        prop: |&(len, n): &(usize, usize)| {
            let mut seen = vec![0u32; len];
            for number in 1..=n {
                let indices = shard::shard_indices(len, number, n);
                assert_eq!(
                    indices,
                    shard::shard_indices(len, number, n),
                    "partition not stable for len={len}, shard {number}/{n}"
                );
                for k in indices {
                    seen[k] += 1;
                }
            }
            for (k, count) in seen.iter().enumerate() {
                assert_eq!(
                    *count, 1,
                    "index {k} covered {count} times across {n} shard(s) of {len}"
                );
            }
        },
    );
}

/// Builds the journal a `--shard number/count` worker would produce for
/// `ids`, in-process: per-cell hook lines plus hash-stamped figure commits.
fn write_shard_journal(
    dir: &std::path::Path,
    scale: &Scale,
    ids: &[String],
    number: usize,
    count: usize,
) {
    let spec = shard::ShardSpec { number, count };
    let sub = shard::shard_ids(ids, spec);
    let path = merge::shard_journal_path(dir, number);
    let journal = Journal::new(&path);
    journal
        .start(
            &journal::run_fingerprint(scale, &sub),
            &mut IoFaults::default(),
        )
        .expect("start shard journal");
    let mut ctx = RunCtx::new(1);
    let hook_journal = Journal::new(&path);
    ctx.hook = Some(Box::new(move |outcome, faults| {
        hook_journal
            .append_cell(&outcome, faults)
            .expect("journal append");
    }));
    for id in &sub {
        let mut display = String::new();
        let mut markdown = String::new();
        for fig in run_figure(&mut ctx, id, scale).expect("known figure id") {
            display.push_str(&format!("{fig}\n"));
            markdown.push_str(&fig.to_markdown());
        }
        journal
            .append_figure(id, &display, &markdown, &mut ctx.faults.io)
            .expect("commit figure");
    }
}

/// Satellite of ISSUE 10: merging shard journals is invariant to the
/// order the shards ran in — byte-for-byte. Shards are produced in
/// canonical order and in a permuted order into two directories; the two
/// merges (journal bytes, report, display) must be identical.
#[test]
fn merge_of_permuted_shard_order_is_byte_identical() {
    let scale = Scale::smoke();
    let ids: Vec<String> = ["fig01", "fig06", "fig09", "fig15", "fig19"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let shards = 3;
    let base = std::env::temp_dir().join("grid-parallel-merge-tests");
    let canonical = base.join("canonical");
    let permuted = base.join("permuted");
    for dir in [&canonical, &permuted] {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("scratch dir");
    }

    for number in 1..=shards {
        write_shard_journal(&canonical, &scale, &ids, number, shards);
    }
    for number in [2, 3, 1] {
        write_shard_journal(&permuted, &scale, &ids, number, shards);
    }

    let a = merge::merge_shards(&scale, &ids, shards, &canonical);
    let b = merge::merge_shards(&scale, &ids, shards, &permuted);
    assert!(
        a.is_complete(),
        "canonical merge incomplete: {:?}",
        a.missing
    );
    assert!(
        b.is_complete(),
        "permuted merge incomplete: {:?}",
        b.missing
    );
    assert_eq!(a.journal_bytes(), b.journal_bytes(), "journal bytes differ");
    assert_eq!(a.report(&scale), b.report(&scale), "reports differ");
    assert_eq!(a.display, b.display, "display output differs");
    // And the merged journal is not a near-miss: it replays through the
    // normal resume path under the full-run fingerprint.
    let merged_path = canonical.join("merged.jsonl");
    std::fs::write(&merged_path, a.journal_bytes()).expect("write merged journal");
    let loaded = Journal::new(&merged_path)
        .load(&journal::run_fingerprint(&scale, &ids))
        .expect("read merged journal")
        .expect("fingerprint matches");
    assert_eq!(
        loaded.figures.len(),
        ids.len(),
        "merged journal must replay fully"
    );
}

/// The run's stats sink records one stat per cell, in canonical order,
/// with non-trivial work accounting from the trace helpers.
#[test]
fn grid_stats_cover_every_cell_in_canonical_order() {
    let scale = Scale::smoke();

    let mut ctx = RunCtx::new(2);
    render(&mut ctx, &["fig01"], &scale);
    let stats = &ctx.stats;
    assert_eq!(stats.len(), scale.apps.len(), "one cell per app");
    for (i, stat) in stats.iter().enumerate() {
        assert_eq!(stat.index, i, "stats gathered out of canonical order");
        assert_eq!(stat.label, scale.apps[i].name);
        assert!(stat.accesses > 0, "trace helpers must credit work");
        assert!(stat.wall_ms >= 0.0);
    }
}
