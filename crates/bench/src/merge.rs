//! Recombining shard journals into serial-identical output.
//!
//! `figures sweep` splits a run across worker processes, each journaling
//! its own shard (`shard-<i>.jsonl`). This module reads those journals
//! back and reassembles the three artifacts a serial `figures` run
//! produces — stdout display, the markdown report, and the checkpoint
//! journal — **byte-identically** when every figure committed.
//!
//! Two verification layers gate the merge (ISSUE 10's contract):
//!
//! * **cell coverage** — each shard journal must carry a committed figure
//!   record for every id the shard owns; anything else is reported as
//!   missing with a reason rather than silently dropped, and
//! * **content hashes** — a figure commit whose [`journal::figure_hash`]
//!   disagrees with its bytes is treated as never committed.
//!
//! Cell lines are attributed *positionally* (everything journaled since
//! the previous commit belongs to the next figure record), because grid
//! figure strings are allowed to differ from journal ids (`fig19` commits
//! cells from the `fig19-entries` and `fig19-ways` grids). A restarted
//! worker re-journals the cells of the figure it died in, so duplicates
//! are deduped by `(figure, index)` keeping the **last** occurrence — the
//! complete, final emission — which restores the exact serial sequence.
//!
//! When figures are missing the merge degrades gracefully: the report is
//! stamped `incomplete` with every missing figure listed, and the merged
//! journal still carries the full-run fingerprint, so a later serial
//! `figures --resume` can finish exactly the quarantined remainder.

use std::path::{Path, PathBuf};

use sim_support::fsio;

use crate::journal::{self, figure_hash, run_fingerprint};
use crate::shard::{shard_ids, ShardSpec};
use crate::Scale;

/// One figure commit recovered from a shard journal.
#[derive(Clone, Debug)]
pub struct CommittedFigure {
    /// Journal figure id (`"fig01"`, …).
    pub id: String,
    /// This figure's cell lines, deduped, in canonical order — verbatim
    /// journal bytes.
    pub cell_lines: Vec<String>,
    /// The verbatim figure-commit line.
    pub figure_line: String,
    /// Exact stdout bytes the worker printed for this figure.
    pub display: String,
    /// Exact markdown section the worker rendered.
    pub markdown: String,
}

/// Everything recovered from one shard journal.
#[derive(Debug, Default)]
pub struct ShardScan {
    /// Committed figures in journal order.
    pub figures: Vec<CommittedFigure>,
}

impl ShardScan {
    /// The last commit for `id`, if the shard journaled one. Last wins so
    /// a (never expected, but possible) duplicate commit resolves to the
    /// newest bytes, matching what `--resume` would replay.
    pub fn figure(&self, id: &str) -> Option<&CommittedFigure> {
        self.figures.iter().rev().find(|f| f.id == id)
    }
}

/// A figure the merge could not recover, with enough context to act on.
#[derive(Clone, Debug)]
pub struct MissingFigure {
    /// Journal figure id.
    pub id: String,
    /// The shard that owned it.
    pub shard: ShardSpec,
    /// Why it is missing (scan error, no commit, hash mismatch, …).
    pub reason: String,
}

/// The reassembled run: serial-identical artifacts plus the gap list.
#[derive(Debug, Default)]
pub struct MergeOutcome {
    /// Concatenated figure displays, canonical order — byte-identical to a
    /// serial run's stdout when `missing` is empty.
    pub display: String,
    /// Per-figure markdown sections, canonical order.
    pub sections: Vec<String>,
    /// The merged journal lines (header first) — byte-identical to a
    /// serial run's journal when `missing` is empty.
    pub journal_lines: Vec<String>,
    /// Figures that could not be recovered, canonical order.
    pub missing: Vec<MissingFigure>,
}

impl MergeOutcome {
    /// Whether every requested figure was recovered.
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty()
    }

    /// The markdown report. Complete merges render the exact bytes a
    /// serial `figures --markdown` run writes; incomplete merges insert a
    /// `Status: incomplete` stamp naming every missing figure right after
    /// the prologue.
    pub fn report(&self, scale: &Scale) -> String {
        let mut out = report_prologue(scale);
        if !self.missing.is_empty() {
            out.push_str(&format!(
                "> **Status: incomplete** — {} figure(s) missing after shard quarantine.\n>\n",
                self.missing.len()
            ));
            for m in &self.missing {
                out.push_str(&format!(
                    "> - `{}` (shard {}): {}\n",
                    m.id, m.shard, m.reason
                ));
            }
            out.push('\n');
        }
        for section in &self.sections {
            out.push_str(section);
        }
        out
    }

    /// The merged journal file contents (one trailing newline per line,
    /// exactly like `append_line_durable` writes them).
    pub fn journal_bytes(&self) -> String {
        let mut out = String::new();
        for line in &self.journal_lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// The report header every `figures` markdown artifact starts with —
/// shared with the serial path so sweep output can be byte-compared.
pub fn report_prologue(scale: &Scale) -> String {
    format!(
        "# Regenerated figures\n\nScale: {} records/app across {} applications; \
         CBP-5 suite {}x{}; IPC-1 suite {}x{}.\n\n",
        scale.trace_len,
        scale.apps.len(),
        scale.cbp_count,
        scale.cbp_len,
        scale.ipc1_count,
        scale.ipc1_len
    )
}

/// Canonical on-disk location of one shard's journal inside a sweep dir.
pub fn shard_journal_path(dir: &Path, number: usize) -> PathBuf {
    dir.join(format!("shard-{number}.jsonl"))
}

/// Canonical on-disk location of one shard's grid-stats file.
pub fn shard_stats_path(dir: &Path, number: usize) -> PathBuf {
    dir.join(format!("shard-{number}_stats.json"))
}

/// Reads one shard journal and recovers its committed figures.
///
/// Read-only by design: the journal may belong to a still-running worker
/// (the supervisor calls this for coverage checks), so torn tails are
/// tolerated — [`fsio::read_journal_lines`] drops them — never repaired.
pub fn scan_shard_journal(path: &Path, fingerprint: &str) -> Result<ShardScan, String> {
    let lines = fsio::read_journal_lines(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let Some(header) = lines.first() else {
        return Err(format!("{}: no journal header", path.display()));
    };
    if !journal::header_matches(header, fingerprint) {
        return Err(format!(
            "{}: journal header does not match the shard's run fingerprint",
            path.display()
        ));
    }
    let mut scan = ShardScan::default();
    // Cells journal ahead of their figure record; everything since the
    // previous commit belongs to the next one (positional attribution).
    let mut pending: Vec<String> = Vec::new();
    for line in &lines[1..] {
        match journal::field_str(line, "kind").as_deref() {
            Some("cell") => pending.push(line.clone()),
            Some("figure") => {
                let (Some(id), Some(display), Some(markdown), Some(hash)) = (
                    journal::field_str(line, "id"),
                    journal::field_str(line, "display"),
                    journal::field_str(line, "markdown"),
                    journal::field_u64(line, "hash"),
                ) else {
                    // A malformed commit: its cells recompute elsewhere.
                    pending.clear();
                    continue;
                };
                if hash != figure_hash(&display, &markdown) {
                    pending.clear();
                    continue;
                }
                scan.figures.push(CommittedFigure {
                    id,
                    cell_lines: dedupe_cells(std::mem::take(&mut pending)),
                    figure_line: line.clone(),
                    display,
                    markdown,
                });
            }
            _ => {}
        }
    }
    // Trailing cells with no commit are uncommitted work — dropped, the
    // owning figure is recomputed or reported missing.
    Ok(scan)
}

/// Dedupes one figure's cell lines by `(figure, index)`, keeping the
/// **last** occurrence of each in positional order. A worker that died
/// mid-figure and resumed re-journals the whole figure, so the last
/// occurrences are exactly the final complete emission — the serial
/// sequence.
fn dedupe_cells(lines: Vec<String>) -> Vec<String> {
    let key = |line: &str| {
        (
            journal::field_str(line, "figure"),
            journal::field_u64(line, "index"),
        )
    };
    let mut keep = vec![true; lines.len()];
    for (i, line) in lines.iter().enumerate() {
        let k = key(line);
        if lines[i + 1..].iter().any(|later| key(later) == k) {
            keep[i] = false;
        }
    }
    lines
        .into_iter()
        .zip(keep)
        .filter_map(|(line, k)| k.then_some(line))
        .collect()
}

/// Merges the shard journals under `dir` for a `shards`-way sweep over
/// `ids`, reassembling the serial artifacts. Never fails outright: shards
/// that cannot be scanned contribute their figures to `missing` instead.
pub fn merge_shards(scale: &Scale, ids: &[String], shards: usize, dir: &Path) -> MergeOutcome {
    let mut outcome = MergeOutcome {
        journal_lines: vec![journal::header_line(&run_fingerprint(scale, ids))],
        ..MergeOutcome::default()
    };
    // Scan each shard once, up front.
    let mut scans: Vec<Result<ShardScan, String>> = Vec::with_capacity(shards);
    for number in 1..=shards {
        let spec = ShardSpec {
            number,
            count: shards,
        };
        let sub = shard_ids(ids, spec);
        let fingerprint = run_fingerprint(scale, &sub);
        scans.push(scan_shard_journal(
            &shard_journal_path(dir, number),
            &fingerprint,
        ));
    }
    // Reassemble in canonical (requested) order; figure `k` belongs to
    // shard `k % shards + 1` by construction.
    for (k, id) in ids.iter().enumerate() {
        let number = k % shards + 1;
        let spec = ShardSpec {
            number,
            count: shards,
        };
        match &scans[number - 1] {
            Ok(scan) => match scan.figure(id) {
                Some(fig) => {
                    outcome.display.push_str(&fig.display);
                    outcome.sections.push(fig.markdown.clone());
                    outcome.journal_lines.extend(fig.cell_lines.iter().cloned());
                    outcome.journal_lines.push(fig.figure_line.clone());
                }
                None => outcome.missing.push(MissingFigure {
                    id: id.clone(),
                    shard: spec,
                    reason: "no committed figure record in the shard journal".to_owned(),
                }),
            },
            Err(e) => outcome.missing.push(MissingFigure {
                id: id.clone(),
                shard: spec,
                reason: e.clone(),
            }),
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Journal;
    use sim_support::IoFaults;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bench-merge-tests");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    fn cell_line(figure: &str, index: usize) -> String {
        format!(
            "{{\"kind\":\"cell\",\"figure\":\"{figure}\",\"label\":\"app{index}\",\
             \"index\":{index},\"status\":\"done\",\"attempts\":1}}"
        )
    }

    #[test]
    fn positional_attribution_spans_multiple_grid_figures_per_commit() {
        let io = &mut IoFaults::default();
        let path = scratch("positional.jsonl");
        let journal = Journal::new(&path);
        journal.start("fp", io).unwrap();
        for line in [cell_line("fig19-entries", 0), cell_line("fig19-ways", 0)] {
            std::fs::write(
                &path,
                std::fs::read_to_string(&path).unwrap() + &line + "\n",
            )
            .unwrap();
        }
        journal.append_figure("fig19", "d", "m", io).unwrap();
        let scan = scan_shard_journal(&path, "fp").unwrap();
        assert_eq!(scan.figures.len(), 1);
        assert_eq!(scan.figures[0].cell_lines.len(), 2);
        assert!(scan.figures[0].cell_lines[0].contains("fig19-entries"));
    }

    #[test]
    fn resume_duplicates_dedupe_to_the_final_emission() {
        let lines = vec![
            cell_line("figA", 0), // torn first attempt
            cell_line("figA", 0), // resumed, full emission
            cell_line("figA", 1),
        ];
        let deduped = dedupe_cells(lines.clone());
        assert_eq!(deduped, vec![lines[1].clone(), lines[2].clone()]);
    }

    #[test]
    fn corrupt_commit_hash_counts_as_missing() {
        let io = &mut IoFaults::default();
        let path = scratch("badhash.jsonl");
        let journal = Journal::new(&path);
        journal.start("fp", io).unwrap();
        journal.append_figure("fig01", "good", "m", io).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("good", "evil")).unwrap();
        let scan = scan_shard_journal(&path, "fp").unwrap();
        assert!(scan.figure("fig01").is_none());
    }

    #[test]
    fn fingerprint_mismatch_is_a_scan_error() {
        let io = &mut IoFaults::default();
        let path = scratch("fpmismatch.jsonl");
        let journal = Journal::new(&path);
        journal.start("fp-a", io).unwrap();
        assert!(scan_shard_journal(&path, "fp-b").is_err());
        assert!(scan_shard_journal(&path, "fp-a").is_ok());
    }
}
