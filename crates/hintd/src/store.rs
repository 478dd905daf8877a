//! The sharded, journaled profile store behind the server.
//!
//! # Durability contract
//!
//! An ingest is acknowledged only *after* its journal line is fsync'd via
//! [`fsio::append_line_durable`]. A SIGKILL at any instant therefore loses
//! no acknowledged batch: restart replays the per-shard journals (torn
//! tail lines dropped by [`fsio::read_journal_lines`]) and rebuilds the
//! exact accepted-batch sequence. Batch ids double as idempotency keys —
//! a client that crashed between journal-append and ack simply resends,
//! and the resend is answered `deduped` without re-absorbing. Together:
//! **zero lost acknowledged batches, zero double-counted retries**.
//!
//! # Degradation contract
//!
//! Ingest never recomputes anything — it journals and queues, O(batch).
//! Absorption into the per-app [`IncrementalProfiler`] happens on the
//! query path while the app's backlog is at or under the watermark; past
//! the watermark, queries stop paying for recomputes and are served from
//! the last committed table, stamped `stale`. Health calls drain a bounded
//! number of queued batches per call, so a backlogged server works its way
//! back under the watermark at a controlled pace instead of stalling its
//! request loop. Because absorption order is the acceptance (= journal)
//! order and [`IncrementalProfiler`] is deterministic in the batch
//! sequence, the fully-drained table is a pure function of the accepted
//! batches — independent of when queries and health calls happened to
//! drain them.
//!
//! # Sharding
//!
//! Apps are partitioned over `shards` mutexed shards by
//! [`sim_support::fault::fnv1a`] of the app name, each with its own
//! journal file, so concurrent ingests for different apps do not contend.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use btb_model::BtbConfig;
use btb_trace::{codec, Trace};
use sim_support::fault::{fnv1a, IoFaults};
use sim_support::fsio;
use sim_support::{FaultClass, FaultPlan, FaultState};
use thermometer::{IncrementalProfiler, TemperatureConfig};

use crate::proto::{self, HealthReply, IngestAck, QueryReply, Response, WireTable};
use crate::{hex_decode, hex_encode};

/// Journal line format version.
const JOURNAL_VERSION: u64 = 1;

/// Store tuning knobs.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Number of mutexed shards the apps are hashed across.
    pub shards: usize,
    /// Per-app backlog watermark: at or under it queries absorb the queue
    /// inline and serve fresh; over it they serve the last committed table
    /// stamped stale.
    pub watermark: usize,
    /// Queued batches a single health call may absorb (across all apps).
    pub drain_per_health: usize,
    /// BTB geometry every batch is profiled against.
    pub btb: BtbConfig,
    /// Temperature thresholds for the served tables.
    pub temperature: TemperatureConfig,
    /// Journal directory; `None` disables durability (in-memory store).
    pub journal_dir: Option<PathBuf>,
    /// Injected faults (`hintd --fault-plan`): `exit-after=N` exits after
    /// the N-th journaled batch, `io=PATTERN:K` fails journal appends.
    pub fault_plan: FaultPlan,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            watermark: 8,
            drain_per_health: 4,
            btb: BtbConfig::table1(),
            temperature: TemperatureConfig::paper_default(),
            journal_dir: None,
            fault_plan: FaultPlan::default(),
        }
    }
}

/// Per-app serving state.
struct AppState {
    inc: IncrementalProfiler,
    /// Accepted-but-unabsorbed batches, in acceptance (= journal) order.
    pending: VecDeque<Trace>,
    /// Accepted batch ids — the idempotency set.
    seen: BTreeSet<u64>,
}

impl AppState {
    fn new(btb: BtbConfig, temperature: TemperatureConfig) -> Self {
        Self {
            inc: IncrementalProfiler::new(btb, temperature),
            pending: VecDeque::new(),
            seen: BTreeSet::new(),
        }
    }

    /// Absorbs queued batches in order, up to `limit`; returns how many.
    fn drain(&mut self, limit: usize) -> usize {
        let mut drained = 0usize;
        while drained < limit {
            let Some(batch) = self.pending.pop_front() else {
                break;
            };
            self.inc.absorb(&batch);
            drained += 1;
        }
        drained
    }
}

struct Shard {
    apps: BTreeMap<String, AppState>,
    journal: Option<PathBuf>,
    /// The fault plan's `io=` entry, counted against this shard's journal.
    io_faults: IoFaults,
    accepted: u64,
    deduped: u64,
}

impl Shard {
    fn backlog(&self) -> u64 {
        self.apps.values().map(|a| a.pending.len() as u64).sum()
    }
}

/// The sharded, journaled profile store. All methods take `&self`; shard
/// mutexes provide interior mutability for the server's concurrent
/// connection handlers.
pub struct HintStore {
    shards: Vec<Mutex<Shard>>,
    btb: BtbConfig,
    temperature: TemperatureConfig,
    watermark: usize,
    drain_per_health: usize,
    /// Counts batches journaled since open: the `exit-after` crash
    /// countdown.
    faults: Mutex<FaultState>,
}

impl HintStore {
    /// Opens the store, replaying any existing per-shard journals in
    /// `config.journal_dir`. Replay reconstructs the accepted-batch
    /// sequence exactly (ids, order, payloads) but does not re-journal or
    /// eagerly absorb — the normal drain paths pick the queue up.
    pub fn open(config: StoreConfig) -> io::Result<Self> {
        assert!(config.shards > 0, "need at least one shard");
        if let Some(dir) = &config.journal_dir {
            std::fs::create_dir_all(dir)?;
        }
        let mut shards = Vec::with_capacity(config.shards);
        for i in 0..config.shards {
            let journal = config.journal_dir.as_ref().map(|d| journal_path(d, i));
            shards.push(Mutex::new(Shard {
                apps: BTreeMap::new(),
                journal,
                io_faults: config.fault_plan.io_faults(),
                accepted: 0,
                deduped: 0,
            }));
        }
        let store = Self {
            shards,
            btb: config.btb,
            temperature: config.temperature,
            watermark: config.watermark,
            drain_per_health: config.drain_per_health,
            faults: Mutex::new(FaultState::new(config.fault_plan)),
        };
        store.replay()?;
        Ok(store)
    }

    fn replay(&self) -> io::Result<()> {
        for shard in &self.shards {
            let mut shard = lock(shard);
            let Some(path) = shard.journal.clone() else {
                continue;
            };
            for line in fsio::read_journal_lines(&path)? {
                let (batch_id, app, trace) = parse_journal_line(&line).map_err(|why| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("journal {}: {why}: {line:?}", path.display()),
                    )
                })?;
                let state = self.app_entry(&mut shard, &app);
                if state.seen.insert(batch_id) {
                    state.pending.push_back(trace);
                    shard.accepted += 1;
                }
            }
        }
        Ok(())
    }

    fn app_entry<'a>(&self, shard: &'a mut Shard, app: &str) -> &'a mut AppState {
        if !shard.apps.contains_key(app) {
            shard.apps.insert(
                app.to_owned(),
                AppState::new(self.btb, self.temperature.clone()),
            );
        }
        shard.apps.get_mut(app).expect("just inserted")
    }

    fn shard_of(&self, app: &str) -> &Mutex<Shard> {
        let i = (fnv1a(app.as_bytes()) % self.shards.len() as u64) as usize;
        &self.shards[i]
    }

    /// Accepts (or deduplicates) one batch. Journal-then-ack: the
    /// acknowledgement this returns is durable. The journal append is also
    /// the crash checkpoint — [`FaultState::cell_completed`] runs after
    /// it, so a `--fault-plan exit-after=N` kills the process at a chosen
    /// journal offset for the recovery tests.
    pub fn ingest_response(&self, app: &str, batch_id: u64, trace: Trace) -> Response {
        if let Err(why) = validate_app(app) {
            return Response::Error {
                class: FaultClass::Poison,
                message: why,
            };
        }
        let mut shard = lock(self.shard_of(app));
        let already = shard
            .apps
            .get(app)
            .is_some_and(|s| s.seen.contains(&batch_id));
        if already {
            shard.deduped += 1;
            let state = shard.apps.get(app).expect("checked above");
            return Response::Ingest(IngestAck {
                deduped: true,
                deferred: false,
                accepted: shard.accepted,
                backlog: state.pending.len() as u64,
            });
        }
        if let Some(path) = shard.journal.clone() {
            let line = journal_line(batch_id, app, &trace);
            if let Err(err) = fsio::append_line_durable(&path, &line, &mut shard.io_faults) {
                // Not accepted: nothing journaled, nothing queued. The
                // client's bounded retry handles the transient case.
                return Response::Error {
                    class: FaultClass::Transient,
                    message: format!("journal append failed: {err}"),
                };
            }
        }
        // Durable — this batch now counts as accepted even if we die on
        // the very next instruction (the crash tests do exactly that).
        lock(&self.faults).cell_completed();
        let state = self.app_entry(&mut shard, app);
        state.seen.insert(batch_id);
        state.pending.push_back(trace);
        let backlog = state.pending.len() as u64;
        shard.accepted += 1;
        Response::Ingest(IngestAck {
            deduped: false,
            deferred: backlog > self.watermark as u64,
            accepted: shard.accepted,
            backlog,
        })
    }

    /// Serves `app`'s table. At or under the watermark the queue is
    /// absorbed inline and the reply is fresh; over it the last committed
    /// table is served stamped `stale` (the degraded mode). Unknown apps
    /// get the empty (all-coldest) table, exactly like an unprofiled
    /// binary.
    pub fn query_response(&self, app: &str) -> Response {
        let mut shard = lock(self.shard_of(app));
        let watermark = self.watermark;
        let Some(state) = shard.apps.get_mut(app) else {
            return Response::Query(QueryReply {
                stale: false,
                backlog: 0,
                table: WireTable::default(),
            });
        };
        let backlog = state.pending.len();
        if backlog <= watermark {
            state.drain(backlog);
            Response::Query(QueryReply {
                stale: false,
                backlog: 0,
                table: WireTable::from_table(state.inc.commit()),
            })
        } else {
            Response::Query(QueryReply {
                stale: true,
                backlog: backlog as u64,
                table: WireTable::from_table(state.inc.table()),
            })
        }
    }

    /// Serves health counters, first absorbing up to `drain_per_health`
    /// queued batches (shard order, then app order — deterministic), which
    /// is how a degraded server recovers. The server passes its own
    /// connection-level counters through.
    pub fn health_response(&self, requests: u64, connections: u64, reaped: u64) -> Response {
        let mut budget = self.drain_per_health;
        let mut reply = HealthReply {
            requests,
            connections,
            reaped,
            ..HealthReply::default()
        };
        for shard in &self.shards {
            let mut shard = lock(shard);
            for state in shard.apps.values_mut() {
                if budget > 0 {
                    budget -= state.drain(budget);
                }
            }
            reply.apps += shard.apps.len() as u64;
            reply.accepted += shard.accepted;
            reply.deduped += shard.deduped;
            reply.backlog += shard.backlog();
        }
        Response::Health(reply)
    }

    /// Total queued-but-unabsorbed batches (test/ops visibility).
    pub fn backlog(&self) -> u64 {
        self.shards.iter().map(|s| lock(s).backlog()).sum()
    }

    /// Absorbs every queued batch and returns each app's canonical table
    /// bytes, sorted by app name. This is the "fully drained" view the
    /// crash-recovery test compares byte-for-byte.
    pub fn dump_tables(&self) -> Vec<(String, Vec<u8>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let mut shard = lock(shard);
            for (app, state) in shard.apps.iter_mut() {
                state.drain(usize::MAX);
                out.push((
                    app.clone(),
                    WireTable::from_table(state.inc.commit()).encode_bytes(),
                ));
            }
        }
        out.sort();
        out
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A handler that panicked while holding the lock has made no partial
    // mutation worth protecting (journal-then-mutate keeps the durable
    // state ahead of the in-memory state), so recover rather than wedge
    // every future request for the shard.
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn journal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("journal_shard_{shard}.jsonl"))
}

fn validate_app(app: &str) -> Result<(), String> {
    if app.is_empty() {
        return Err("empty app name".to_owned());
    }
    if app.len() > proto::MAX_APP_NAME {
        return Err(format!(
            "app name of {} bytes exceeds {}",
            app.len(),
            proto::MAX_APP_NAME
        ));
    }
    if !app
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
    {
        return Err(format!("app name {app:?} has non [a-zA-Z0-9._-] bytes"));
    }
    Ok(())
}

/// One journal record: `version batch_id app hex(trace-BTBT-blob)`.
fn journal_line(batch_id: u64, app: &str, trace: &Trace) -> String {
    let mut blob = Vec::new();
    codec::append_binary(&mut blob, trace);
    format!("{JOURNAL_VERSION} {batch_id} {app} {}", hex_encode(&blob))
}

fn parse_journal_line(line: &str) -> Result<(u64, String, Trace), String> {
    let mut fields = line.split(' ');
    let version: u64 = fields
        .next()
        .ok_or("missing version")?
        .parse()
        .map_err(|_| "bad version")?;
    if version != JOURNAL_VERSION {
        return Err(format!(
            "journal version {version} (expected {JOURNAL_VERSION})"
        ));
    }
    let batch_id: u64 = fields
        .next()
        .ok_or("missing batch id")?
        .parse()
        .map_err(|_| "bad batch id")?;
    let app = fields.next().ok_or("missing app")?.to_owned();
    validate_app(&app)?;
    let hex = fields.next().ok_or("missing payload")?;
    if fields.next().is_some() {
        return Err("trailing fields".to_owned());
    }
    let blob = hex_decode(hex)?;
    let trace = codec::read_binary(&mut io::Cursor::new(blob.as_slice()))
        .map_err(|err| format!("trace blob: {err}"))?;
    Ok((batch_id, app, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use btb_trace::{BranchKind, BranchRecord};

    fn batch(name: &str, pcs: &[u64]) -> Trace {
        Trace::from_records(
            name,
            pcs.iter()
                .map(|&pc| BranchRecord::taken(pc, pc + 0x100, BranchKind::UncondDirect, 1))
                .collect(),
        )
    }

    fn small_config() -> StoreConfig {
        StoreConfig {
            shards: 2,
            watermark: 2,
            drain_per_health: 2,
            btb: BtbConfig::new(16, 4),
            ..StoreConfig::default()
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hintd-store-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn ingest_query_serves_fresh_under_watermark() {
        let store = HintStore::open(small_config()).unwrap();
        let r = store.ingest_response("kafka", 1, batch("b1", &[0x40; 30]));
        let Response::Ingest(ack) = r else {
            panic!("{r:?}")
        };
        assert!(!ack.deduped && !ack.deferred);
        assert_eq!(ack.backlog, 1);
        let Response::Query(q) = store.query_response("kafka") else {
            panic!()
        };
        assert!(!q.stale);
        assert_eq!(q.backlog, 0);
        assert_eq!(q.table.hint(0x40), 2, "hot branch served hot");
    }

    #[test]
    fn duplicate_batch_ids_are_acked_once() {
        let store = HintStore::open(small_config()).unwrap();
        let b = batch("b", &[1, 2, 3]);
        let Response::Ingest(first) = store.ingest_response("kafka", 9, b.clone()) else {
            panic!()
        };
        assert!(!first.deduped);
        let Response::Ingest(second) = store.ingest_response("kafka", 9, b) else {
            panic!()
        };
        assert!(second.deduped);
        assert_eq!(second.accepted, first.accepted, "not accepted twice");
        let Response::Health(h) = store.health_response(0, 0, 0) else {
            panic!()
        };
        assert_eq!(h.accepted, 1);
        assert_eq!(h.deduped, 1);
    }

    #[test]
    fn over_watermark_queries_degrade_to_stale_and_health_drains() {
        let store = HintStore::open(small_config()).unwrap();
        // Commit a first table so "last committed" is non-empty.
        let Response::Ingest(_) = store.ingest_response("app", 0, batch("warm", &[7; 20])) else {
            panic!()
        };
        let Response::Query(q0) = store.query_response("app") else {
            panic!()
        };
        assert!(!q0.stale);
        // Burst past the watermark (2): four new batches.
        for id in 1..=4u64 {
            let r = store.ingest_response("app", id, batch("b", &[id * 8; 10]));
            let Response::Ingest(ack) = r else { panic!() };
            assert_eq!(ack.deferred, id > 2, "deferred once over watermark");
        }
        let Response::Query(q1) = store.query_response("app") else {
            panic!()
        };
        assert!(q1.stale, "over watermark serves stale");
        assert_eq!(q1.backlog, 4);
        assert_eq!(
            q1.table.encode_bytes(),
            q0.table.encode_bytes(),
            "stale reply is exactly the last committed table"
        );
        // Health calls drain 2 per call; after one call backlog is 2 ==
        // watermark, so the next query absorbs the rest and is fresh.
        let Response::Health(h) = store.health_response(0, 0, 0) else {
            panic!()
        };
        assert_eq!(h.backlog, 2);
        let Response::Query(q2) = store.query_response("app") else {
            panic!()
        };
        assert!(!q2.stale);
        assert!(q2.table.hint(8) > 0, "burst batches now absorbed");
    }

    #[test]
    fn journal_replay_rebuilds_identical_tables() {
        let dir = scratch("replay");
        let mut config = small_config();
        config.journal_dir = Some(dir.clone());
        let store = HintStore::open(config.clone()).unwrap();
        for id in 0..6u64 {
            let app = if id % 2 == 0 { "even" } else { "odd" };
            store.ingest_response(app, id, batch("b", &[id * 4, id * 4, 99]));
        }
        let reference = store.dump_tables();
        drop(store);
        // A fresh process over the same journal dir.
        let recovered = HintStore::open(config).unwrap();
        assert_eq!(
            recovered.dump_tables(),
            reference,
            "replayed store serves byte-identical tables"
        );
        // And re-sending an already-journaled batch dedupes.
        let Response::Ingest(ack) = recovered.ingest_response("even", 0, batch("b", &[0, 0, 99]))
        else {
            panic!()
        };
        assert!(ack.deduped);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_journal_lines_fail_loudly() {
        let dir = scratch("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = journal_path(&dir, 0);
        fsio::append_line_durable(&path, "1 notanumber app 00", &mut IoFaults::default()).unwrap();
        let config = StoreConfig {
            journal_dir: Some(dir.clone()),
            shards: 1,
            ..small_config()
        };
        let Err(err) = HintStore::open(config).map(|_| ()) else {
            panic!("corrupt journal accepted");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_app_names_are_poison() {
        let store = HintStore::open(small_config()).unwrap();
        for bad in ["", "has space", "x".repeat(65).as_str()] {
            let r = store.ingest_response(bad, 1, batch("b", &[1]));
            let Response::Error { class, .. } = r else {
                panic!("{bad:?} accepted")
            };
            assert_eq!(class, FaultClass::Poison, "retrying cannot fix {bad:?}");
        }
    }

    #[test]
    fn journal_lines_round_trip() {
        let b = batch("named-batch", &[0x40, 0x80, 0x40]);
        let line = journal_line(42, "my-app.v2", &b);
        let (id, app, back) = parse_journal_line(&line).unwrap();
        assert_eq!(id, 42);
        assert_eq!(app, "my-app.v2");
        assert_eq!(back, b);
        assert!(parse_journal_line("2 1 app 00").is_err(), "future version");
        assert!(parse_journal_line("1 1 app").is_err(), "missing payload");
        assert!(parse_journal_line("1 1 app 00 junk").is_err(), "trailing");
    }
}
