//! The benchmark's workload program: Thermometer's profile-guided loop,
//! run cell by cell from outside through the crates' public APIs.
//!
//! A cell is one application with a training input and a test input. One
//! pass of the timed phase takes every cell through three stages:
//!
//! 1. online collection — the training trace, cut into batches, travels
//!    through `hintd::proto` into an in-memory `HintStore`, with a query
//!    every few batches and a final query that fetches the served table;
//! 2. offline profile — `OptProfile::measure` + `HintTable::from_profile`
//!    on the training trace (the paper's Thermometer);
//! 3. simulation — the test trace under six policies with the Table 1
//!    frontend (`Pipeline::run_named`, `Pipeline::run_thermometer_detailed`).
//!
//! Trace generation and the choice of batch cuts are set-up; copying each
//! batch out of the training trace is online work. Passes repeat until the
//! time budget is spent; every pass must reproduce the first one exactly,
//! and every served table must equal an `IncrementalProfiler` replay of
//! the cell's batches.

use std::fmt::Write as _;
use std::time::Instant;

use btb_model::BtbConfig;
use btb_trace::{NextUseOracle, Trace};
use btb_workloads::{AppSpec, InputConfig};
use hintd::{proto, HintStore, Request, Response, StoreConfig, WireTable};
use sim_support::SimRng;
use thermometer::{HintTable, IncrementalProfiler, OptProfile, Pipeline, TemperatureConfig};
use uarch_sim::SimReport;

use crate::calibrate::reference_kernel;
use crate::report::{median, peak_rss_mb, percentile, secs, Report};

/// The simulated policies, in report order.
pub const POLICIES: [&str; 6] = ["lru", "srrip", "ghrp", "hawkeye", "opt", "thermometer"];

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Settings of one run.
pub struct PipelineArgs {
    /// Workload seed: picks the online batch cuts.
    pub seed: u64,
    /// (training, test) input ids; every application runs each pair.
    pub input_pairs: Vec<(u32, u32)>,
    /// Timed-phase budget.
    pub seconds: f64,
    /// Whether to time each stage (the traced run).
    pub trace: bool,
    /// Records per generated trace.
    pub records: usize,
    /// Mean records per online batch (cuts vary from half to 1.5×).
    pub batch: usize,
    /// Online queries: one after every this many ingests.
    pub query_every: usize,
    /// Application filter (empty = all 13).
    pub apps: Vec<String>,
    /// Where to write the canonical listing of simulated counters.
    pub counters_out: String,
    /// Corrupt the online reference, to prove its check fails.
    pub perturb: bool,
}

/// One cell's generated inputs.
struct Cell {
    /// `app.TRAIN-TEST`: the cell's name, and its key in the hint store.
    name: String,
    train: Trace,
    test: Trace,
    /// Where the online stage cuts the training trace into batches: each
    /// batch ends at the next offset.
    cuts: Vec<usize>,
}

/// One cell's results in one pass.
#[derive(Clone, PartialEq)]
struct CellResult {
    name: String,
    /// The served table's canonical bytes.
    online_table: Vec<u8>,
    /// Offline hints (explicit entries) and the online table's agreement
    /// with them.
    hints: usize,
    agreeing: usize,
    coverage: thermometer::policy::CoverageCounters,
    reports: Vec<SimReport>,
}

/// Per-stage host time of one traced pass, summed over cells, and the
/// per-request samples of the online stage.
#[derive(Default)]
struct StageTimes {
    online_ms: f64,
    profile_ms: f64,
    classify_ms: f64,
    sim_ms: [f64; POLICIES.len()],
    encode_ns_per_record: Vec<f64>,
    decode_ns_per_record: Vec<f64>,
    ingest_us: Vec<f64>,
    query_us: Vec<f64>,
    table_encode_us: Vec<f64>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn us_between(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e6
}

fn store() -> HintStore {
    HintStore::open(StoreConfig::default()).expect("an in-memory store opens without I/O")
}

/// Sends one request through the codec to `store` and decodes the reply;
/// records its stage times when `times` is given.
fn round_trip(
    store: &HintStore,
    request: Vec<u8>,
    records: usize,
    times: Option<&mut StageTimes>,
) -> Result<Response, String> {
    let t_dec = Instant::now();
    let decoded = proto::decode_request(&request).map_err(|e| format!("{e:?}"))?;
    let t_store = Instant::now();
    let is_ingest = matches!(decoded, Request::Ingest { .. });
    let response = match decoded {
        Request::Ingest {
            batch_id,
            app,
            trace,
        } => store.ingest_response(&app, batch_id, trace),
        Request::Query { app } => store.query_response(&app),
        Request::Health => store.health_response(0, 0, 0),
    };
    let t_resp = Instant::now();
    let reply = proto::encode_response(&response);
    let t_back = Instant::now();
    let back = proto::decode_response(&reply).map_err(|e| format!("{e:?}"))?;
    if let Some(st) = times {
        if is_ingest {
            st.decode_ns_per_record
                .push(us_between(t_dec, t_store) * 1e3 / records as f64);
            st.ingest_us.push(us_between(t_store, t_resp));
        } else {
            st.query_us.push(us_between(t_store, t_resp));
            st.table_encode_us.push(us_between(t_resp, t_back));
        }
    }
    if let Response::Error { class, message } = back {
        return Err(format!("store refused a request ({class:?}): {message}"));
    }
    Ok(back)
}

/// Stage 1: streams `cell`'s batches into `store`, querying every
/// `query_every` ingests; returns the finally served table.
fn collect_online(
    store: &HintStore,
    cell: &Cell,
    query_every: usize,
    mut times: Option<&mut StageTimes>,
) -> Result<WireTable, String> {
    let query = |times: Option<&mut StageTimes>| -> Result<WireTable, String> {
        match round_trip(store, proto::encode_query(&cell.name), 0, times)? {
            Response::Query(reply) if !reply.stale => Ok(reply.table),
            Response::Query(reply) => Err(format!(
                "{}: stale table with {} batches queued",
                cell.name, reply.backlog
            )),
            other => Err(format!("{}: query answered with {other:?}", cell.name)),
        }
    };
    let mut start = 0usize;
    for (i, &end) in cell.cuts.iter().enumerate() {
        let batch =
            Trace::from_records(cell.name.clone(), cell.train.records()[start..end].to_vec());
        start = end;
        let t = Instant::now();
        let request = proto::encode_ingest(i as u64 + 1, &cell.name, &batch);
        if let Some(st) = times.as_deref_mut() {
            st.encode_ns_per_record
                .push(t.elapsed().as_secs_f64() * 1e9 / batch.len() as f64);
        }
        match round_trip(store, request, batch.len(), times.as_deref_mut())? {
            Response::Ingest(ack) if !ack.deduped => {}
            other => return Err(format!("{}: ingest answered with {other:?}", cell.name)),
        }
        if (i + 1) % query_every == 0 {
            query(times.as_deref_mut())?;
        }
    }
    query(times)
}

fn one_pass(
    pipeline: &Pipeline,
    cells: &[Cell],
    query_every: usize,
    mut stages: Option<&mut StageTimes>,
) -> Result<Vec<CellResult>, String> {
    let btb = pipeline.config().frontend.btb;
    let temperature = &pipeline.config().temperature;
    let store = store();
    let mut out = Vec::with_capacity(cells.len());
    for cell in cells {
        let t = Instant::now();
        let served = collect_online(&store, cell, query_every, stages.as_deref_mut())?;
        let t_profile = Instant::now();
        let profile = OptProfile::measure(&cell.train, btb);
        let t_classify = Instant::now();
        let hints = HintTable::from_profile(&profile, temperature);
        if let Some(st) = stages.as_deref_mut() {
            st.online_ms += (t_profile - t).as_secs_f64() * 1e3;
            st.profile_ms += (t_classify - t_profile).as_secs_f64() * 1e3;
            st.classify_ms += ms_since(t_classify);
        }
        let agreeing = hints
            .iter()
            .filter(|&(pc, hint)| served.hint(pc) == hint)
            .count();
        let mut reports = Vec::with_capacity(POLICIES.len());
        let mut coverage = Default::default();
        for (i, policy) in POLICIES.iter().enumerate() {
            let t = Instant::now();
            let report = if *policy == "thermometer" {
                let (report, cov) = pipeline.run_thermometer_detailed(&cell.test, &hints);
                coverage = cov;
                report
            } else {
                pipeline
                    .run_named(&cell.test, policy, None)
                    .expect("POLICIES names are in the run_named vocabulary")
            };
            if let Some(st) = stages.as_deref_mut() {
                st.sim_ms[i] += ms_since(t);
            }
            reports.push(report);
        }
        out.push(CellResult {
            name: cell.name.clone(),
            online_table: served.encode_bytes(),
            hints: hints.len(),
            agreeing,
            coverage,
            reports,
        });
    }
    Ok(out)
}

/// Canonical listing of every simulated counter, one line per
/// (cell, policy), in the order given. Online tables depend on the seed's
/// batch cuts and are checked against their replay instead.
fn counter_listing(results: &[CellResult]) -> String {
    let mut out = String::new();
    for r in results {
        let c = r.coverage;
        let _ = writeln!(
            out,
            "{} hints={} coverage={}/{}/{}",
            r.name, r.hints, c.decisions, c.covered, c.bypasses
        );
        for (policy, s) in POLICIES.iter().zip(&r.reports) {
            let b = &s.btb;
            let _ = writeln!(
                out,
                "{} {policy} instr={} cycles={:?} stall={:?}/{:?}/{:?}/{:?} cond={}/{} ind={}/{} \
                 ret={}/{} btb={}/{}/{}/{}/{}/{}/{}/{}/{} buf={} l1i={} l2i={} llc={}",
                r.name,
                s.instructions,
                s.cycles,
                s.btb_stall_cycles,
                s.direction_stall_cycles,
                s.target_stall_cycles,
                s.icache_stall_cycles,
                s.cond_branches,
                s.cond_mispredicts,
                s.indirect_branches,
                s.indirect_mispredicts,
                s.returns,
                s.return_mispredicts,
                b.accesses,
                b.hits,
                b.misses,
                b.target_mismatches,
                b.fills,
                b.evictions,
                b.bypasses,
                b.prefetch_fills,
                b.prefetch_evictions,
                s.btb_buffer_hits,
                s.l1i_misses,
                s.l2i_misses,
                s.llc_misses,
            );
        }
    }
    out
}

/// Builds the cells: every trace generated, and seed-chosen batch cuts of
/// the training traces.
fn make_cells(args: &PipelineArgs, specs: &[AppSpec], rng: &mut SimRng) -> Vec<Cell> {
    let lo = (args.batch / 2).max(1) as u64;
    let hi = (args.batch + args.batch / 2).max(2) as u64;
    let mut cells = Vec::with_capacity(specs.len() * args.input_pairs.len());
    for spec in specs {
        for &(train_id, test_id) in &args.input_pairs {
            let train = spec.generate(InputConfig::input(train_id), args.records);
            let test = spec.generate(InputConfig::input(test_id), args.records);
            let name = format!("{}.{train_id}-{test_id}", spec.name);
            let mut cuts = Vec::new();
            let mut end = 0usize;
            while end < train.len() {
                end = (end + rng.gen_range(lo..hi) as usize).min(train.len());
                cuts.push(end);
            }
            cells.push(Cell {
                name,
                train,
                test,
                cuts,
            });
        }
    }
    cells
}

/// Replays `cell`'s batches straight into an `IncrementalProfiler`, the
/// reference every served table must equal.
fn replay(cell: &Cell, absorb_ns: &mut Vec<f64>, commit_us: &mut Vec<f64>) -> Vec<u8> {
    let mut profiler =
        IncrementalProfiler::new(BtbConfig::table1(), TemperatureConfig::paper_default());
    let mut start = 0usize;
    let mut absorb_s = 0.0;
    for &end in &cell.cuts {
        let batch =
            Trace::from_records(cell.name.clone(), cell.train.records()[start..end].to_vec());
        start = end;
        let t = Instant::now();
        profiler.absorb(&batch);
        absorb_s += t.elapsed().as_secs_f64();
    }
    absorb_ns.push(absorb_s * 1e9 / cell.train.len() as f64);
    let t = Instant::now();
    let table = WireTable::from_table(profiler.commit());
    commit_us.push(t.elapsed().as_secs_f64() * 1e6);
    table.encode_bytes()
}

/// Runs the workload and fills `report`.
pub fn run(args: &PipelineArgs, report: &mut Report) {
    let rng = SimRng::seed_from_u64(args.seed ^ 0x5eed_0a99_0bde_7001);
    // Cells run in a fixed order. The seed does not shuffle them: the
    // heap's peak depends on the order (260 to 329 MB over seeds on
    // sim-policies), which would swamp `peak_rss_mb`.
    let specs: Vec<AppSpec> = AppSpec::all()
        .into_iter()
        .filter(|s| args.apps.is_empty() || args.apps.contains(&s.name))
        .collect();

    // Set-up: generate every cell, several times; keep the last set. Each
    // repetition restarts the batch cuts from the same generator state.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut cells = Vec::new();
    for _ in 0..SETUP_REPS {
        let mut cut_rng = rng.clone();
        cells.clear();
        let t = Instant::now();
        cells = make_cells(args, &specs, &mut cut_rng);
        setup_s.push(secs(t.elapsed()));
    }
    let records_generated = (cells.len() * 2 * args.records) as f64;
    let setup = median(&mut setup_s);
    let query_every = args.query_every.max(1);
    let requests_per_pass: usize = cells
        .iter()
        .map(|c| c.cuts.len() + c.cuts.len() / query_every + 1)
        .sum();

    let pipeline = Pipeline::default();
    let mut walls = Vec::new();
    let mut kernel_walls = Vec::new();
    let mut peak_rss = f64::NAN;
    let mut ratios = Vec::new();
    let mut traced_walls = Vec::new();
    let mut stage_runs: Vec<StageTimes> = Vec::new();
    let mut first: Option<Vec<CellResult>> = None;
    let mut passes = 0u64;
    let mut mismatched = 0u64;
    // Pass 0 warms caches and the allocator and is not timed. The traced
    // run then alternates untraced and traced passes, so the overhead of
    // the timers compares passes run under the same host conditions. The
    // reference kernel runs right before every timed pass: a shared host's
    // speed drifts by a quarter and more over minutes, and a pass's time
    // over the kernel's time just before it cancels most of that drift.
    let mut start = Instant::now();
    loop {
        let timed = passes > 0;
        let traced = timed && args.trace && passes.is_multiple_of(2);
        let kernel_s = if timed {
            let (kernel_s, check) = reference_kernel();
            std::hint::black_box(check);
            kernel_s
        } else {
            0.0
        };
        let mut stages = StageTimes::default();
        let t = Instant::now();
        let results = match one_pass(
            &pipeline,
            &cells,
            query_every,
            traced.then_some(&mut stages),
        ) {
            Ok(results) => results,
            Err(e) => {
                report.attempted = (passes + 1) * cells.len() as u64;
                report.failed = cells.len() as u64;
                report.error(e);
                return;
            }
        };
        let wall = secs(t.elapsed());
        passes += 1;
        match &first {
            None => first = Some(results),
            Some(f) if *f != results => mismatched += 1,
            Some(_) => {}
        }
        if !timed {
            // Passes repeat the same work, so set-up and this first pass
            // reach the program's peak; read it before the kernel runs.
            peak_rss = peak_rss_mb("self").unwrap_or(f64::NAN);
            start = Instant::now();
            continue;
        }
        kernel_walls.push(kernel_s);
        if traced {
            traced_walls.push(wall);
            stage_runs.push(stages);
        } else {
            walls.push(wall);
            ratios.push(wall / kernel_s);
        }
        if secs(start.elapsed()) >= args.seconds && (!args.trace || !stage_runs.is_empty()) {
            break;
        }
    }
    report.info("passes", passes.to_string());
    report.info("cells", cells.len().to_string());
    // Name order, for the canonical listing.
    let mut results = first.expect("at least one pass ran");
    let order = |a: &CellResult, b: &CellResult| a.name.cmp(&b.name);
    results.sort_by(order);
    cells.sort_by(|a, b| a.name.cmp(&b.name));
    report.attempted = passes * cells.len() as u64;
    report.failed = mismatched * cells.len() as u64;
    if mismatched > 0 {
        report.error(format!(
            "{mismatched} of {passes} passes produced different results"
        ));
    }
    if let Err(e) = std::fs::write(&args.counters_out, counter_listing(&results)) {
        report.error(format!("cannot write {}: {e}", args.counters_out));
    }
    // Every served table must equal the replay of its cell's batches.
    let (mut absorb_ns, mut commit_us) = (Vec::new(), Vec::new());
    for (cell, r) in cells.iter().zip(&results) {
        let mut expected = replay(cell, &mut absorb_ns, &mut commit_us);
        if args.perturb {
            if let Some(byte) = expected.last_mut() {
                *byte ^= 0x01;
            }
        }
        if r.online_table != expected {
            report.error(format!(
                "{}: served table differs from the replay of its batches",
                r.name
            ));
        }
    }

    let n_cells = results.len() as f64;
    let ipc = |r: &CellResult, p: usize| r.reports[p].ipc();
    let index = |name: &str| {
        POLICIES
            .iter()
            .position(|p| *p == name)
            .expect("a POLICIES name")
    };
    let (lru, opt, therm) = (index("lru"), index("opt"), index("thermometer"));
    let gain = |p: usize| {
        results
            .iter()
            .map(|r| (ipc(r, p) / ipc(r, lru) - 1.0) * 100.0)
            .sum::<f64>()
            / n_cells
    };
    let therm_gain = gain(therm);
    let opt_gain = gain(opt);

    if !args.trace {
        report.metric("setup_s", setup, "s");
        report.metric("pass_time_ratio", median(&mut ratios), "ratio");
        report.metric("peak_rss_mb", peak_rss, "MB");
        report.metric("therm_ipc_gain_pct", therm_gain, "%");
        report.metric("opt_capture_pct", therm_gain / opt_gain * 100.0, "%");
        return;
    }

    // Traced run: per-stage medians over the traced passes.
    let med = |f: &dyn Fn(&StageTimes) -> f64| {
        let mut v: Vec<f64> = stage_runs.iter().map(f).collect();
        median(&mut v)
    };
    let pooled = |f: &dyn Fn(&StageTimes) -> &Vec<f64>, p: f64| {
        let mut v: Vec<f64> = stage_runs
            .iter()
            .flat_map(|s| f(s).iter().copied())
            .collect();
        percentile(&mut v, p)
    };
    let mut oracle_ms = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        for cell in &cells {
            std::hint::black_box(NextUseOracle::build(&cell.test));
        }
        oracle_ms.push(ms_since(t));
    }
    report.metric("workloads.records_generated", records_generated, "count");
    report.metric(
        "workloads.gen_ns_per_record",
        setup * 1e9 / records_generated,
        "ns",
    );
    report.metric("trace.oracle_build_ms", median(&mut oracle_ms), "ms");
    report.metric("hintd.online_ms", med(&|s| s.online_ms), "ms");
    report.metric("hintd.requests", requests_per_pass as f64, "count");
    report.metric(
        "hintd.proto.encode_ns_per_record",
        pooled(&|s| &s.encode_ns_per_record, 0.5),
        "ns",
    );
    report.metric(
        "hintd.proto.decode_ns_per_record",
        pooled(&|s| &s.decode_ns_per_record, 0.5),
        "ns",
    );
    report.metric(
        "hintd.store.ingest_us_p50",
        pooled(&|s| &s.ingest_us, 0.5),
        "us",
    );
    report.metric(
        "hintd.store.query_us_p50",
        pooled(&|s| &s.query_us, 0.5),
        "us",
    );
    report.metric(
        "hintd.store.query_us_p99",
        pooled(&|s| &s.query_us, 0.99),
        "us",
    );
    report.metric(
        "hintd.table_encode_us_p50",
        pooled(&|s| &s.table_encode_us, 0.5),
        "us",
    );
    report.metric("core.absorb_ns_per_record", median(&mut absorb_ns), "ns");
    report.metric("core.commit_us_p50", median(&mut commit_us), "us");
    report.metric("core.profile_ms", med(&|s| s.profile_ms), "ms");
    report.metric("core.classify_ms", med(&|s| s.classify_ms), "ms");
    let hints: usize = results.iter().map(|r| r.hints).sum();
    let agreeing: usize = results.iter().map(|r| r.agreeing).sum();
    report.metric("core.hints", hints as f64, "count");
    report.metric(
        "core.online_agree_frac",
        agreeing as f64 / hints.max(1) as f64,
        "frac",
    );
    let (decisions, covered, bypasses) = results.iter().fold((0, 0, 0), |acc, r| {
        (
            acc.0 + r.coverage.decisions,
            acc.1 + r.coverage.covered,
            acc.2 + r.coverage.bypasses,
        )
    });
    report.metric(
        "core.coverage_frac",
        covered as f64 / decisions.max(1) as f64,
        "frac",
    );
    report.metric(
        "core.bypass_frac",
        bypasses as f64 / decisions.max(1) as f64,
        "frac",
    );
    for (p, policy) in POLICIES.iter().enumerate() {
        report.metric(
            format!("uarch.sim_ms.{policy}"),
            med(&|s| s.sim_ms[p]),
            "ms",
        );
        let instructions: u64 = results.iter().map(|r| r.reports[p].instructions).sum();
        let misses: u64 = results.iter().map(|r| r.reports[p].btb.misses).sum();
        report.metric(
            format!("btb.mpki.{policy}"),
            misses as f64 * 1e3 / instructions as f64,
            "1/kinstr",
        );
        report.metric(
            format!("uarch.ipc.{policy}"),
            results.iter().map(|r| ipc(r, p)).sum::<f64>() / n_cells,
            "instr/cycle",
        );
    }
    type Stall = fn(&SimReport) -> f64;
    let causes: [(&str, Stall); 4] = [
        ("btb", |s| s.btb_stall_cycles),
        ("direction", |s| s.direction_stall_cycles),
        ("target", |s| s.target_stall_cycles),
        ("icache", |s| s.icache_stall_cycles),
    ];
    for (cause, stall) in causes {
        for (p, policy) in [(lru, "lru"), (therm, "thermometer")] {
            let cycles: f64 = results.iter().map(|r| stall(&r.reports[p])).sum();
            let instructions: u64 = results.iter().map(|r| r.reports[p].instructions).sum();
            report.metric(
                format!("uarch.stall_cpki.{cause}.{policy}"),
                cycles * 1e3 / instructions as f64,
                "cycles/kinstr",
            );
        }
    }
    report.metric("perfbench.pass_s", median(&mut walls), "s");
    report.metric("perfbench.ref_kernel_s", median(&mut kernel_walls), "s");
    report.metric(
        "perfbench.trace_overhead_pct",
        (median(&mut traced_walls) / median(&mut walls) - 1.0) * 100.0,
        "%",
    );
}
