#!/usr/bin/env python3
"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout. The first run builds the
`perfbench` package beside this file (path dependencies on the
repository's crates), in release mode, into `$CARGO_TARGET_DIR` (default
`.bench_build` at the checkout root). Both workloads run Thermometer's
profile-guided loop cell by cell (online collection through `hintd`,
offline profile, six simulated policies) on different inputs:

  sim-policies    13 apps, 400k-record traces, 2k-record online batches:
                  the simulator's hot loop dominates.
  online-collect  13 apps x 2 input pairs, 60k-record traces, 250-record
                  batches with a query after each: the online collector
                  (proto, HintStore, IncrementalProfiler) dominates.

With `--trace 0` the run prints the end-to-end metrics, with `--trace 1`
the per-layer ones; both workloads print the same names. Every run checks
its outputs: simulated counters against references in `refs.json`, served
hint tables against a replay of their batches. A failed check prints
`"correct": false`, no metrics, and exits 1. The last line of standard
output is the result as JSON; progress goes to standard error. See
README.md in this directory for the metric map, the seeds, and how to
re-record references (`--bless`).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFS = os.path.join(HERE, "refs.json")

# Metric names every workload prints, untraced and traced.
END_TO_END = ["setup_s", "pass_time_ratio", "peak_rss_mb", "therm_ipc_gain_pct", "opt_capture_pct"]
POLICIES = ["lru", "srrip", "ghrp", "hawkeye", "opt", "thermometer"]
PER_LAYER = [
    "workloads.records_generated", "workloads.gen_ns_per_record",
    "trace.oracle_build_ms",
    "hintd.online_ms", "hintd.requests",
    "hintd.proto.encode_ns_per_record", "hintd.proto.decode_ns_per_record",
    "hintd.store.ingest_us_p50", "hintd.store.query_us_p50", "hintd.store.query_us_p99",
    "hintd.table_encode_us_p50",
    "core.absorb_ns_per_record", "core.commit_us_p50", "core.profile_ms",
    "core.classify_ms", "core.hints", "core.online_agree_frac", "core.coverage_frac",
    "core.bypass_frac",
] + [f"{m}.{p}" for p in POLICIES for m in ("uarch.sim_ms", "btb.mpki", "uarch.ipc")] + [
    f"uarch.stall_cpki.{c}.{p}" for c in ("btb", "direction", "target", "icache")
    for p in ("lru", "thermometer")
] + ["perfbench.pass_s", "perfbench.ref_kernel_s", "perfbench.trace_overhead_pct"]

# Each workload's `perfbench` flags. `full` is what the benchmark
# measures; `tiny` is the self-test's scale.
WORKLOADS = {
    "sim-policies": {
        "full": ["--records", "400000", "--inputs", "0-1", "--batch", "2000",
                 "--query-every", "4"],
        "tiny": ["--records", "20000", "--inputs", "0-1", "--batch", "2000",
                 "--query-every", "4", "--apps", "kafka,python,finagle-http"],
    },
    "online-collect": {
        "full": ["--records", "60000", "--inputs", "0-1,2-3", "--batch", "250",
                 "--query-every", "1"],
        "tiny": ["--records", "20000", "--inputs", "0-1,2-3", "--batch", "250",
                 "--query-every", "1", "--apps", "kafka,python,finagle-http"],
    },
}
CHILD_TIMEOUT_S = 150


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Builds the perfbench package and, through it, the crates under test."""
    for needed in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"{needed} is missing at {ROOT}: not a source checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir(), CARGO_NET_OFFLINE="true")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path",
           os.path.join(HERE, "Cargo.toml")]
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
                            timeout=880)
    if result.returncode != 0:
        raise BenchError(f"build failed: {' '.join(cmd)}")
    return os.path.join(target_dir(), "release", "perfbench")


def run_perfbench(binary, rundir, args):
    """Runs `perfbench` in its own process group and parses its JSON line.
    The group is killed if it outlives the timeout."""
    out_path = os.path.join(rundir, "perfbench.out")
    with open(out_path, "wb") as out:
        proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=out, stderr=sys.stderr,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"perfbench timed out after {CHILD_TIMEOUT_S} s")
    lines = open(out_path).read().strip().splitlines()
    if not lines:
        raise BenchError(f"perfbench exited {code} without a report")
    result = json.loads(lines[-1])
    if code != 0 and not result["errors"]:
        result["errors"].append(f"perfbench exited {code}")
    return result


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_workload(opts, binary, rundir, refs):
    counters = os.path.join(rundir, "counters.txt")
    args = ["--seed", str(opts.seed % 2**64), "--seconds", str(opts.seconds),
            "--trace", str(int(opts.trace)), "--counters-out", counters,
            *WORKLOADS[opts.workload][opts.scale]]
    if opts.inputs:
        args += ["--inputs", opts.inputs]
    if opts.perturb:
        args.append("--perturb")
    result = run_perfbench(binary, rundir, args)
    log(f"{opts.workload}: {result['info'].get('passes', 0)} passes over "
        f"{result['info'].get('cells', 0)} cells")
    if os.path.exists(counters):
        key = f"{opts.workload}/{opts.scale}" + (f"/inputs-{opts.inputs}" if opts.inputs else "")
        observed = sha256_file(counters)
        if opts.bless:
            refs[key] = observed
        elif refs.get(key) != observed:
            result["errors"].append(
                f"{key}: simulated counters digest {observed} differs from reference "
                f"{refs.get(key)}")
    return result


def load_units():
    """Metric units, from BENCHMARK.json when it is present."""
    try:
        bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    except OSError:
        return {}
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="tiny is the self-test's scale")
    parser.add_argument("--refs", default=REFS, help="reference digests to check against")
    parser.add_argument("--bless", action="store_true",
                        help="record this run's output digests as the references")
    parser.add_argument("--inputs", default="",
                        help="held-out check: TRAIN-TEST[,TRAIN-TEST...] input ids")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt the served-table reference to prove the check fails")
    opts = parser.parse_args()
    opts.trace = bool(opts.trace)

    try:
        binary = build()
    except (BenchError, OSError, subprocess.TimeoutExpired) as e:
        log(f"cannot run: {e}")
        return 2
    refs = json.load(open(opts.refs))
    rundir = os.path.join(ROOT, ".bench_run", f"{opts.workload}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        result = run_workload(opts, binary, rundir, refs)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"{opts.workload} failed: {e!r}")
        return 2
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    if opts.bless:
        with open(opts.refs, "w") as f:
            json.dump(refs, f, indent=2, sort_keys=True)
            f.write("\n")
        log(f"references written to {opts.refs}")

    expected = PER_LAYER if opts.trace else END_TO_END
    produced = result["metrics"]
    if not result["errors"] and sorted(produced) != sorted(expected):
        result["errors"].append(
            f"metric set mismatch: missing {sorted(set(expected) - set(produced))}, "
            f"unexpected {sorted(set(produced) - set(expected))}")
    units = load_units()
    for name, (value, unit) in produced.items():
        if units and units.get(name) != unit:
            result["errors"].append(f"{name}: unit {unit} disagrees with BENCHMARK.json")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            result["errors"].append(f"{name}: no value was measured")
    for e in result["errors"]:
        log(f"CHECK FAILED: {e}")
    correct = not result["errors"]
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in produced.items()} \
        if correct else {}
    print(json.dumps({"correct": correct, "attempted": max(1, result["attempted"]),
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
