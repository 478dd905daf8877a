#!/usr/bin/env python3
"""Self-test of the benchmark, at the tiny scale:

    python3 perfbench/selftest.py

For every workload, untraced and traced, it asserts that the run passes its
output checks and prints exactly the metrics `run.py` names, each with the
unit `BENCHMARK.json` gives. Then it perturbs each of a workload's two
references in turn (the simulated-counter digest, and the replayed table
the served hint tables must equal) and asserts that the run reports a
failure and no numbers.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def invoke(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
           *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for names, section in ((run.END_TO_END, "end_to_end"), (run.PER_LAYER, "per_layer")):
        declared = [m["name"] for m in bench[section]]
        expect(sorted(names) == sorted(declared),
               f"run.py names exactly the {section} metrics of BENCHMARK.json")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            code, result, stderr = invoke(workload, trace)
            label = f"{workload} --trace {trace}"
            if result is None:
                expect(False, f"{label}: no result (exit {code}): {stderr[-400:]}")
                continue
            wanted = run.PER_LAYER if trace else run.END_TO_END
            expect(code == 0 and result["correct"], f"{label}: runs and passes its checks")
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result has exactly the contract's keys")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{label}: attempted {result['attempted']}, failed {result['failed']}")
            expect(sorted(result["metrics"]) == sorted(wanted),
                   f"{label}: emits all {len(wanted)} named metrics")
            bad = [n for n, m in result["metrics"].items()
                   if units.get(n) != m["unit"] or not isinstance(m["value"], (int, float))]
            expect(not bad, f"{label}: every metric has a number and its unit {bad or ''}")

        refs = json.load(open(run.REFS))
        key = f"{workload}/tiny"
        refs[key] = "0" * 64 if refs.get(key) != "0" * 64 else "1" * 64
        os.makedirs(os.path.join(ROOT, ".bench_run"), exist_ok=True)
        path = os.path.join(ROOT, ".bench_run", f"selftest-refs-{os.getpid()}.json")
        with open(path, "w") as f:
            json.dump(refs, f)
        for what, extra in (("counter digest", ["--refs", path]),
                            ("served-table replay", ["--perturb"])):
            code, result, _ = invoke(workload, 0, *extra)
            expect(code != 0 and result is not None and result["correct"] is False
                   and result["metrics"] == {},
                   f"{workload}: a perturbed {what} fails the check and reports no numbers")
        os.remove(path)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
