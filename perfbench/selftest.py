"""Self-test of the benchmark: every workload at tiny size.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it checks that an untraced run prints
exactly the end-to-end metrics with their units, that a traced run prints
exactly the per-layer metrics with their units, and that a deliberately
perturbed result is counted as a failed op and makes the run exit nonzero.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit("selftest FAILED: " + message)


def run(workload: str, trace: int, perturb: bool = False) -> tuple[int, dict]:
    argv = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny",
    ] + (["--perturb"] if perturb else [])
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=170)
    lines = proc.stdout.strip().splitlines()
    expect(bool(lines), f"{workload}: no output; stderr: {proc.stderr[-2000:]}")
    return proc.returncode, json.loads(lines[-1])


def expect_metrics(label: str, out: dict, entries: list[dict]) -> None:
    names = {e["name"] for e in entries}
    expect(set(out["metrics"]) == names,
           f"{label}: metric names differ: {sorted(set(out['metrics']) ^ names)}")
    for e in entries:
        metric = out["metrics"][e["name"]]
        expect(metric["unit"] == e["unit"], f"{label}: {e['name']} unit {metric['unit']!r}")
        expect(isinstance(metric["value"], (int, float)), f"{label}: {e['name']} value")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in (w["name"] for w in spec["workloads"]):
        code, out = run(workload, 0)
        expect(code == 0 and out["correct"] and out["failed"] == 0, f"{workload}: {out}")
        expect(out["attempted"] >= 1, f"{workload}: no ops attempted")
        expect_metrics(workload, out, spec["end_to_end"])

        code, out = run(workload, 1)
        expect(code == 0 and out["correct"], f"{workload} traced: {out}")
        expect_metrics(workload + " traced", out, spec["per_layer"])

        code, out = run(workload, 0, perturb=True)
        expect(code != 0 and not out["correct"] and out["failed"] == 1,
               f"{workload}: a perturbed result was not counted as one failed op: {out}")
        print(f"selftest: {workload} ok", flush=True)
    print("selftest: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
