"""folnerlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload w1_circles --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see workloads.py and BENCHMARK.json for why each was
chosen): ``w1_circles``, ``coupling_product``, ``folner_exact``,
``ergodic_averages``.

With ``--trace 0`` the run reports end-to-end metrics:

- ``setup_s``: seconds from process start to the first timed op (import,
  systems, first inputs, one warm-up op of each kind), the median over
  ``SETUP_SAMPLES`` fresh processes: the measuring worker and set-up-only
  workers started before and after it;
- ``ops_per_s``, ``op_p50_s`` and ``op_tail_s`` over at least ``--seconds``
  seconds of timed ops, run as whole blocks (workloads.py): ops per second
  counts the ops of the whole blocks over their seconds, the tail is the
  highest percentile with at least ten samples beyond it, and its percentile
  and sample count are printed on the ``summary:`` line;
- ``peak_rss_mb`` of the process that ran the ops.

Every time is wall seconds scaled to a reference machine speed by the probe
in speed.py, measured beside the timed work in the same process; the
unscaled values are printed on the ``summary:`` line and kept in the record.

With ``--trace 1`` it runs a fixed set of ops (whole blocks), each once
untraced and once with a span recorder installed, and reports per-layer
metrics per op (tracer.py); it does not use ``--seconds``.

Every op result is checked against an independent reference after the
timed phase.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 if any op
failed.  Environment and details go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("w1_circles", "coupling_product", "folner_exact", "ergodic_averages")
SETUP_SAMPLES = 5  # spread over the run, so one slow spell of the machine counts once
DEADLINE_S = 170.0
# numeric libraries stay single-threaded in the benchmark's processes only
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}


def _git_sha() -> str | None:
    """HEAD's commit read from .git inside the checkout, if there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, *ref.split("/"))
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
    }


class Child:
    """A worker process; records when it reports READY and its RESULT."""

    def __init__(self, argv: list[str], env: dict, deadline: float):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *argv],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        timer.start()
        self.ready_s = self.speed_s = None
        self.result = None
        try:
            for line in self.proc.stdout:
                if line.startswith("READY") and self.ready_s is None:
                    self.ready_s = time.perf_counter() - started
                elif line.startswith("SPEED "):
                    self.speed_s = float(line.split()[1])
                elif line.startswith("RESULT "):
                    self.result = json.loads(line[len("RESULT "):])
                else:
                    sys.stderr.write(line)
            self.returncode = self.proc.wait()
        finally:
            timer.cancel()
            self.proc.stdout.close()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the self-test")
    p.add_argument("--perturb", action="store_true",
                   help="corrupt one result before checking, for the self-test")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "folnerlab", "__init__.py")):
        return fail("no folnerlab sources under src/; run from a source checkout")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    workdir = os.path.join(OUT, args.workload)
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, **THREAD_PINS, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    record = {"args": vars(args), "environment": environment(), "loadavg_start": os.getloadavg()}
    worker_argv = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--workdir", workdir,
    ] + (["--perturb"] if args.perturb else [])

    setup = []  # (seconds to READY, speed probe just after it) per process

    def setup_only(count: int) -> bool:
        for _ in range(count):
            child = Child(worker_argv + ["--setup-only"], env, deadline)
            if child.returncode != 0 or child.speed_s is None:
                return False
            setup.append((child.ready_s, child.speed_s))
        return True

    extra = 0 if args.trace else SETUP_SAMPLES - 1
    if not setup_only(extra // 2):
        return fail("set-up failed")
    child = Child(worker_argv, env, deadline)
    if child.returncode != 0 or child.result is None:
        return fail(f"worker failed with exit code {child.returncode}")
    setup.append((child.ready_s, child.speed_s))
    if not setup_only(extra - extra // 2):
        return fail("set-up failed")
    result = child.result
    metrics = result["metrics"]
    if not args.trace:
        scaled = [ready * speed.REFERENCE_S / probe for ready, probe in setup]
        metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
        result["info"]["raw"]["setup_s"] = statistics.median(ready for ready, _ in setup)
    record.update(loadavg_end=os.getloadavg(), setup_samples=setup, worker=result)

    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print("env: " + json.dumps(record["environment"], sort_keys=True))
    print(f"loadavg: start {record['loadavg_start']} end {record['loadavg_end']}")
    info = result["info"]
    summary = {
        "workload": args.workload,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "ops_failed_frac": out["failed"] / out["attempted"],
    }
    if not args.trace:
        summary.update(
            tail_percentile=info["tail_percentile"],
            tail_samples=info["samples"],
            samples_beyond_tail=info["samples_beyond_tail"],
            unscaled=info["raw"],
        )
    print("summary: " + json.dumps(summary))
    for failure in result["failures"]:
        print("FAILED " + failure.strip().replace("\n", " | "))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
