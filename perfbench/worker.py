"""Benchmark worker: set up one workload, run its ops in a closed loop, check them.

Started by run.py in a fresh process with BLAS/OpenMP pinned to one thread.
It prints ``READY`` when set-up is done (import, systems, first inputs, one
warm-up op of each kind), then ``SPEED <seconds>`` from the machine-speed
probe (speed.py) and, unless ``--setup-only``, ``RESULT <json>`` at the end.  Ops run one after another from this single caller; only the op
call itself is timed, and every result is checked after the timed phase.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time
import traceback

import speed


class Record:
    __slots__ = ("index", "kind", "inp", "result", "error", "seconds")

    def __init__(self, index, kind, inp):
        self.index, self.kind, self.inp = index, kind, inp
        self.result = self.error = None
        self.seconds = 0.0


def run_op(wl, i, tracer=None) -> Record:
    """Run op i once, timing only the call into the program."""
    rec = Record(i, *wl.op(i))
    if tracer is not None:
        tracer.op_id = i
    clock = time.perf_counter
    started = clock()
    try:
        rec.result = wl.run(rec.kind, rec.inp)
    except Exception:  # an op that raises is a failed op, not a crash
        rec.seconds = clock() - started
        rec.error = traceback.format_exc(limit=3)
    else:
        rec.seconds = clock() - started
    return rec


def run_blocks(wl, budget_s, first_probe):
    """Run whole blocks of ops until the timed seconds reach budget_s.

    Returns the op records and the speed probes: ``first_probe``, then one
    after each block (and after a cut one).  An op that raises ends the loop:
    the run has failed, and a failing op that returns at once must not spin
    the loop for the whole budget.  A block still running at three times the
    budget is cut, so a very slow program still ends in time.
    """
    records, probes = [], [first_probe]
    spent = 0.0
    for i in itertools.count():
        rec = run_op(wl, i)
        records.append(rec)
        spent += rec.seconds
        block_done = (i + 1) % len(wl.block) == 0
        if block_done or rec.error is not None or spent >= 3 * budget_s:
            probes.append(speed.probe())
        if rec.error is not None or spent >= 3 * budget_s:
            break
        if block_done and spent >= budget_s:
            break
    return records, probes


def check_all(wl, records, perturb: bool) -> list[str]:
    failures = []
    for k, rec in enumerate(records):
        if rec.error is not None:
            failures.append(f"op {rec.index} ({rec.kind}) raised: {rec.error}")
            continue
        result = _perturbed(rec.result) if perturb and k == 0 else rec.result
        try:
            message = wl.check(rec.kind, rec.inp, result)
        except Exception:  # a check that cannot run is a failure, too
            message = "check raised: " + traceback.format_exc(limit=3)
        if message:
            failures.append(f"op {rec.index} ({rec.kind}): {message}")
    return failures


def _perturbed(value):
    """A deliberately wrong copy of an op result, for the self-test."""
    if isinstance(value, tuple):
        return (_perturbed(value[0]),) + value[1:]
    return value + 1e-3 if isinstance(value, float) else value + 1


def timing_metrics(records, probes, block_len) -> tuple[dict, dict]:
    """End-to-end timings, in seconds scaled to the reference speed (speed.py)."""
    scale = [
        2 * speed.REFERENCE_S / (before + after) for before, after in zip(probes, probes[1:])
    ]
    raw = [r.seconds for r in records]
    scaled = [t * scale[k // block_len] for k, t in enumerate(raw)]
    whole = len(records) // block_len * block_len
    n = len(records)
    # highest percentile with at least ten samples beyond it (the maximum
    # when a run is too short to have one)
    tail_rank = n - 11 if n >= 11 else n - 1

    def summary(seconds):
        # throughput over whole blocks, so every run weighs the sizes alike
        per_s = whole / sum(seconds[:whole]) if whole else n / sum(seconds)
        return per_s, statistics.median(seconds), sorted(seconds)[tail_rank]

    per_s, p50, tail = summary(scaled)
    metrics = {"ops_per_s": (per_s, "1/s"), "op_p50_s": (p50, "s"), "op_tail_s": (tail, "s")}
    info = {
        "samples": n,
        "tail_percentile": 100.0 * (tail_rank + 1) / n,
        "samples_beyond_tail": n - tail_rank - 1,
        "raw": dict(zip(("ops_per_s", "op_p50_s", "op_tail_s"), summary(raw))),
        "probes_s": probes,
        "per_kind": _per_kind(records),
        "ops": [[r.kind, r.seconds] for r in records],
    }
    return metrics, info


def _per_kind(records) -> dict:
    kinds: dict[str, list[float]] = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(r.seconds)
    return {k: {"ops": len(v), "median_s": statistics.median(v)} for k, v in kinds.items()}


def trace_metrics(tracer, traced, untraced) -> dict:
    ops = len(traced)
    wall = sum(r.seconds for r in traced)
    out = {}
    totals = tracer.layer_totals()
    for name, row in totals.items():
        out[name + ".calls"] = (row["calls"] / ops, "calls/op")
        out[name + ".busy_s"] = (row["busy_s"] / ops, "s/op")
        out[name + ".self_s"] = (row["self_s"] / ops, "s/op")
    c = tracer.counts
    out["transport.cost_cells"] = (c["transport.cost_cells"] / ops, "cells/op")
    out["transport.solve_n3"] = (c["transport.solve_n3"] / ops, "n3/op")
    w1_busy = totals["transport.wasserstein_empirical"]["busy_s"]
    solve_self = totals["transport.assignment_min"]["self_s"]
    out["transport.solve_share"] = (solve_self / w1_busy if w1_busy else 0.0, "ratio")
    out["systems.atoms"] = (c["systems.atoms"] / ops, "atoms/op")
    out["measures.observable_evals"] = (c["measures.observable_evals"] / ops, "evals/op")
    pairs = c["groups.product_pairs"]
    out["groups.product_pairs"] = (pairs / ops, "pairs/op")
    out["groups.union_unique_frac"] = (c["groups.union_products"] / pairs if pairs else 0.0, "ratio")
    out["trace.overhead_frac"] = (wall / sum(r.seconds for r in untraced) - 1.0, "ratio")
    out["trace.top_span_coverage"] = (tracer.top_level_seconds() / wall, "ratio")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--perturb", action="store_true")
    args = p.parse_args(argv)

    import workloads

    wl = workloads.Workload(args.workload, args.seed, args.scale, args.workdir)
    for kind, inp in wl.warmups():
        wl.run(kind, inp)
    # draw one block of inputs, as the timed ops will
    for i in range(len(wl.block)):
        wl.op(i)
    print("READY", flush=True)
    # the speed just after set-up scales set-up time (run.py) and the first block
    first_probe = speed.probe()
    print(f"SPEED {first_probe!r}", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        from tracer import Tracer

        # a fixed set of ops, whole blocks, each run once untraced and once
        # traced, in alternating order, so per-op counts repeat exactly for
        # a seed and drift of the machine cancels in the overhead
        tracer = Tracer()

        def traced_op(i):
            tracer.install()
            try:
                return run_op(wl, i, tracer)
            finally:
                tracer.uninstall()

        untraced, traced = [], []
        for i in range(wl.trace_blocks * len(wl.block)):
            if i % 2:
                traced.append(traced_op(i))
                untraced.append(run_op(wl, i))
            else:
                untraced.append(run_op(wl, i))
                traced.append(traced_op(i))
        tracer.save(os.path.join(args.workdir, "spans.npz"))
        records = untraced + traced
        metrics = trace_metrics(tracer, traced, untraced)
        info = {"ops_traced": len(traced)}
    else:
        records, probes = run_blocks(wl, args.seconds, first_probe)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics, info = timing_metrics(records, probes, len(wl.block))
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")

    failures = check_all(wl, records, args.perturb)
    result = {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:5],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
