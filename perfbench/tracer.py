"""Span recorder that wraps public folnerlab functions from outside.

Installing a ``Tracer`` replaces each traced function at every module
attribute that binds it (``folnerlab.transport.assignment_min`` and
``folnerlab.analysis.assignment_min`` are the same function, so both are
wrapped), and the two traced methods on their classes.  Each call records a
span: name, start, end, parent span and op id.  Spans stay in memory in flat
arrays and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (span name, module, attribute); "Class.method" patches the class.
TARGETS = (
    ("transport.wasserstein_empirical", "folnerlab.transport", "wasserstein_empirical"),
    ("transport.orbit_cost_matrix", "folnerlab.transport", "orbit_cost_matrix"),
    ("transport.assignment_min", "folnerlab.transport", "assignment_min"),
    ("systems.orbit_sample", "folnerlab.systems", "orbit_sample"),
    ("systems.pairwise_distances", "folnerlab.systems", "pairwise_distances"),
    ("systems.metric", "folnerlab.systems", "metric"),
    ("words.symbol", "folnerlab.words", "Word.symbol"),
    ("measures.empirical_measure", "folnerlab.measures", "empirical_measure"),
    ("measures.integrate", "folnerlab.measures", "integrate"),
    ("measures.rho_distance", "folnerlab.measures", "rho_distance"),
    ("groups.subset", "folnerlab.groups", "FolnerSequence.subset"),
    ("groups.temperedness_report", "folnerlab.groups", "temperedness_report"),
    ("groups.folner_defect_left", "folnerlab.groups", "folner_defect_left"),
    ("groups.folner_defect_right", "folnerlab.groups", "folner_defect_right"),
    ("groups.extract_tempered_subsequence", "folnerlab.groups", "extract_tempered_subsequence"),
    ("analysis.coupling_bounds_check", "folnerlab.analysis", "coupling_bounds_check"),
    ("analysis.generic_measure_trace", "folnerlab.analysis", "generic_measure_trace"),
    ("analysis.mean_distance_trace", "folnerlab.analysis", "mean_distance_trace"),
    ("analysis.uniform_convergence_diagnostic", "folnerlab.analysis", "uniform_convergence_diagnostic"),
    ("cli.main", "folnerlab.cli", "main"),
)

SPAN_NAMES = tuple(name for name, _, _ in TARGETS)

# Counts computed from the inputs at the traced boundaries, reported per op.
COUNTERS = (
    "transport.cost_cells",
    "transport.solve_n3",
    "systems.atoms",
    "measures.observable_evals",
    "groups.product_pairs",
    "groups.union_products",
)


def _subset_size(seq, n: int) -> int:
    """|F_n| from the sequence's closed form, without enumerating it."""
    if seq.kind == "z_interval":
        return n
    if seq.kind == "zd_box":
        return (2 * n + 1) ** int(seq.group_id[2:] if seq.group_id != "Z" else 1)
    if seq.kind == "heisenberg_box":
        return (2 * n + 1) ** 2 * (2 * n * n + 1)
    return len(seq.subsets[n - 1].elements)


def _nested(seq, upto: int) -> bool:
    if seq.kind != "explicit_list":
        return True
    sets = [S.coord_set() for S in seq.subsets[:upto]]
    return all(a <= b for a, b in zip(sets, sets[1:]))


class Tracer:
    def __init__(self) -> None:
        self.name_idx = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, idx: int, fn, hook=None):
        name_idx, parent, op, start, end = (
            self.name_idx, self.parent, self.op, self.start, self.end
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_idx.append(idx)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _count_solve(self, args, kwargs, result) -> None:
        n = result.n
        self.counts["transport.cost_cells"] += n * n
        self.counts["transport.solve_n3"] += n**3

    def _count_atoms(self, args, kwargs, result) -> None:
        self.counts["systems.atoms"] += len(result)

    def _count_integrate(self, args, kwargs, result) -> None:
        mu = args[0] if args else kwargs["mu"]
        self.counts["measures.observable_evals"] += mu.count

    def _count_products(self, args, kwargs, result) -> None:
        seq = args[0] if args else kwargs["seq"]
        upto = result.indices[-1]
        sizes = [_subset_size(seq, n) for n in range(1, upto + 1)]
        nested = _nested(seq, upto)
        for n, ratio in zip(result.indices, result.ratios):
            left = sizes[n - 2] if nested else sum(sizes[: n - 1])
            self.counts["groups.product_pairs"] += left * sizes[n - 1]
            self.counts["groups.union_products"] += int(ratio * sizes[n - 1])

    def install(self) -> None:
        hooks = {
            "transport.assignment_min": self._count_solve,
            "systems.orbit_sample": self._count_atoms,
            "measures.integrate": self._count_integrate,
            "groups.temperedness_report": self._count_products,
        }
        modules = [m for k, m in sys.modules.items() if k == "folnerlab" or k.startswith("folnerlab.")]
        for idx, (name, module, attr) in enumerate(TARGETS):
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(idx, original, hooks.get(name)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(idx, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._installed.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._installed):
            setattr(owner, key, value)
        self._installed.clear()

    # -- summaries ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_idx": np.frombuffer(self.name_idx, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self.arrays())

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children (spans of one thread nest properly, so children never
        overlap).  Busy time counts only spans with no ancestor of the same
        name, so recursion such as a word reading its base word, or a
        product metric calling its factor metric, is not counted twice.
        """
        a = self.arrays()
        idx, parent, start, end = a["name_idx"], a["parent"], a["start"], a["end"]
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child_time
        out = {}
        for i, name in enumerate(SPAN_NAMES):
            sel = np.flatnonzero(idx == i)
            busy = 0.0
            if len(sel):
                # spans are stored in start order; a span lies inside an
                # earlier same-name span iff it starts before that one ended
                reach = np.maximum.accumulate(end[sel])
                outer = np.ones(len(sel), dtype=bool)
                outer[1:] = start[sel][1:] >= reach[:-1]
                busy = float(dur[sel][outer].sum())
            out[name] = {
                "calls": float(len(sel)),
                "busy_s": busy,
                "self_s": float(self_time[sel].sum()),
            }
        return out

    def top_level_seconds(self) -> float:
        a = self.arrays()
        top = a["parent"] < 0
        return float((a["end"][top] - a["start"][top]).sum())
