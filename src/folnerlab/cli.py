"""Command-line front end.

Subcommands: catalog, run, verify, defect, tempered, wdist, trace.
The shortcuts defect, tempered, wdist and trace run the same ``_OPERATIONS``
entries as ``run``, and their ``--group`` must agree with ``--kind``.
Exit codes: 0 success, 1 runtime failure, 2 configuration failure.
Every failure prints a single machine-parseable line to stderr:
``error[ClassName]: message``.

Configs are strict JSON: unknown keys and values of the wrong type, operation
params and output paths included, are rejected with their key path before
the operation runs, and identical config + seed yields
byte-identical CSV output.  Report files never
contain wall-clock timings; those go to stdout only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys as _sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from . import __version__ as VERSION
from . import analysis, groups, measures, systems, transport
from .errors import ConfigError, FolnerlabError, GroupMismatchError
from .rationals import parse_rational

__all__ = ["main"]

_DEFAULT_TOLERANCES = {"metric": 1e-9, "rho_terms": 40, "threshold": 0.05}


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue().encode("utf-8"))


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _atomic_write(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# Config validation


def _check_keys(
    obj: dict, allowed: set[str], required: set[str], path: str
) -> None:
    if not isinstance(obj, dict):
        raise ConfigError("expected an object", path)
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}", f"{path}.{key}" if path else key)
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing required key {key!r}", path or key)


def _require(value: object, types: tuple[type, ...], what: str, path: str) -> None:
    # bool is a subclass of int, but true/false are not numbers in a config
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"expected {what}, got {json.dumps(value)}", path)


def _integer(value: object, path: str) -> None:
    _require(value, (int,), "an integer", path)


def _number(value: object, path: str) -> None:
    _require(value, (int, float), "a number", path)
    # an integer such as 10**400 has no float value
    if abs(value) > _sys.float_info.max:
        raise ConfigError("expected a number within the float range", path)


def _string(value: object, path: str) -> None:
    _require(value, (str,), "a string", path)


def _rational(value: object, path: str) -> None:
    _require(value, (str, int, float), "a rational number", path)


def _any(value: object, path: str) -> None:
    # points and pair objects are checked where they are parsed
    pass


def _list_of(item: Callable[[object, str], None]) -> Callable[[object, str], None]:
    def check(value: object, path: str) -> None:
        _require(value, (list,), "a list", path)
        for entry in value:
            item(entry, f"{path}[]")

    return check


def _one_of(*allowed: str) -> Callable[[object, str], None]:
    def check(value: object, path: str) -> None:
        _string(value, path)
        if value not in allowed:
            expected = " or ".join(map(repr, allowed))
            raise ConfigError(f"expected {expected}, got {json.dumps(value)}", path)

    return check


_side = _one_of("left", "right")


def _integer_pair(value: object, path: str) -> None:
    _require(value, (list,), "a pair of integers", path)
    if len(value) != 2:
        raise ConfigError(f"expected a pair of integers, got {json.dumps(value)}", path)
    _list_of(_integer)(value, path)


def _build_system(system_cfg: dict) -> systems.GSystem:
    _check_keys(system_cfg, {"name", "params"}, {"name"}, "system")
    _string(system_cfg["name"], "system.name")
    params = system_cfg.get("params", {})
    _require(params, (dict,), "an object", "system.params")
    return systems.build_system(system_cfg["name"], params)


# the type check of each param that some Folner kind takes
_FOLNER_PARAMS = {
    "anchor": _side,
    "subsets": _list_of(_list_of(_list_of(_integer))),
    "claimed_sides": _list_of(_side),
}


def _build_sequence(group_id: str, folner: dict) -> groups.FolnerSequence:
    _check_keys(folner, {"kind", *_FOLNER_PARAMS}, {"kind"}, "folner")
    try:
        groups.group_rank(group_id)
    except ValueError as exc:
        raise ConfigError(str(exc), "group") from None
    kind = folner["kind"]
    if not isinstance(kind, str) or kind not in groups.FOLNER_KINDS:
        raise ConfigError(f"unknown Folner kind {kind!r}", "folner.kind")
    spec = groups.FOLNER_KINDS[kind]
    _check_keys(folner, {"kind", *spec.params}, set(), "folner")
    for key in spec.required:
        if key not in folner:
            raise ConfigError(f"{kind} needs {key!r}", "folner")
    params = {key: folner[key] for key in spec.params if key in folner}
    for key, value in params.items():
        _FOLNER_PARAMS[key](value, f"folner.{key}")
    try:
        return groups.sequence_from_dict(
            {"group": group_id, "kind": kind, "params": params}
        )
    except GroupMismatchError as exc:
        raise ConfigError(str(exc), "folner.kind") from None
    except ValueError as exc:  # row lengths, duplicates, empty subsets
        raise ConfigError(str(exc), "folner.subsets") from None


@dataclass
class _RunContext:
    system: systems.GSystem | None
    seq: groups.FolnerSequence | None
    indices: tuple[int, ...] | None
    seed: int
    tolerances: dict

    def require_seq(self) -> groups.FolnerSequence:
        if self.seq is None:
            raise ConfigError("this operation needs a 'folner' section", "folner")
        return self.seq

    def require_indices(self) -> tuple[int, ...]:
        if not self.indices:
            raise ConfigError("this operation needs 'indices'", "indices")
        return self.indices


@dataclass
class _OpOutput:
    summary: dict
    csv_table: tuple[list[str], list[list[str]]]
    json_payload: dict


def _parse_pair_list(raw: object, path: str) -> list:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("expected a nonempty list of pairs", path)
    return raw


def _op_trace(trace_fn: Callable, ctx: _RunContext, params: dict) -> _OpOutput:
    x = systems.parse_point(ctx.system, params["x"])
    y = systems.parse_point(ctx.system, params["y"])
    trace = trace_fn(
        ctx.system, x, y, ctx.require_seq(), ctx.require_indices(),
        ctx.tolerances["metric"],
    )
    return _OpOutput(
        summary={
            "final_value": trace.values[-1],
            "limsup_estimate": trace.limsup_estimate,
        },
        csv_table=trace.csv_table(),
        json_payload={
            "kind": trace.kind,
            "indices": list(trace.indices),
            "values": list(trace.values),
            "limsup_estimate": trace.limsup_estimate,
        },
    )


def _op_wdist(ctx: _RunContext, params: dict) -> _OpOutput:
    x = systems.parse_point(ctx.system, params["x"])
    y = systems.parse_point(ctx.system, params["y"])
    n = params["n"]
    F = ctx.require_seq().subset(n)
    mu = measures.empirical_measure(ctx.system, x, F)
    nu = measures.empirical_measure(ctx.system, y, F)
    value = transport.wasserstein_empirical(mu, nu, ctx.tolerances["metric"])
    header, rows = ["n", "value"], [(n, value)]
    (record,) = analysis._records(header, rows)
    return _OpOutput(
        summary=record, csv_table=analysis._csv(header, rows), json_payload=record
    )


def _op_defect_table(ctx: _RunContext, params: dict) -> _OpOutput:
    seq = ctx.require_seq()
    indices = ctx.require_indices()
    sides = params.get("sides", ["left", "right"])
    for key, value in (("elements", params["elements"]), ("sides", sides)):
        if not value:  # a table of no rows would read as a zero defect
            raise ConfigError("expected a nonempty list", f"operation.params.{key}")
    rows = []
    for coords in params["elements"]:
        g = groups.GroupElement(seq.group_id, tuple(coords))
        g_cell = ",".join(map(str, coords))
        for n in indices:
            F = seq.subset(n)
            for side in sides:
                if side == "left":
                    value = groups.folner_defect_left(F, g)
                else:
                    value = groups.folner_defect_right(F, g)
                rows.append((seq.group_id, seq.kind, n, g_cell, side, value))
    worst = max(row[-1] for row in rows)
    header = ["group", "kind", "n", "g", "side", "defect"]
    # the JSON rows hold the CSV cells, exact defects and indices as strings
    table = analysis._csv(header, rows)
    return _OpOutput(
        summary={"rows": len(rows), "max_defect": str(worst)},
        csv_table=table,
        json_payload={"rows": analysis._records(header, table[1])},
    )


def _op_temperedness(ctx: _RunContext, params: dict) -> _OpOutput:
    report = groups.temperedness_report(ctx.require_seq(), params["upto"])
    return _OpOutput(
        summary={"constant": str(report.constant)},
        csv_table=analysis._csv(["n", "ratio"], zip(report.indices, report.ratios)),
        json_payload={
            "indices": list(report.indices),
            "ratios": [str(r) for r in report.ratios],
            "constant": str(report.constant),
        },
    )


def _op_tempered_extraction(ctx: _RunContext, params: dict) -> _OpOutput:
    # str() keeps a JSON 0.1 meaning 1/10
    constant = parse_rational(str(params["constant"]))
    indices = groups.extract_tempered_subsequence(
        ctx.require_seq(), constant, params["count"]
    )
    return _OpOutput(
        summary={"indices": list(indices)},
        csv_table=analysis._csv(["position", "index"], enumerate(indices, 1)),
        json_payload={"indices": list(indices)},
    )


def _op_coupling_bounds(ctx: _RunContext, params: dict) -> _OpOutput:
    product = systems.product_system(ctx.system)
    pairs = []
    for item in _parse_pair_list(params["pairs"], "operation.params.pairs"):
        _check_keys(item, {"z1", "z2"}, {"z1", "z2"}, "operation.params.pairs[]")
        pairs.append(
            (
                systems.parse_point(product, item["z1"]),
                systems.parse_point(product, item["z2"]),
            )
        )
    report = analysis.coupling_bounds_check(
        product, pairs, ctx.require_seq(), ctx.require_indices(),
        ctx.tolerances["metric"],
    )
    return _OpOutput(
        summary={"max_violation": report.max_violation},
        csv_table=report.csv_table(),
        json_payload=report.to_json_dict(),
    )


def _op_unique_ergodicity(ctx: _RunContext, params: dict) -> _OpOutput:
    points = [systems.parse_point(ctx.system, p) for p in params["points"]]
    report = analysis.unique_ergodicity_diagnostic(
        ctx.system,
        points,
        ctx.require_seq(),
        params["n"],
        N=ctx.tolerances["rho_terms"],
        threshold=float(params.get("threshold", ctx.tolerances["threshold"])),
        tol=ctx.tolerances["metric"],
    )
    return _OpOutput(
        summary={
            "max_w": report.max_w,
            "max_rho": report.max_rho,
            "consistent": report.consistent,
        },
        csv_table=report.csv_table(),
        json_payload=report.to_json_dict(),
    )


def _op_generic_measure_trace(ctx: _RunContext, params: dict) -> _OpOutput:
    x = systems.parse_point(ctx.system, params["x"])
    trace = analysis.generic_measure_trace(
        ctx.system, x, ctx.require_seq(), ctx.require_indices(),
        N=ctx.tolerances["rho_terms"],
    )
    return _OpOutput(
        summary={"cauchy_defect": trace.cauchy_defect},
        csv_table=trace.csv_table(),
        json_payload={
            "indices": list(trace.indices),
            "consecutive_rho": list(trace.consecutive_rho),
            "cauchy_defect": trace.cauchy_defect,
        },
    )


def _op_measure_map_continuity(ctx: _RunContext, params: dict) -> _OpOutput:
    grid = [systems.parse_point(ctx.system, p) for p in params["grid"]]
    report = analysis.measure_map_continuity_diagnostic(
        ctx.system,
        grid,
        ctx.require_seq(),
        params["n"],
        N=ctx.tolerances["rho_terms"],
        tol=ctx.tolerances["metric"],
    )
    max_rho = max(r for _, _, r in report.rows)
    return _OpOutput(
        summary={"pairs": len(report.rows), "max_rho": max_rho},
        csv_table=report.csv_table(),
        json_payload=report.to_json_dict(),
    )


def _op_uniform_convergence(ctx: _RunContext, params: dict) -> _OpOutput:
    family = measures.observable_family(ctx.system)
    f = family.observable(params["observable_index"])
    grid = [systems.parse_point(ctx.system, p) for p in params["grid"]]
    report = analysis.uniform_convergence_diagnostic(
        ctx.system, f, grid, ctx.require_seq(), params["index_pairs"]
    )
    max_gap = max(s for _, _, s in report.rows)
    return _OpOutput(
        summary={"observable": f.name, "max_sup_gap": max_gap},
        csv_table=report.csv_table(),
        json_payload=report.to_json_dict(),
    )


def _op_modulus(ctx: _RunContext, params: dict) -> _OpOutput:
    sampler = analysis.near_pair_sampler(
        ctx.system, params.get("sampler_seed", ctx.seed)
    )
    estimate = analysis.modulus_estimate(
        ctx.system,
        params["kind"],
        ctx.require_seq(),
        [float(d) for d in params["deltas"]],
        sampler,
        ctx.require_indices(),
        pairs_per_delta=params.get("pairs_per_delta", 32),
        tol=ctx.tolerances["metric"],
    )
    return _OpOutput(
        summary={
            "kind": estimate.kind,
            "max_sup": estimate.sup_values[-1],
        },
        csv_table=estimate.csv_table(),
        json_payload={
            "kind": estimate.kind,
            "delta_grid": list(estimate.delta_grid),
            "sup_values": list(estimate.sup_values),
            "sample_count": estimate.sample_count,
        },
    )


@dataclass(frozen=True)
class _OpSpec:
    """A runner and the type check of each required and optional param."""

    runner: Callable[[_RunContext, dict], _OpOutput]
    required: dict[str, Callable[[object, str], None]]
    optional: dict[str, Callable[[object, str], None]] = field(default_factory=dict)


_TRACE_PARAMS = {"x": _any, "y": _any}

_OPERATIONS: dict[str, _OpSpec] = {
    # the analysis attribute is read per call, so wrappers installed on it apply
    "wasserstein_trace": _OpSpec(
        lambda ctx, params: _op_trace(analysis.wasserstein_trace, ctx, params),
        _TRACE_PARAMS,
    ),
    "mean_distance_trace": _OpSpec(
        lambda ctx, params: _op_trace(analysis.mean_distance_trace, ctx, params),
        _TRACE_PARAMS,
    ),
    "wdist": _OpSpec(_op_wdist, {"x": _any, "y": _any, "n": _integer}),
    "defect_table": _OpSpec(
        _op_defect_table,
        {"elements": _list_of(_list_of(_integer))},
        {"sides": _list_of(_side)},
    ),
    "temperedness": _OpSpec(_op_temperedness, {"upto": _integer}),
    "tempered_extraction": _OpSpec(
        _op_tempered_extraction, {"constant": _rational, "count": _integer}
    ),
    "coupling_bounds": _OpSpec(_op_coupling_bounds, {"pairs": _any}),
    "unique_ergodicity": _OpSpec(
        _op_unique_ergodicity,
        {"points": _list_of(_any), "n": _integer},
        {"threshold": _number},
    ),
    "generic_measure_trace": _OpSpec(_op_generic_measure_trace, {"x": _any}),
    "measure_map_continuity": _OpSpec(
        _op_measure_map_continuity, {"grid": _list_of(_any), "n": _integer}
    ),
    "uniform_convergence": _OpSpec(
        _op_uniform_convergence,
        {
            "observable_index": _integer,
            "grid": _list_of(_any),
            "index_pairs": _list_of(_integer_pair),
        },
    ),
    "modulus": _OpSpec(
        _op_modulus,
        {"kind": _one_of("wasserstein", "mean_distance"), "deltas": _list_of(_number)},
        {"pairs_per_delta": _integer, "sampler_seed": _integer},
    ),
}


def _reject_constant(name: str) -> None:
    # json.load would read NaN, Infinity and -Infinity, which JSON lacks, as floats
    raise ConfigError(f"config is not valid JSON: {name} is not a JSON number")


def _finite_float(text: str) -> float:
    # a number beyond the float range, such as 1e999, would read as inf
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"config number {text} is out of the float range")
    return value


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(
                handle, parse_constant=_reject_constant, parse_float=_finite_float
            )
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def _run_operation(ctx: _RunContext, op_name: object, op_params: object) -> _OpOutput:
    """Validate one ``_OPERATIONS`` entry's name and params, then run it."""
    _string(op_name, "operation.name")
    if op_name not in _OPERATIONS:
        known = ", ".join(sorted(_OPERATIONS))
        raise ConfigError(
            f"unknown operation {op_name!r}; known operations: {known}",
            "operation.name",
        )
    spec = _OPERATIONS[op_name]
    checks = spec.required | spec.optional
    _check_keys(op_params, set(checks), set(spec.required), "operation.params")
    for key, value in op_params.items():
        checks[key](value, f"operation.params.{key}")
    return spec.runner(ctx, op_params)


def _run_config(config: dict, out_dir: str, seed_override: int | None) -> dict:
    _check_keys(
        config,
        {"system", "folner", "indices", "seed", "tolerances", "operation", "output"},
        {"system", "operation"},
        "",
    )
    sys_obj = _build_system(config["system"])

    seq = None
    if "folner" in config:
        seq = _build_sequence(sys_obj.group_id, config["folner"])

    indices = None
    if "indices" in config:
        _list_of(_integer)(config["indices"], "indices")
        indices = tuple(config["indices"])

    tolerances = dict(_DEFAULT_TOLERANCES)
    if "tolerances" in config:
        _check_keys(
            config["tolerances"], set(_DEFAULT_TOLERANCES), set(), "tolerances"
        )
        for key, value in config["tolerances"].items():
            if key == "rho_terms":
                _integer(value, "tolerances.rho_terms")
            else:
                _number(value, f"tolerances.{key}")
        tolerances.update(config["tolerances"])

    seed = config.get("seed", 0)
    _integer(seed, "seed")
    if seed_override is not None:
        seed = seed_override

    op_cfg = config["operation"]
    _check_keys(op_cfg, {"name", "params"}, {"name"}, "operation")
    output_cfg = config.get("output", {})
    _check_keys(output_cfg, {"csv", "json"}, set(), "output")
    for key, value in output_cfg.items():
        _string(value, f"output.{key}")

    ctx = _RunContext(sys_obj, seq, indices, seed, tolerances)
    started = time.perf_counter()
    result = _run_operation(ctx, op_cfg["name"], op_cfg.get("params", {}))
    elapsed = time.perf_counter() - started

    effective = dict(config)
    effective["seed"] = seed
    outputs = {}
    if "csv" in output_cfg:
        path = os.path.join(out_dir, output_cfg["csv"])
        _write_csv(path, *result.csv_table)
        outputs["csv"] = path
    if "json" in output_cfg:
        path = os.path.join(out_dir, output_cfg["json"])
        _write_json(path, result.json_payload)
        outputs["json"] = path

    report = {
        "version": VERSION,
        "operation": op_cfg["name"],
        "config": effective,
        "outputs": outputs,
        "summary": result.summary,
    }
    return {"report": report, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# Verify suites


@dataclass(frozen=True)
class _Check:
    name: str
    passed: bool
    detail: str


def _suite_assignment_oracle() -> list[_Check]:
    import numpy as np

    rng = np.random.default_rng(20240801)
    checks = []
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 9))
        C = transport.CostMatrix(rng.random((n, n)))
        gap = abs(
            transport.assignment_min(C).cost - transport.bruteforce_min(C).cost
        )
        worst = max(worst, gap)
    checks.append(
        _Check(
            "random matrices n=2..8 match brute force",
            worst <= 1e-12,
            f"max gap {worst:.2e} over 200 trials",
        )
    )
    zero = transport.CostMatrix(np.zeros((4, 4)))
    checks.append(
        _Check(
            "zero matrix has zero cost",
            transport.assignment_min(zero).cost == 0.0,
            "n=4",
        )
    )
    eye = transport.CostMatrix(1.0 - np.eye(5))
    res = transport.assignment_min(eye)
    checks.append(
        _Check(
            "identity-favoring matrix picks the diagonal",
            res.cost == 0.0 and res.row_for_col == tuple(range(5)),
            f"cost {res.cost}",
        )
    )
    # constant matrices take the solver's shortcut; one ulp off runs the loop
    worst = 0.0
    exact = True
    for n in range(2, 9):
        for c in (0.0, 0.1, 1.0, 3.7e5):
            M = np.full((n, n), c)
            off = M.copy()
            off[tuple(rng.integers(0, n, size=2))] = np.nextafter(c, np.inf)
            for C in (transport.CostMatrix(M), transport.CostMatrix(off)):
                gap = transport.assignment_min(C).cost - transport.bruteforce_min(C).cost
                worst = max(worst, abs(gap))
            res = transport.assignment_min(transport.CostMatrix(M))
            u = np.asarray(res.row_potentials)
            v = np.asarray(res.col_potentials)
            exact = exact and bool(np.all(M - u[:, None] - v[None, :] == 0.0))
    checks.append(
        _Check(
            "constant and one-ulp-off matrices n=2..8 match brute force",
            worst <= 1e-12 and exact,
            f"max gap {worst:.2e}, constant reduced costs exactly 0: {exact}",
        )
    )
    # tie-heavy entries make most solver rounds zero-delta ones; the
    # potentials stay integers, so the dual certificate holds exactly
    worst = 0.0
    exact = True
    for _ in range(200):
        n = int(rng.integers(2, 9))
        M = rng.choice(np.array([0.0, -0.0, 1.0, 2.0]), size=(n, n))
        C = transport.CostMatrix(M)
        res = transport.assignment_min(C)
        worst = max(worst, abs(res.cost - transport.bruteforce_min(C).cost))
        slack = M - np.asarray(res.row_potentials)[:, None] - np.asarray(
            res.col_potentials
        )[None, :]
        exact = (
            exact
            and bool(np.all(slack >= 0.0))
            and bool(np.all(slack[list(res.row_for_col), range(n)] == 0.0))
        )
    checks.append(
        _Check(
            "tie-heavy {0, -0, 1, 2} matrices n=2..8 match brute force",
            worst <= 1e-12 and exact,
            f"max gap {worst:.2e} over 200 trials, reduced costs exactly >= 0"
            f" and exactly 0 on the matching: {exact}",
        )
    )
    return checks


def _suite_folner_defects() -> list[_Check]:
    checks = []
    seq = groups.z_intervals()
    one = groups.element("Z", 1)
    minus = groups.element("Z", -1)
    ok = all(
        groups.folner_defect_left(seq.subset(n), g) == Fraction(2, n)
        for n in range(1, 129)
        for g in (one, minus)
    )
    checks.append(_Check("Z intervals: defect(+-1) = 2/n for n <= 128", ok, "exact"))

    boxes = groups.zd_boxes(2)
    gx = groups.element("Z^2", 1, 0)
    ok = all(
        groups.folner_defect_left(boxes.subset(n), gx) == Fraction(2, 2 * n + 1)
        for n in range(1, 17)
    )
    checks.append(_Check("Z^2 boxes: defect = 2/(2n+1) for n <= 16", ok, "exact"))

    hseq = groups.heisenberg_boxes()
    expected = {2: Fraction(46, 75), 4: Fraction(914, 2673)}
    ga = groups.element("heisenberg", 1, 0, 0)
    ok = all(
        groups.folner_defect_left(hseq.subset(n), ga) == v
        for n, v in expected.items()
    )
    checks.append(
        _Check("Heisenberg boxes: frozen defects at n=2,4", ok, "exact rationals")
    )

    F = boxes.subset(5)
    g = groups.element("Z^2", 2, -3)
    ok = groups.folner_defect_left(F, g) == groups.folner_defect_right(F, g)
    checks.append(_Check("abelian: left defect equals right defect", ok, "Z^2 sample"))
    return checks


def _suite_temperedness() -> list[_Check]:
    import random as _random

    checks = []
    seq = groups.z_intervals()
    report = groups.temperedness_report(seq, 32)
    ok = report.constant <= 2 and all(
        r == Fraction(2 * n - 2, n) for n, r in zip(report.indices, report.ratios)
    )
    checks.append(
        _Check(
            "Z intervals tempered with C=2 up to n=32",
            ok,
            f"constant {report.constant}",
        )
    )
    picked = groups.extract_tempered_subsequence(seq, Fraction(2), 6)
    sub = groups.explicit_sequence([seq.subset(n) for n in picked])
    re_report = groups.temperedness_report(sub, len(picked))
    checks.append(
        _Check(
            "greedy extraction re-verifies",
            re_report.constant <= 2,
            f"indices {picked}",
        )
    )

    report = groups.temperedness_report(groups.zd_boxes(2), 16)
    ok = all(
        r == Fraction(4 * n - 1, 2 * n + 1) ** 2
        for n, r in zip(report.indices, report.ratios)
    )
    checks.append(
        _Check("Z^2 boxes: ratio ((4n-1)/(2n+1))^2 up to n=16", ok, "exact")
    )

    # brute force over coordinate tuples; the 2^33 pair is counted on the
    # exact tuple path, since its Heisenberg c-products pass int64
    big = 2**33
    wide = groups.explicit_sequence(
        [
            groups.FiniteSubset.from_coords("heisenberg", rows)
            for rows in ([[0, 0, 0], [big, 1, 0]], [[0, 0, 0], [1, big, 0]])
        ]
    )
    ok = True
    for seq, upto in ((groups.heisenberg_boxes(), 3), (wide, 2)):
        report = groups.temperedness_report(seq, upto)
        for n, r in zip(report.indices, report.ratios):
            F = seq.subset(n)
            union = {
                groups.multiply(groups.inverse(a), b).coords
                for k in range(1, n)
                for a in seq.subset(k)
                for b in F
            }
            ok &= r == Fraction(len(union), F.size)
    checks.append(
        _Check(
            "Heisenberg ratios match brute force (boxes n<=3, 2^33 coordinates)",
            ok,
            "exact",
        )
    )

    # scattered coordinates put the product box past the bitmap cap, and
    # 257 x 257 products span two key tiles
    rng = _random.Random(11)
    ok = True
    for gid, spread in (("Z^2", 10**6), ("heisenberg", 10**3)):
        rank = groups.group_rank(gid)
        seq = groups.explicit_sequence(
            [
                groups.FiniteSubset.from_coords(
                    gid,
                    {tuple(rng.randint(-spread, spread) for _ in range(rank))
                     for _ in range(257)},
                )
                for _ in range(2)
            ]
        )
        first, second = seq.subsets
        inverses = [groups.inverse(a) for a in first]
        union = {groups.multiply(a, b).coords for a in inverses for b in second}
        ratio = groups.temperedness_report(seq, 2).ratios[0]
        ok &= ratio == Fraction(len(union), second.size)
        product = groups.product_subset(groups.invert_subset(first), second)
        ok &= [g.coords for g in product] == sorted(union)
    checks.append(
        _Check(
            "sparse products past the bitmap cap match a tuple-set count and rows",
            ok,
            "Z^2 and Heisenberg, two key tiles each; product rows in sorted order",
        )
    )
    return checks


def _suite_wasserstein_axioms() -> list[_Check]:
    import random as _random

    rng = _random.Random(7)
    seq = groups.z_intervals()
    tol = 1e-9
    symmetric = True
    triangle = True
    zero_self = True
    # 3 interval pairs have a float optimum that depends on the cost matrix's
    # orientation, so their symmetry rests on W1's side order
    for sys_obj, n, count, draw in (
        (systems.rotation("golden"), 32, 30,
         lambda: Fraction(rng.getrandbits(32), 1 << 32)),
        (systems.interval_square(), 8, 10, rng.random),
    ):
        F = seq.subset(n)
        for _ in range(count):
            pts = [systems.parse_point(sys_obj, draw()) for _ in range(3)]
            ms = [measures.empirical_measure(sys_obj, p, F) for p in pts]
            w = {(i, j): transport.wasserstein_empirical(ms[i], ms[j], tol)
                 for i in range(3) for j in range(3) if i != j}
            symmetric &= all(w[i, j] == w[j, i] for i, j in w)
            triangle &= w[0, 2] <= w[0, 1] + w[1, 2] + 3 * tol
            zero_self &= transport.wasserstein_empirical(ms[0], ms[0], tol) == 0.0
    checks = [
        _Check("symmetry is exact", symmetric, "30 rotation, 10 interval triples"),
        _Check("triangle inequality within 3*tol", triangle, "same triples"),
        _Check("self-distance is zero", zero_self, "identity pairing"),
    ]
    union = systems.two_rotations()
    a = systems.union_point(union, "a", Fraction(1, 3))
    b = systems.union_point(union, "b", Fraction(1, 7))
    F = seq.subset(32)
    mu = measures.empirical_measure(union, a, F)
    nu = measures.empirical_measure(union, b, F)
    checks.append(
        _Check(
            "cross-component distance is exactly 1",
            transport.wasserstein_empirical(mu, nu, tol) == 1.0,
            "disjoint union of rotations",
        )
    )
    # the trace solves its indices as one batch, large enough for the worker
    # pool where there are two usable CPUs
    indices = [32, 40, 48]
    same = True
    golden, square = systems.rotation("golden"), systems.interval_square()
    for sys_obj, x, y in (
        (golden, systems.circle_point(golden, 0), systems.circle_point(golden, "1/3")),
        (square, systems.interval_point(square, 0.3),
         systems.interval_point(square, 0.6)),
        (union, a, systems.union_point(union, "a", Fraction(1, 7))),
    ):
        trace = analysis.wasserstein_trace(sys_obj, x, y, seq, indices, tol)
        for n, value in zip(indices, trace.values):
            F = seq.subset(n)
            mu, nu = (measures.empirical_measure(sys_obj, p, F) for p in (x, y))
            same &= value.hex() == transport.wasserstein_empirical(mu, nu, tol).hex()
    checks.append(
        _Check(
            "batched trace equals per-index W1 bit for bit",
            same,
            f"rotation, interval and union orbits at indices {indices}",
        )
    )
    return checks


def _suite_weak_star() -> list[_Check]:
    import random as _random

    rng = _random.Random(3)
    rotation = systems.rotation("golden")
    left, right = groups.z_intervals(), groups.z_intervals("right")
    cases = [
        (rotation, left, [3, 8, 20]),
        (systems.full_shift(), left, [3, 8, 20]),
        (systems.interval_square(), right, [3, 8, 20]),
        (systems.two_rotations(), left, [3, 8, 20]),
        (systems.heisenberg_rotation(), groups.heisenberg_boxes(), [1, 2]),
        (systems.product_system(rotation), right, [3, 8, 20]),
        (systems.product_system(systems.full_shift()), left, [3, 8, 20]),
    ]

    def near_pair(sys_obj: systems.GSystem) -> tuple:
        if sys_obj.space_kind != "product":
            return systems.space_of(sys_obj).near_pair(sys_obj, rng, 0.1)
        (x1, y1), (x2, y2) = map(near_pair, sys_obj.factors)
        return systems.pair_point(sys_obj, x1, x2), systems.pair_point(sys_obj, y1, y2)

    zero_self = symmetric = shared = from_orbit = kernel_means = True
    for sys_obj, seq, indices in cases:
        x, y = near_pair(sys_obj)
        subsets = [seq.subset(n) for n in indices]
        family = measures.observable_family(sys_obj)
        terms = [family.observable(i) for i in range(1, 41)]
        rows, positions = analysis._union_rows(sys_obj, subsets)
        orbit = systems._orbit_reader(sys_obj, x, rows)
        table = measures._integrals(orbit, positions, terms)
        points = systems._reader(sys_obj, systems._orbit(sys_obj, x, rows))
        from_orbit &= table == measures._integrals(points, positions, terms)
        for F, row in zip(subsets, table):
            mu = measures.empirical_measure(sys_obj, x, F)
            listed = measures.EmpiricalMeasure(sys_obj, mu.atoms, mu.origin)
            shared &= row == [measures.integrate(mu, f) for f in terms]
            shared &= row == [measures.integrate(listed, f) for f in terms]
        # the kernel on orbit coords against the scalar metric at tol/|F|
        trace = analysis.mean_distance_trace(sys_obj, x, y, seq, indices)
        for F, value in zip(subsets, trace.values):
            pairs = zip(*(systems.orbit_sample(sys_obj, p, F) for p in (x, y)))
            scalar = [systems.metric(sys_obj, a, b, 1e-9 / F.size) for a, b in pairs]
            kernel_means &= value == math.fsum(scalar) / F.size
        mu, nu = (measures.empirical_measure(sys_obj, p, subsets[-1]) for p in (x, y))
        # W1 of the orbit pieces against W1 of their point-list copies
        listed = [measures.EmpiricalMeasure(sys_obj, m.atoms, m.origin) for m in (mu, nu)]
        from_orbit &= transport.wasserstein_empirical(mu, nu) == (
            transport.wasserstein_empirical(*listed)
        )
        zero_self &= measures.rho_distance(mu, mu).value == 0.0
        symmetric &= (
            measures.rho_distance(mu, nu).value == measures.rho_distance(nu, mu).value
        )
    kinds = "every space kind and two products"
    checks = [
        _Check("rho(mu, mu) is zero", zero_self, kinds),
        _Check("rho is symmetric bit for bit", symmetric, kinds),
        _Check(
            "integrals over a shared orbit equal per-measure integrate bit for bit",
            shared,
            f"{kinds}, 40 observables, orbit-piece and point-list measures",
        ),
        _Check(
            "integrals and W1 read from an orbit equal those read from its points",
            from_orbit,
            f"{kinds}, 40 observables and one W1 pair each, bit for bit",
        ),
        _Check(
            "mean distance trace equals the fsum of the scalar metric",
            kernel_means,
            f"{kinds}, each index at tol/|F|, bit for bit",
        ),
    ]

    # |A_n cos(2 pi j .)| and |A_n sin(2 pi j .)| along an interval are at
    # most 2 / (n |1 - e^{2 pi i j alpha}|), so each rho term is bounded
    def bound(n: int, j: int) -> float:
        theta = 2.0 * math.pi * j * float(rotation.param("alphas")[0])
        return min(1.0, 2.0 / (n * abs(complex(1.0 - math.cos(theta), math.sin(theta)))))

    indices = [100, 200, 300, 400]
    x = systems.circle_point(rotation, Fraction(rng.getrandbits(32), 1 << 32))
    trace = analysis.generic_measure_trace(rotation, x, groups.z_intervals(), indices)
    worst = max(
        rho - math.fsum(
            (bound(n, (i + 1) // 2) + bound(m, (i + 1) // 2)) / math.ldexp(2.0, i)
            for i in range(1, 41)
        )
        for n, m, rho in zip(indices, indices[1:], trace.consecutive_rho)
    )
    checks.append(
        _Check(
            "golden-rotation trace stays under the character bound",
            worst <= 1e-12,
            f"indices {indices}, largest excess {worst:.2e}",
        )
    )
    return checks


def _suite_reproducibility() -> list[_Check]:
    config = {
        "system": {"name": "rotation", "params": {"alpha": "golden"}},
        "folner": {"kind": "z_interval"},
        "indices": [5, 10, 15],
        "seed": 3,
        "operation": {
            "name": "wasserstein_trace",
            "params": {"x": "0", "y": "3/10"},
        },
        "output": {"csv": "trace.csv", "json": "trace.json"},
    }
    runs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            _run_config(dict(config), tmp, None)
            blobs = {}
            for kind, name in config["output"].items():
                with open(os.path.join(tmp, name), "rb") as handle:
                    blobs[kind] = handle.read()
            runs.append(blobs)
    return [
        _Check(
            f"identical config yields byte-identical {kind.upper()}",
            runs[0][kind] == runs[1][kind],
            f"{len(runs[0][kind])} bytes",
        )
        for kind in config["output"]
    ]


_SUITES: dict[str, Callable[[], list[_Check]]] = {
    "assignment-oracle": _suite_assignment_oracle,
    "folner-defects": _suite_folner_defects,
    "temperedness": _suite_temperedness,
    "wasserstein-axioms": _suite_wasserstein_axioms,
    "weak-star": _suite_weak_star,
    "reproducibility": _suite_reproducibility,
}


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_catalog(args: argparse.Namespace) -> int:
    entries = systems.catalog()
    folner_kinds = {name: k.description for name, k in groups.FOLNER_KINDS.items()}
    if args.json:
        payload = {
            "systems": {
                name: {
                    "summary": e.summary,
                    "params": {k: v for k, v in e.param_schema},
                    "expected": asdict(e.expected),
                }
                for name, e in sorted(entries.items())
            },
            "groups": ["Z", "Z^d (d >= 2)", "heisenberg"],
            "folner_kinds": folner_kinds,
            "operations": sorted(_OPERATIONS),
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
        return 0
    print("systems:")
    for name, e in sorted(entries.items()):
        print(f"  {name}: {e.summary}")
        for key, desc in e.param_schema:
            print(f"    param {key}: {desc}")
    print("groups: Z, Z^d (d >= 2), heisenberg")
    print("folner kinds:")
    for kind, desc in folner_kinds.items():
        print(f"  {kind}: {desc}")
    print("operations: " + ", ".join(sorted(_OPERATIONS)))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    outcome = _run_config(config, args.out, args.seed)
    report = outcome["report"]
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        summary = ", ".join(f"{k}={v}" for k, v in report["summary"].items())
        print(
            f"ok {report['operation']} ({outcome['elapsed']:.3f}s) {summary}"
        )
        for kind, path in report["outputs"].items():
            print(f"wrote {kind}: {path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite not in _SUITES:
        known = ", ".join(sorted(_SUITES))
        raise ConfigError(f"unknown suite {args.suite!r}; available: {known}")
    checks = _SUITES[args.suite]()
    failed = [c for c in checks if not c.passed]
    if args.json:
        print(
            json.dumps(
                {
                    "suite": args.suite,
                    "passed": not failed,
                    "checks": [
                        {"name": c.name, "passed": c.passed, "detail": c.detail}
                        for c in checks
                    ],
                },
                sort_keys=True,
                indent=2,
            )
        )
    else:
        for c in checks:
            print(f"{'PASS' if c.passed else 'FAIL'} {c.name} ({c.detail})")
        print(
            f"suite {args.suite}: {len(checks) - len(failed)}/{len(checks)} checks passed"
        )
    return 1 if failed else 0


def _parse_coords(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _group_context(args: argparse.Namespace) -> _RunContext:
    folner = {"kind": args.kind}
    if args.anchor is not None:
        folner["anchor"] = args.anchor
    seq = _build_sequence(args.group, folner)
    return _RunContext(None, seq, None, 0, dict(_DEFAULT_TOLERANCES))


def _cmd_defect(args: argparse.Namespace) -> int:
    ctx = _group_context(args)
    ctx.indices = (args.n,)
    coords = _parse_coords(args.g)
    sides = ["left", "right"] if args.side == "both" else [args.side]
    rows = _run_operation(
        ctx, "defect_table", {"elements": [list(coords)], "sides": sides}
    ).json_payload["rows"]
    if args.json:
        payload = {
            "group": ctx.seq.group_id,
            "kind": ctx.seq.kind,
            "n": args.n,
            "g": list(coords),
            "defects": {row["side"]: row["defect"] for row in rows},
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for row in rows:
            print(f"n={args.n} g={args.g} side={row['side']} defect={row['defect']}")
    return 0


def _cmd_tempered(args: argparse.Namespace) -> int:
    ctx = _group_context(args)
    payload = _run_operation(ctx, "temperedness", {"upto": args.upto}).json_payload
    if args.extract:
        params = {"constant": args.constant, "count": args.extract}
        extraction = _run_operation(ctx, "tempered_extraction", params)
        payload["extracted"] = extraction.json_payload["indices"]
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for n, r in zip(payload["indices"], payload["ratios"]):
            print(f"n={n} ratio={r}")
        print(f"constant={payload['constant']}")
        if args.extract:
            print("extracted=" + ",".join(map(str, payload["extracted"])))
    return 0


def _point_spec(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _z_action_context(args: argparse.Namespace) -> _RunContext:
    params = {}
    if args.params:
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--params is not valid JSON: {exc}")
    sys_obj = _build_system({"name": args.system, "params": params})
    if sys_obj.group_id != "Z":
        raise ConfigError(
            f"{args.command} shortcut supports Z-actions; use 'run' otherwise"
        )
    seq = _build_sequence("Z", {"kind": "z_interval", "anchor": args.anchor})
    return _RunContext(
        sys_obj, seq, None, 0, dict(_DEFAULT_TOLERANCES, metric=args.tol)
    )


def _cmd_wdist(args: argparse.Namespace) -> int:
    ctx = _z_action_context(args)
    params = {"x": _point_spec(args.x), "y": _point_spec(args.y), "n": args.n}
    result = _run_operation(ctx, "wdist", params)
    if args.json:
        print(json.dumps(result.json_payload, sort_keys=True))
    else:
        print(systems._cell(result.summary["value"]))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    ctx = _z_action_context(args)
    ctx.indices = tuple(int(part) for part in args.indices.split(","))
    params = {"x": _point_spec(args.x), "y": _point_spec(args.y)}
    result = _run_operation(ctx, f"{args.trace_kind}_trace", params)
    if args.csv:
        _write_csv(args.csv, *result.csv_table)
    payload = result.json_payload
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for n, v in zip(payload["indices"], payload["values"]):
            print(f"n={n} value={systems._cell(v)}")
        print(f"limsup_estimate={systems._cell(payload['limsup_estimate'])}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folnerlab",
        description="numerical workbench for averaging sequences, empirical "
        "measures and exact optimal-assignment Wasserstein distances",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list systems, groups and Folner kinds")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser("run", help="execute a JSON experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=".", help="directory for output files")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("verify", help="run a built-in verification suite")
    p.add_argument("suite")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("defect", help="exact averaging-set defect")
    p.add_argument("--group", default="Z")
    p.add_argument("--kind", default="z_interval")
    p.add_argument("--anchor", default=None, choices=("left", "right"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", required=True, help="comma-separated coordinates")
    p.add_argument("--side", default="both", choices=("left", "right", "both"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_defect)

    p = sub.add_parser("tempered", help="temperedness report and extraction")
    p.add_argument("--group", default="Z")
    p.add_argument("--kind", default="z_interval")
    p.add_argument("--anchor", default=None, choices=("left", "right"))
    p.add_argument("--upto", type=int, required=True)
    p.add_argument("--extract", type=int, default=0, help="subsequence length")
    p.add_argument("--constant", default="2", help="temperedness constant")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_tempered)

    p = sub.add_parser("wdist", help="Wasserstein distance at a single index")
    p.add_argument("--system", required=True)
    p.add_argument("--params", default="")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--anchor", default="left", choices=("left", "right"))
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_wdist)

    p = sub.add_parser("trace", help="pseudometric trace along the intervals")
    p.add_argument("--trace-kind", default="wasserstein",
                   choices=("wasserstein", "mean_distance"))
    p.add_argument("--system", required=True)
    p.add_argument("--params", default="")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--indices", required=True, help="comma-separated")
    p.add_argument("--anchor", default="left", choices=("left", "right"))
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--csv", default="")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=_cmd_trace)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error[ConfigError]: {exc}", file=_sys.stderr)
        return 2
    except FolnerlabError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=_sys.stderr)
        return 1
    except (ValueError, IndexError, KeyError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=_sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
