"""Batched W1 solves: the pool of forked workers against the in-process path."""

import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest

import folnerlab as fl
from folnerlab import transport
from folnerlab.analysis import _coords_along
from folnerlab.cli import main
from folnerlab.systems import _orbit_reader, _rows


GOLDEN = fl.rotation("golden")
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
needs_two_cpus = pytest.mark.skipif(CORES < 2, reason="the pool needs two usable CPUs")


def hexes(values):
    return [float.hex(v) for v in values]


@pytest.fixture
def pool_always(monkeypatch):
    """Send every batch of two or more pairs to the pool, however small."""
    monkeypatch.setattr(transport, "_POOL_MIN_STEPS", 0)


def worker_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


def orbit_pairs(sys_obj, points, seq, indices, tol=1e-9):
    """Every ordered pair of the points' orbits at every index, as W1 sides."""
    along = _coords_along(sys_obj, points, [seq.subset(n) for n in indices], tol)
    return [
        (coords[i], coords[j])
        for coords in along
        for i in range(len(points))
        for j in range(len(points))
        if i != j
    ]


def _batch_cases():
    shift = fl.full_shift()
    z2 = fl.zd_rotation(["1/3", "golden"])
    heis = fl.heisenberg_rotation("2/9", "golden")
    union = fl.two_rotations()
    words = [fl.RandomWord(seed) for seed in (1, 2, 3)]
    cases = [
        ("circle", GOLDEN, [fl.circle_point(GOLDEN, Fraction(k, 5)) for k in range(3)],
         fl.z_intervals(), [5, 20], 1e-9),
        ("torus-Z^2", z2, [fl.circle_point(z2, Fraction(k, 7)) for k in range(3)],
         fl.zd_boxes(2), [1, 3], 1e-9),
        ("torus-heisenberg", heis,
         [fl.torus_point(heis, [Fraction(k, 3), Fraction(1, 5)]) for k in range(3)],
         fl.heisenberg_boxes(), [1], 1e-9),
        ("shift", shift, [fl.shift_point(shift, w) for w in words],
         fl.z_intervals(), [8, 24], 1e-6),
        # a cross-component pair of the union has a constant matrix
        ("union", union, [fl.union_point(union, t, Fraction(1, 4)) for t in "aba"],
         fl.z_intervals("right"), [4, 16], 1e-9),
    ]
    P = fl.product_system(GOLDEN)
    cases.append(("rotation-product", P, [
        fl.pair_point(P, fl.circle_point(GOLDEN, Fraction(a, 7)),
                      fl.circle_point(GOLDEN, Fraction(b, 9)))
        for a, b in ((0, 1), (2, 5), (3, 3))
    ], fl.z_intervals(), [6, 12], 1e-9))
    S = fl.product_system(shift)
    cases.append(("shift-product", S, [
        fl.pair_point(S, fl.shift_point(shift, a), fl.shift_point(shift, b))
        for a, b in zip(words, words[1:] + words[:1])
    ], fl.z_intervals(), [6, 12], 1e-6))
    return cases


@pytest.mark.parametrize("name, sys_obj, points, seq, indices, tol",
                         [pytest.param(*case, id=case[0]) for case in _batch_cases()])
def test_batch_equals_the_serial_path_bit_for_bit(name, sys_obj, points, seq, indices,
                                                   tol, pool_always):
    pairs = orbit_pairs(sys_obj, points, seq, indices, tol)
    serial = [transport._w1(sys_obj, U, V) for U, V in pairs]
    assert hexes(transport._w1_many(sys_obj, pairs)) == hexes(serial)
    if name == "union":
        assert 1.0 in serial  # the cross-component pairs
    if CORES >= 2:
        assert transport._POOL is not None and transport._POOL[0] == os.getpid()


def test_batch_keeps_the_side_order_of_orientation_sensitive_pairs(pool_always):
    # some interval orbit pairs have a float optimum that moves in its last
    # bits when the cost matrix is transposed; the workers order the sides too
    sq = fl.interval_square()
    rows = _rows(fl.z_intervals().subset(8))
    rng = random.Random(7)
    pairs = []
    for _ in range(20):
        U, V = (_orbit_reader(sq, fl.interval_point(sq, rng.random()), rows)(1e-9 / 8)
                for _ in range(2))
        pairs += [(U, V), (V, U)]
    transposed = [
        transport.assignment_min(transport.CostMatrix(
            fl.systems._kernel_matrix(sq, V, U)
        )).cost
        for U, V in pairs
    ]
    serial = [transport._w1(sq, U, V) for U, V in pairs]
    assert any(a != b for a, b in zip(serial, transposed))  # the case is covered
    assert hexes(transport._w1_many(sq, pairs)) == hexes(serial)


def test_single_pairs_and_one_cpu_never_reach_the_pool(monkeypatch, pool_always):
    def no_pool(workers):
        raise AssertionError("the batch went to the pool")

    monkeypatch.setattr(transport, "_pool", no_pool)
    pairs = orbit_pairs(GOLDEN, [fl.circle_point(GOLDEN, 0),
                                 fl.circle_point(GOLDEN, Fraction(1, 3))],
                        fl.z_intervals(), [4, 9])
    serial = [transport._w1(GOLDEN, U, V) for U, V in pairs]
    assert transport._w1_many(GOLDEN, pairs[:1]) == serial[:1]
    assert transport._w1_many(GOLDEN, []) == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert hexes(transport._w1_many(GOLDEN, pairs)) == hexes(serial)


def test_a_workers_error_reaches_the_caller_unchanged(pool_always):
    rows = _rows(fl.z_intervals().subset(6))
    U = _orbit_reader(GOLDEN, fl.circle_point(GOLDEN, 0), rows)(1e-9)
    V_short = U[:4]
    with pytest.raises(ValueError) as serial:
        transport._w1(GOLDEN, U, V_short)
    with pytest.raises(ValueError) as batched:
        transport._w1_many(GOLDEN, [(U, U), (U, V_short)])
    assert type(batched.value) is type(serial.value)
    assert str(batched.value) == str(serial.value)
    if CORES >= 2:  # raised in a worker, and re-raised here
        assert type(batched.value.__cause__).__name__ == "_RemoteTraceback"


def test_small_batches_stay_here_and_large_ones_reach_the_pool(monkeypatch):
    calls = []
    monkeypatch.setattr(transport, "_pool", calls.append)  # None: solved here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    x, y = fl.circle_point(GOLDEN, 0), fl.circle_point(GOLDEN, Fraction(1, 3))
    # one n=64 solve and three small ones: the pool could take 37,376 steps
    small = _coords_along(GOLDEN, [x, y], [fl.z_intervals().subset(n)
                                           for n in (8, 16, 32, 64)], 1e-9)
    assert hexes(transport._w1_many(GOLDEN, small)) == hexes(
        transport._w1(GOLDEN, U, V) for U, V in small)
    assert calls == []
    # two n=40 solves: 64,000 steps besides the largest
    large = small[:1] + _coords_along(GOLDEN, [y, x], [fl.z_intervals().subset(40)] * 2,
                                      1e-9)
    transport._w1_many(GOLDEN, large[1:])
    assert calls == [2]  # one worker per pair, though four CPUs are usable
    transport._w1_many(GOLDEN, large)
    assert calls == [2, 3]


@needs_two_cpus
def test_batches_reuse_the_same_workers(pool_always):
    pairs = orbit_pairs(GOLDEN, [fl.circle_point(GOLDEN, Fraction(k, 4)) for k in range(3)],
                        fl.z_intervals(), [8, 16])
    transport._w1_many(GOLDEN, pairs)
    first = worker_pids()
    transport._w1_many(GOLDEN, pairs)
    assert len(first) == transport._POOL[1] >= min(CORES, len(pairs))
    assert worker_pids() == first


def test_the_pool_grows_to_the_largest_batch(pool_always, monkeypatch):
    transport._shutdown_pool()
    monkeypatch.setattr(transport, "_usable_cpus", lambda: 3)
    pairs = orbit_pairs(GOLDEN, [fl.circle_point(GOLDEN, Fraction(k, 4)) for k in range(3)],
                        fl.z_intervals(), [8])
    serial = hexes(transport._w1(GOLDEN, U, V) for U, V in pairs)
    assert hexes(transport._w1_many(GOLDEN, pairs[:2])) == serial[:2]
    assert len(worker_pids()) == 2
    assert hexes(transport._w1_many(GOLDEN, pairs)) == serial
    three = worker_pids()
    assert len(three) == 3
    transport._w1_many(GOLDEN, pairs[:2])  # a smaller batch keeps the larger pool
    assert worker_pids() == three


@needs_two_cpus
def test_a_killed_worker_costs_one_batch_its_pool(pool_always):
    pairs = orbit_pairs(GOLDEN, [fl.circle_point(GOLDEN, Fraction(k, 4)) for k in range(3)],
                        fl.z_intervals(), [8, 16])
    serial = hexes(transport._w1(GOLDEN, U, V) for U, V in pairs)
    transport._w1_many(GOLDEN, pairs)
    before = worker_pids()
    os.kill(before[0], signal.SIGKILL)
    time.sleep(0.2)
    assert hexes(transport._w1_many(GOLDEN, pairs)) == serial  # solved here
    assert transport._POOL is None
    assert hexes(transport._w1_many(GOLDEN, pairs)) == serial  # on a new pool
    assert transport._POOL is not None
    assert set(worker_pids()).isdisjoint(before)


@needs_two_cpus
def test_ctrl_c_leaves_the_workers_running(pool_always, capfd):
    # Ctrl-C signals the whole foreground process group, workers included
    pairs = orbit_pairs(GOLDEN, [fl.circle_point(GOLDEN, Fraction(k, 4)) for k in range(3)],
                        fl.z_intervals(), [8, 16])
    serial = hexes(transport._w1(GOLDEN, U, V) for U, V in pairs)
    transport._w1_many(GOLDEN, pairs)
    before = worker_pids()
    for pid in before:
        os.kill(pid, signal.SIGINT)
    time.sleep(0.2)
    assert hexes(transport._w1_many(GOLDEN, pairs)) == serial
    assert worker_pids() == before
    assert capfd.readouterr().err == ""  # no worker printed a traceback


def _trace_in_daemon(indices):
    x, y = fl.circle_point(GOLDEN, 0), fl.circle_point(GOLDEN, Fraction(1, 3))
    return hexes(fl.wasserstein_trace(GOLDEN, x, y, fl.z_intervals(), indices).values)


@needs_two_cpus
def test_a_daemonic_process_solves_its_batches_itself(pool_always):
    # a multiprocessing.Pool worker may not have children of its own
    indices = [4, 8, 16]
    with multiprocessing.get_context("fork").Pool(1) as outer:
        assert outer.map(_trace_in_daemon, [indices]) == [_trace_in_daemon(indices)]


def test_no_pool_before_python_3_11(pool_always, monkeypatch):
    # 3.10's executor forks its workers while its own thread runs
    transport._shutdown_pool()
    monkeypatch.setattr(transport, "version_info", (3, 10, 14))
    pairs = orbit_pairs(GOLDEN, [fl.circle_point(GOLDEN, Fraction(k, 4)) for k in range(3)],
                        fl.z_intervals(), [8])
    assert hexes(transport._w1_many(GOLDEN, pairs)) == hexes(
        transport._w1(GOLDEN, U, V) for U, V in pairs)
    assert transport._POOL is None


def test_no_pool_beside_another_thread(pool_always):
    # a forked child holds only the forking thread, so a lock that another
    # thread held at the fork stays locked in the child
    import threading

    transport._shutdown_pool()
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        pairs = orbit_pairs(GOLDEN, [fl.circle_point(GOLDEN, Fraction(k, 4))
                                     for k in range(3)], fl.z_intervals(), [8])
        assert hexes(transport._w1_many(GOLDEN, pairs)) == hexes(
            transport._w1(GOLDEN, U, V) for U, V in pairs)
        assert transport._POOL is None
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()


@pytest.mark.parametrize("files, cpus", [
    ({"cpu.max": "max 100000\n"}, 4),
    ({"cpu.max": "300000 100000\n"}, 3),
    ({"cpu.max": "150000 100000\n"}, 1),
    ({"cpu.max": "50000 100000\n"}, 1),
    ({"cpu.max": "800000 100000\n"}, 4),
    ({"quota": "200000\n", "period": "100000\n"}, 2),
    ({"quota": "-1\n", "period": "100000\n"}, 4),
    ({}, 4),
])
def test_usable_cpus_keep_to_the_cgroup_quota(files, cpus, tmp_path, monkeypatch):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(transport, "_CPU_QUOTA_FILES", (
        (str(tmp_path / "cpu.max"),),
        (str(tmp_path / "quota"), str(tmp_path / "period")),
    ))
    assert transport._usable_cpus() == cpus


def test_modulus_estimate_solves_every_trace_in_one_batch(monkeypatch):
    batches = []

    def counted(sys_obj, pairs):
        batches.append(len(pairs))
        return transport._w1_many(sys_obj, pairs)

    indices, deltas = [4, 8, 16], [0.01, 0.1]
    expected = fl.analysis.near_pair_sampler(GOLDEN, 3)
    sups, pooled = [], 0.0
    for delta in deltas:
        for x, y in expected(delta, 5):
            trace = fl.wasserstein_trace(GOLDEN, x, y, fl.z_intervals(), indices)
            pooled = max(pooled, trace.limsup_estimate)
        sups.append(pooled)
    monkeypatch.setattr(fl.analysis, "_w1_many", counted)
    estimate = fl.analysis.modulus_estimate(
        GOLDEN, "wasserstein", fl.z_intervals(), deltas,
        fl.analysis.near_pair_sampler(GOLDEN, 3), indices, pairs_per_delta=5,
    )
    assert batches == [2 * 5 * 3]
    assert hexes(estimate.sup_values) == hexes(sups)


def _batch_in_child(pairs, out):
    try:
        out.put(hexes(transport._w1_many(GOLDEN, pairs)))
    finally:
        transport._shutdown_pool()


@needs_two_cpus
def test_a_forked_child_makes_its_own_pool(pool_always):
    # the inherited pool belongs to the parent: a child that used it would wait
    # for results no worker of its own sends
    pairs = orbit_pairs(GOLDEN, [fl.circle_point(GOLDEN, Fraction(k, 4)) for k in range(2)],
                        fl.z_intervals(), [8, 16])
    serial = hexes(transport._w1(GOLDEN, U, V) for U, V in pairs)
    transport._w1_many(GOLDEN, pairs)
    context = multiprocessing.get_context("fork")
    out = context.Queue()
    child = context.Process(target=_batch_in_child, args=(pairs, out))
    child.start()
    try:
        assert out.get(timeout=60) == serial
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0


# ---------------------------------------------------------------------------
# reports keep their bytes on one CPU


def _pair(left, right):
    return {"left": left, "right": right}


_REPORTS = {
    "coupling_bounds": {
        "system": {"name": "rotation", "params": {"alpha": "golden"}},
        "folner": {"kind": "z_interval"},
        "indices": [4, 8, 16],
        "operation": {"name": "coupling_bounds", "params": {"pairs": [
            {"z1": _pair("0", "1/3"), "z2": _pair("1/8", "2/5")},
            {"z1": _pair("1/7", "5/9"), "z2": _pair("3/4", "1/11")},
        ]}},
    },
    "coupling_bounds_shift": {
        "system": {"name": "full_shift"},
        "folner": {"kind": "z_interval"},
        "indices": [6, 12],
        "tolerances": {"metric": 1e-6},
        "operation": {"name": "coupling_bounds", "params": {"pairs": [
            {"z1": _pair({"kind": "random", "seed": 1}, {"kind": "random", "seed": 2}),
             "z2": _pair({"kind": "random", "seed": 3}, {"kind": "random", "seed": 4})},
        ]}},
    },
    "wasserstein_trace": {
        "system": {"name": "interval_square"},
        "folner": {"kind": "z_interval"},
        "indices": [4, 8, 16, 32],
        "operation": {"name": "wasserstein_trace", "params": {"x": 0.3, "y": 0.6}},
    },
    "unique_ergodicity": {
        "system": {"name": "two_rotations"},
        "folner": {"kind": "z_interval"},
        "operation": {"name": "unique_ergodicity", "params": {"n": 16, "points": [
            {"component": "a", "value": "0"},
            {"component": "a", "value": "1/3"},
            {"component": "b", "value": "5/8"},
            {"component": "b", "value": "1/9"},
        ]}},
    },
}


def _run_report(config, out, capsys):
    out.mkdir()
    path = out / "cfg.json"
    path.write_text(json.dumps(config | {"output": {"csv": "r.csv", "json": "r.json"}}),
                    encoding="utf-8")
    code = main(["run", "--config", str(path), "--out", str(out), "--json"])
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, (out / "r.csv").read_bytes(), (out / "r.json").read_bytes()


@pytest.mark.parametrize("name", sorted(_REPORTS))
def test_reports_are_byte_identical_on_one_cpu(name, tmp_path, capsys, monkeypatch,
                                              pool_always):
    pooled = _run_report(_REPORTS[name], tmp_path / "pooled", capsys)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    serial = _run_report(_REPORTS[name], tmp_path / "serial", capsys)
    assert pooled[0] == 0
    assert pooled == serial


# ---------------------------------------------------------------------------
# no process outlives the run


@needs_two_cpus
def test_no_process_outlives_a_coupling_run(tmp_path):
    # n=40: each pair's two solves are large enough for the pool
    config = _REPORTS["coupling_bounds"] | {"indices": [40], "output": {"csv": "r.csv"}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(fl.__file__).resolve().parent.parent)
    run_cli = textwrap.dedent("""
        import sys
        from folnerlab import transport
        from folnerlab.cli import main
        code = main(sys.argv[1:])
        assert transport._POOL is not None, "the run made no pool"
        sys.exit(code)
    """)
    proc = subprocess.Popen(
        [sys.executable, "-c", run_cli, "run", "--config", str(path),
         "--out", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, 9)
    assert proc.returncode == 0, err
    assert err == ""
    assert out.startswith("ok coupling_bounds ")
    # the session's process group is gone: every worker has exited
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
