"""Acceptance gate: eleven pinned criteria, one pass/fail line each under -v.

Each criterion is a single test with its tolerances written out literally;
nothing here may be loosened to make a run green.  A fixture solves one 4x4
matrix before the timed criteria run.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import folnerlab as fl
from folnerlab.cli import main


ROT = fl.rotation("golden")


@pytest.fixture(scope="module", autouse=True)
def warm_solver():
    # solves one 4x4 matrix before the timed criteria
    fl.assignment_min(fl.CostMatrix(np.random.default_rng(0).random((4, 4))))


def random_cloud(rng, n, label):
    atoms = tuple(
        fl.circle_point(ROT, Fraction(rng.getrandbits(40), 1 << 40)) for _ in range(n)
    )
    return fl.EmpiricalMeasure(ROT, atoms, (label, f"n={n}"))


def test_criterion_01_assignment_oracle_equivalence():
    # 1000 random cost matrices, n in 2..8: solver == brute force within 1e-12,
    # in under 10 seconds
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        C = fl.CostMatrix(rng.random((n, n)))
        gap = abs(fl.assignment_min(C).cost - fl.bruteforce_min(C).cost)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12, f"max cost gap {worst}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 1: max gap {worst:.2e} over 1000 matrices in {elapsed:.2f}s")


def test_criterion_02_solver_performance_and_determinism():
    rng = random.Random(202)
    for n, budget in ((512, 5.0), (1024, 60.0)):
        mu = random_cloud(rng, n, "cloud-a")
        nu = random_cloud(rng, n, "cloud-b")
        started = time.perf_counter()
        first = fl.wasserstein_empirical(mu, nu)
        elapsed = time.perf_counter() - started
        second = fl.wasserstein_empirical(mu, nu)
        assert elapsed < budget, f"n={n} took {elapsed:.2f}s"
        assert first == second, "re-run must match bit for bit"
        print(f"PASS criterion 2 (n={n}): {elapsed:.3f}s < {budget}s, reruns equal")


def test_criterion_03_wasserstein_metric_axioms():
    # 200 random triples of 64-atom measures: symmetry exact, triangle within
    # three times the metric tolerance
    rng = random.Random(303)
    tol = 1e-9
    for _ in range(200):
        a, b, c = (random_cloud(rng, 64, "axiom") for _ in range(3))
        w_ab = fl.wasserstein_empirical(a, b, tol)
        w_ba = fl.wasserstein_empirical(b, a, tol)
        assert w_ab == w_ba, "symmetry must be exact"
        w_bc = fl.wasserstein_empirical(b, c, tol)
        w_ac = fl.wasserstein_empirical(a, c, tol)
        assert w_ac <= w_ab + w_bc + 3 * tol
    print("PASS criterion 3: symmetry exact, triangle within 3*tol on 200 triples")


def test_criterion_04_folner_defects_exact():
    seq = fl.z_intervals()
    for n in range(1, 1025):
        F = seq.subset(n)
        for k in (1, -1):
            assert fl.folner_defect_left(F, fl.element("Z", k)) == Fraction(2, n)

    boxes = fl.zd_boxes(2)
    for n in range(1, 65):
        F = boxes.subset(n)
        for g in (fl.element("Z^2", 1, 0), fl.element("Z^2", 0, 1)):
            assert fl.folner_defect_left(F, g) == Fraction(2, 2 * n + 1)

    hseq = fl.heisenberg_boxes()
    for g in (fl.element("heisenberg", 1, 0, 0), fl.element("heisenberg", 0, 1, 0)):
        defects = [fl.folner_defect_left(hseq.subset(n), g) for n in (2, 4, 8)]
        assert defects[0] > defects[1] > defects[2], f"not decreasing: {defects}"
    print("PASS criterion 4: exact defects on Z (n<=1024), Z^2 (n<=64), Heisenberg")


def test_criterion_05_temperedness_and_extraction_reverify():
    report = fl.temperedness_report(fl.z_intervals(), 64)
    assert report.constant <= 2
    assert report.constant == Fraction(2 * 64 - 2, 64)

    picked = fl.extract_tempered_subsequence(fl.z_intervals(), Fraction(2), 6)
    sub = fl.explicit_sequence([fl.z_intervals().subset(n) for n in picked])
    assert fl.temperedness_report(sub, len(picked)).constant <= 2

    # a genuinely non-nested family: shifted blocks {n^2, ..., n^2 + n - 1}
    blocks = fl.explicit_sequence(
        [
            fl.FiniteSubset.from_coords("Z", [[k] for k in range(n * n, n * n + n)])
            for n in range(1, 601)
        ]
    )
    picked = fl.extract_tempered_subsequence(blocks, Fraction(2), 4)
    assert picked == (1, 2, 4, 18)
    sub = fl.explicit_sequence([blocks.subset(n) for n in picked])
    assert fl.temperedness_report(sub, len(picked)).constant <= 2
    print("PASS criterion 5: constant <= 2 at n<=64; extractions re-verify")


def test_criterion_06_rotation_pairs_weak_mean_behavior():
    rng = random.Random(606)
    seq = fl.z_intervals()
    F = seq.subset(1000)
    for _ in range(10):
        x = fl.circle_point(ROT, Fraction(rng.getrandbits(32), 1 << 32))
        y = fl.circle_point(ROT, Fraction(rng.getrandbits(32), 1 << 32))
        mu = fl.empirical_measure(ROT, x, F)
        nu = fl.empirical_measure(ROT, y, F)
        assert fl.wasserstein_empirical(mu, nu) <= 0.05
        d = fl.metric(ROT, x, y)
        trace = fl.mean_distance_trace(ROT, x, y, seq, [100, 1000])
        for v in trace.values:
            assert abs(v - d) <= 1e-9, "isometric action: mean distance is d(x, y)"
    print("PASS criterion 6: 10 pairs, W(n=1000) <= 0.05 and mean distance = d(x,y)")


def test_criterion_07_union_cross_pairs_pin_w_at_one():
    un = fl.two_rotations()
    a = fl.union_point(un, "a", Fraction(1, 5))
    b = fl.union_point(un, "b", Fraction(1, 9))
    for n in (1, 2, 5, 10, 50, 200):
        F = fl.z_intervals().subset(n)
        mu = fl.empirical_measure(un, a, F)
        nu = fl.empirical_measure(un, b, F)
        assert fl.wasserstein_empirical(mu, nu) == 1.0
    print("PASS criterion 7: cross-component W is exactly 1 at every tested n")


def test_criterion_08_coupling_inequalities_on_50_pairs():
    # rotation factor: tolerance 1e-9, indices up to 200
    rng = random.Random(808)
    prod = fl.product_system(ROT)
    pairs = []
    for _ in range(50):
        pts = [
            fl.circle_point(ROT, Fraction(rng.getrandbits(32), 1 << 32))
            for _ in range(4)
        ]
        pairs.append(
            (fl.pair_point(prod, pts[0], pts[1]), fl.pair_point(prod, pts[2], pts[3]))
        )
    tol = 1e-9
    report = fl.coupling_bounds_check(prod, pairs, fl.z_intervals(), [50, 200], tol)
    budget = 2 * tol + 1e-12
    assert report.max_violation <= budget, f"rotation: {report.max_violation}"

    # shift factor: metric truncation spends the tolerance, so the budget is
    # the propagated 2*tol
    sh = fl.full_shift()
    prod = fl.product_system(sh)
    pairs = []
    for k in range(50):
        words = [fl.RandomWord(4 * k + i) for i in range(4)]
        pts = [fl.shift_point(sh, w) for w in words]
        pairs.append(
            (fl.pair_point(prod, pts[0], pts[1]), fl.pair_point(prod, pts[2], pts[3]))
        )
    tol = 1e-6
    report = fl.coupling_bounds_check(prod, pairs, fl.z_intervals(), [16, 64], tol)
    budget = 2 * tol + 1e-12
    assert report.max_violation <= budget, f"shift: {report.max_violation}"
    print("PASS criterion 8: both coupling bounds hold on 50 pairs (rotation, shift)")


def test_criterion_09_character_average_rate():
    f = fl.observable_family(ROT).observable(1)  # cos(2 pi x)
    alpha = float(fl.GOLDEN_ALPHA)
    c = abs(1.0 - complex(math.cos(2 * math.pi * alpha), math.sin(2 * math.pi * alpha)))
    for n in (100, 500, 1000):
        F = fl.z_intervals().subset(n)
        bound = 2.0 / (n * c)
        for k in range(16):
            x = fl.circle_point(ROT, Fraction(k, 16))
            value = abs(fl.birkhoff_average(ROT, f, x, F))
            assert value <= bound + 1e-12, f"n={n}, x={k}/16: {value} > {bound}"
    print(f"PASS criterion 9: |A_n cos| <= 2/(n*{c:.4f}) on the grid, n in (100,500,1000)")


def test_criterion_10_interval_system_has_two_folner_limits():
    iv = fl.interval_square()
    x = fl.interval_point(iv, 0.5)
    identity = fl.observable_family(iv).observable(1)
    forward = fl.birkhoff_average(
        iv, identity, x, fl.z_intervals().subset(1000)
    )
    backward = fl.birkhoff_average(
        iv, identity, x, fl.z_intervals(anchor="right").subset(1000)
    )
    assert forward <= 0.01, f"forward mean {forward}"
    assert backward >= 0.99, f"backward mean {backward}"
    assert forward == pytest.approx(0.0008164215090218931, abs=1e-12)
    assert backward == pytest.approx(0.9988795996904029, abs=1e-12)
    print(f"PASS criterion 10: forward mean {forward:.6f} <= 0.01, backward {backward:.6f} >= 0.99")


def test_criterion_11_cli_reproducibility(tmp_path, capsys):
    config = {
        "system": {"name": "rotation", "params": {"alpha": "golden"}},
        "folner": {"kind": "z_interval"},
        "indices": [10, 25, 50],
        "seed": 7,
        "operation": {"name": "wasserstein_trace", "params": {"x": "0", "y": "1/3"}},
        "output": {"csv": "trace.csv"},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    blobs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        blobs.append((out / "trace.csv").read_bytes())
    assert blobs[0] == blobs[1], "same config + seed must give identical bytes"
    print("PASS criterion 11: byte-identical CSV across reruns")
