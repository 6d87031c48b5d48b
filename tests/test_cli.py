"""Command-line interface: configs, outputs, exit codes, reproducibility."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import folnerlab
from folnerlab.cli import main


def write_config(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def trace_config(**overrides):
    config = {
        "system": {"name": "rotation", "params": {"alpha": "golden"}},
        "folner": {"kind": "z_interval"},
        "indices": [5, 10, 15],
        "seed": 3,
        "operation": {"name": "wasserstein_trace", "params": {"x": "0", "y": "3/10"}},
        "output": {"csv": "trace.csv"},
    }
    config.update(overrides)
    return config


# ---------------------------------------------------------------------------
# catalog


def test_catalog_lists_everything(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for needle in ("rotation", "full_shift", "interval_square", "heisenberg",
                   "z_interval", "operations:"):
        assert needle in out


def test_catalog_json(capsys):
    assert main(["catalog", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "rotation" in payload["systems"]
    assert payload["systems"]["rotation"]["expected"]["uniquely_ergodic"] is True
    assert "wasserstein_trace" in payload["operations"]
    assert "zd_box" in payload["folner_kinds"]


# ---------------------------------------------------------------------------
# run: happy paths


def test_run_trace_writes_reproducible_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", trace_config())
    blobs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        assert main(["run", "--config", cfg, "--out", str(out_dir)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("ok wasserstein_trace")
        assert "wrote csv:" in stdout
        blobs.append((out_dir / "trace.csv").read_bytes())
    assert blobs[0] == blobs[1]
    lines = blobs[0].decode().splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == 4
    assert lines[1].startswith("5,")


def test_run_json_report_has_no_timings(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", trace_config())
    assert main(["run", "--config", cfg, "--out", str(tmp_path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == "0.1.0"
    assert report["operation"] == "wasserstein_trace"
    assert set(report) == {"version", "operation", "config", "outputs", "summary"}
    assert "elapsed" not in json.dumps(report)
    assert report["config"]["seed"] == 3
    assert "final_value" in report["summary"]


def test_run_wdist_pinned_value(tmp_path, capsys):
    config = {
        "system": {"name": "rotation", "params": {"alpha": "1/4"}},
        "folner": {"kind": "z_interval"},
        "operation": {"name": "wdist", "params": {"x": "0", "y": "1/8", "n": 4}},
    }
    cfg = write_config(tmp_path, "cfg.json", config)
    assert main(["run", "--config", cfg, "--out", str(tmp_path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["value"] == 0.125


def test_run_defect_table_keeps_exact_fractions(tmp_path, capsys):
    config = {
        "system": {"name": "rotation", "params": {"alpha": "golden"}},
        "folner": {"kind": "z_interval"},
        "indices": [10, 20],
        "operation": {
            "name": "defect_table",
            "params": {"elements": [[1], [-3]], "sides": ["left"]},
        },
        "output": {"csv": "defects.csv"},
    }
    cfg = write_config(tmp_path, "cfg.json", config)
    assert main(["run", "--config", cfg, "--out", str(tmp_path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["max_defect"] == "3/5"
    rows = (tmp_path / "defects.csv").read_text().splitlines()
    assert rows[0] == "group,kind,n,g,side,defect"
    assert rows[1].endswith("1/5")  # |1| * 2 / 10, exact


def test_run_temperedness_and_extraction(tmp_path, capsys):
    base = {
        "system": {"name": "rotation", "params": {"alpha": "golden"}},
        "folner": {"kind": "z_interval"},
    }
    cfg = write_config(
        tmp_path, "a.json",
        base | {"operation": {"name": "temperedness", "params": {"upto": 10}}},
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["constant"] == "9/5"

    cfg = write_config(
        tmp_path, "b.json",
        base | {
            "operation": {
                "name": "tempered_extraction",
                "params": {"constant": "2", "count": 4},
            }
        },
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    picked = report["summary"]["indices"]
    assert len(picked) == 4
    assert picked == sorted(picked)


def test_run_coupling_bounds(tmp_path, capsys):
    config = {
        "system": {"name": "rotation", "params": {"alpha": "golden"}},
        "folner": {"kind": "z_interval"},
        "indices": [8, 16],
        "operation": {
            "name": "coupling_bounds",
            "params": {
                "pairs": [
                    {
                        "z1": {"left": {"value": "0"}, "right": {"value": "1/3"}},
                        "z2": {"left": {"value": "1/8"}, "right": {"value": "2/5"}},
                    }
                ]
            },
        },
        "output": {"csv": "bounds.csv", "json": "bounds.json"},
    }
    cfg = write_config(tmp_path, "cfg.json", config)
    assert main(["run", "--config", cfg, "--out", str(tmp_path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["max_violation"] <= 2e-9
    saved = json.loads((tmp_path / "bounds.json").read_text())
    assert len(saved["rows"]) == 2
    assert (tmp_path / "bounds.csv").read_text().splitlines()[0].startswith("pair,")


def test_run_unique_ergodicity(tmp_path, capsys):
    config = {
        "system": {"name": "rotation", "params": {"alpha": "golden"}},
        "folner": {"kind": "z_interval"},
        "operation": {
            "name": "unique_ergodicity",
            "params": {"points": ["0", "1/3", "5/8"], "n": 128},
        },
    }
    cfg = write_config(tmp_path, "cfg.json", config)
    assert main(["run", "--config", cfg, "--out", str(tmp_path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["summary"]["consistent"] is True
    assert report["summary"]["max_w"] <= 0.05


def test_run_remaining_operations(tmp_path, capsys):
    base = {
        "system": {"name": "rotation", "params": {"alpha": "golden"}},
        "folner": {"kind": "z_interval"},
    }
    operations = [
        base | {
            "indices": [10, 20, 40],
            "operation": {"name": "generic_measure_trace", "params": {"x": "0"}},
        },
        base | {
            "operation": {
                "name": "measure_map_continuity",
                "params": {"grid": ["0", "1/8", "1/4"], "n": 64},
            },
        },
        base | {
            "operation": {
                "name": "uniform_convergence",
                "params": {
                    "observable_index": 1,
                    "grid": ["0", "1/2"],
                    "index_pairs": [[50, 100]],
                },
            },
        },
        base | {
            "indices": [10, 20],
            "seed": 5,
            "operation": {
                "name": "modulus",
                "params": {"kind": "wasserstein", "deltas": [0.01, 0.05],
                           "pairs_per_delta": 4},
            },
        },
        base | {
            "indices": [5, 10],
            "operation": {
                "name": "mean_distance_trace",
                "params": {"x": "0", "y": "1/3"},
            },
        },
    ]
    for k, config in enumerate(operations):
        cfg = write_config(tmp_path, f"cfg{k}.json", config)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("ok ")


def _golden(system, name, params, folner="z_interval", **extra):
    return {"system": system, "folner": {"kind": folner}, **extra,
            "operation": {"name": name, "params": params}}


_GOLDEN_ROTATION = {"name": "rotation", "params": {"alpha": "golden"}}

# (config, CSV text, JSON text with sorted keys) for each operation
_GOLDEN = {
    "wasserstein_trace": (
        _golden(_GOLDEN_ROTATION, "wasserstein_trace", {"x": "0", "y": "3/10"},
                indices=[4, 8]),
        "n,value\n4,0.0909830056251\n8,0.05\n",
        '{"indices": [4, 8], "kind": "wasserstein", "limsup_estimate": 0.049999999999999996,'
        ' "values": [0.09098300562505257, 0.049999999999999996]}',
    ),
    "mean_distance_trace": (
        _golden({"name": "interval_square"}, "mean_distance_trace", {"x": 0.3, "y": 0.6},
                indices=[3, 6]),
        "n,value\n3,0.2305\n6,0.118085456045\n",
        '{"indices": [3, 6], "kind": "mean_distance", "limsup_estimate": 0.11808545604544744,'
        ' "values": [0.2305, 0.11808545604544744]}',
    ),
    "wdist": (
        _golden({"name": "rotation", "params": {"alpha": "1/3"}}, "wdist",
                {"x": "0", "y": "1/7", "n": 5}),
        "n,value\n5,0.142857142857\n",
        '{"n": 5, "value": 0.14285714285714285}',
    ),
    "defect_table": (
        _golden({"name": "zd_rotation", "params": {"alphas": ["1/3", "1/5"]}},
                "defect_table", {"elements": [[0, -2]]}, folner="zd_box", indices=[2]),
        'group,kind,n,g,side,defect\nZ^2,zd_box,2,"0,-2",left,4/5\n'
        'Z^2,zd_box,2,"0,-2",right,4/5\n',
        '{"rows": [{"defect": "4/5", "g": "0,-2", "group": "Z^2", "kind": "zd_box",'
        ' "n": "2", "side": "left"}, {"defect": "4/5", "g": "0,-2", "group": "Z^2",'
        ' "kind": "zd_box", "n": "2", "side": "right"}]}',
    ),
    "temperedness": (
        _golden(_GOLDEN_ROTATION, "temperedness", {"upto": 4}),
        "n,ratio\n2,1\n3,4/3\n4,3/2\n",
        '{"constant": "3/2", "indices": [2, 3, 4], "ratios": ["1", "4/3", "3/2"]}',
    ),
    "tempered_extraction": (
        _golden(_GOLDEN_ROTATION, "tempered_extraction", {"constant": "2", "count": 3}),
        "position,index\n1,1\n2,2\n3,3\n",
        '{"indices": [1, 2, 3]}',
    ),
    "coupling_bounds": (
        _golden(_GOLDEN_ROTATION, "coupling_bounds",
                {"pairs": [{"z1": {"left": "0", "right": "1/3"},
                            "z2": {"left": "1/8", "right": "2/5"}}]},
                indices=[4, 8]),
        "pair,n,w_product,diagonal_mean,w_to_diagonal,base_mean\n"
        "0,4,0.191666666667,0.191666666667,0.333333333333,0.333333333333\n"
        "0,8,0.0844558755212,0.191666666667,0.333333333333,0.333333333333\n",
        '{"max_violation": 0.0, "max_violation_lower": 0.0, "max_violation_upper": 0.0,'
        ' "rows": [{"base_mean": 0.3333333333333333, "diagonal_mean": 0.19166666666666668,'
        ' "n": 4, "pair": 0, "w_product": 0.19166666666666668,'
        ' "w_to_diagonal": 0.3333333333333333}, {"base_mean": 0.3333333333333333,'
        ' "diagonal_mean": 0.19166666666666668, "n": 8, "pair": 0,'
        ' "w_product": 0.08445587552122766, "w_to_diagonal": 0.3333333333333333}],'
        ' "tolerance": 1e-09}',
    ),
    "unique_ergodicity": (
        _golden({"name": "two_rotations"}, "unique_ergodicity",
                {"points": [{"component": "a", "value": "0"},
                            {"component": "a", "value": "1/3"},
                            {"component": "b", "value": "5/8"}], "n": 16}),
        "i,j,w,rho\n0,1,0.0121905196877,0.00633018273116\n0,2,1,0.253876481272\n"
        "1,2,1,0.254228639705\n",
        '{"consistent": false, "max_rho": 0.25422863970516346, "max_w": 1.0, "n": 16,'
        ' "pairs": [{"i": 0, "j": 1, "rho": 0.006330182731162544, "w": 0.012190519687684018},'
        ' {"i": 0, "j": 2, "rho": 0.25387648127196577, "w": 1.0},'
        ' {"i": 1, "j": 2, "rho": 0.25422863970516346, "w": 1.0}], "threshold": 0.05}',
    ),
    "generic_measure_trace": (
        _golden({"name": "full_shift"}, "generic_measure_trace",
                {"x": {"kind": "random", "seed": 1}}, indices=[4, 8, 16]),
        "n_from,n_to,rho\n4,8,0.122238643994\n8,16,0.0834624886361\n",
        '{"cauchy_defect": 0.08346248863614392,'
        ' "consecutive_rho": [0.12223864399402373, 0.08346248863614392],'
        ' "indices": [4, 8, 16]}',
    ),
    "measure_map_continuity": (
        _golden({"name": "interval_square"}, "measure_map_continuity",
                {"grid": [0.25, 0.5, 0.75], "n": 8}),
        "i,distance,rho\n0,0.25,0.0208333333333\n1,0.25,0.0454129484946\n",
        '{"n": 8, "rows": [{"distance": 0.25, "i": 0, "rho": 0.020833333333333332},'
        ' {"distance": 0.25, "i": 1, "rho": 0.04541294849460318}]}',
    ),
    "uniform_convergence": (
        _golden({"name": "heisenberg_rotation"}, "uniform_convergence",
                {"observable_index": 3, "grid": [["0", "0"], ["1/2", "1/3"]],
                 "index_pairs": [[1, 2]]}, folner="heisenberg_box"),
        "n,m,sup_gap\n1,2,0.0982686573743\n",
        '{"rows": [{"m": 2, "n": 1, "sup_gap": 0.09826865737433603}]}',
    ),
    "modulus": (
        _golden(_GOLDEN_ROTATION, "modulus",
                {"kind": "wasserstein", "deltas": [0.01, 0.1], "pairs_per_delta": 2},
                indices=[4, 8], seed=5),
        "delta,sup_value,samples_per_delta\n0.01,0.0052,2\n0.1,0.0516,2\n",
        '{"delta_grid": [0.01, 0.1], "kind": "wasserstein", "sample_count": 2,'
        ' "sup_values": [0.005199999999999986, 0.0516]}',
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_run_writes_golden_csv_and_json(name, tmp_path, capsys):
    # every report cell and JSON row, pinned byte for byte
    config, csv_text, json_text = _GOLDEN[name]
    config = config | {"output": {"csv": "out.csv", "json": "out.json"}}
    cfg = write_config(tmp_path, "cfg.json", config)
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith(f"ok {name} ")
    assert (tmp_path / "out.csv").read_text() == csv_text
    layout = json.dumps(json.loads(json_text), sort_keys=True, indent=2) + "\n"
    assert (tmp_path / "out.json").read_text() == layout


def test_seed_override_is_reported_and_changes_sampling(tmp_path, capsys):
    config = {
        "system": {"name": "rotation", "params": {"alpha": "golden"}},
        "folner": {"kind": "z_interval"},
        "indices": [10, 20],
        "seed": 5,
        "operation": {
            "name": "modulus",
            "params": {"kind": "wasserstein", "deltas": [0.02], "pairs_per_delta": 6},
        },
        "output": {"csv": "mod.csv"},
    }
    cfg = write_config(tmp_path, "cfg.json", config)
    outputs = {}
    for seed in ("11", "12"):
        out_dir = tmp_path / seed
        code = main(["run", "--config", cfg, "--out", str(out_dir), "--seed", seed, "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["seed"] == int(seed)
        outputs[seed] = (out_dir / "mod.csv").read_bytes()
    assert outputs["11"] != outputs["12"]


# ---------------------------------------------------------------------------
# run: failure modes


def expect_exit(argv, code, capsys, needle=""):
    assert main(argv) == code
    err = capsys.readouterr().err
    if needle:
        assert needle in err
    return err


def test_unknown_top_level_key(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", trace_config(bogus=1))
    err = expect_exit(["run", "--config", cfg], 2, capsys, "error[ConfigError]")
    assert "bogus" in err


def test_unknown_param_key_reports_path(tmp_path, capsys):
    config = trace_config()
    config["operation"]["params"]["bogus"] = True
    cfg = write_config(tmp_path, "cfg.json", config)
    err = expect_exit(["run", "--config", cfg], 2, capsys, "operation.params")
    assert "bogus" in err


def test_missing_required_key(tmp_path, capsys):
    config = trace_config()
    del config["operation"]["params"]["x"]
    cfg = write_config(tmp_path, "cfg.json", config)
    expect_exit(["run", "--config", cfg], 2, capsys, "'x'")


def test_unknown_operation_lists_alternatives(tmp_path, capsys):
    config = trace_config()
    config["operation"] = {"name": "teleport", "params": {}}
    cfg = write_config(tmp_path, "cfg.json", config)
    err = expect_exit(["run", "--config", cfg], 2, capsys, "teleport")
    assert "wdist" in err


def test_folner_group_mismatch(tmp_path, capsys):
    config = trace_config(
        system={"name": "zd_rotation", "params": {"alphas": ["golden", "1/7"]}}
    )
    cfg = write_config(tmp_path, "cfg.json", config)
    expect_exit(["run", "--config", cfg], 2, capsys, "z_interval")


def test_runtime_domain_error_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", trace_config(indices=[0]))
    expect_exit(["run", "--config", cfg], 1, capsys, "error[ValueError]")


@pytest.mark.parametrize("count", [0, -3])
def test_modulus_without_pairs_exits_1(tmp_path, capsys, count):
    config = _op_config(
        "modulus", {"kind": "wasserstein", "deltas": [0.1], "pairs_per_delta": count}
    )
    cfg = write_config(tmp_path, "cfg.json", config)
    err = expect_exit(["run", "--config", cfg, "--out", str(tmp_path)], 1, capsys)
    assert err == "error[ValueError]: pairs_per_delta must be positive\n"


def test_unreadable_or_invalid_config(tmp_path, capsys):
    expect_exit(
        ["run", "--config", str(tmp_path / "missing.json")], 2, capsys,
        "cannot read config",
    )
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    expect_exit(["run", "--config", str(bad)], 2, capsys, "not valid JSON")


def test_bad_tolerances_key(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "cfg.json", trace_config(tolerances={"speed": 1})
    )
    expect_exit(["run", "--config", cfg], 2, capsys, "speed")


_WDIST = ["wdist", "--system", "rotation", "--x", "0", "--y", "1/8", "--n", "4"]


@pytest.mark.parametrize(
    "overrides, argv, code, needle",
    [
        ({"tolerances": {"metric": "1e-9"}}, None, 2, "ConfigError]: tolerances.metric:"),
        ({"tolerances": {"metric": True}}, None, 2, "ConfigError]: tolerances.metric:"),
        ({"tolerances": {"rho_terms": 2.5}}, None, 2, "ConfigError]: tolerances.rho_terms:"),
        ({"tolerances": {"threshold": "0.1"}}, None, 2, "ConfigError]: tolerances.threshold:"),
        ({"system": {"name": "rotation", "params": [1]}}, None, 2, "ConfigError]: system.params:"),
        ({"system": {"name": ["rotation"]}}, None, 2, "ConfigError]: system.name:"),
        ({"operation": {"name": ["wdist"]}}, None, 2, "ConfigError]: operation.name:"),
        ({"seed": "abc"}, None, 2, "ConfigError]: seed:"),
        ({"seed": True}, None, 2, "ConfigError]: seed:"),
        ({"indices": [True, 4]}, None, 2, "ConfigError]: indices"),
        (None, _WDIST + ["--params", "[1]"], 2, "ConfigError]: system.params:"),
        # the right type with a bad value keeps its runtime check
        ({"tolerances": {"metric": 0}}, None, 1, "error[ValueError]"),
    ],
    ids=["metric-str", "metric-bool", "rho_terms-float", "threshold-str",
         "params-list", "name-list", "operation-list", "seed-str", "seed-bool",
         "indices-bool", "wdist-params-list", "metric-zero"],
)
def test_config_value_types(overrides, argv, code, needle, tmp_path, capsys):
    if argv is None:
        argv = ["run", "--config",
                write_config(tmp_path, "cfg.json", trace_config(**overrides))]
    expect_exit(argv, code, capsys, needle)


def _op_config(name, params):
    return trace_config(operation={"name": name, "params": params})


@pytest.mark.parametrize(
    "name, params",
    [
        ("unique_ergodicity", {"points": ["0"], "n": 16}),
        ("measure_map_continuity", {"grid": [], "n": 16}),
        ("measure_map_continuity", {"grid": ["0"], "n": 16}),
    ],
    ids=["one-point", "empty-grid", "one-point-grid"],
)
def test_run_rejects_a_diagnostic_without_pairs(name, params, tmp_path, capsys):
    # a verdict from zero pairs would read as evidence
    cfg = write_config(tmp_path, "cfg.json", _op_config(name, params))
    expect_exit(["run", "--config", cfg, "--out", str(tmp_path)], 1, capsys,
                "error[ValueError]: need at least two")
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize(
    "name, params, code, line",
    [
        ("uniform_convergence",
         {"observable_index": 1, "grid": ["0"], "index_pairs": []},
         1, "error[ValueError]: need at least one index pair"),
        ("defect_table", {"elements": []},
         2, "error[ConfigError]: operation.params.elements: expected a nonempty list"),
        ("defect_table", {"elements": [[1]], "sides": []},
         2, "error[ConfigError]: operation.params.sides: expected a nonempty list"),
    ],
    ids=["no-index-pairs", "no-elements", "no-sides"],
)
def test_run_rejects_an_operation_without_rows(name, params, code, line, tmp_path, capsys):
    # a maximum over zero rows would read as a zero gap or a zero defect
    config = trace_config(operation={"name": name, "params": params},
                          output={"csv": "out.csv", "json": "out.json"})
    cfg = write_config(tmp_path, "cfg.json", config)
    err = expect_exit(["run", "--config", cfg, "--out", str(tmp_path)], code, capsys)
    assert err == line + "\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


@pytest.mark.parametrize(
    "config, needle",
    [
        (_op_config("wdist", {"x": "0", "y": "1/8", "n": [1]}), "operation.params.n:"),
        (_op_config("wdist", {"x": "0", "y": "1/8", "n": "4"}), "operation.params.n:"),
        (_op_config("defect_table", {"elements": 5}), "operation.params.elements:"),
        (_op_config("defect_table", {"elements": [[1]], "sides": "left"}),
         "operation.params.sides:"),
        (_op_config("temperedness", {"upto": None}), "operation.params.upto:"),
        (_op_config("tempered_extraction", {"constant": "2", "count": 1.5}),
         "operation.params.count:"),
        (_op_config("unique_ergodicity", {"points": ["0"], "n": 4, "threshold": None}),
         "operation.params.threshold:"),
        (_op_config("uniform_convergence",
                    {"observable_index": 1, "grid": ["0"], "index_pairs": [5]}),
         "operation.params.index_pairs[]:"),
        (_op_config("modulus", {"kind": "wasserstein", "deltas": 0.1}),
         "operation.params.deltas:"),
        (trace_config(output={"csv": 5}), "output.csv:"),
        (trace_config(output={"json": None}), "output.json:"),
    ],
    ids=["wdist-n-list", "wdist-n-str", "defect-elements-int", "defect-sides-str",
         "tempered-upto-null", "extraction-count-float", "ue-threshold-null",
         "uniform-pairs-int", "modulus-deltas-float", "output-csv-int",
         "output-json-null"],
)
def test_operation_param_and_output_types(config, needle, tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(folnerlab.analysis, "wasserstein_trace", lambda *a: ran.append(a))
    cfg = write_config(tmp_path, "cfg.json", config)
    expect_exit(["run", "--config", cfg, "--out", str(tmp_path)], 2, capsys,
                "error[ConfigError]: " + needle)
    assert ran == []  # output paths are checked before the operation runs


# ---------------------------------------------------------------------------
# verify suites


@pytest.mark.parametrize(
    "suite",
    ["assignment-oracle", "folner-defects", "temperedness",
     "wasserstein-axioms", "reproducibility"],
)
def test_verify_suites_pass(suite, capsys):
    assert main(["verify", suite, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == suite
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_verify_text_output(capsys):
    assert main(["verify", "folner-defects"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "checks passed" in out


def test_verify_reproducibility_compares_csv_and_json(capsys):
    assert main(["verify", "reproducibility", "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == [
        "identical config yields byte-identical CSV",
        "identical config yields byte-identical JSON",
    ]


def test_verify_unknown_suite(capsys):
    expect_exit(["verify", "nonsense"], 2, capsys, "unknown suite")


# ---------------------------------------------------------------------------
# shortcut subcommands


def test_defect_command(capsys):
    assert main(["defect", "--n", "10", "--g", "1"]) == 0
    out = capsys.readouterr().out
    assert "side=left defect=1/5" in out
    assert "side=right defect=1/5" in out

    assert main(["defect", "--n", "10", "--g", "1", "--side", "left", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["defects"] == {"left": "1/5"}
    assert payload["group"] == "Z"


def test_defect_command_on_z2(capsys):
    assert main([
        "defect", "--group", "Z^2", "--kind", "zd_box", "--n", "3", "--g", "1,0",
        "--side", "left", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["defects"]["left"] == "2/7"


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["defect", "--group", "Z^2", "--n", "10", "--g", "1"], "z_interval"),
        (["tempered", "--group", "Z^2", "--upto", "4"], "z_interval"),
        (["defect", "--kind", "heisenberg_box", "--n", "2", "--g", "1,0,0"],
         "heisenberg_box"),
        (["defect", "--group", "heisenberg", "--kind", "zd_box", "--n", "2",
          "--g", "1,0,0"], "zd_box"),
    ],
)
def test_shortcut_group_must_agree_with_kind(argv, needle, capsys):
    err = expect_exit(argv, 2, capsys, "error[ConfigError]")
    assert needle in err


def test_tempered_command_with_extraction(capsys):
    assert main(["tempered", "--upto", "12", "--extract", "4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["constant"] == "11/6"
    assert len(payload["extracted"]) == 4


def test_wdist_command(capsys):
    argv = [
        "wdist", "--system", "rotation", "--params", '{"alpha": "1/4"}',
        "--x", "0", "--y", "1/8", "--n", "4",
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == "0.125"
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 0.125


def test_wdist_rejects_non_z_actions(capsys):
    expect_exit(
        [
            "wdist", "--system", "zd_rotation",
            "--params", '{"alphas": ["golden", "1/7"]}',
            "--x", "0", "--y", "1/8", "--n", "4",
        ],
        2,
        capsys,
        "Z-actions",
    )


def test_trace_command(tmp_path, capsys):
    csv_path = str(tmp_path / "trace.csv")
    argv = [
        "trace", "--system", "rotation", "--x", "0", "--y", "3/10",
        "--indices", "5,10,20", "--csv", csv_path,
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "limsup_estimate=" in out
    lines = open(csv_path).read().splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == 4

    argv = [
        "trace", "--trace-kind", "mean_distance", "--system", "rotation",
        "--x", "0", "--y", "3/10", "--indices", "5,10", "--json",
    ]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "mean_distance"
    assert len(payload["values"]) == 2


@pytest.mark.parametrize(
    "argv, lines",
    [
        (
            ["tempered", "--upto", "6", "--extract", "3", "--constant", "3/2"],
            ["n=2 ratio=1", "n=3 ratio=4/3", "n=4 ratio=3/2", "n=5 ratio=8/5",
             "n=6 ratio=5/3", "constant=5/3", "extracted=1,2,3"],
        ),
        (
            ["trace", "--system", "rotation", "--x", "0", "--y", "3/10",
             "--indices", "5,10,20"],
            ["n=5 value=0.1", "n=10 value=0.0321359549996", "n=20 value=0.02",
             "limsup_estimate=0.0321359549996"],
        ),
        (
            # the raw --g text is echoed, spaces included
            ["defect", "--group", "Z^2", "--kind", "zd_box", "--n", "3",
             "--g", "1, 0"],
            ["n=3 g=1, 0 side=left defect=2/7", "n=3 g=1, 0 side=right defect=2/7"],
        ),
        (
            ["defect", "--group", "heisenberg", "--kind", "heisenberg_box",
             "--n", "2", "--g", "1,0,0", "--side", "left"],
            ["n=2 g=1,0,0 side=left defect=46/75"],
        ),
    ],
)
def test_shortcut_full_stdout(argv, lines, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8"
    )
    section = readme.split("## Command line", 1)[1]
    commands = section.split("```sh\n", 1)[1].split("```", 1)[0]
    trace_json = section.split("```json\n", 1)[1].split("```", 1)[0]
    (tmp_path / "trace.json").write_text(trace_json, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = [line for line in commands.splitlines() if line.startswith("folnerlab ")]
    assert len(lines) >= 5
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)
    assert (tmp_path / "results" / "trace.csv").is_file()


# ---------------------------------------------------------------------------
# console-script entry point


def test_console_script_runs(tmp_path):
    # Build the launcher that pip generates for the declared entry point and
    # run it from source, so the check needs no installed package.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["folnerlab"]
    module, _, func = target.partition(":")
    launcher = tmp_path / "folnerlab"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n",
        encoding="utf-8",
    )
    launcher.chmod(0o755)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(folnerlab.__file__).resolve().parent.parent)

    def run(*args):
        return subprocess.run(
            [str(launcher), *args], capture_output=True, text=True,
            timeout=120, cwd=tmp_path, env=env,
        )

    proc = run("catalog")
    assert proc.returncode == 0, proc.stderr
    assert "rotation" in proc.stdout

    proc = run("run", "--config", "missing.json")
    assert proc.returncode == 2
    assert any(
        line.startswith("error[ConfigError]") for line in proc.stderr.splitlines()
    ), proc.stderr


@pytest.mark.parametrize(
    "argv, line",
    [
        (["defect", "--group", "Z^2", "--n", "10", "--g", "1"],
         "folner.kind: z_interval needs the group Z, not 'Z^2'"),
        (["defect", "--kind", "heisenberg_box", "--n", "2", "--g", "1,0,0"],
         "folner.kind: heisenberg_box needs the Heisenberg group"),
        (["defect", "--group", "heisenberg", "--kind", "zd_box", "--n", "2",
          "--g", "1,0,0"], "folner.kind: zd_box needs a group Z or Z^d"),
    ],
)
def test_group_kind_mismatch_wording(argv, line, capsys):
    assert expect_exit(argv, 2, capsys) == f"error[ConfigError]: {line}\n"


@pytest.mark.parametrize(
    "argv, line",
    [
        (["defect", "--group", "foo", "--kind", "zd_box", "--n", "2", "--g", "1"],
         "group: unknown group 'foo'"),
        (["tempered", "--group", "Z^1", "--kind", "zd_box", "--upto", "3"],
         "group: bad lattice tag 'Z^1'; use 'Z' for d=1 and 'Z^d' for d >= 2"),
        (["tempered", "--group", "foo", "--kind", "z_interval", "--upto", "3"],
         "group: unknown group 'foo'"),
    ],
)
def test_unknown_group_tag_is_a_config_error(argv, line, capsys):
    assert expect_exit(argv, 2, capsys) == f"error[ConfigError]: {line}\n"


@pytest.mark.parametrize(
    "anchor, line",
    [
        ("up", "folner.anchor: expected 'left' or 'right', got \"up\""),
        (3, "folner.anchor: expected a string, got 3"),
    ],
)
def test_bad_folner_anchor_is_a_config_error(tmp_path, anchor, line, capsys):
    config = trace_config(folner={"kind": "z_interval", "anchor": anchor})
    cfg = write_config(tmp_path, "cfg.json", config)
    err = expect_exit(["run", "--config", cfg, "--out", str(tmp_path)], 2, capsys)
    assert err == f"error[ConfigError]: {line}\n"


@pytest.mark.parametrize(
    "config, line",
    [
        (_op_config("defect_table", {"elements": [], "sides": ["up"]}),
         "operation.params.sides[]: expected 'left' or 'right', got \"up\""),
        (_op_config("modulus", {"kind": "foo", "deltas": [0.1]}),
         "operation.params.kind: "
         "expected 'wasserstein' or 'mean_distance', got \"foo\""),
        (trace_config(folner={"kind": "explicit_list", "subsets": 3}),
         "folner.subsets: expected a list, got 3"),
        (trace_config(folner={"kind": "explicit_list", "subsets": [5]}),
         "folner.subsets[]: expected a list, got 5"),
        (trace_config(folner={"kind": "explicit_list", "subsets": [[[1], 2]]}),
         "folner.subsets[][]: expected a list, got 2"),
        (trace_config(folner={"kind": "explicit_list", "subsets": [[[1, 2]]]}),
         "folner.subsets: Z element needs 1 coordinates, got 2"),
        (trace_config(folner={"kind": "explicit_list", "subsets": [[[1]]],
                              "claimed_sides": "left"}),
         "folner.claimed_sides: expected a list, got \"left\""),
        (trace_config(folner={"kind": "explicit_list", "subsets": [[[1]]],
                              "claimed_sides": ["up"]}),
         "folner.claimed_sides[]: expected 'left' or 'right', got \"up\""),
    ],
    ids=["defect-side-value", "modulus-kind-value", "subsets-int",
         "subsets-int-list", "subset-row-int", "subset-row-length", "claimed-sides-str",
         "claimed-sides-value"],
)
def test_config_values_outside_their_domain_are_config_errors(
    config, line, tmp_path, capsys, monkeypatch
):
    ran = []
    monkeypatch.setattr(folnerlab.analysis, "wasserstein_trace", lambda *a: ran.append(a))
    cfg = write_config(tmp_path, "cfg.json", config)
    err = expect_exit(["run", "--config", cfg, "--out", str(tmp_path)], 2, capsys)
    assert err == f"error[ConfigError]: {line}\n"
    assert ran == []


def test_verify_weak_star_suite_passes(capsys):
    assert main(["verify", "weak-star", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "weak-star"
    assert [c["passed"] for c in payload["checks"]] == [True] * 6


# ---------------------------------------------------------------------------
# Folner keys belong to their kind; NaN and p/0 values are rejected


# each kind's keys besides "kind", with a value each key accepts
_KIND_KEYS = {
    "z_interval": {"anchor": "left"},
    "zd_box": {},
    "heisenberg_box": {},
    "explicit_list": {"subsets": [[[0]]], "claimed_sides": ["left"]},
}
_FOREIGN_KEYS = [
    (kind, key, value)
    for kind, own in _KIND_KEYS.items()
    for keys in _KIND_KEYS.values()
    for key, value in keys.items()
    if key not in own
]


@pytest.mark.parametrize(
    "kind, key, value", _FOREIGN_KEYS, ids=[f"{k}-{key}" for k, key, _ in _FOREIGN_KEYS]
)
def test_folner_keys_of_another_kind_are_config_errors(
    kind, key, value, tmp_path, capsys, monkeypatch
):
    ran = []
    monkeypatch.setattr(folnerlab.analysis, "wasserstein_trace", lambda *a: ran.append(a))
    config = trace_config(folner={"kind": kind, **_KIND_KEYS[kind], key: value})
    if kind == "heisenberg_box":
        config["system"] = {"name": "heisenberg_rotation"}
    cfg = write_config(tmp_path, "cfg.json", config)
    err = expect_exit(["run", "--config", cfg, "--out", str(tmp_path)], 2, capsys)
    assert err == f"error[ConfigError]: folner.{key}: unknown key {key!r}\n"
    assert ran == []


def test_defect_anchor_on_a_box_is_a_config_error(capsys):
    argv = ["defect", "--group", "Z^2", "--kind", "zd_box", "--anchor", "right",
            "--n", "3", "--g", "1,0"]
    err = expect_exit(argv, 2, capsys)
    assert err == "error[ConfigError]: folner.anchor: unknown key 'anchor'\n"


def test_tempered_anchor_right_keeps_its_ratios(capsys):
    assert main(["tempered", "--anchor", "right", "--upto", "4"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "n=2 ratio=1", "n=3 ratio=4/3", "n=4 ratio=3/2", "constant=3/2",
    ]


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_config_nan_and_infinity_are_not_json(constant, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    text = json.dumps(trace_config(tolerances={"metric": 1e-9}))
    path.write_text(text.replace("1e-09", constant), encoding="utf-8")
    err = expect_exit(["run", "--config", str(path)], 2, capsys)
    assert err == (
        f"error[ConfigError]: config is not valid JSON: {constant} is not a JSON number\n"
    )


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("system", ["rotation", "full_shift"])
@pytest.mark.parametrize(
    "number, line",
    [
        ("1e999", "config number 1e999 is out of the float range"),
        ("-1e999", "config number -1e999 is out of the float range"),
        (_HUGE, "operation.params.deltas[]: expected a number within the float range"),
    ],
    ids=["1e999", "-1e999", "10**400"],
)
def test_config_numbers_beyond_the_float_range_are_rejected(
    number, line, system, tmp_path, capsys
):
    # json reads the floats as inf and -inf, and the integer has no float value
    config = {
        "system": {"name": system},
        "folner": {"kind": "z_interval"},
        "indices": [4, 8],
        "operation": {
            "name": "modulus",
            "params": {"kind": "wasserstein", "deltas": [0.5], "pairs_per_delta": 1},
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config).replace("0.5", number), encoding="utf-8")
    err = expect_exit(["run", "--config", str(path)], 2, capsys)
    assert err == f"error[ConfigError]: {line}\n"


_RANDOM_WORDS = ["--x", '{"kind":"random","seed":1}', "--y", '{"kind":"random","seed":2}']


@pytest.mark.parametrize(
    "argv, line",
    [
        (["wdist", "--system", "rotation", "--params", '{"alpha": "1/0"}',
          "--x", "0", "--y", "1/3", "--n", "4"], "'1/0' is not a finite rational number"),
        (["wdist", "--system", "rotation", "--x", "1/0", "--y", "1/3", "--n", "4"],
         "'1/0' is not a finite rational number"),
        (["tempered", "--upto", "3", "--extract", "2", "--constant", "1/0"],
         "'1/0' is not a finite rational number"),
        (["trace", "--system", "full_shift", *_RANDOM_WORDS, "--indices", "3,5",
          "--tol", "nan"], "tol must be positive"),
    ],
    ids=["alpha-1/0", "x-1/0", "constant-1/0", "trace-tol-nan"],
)
def test_bad_values_exit_1_with_one_error_line(argv, line, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error[ValueError]: {line}\n"
    assert captured.out == ""


def test_trace_with_an_infinite_tol_exits_1_with_one_error_line(capsys):
    argv = ["trace", "--system", "full_shift", *_RANDOM_WORDS, "--indices", "3,5",
            "--tol", "inf"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error[ValueError]: tol must be positive and finite\n"
    assert captured.out == ""
