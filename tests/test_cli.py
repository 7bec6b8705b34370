"""Command line driver: exit codes, output formats, determinism."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from branchlab import cli, limits, process
from branchlab.cli import build_phi, main
from branchlab.trees import PlanarTree, tree_to_string

CONFIG_DIR = "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def mask_git(text):
    return re.sub(r'^(# git=|\s*"git": ).*$', r"\1<masked>", text, flags=re.M)


def mask_runtime(text):
    """The runtime_ms values of moment records, in JSON or CSV, masked."""
    return re.sub(r'("runtime_ms": |,(?:m2f|bruteforce),)\d+', r"\1<masked>", text)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def write_model(tmp_path, name, types, offspring):
    body = {
        "types": types,
        "offspring": {
            x: [{"prob": p, "children": list(cs)} for p, cs in atoms]
            for x, atoms in offspring.items()
        },
    }
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return path


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestModelCheck:
    def test_critical_model_passes(self, capsys):
        rc, out, _ = run(
            capsys, "model-check", "--config", f"{CONFIG_DIR}/check_binary.json"
        )
        assert rc == 0
        data = json.loads(out)
        assert data["critical"] is True
        assert data["h"] == [1.0]
        assert abs(data["sigma_sq"] - 1.0) <= 1e-9
        assert set(data["meta"]) == {"seed", "git", "config_sha256"}

    def test_subcritical_fails_with_code_2(self, capsys):
        rc, out, _ = run(
            capsys,
            "model-check",
            "--config",
            f"{CONFIG_DIR}/check_subcritical.json",
        )
        assert rc == 2
        assert json.loads(out)["critical"] is False

    def test_near_critical_agrees_with_convergence(self, capsys, tmp_path):
        # Perron root 1.0000001: off criticality for every command, one test
        near = {"a": [(0.49999995, ()), (0.50000005, ("a", "a"))]}
        write_model(tmp_path, "m.json", ["a"], near)
        warning = "warning: model is not critical: perron root 1.0000001\n"
        cfg = write_config(tmp_path, "check.json", {"model": "m.json"})
        rc, out, err = run(capsys, "model-check", "--config", str(cfg))
        assert rc == 2 and err == warning
        data = json.loads(out)
        assert data["critical"] is False and data["perron"] == 1.0000001
        cfg = write_config(
            tmp_path, "conv.json", {"model": "m.json", "x0": "a", "k": 2, "n_values": [4, 8]}
        )
        rc, out, err = run(capsys, "convergence", "--config", str(cfg), "--format", "json")
        assert rc == 0 and err == warning
        data = json.loads(out)
        assert data["critical"] is False
        assert data["rows"] and all(r["limit"] is None for r in data["rows"])

    def test_tol_is_an_unknown_key(self, capsys, tmp_path):
        # there is one criticality threshold; a config that sets its own fails
        write_model(tmp_path, "m.json", ["a"], BINARY)
        cfg = write_config(tmp_path, "check.json", {"model": "m.json", "tol": 1e-6})
        only_config_error(*run(capsys, "model-check", "--config", str(cfg)), "unknown config keys: ['tol']")

    def _periodic_config(self, tmp_path):
        write_model(
            tmp_path,
            "swap.json",
            ["A", "B"],
            {"A": [(1.0, ("B",))], "B": [(1.0, ("A",))]},
        )
        return write_config(tmp_path, "check.json", {"model": "swap.json"})

    def test_periodic_model_reports_error(self, capsys, tmp_path):
        cfg = self._periodic_config(tmp_path)
        rc, out, err = run(capsys, "model-check", "--config", str(cfg))
        assert rc == 2 and err == ""
        # the JSON failure payload, byte for byte
        sha = hashlib.sha256(cfg.read_bytes()).hexdigest()
        assert mask_git(out) == (
            "{\n"
            '  "critical": false,\n'
            '  "error": "mean matrix must be irreducible and aperiodic",\n'
            '  "meta": {\n'
            f'    "config_sha256": "{sha}",\n'
            '    "git": <masked>\n'
            '    "seed": 0\n'
            "  }\n"
            "}\n"
        )

    def test_periodic_model_error_as_csv(self, capsys, tmp_path):
        cfg = self._periodic_config(tmp_path)
        rc, out, err = run(capsys, "model-check", "--config", str(cfg), "--format", "csv")
        assert rc == 2 and err == ""
        sha = hashlib.sha256(cfg.read_bytes()).hexdigest()
        assert mask_git(out) == (
            "# seed=0\n"
            "# git=<masked>\n"
            f"# config_sha256={sha}\n"
            "key,value\n"
            "critical,false\n"
            "error,mean matrix must be irreducible and aperiodic\n"
        )

    def test_csv_format(self, capsys):
        rc, out, _ = run(
            capsys,
            "model-check",
            "--config",
            f"{CONFIG_DIR}/check_binary.json",
            "--format",
            "csv",
        )
        assert rc == 0
        lines = out.splitlines()
        assert [l.split("=")[0] for l in lines[:3]] == ["# seed", "# git", "# config_sha256"]
        assert lines[3] == "key,value"
        assert {l.split(",")[0] for l in lines[4:]} >= {"perron", "critical", "sigma_sq"}
        # booleans are written one way, as convergence writes its meta
        assert "critical,true" in lines[4:]


class TestConfigHandling:
    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path, "bad.json", {"model": "x.json", "bogus": 1}
        )
        rc, _, err = run(capsys, "model-check", "--config", str(cfg))
        assert rc == 1
        assert "unknown config keys" in err

    def test_missing_key_rejected(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "empty.json", {})
        rc, _, err = run(capsys, "model-check", "--config", str(cfg))
        assert rc == 1
        assert "missing config keys" in err

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "model-check", "--config", str(tmp_path / "nope.json")
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "atom, key",
        [({"prob": "0.5", "children": []}, "prob"), ({"prob": 0.5, "children": "aa"}, "children")],
    )
    def test_model_value_types_exit_1(self, capsys, tmp_path, atom, key):
        model = {"types": ["a"], "offspring": {"a": [atom, {"prob": 0.5, "children": ["a", "a"]}]}}
        (tmp_path / "m.json").write_text(json.dumps(model))
        cfg = write_config(tmp_path, "check.json", {"model": "m.json"})
        rc, out, err = run(capsys, "model-check", "--config", str(cfg))
        assert rc == 1 and out == ""
        assert err.startswith(f"error: offspring of 'a': '{key}' must be") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "model, needle",
        [
            ({"types": "a", "offspring": {"a": [{"prob": 1.0, "children": []}]}}, "'types'"),
            ({"types": ["a"], "offspring": [1]}, "'offspring'"),
            ({"types": ["a"], "offspring": {"a": [[0.5, []], [0.5, ["a", "a"]]]}}, "'prob' and 'children'"),
            ({"types": ["a"], "offspring": {"a": [{"prob": 1.0}]}}, "'prob' and 'children'"),
        ],
    )
    def test_model_shape_exit_1(self, capsys, tmp_path, model, needle):
        # each once loaded, printed a traceback or printed only the key
        (tmp_path / "m.json").write_text(json.dumps(model))
        cfg = write_config(tmp_path, "check.json", {"model": "m.json"})
        rc, out, err = run(capsys, "model-check", "--config", str(cfg))
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and needle in err

    def test_invalid_json(self, capsys, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        rc, _, err = run(capsys, "model-check", "--config", str(cfg))
        assert rc == 1
        assert "not valid JSON" in err

    def test_unknown_functional_rejected(self, capsys, tmp_path):
        write_model(
            tmp_path,
            "m.json",
            ["a"],
            {"a": [(0.5, ()), (0.5, ("a", "a"))]},
        )
        cfg = write_config(
            tmp_path,
            "mom.json",
            {
                "model": "m.json",
                "x0": "a",
                "k": 1,
                "R": 1,
                "functional": {"name": "nope"},
            },
        )
        rc, _, err = run(capsys, "moments", "--config", str(cfg))
        assert rc == 1


BINARY = {"a": [(0.5, ()), (0.5, ("a", "a"))]}


class TestConfigIntegers:
    @pytest.mark.parametrize(
        "command, payload, key",
        [
            ("moments", {"x0": "a", "k": 2.5, "R": 2}, "k"),
            ("moments", {"x0": "a", "k": "3", "R": 2}, "k"),
            ("moments", {"x0": "a", "k": True, "R": 2}, "k"),
            ("moments", {"x0": "a", "k": 1, "R": None}, "R"),
            ("moments", {"x0": "a", "k": 1, "R": 2, "cap": 1e3 + 0.5}, "cap"),
            ("convergence", {"x0": "a", "k": 1, "n_values": [4, 4.5]}, "n_values"),
            ("convergence", {"x0": "a", "k": 1, "n_values": 4}, "n_values"),
            (
                "convergence",
                {"x0": "a", "k": 1, "n_values": [4], "kolmogorov_ns": ["8"]},
                "kolmogorov_ns",
            ),
            ("verify-m2f", {"ks": [1, 2.5]}, "ks"),
            ("verify-m2f", {"Rs": [False]}, "Rs"),
            ("simulate", {"x0": "a", "n_gen": 2.5}, "n_gen"),
            ("survival", {"n_values": [10, "20"]}, "n_values"),
        ],
    )
    def test_non_integer_rejected_by_name(self, capsys, tmp_path, command, payload, key):
        write_model(tmp_path, "m.json", ["a"], BINARY)
        cfg = write_config(tmp_path, "c.json", {"model": "m.json", **payload})
        rc, out, err = run(capsys, command, "--config", str(cfg))
        assert rc == 1
        assert out == ""
        assert err.startswith("config error:") and repr(key) in err

    @pytest.mark.parametrize(
        "command, payload, key",
        [
            ("verify-m2f", {"Rs": [2, -1]}, "Rs"),
            ("verify-m2f", {"ks": [2, 0]}, "ks"),
            ("survival", {"n_values": [0, 10]}, "n_values"),
            ("convergence", {"x0": "a", "k": 1, "n_values": [4], "kolmogorov_ns": [8, 0]}, "kolmogorov_ns"),
        ],
    )
    def test_counts_below_their_least_rejected_by_name(
        self, capsys, monkeypatch, tmp_path, command, payload, key
    ):
        # refused before any enumeration or eigenpair runs
        def refuse(*args, **kwargs):
            raise AssertionError("ran past the config check")

        monkeypatch.setattr(cli.moments, "BruteForceMoments", refuse)
        monkeypatch.setattr(process, "eigenpair", refuse)
        write_model(tmp_path, "m.json", ["a"], BINARY)
        cfg = write_config(tmp_path, "c.json", {"model": "m.json", **payload})
        rc, out, err = run(capsys, command, "--config", str(cfg))
        only_config_error(rc, out, err, repr(key), "must be at least")

    @pytest.mark.parametrize(
        "payload, key",
        [({"k": 2, "n_samples": 10.5}, "n_samples"), ({"k": 2, "n_inner": "8"}, "n_inner")],
    )
    def test_cpp_counts_rejected_by_name(self, capsys, tmp_path, payload, key):
        cfg = write_config(tmp_path, "c.json", payload)
        rc, out, err = run(capsys, "cpp", "--config", str(cfg))
        assert rc == 1 and out == ""
        assert repr(key) in err

    def test_integral_floats_accepted(self, capsys, tmp_path):
        write_model(tmp_path, "m.json", ["a"], BINARY)
        as_ints = write_config(
            tmp_path, "i.json", {"model": "m.json", "x0": "a", "k": 2, "R": 2, "cap": 1000}
        )
        as_floats = write_config(
            tmp_path, "f.json", {"model": "m.json", "x0": "a", "k": 2.0, "R": 2.0, "cap": 1e3}
        )
        values = []
        for cfg in (as_ints, as_floats):
            rc, out, _ = run(capsys, "moments", "--config", str(cfg))
            assert rc == 0
            values.append([r["value"] for r in json.loads(out)["records"]])
        assert values[0] == values[1]

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("moments", {"x0": "a", "k": 1, "R": 2}),
            ("convergence", {"x0": "a", "k": 1, "n_values": [4], "mode": "ultrametric"}),
            ("verify-m2f", {"ks": [1, 2], "Rs": [2]}),
        ],
    )
    def test_pair_indicator_needs_two_leaves(self, capsys, tmp_path, command, payload):
        write_model(tmp_path, "m.json", ["a"], BINARY)
        cfg = write_config(
            tmp_path,
            "c.json",
            {"model": "m.json", "functional": {"name": "pair_indicator", "r": 1.0}, **payload},
        )
        rc, out, err = run(capsys, command, "--config", str(cfg))
        assert rc == 1
        assert out == ""
        assert "pair_indicator needs k >= 2" in err


def only_config_error(rc, out, err, *needles):
    """Exit 1, nothing on stdout, one "config error:" line holding every needle."""
    assert rc == 1 and out == ""
    assert err.startswith("config error:") and err.count("\n") == 1
    assert all(needle in err for needle in needles)


class TestConfigFloats:
    @pytest.mark.parametrize("bad", [None, True, "x"])
    @pytest.mark.parametrize(
        "command, payload, key",
        [
            (
                "moments",
                lambda v: {"x0": "a", "k": 1, "R": 2, "functional": {"name": "height_indicator", "r": v}},
                "r",
            ),
            (
                "convergence",
                lambda v: {"x0": "a", "k": 2, "n_values": [4], "functional": {"name": "pair_indicator", "r": v}},
                "r",
            ),
            ("verify-m2f", lambda v: {"functional": {"name": "count", "weights": {"a": v}}}, "weights"),
            ("verify-m2f", lambda v: {"tol": v}, "tol"),
            ("cpp", lambda v: {"k": 2, "phi": {"name": "pair_indicator", "r": v}}, "r"),
            ("cpp", lambda v: {"k": 1, "sigma_sq": v}, "sigma_sq"),
            ("cpp", lambda v: {"k": 1, "eps": v}, "eps"),
            ("cpp", lambda v: {"k": 1, "z_max": v}, "z_max"),
        ],
        ids=["functional-r", "pair-r", "weights", "verify-tol",
             "phi-r", "sigma_sq", "eps", "z_max"],
    )
    def test_non_number_rejected_by_name(self, capsys, tmp_path, command, payload, key, bad):
        write_model(tmp_path, "m.json", ["a"], BINARY)
        body = payload(bad) if command == "cpp" else {"model": "m.json", **payload(bad)}
        cfg = write_config(tmp_path, "c.json", body)
        only_config_error(*run(capsys, command, "--config", str(cfg)), repr(key))

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("moments", {"model": "m.json", "x0": "a", "k": 1, "R": 2, "functional": {"name": "height_indicator"}}),
            ("convergence", {"model": "m.json", "x0": "a", "k": 2, "n_values": [4], "functional": {"name": "pair_indicator"}}),
            ("cpp", {"k": 2, "phi": {"name": "pair_indicator"}}),
        ],
    )
    def test_missing_r_rejected_by_name(self, capsys, tmp_path, command, payload):
        write_model(tmp_path, "m.json", ["a"], BINARY)
        cfg = write_config(tmp_path, "c.json", payload)
        only_config_error(*run(capsys, command, "--config", str(cfg)), "missing", "'r'")

    @pytest.mark.parametrize("weights", [3, "a", ["a"]])
    def test_weights_must_map_types_to_numbers(self, capsys, tmp_path, weights):
        write_model(tmp_path, "m.json", ["a"], BINARY)
        cfg = write_config(
            tmp_path, "c.json", {"model": "m.json", "functional": {"name": "count", "weights": weights}}
        )
        only_config_error(*run(capsys, "verify-m2f", "--config", str(cfg)), "'weights'")


class TestConfigStartType:
    @pytest.mark.parametrize(
        "command, payload",
        [
            ("convergence", {"k": 1, "n_values": [4]}),
            ("moments", {"k": 1, "R": 2}),
            ("verify-m2f", {}),
            ("survival", {"n_values": [10]}),
        ],
    )
    def test_unknown_x0_rejected_by_name(self, capsys, tmp_path, command, payload):
        write_model(tmp_path, "m.json", ["a"], BINARY)
        cfg = write_config(tmp_path, "c.json", {"model": "m.json", "x0": "zz", **payload})
        only_config_error(*run(capsys, command, "--config", str(cfg)), "'x0'", "['a']", "'zz'")


class TestConfigValueTypes:
    @pytest.mark.parametrize(
        "command, payload, key",
        [
            ("moments", {"x0": "a", "k": 2, "R": 2, "functional": 3}, "functional"),
            ("verify-m2f", {"functional": 3}, "functional"),
            ("convergence", {"x0": "a", "k": 2, "n_values": [4], "functional": 3}, "functional"),
            ("cpp", {"k": 2, "phi": 3}, "phi"),
            ("verify-m2f", {"psis": 3}, "psis"),
            ("verify-m2f", {"psis": [{"a": 1.0}]}, "psis"),
            ("moments", {"x0": "a", "k": 2, "R": 2, "route": 3}, "route"),
            ("moments", {"x0": "a", "k": 2, "R": 2, "route": []}, "route"),
            ("model-check", {"model": 3}, "model"),
            ("simulate", {"model": ["m.json"], "x0": "a", "n_gen": 2}, "model"),
            ("survival", {"model": "", "n_values": [10]}, "model"),
        ],
        ids=["moments-functional", "verify-functional", "convergence-functional", "phi",
             "psis", "psis-dict", "route", "route-empty", "model-int", "model-list",
             "model-empty"],
    )
    def test_wrong_type_rejected_by_name(self, capsys, tmp_path, command, payload, key):
        write_model(tmp_path, "m.json", ["a"], BINARY)
        body = payload if command == "cpp" else {"model": "m.json", **payload}
        cfg = write_config(tmp_path, "c.json", body)
        only_config_error(*run(capsys, command, "--config", str(cfg)), repr(key))


class TestSimulate:
    def test_deterministic_and_parseable(self, capsys):
        rc1, out1, _ = run(
            capsys,
            "simulate",
            "--config",
            f"{CONFIG_DIR}/simulate_binary.json",
            "--seed",
            "7",
        )
        rc2, out2, _ = run(
            capsys,
            "simulate",
            "--config",
            f"{CONFIG_DIR}/simulate_binary.json",
            "--seed",
            "7",
        )
        assert rc1 == rc2 == 0
        assert out1 == out2
        tree_line = next(
            l for l in out1.splitlines() if l.startswith("# tree=")
        )
        rows = [
            l for l in out1.splitlines() if l and not l.startswith("#")
        ][1:]
        # root row has an empty vertex cell
        assert rows[0].split(",")[0] == ""
        words = [
            tuple(int(i) for i in row.split(",")[0].split(".") if i)
            for row in rows
        ]
        degrees = dict.fromkeys(words, 0)
        for v in words[1:]:
            degrees[v[:-1]] += 1
        tree = PlanarTree(degrees)
        assert tree.size == len(rows)
        assert tree_line == "# tree=" + tree_to_string(tree)

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run(
            capsys,
            "simulate",
            "--config",
            f"{CONFIG_DIR}/simulate_binary.json",
            "--seed",
            "1",
        )
        _, out2, _ = run(
            capsys,
            "simulate",
            "--config",
            f"{CONFIG_DIR}/simulate_binary.json",
            "--seed",
            "2",
        )
        assert out1 != out2

    def test_json_format(self, capsys):
        argv = ("simulate", "--config", f"{CONFIG_DIR}/simulate_binary.json", "--seed", "3")
        rc, out_csv, _ = run(capsys, *argv)
        rc_json, out_json, _ = run(capsys, *argv, "--format", "json")
        assert rc == rc_json == 0
        data = json.loads(out_json)
        assert set(data) == {"meta", "tree", "rows"}
        assert f"# tree={data['tree']}" in out_csv.splitlines()
        assert f"# config_sha256={data['meta']['config_sha256']}" in out_csv.splitlines()
        assert data["meta"]["seed"] == 3
        lines = [l for l in out_csv.splitlines() if not l.startswith("#")]
        assert lines[0] == "vertex,type"
        assert [f"{r['vertex']},{r['type']}" for r in data["rows"]] == lines[1:]

    def test_supercritical_model_exits_1(self, capsys, tmp_path):
        write_model(tmp_path, "m.json", ["a"], {"a": [(1.0, ("a",) * 10)]})
        cfg = write_config(
            tmp_path, "sim.json", {"model": "m.json", "x0": "a", "n_gen": 40}
        )
        rc, out, err = run(capsys, "simulate", "--config", str(cfg))
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and "n_gen" in err

    @pytest.mark.parametrize(
        "payload, needle",
        [({"x0": "a", "n_gen": -1}, "n_gen"), ({"x0": "zz", "n_gen": 3}, "'zz'")],
    )
    def test_bad_start_exits_1(self, capsys, tmp_path, payload, needle):
        write_model(tmp_path, "m.json", ["a"], BINARY)
        cfg = write_config(tmp_path, "sim.json", {"model": "m.json", **payload})
        rc, out, err = run(capsys, "simulate", "--config", str(cfg))
        assert rc == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert needle in err


class TestVerify:
    def test_binary_grid_all_ok(self, capsys):
        rc, out, _ = run(
            capsys, "verify-m2f", "--config", f"{CONFIG_DIR}/verify_binary.json", "--format", "json"
        )
        assert rc == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 18
        assert all(r["status"] == "ok" for r in rows)
        assert all(r["abs_diff"] <= 1e-9 for r in rows)

    def test_impossible_tolerance_gives_code_3(self, capsys, tmp_path):
        write_model(
            tmp_path,
            "m.json",
            ["a"],
            {"a": [(0.5, ()), (0.5, ("a", "a"))]},
        )
        cfg = write_config(
            tmp_path,
            "v.json",
            {"model": "m.json", "ks": [1], "Rs": [1], "tol": -1.0},
        )
        rc, out, _ = run(capsys, "verify-m2f", "--config", str(cfg), "--format", "json")
        assert rc == 3
        rows = json.loads(out)["rows"]
        assert rows and all(r["status"] == "FAIL" for r in rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_childless_model(self, capsys, tmp_path, fmt):
        # no type has children: the unit-weight shape sum gives brute
        # force's 1.0, where building its kernel used to raise IndexError
        write_model(tmp_path, "m.json", ["a"], {"a": [(1.0, ())]})
        body = {"model": "m.json", "ks": [1], "Rs": [2], "functional": {"name": "count"}}
        cfg = write_config(tmp_path, "v.json", {**body, "psis": ["unit"]})
        rc, out, err = run(capsys, "verify-m2f", "--config", str(cfg), "--format", "csv")
        assert rc == 0 and err == ""
        assert out.splitlines()[3:] == [
            "k,R,psi,bruteforce,shape_sum,abs_diff,status",
            "1,2,unit,1,1,0,ok",
        ]
        # the harmonic weight needs a primitive mean matrix, which [[0]] is not
        cfg = write_config(tmp_path, "v.json", body)
        rc, out, err = run(capsys, "verify-m2f", "--config", str(cfg), "--format", fmt)
        assert rc == 1 and out == ""
        assert err == "error: mean matrix must be irreducible and aperiodic\n"

    @pytest.mark.parametrize("key", ["ks", "Rs", "psis"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_list_rejected_by_name(self, capsys, tmp_path, key, fmt):
        # an empty grid would check nothing and still exit 0
        write_model(tmp_path, "m.json", ["a"], BINARY)
        cfg = write_config(tmp_path, "c.json", {"model": "m.json", key: []})
        rc, out, err = run(capsys, "verify-m2f", "--config", str(cfg), "--format", fmt)
        only_config_error(rc, out, err, repr(key), "empty")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unsorted_repeated_radii_golden_bytes(self, capsys, tmp_path, fmt):
        # recorded before one shape sum per (k, psi) served every R: the
        # float model of the conftest, ks and Rs unsorted, Rs repeated and 0
        nondyadic = {
            "A": [(0.3, ("A", "B")), (0.2, ("B",)), (0.5, ())],
            "B": [(1 / 3, ("A", "A")), (2 / 3, ())],
        }
        write_model(tmp_path, "m.json", ["A", "B"], nondyadic)
        cfg = write_config(
            tmp_path,
            "v.json",
            {
                "model": "m.json",
                "x0": "B",
                "ks": [3, 1, 2],
                "Rs": [3, 0, 2, 2, 1],
                "functional": {"name": "count", "weights": {"A": 0.7, "B": 1.3}},
            },
        )
        rc, out, _ = run(capsys, "verify-m2f", "--config", str(cfg), "--format", fmt)
        assert rc == 0
        assert mask_git(out) == mask_git((GOLDEN_DIR / f"verify_radii.{fmt}").read_text())

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_enumeration_past_the_cap_is_an_error(self, capsys, tmp_path, fmt):
        # as for moments: one line on stderr, nothing on stdout, in either format
        model = str(Path(CONFIG_DIR, "binary_gw.json").resolve())
        cfg = write_config(tmp_path, "c.json", {"model": model, "Rs": [6]})
        rc, out, err = run(capsys, "verify-m2f", "--config", str(cfg), "--format", fmt)
        assert rc == 1 and out == ""
        assert err == (
            "error: enumeration would exceed cap=200000: generation 5 has 458330 "
            "outcomes; raise the cap or lower the horizon\n"
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bad_psi_fails_before_enumeration(self, capsys, tmp_path, fmt):
        # the kernels are built first: past the cap the bad name is reported,
        # not the cap, and brute force never runs
        model = str(Path(CONFIG_DIR, "binary_gw.json").resolve())
        cfg = write_config(tmp_path, "c.json", {"model": model, "Rs": [5], "psis": ["bogus"]})
        rc, out, err = run(capsys, "verify-m2f", "--config", str(cfg), "--format", fmt)
        assert rc == 1 and out == ""
        assert err == "error: unknown weight preset 'bogus'\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", ["binary", "two_type", "asymmetric_weighted"])
    def test_golden_bytes(self, capsys, name, fmt):
        # binary and two_type recorded before the shape sums went through
        # one numpy pass per tie pattern; asymmetric_weighted, a weighted
        # height indicator, before brute force evaluated through
        # shape_values
        rc, out, _ = run(
            capsys, "verify-m2f", "--config", f"{CONFIG_DIR}/verify_{name}.json", "--format", fmt
        )
        assert rc == 0
        want = (GOLDEN_DIR / f"verify_{name}.{fmt}").read_text()
        assert mask_git(out) == mask_git(want)


class TestMoments:
    def test_routes_agree_and_repeat_runs_match(self, capsys, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for path in (out1, out2):
            rc = main(
                [
                    "moments",
                    "--config",
                    f"{CONFIG_DIR}/moments_binary.json",
                    "--seed",
                    "0",
                    "--out",
                    str(path),
                ]
            )
            assert rc == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        recs = a["records"]
        assert {r["path"] for r in recs} == {"m2f", "bruteforce"}
        vals = [r["value"] for r in recs]
        assert abs(vals[0] - vals[1]) <= 1e-9
        assert all(
            isinstance(r["runtime_ms"], int) and r["runtime_ms"] >= 0
            for r in recs
        )
        # identical up to the runtime field
        for rec in a["records"] + b["records"]:
            rec["runtime_ms"] = -1
        assert a == b

    def test_unknown_route_rejected_before_any_route_runs(self, capsys, tmp_path, monkeypatch):
        from branchlab import moments

        def never(*args, **kwargs):
            raise AssertionError("a route ran before the route names were checked")

        monkeypatch.setattr(moments, "moment_bruteforce", never)
        monkeypatch.setattr(moments, "moment_m2f", never)
        write_model(tmp_path, "m.json", ["a"], BINARY)
        cfg = write_config(
            tmp_path, "c.json", {"model": "m.json", "x0": "a", "k": 3, "R": 4, "route": ["bruteforce", "bogus"]}
        )
        only_config_error(*run(capsys, "moments", "--config", str(cfg)), "unknown route 'bogus'")

    @pytest.mark.parametrize(
        "payload, message",
        [({"k": 0}, "config key 'k' must be at least 1, got 0"), ({"R": -1}, "config key 'R' must be at least 0, got -1")],
    )
    def test_bad_k_or_R_is_a_config_error(self, capsys, tmp_path, payload, message):
        # the model file does not exist: k and R are checked before it loads
        cfg = write_config(tmp_path, "c.json", {"model": "missing.json", "x0": "a", "k": 2, "R": 3, **payload})
        only_config_error(*run(capsys, "moments", "--config", str(cfg)), message)

    def test_bruteforce_past_the_cap_refused_before_enumerating(self, capsys, tmp_path):
        # the exact count of generation 5 shows it was counted, not enumerated
        cfg = write_config(
            tmp_path,
            "c.json",
            {"model": str(Path(CONFIG_DIR, "binary_gw.json").resolve()), "x0": "a", "k": 3, "R": 5,
             "route": "bruteforce"},
        )
        rc, out, err = run(capsys, "moments", "--config", str(cfg))
        assert rc == 1 and out == ""
        assert err == (
            "error: enumeration would exceed cap=200000: generation 5 has 458330 "
            "outcomes; raise the cap or lower the horizon\n"
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "psi, needle",
        [({"A": 1.0}, "missing ['B'], unknown []"), ({"A": 1, "B": 1, "C": 2}, "missing [], unknown ['C']")],
    )
    def test_psi_mapping_must_name_the_model_types(self, capsys, tmp_path, fmt, psi, needle):
        # a missing type printed a bare "error: 'B'"; an unknown one was ignored
        model = str(Path(CONFIG_DIR, "two_type_asymmetric.json").resolve())
        cfg = write_config(tmp_path, "c.json", {"model": model, "x0": "A", "k": 2, "R": 3, "psi": psi})
        rc, out, err = run(capsys, "moments", "--config", str(cfg), "--format", fmt)
        assert rc == 1 and out == ""
        assert err.startswith("error: psi must map every model type") and err.count("\n") == 1
        assert needle in err

    def test_hopeless_shape_sum_refused(self, capsys, tmp_path):
        # k = 4 at R = 40 would sum 9.6e9 shapes, about 17 h
        model = str(Path(CONFIG_DIR, "binary_gw.json").resolve())
        cfg = write_config(tmp_path, "c.json", {"model": model, "x0": "a", "k": 4, "R": 40, "route": "m2f"})
        rc, out, err = run(capsys, "moments", "--config", str(cfg))
        assert rc == 1 and out == ""
        assert err == (
            "error: an exact shape sum over 40^7 = 1.64e+11 height tuples is above "
            "the limit of 1e+09; use a smaller R, n or k\n"
        )

    def test_out_file_silences_stdout(self, capsys, tmp_path):
        path = tmp_path / "o.json"
        main(
            [
                "moments",
                "--config",
                f"{CONFIG_DIR}/moments_binary.json",
                "--out",
                str(path),
            ]
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        assert path.read_text().startswith("{")


class TestConvergence:
    def test_byte_identical_reruns(self, capsys):
        args = (
            "convergence",
            "--config",
            f"{CONFIG_DIR}/convergence_sym_ultra.json",
            "--seed",
            "0",
        )
        rc1, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert "# critical=true" in out1.splitlines()
        rows = json.loads(run(capsys, *args, "--format", "json")[1])["rows"]
        slice_rows = [r for r in rows if r["path"] == "ultrametric:k=2"]
        # even generation counts align with the threshold exactly
        assert any(r["rel_error"] == 0 for r in slice_rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("mode", ["rescaled", "ultrametric"])
    def test_hopeless_shape_sum_exits_1(self, capsys, tmp_path, fmt, mode):
        # rescaled k = 2 at n = 10^4 would sum 3.3e11 shapes, about 40 h
        model = str(Path(CONFIG_DIR, "binary_gw.json").resolve())
        n = 10**4 if mode == "rescaled" else 10**9 + 1
        cfg = write_config(tmp_path, "c.json", {"model": model, "x0": "a", "k": 2, "n_values": [n], "mode": mode})
        rc, out, err = run(capsys, "convergence", "--config", str(cfg), "--format", fmt)
        assert rc == 1 and out == ""
        assert err.startswith("error: an exact shape sum over") and "above the limit of 1e+09" in err

    def test_oversized_limit_grid_exits_1(self, capsys, tmp_path):
        write_model(
            tmp_path, "m.json", ["a"], {"a": [(0.5, ()), (0.5, ("a", "a"))]}
        )
        cfg = write_config(
            tmp_path,
            "conv.json",
            {"model": "m.json", "x0": "a", "k": 3, "n_values": [4]},
        )
        rc, out, err = run(capsys, "convergence", "--config", str(cfg))
        assert rc == 1
        assert out == ""
        assert err == (
            "error: a 5-dimensional grid of 50 cells per axis has 3.12e+08 points, "
            "above the limit of 1e+07; use a larger grid_step\n"
        )

    @pytest.mark.parametrize(
        "payload, prefix",
        [
            ({"grid_step": 0}, "error:"),
            ({"grid_step": -0.5}, "error:"),
            ({"grid_step": "0.05"}, "config error:"),
            ({"grid_step": None}, "config error:"),
            ({"n_values": [4, 0]}, "config error:"),
            ({"n_values": [-2]}, "config error:"),
        ],
    )
    def test_bad_grid_step_or_n_exits_1(self, capsys, tmp_path, payload, prefix):
        write_model(tmp_path, "m.json", ["a"], BINARY)
        for mode in ("rescaled", "ultrametric"):
            cfg = write_config(
                tmp_path,
                "conv.json",
                {"model": "m.json", "x0": "a", "k": 2, "n_values": [4], "mode": mode, **payload},
            )
            rc, out, err = run(capsys, "convergence", "--config", str(cfg))
            assert rc == 1 and out == ""
            assert err.startswith(prefix) and err.count("\n") == 1
            want = "grid_step" if "grid_step" in payload else "config key 'n_values' entries must be at least 1"
            assert want in err

    @pytest.mark.parametrize(
        "config, payload, message",
        [
            ("convergence_subcritical.json", {"mode": "diagonal"}, "error: unknown mode 'diagonal'"),
            ("convergence_binary_k2.json", {"mode": "diagonal"}, "error: unknown mode 'diagonal'"),
            ("convergence_binary_k2.json", {"k": 0}, "config error: config key 'k' must be at least 1"),
            (
                "convergence_sym_ultra.json",
                {"k": 0, "functional": {"name": "count"}},
                "config error: config key 'k' must be at least 1",
            ),
            ("convergence_subcritical.json", {"k": 0}, "config error: config key 'k' must be at least 1"),
        ],
    )
    def test_bad_mode_or_k_exits_1(self, capsys, tmp_path, config, payload, message):
        cfg = json.loads((Path(CONFIG_DIR) / config).read_text())
        cfg["model"] = str(Path(CONFIG_DIR, cfg["model"]).resolve())
        path = write_config(tmp_path, "conv.json", {**cfg, **payload})
        rc, out, err = run(capsys, "convergence", "--config", str(path))
        assert rc == 1 and out == ""
        # one line: rejected before eigenpair, so no criticality warning
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize(
        "raw, prefix, message",
        [
            ("true", "config error:", "config key 'R' must be a number"),
            ("null", "config error:", "config key 'R' must be a number"),
            ('"abc"', "config error:", "config key 'R' must be a number"),
            ("Infinity", "error:", "R must be a finite nonnegative number, got inf"),
            ("NaN", "error:", "R must be a finite nonnegative number, got nan"),
            ("-0.5", "error:", "R must be a finite nonnegative number, got -0.5"),
        ],
    )
    def test_bad_R_exits_1(self, capsys, tmp_path, raw, prefix, message):
        # the subcritical model would warn at eigenpair: R is checked before
        cfg = json.loads((Path(CONFIG_DIR) / "convergence_subcritical.json").read_text())
        cfg["model"] = str(Path(CONFIG_DIR, cfg["model"]).resolve())
        text = json.dumps({**cfg, "R": "<R>"}).replace('"<R>"', raw)
        path = tmp_path / "conv.json"
        path.write_text(text)
        rc, out, err = run(capsys, "convergence", "--config", str(path))
        assert rc == 1 and out == ""
        assert err.startswith(f"{prefix} {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", ["binary_k2", "subcritical", "sym_ultra", "binary_k3"])
    def test_golden_bytes(self, capsys, name, fmt):
        # recorded before the limit column took the batched functionals;
        # binary_k3 before the rescaled grid walked only in-region points
        rc, out, _ = run(
            capsys, "convergence", "--config", f"{CONFIG_DIR}/convergence_{name}.json", "--format", fmt
        )
        assert rc == 0
        want = (GOLDEN_DIR / f"convergence_{name}.{fmt}").read_text()
        assert mask_git(out) == mask_git(want)

    def test_subcritical_leaves_limit_columns_empty(self, capsys):
        rc, out, _ = run(
            capsys,
            "convergence",
            "--config",
            f"{CONFIG_DIR}/convergence_subcritical.json",
            "--format",
            "json",
        )
        assert rc == 0
        data = json.loads(out)
        assert data["critical"] is False
        assert data["rows"] and all(r["limit"] is None for r in data["rows"])

    def test_subcritical_warning_goes_to_stderr(self, capsys):
        args = ("convergence", "--config", f"{CONFIG_DIR}/convergence_subcritical.json")
        rc, out, err = run(capsys, *args)
        assert rc == 0
        assert err.splitlines() == ["warning: model is not critical: perron root 0.5"]
        assert "warning" not in out
        # stdout does not depend on whether the warning was printed
        rc, out2, _ = run(capsys, *args)
        assert out2 == out


class TestSurvival:
    def test_limits_and_determinism(self, capsys):
        args = (
            "survival",
            "--config",
            f"{CONFIG_DIR}/survival_binary.json",
        )
        rc, out, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert rc == rc2 == 0
        assert out == out2
        rows = json.loads(run(capsys, *args, "--format", "json")[1])["rows"]
        assert all(r["limit"] == 2 for r in rows)
        last = max(rows, key=lambda r: r["n"])
        assert last["n"] == 10_000
        assert last["rel_error"] <= 0.01

    def test_orders_per_type_without_x0(self, capsys, tmp_path):
        # without x0 the rows alternate types; each type's order is taken
        # against that type's previous row, and its first row has none
        model = Path(CONFIG_DIR, "two_type_asymmetric.json").resolve()
        cfg = write_config(tmp_path, "s.json", {"model": str(model), "n_values": [10, 100, 1000]})
        rc, out, _ = run(capsys, "survival", "--config", str(cfg), "--format", "json")
        assert rc == 0
        rows = json.loads(out)["rows"]
        assert [(r["n"], r["path"]) for r in rows] == [
            (n, f"kolmogorov:{x}") for n in (10, 100, 1000) for x in "AB"
        ]
        for x in "AB":
            mine = [r for r in rows if r["path"] == f"kolmogorov:{x}"]
            assert mine[0]["order"] is None
            for prev, row in zip(mine, mine[1:]):
                want = math.log(prev["rel_error"] / row["rel_error"]) / math.log(10)
                assert row["order"] == pytest.approx(want, rel=1e-9)

    def test_one_eigenpair_per_run(self, capsys, monkeypatch):
        calls, eigenpair = [], process.eigenpair
        monkeypatch.setattr(process, "eigenpair", lambda m: calls.append(m) or eigenpair(m))
        rc, _, _ = run(capsys, "survival", "--config", f"{CONFIG_DIR}/survival_binary.json")
        assert rc == 0 and len(calls) == 1


class TestComb:
    def small_config(self, tmp_path):
        return write_config(
            tmp_path,
            "cpp.json",
            {"k": 1, "n_samples": 4000, "eps": 0.5, "n_inner": 4},
        )

    def test_estimate_matches_formula(self, capsys, tmp_path):
        cfg = self.small_config(tmp_path)
        rc, out, _ = run(capsys, "cpp", "--config", str(cfg), "--seed", "0")
        assert rc == 0
        data = json.loads(out)
        assert abs(data["formula"] - 0.5) <= 1e-12
        assert abs(data["z"]) <= 3.0

    @pytest.mark.parametrize("sigma_sq", [1.0, 1.3, 0.7])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_phi_blind_to_the_comb_is_exact(self, capsys, tmp_path, k, sigma_sq):
        # the default phi is one on every comb: the size-biased length makes
        # every sample (sigma^2/2)^k k!, so the estimate is exact, the
        # stderr 0 and z 0, where a 0/0 used to read as infinite
        cfg = write_config(
            tmp_path, "cpp.json", {"k": k, "sigma_sq": sigma_sq, "n_samples": 50, "eps": 0.5, "grid_step": 0.02}
        )
        rc, out, _ = run(capsys, "cpp", "--config", str(cfg), "--seed", "0")
        data = json.loads(out)
        assert rc == 0 and data["stderr"] == 0.0 and data["z"] == 0.0
        assert data["estimate"] == (sigma_sq / 2.0) ** k * math.factorial(k) == data["formula"]

    @pytest.mark.parametrize("name", ["cpp_pair", "cpp_marks_k3"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_estimate_is_the_library_estimate(self, capsys, name, seed):
        # one stream seeded by --seed, through limits.cpp_monomial_mc
        cfg = json.loads(Path(CONFIG_DIR, f"{name}.json").read_text())
        rc, out, _ = run(capsys, "cpp", "--config", f"{CONFIG_DIR}/{name}.json", "--seed", str(seed))
        assert rc == 0
        data = json.loads(out)
        query = limits.LimitQuery(
            k=cfg["k"], phi=build_phi(cfg["phi"], cfg["k"]), sigma_sq=cfg["sigma_sq"],
            mark_probs=cfg.get("marks"),
        )
        estimate, stderr = limits.cpp_monomial_mc(
            query, n_samples=cfg["n_samples"], eps=cfg["eps"], n_inner=cfg["n_inner"], rng=seed
        )
        assert float.hex(data["estimate"]) == float.hex(estimate)
        assert float.hex(data["stderr"]) == float.hex(stderr)
        assert data["z"] == (estimate - data["formula"]) / stderr

    def test_thread_count_does_not_change_bytes(self, capsys, tmp_path):
        cfg = self.small_config(tmp_path)
        _, out1, _ = run(
            capsys, "cpp", "--config", str(cfg), "--seed", "5", "--threads", "1"
        )
        _, out3, _ = run(
            capsys, "cpp", "--config", str(cfg), "--seed", "5", "--threads", "3"
        )
        assert out1 == out3

    @pytest.mark.parametrize(
        "extra, prefix",
        [
            ({"grid_step": 0}, "error:"),
            ({"grid_step": -0.5}, "error:"),
            ({"grid_step": "0.05"}, "config error:"),
            ({"marks": ["A", "B"]}, "config error:"),
            ({"marks": {"A": "0.5", "B": "0.5"}}, "config error:"),
            ({"marks": {"A": 0.5, "B": 0.6}}, "config error:"),
            # just past LimitQuery's tolerance of 2**-26
            ({"marks": {"A": 0.5, "B": 0.5 + 2**-25}}, "config error:"),
            ({"marks": {"A": 1.5, "B": -0.5}}, "config error:"),
            ({"marks": {"A": True}}, "config error:"),
        ],
    )
    def test_bad_grid_step_or_marks_exits_1(self, capsys, tmp_path, extra, prefix):
        cfg = write_config(tmp_path, "cpp.json", {"k": 2, "n_samples": 40, **extra})
        rc, out, err = run(capsys, "cpp", "--config", str(cfg))
        assert rc == 1 and out == ""
        assert err.startswith(prefix) and err.count("\n") == 1
        assert next(iter(extra)) in err

    @pytest.mark.parametrize(
        "extra, key",
        [
            ({"k": 0}, "k"),
            ({"k": -2}, "k"),
            ({"n_samples": 0}, "n_samples"),
            ({"n_samples": 1}, "n_samples"),
            ({"n_inner": 0}, "n_inner"),
        ],
    )
    def test_counts_below_their_least_exit_1(self, capsys, tmp_path, extra, key):
        cfg = write_config(tmp_path, "cpp.json", {"k": 2, "n_samples": 40, **extra})
        rc, out, err = run(capsys, "cpp", "--config", str(cfg))
        assert rc == 1 and out == ""
        assert err.startswith("config error:") and err.count("\n") == 1
        assert repr(key) in err

    def test_pair_indicator_needs_two_points(self, capsys, tmp_path):
        phi = {"name": "pair_indicator", "r": 1.0}
        cfg = write_config(tmp_path, "cpp.json", {"k": 1, "n_samples": 40, "phi": phi})
        rc, out, err = run(capsys, "cpp", "--config", str(cfg))
        assert rc == 1 and out == ""
        assert err == "config error: pair_indicator needs k >= 2\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("r, eps", [(0.4, 0.3), (0.4, 0.2), (1.0, 0.5), (0.0, 1e-3)])
    def test_eps_at_half_the_radius_or_above_exits_1(self, capsys, tmp_path, monkeypatch, fmt, r, eps):
        # the comb has no atoms below depth eps, so the pair indicator
        # needs eps < r/2; at r 0.4, eps 0.3 the estimate read z = 56.8.
        # Refused before any sampling
        def sampled(*args, **kwargs):
            raise AssertionError("sampled")

        monkeypatch.setattr(limits, "cpp_monomial_mc", sampled)
        phi = {"name": "pair_indicator", "r": r}
        cfg = write_config(tmp_path, "cpp.json", {"k": 2, "phi": phi, "eps": eps, "n_samples": 20000})
        rc, out, err = run(capsys, "cpp", "--config", str(cfg), "--seed", "1", "--format", fmt)
        assert rc == 1 and out == ""
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "'eps'" in err and repr(r / 2) in err and repr(eps) in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "key, value, rule",
        [
            ("sigma_sq", -1, "a positive finite number"),
            ("sigma_sq", 0, "a positive finite number"),
            ("sigma_sq", math.nan, "a positive finite number"),
            ("sigma_sq", math.inf, "a positive finite number"),
            ("z_max", math.nan, "a positive number"),
            ("z_max", 0, "a positive number"),
            ("z_max", -3.0, "a positive number"),
        ],
    )
    def test_sigma_sq_and_z_max_out_of_range_exit_1(self, capsys, tmp_path, monkeypatch, fmt, key, value, rule):
        # sigma_sq -1 at k = 3 printed estimate = formula = -0.75 and exited
        # 0; a nan sigma_sq or z_max exited 3, a verification failure.
        # Refused before the formula and before any sampling
        def computed(*args, **kwargs):
            raise AssertionError("computed")

        monkeypatch.setattr(limits, "cpp_moment", computed)
        monkeypatch.setattr(limits, "cpp_monomial_mc", computed)
        cfg = write_config(tmp_path, "cpp.json", {"k": 3, "eps": 0.1, "n_samples": 2000, key: value})
        rc, out, err = run(capsys, "cpp", "--config", str(cfg), "--format", fmt)
        only_config_error(rc, out, err, f"config key {key!r} must be {rule}, got {float(value)!r}")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "body, key, rule",
        [
            ({"sigma_sq": -1}, "sigma_sq", "must be a positive finite number, got -1.0"),
            ({"marks": {"A": 0.5, "B": 0.6}}, "marks", "must be finite, nonnegative and sum to 1"),
        ],
    )
    def test_limit_query_errors_name_their_key(self, capsys, tmp_path, fmt, body, key, rule):
        # LimitQuery holds both rules; every refusal of it used to be
        # reported as config key 'marks'
        cfg = write_config(tmp_path, "cpp.json", {"k": 3, "eps": 0.1, "n_samples": 2000, **body})
        rc, out, err = run(capsys, "cpp", "--config", str(cfg), "--format", fmt)
        only_config_error(rc, out, err, f"config key {key!r} {rule}")
        assert err.count("config key") == 1 and "mark_probs" not in err

    def test_infinite_z_max_never_fails(self, capsys, tmp_path):
        cfg = write_config(tmp_path, "cpp.json", {"k": 1, "n_samples": 40, "eps": 0.5, "z_max": math.inf})
        rc, out, err = run(capsys, "cpp", "--config", str(cfg))
        assert rc == 0 and err == "" and json.loads(out)["k"] == 1

    def test_eps_just_below_half_the_radius_runs(self, capsys, tmp_path):
        phi = {"name": "pair_indicator", "r": 0.4}
        cfg = write_config(tmp_path, "cpp.json", {"k": 2, "phi": phi, "eps": 0.19, "n_samples": 4000})
        rc, out, err = run(capsys, "cpp", "--config", str(cfg), "--seed", "1")
        assert rc == 0 and err == ""
        assert abs(json.loads(out)["z"]) <= 3.0

    def test_two_samples_suffice(self, capsys, tmp_path):
        # the fewest samples that give a stderr
        cfg = write_config(tmp_path, "cpp.json", {"k": 1, "n_samples": 2, "eps": 0.5})
        rc, out, _ = run(capsys, "cpp", "--config", str(cfg))
        assert rc in (0, 3)
        data = json.loads(out)
        assert data["n_samples"] == 2 and data["stderr"] >= 0.0

    @pytest.mark.parametrize("marks", [{"A": 0.3, "B": 0.7 + 5e-10}, {"A": 0.5, "B": 0.50000001}])
    def test_marks_within_tolerance_accepted(self, capsys, tmp_path, marks):
        # the command takes the law LimitQuery takes, within 2**-26
        cfg = write_config(tmp_path, "cpp.json", {"k": 1, "n_samples": 40, "eps": 0.5, "marks": marks})
        rc, out, err = run(capsys, "cpp", "--config", str(cfg))
        assert rc in (0, 3) and json.loads(out)["k"] == 1 and err == ""
        query = limits.LimitQuery(k=1, phi=build_phi({"name": "ones"}, 1), mark_probs=marks)
        assert limits.cpp_moment(query) == 0.5 * sum(marks.values())

    def test_tiny_gate_gives_code_3(self, capsys, tmp_path):
        cfg = write_config(
            tmp_path,
            "cpp_strict.json",
            {
                # a phi that reads the comb: the default one has stderr 0
                "k": 2,
                "phi": {"name": "pair_indicator", "r": 1.0},
                "n_samples": 4000,
                "eps": 0.1,
                "n_inner": 4,
                "z_max": 1e-6,
            },
        )
        rc, out, _ = run(capsys, "cpp", "--config", str(cfg), "--seed", "0")
        assert rc == 3 and json.loads(out)["stderr"] > 0


class TestParser:
    def test_built_once_per_process(self):
        assert cli._parser() is cli._parser()

    def test_each_call_parses_afresh(self, capsys):
        # what one call was given does not carry into the next
        for argv, code in ((["--help"], 0), (["survival", "--help"], 0), (["survival"], 2)):
            seen = []
            for _ in range(2):
                with pytest.raises(SystemExit) as e:
                    main(argv)
                assert e.value.code == code
                seen.append(capsys.readouterr())
            assert seen[0] == seen[1]
        assert "the following arguments are required: --config" in seen[0].err
        config = f"{CONFIG_DIR}/survival_binary.json"
        _, out, _ = run(capsys, "survival", "--config", config, "--format", "json")
        _, out2, _ = run(capsys, "survival", "--config", config)
        assert out.startswith("{") and out2.startswith("# seed=0")

    def test_module_entry_point(self):
        # python -m branchlab runs __main__.py, which nothing else reaches
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "branchlab", "--help"], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout.startswith("usage: branchlab")


class TestGoldenBytes:
    # recorded before the commands shared one run path and one writer
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "command, name, extra",
        [
            ("model-check", "check_binary", ()),
            ("simulate", "simulate_binary", ("--seed", "7")),
            ("moments", "moments_binary", ()),
            ("survival", "survival_binary", ()),
            # recorded when the comb sampler first drew a block of combs at a time
            ("cpp", "cpp_pair", ("--seed", "5")),
            ("cpp", "cpp_marks_k3", ("--seed", "5")),
        ],
    )
    def test_golden_bytes(self, capsys, command, name, extra, fmt):
        rc, out, err = run(
            capsys, command, "--config", f"{CONFIG_DIR}/{name}.json", "--format", fmt, *extra
        )
        assert rc == 0 and err == ""
        want = (GOLDEN_DIR / f"{name}.{fmt}").read_text()
        assert mask_runtime(mask_git(out)) == mask_git(want)


class TestWarningsOnStderr:
    @pytest.mark.parametrize(
        "command, payload",
        [
            ("verify-m2f", {}),
            ("moments", {"x0": "a", "k": 2, "R": 2, "psi": "harmonic"}),
        ],
    )
    def test_every_run_prints_the_warning_line(self, capsys, tmp_path, command, payload):
        model = Path(CONFIG_DIR, "subcritical.json").resolve()
        cfg = write_config(tmp_path, "c.json", {"model": str(model), **payload})
        # twice in one process: a warning filter that shows a message
        # once per process would leave the second run silent
        for fmt in ("csv", "json"):
            rc, out, err = run(capsys, command, "--config", str(cfg), "--format", fmt)
            assert rc == 0 and out
            assert err.splitlines() == ["warning: model is not critical: perron root 0.5"]
