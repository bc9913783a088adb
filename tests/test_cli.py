import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import readers
import affinewalk
from affinewalk import montecarlo
from affinewalk.cli import build_config, build_parser, main
from affinewalk.montecarlo import METHODS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassifyCommand:
    def test_fast_matrix(self, capsys):
        code, out, _ = run(capsys, "classify", "--matrix", "[[2,1],[1,1]]", "--p", "101")
        doc = json.loads(out)
        assert code == 0
        assert doc["classification"] == "all_off_unit_circle"
        assert doc["admissible"]["101"] is True
        assert doc["meta"]["tool"].startswith("affinewalk ")

    def test_rotation(self, capsys):
        code, out, _ = run(capsys, "classify", "--matrix", "[[0,-1],[1,0]]")
        doc = json.loads(out)
        assert code == 0 and doc["classification"] == "root_of_unity" and doc["m"] == 4

    def test_repeated_eigenvalue(self, capsys):
        code, out, _ = run(capsys, "classify", "--matrix", "[[1,1,0],[0,1,1],[0,0,1]]")
        doc = json.loads(out)
        assert code == 0 and doc["classification"] == "root_of_unity" and doc["m"] == 1
        assert doc["eigenvalues"] == [[1.0, 0.0, 3]]

    def test_singular_exit_3(self, capsys):
        code, out, _ = run(capsys, "classify", "--matrix", "[[1,1],[1,1]]")
        assert code == 3
        assert json.loads(out)["classification"] == "singular"

    def test_bad_matrix_exit_2(self, capsys):
        code, _, err = run(capsys, "classify", "--matrix", "[[2,1],[1]]")
        assert code == 2 and "matrix" in err

    # the class is exact and has no tolerance: classify refuses --tol and
    # a config-file "tol" at any value, these and positive ones alike
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
    def test_tol_outside_positive_reals_exit_2(self, tol, capsys):
        code = exit_code(["classify", "--matrix", "[[2,1],[1,1]]", f"--tol={tol}"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert f"unrecognized arguments: --tol={tol}" in err

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.7])
    def test_tol_outside_positive_reals_in_config_exit_2(self, tol, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"matrix": [[2, 1], [1, 1]], "tol": tol}))  # NaN, Infinity
        code, out, err = run(capsys, "classify", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "config key 'tol' names no option" in err

    @pytest.mark.parametrize("matrix, cls", [
        ("[[2,1],[1,1]]", "all_off_unit_circle"),
        ("[[1,1],[1,0]]", "all_off_unit_circle"),
        ("[[0,0,0,-1],[1,0,0,1],[0,1,0,1],[0,0,1,1]]", "unit_modulus_non_cyclotomic"),
    ])
    def test_exact_class(self, matrix, cls, capsys):
        # the cat map's polynomial is its own reversal and x^2 - x - 1's
        # is not; only the Salem quartic has roots on the circle
        code, out, _ = run(capsys, "classify", "--matrix", matrix)
        doc = json.loads(out)
        assert code == 0 and doc["classification"] == cls and "tolerance" not in doc

    def test_missing_matrix_exit_2(self, capsys):
        code, _, err = run(capsys, "classify")
        assert code == 2


# Every command at small p, classify last, in one fresh interpreter: no
# command imports mpmath, which only the tests' root oracle uses.
NO_MPMATH = """
import sys
from affinewalk import cli

FAST, SLOW = "[[2,1],[1,1]]", "[[1,1],[0,2]]"
runs = [
    ["mixtime", "--matrix", FAST, "--p", "31", "--epsilon", "0.25", "--method", "exact"],
    ["mixtime", "--matrix", FAST, "--p", "31", "--epsilon", "0.25", "--method", "ub"],
    ["mixtime", "--matrix", SLOW, "--p", "31", "--epsilon", "0.25", "--method", "projected"],
    ["bounds", "--matrix", FAST, "--p", "31", "--n-max", "8", "--exact"],
    ["sweep", "--matrix", FAST, "--matrix", SLOW, "--p", "11", "--p", "31",
     "--epsilon", "0.25", "--method", "auto"],
    ["project", "--matrix", SLOW, "--p", "31", "--blocks", "20"],
    ["simulate", "--matrix", FAST, "--p", "31", "--n", "10", "--samples", "200"],
    ["orbit", "--matrix", FAST, "--p", "31", "--c", "[1,0]"],
]
for argv in runs:
    assert cli.main(argv + ["-o", "out.txt"]) == 0, argv
    assert "mpmath" not in sys.modules, argv[0]
assert cli.main(["classify", "--matrix", FAST, "--p", "101"]) == 0
assert "mpmath" not in sys.modules
"""


def run_python(cwd, *args):
    """Run a fresh interpreter on this checkout's package."""
    src = str(Path(affinewalk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_no_command_imports_mpmath(tmp_path, capsys):
    result = run_python(tmp_path, "-c", NO_MPMATH)
    assert result.returncode == 0, result.stderr
    # the same JSON as classify prints in this process, where the
    # tests' oracle has loaded mpmath
    code, out, _ = run(capsys, "classify", "--matrix", "[[2,1],[1,1]]", "--p", "101")
    assert code == 0 and result.stdout == out


class TestBoundsCommand:
    def test_golden_sandwich_csv(self, capsys, tmp_path):
        out_file = tmp_path / "bounds.csv"
        code, _, _ = run(
            capsys, "bounds", "--matrix", "[[2,1],[1,1]]", "--p", "5",
            "--n-max", "15", "-o", str(out_file),
        )
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("# affinewalk ")
        series = readers.bound_series(text)
        assert series.n == list(range(16))
        for i in range(16):
            assert series.lb[i] - 1e-12 <= series.tv_exact[i] <= series.ub[i] + 1e-12

    def test_empty_range_exit_2(self, capsys):
        code, out, err = run(
            capsys, "bounds", "--matrix", "[[2,1],[1,1]]", "--p", "5",
            "--n-min", "5", "--n-max", "2",
        )
        assert code == 2 and out == ""
        assert "config error: empty range" in err

    def test_composite_admissible_p(self, capsys):
        # det = 1, so p = 9 is fine for the ub/exact paths
        code, out, _ = run(
            capsys, "bounds", "--matrix", "[[2,1],[1,1]]", "--p", "9", "--n-max", "3"
        )
        assert code == 0
        series = readers.bound_series(out)
        assert len(series.n) == 4 and series.tv_exact is not None

    def test_partial_output_when_exact_impossible(self, capsys):
        code, out, err = run(
            capsys, "bounds", "--matrix", "[[2,1],[1,1]]", "--p", "11",
            "--n-max", "2", "--exact", "--state-cap", "50",
        )
        assert code == 4
        assert "tv_exact" not in out.splitlines()[1]
        assert "cap" in err

    def test_inadmissible_exit_3(self, capsys):
        code, _, err = run(
            capsys, "bounds", "--matrix", "[[2,0],[0,2]]", "--p", "6", "--n-max", "2"
        )
        assert code == 3 and "admissible" in err


class TestMixtimeCommand:
    def test_exact_golden(self, capsys):
        code, out, _ = run(
            capsys, "mixtime", "--matrix", "[[2,1],[1,1]]", "--p", "5",
            "--epsilon", "0.25", "--method", "exact",
        )
        assert code == 0 and json.loads(out)["n_mix"] == 3

    # TV equals eps exactly at the answer (the first three), and TV_0 = 8/9
    # lies above the float 8/9 (the last)
    @pytest.mark.parametrize("matrix, p, eps, n_mix", [
        ("[[-3]]", "20", "0.125", 7),
        ("[[1]]", "20", "0.75", 4),
        ("[[1,1],[0,1]]", "10", "0.75", 4),
        ("[[2]]", "9", "0.8888888888888888", 1),
    ], ids=["neg3-p20", "one-p20", "unipotent-p10", "two-p9"])
    def test_exact_ties(self, matrix, p, eps, n_mix, capsys):
        code, out, _ = run(
            capsys, "mixtime", "--matrix", matrix, "--p", p, "--epsilon", eps, "--method", "exact",
        )
        assert code == 0 and json.loads(out)["n_mix"] == n_mix

    # eps just below 1 - 1/p, the TV after zero blocks, which the float TV
    # of the point mass rounds to eps or below: one block of four steps
    @pytest.mark.parametrize("p, eps", [("7", "0.857142857142857"), ("3", "0.6666666666666666")])
    def test_projected_zero_block_ties(self, p, eps, capsys):
        code, out, _ = run(
            capsys, "mixtime", "--matrix", "[[0,-1],[1,0]]", "--p", p, "--epsilon", eps,
            "--method", "projected",
        )
        assert code == 0 and json.loads(out)["n_mix"] == 4

    def test_epsilon_ge_one_gives_zero(self, capsys):
        """TV never exceeds 1, so epsilon 1 would give n_mix 0 without a
        search; it is refused like every epsilon outside (0, 1)."""
        code, out, err = run(
            capsys, "mixtime", "--matrix", "[[2,1],[1,1]]", "--p", "5",
            "--epsilon", "1.0",
        )
        assert code == 2 and out == ""
        assert "config error: eps must lie in (0, 1)" in err

    @pytest.mark.parametrize("method", METHODS)
    def test_epsilon_one_exit_2_for_every_method(self, method, capsys):
        # [[2,1],[1,1]] has no root of unity, yet the epsilon is refused first
        code, out, err = run(
            capsys, "mixtime", "--matrix", "[[2,1],[1,1]]", "--p", "5",
            "--epsilon", "1.0", "--method", method,
        )
        assert code == 2 and out == ""
        assert "eps must lie in (0, 1)" in err

    # 0.99 lies above TV(P_0, U) = 1 - 1/4^2, where the search answers 0
    @pytest.mark.parametrize("eps", ["0.5", "0.99"])
    def test_inadmissible_exit_3_at_every_epsilon(self, eps, capsys):
        code, out, err = run(
            capsys, "mixtime", "--matrix", "[[2,0],[0,2]]", "--p", "4", "--epsilon", eps,
        )
        assert code == 3 and out == ""
        assert "not admissible" in err

    def test_cap_exit_4(self, capsys):
        code, _, err = run(
            capsys, "mixtime", "--matrix", "[[1,1],[0,2]]", "--p", "101",
            "--epsilon", "0.01", "--method", "exact", "--n-cap", "5",
        )
        assert code == 4 and "not mixed" in err

    def test_cap_inside_the_skipped_steps_reports_tv_at_the_cap(self, capsys):
        # the exact search reads no TV at n < 5 (the support count decides
        # them), and the value at the cap is the TV of P_5
        code, out, err = run(
            capsys, "mixtime", "--matrix", "[[2,1],[1,1]]", "--p", "997",
            "--epsilon", "0.25", "--n-cap", "5",
        )
        assert (code, out) == (4, "")
        assert err == "budget exceeded: not mixed by n_max=5 (method=exact, value=0.999855)\n"

    @pytest.mark.parametrize("method", METHODS)
    def test_n_mix_equals_sweep_cell(self, method, capsys):
        args = ("--matrix", "[[1,1],[0,2]]", "--p", "11", "--epsilon", "0.25",
                "--method", method)
        code, out, _ = run(capsys, "mixtime", *args)
        assert code == 0
        code, csv, _ = run(capsys, "sweep", *args)
        assert code == 0
        assert readers.sweep_rows(csv) == [
            ("[[1,1],[0,2]]", 11, json.loads(out)["n_mix"], method)
        ]


class TestOrbitCommand:
    def test_golden_first_large(self, capsys):
        code, out, _ = run(
            capsys, "orbit", "--matrix", "[[2,1],[1,1]]", "--p", "101",
            "--c", "[1,0]", "--c1", "0.125",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["first_large_ell"] == 3
        assert doc["orbit"][:4] == [[1, 0], [2, 1], [5, 3], [13, 8]]

    def test_missing_c_exit_2(self, capsys):
        code, _, err = run(capsys, "orbit", "--matrix", "[[2,1],[1,1]]", "--p", "101")
        assert code == 2

    def test_negative_ell_max_exit_2(self, capsys):
        code, out, err = run(
            capsys, "orbit", "--matrix", "[[2,1],[1,1]]", "--p", "101",
            "--c", "[1,0]", "--ell-max", "-3",
        )
        assert code == 2 and out == ""
        assert "ell_max must be >= 0" in err


    def test_character_of_another_dimension_exit_2(self, capsys):
        code, out, err = run(
            capsys, "orbit", "--matrix", "[[2,1],[1,1]]", "--p", "11", "--c", "[1]"
        )
        assert code == 2 and out == ""
        assert "config error: character does not match config" in err


class TestProjectCommand:
    def test_eigendirection_json(self, capsys):
        code, out, _ = run(capsys, "project", "--matrix", "[[1,1],[0,2]]", "--p", "101")
        doc = json.loads(out)
        assert code == 0
        assert doc["v"] == [1, 100] and doc["m"] == 1 and doc["u"] == 3

    def test_with_blocks_tv(self, capsys):
        code, out, _ = run(
            capsys, "project", "--matrix", "[[1,1],[0,2]]", "--p", "101",
            "--blocks", "101",
        )
        doc = json.loads(out)
        assert code == 0 and doc["projected_tv"] >= 0.5

    def test_no_root_of_unity_exit_3(self, capsys):
        code, _, err = run(capsys, "project", "--matrix", "[[2,1],[1,1]]", "--p", "101")
        assert code == 3

    def test_composite_p_exit_3(self, capsys):
        code, _, err = run(capsys, "project", "--matrix", "[[1,1],[0,2]]", "--p", "9")
        assert code == 3

    def test_missing_root_is_reported_before_composite_p(self, capsys):
        code, _, err = run(capsys, "project", "--matrix", "[[2,1],[1,1]]", "--p", "9")
        assert code == 3 and "no root-of-unity eigenvalue" in err


class TestSimulateCommand:
    def test_reproducible_dump(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            code, _, _ = run(
                capsys, "simulate", "--matrix", "[[2,1],[1,1]]", "--p", "5",
                "--n", "10", "--samples", "100", "--seed", "7",
                "--dump-states", "-o", str(f),
            )
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("argv,code,message", [
        (["--p", "3163", "--samples", "2000"], 4, "exceeds the counting budget"),
        (["--p", "5", "--samples", "0"], 2, "empty batch"),
    ], ids=["counting-budget", "no-samples"])
    def test_tv_refusals_come_before_simulating(self, monkeypatch, capsys, argv, code, message):
        def boom(*args):
            raise AssertionError("simulated a batch empirical_tv refuses")

        monkeypatch.setattr(montecarlo, "simulate", boom)
        got, out, err = run(capsys, "simulate", "--matrix", "[[2,1],[1,1]]", "--n", "3", *argv)
        assert got == code and out == "" and message in err

    def test_default_seed_documented_constant(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--matrix", "[[2,1],[1,1]]", "--p", "5",
            "--n", "0", "--samples", "10",
        )
        doc = json.loads(out)
        assert code == 0 and doc["seed"] == 12345
        assert doc["empirical_tv"] == pytest.approx(1 - 1 / 25)


class TestSweepCommand:
    def test_csv_and_fit_json(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        fit_path = tmp_path / "fits.json"
        code, _, _ = run(
            capsys, "sweep", "--matrix", "[[2,1],[1,1]]", "--p", "5", "--p", "11",
            "--epsilon", "0.25", "--method", "ub",
            "-o", str(csv_path), "--fit-json", str(fit_path),
        )
        assert code == 0
        rows = readers.sweep_rows(csv_path.read_text())
        assert [(p, m) for _, p, _, m in [(r[0], r[1], r[2], r[3]) for r in rows]] == [
            (5, "ub"), (11, "ub"),
        ]
        fits = json.loads(fit_path.read_text())
        assert fits["fits"][0]["fit_kind"] == "logp_squared_constant"

    def test_fit_json_without_a_fit_is_strict_json(self, capsys, tmp_path):
        # every n_mix is 0, so no cell can be fitted: the fit stays null
        fit_path = tmp_path / "fits.json"
        code, _, _ = run(
            capsys, "sweep", "--matrix", "[[2,1],[1,1]]", "--p", "2", "--p", "3",
            "--epsilon", "0.9", "--method", "ub", "--fit-json", str(fit_path),
        )
        assert code == 0

        def refuse(token):
            raise ValueError(f"non-JSON token {token}")

        fit = json.loads(fit_path.read_text(), parse_constant=refuse)["fits"][0]
        assert fit["cells"] == [[2, 0], [3, 0]]
        assert (fit["fit_kind"], fit["fit_value"], fit["residuals"]) == (None, None, [])

    def test_repeated_modulus_fixes_no_power_law(self, capsys, tmp_path):
        # two cells at one p: no line passes through a single log p, so
        # the fit stays null and numpy is never asked (no RankWarning)
        fit_path = tmp_path / "fits.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(
                capsys, "sweep", "--matrix", "[[0,-1],[1,0]]", "--p", "101", "--p", "101",
                "--epsilon", "0.25", "--fit-json", str(fit_path),
            )
        assert code == 0 and err == ""
        fit = json.loads(fit_path.read_text())["fits"][0]
        assert fit["cells"] == [[101, 2180], [101, 2180]]
        assert (fit["fit_kind"], fit["fit_value"], fit["residuals"]) == (None, None, [])

    def test_byte_identical_reruns(self, capsys, tmp_path):
        paths = [tmp_path / "s1.csv", tmp_path / "s2.csv"]
        for path in paths:
            code, _, _ = run(
                capsys, "sweep", "--matrix", "[[1,1],[0,2]]", "--p", "5", "--p", "11",
                "--epsilon", "0.3", "--method", "projected", "-o", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_missing_p_exit_2(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--matrix", "[[2,1],[1,1]]", "--epsilon", "0.25",
        )
        assert code == 2 and out == ""
        assert "config error: a modulus p is required" in err


class TestConfigFile:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "matrix": [[2, 1], [1, 1]],
            "p": 5,
            "epsilon": 0.25,
            "method": "ub",
        }))
        code, out, _ = run(capsys, "mixtime", "--config", str(cfg))
        assert code == 0 and json.loads(out)["n_mix"] == 4  # ub method
        # the flag overrides the file's method
        code, out, _ = run(capsys, "mixtime", "--config", str(cfg), "--method", "exact")
        assert code == 0 and json.loads(out)["n_mix"] == 3

    def test_unreadable_config_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "mixtime", "--config", str(tmp_path / "nope.json"))
        assert code == 2

    @pytest.mark.parametrize("key,value", [
        ("epsilon", "0.25"),
        ("epsilon", True),
        ("n_cap", 1.5),
        ("n_cap", True),
        ("n_max", "10"),
        ("p", 101.9),
        ("p", [101, True]),
        ("p", "11,13"),
    ])
    def test_wrong_type_exit_2_names_the_key(self, key, value, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(
            {"matrix": [[2, 1], [1, 1]], "p": 101, "epsilon": 0.25, key: value}
        ))
        code, out, err = run(capsys, "mixtime", "--config", str(cfg))
        assert code == 2 and out == ""
        assert f"config error: config key '{key}'" in err

    def test_unknown_key_exit_2_names_the_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "matrix": [[2, 1], [1, 1]], "p": 101, "epsilon": 0.25, "method": "ub",
            "n_cpa": 3,
        }))
        code, out, err = run(capsys, "mixtime", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "config error: config key 'n_cpa' names no option" in err

    def test_key_of_another_subcommand_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "matrix": [[2, 1], [1, 1]], "p": 5, "epsilon": 0.25, "blocks": 8,
        }))
        code, out, _ = run(capsys, "mixtime", "--config", str(cfg))
        assert code == 0 and json.loads(out)["n_mix"] == 3

    def test_int_accepted_for_float(self, capsys, tmp_path):
        # an int epsilon passes the type check and meets the range rule
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"matrix": [[2, 1], [1, 1]], "p": 5, "epsilon": 1}))
        code, out, err = run(capsys, "mixtime", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "config error: eps must lie in (0, 1)" in err


    def test_output_bytes_pin_meta_key_order(self, capsys, tmp_path, monkeypatch):
        # file keys keep the file's order; flags follow in the order the
        # subcommand declares them (char_cap before n_cap), not as typed
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.json").write_text(
            '{"p": 101, "method": "ub", "matrix": "[[2,1],[1,1]]", "epsilon": 0.25}'
        )
        code, out, err = run(
            capsys, "mixtime", "--config", "run.json", "--n-cap", "50", "--char-cap", "100000"
        )
        assert code == 0 and err == ""
        assert out == (
            '{\n  "n_mix": 11,\n  "epsilon": 0.25,\n  "method": "ub",\n  "meta": {\n'
            f'    "tool": "affinewalk {affinewalk.__version__}",\n    "config": {{\n'
            '      "p": [\n        101\n      ],\n      "method": "ub",\n'
            '      "matrix": [\n        [\n          [\n            2,\n            1\n'
            '          ],\n          [\n            1,\n            1\n          ]\n'
            '        ]\n      ],\n      "epsilon": 0.25,\n      "char_cap": 100000,\n'
            '      "n_cap": 50\n    }\n  }\n}\n'
        )


class TestIntegerEntries:
    """A matrix or character entry that is not a JSON integer is refused
    (exit 2), never truncated into another walk's answer."""

    @pytest.mark.parametrize("argv, bad", [
        (["mixtime", "--matrix", "[[2.9,1],[1,1.5]]", "--epsilon", "0.25", "--method", "ub"],
         "2.9"),
        (["mixtime", "--matrix", "[[true,1],[1,false]]", "--epsilon", "0.25"], "True"),
        (["mixtime", "--matrix", '["21","11"]', "--epsilon", "0.25"], "'2'"),
        (["orbit", "--matrix", "[[2,1],[1,1]]", "--c", "[1, true]"], "True"),
    ])
    def test_exit_2(self, argv, bad, capsys):
        code, out, err = run(capsys, *argv, "--p", "101")
        assert code == 2 and out == ""
        assert f"entry {bad} is not an integer" in err

    def test_config_file_matrix(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"matrix": [[True, 1], [1, False]], "p": 101, "epsilon": 0.25}))
        code, out, err = run(capsys, "mixtime", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "entry True is not an integer" in err

    def test_config_file_float_matrix_names_the_entry(self, capsys, tmp_path):
        # one matrix or a list is decided by nesting depth, not by the type
        # of the first entry, so the float entry itself is named
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"matrix": [[2.9, 1], [1, 1]], "p": 101, "epsilon": 0.25}))
        code, out, err = run(capsys, "mixtime", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "config error: bad matrix: entry 2.9 is not an integer\n"

    @pytest.mark.parametrize("raw, tags", [
        ([[2, 1], [1, 1]], ["[[2,1],[1,1]]"]),
        ([[5]], ["[[5]]"]),
        ([[[2, 1], [1, 1]], "[[0,-1],[1,0]]"], ["[[2,1],[1,1]]", "[[0,-1],[1,0]]"]),
        ([[[5]], [[3]]], ["[[5]]", "[[3]]"]),
    ], ids=["one", "one-1x1", "list", "list-1x1"])
    def test_config_file_one_matrix_or_a_list(self, raw, tags, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"matrix": raw, "p": 11}))
        args = build_parser().parse_args(["sweep", "--config", str(cfg)])
        assert [T.tag() for T in build_config(args).matrices] == tags


class TestOneWalkPerCommand:
    """Only sweep reads several matrices, and only sweep and classify
    several moduli; any other command refuses a second one rather than
    answer for the first."""

    FIB = ["--matrix", "[[2,1],[1,1]]"]

    @pytest.mark.parametrize("argv", [
        ["bounds", "--n-max", "3"],
        ["mixtime", "--epsilon", "0.25", "--method", "ub"],
        ["orbit", "--c", "[1,0]"],
        ["project"],
        ["simulate", "--n", "3", "--samples", "5"],
    ], ids=lambda argv: argv[0])
    def test_second_p_exit_2(self, argv, capsys):
        code, out, err = run(capsys, argv[0], *self.FIB, "--p", "11", "--p", "13", *argv[1:])
        assert code == 2 and out == ""
        assert "config error: one modulus p is allowed here, got 2" in err

    def test_list_of_p_in_config_file_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "matrix": [[2, 1], [1, 1]], "p": [11, 13], "epsilon": 0.25, "method": "ub",
        }))
        code, out, err = run(capsys, "mixtime", "--config", str(cfg))
        assert code == 2 and out == ""
        assert "config error: one modulus p is allowed here, got 2" in err

    def test_classify_second_matrix_exit_2(self, capsys):
        code, out, err = run(capsys, "classify", *self.FIB, "--matrix", "[[0,-1],[1,0]]")
        assert code == 2 and out == ""
        assert "config error: one matrix is allowed here, got 2" in err

    def test_classify_reads_every_p(self, capsys):
        code, out, _ = run(capsys, "classify", *self.FIB, "--p", "11", "--p", "13")
        assert code == 0
        assert json.loads(out)["admissible"] == {"11": True, "13": True}


class TestMultiMatrixSweep:
    def test_two_matrices_via_flags(self, capsys, tmp_path):
        path = tmp_path / "multi.csv"
        code, _, _ = run(
            capsys, "sweep", "--matrix", "[[2,1],[1,1]]", "--matrix", "[[1,1],[0,2]]",
            "--p", "5", "--p", "11", "--epsilon", "0.25", "-o", str(path),
        )
        assert code == 0
        rows = readers.sweep_rows(path.read_text())
        tags = {tag for tag, _, _, _ in rows}
        assert tags == {"[[2,1],[1,1]]", "[[1,1],[0,2]]"}
        methods = {m for tag, _, _, m in rows}
        assert methods == {"ub", "projected"}


class TestRoundTrip:
    def test_classify_json_reparses_into_report(self, capsys):
        from affinewalk.modmath import IntMatrix
        from affinewalk.spectral import classify

        code, out, _ = run(capsys, "classify", "--matrix", "[[0,-1],[1,0]]", "--p", "5")
        assert code == 0
        back = readers.spectrum_report(readers.json_fields(out))
        assert back == classify(IntMatrix([[0, -1], [1, 0]]))

    def test_orbit_json_reparses(self, capsys):
        from affinewalk.exactdist import WalkConfig
        from affinewalk.fourier import orbit_analysis
        from affinewalk.modmath import IntMatrix, ModVector

        code, out, _ = run(
            capsys, "orbit", "--matrix", "[[2,1],[1,1]]", "--p", "101", "--c", "[1,0]"
        )
        assert code == 0
        back = readers.orbit_record(readers.json_fields(out))
        direct = orbit_analysis(
            ModVector(101, [1, 0]), WalkConfig(IntMatrix([[2, 1], [1, 1]]), 101)
        )
        assert back == direct

    def test_project_json_reparses(self, capsys):
        from affinewalk.modmath import IntMatrix
        from affinewalk.montecarlo import projection_functional

        code, out, _ = run(
            capsys, "project", "--matrix", "[[1,1],[0,2]]", "--p", "101", "--blocks", "5"
        )
        assert code == 0
        back = readers.projection_report(readers.json_fields(out))
        assert back == projection_functional(IntMatrix([[1, 1], [0, 2]]), 101)


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestRemovedOptions:
    """--threads was ignored, --m had one legal value, sweep's --seed
    was read by nothing, classify's class is exact so --tol is gone, and
    --state-cap / --char-cap are read only by bounds, mixtime and sweep;
    all are gone elsewhere."""

    ROT = ["--matrix", "[[0,-1],[1,0]]", "--p", "101"]

    @pytest.mark.parametrize("argv", [
        ["bounds", "--matrix", "[[2,1],[1,1]]", "--p", "101", "--n-max", "3", "--threads", "4"],
        ["mixtime", *ROT, "--epsilon", "0.25", "--method", "projected", "--threads", "4"],
        ["mixtime", *ROT, "--epsilon", "0.25", "--method", "projected", "--m", "4"],
        # prefix matching is off, so --m is not read as --matrix here
        ["project", *ROT, "--m", "4"],
        ["sweep", *ROT, "--epsilon", "0.25", "--seed", "7"],
        ["classify", *ROT, "--state-cap", "100"],
        ["classify", *ROT, "--tol", "0.7"],
        ["orbit", *ROT, "--c", "[1,0]", "--char-cap", "100"],
        ["project", *ROT, "--state-cap", "100"],
        ["simulate", *ROT, "--n", "3", "--samples", "5", "--char-cap", "100"],
    ])
    def test_exit_2(self, argv, capsys):
        assert exit_code(argv) == 2


COMMON = {"-h", "--help", "--config", "--matrix", "--p", "-o", "--output"}


@pytest.mark.parametrize("command, own", [
    ("classify", set()),
    ("bounds", {"--state-cap", "--char-cap", "--n-min", "--n-max", "--exact", "--no-exact"}),
    ("mixtime", {"--state-cap", "--char-cap", "--epsilon", "--method", "--n-cap"}),
    ("orbit", {"--c", "--c1", "--ell-max"}),
    ("project", {"--blocks"}),
    ("simulate", {"--n", "--samples", "--seed", "--dump-states"}),
    ("sweep", {"--state-cap", "--char-cap", "--epsilon", "--method", "--n-cap", "--fit-json"}),
])
def test_each_subcommand_has_exactly_its_flags(command, own):
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == {"classify", "bounds", "mixtime", "orbit", "project",
                                "simulate", "sweep"}
    flags = {s for action in sub.choices[command]._actions for s in action.option_strings}
    assert flags == COMMON | own


def test_flag_prefixes_are_refused(capsys):
    argv = ["mixtime", "--matrix", "[[2,1],[1,1]]", "--p", "101", "--epsilon", "0.01",
            "--meth", "ub", "--n", "5"]
    assert exit_code(argv) == 2
    assert "unrecognized arguments: --meth ub --n 5" in capsys.readouterr().err


def test_one_parser_serves_every_call(tmp_path):
    # main builds its parser once per process: two subcommands run here
    # write the bytes each writes in an interpreter of its own
    runs = [
        ["mixtime", "--matrix", "[[0,-1],[1,0]]", "--p", "101", "--epsilon", "0.25",
         "--method", "projected"],
        ["classify", "--matrix", "[[2,1],[1,1]]", "--p", "101"],
    ]
    build_parser.cache_clear()
    for i, argv in enumerate(runs):
        assert main([*argv, "-o", f"{tmp_path}/here{i}.json"]) == 0
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for i, argv in enumerate(runs):
        child = f"{tmp_path}/apart{i}.json"
        result = run_python(tmp_path, "-c", "import sys; from affinewalk import cli; "
                            "sys.exit(cli.main(sys.argv[1:]))", *argv, "-o", child)
        assert result.returncode == 0, result.stderr
        assert Path(child).read_bytes() == Path(f"{tmp_path}/here{i}.json").read_bytes()
