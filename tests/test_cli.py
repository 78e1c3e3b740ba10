"""Command-line interface: output formats, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyagibbs
from polyagibbs.cli import main
from polyagibbs.stats import _usable_cpus

FOREST_DSL = "T := ATOM * SET(T); F := COMPOSE(SET, T);"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCoeffs:
    def test_json_table(self, capsys):
        code, out = run(
            capsys, "coeffs", "--spec", FOREST_DSL, "--trunc", "12"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["n", "inner", "composite", "derived_composite"]
        by_n = {r[0]: r for r in doc["rows"]}
        # rooted trees and forests; for a SET outer the derived composite
        # series is the composite series itself
        assert by_n[5][1] == "9"
        assert by_n[5][2] == "20"
        assert by_n[5][3] == by_n[5][2]
        assert "config_digest" in doc["header"]

    def test_csv_format(self, capsys, tmp_path):
        f = tmp_path / "model.dsl"
        f.write_text(FOREST_DSL)
        code, out = run(
            capsys, "coeffs", "--spec", str(f), "--trunc", "6", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert any(line.startswith("#") for line in lines)
        data = [l for l in lines if not l.startswith("#")]
        assert data[0].split(",")[0] == "n"
        assert data[1 + 5].split(",")[1] == "9"

    def test_name_whose_body_derives_itself(self, capsys):
        # T_n = (n - 1)!; each size counts one more derivative of T
        text = "T := ATOM + ATOM * ATOM * DERIVE(T); F := COMPOSE(SET, T);"
        code, out = run(capsys, "coeffs", "--spec", text, "--trunc", "10")
        assert code == 0
        rows = json.loads(out)["rows"]
        inner = [0] + [math.factorial(n - 1) for n in range(1, 11)]
        assert [r[1] for r in rows] == [str(a) for a in inner]
        # multisets of T: n b_n = sum_k c_k b_{n-k}, c_k = sum_{d | k} d a_d
        b = [1]
        for n in range(1, 11):
            c = [sum(d * inner[d] for d in range(1, k + 1) if k % d == 0) for k in range(n + 1)]
            b.append(sum(c[k] * b[n - k] for k in range(1, n + 1)) // n)
        assert [r[2] for r in rows] == [str(x) for x in b]


class TestSample:
    def test_transcript_shape(self, capsys):
        code, out = run(
            capsys,
            "sample", "--spec", FOREST_DSL, "--trunc", "60",
            "--sizes", "6", "--samples", "25", "--seed", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = json.loads(lines[0])
        assert header["seed"] == 3
        records = [json.loads(l) for l in lines[1:]]
        assert len(records) == 25
        for r in records:
            assert r["n"] == 6
            assert r["largest"] + r["remainder_size"] == 6
            assert r["components"] >= 1

    def test_bytewise_determinism_across_workers(self, capsys):
        argv = [
            "sample", "--spec", FOREST_DSL, "--trunc", "60",
            "--sizes", "7", "--samples", "50", "--seed", "9",
        ]
        outs = []
        for workers in ("1", "4", "1"):
            code, out = run(capsys, *argv, "--workers", workers)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]

    def test_digest_ignores_worker_count(self, capsys):
        argv = [
            "sample", "--spec", FOREST_DSL, "--trunc", "60",
            "--sizes", "5", "--samples", "5", "--seed", "1",
        ]
        digests = []
        for workers in ("1", "3"):
            _, out = run(capsys, *argv, "--workers", workers)
            digests.append(json.loads(out.splitlines()[0])["config_digest"])
        assert digests[0] == digests[1]

    def test_csv_format_is_rejected(self, capsys):
        # the transcript is JSON lines only, so csv is not a choice
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--spec", FOREST_DSL, "--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    @pytest.mark.skipif(_usable_cpus() < 2, reason="needs two usable CPUs")
    def test_all_sizes_share_one_pool(self, capsys, monkeypatch):
        import concurrent.futures

        pools = []

        class Counting(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
        code, out = run(
            capsys,
            "sample", "--spec", FOREST_DSL, "--trunc", "60", "--sizes", "8", "15", "20",
            "--samples", "4000", "--seed", "4", "--workers", "2",
        )
        assert code == 0
        assert len(pools) == 1
        sizes = [json.loads(l)["n"] for l in out.splitlines()[1:]]
        assert sizes == [8] * 4000 + [15] * 4000 + [20] * 4000


class TestLimit:
    def test_law_rows(self, capsys):
        code, out = run(
            capsys, "limit", "--spec", FOREST_DSL, "--trunc", "100", "--cap", "6"
        )
        assert code == 0
        doc = json.loads(out)
        rows = doc["rows"]
        tail = next(r for r in rows if r[0] == "<tail>")
        total = next(r for r in rows if r[0] == "<total>")
        assert total[2] == pytest.approx(1.0, abs=1e-9)
        probs = [r[2] for r in rows if r[0] not in ("<tail>", "<total>")]
        assert probs == sorted(probs, reverse=True)
        assert math.fsum(probs) + tail[2] == pytest.approx(1.0, abs=1e-9)
        assert doc["header"]["rho"] == pytest.approx(0.3383219, abs=2e-3)


class TestTv:
    def test_remainder_experiment(self, capsys):
        code, out = run(
            capsys,
            "tv", "--spec", FOREST_DSL, "--trunc", "100",
            "--sizes", "8", "12", "--samples", "400", "--cap", "5",
            "--seed", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert [r[0] for r in doc["rows"]] == [8, 12]
        for r in doc["rows"]:
            assert 0 <= r[1] <= 1

    def test_components_experiment(self, capsys):
        code, out = run(
            capsys,
            "tv", "--spec", FOREST_DSL, "--trunc", "100",
            "--sizes", "10", "--samples", "400", "--cap", "8",
            "--seed", "2", "--experiment", "components",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"]

    def test_bytes_ignore_hash_seed(self):
        # the TV sums run over sets of keys, whose order follows the
        # process's string hash seed
        argv = [
            sys.executable, "-m", "polyagibbs.cli",
            "tv", "--spec", FOREST_DSL, "--sizes", "10", "--samples", "300",
            "--cap", "8", "--seed", "3", "--trunc", "60",
        ]
        src = str(Path(polyagibbs.__file__).resolve().parents[1])
        outs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run(argv, env=env, capture_output=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]


    def test_rejection_bytes_ignore_workers_and_hash_seed(self):
        argv = [
            sys.executable, "-m", "polyagibbs.cli",
            "tv", "--spec", FOREST_DSL, "--sizes", "8", "10", "--samples", "2100",
            "--cap", "7", "--seed", "15", "--trunc", "60", "--method", "rejection",
        ]
        src = str(Path(polyagibbs.__file__).resolve().parents[1])
        outs = []
        for hash_seed, workers in (("1", "1"), ("7", "1"), ("7", "2")):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run(
                argv + ["--workers", workers], env=env, capture_output=True, timeout=300
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] == outs[2]


class TestDiagnose:
    def test_report_parses(self, capsys):
        code, out = run(
            capsys, "diagnose", "--spec", FOREST_DSL, "--trunc", "120"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc


class TestErrors:
    def test_malformed_spec_exits_2(self, capsys):
        code, _ = run(capsys, "coeffs", "--spec", "T := ATOM *;", "--trunc", "5")
        assert code == 2

    @pytest.mark.parametrize("case", ["directory", "not-utf-8", "negative-trunc"])
    def test_unreadable_input_exits_2(self, capsys, tmp_path, case):
        latin = tmp_path / "latin.spec"
        latin.write_bytes(b"\xff\xfe" + FOREST_DSL.encode())
        argv = {
            "directory": ["--spec", str(tmp_path)],
            "not-utf-8": ["--spec", str(latin)],
            "negative-trunc": ["--spec", FOREST_DSL, "--trunc", "-1"],
        }[case]
        try:
            code = main(["coeffs", *argv])
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_negative_size_exits_3(self, capsys):
        code = main([
            "sample", "--spec", FOREST_DSL, "--trunc", "30", "--sizes", "-2", "--samples", "3",
        ])
        assert code == 3
        assert "no composite objects of size -2" in capsys.readouterr().err

    def test_non_composite_root_exits_3(self, capsys):
        code, _ = run(capsys, "coeffs", "--spec", "T := ATOM * SET(T);", "--trunc", "5")
        assert code == 3

    def test_unconverged_tail_sum_exits_3(self, capsys, monkeypatch):
        import scipy.integrate

        monkeypatch.setattr(scipy.integrate, "quad", lambda *a, **k: (1.0, 1e-6, {}))
        code, _ = run(capsys, "limit", "--spec", FOREST_DSL, "--trunc", "60", "--cap", "5")
        assert code == 3

    def test_rejection_budget_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr("polyagibbs.gibbs._REJECTION_BUDGET", 5)
        code = main([
            "sample", "--spec", FOREST_DSL, "--trunc", "60", "--sizes", "30",
            "--samples", "10", "--seed", "3", "--method", "rejection",
        ])
        assert code == 4
        assert "budget exceeded" in capsys.readouterr().err

    def test_rejection_budget_exits_4_from_child_processes(self, capsys, monkeypatch):
        # two 1000-draw chunks on two workers: the budget is inherited
        # through the fork, and the error raised in a child keeps its type
        monkeypatch.setattr("polyagibbs.gibbs._REJECTION_BUDGET", 5)
        code = main([
            "sample", "--spec", FOREST_DSL, "--trunc", "60", "--sizes", "30",
            "--samples", "2000", "--seed", "3", "--method", "rejection",
            "--workers", "2",
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert "budget exceeded" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        [
            '{"root": {"op": "SET"}}',
            '{"root": {"op": "REF"}}',
            '{"defs": {}}',
            '{"root": {"op": "WEIGHT", "inner": {"op": "ATOM"}, "c": "x"}}',
            '{"root": {"op": "SIZED", "coeffs": ["0", "a"]}}',
            "W := COMPOSE(SET, WEIGHT(ATOM, 1/0));",
        ],
    )
    def test_malformed_spec_is_a_spec_error(self, capsys, text):
        assert main(["coeffs", "--spec", text, "--trunc", "5"]) == 2
        err = capsys.readouterr().err
        assert "spec error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["coeffs", "sample"])
    @pytest.mark.parametrize(
        "text, code, message",
        [
            ("A := B; B := A; F := COMPOSE(SET, A);", 2,
             "recursive definition does not increase size"),
            ("F := COMPOSE(SET, Q);", 2, "undefined species name 'Q'"),
            ("A := B; B := A;", 3, "model root must be a COMPOSE(SET|SEQ, inner) species"),
        ],
    )
    def test_name_errors_keep_type_and_exit_code(self, capsys, command, text, code, message):
        assert main([command, "--spec", text, "--trunc", "10"]) == code
        assert message in capsys.readouterr().err
