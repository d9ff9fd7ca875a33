"""Command-line behaviour: formats, determinism, exit codes, worked example."""

import json
import math
import os
import subprocess
import sys

import pytest

from genhuff.cli import EXIT_BROKEN_PIPE, main

BENFORD_LINES = "\n".join(
    f"{math.log10(i + 1) - math.log10(i)!r}" for i in range(1, 10))


@pytest.fixture
def benford_file(tmp_path):
    path = tmp_path / "benford.txt"
    path.write_text(BENFORD_LINES + "\n")
    return str(path)


@pytest.fixture
def three_file(tmp_path):
    path = tmp_path / "three.txt"
    path.write_text("# worked example\n0.5\n0.3\n0.2\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCode:
    def test_expavg_benford(self, capsys, benford_file):
        code, out, _ = run(capsys, "code", "--objective", "expavg", "--q", "0.6",
                           "--format", "json", benford_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["lengths"] == [1, 2, 3, 4, 5, 6, 7, 8, 8]
        assert doc["value_bits"] == pytest.approx(2.382604845074305, abs=1e-9)
        assert doc["entropy_bits"] == pytest.approx(2.2596011654072414, abs=1e-9)
        assert set(doc) == {"objective", "param", "n", "lengths", "codewords",
                            "value_bits", "entropy_bits", "bounds"}
        assert set(doc["bounds"]) == {"lower", "upper", "lower_kind",
                                      "upper_kind", "exact", "note"}
        assert doc["bounds"]["lower"] <= doc["value_bits"] <= doc["bounds"]["upper"]

    def test_mmpr_three(self, capsys, three_file):
        code, out, _ = run(capsys, "code", "--objective", "mmpr",
                           "--format", "json", three_file)
        doc = json.loads(out)
        assert doc["lengths"] == [1, 2, 2]
        assert doc["value_bits"] == pytest.approx(math.log2(1.2), abs=1e-9)
        assert doc["codewords"] == ["0", "10", "11"]

    def test_avg_dyadic_zero(self, capsys, tmp_path):
        path = tmp_path / "dyadic.txt"
        path.write_text("0.5\n0.25\n0.25\n")
        code, out, _ = run(capsys, "code", "--objective", "avg",
                           "--format", "json", str(path))
        doc = json.loads(out)
        assert doc["value_bits"] == pytest.approx(0.0, abs=1e-12)

    def test_plain_includes_success_for_decaying_base(self, capsys, benford_file):
        code, out, _ = run(capsys, "code", "--objective", "expavg", "--q", "0.6",
                           benford_file)
        assert "success_probability: 0.296088878012" in out

    def test_json_array_input_and_normalize(self, capsys, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[2, 1, 1]\n")
        code, _, err = run(capsys, "code", str(path))
        assert code == 2 and "error" in err
        code, out, _ = run(capsys, "code", "--normalize", "--format", "json", str(path))
        assert code == 0
        assert json.loads(out)["lengths"] == [1, 2, 2]

    def test_parse_error_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.5\nnot-a-number\n0.5\n")
        code, _, err = run(capsys, "code", str(path))
        assert code == 2
        assert ":2:" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_line_is_input_error(self, capsys, tmp_path, bad):
        path = tmp_path / "bad.txt"
        path.write_text(f"0.5\n{bad}\n0.5\n")
        for extra in ((), ("--normalize",)):
            code, out, err = run(capsys, "code", *extra, str(path))
            assert code == 2
            assert out == ""
            assert "finite" in err

    def test_unary_regime_bounds_are_exact(self, capsys, three_file):
        code, out, _ = run(capsys, "code", "--objective", "expavg", "--q", "0.4",
                           "--format", "json", three_file)
        doc = json.loads(out)
        assert doc["lengths"] == [1, 2, 2]
        assert doc["bounds"]["exact"] == pytest.approx(doc["value_bits"])

    def test_csv_symbol_table(self, capsys, three_file):
        code, out, _ = run(capsys, "code", "--objective", "mmpr",
                           "--format", "csv", three_file)
        lines = out.strip().splitlines()
        assert lines[0] == "symbol,probability,length,codeword"
        assert lines[1] == "1,0.5,1,0"


class TestBounds:
    def test_mmpr_point(self, capsys):
        code, out, _ = run(capsys, "bounds", "--objective", "mmpr", "--p", "0.75",
                           "--format", "json")
        doc = json.loads(out)
        assert doc["bounds"]["exact"] == pytest.approx(1 + math.log2(0.75), abs=1e-9)

    def test_expavg_needs_input(self, capsys, benford_file):
        code, _, err = run(capsys, "bounds", "--objective", "expavg", "--q", "2")
        assert code == 2
        code, out, _ = run(capsys, "bounds", "--objective", "expavg", "--q", "2",
                           "--format", "json", benford_file)
        doc = json.loads(out)
        assert doc["bounds"]["lower"] == pytest.approx(3.0396614845441448, abs=1e-9)
        assert doc["bounds"]["upper"] == pytest.approx(3.9107123007008599, abs=1e-9)

    def test_dexp_dyadic_unit_interval(self, capsys):
        code, out, _ = run(capsys, "bounds", "--objective", "dexp", "--d", "1",
                           "--p", "0.25", "--format", "json")
        doc = json.loads(out)
        assert doc["bounds"]["lower"] == 0.0
        assert doc["bounds"]["upper"] == 1.0

    def test_plain_brackets_follow_kinds(self, capsys):
        _, out, _ = run(capsys, "bounds", "--objective", "mmpr", "--p", "0.3")
        assert out.startswith("bounds: [0.263034405834, 0.900464326449)")


class TestSweep:
    def test_mmpr_rows(self, capsys):
        code, out, _ = run(capsys, "sweep", "--figure", "mmpr", "--step", "0.05")
        lines = out.strip().splitlines()
        assert lines[0] == "p,lower,upper,lower_kind,upper_kind,exact"
        assert len(lines) == 1 + 19
        row = dict(zip(lines[0].split(","), lines[6].split(",")))
        assert float(row["p"]) == pytest.approx(0.3)
        assert float(row["lower"]) == pytest.approx(0.263034405834)

    def test_mmpr_power_of_two_rows_hit_unit_interval(self, capsys):
        _, out, _ = run(capsys, "sweep", "--figure", "mmpr", "--step", "0.0625")
        for line in out.strip().splitlines()[1:]:
            p, lower, upper = line.split(",")[:3]
            if float(p) in (0.0625, 0.125, 0.25, 0.5):
                assert float(lower) == 0.0
                assert float(upper) == 1.0

    def test_monotone_within_classified_segments(self, capsys):
        from itertools import groupby

        from genhuff import lambda_j, mmpr_bounds

        def segment(row):
            p = float(row[0])
            lam = lambda_j(p)
            if p >= 2 / 3:
                table_row = 0
            elif p >= 0.5:
                table_row = 1
            elif p * (2 ** lam - 1) < 1.0:
                table_row = 2
            elif p * (2 ** lam + 1) < 2.0:
                table_row = 3
            else:
                table_row = 4
            return lam, table_row

        def consistent(values):
            diffs = [b - a for a, b in zip(values, values[1:])]
            return all(d >= -1e-12 for d in diffs) or all(d <= 1e-12 for d in diffs)

        _, out, _ = run(capsys, "sweep", "--figure", "mmpr", "--step", "0.001")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        segments = 0
        for _, group in groupby(rows, key=segment):
            block = list(group)
            if len(block) < 3:
                continue
            segments += 1
            assert consistent([float(r[1]) for r in block])
            assert consistent([float(r[2]) for r in block])
        assert segments >= 6

    def test_l1region_thresholds(self, capsys):
        code, out, _ = run(capsys, "sweep", "--figure", "l1region", "--step", "0.1")
        rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert float(rows["0.5"]) == 0.0
        assert float(rows["1"]) == pytest.approx(0.4)
        assert float(rows["2"]) == 1.0

    def test_dexp_matches_bounds_module(self, capsys):
        from genhuff import avg_redundancy_lower, mmpr_bounds

        _, out, _ = run(capsys, "sweep", "--figure", "dexp", "--step", "0.05")
        for line in out.strip().splitlines()[1:]:
            p, lower, upper = (float(x) for x in line.split(","))
            assert lower == pytest.approx(avg_redundancy_lower(p), abs=1e-9)
            assert upper == pytest.approx(mmpr_bounds(p).upper, abs=1e-9)

    def test_step_domain(self, capsys):
        code, _, err = run(capsys, "sweep", "--figure", "mmpr", "--step", "0.5")
        assert code == 2


class TestVerify:
    def test_small_campaign_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "5", "--trials", "8",
                           "--seed", "42")
        assert code == 0
        assert "result: ok" in out
        assert "FAIL" not in out

    def test_family_counterexample(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "l1-counter",
                           "--q", "2", "--p1", "0.5")
        assert code == 0
        assert "l_1 >= 2" in out

    def test_family_upper_high(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "mmpr-upper-high",
                           "--p1", "0.7")
        assert code == 0
        assert "upper bound attained" in out

    def test_family_out_of_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "mmpr-upper-high",
                           "--p1", "0.3")
        assert code == 2


class TestBenford:
    def test_json_blocks(self, capsys):
        code, out, _ = run(capsys, "benford", "--format", "json")
        doc = json.loads(out)
        q06, q2 = doc["blocks"]
        assert q06["renyi_entropy_bits"] == pytest.approx(2.2596011654, abs=1e-9)
        assert q06["cost_bits"] == pytest.approx(2.382604845074, abs=1e-9)
        assert q06["success_probability"] == pytest.approx(0.296088878012, abs=1e-9)
        assert q06["one_bit_l1_bounds"]["lower"] == pytest.approx(2.3720072937, abs=1e-9)
        assert q06["success_bounds"]["lower"] == pytest.approx(0.2508648600, abs=1e-9)
        assert q2["lengths"] == [2, 3, 3, 3, 3, 4, 4, 4, 4]
        assert q2["cost_bits"] == pytest.approx(3.099407991793, abs=1e-9)
        assert q2["per_symbol_bounds"]["upper"] == pytest.approx(3.9107123007, abs=1e-9)

    def test_plain_narrative(self, capsys):
        code, out, _ = run(capsys, "benford")
        assert "optimal lengths: 1 2 3 4 5 6 7 8 8" in out
        assert "success probability: 0.296088878012" in out


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, benford_file):
        outputs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "code", "--objective", "expavg", "--q", "0.6",
                            "--format", "json", benford_file)
            outputs.add(out)
        for _ in range(2):
            _, out, _ = run(capsys, "verify", "--n", "4", "--trials", "5")
            outputs.add(out)
        for _ in range(2):
            _, out, _ = run(capsys, "sweep", "--figure", "l1region", "--step", "0.05")
            outputs.add(out)
        assert len(outputs) == 3

    def test_out_file_matches_stdout(self, capsys, tmp_path, benford_file):
        _, out, _ = run(capsys, "benford")
        target = tmp_path / "report.txt"
        code = main(["benford", "--out", str(target)])
        capsys.readouterr()
        assert target.read_text() == out


class TestUsage:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "code", "no-such-file.txt")
        assert code == 2
        assert "error" in err

    def test_closed_pipe_exits_quietly(self):
        # the read end is closed before the child starts, so its first
        # write to stdout fails with EPIPE
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "genhuff", "benford"],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env,
                                  timeout=60)
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == EXIT_BROKEN_PIPE
