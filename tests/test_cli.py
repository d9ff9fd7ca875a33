"""Command-line behaviour: formats, determinism, exit codes, worked example."""

import argparse
import io
import json
import math
import os
import subprocess
import sys

import pytest

from genhuff.cli import EXIT_BROKEN_PIPE, ORACLE_MAX_N, build_parser, main

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


def child_env():
    """The environment for a child interpreter that imports genhuff from this tree."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return {**os.environ, "PYTHONPATH": os.path.abspath(src)}


VERIFY_MODULES = ("genhuff.verify", "genhuff.oracle", "genhuff.witness")
UNUSED = VERIFY_MODULES + ("json",)  # what no subcommand but verify or a JSON run needs

# a cold interpreter runs cli.main on its argv, then lists sys.modules on stderr
COLD_RUN = """
import sys
from genhuff import cli
code = cli.main(sys.argv[1:])
sys.stderr.write(" ".join(sorted(sys.modules)))
sys.exit(code)
"""


def usage_error(capsys, *argv):
    """(exit code, stderr) of an invocation argparse refuses."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


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
                            "value_bits", "entropy_bits", "bounds", "success_probability"}
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

    @pytest.mark.parametrize("d", ["1e300", "1e6", "1024", "1023"])
    def test_huge_d_exits_0_with_a_finite_value(self, capsys, three_file, d):
        # 2^d overflows from d = 1024, and p_n^(1+d) is subnormal long before:
        # the merge runs on logs, and no OverflowError reaches the user
        code, out, err = run(capsys, "code", "--objective", "dexp", "--d", d,
                             "--format", "json", three_file)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["lengths"] == [1, 2, 2]
        assert math.isfinite(doc["value_bits"])

    @pytest.mark.parametrize("d", ["1e-300", "1e-320"])
    def test_near_zero_d_value_is_evaluated_per_symbol(self, capsys, three_file, d):
        # the merge's root key here is 2^-53: read off it as (1+d) r / d, the
        # value would print as 1.11e+284 at d = 1e-300
        code, out, err = run(capsys, "code", "--objective", "dexp", "--d", d, three_file)
        assert (code, err) == (0, "")
        assert "value_bits: 0\n" in out

    def test_avg_dyadic_zero(self, capsys, tmp_path):
        path = tmp_path / "dyadic.txt"
        path.write_text("0.5\n0.25\n0.25\n")
        code, out, _ = run(capsys, "code", "--objective", "avg",
                           "--format", "json", str(path))
        doc = json.loads(out)
        assert doc["value_bits"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("argv,probs", [
        # 0.0 over a negative d, and over lg q < 0 with an entropy of 0 too
        (("--objective", "dexp", "--d", "-0.5"), "0.5\n0.25\n0.125\n0.125\n"),
        (("--objective", "expavg", "--q", "0.5"), "1.0\n"),
        # a uniform dyadic pmf, exact value 0: the log-domain readout at the
        # largest d below 1024 and ``evaluate`` near d = 0 round below it
        *((("--objective", "dexp", "--d", d), "0.125\n" * 8)
          for d in ("1023.9999999999999", "0.01", "-0.01")),
    ])
    def test_zero_value_prints_without_a_sign(self, capsys, tmp_path, argv, probs):
        path = tmp_path / "p.txt"
        path.write_text(probs)
        code, out, err = run(capsys, "code", *argv, "--format", "plain", str(path))
        assert (code, err) == (0, "")
        assert "value_bits: 0\n" in out
        assert "-0" not in out.split()
        code, out, err = run(capsys, "code", *argv, "--format", "json", str(path))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["value_bits"] == 0.0
        for key in ("value_bits", "entropy_bits"):
            assert math.copysign(1.0, doc[key]) == 1.0

    def test_plain_includes_success_for_decaying_base(self, capsys, benford_file):
        code, out, _ = run(capsys, "code", "--objective", "expavg", "--q", "0.6",
                           benford_file)
        assert "success_probability: 0.296088878012" in out

    @pytest.mark.parametrize("q", ["0.6", "0.3", "0.9", "0.5", "2"])
    def test_json_success_probability_equals_plain(self, capsys, three_file, q):
        # both formats carry it for 0 < q < 1 only, the same value
        code, out, err = run(capsys, "code", "--objective", "expavg", "--q", q, three_file)
        assert (code, err) == (0, "")
        plain = dict(line.split(": ", 1) for line in out.splitlines())
        code, out, err = run(capsys, "code", "--objective", "expavg", "--q", q,
                             "--format", "json", three_file)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert ("success_probability" in doc) == ("success_probability" in plain) \
            == (0.0 < float(q) < 1.0)
        if "success_probability" in doc:
            assert doc["success_probability"] == float(plain["success_probability"])
        if q == "0.6":
            assert plain["success_probability"] == "0.48"

    def test_expavg_overflowing_base_on_a_uniform_file(self, capsys, tmp_path):
        # q = 1e300 overflows the last merged keys to +inf; the code is still
        # the complete one, every length 6, and its value 6 bits
        path = tmp_path / "uniform64.txt"
        path.write_text("\n".join([repr(1 / 64)] * 64) + "\n")
        code, out, err = run(capsys, "code", "--objective", "expavg", "--q", "1e300",
                             str(path))
        assert (code, err) == (0, "")
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        assert lines["lengths"] == " ".join(["6"] * 64)
        assert lines["value_bits"] == "6"

    def test_json_array_input_and_normalize(self, capsys, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[2, 1, 1]\n")
        code, _, err = run(capsys, "code", str(path))
        assert code == 2 and "error" in err
        code, out, _ = run(capsys, "code", "--normalize", "--format", "json", str(path))
        assert code == 0
        assert json.loads(out)["lengths"] == [1, 2, 2]

    @pytest.mark.parametrize("source, text", [
        ("file", "0.5\n0.5\n"),
        ("stdin", "0.5\n0.5\n"),
        ("file", "[0.5, 0.5]\n"),
    ])
    def test_leading_byte_order_mark_is_skipped(self, capsys, tmp_path, monkeypatch, source,
                                                text):
        path = tmp_path / "plain.txt"
        path.write_text(text)
        expected = run(capsys, "code", str(path))
        assert expected[0] == 0
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + text))
            arg = "-"
        else:
            path.write_bytes(b"\xef\xbb\xbf" + text.encode())
            arg = str(path)
        assert run(capsys, "code", arg) == expected

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

    def test_normalize_past_float_range(self, capsys, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("1e308\n1e308\n")
        code, out, err = run(capsys, "code", "--normalize", str(path))
        assert code == 0 and err == ""
        assert "lengths: 1 1" in out
        path.write_text("1e308\n1e308\n1e-300\n")
        code, out, err = run(capsys, "code", "--normalize", str(path))
        assert code == 2 and out == ""
        assert "entry 3 of 3" in err

    def test_sum_past_float_range_without_normalize(self, tmp_path):
        # a child interpreter, so that an escaping exception shows as its traceback
        path = tmp_path / "huge.txt"
        path.write_text("1e308\n1e308\n")
        proc = subprocess.run([sys.executable, "-m", "genhuff", "code", str(path)],
                              capture_output=True, text=True, env=child_env(), timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: 2 probabilities sum to inf, not 1\n"

    def test_bad_entry_message_is_bounded(self, capsys, tmp_path):
        n = 100_000
        lines = [repr(1.0 / n)] * n
        lines[40_000] = "nan"
        path = tmp_path / "wide.txt"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "code", str(path))
        assert code == 2 and out == ""
        assert len(err.encode()) < 1024
        assert "entry 40001 of 100000 is nan" in err

    def test_unary_regime_bounds_are_exact(self, capsys, three_file):
        code, out, _ = run(capsys, "code", "--objective", "expavg", "--q", "0.4",
                           "--format", "json", three_file)
        doc = json.loads(out)
        assert doc["lengths"] == [1, 2, 2]
        assert doc["bounds"]["exact"] == pytest.approx(doc["value_bits"])

    @pytest.mark.parametrize("argv", [
        ["avg"], ["mmpr"], ["dexp", "--d", "0.5"], ["dexp", "--d", "-0.5"],
        ["expavg", "--q", "0.9"], ["expavg", "--q", "2"], ["expavg", "--q", "0.3"]],
        ids=lambda a: "".join(a))
    @pytest.mark.parametrize("text", ["1.0\n1e-10\n", "1.0\n5e-324\n"], ids=["1e-10", "5e-324"])
    def test_top_probability_of_one_still_gets_bounds(self, capsys, tmp_path, argv, text):
        # p_1 is the float 1.0 but n = 2: the bounds from p_1 need p_1 < 1
        path = tmp_path / "top.txt"
        path.write_text(text)
        code, out, err = run(capsys, "code", "--objective", *argv, "--format", "json",
                             str(path))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["lengths"] == [1, 1]
        bounds = doc["bounds"]
        assert bounds["lower"] <= doc["value_bits"] <= bounds["upper"]
        code, out, _ = run(capsys, "code", "--objective", *argv, str(path))
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        lower, upper = lines["bounds"].strip("[]()").split(", ")
        assert float(lower) <= float(lines["value_bits"]) <= float(upper)

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

    @pytest.mark.parametrize("p", ["8e-17", "1e-17", "1e-300", "1e-310", "5e-324"])
    @pytest.mark.parametrize("objective", [("avg",), ("dexp", "--d", "0.5")],
                             ids=["avg", "dexp0.5"])
    def test_tiny_p_answers_or_refuses(self, capsys, objective, p):
        # any other exception would escape main, as a traceback does at exit
        code, out, err = run(capsys, "bounds", "--objective", *objective, "--p", p,
                             "--format", "json")
        if code == 2:
            assert out == "" and err.startswith("error: ")
            return
        assert code == 0
        b = json.loads(out)["bounds"]
        assert math.isfinite(b["lower"]) and math.isfinite(b["upper"])
        assert 0.0 <= b["lower"] <= b["upper"]

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
        # refused before any row is built: this step would make ~1e12 rows
        code, out, err = run(capsys, "sweep", "--figure", "mmpr", "--step", "1e-12")
        assert (code, out) == (2, "")
        assert "step must lie in [1e-05, 0.1]" in err


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

    def test_family_counterexample_past_the_float_range(self, capsys):
        # q^(3+m) overflows a float here; the one-bit-l_1 cost is still finite
        code, out, err = run(capsys, "verify", "--family", "l1-counter",
                             "--q", "1e300", "--p1", "0.5")
        assert (code, err) == (0, "")
        assert "cost 2.99899656668, so l_1 >= 2 in every optimum" in out
        assert out.endswith("result: ok\n")

    def test_family_upper_high(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "mmpr-upper-high",
                           "--p1", "0.7")
        assert code == 0
        assert "upper bound attained" in out

    @pytest.mark.parametrize("family,params,claim", [
        ("mmpr-upper-high", ("--p1", "0.7"), "upper bound attained"),
        ("mmpr-upper-high", ("--p1", "0.55"), "upper bound approached"),
        ("mmpr-upper-mid", ("--p1", "0.45"), "upper bound attained"),
        ("mmpr-upper-low", ("--p1", "0.3"), "upper bound approached"),
        ("mmpr-lower-a", ("--p1", "0.4"), "lower bound attained"),
        ("mmpr-lower-b", ("--p1", "0.3"), "lower bound attained"),
        ("len-upper-tight", ("--p1", "0.3"), "every optimum has l_1 >= 2"),
        ("len-lower-tight", ("--p1", "0.4"), "optimal l_1 = 1"),
        ("l1-boundary", ("--q", "0.9"), "unique optimum ((2, 2, 2, 2),)"),
        ("l1-counter", ("--q", "2", "--p1", "0.5"), "so l_1 >= 2 in every optimum"),
        ("l1-always-one", ("--q", "0.8", "--p1", "0.5"), "engine l_1 = 1"),
        # eps windows narrower than an ulp of p_1, just below 2/(2^lam + 1)
        ("mmpr-upper-low", ("--p1", repr(2 / 9)), "upper bound approached"),
        ("mmpr-upper-low", ("--p1", repr(2 / 17)), "upper bound approached"),
        # wide eps: the optimum sits lg((1-p_1)/(1-p_1-eps)) below the bound
        ("mmpr-upper-high", ("--p1", "0.55", "--eps", "0.05"),
         "oracle 0.678071905113 vs 0.847996906555, gap 0.169925001442"),
        ("mmpr-upper-low", ("--p1", "0.2", "--eps", "0.01"),
         "oracle 0.852569636345 vs 0.870716983055, gap 0.0181473467103"),
        # eps past 1 - 3 p_1/2: 1 + lg p_1 is the optimum, lg(2 (1-p_1)/p_1) below
        ("mmpr-upper-high", ("--p1", "0.6", "--eps", "0.15"),
         "oracle 0.263034405834 vs 0.678071905113, gap 0.415037499279"),
    ])
    def test_every_family_passes(self, capsys, family, params, claim):
        code, out, err = run(capsys, "verify", "--family", family, *params)
        assert (code, err) == (0, "")
        assert out.startswith("pmf: ")
        assert claim in out and "FAIL" not in out
        assert out.endswith("result: ok\n")

    @pytest.mark.parametrize("family,params", [
        ("mmpr-upper-high", ("--p1", "0.55", "--eps", "0.05")),
        ("mmpr-upper-low", ("--p1", "0.2", "--eps", "0.01")),
    ])
    def test_approached_gap_is_checked_to_1e_9(self, capsys, monkeypatch, family, params):
        import dataclasses

        import genhuff.verify

        oracle = genhuff.verify.brute_force_optimal

        def off(p, obj, **kwargs):
            res = oracle(p, obj, **kwargs)
            return dataclasses.replace(res, min_value=res.min_value + 1e-8)

        monkeypatch.setattr(genhuff.verify, "brute_force_optimal", off)
        code, out, _ = run(capsys, "verify", "--family", family, *params)
        assert code == 1
        assert f"FAIL {family}: upper bound approached" in out

    def test_default_campaign_runs_every_check_in_order(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        names = [line.split(":")[0] for line in out.splitlines()]
        assert names == ["PASS engine-oracle equivalence", "PASS mmpr sandwich",
                         "PASS dth sandwich", "PASS exp-average sandwich",
                         "PASS length conformance", "PASS moment ordering",
                         "PASS transform identity", "PASS unary regime",
                         "PASS witness tightness", "result"]
        assert "over 200 pmfs x 9 objectives" in out

    @pytest.mark.parametrize("flag,value,message", [
        ("--trials", "0", "trials must be >= 1"),
        ("--n", "1", "n must be >= 2"),
        ("--n", "17", "<= 16 (the oracle's cap)"),
    ])
    def test_campaign_domain(self, capsys, flag, value, message):
        code, out, err = run(capsys, "verify", flag, value)
        assert code == 2 and out == ""
        assert message in err

    def test_family_out_of_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "mmpr-upper-high",
                           "--p1", "0.3")
        assert code == 2

    def test_oversized_witness_is_refused_before_it_is_built(self, capsys):
        # m = 37 here: 2^39 tail symbols would end in a MemoryError
        code, out, err = run(capsys, "verify", "--family", "l1-counter",
                             "--q", "1.1", "--p1", "0.9")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "2^39" in err and "cap of 2^16" in err

    @pytest.mark.parametrize("family,params", [
        # the smallest p_1 each family admits: lam = 1074
        *((family, ("--p1", "5e-324")) for family in (
            "mmpr-upper-mid", "mmpr-upper-low", "mmpr-lower-a", "mmpr-lower-b",
            "len-upper-tight", "len-lower-tight")),
        ("l1-always-one", ("--q", "0.9", "--p1", "5e-324")),
        # 2^213 symbols, which ended in an OverflowError
        ("l1-always-one", ("--q", "0.9", "--p1", "1e-10")),
    ])
    def test_unbounded_family_is_refused_before_it_is_built(self, capsys, family, params):
        code, out, err = run(capsys, "verify", "--family", family, *params)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "passes the cap of 2^16" in err


    @pytest.mark.parametrize("family,p1,message", [
        ("len-upper-tight", "1.6e-5", "needs 65536 symbols"),
        ("mmpr-upper-mid", "0.061", "needs 32 symbols"),
        ("mmpr-upper-low", "0.05", "needs 33 symbols"),
    ])
    def test_witness_past_the_oracle_cap_is_refused_before_it_is_built(
            self, capsys, monkeypatch, family, p1, message):
        import genhuff.witness

        def unbuilt(family):
            raise AssertionError("generate was called")

        monkeypatch.setattr(genhuff.witness, "generate", unbuilt)
        code, out, err = run(capsys, "verify", "--family", family, "--p1", p1)
        assert (code, out) == (2, "")
        assert err == (f"error: --family {family} at p_1={float(p1)} {message}, past the oracle "
                       f"cap 18: the oracle checks p_1 >= 2^-4 = 0.0625 only\n")

    def test_largest_witness_the_oracle_checks_passes(self, capsys):
        # lam = 4 at p_1 = 1/16: 2^4 + 1 = 17 symbols
        code, out, err = run(capsys, "verify", "--family", "mmpr-upper-low", "--p1", "0.0625")
        assert (code, err) == (0, "")
        assert out.endswith("result: ok\n")


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

    @pytest.mark.parametrize("argv", [
        ("verify", "--format", "json"),
        ("verify", "--format", "csv"),
        ("benford", "--format", "csv"),
        ("bounds", "--p", "0.3", "--format", "csv"),
        ("sweep", "--figure", "mmpr", "--format", "json"),
        ("sweep", "--figure", "mmpr", "--format", "plain"),
    ])
    def test_unsupported_format_is_refused(self, capsys, argv):
        code, err = usage_error(capsys, *argv)
        assert code == 2
        assert "--format" in err

    @pytest.mark.parametrize("argv", [
        ("code", "--seed", "1", "x.txt"),
        ("bounds", "--p", "0.3", "--seed", "1"),
        ("sweep", "--figure", "mmpr", "--seed", "1"),
        ("benford", "--seed", "1"),
    ])
    def test_seed_only_where_randomness_is_used(self, capsys, argv):
        code, err = usage_error(capsys, *argv)
        assert code == 2
        assert "--seed" in err

    @pytest.mark.parametrize("argv,flag", [
        (("verify", "--family", "mmpr-upper-high", "--p1", "0.7", "--n", "5"), "--n"),
        (("verify", "--family", "mmpr-upper-high", "--p1", "0.7", "--trials", "0"), "--trials"),
        (("verify", "--family", "mmpr-upper-high", "--p1", "0.7", "--seed", "1"), "--seed"),
        (("verify", "--p1", "0.7"), "--p1"),
        (("verify", "--eps", "0.01"), "--eps"),
        (("verify", "--q", "2"), "--q"),
        (("code", "--d", "2", "{file}"), "--d"),
        (("code", "--objective", "mmpr", "--q", "2", "{file}"), "--q"),
        (("code", "--objective", "dexp", "--d", "1", "--q", "2", "{file}"), "--q"),
        (("code", "--objective", "expavg", "--q", "2", "--d", "1", "{file}"), "--d"),
        (("bounds", "--objective", "mmpr", "--p", "0.3", "--d", "2"), "--d"),
        (("bounds", "--objective", "mmpr", "--p", "0.3", "--q", "5"), "--q"),
        (("bounds", "--objective", "dexp", "--d", "1", "--p", "0.3", "--q", "5"), "--q"),
        (("bounds", "--objective", "expavg", "--q", "2", "--p", "0.3", "{file}"), "--p"),
        (("bounds", "--objective", "mmpr", "--p", "0.3", "{file}"), "input"),
        (("bounds", "--objective", "avg", "--p", "0.3", "--normalize"), "--normalize"),
        (("bounds", "--objective", "dexp", "--d", "1", "--p", "0.3", "--assume-sorted"),
         "--assume-sorted"),
        (("bounds", "--p", "0.3", "--j", "0"), "--j"),
        (("bounds", "--objective", "avg", "--p", "0.3", "--j", "0"), "--j must be >= 1"),
        (("bounds", "--objective", "mmpr", "--p", "0.3", "--j", "7"), "--j has no effect"),
    ])
    def test_flag_without_effect_is_refused(self, capsys, three_file, argv, flag):
        argv = [three_file if a == "{file}" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and flag in err

    @pytest.mark.parametrize("param", [("--d", "inf"), ("--d", "1e308"), ("--d", "nan"),
                                       ("--q", "inf"), ("--q", "nan")])
    @pytest.mark.parametrize("sub", ["code", "bounds"])
    def test_param_without_a_finite_value_is_refused(self, capsys, tmp_path, sub, param):
        path = tmp_path / "dyadic.txt"
        path.write_text("0.5\n0.25\n0.125\n0.125\n")
        objective = "dexp" if param[0] == "--d" else "expavg"
        where = (str(path),) if sub == "code" or objective == "expavg" else ("--p", "0.3")
        code, out, err = run(capsys, sub, "--objective", objective, *param, *where)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {param[0][2:]} must ")

    @pytest.mark.parametrize("argv,content,message,child", [
        (("code", "{file}"), b"[true]\n", "flat array of numbers", False),
        (("code", "{file}"), b"[1" + b"0" * 400 + b", 1]\n", "past the float range", False),
        (("code", "{file}"), b"\xff\xfe0.5\n", "not UTF-8 text", True),
        (("code", "{file}", "--out", "{missing}"), None, "cannot write", True),
        (("verify", "--n", "3", "--trials", "2", "--out", "{missing}"), None, "cannot write",
         True),
        (("code", "--objective", "dexp", "--d", "-inf", "{file}"), None, "d must", False),
        (("code", "--objective", "expavg", "--q", "-5e-1", "{file}"), None, "q must", False),
        (("bounds", "--p", "-1e-1"), None, "probability must", False),
        (("verify", "--family", "mmpr-upper-high", "--p1", "-1e-1"), None, "needs p_1", False),
        (("verify", "--family", "l1-boundary", "--q", "0.9", "--eps", "-1e-12"), None,
         "needs eps", False),
        (("sweep", "--figure", "mmpr", "--step", "-1e-3"), None, "step must", False),
        (("verify", "--family", "l1-boundary", "--q", "0.9", "--ep", "-1e-12"), None,
         "needs eps", False),
        (("sweep", "--figure", "mmpr", "--st", "-1e-3"), None, "step must", False),
    ], ids=["json-bool", "json-huge-int", "not-utf8", "code-out", "verify-out", "d", "q", "p",
            "p1", "eps", "step", "eps-prefix", "step-prefix"])
    def test_bad_input_is_one_error_line(self, capsys, tmp_path, argv, content, message,
                                         child):
        # a child interpreter too where an escaping exception would show as
        # its traceback
        path = tmp_path / "in.txt"
        path.write_bytes(content or b"0.5\n0.5\n")
        missing = tmp_path / "missing" / "out.txt"
        argv = [{"{file}": str(path), "{missing}": str(missing)}.get(a, a) for a in argv]
        results = [run(capsys, *argv)]
        if child:
            proc = subprocess.run([sys.executable, "-m", "genhuff", *argv], capture_output=True,
                                  text=True, env=child_env(), timeout=60)
            results.append((proc.returncode, proc.stdout, proc.stderr))
        for code, out, err in results:
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("value", ["-5e-1", "-1e-12", "-.5E0"])
    def test_negative_float_in_exponent_form_parses(self, capsys, three_file, value):
        joined = run(capsys, "code", "--objective", "dexp", f"--d={value}", three_file)
        assert joined[0] == 0
        assert run(capsys, "code", "--objective", "dexp", "--d", value, three_file) == joined

    def test_largest_d_answers_a_finite_value(self, capsys, tmp_path):
        path = tmp_path / "dyadic.txt"
        path.write_text("0.5\n0.25\n0.125\n0.125\n")
        code, out, _ = run(capsys, "code", "--objective", "dexp", "--d", "1e300",
                           "--format", "json", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["lengths"] == [1, 2, 3, 3] and math.isfinite(doc["value_bits"])

    @pytest.mark.parametrize("family,argv,flag", [
        ("mmpr-upper-high", ("--p1", "0.7", "--q", "2"), "--q"),
        ("mmpr-upper-mid", ("--p1", "0.45", "--q", "2"), "--q"),
        ("mmpr-upper-low", ("--p1", "0.3", "--q", "2"), "--q"),
        ("mmpr-lower-a", ("--p1", "0.4", "--eps", "0.2"), "--eps"),
        ("mmpr-lower-b", ("--p1", "0.3", "--q", "7"), "--q"),
        ("len-upper-tight", ("--p1", "0.3", "--eps", "0.01"), "--eps"),
        ("len-lower-tight", ("--p1", "0.4", "--q", "2"), "--q"),
        ("l1-boundary", ("--q", "0.9", "--p1", "0.3"), "--p1"),
        ("l1-counter", ("--q", "2", "--p1", "0.5", "--eps", "0.01"), "--eps"),
        ("l1-always-one", ("--q", "0.8", "--p1", "0.5", "--eps", "0.01"), "--eps"),
    ])
    def test_family_flag_the_family_ignores_is_refused(self, capsys, family, argv, flag):
        code, out, err = run(capsys, "verify", "--family", family, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {flag} has no effect with --family {family}\n"

    def test_closed_pipe_exits_quietly(self):
        # the read end is closed before the child starts, so its first
        # write to stdout fails with EPIPE
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "genhuff", "benford"],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  env=child_env(), timeout=60)
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == EXIT_BROKEN_PIPE


class TestStartup:
    """genhuff needs nothing outside the standard library: numpy, which only
    the test suite uses, must never be imported on the way to an answer."""

    def test_cli_import_leaves_numpy_out(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import genhuff.cli, sys; print('numpy' in sys.modules)"],
            capture_output=True, text=True, env=child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_code_run_imports_no_numpy(self, three_file):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "genhuff", "code", three_file],
            capture_output=True, text=True, env=child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "lengths: 1 2 2" in proc.stdout
        assert "genhuff.cli" in proc.stderr
        assert "numpy" not in proc.stderr

    @pytest.mark.parametrize("argv,loaded,absent", [
        (("code", "{file}", "--format", "plain"), (), UNUSED + ("fractions",)),
        (("code", "{file}", "--format", "csv"), (), UNUSED + ("fractions",)),
        (("benford", "--format", "plain"), (), UNUSED),
        (("bounds", "--objective", "avg", "--p", "0.3"), (), UNUSED),
        (("sweep", "--figure", "mmpr"), (), UNUSED),
        # the other side of the guard: a run that needs them loads them
        (("code", "{file}", "--format", "json"), ("json",), VERIFY_MODULES),
        (("verify", "--n", "3", "--trials", "1"), VERIFY_MODULES, ("json",)),
    ])
    def test_cold_run_imports_only_what_it_runs(self, three_file, argv, loaded, absent):
        argv = [three_file if a == "{file}" else a for a in argv]
        proc = subprocess.run(
            [sys.executable, "-c", COLD_RUN, *argv],
            capture_output=True, text=True, env=child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        modules = set(proc.stderr.split())
        assert {"genhuff.cli", *loaded} <= modules
        assert not modules & set(absent)

    def test_package_import_loads_core_and_coder_only(self):
        # then every exported name resolves, the lazy ones included
        child = ("import genhuff, sys; print(*sorted(sys.modules)); "
                 "[getattr(genhuff, name) for name in genhuff.__all__]")
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True, text=True, env=child_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        modules = set(proc.stdout.split())
        assert {m for m in modules if m.startswith("genhuff")} == {
            "genhuff", "genhuff.core", "genhuff.coder"}
        assert "fractions" not in modules and "heapq" not in modules


class TestParserSources:
    """The parser holds copies of what it must not import the witness or oracle for."""

    @staticmethod
    def verify_option(flag):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return next(a for a in sub.choices["verify"]._actions if flag in a.option_strings)

    def test_family_names_are_the_witness_families(self):
        from genhuff.witness import FamilyKind

        assert list(self.verify_option("--family").choices) == [k.value for k in FamilyKind]

    def test_n_cap_is_the_oracle_cap(self):
        from genhuff.oracle import DEFAULT_MAX_N

        assert ORACLE_MAX_N == DEFAULT_MAX_N
        assert f"2..{DEFAULT_MAX_N} " in self.verify_option("--n").help
