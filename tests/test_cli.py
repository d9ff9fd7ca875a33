"""Command-line behaviour: formats, determinism, exit codes, worked example."""

import argparse
import ast
import contextlib
import io
import hashlib
import inspect
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genhuff import bounds, core, verify, witness
from genhuff.cli import EXIT_BROKEN_PIPE, _bounds_for_code, build_parser, fmt, main
from genhuff.coder import CodeResult, CombineRule, canonical_codewords, generalized_huffman
from genhuff.core import (BoundKind, BoundReport, CodingError, LengthVector, Objective,
                          ObjectiveKind, Pmf, alpha_of_q, renyi_entropy, validate_pmf)
from test_core import lg_mean_reference, renyi_reference
from test_oracle import cyclic_garbage

BENFORD_LINES = "\n".join(
    f"{math.log10(i + 1) - math.log10(i)!r}" for i in range(1, 10))


# sha-256 of what `genhuff code --objective expavg --format json` prints on
# the Benford file, by --q
EXPAVG_CODE_JSON_SHA256 = {
    "0.6": "8f141462eda037abc43671c33295ba65107b75870e818898d128307b6df2d87c",
    "0.9": "543adda5f5222d246932bb1967c3130a40775b2d84c0e9eabc7b7c5138c2dc25",
    "1.01": "16c558b5d052eebd503cb102aad6b7fe931d3d74aa81866ea6a3e95953409a11",
    "2": "8edb2158fb82d6822e7712f4b3191c3c6b8ecf29b92742648b0c9719f218ec21",
    "1e200": "2ab608106dd7fdccf0c12c39e27fbc9df8f6aa11edc4e02394730d4e075e288e",
}
# sha-256 of what `genhuff bounds --objective expavg --q 0.9` prints on the
# Benford file, by --j
EXPAVG_BOUNDS_SHA256 = {
    "1": "5e991e526f25944b3a3a72e18d488d0fc7a60f4bfeea314d763041a414acf380",
    "2": "dd069cef7faace18c4aa7dc357fbb465b9110e44912590d5e1f3e0b30e5c1734",
}


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
REPORTS = "genhuff.reports"  # the home of bounds, sweep and benford
UNUSED = VERIFY_MODULES + ("json",)  # what no subcommand but verify or a JSON run needs
# what no subcommand needs: CodeResult makes its dataclass fields on first read
PROTOCOL = ("dataclasses", "inspect")

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

    @pytest.mark.parametrize("q", EXPAVG_CODE_JSON_SHA256)
    def test_expavg_json_bytes(self, capsys, benford_file, q):
        code, out, _ = run(capsys, "code", "--objective", "expavg", "--q", q,
                           "--format", "json", benford_file)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == EXPAVG_CODE_JSON_SHA256[q]

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
        # value would print as 1.11e+284 at d = 1e-300; a lg-sum over d prints
        # 0, and the exact value is the average redundancy of (1, 2, 2)
        code, out, err = run(capsys, "code", "--objective", "dexp", "--d", d, three_file)
        assert (code, err) == (0, "")
        assert "value_bits: 0.0145247027727\n" in out

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

    @pytest.mark.parametrize("argv,probs,note", [
        (("--objective", "expavg", "--q", "0.5"), "0.5\n0.3\n0.2\n",
         "unary-optimal regime (q <= 0.5)"),
        ((), "1.0\n", "single symbol, null codeword"),
    ], ids=["q-0.5", "n-1"])
    def test_plain_prints_the_bound_note_after_the_bounds(self, capsys, tmp_path, argv, probs,
                                                          note):
        # the report's reason, as json gives it and `bounds` prints it
        path = tmp_path / "p.txt"
        path.write_text(probs)
        code, out, err = run(capsys, "code", *argv, "--format", "json", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["bounds"]["note"] == note
        code, out, err = run(capsys, "code", *argv, str(path))
        assert (code, err) == (0, "")
        lines = out.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("bounds: "))
        assert lines[at + 1] == f"note: {note}"

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


def seventeen_symbols():
    """17 Exp(1) draws of random.Random(7) over their fsum, sorted: the first draw
    whose fsum is 1.0 and whose H_alpha at q = 1 + 2^-52 a log1p form forming
    sum p_i - 1 missed by more than 0.1 bit (it read 3.479, not 3.586)."""
    rng = random.Random(7)
    for _ in range(3):
        raw = [rng.expovariate(1.0) for _ in range(17)]
    total = math.fsum(raw)
    return sorted((x / total for x in raw), reverse=True)


class TestNearZeroScale:
    """``code`` near d = 0 and q = 1, where a lg-sum over s cancels: the value and
    H_alpha equal 1400-bit mpmath (``lg_mean_reference``) on the pmf ``code``
    holds, the entries over their fsum where that is not 1.0, to the 12 digits
    printed, and the value lies inside the printed bounds."""

    @pytest.mark.parametrize("probs,argv,value", [
        # a lg-sum printed 1.03972077084 and 1.38629436112, below the bounds
        ([0.5, 0.3, 0.2], ("expavg", "--q", "1.0000000000000002"), 1.5),
        ([0.5, 0.3, 0.2], ("expavg", "--q", "0.9999999999999999"), 1.5),
        # ... 0 for the exact 0.0145247
        ([0.5, 0.3, 0.2], ("dexp", "--d", "1e-320"), 0.0145247027727),
        # sums off 1 by 9e-10 and 3.4e-10: a lg-sum printed 1298.45 at d = 1e-12
        # and overflowed to inf at d = 1e-320; the sum is divided out at the
        # door, so the value is that of p/S, not 0.0290494065279 with lg S in it
        ([0.6, 0.4000000009], ("dexp", "--d", "1e-12"), 0.0290494052295),
        ([0.6, 0.4000000009], ("dexp", "--d", "1e-320"), 0.0290494052295),
        ([1.0, 1.868138638305791e-10, 1.5815183204789235e-10], ("dexp", "--d", "1e-320"), None),
        # a lg-sum printed 2.77258872224 next to H_alpha 3.47931012263
        (seventeen_symbols(), ("expavg", "--q", "1.0000000000000002"), 3.61299411058),
    ], ids=["three-q-up", "three-q-down", "three-d-1e-320", "off-d-1e-12", "off-d-1e-320",
            "p1-one-d-1e-320", "seventeen-q-up"])
    def test_value_and_entropy_equal_mpmath_inside_the_bounds(self, capsys, tmp_path, probs,
                                                             argv, value):
        path = tmp_path / "in.txt"
        path.write_text("".join(f"{x!r}\n" for x in probs))
        objective, flag, param = argv
        code, out, err = run(capsys, "code", "--objective", objective, flag, param,
                             "--format", "json", str(path))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        p = validate_pmf(probs)
        obj = Objective(ObjectiveKind(objective), float(param))
        exact = float(lg_mean_reference(obj, p, doc["lengths"]))
        assert abs(doc["value_bits"] - exact) <= 1e-11 * (abs(exact) + 1), (doc, exact)
        if value is not None:
            assert doc["value_bits"] == value
        if objective == "expavg":
            h = float(renyi_reference(p, alpha_of_q(float(param))))
            assert abs(doc["entropy_bits"] - h) <= 1e-11 * (h + 1), (doc, h)
        bounds = doc["bounds"]
        assert bounds["lower"] <= doc["value_bits"] <= bounds["upper"]
        code, out, err = run(capsys, "code", "--objective", objective, flag, param, str(path))
        assert (code, err) == (0, "") and f"value_bits: {fmt(doc['value_bits'])}\n" in out


class TestExtremeD:
    """``code --objective dexp`` near d = -1 and just below 1024, past which 2^d
    overflows: each printed value is 1400-bit mpmath of the code's lengths to
    the 12 digits printed, plus 1e-13, and lies inside the printed bounds."""

    @pytest.mark.parametrize("d", ["-0.999999999", "-0.9999999999999999",
                                   "1023.9999999999999"])
    @pytest.mark.parametrize("probs", [[0.5, 0.3, 0.2], seventeen_symbols()],
                             ids=["three", "seventeen"])
    def test_value_equals_mpmath_inside_the_bounds(self, capsys, tmp_path, probs, d):
        path = tmp_path / "in.txt"
        path.write_text("".join(f"{x!r}\n" for x in probs))
        code, out, err = run(capsys, "code", "--objective", "dexp", "--d", d,
                             "--format", "json", str(path))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        exact = float(lg_mean_reference(Objective.dth_exp(float(d)), Pmf(tuple(probs)),
                                        doc["lengths"]))
        printed = 0.5 * 10.0 ** (math.floor(math.log10(exact)) - 11)
        assert abs(doc["value_bits"] - exact) <= printed + 1e-13, (doc, exact)
        assert doc["bounds"]["lower"] <= doc["value_bits"] <= doc["bounds"]["upper"], doc


# the edge scan's objectives: avg, MMPR, the d-th near -1, 0 and its subnormal
# end, and exponential average on both sides of 1/2 and 1
EDGE_SCAN_OBJECTIVES = (
    Objective.avg(), Objective.max_pointwise(),
    *(Objective.dth_exp(d) for d in (0.5, 1.0, 2.0, 8.0, 30.0, -0.5, -0.9, -0.999, -1 + 1e-9,
                                     1e-12, -1e-12, 1e-9, 1e-300, 1e-320)),
    *(Objective.exp_average(q) for q in (2.0, 0.9, 0.6, 0.51, 0.3, 1.07, 10.0, 1e10,
                                         1 + 2.0 ** -52, 1 + 1e-12, 1 - 1e-12)),
)


class TestSumOffOne:
    """A pmf whose sum is off 1 within PMF_SUM_TOL: ``validate_pmf`` divides the
    sum out, so the value ``code`` prints and its bounds read one pmf."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_edge_scan_puts_every_value_inside_its_bounds(self, seed):
        # 600 pmfs of n in {2, 3, 5, 17, 100}, Exp(1) draws over their sum,
        # p_1 moved by up to 9e-10 in 30% of them, under 27 objectives: each
        # engine value lies inside the bounds code prints next to it, as
        # BoundReport.contains reads them.  Without the division 11 (seed 1)
        # and 28 (seed 2) of the 16,200 missed, by up to 2.4e-9
        rng = random.Random(seed)
        rules = [CombineRule.for_objective(obj) for obj in EDGE_SCAN_OBJECTIVES]
        misses = []
        for k in range(600):
            n = (2, 3, 5, 17, 100)[k % 5]
            draws = [rng.expovariate(1.0) for _ in range(n)]
            total = sum(draws)
            probs = sorted((x / total for x in draws), reverse=True)
            if rng.random() < 0.3:
                probs[0] += rng.uniform(-9e-10, 9e-10)
            p = core.validate_pmf(probs)
            for obj, rule in zip(EDGE_SCAN_OBJECTIVES, rules):
                value = generalized_huffman(p, rule).objective_value
                report = _bounds_for_code(p, obj, value)[1]
                if not report.contains(value):
                    misses.append((probs, obj, value, report))
        assert not misses, (len(misses), misses[:3])

    @pytest.mark.parametrize("probs,argv,value", [
        # printed 0.831339070669, below its lower bound 0.83133907326
        (["0.9750000009", "0.025"], ("avg",), None),
        # printed 1.0000000133; the value of p/S is exactly 1
        (["0.6", "0.4000000009"], ("expavg", "--q", "1.07"), 1.0),
    ], ids=["avg", "expavg-1.07"])
    def test_printed_value_inside_its_printed_bounds(self, capsys, tmp_path, probs, argv,
                                                    value):
        path = tmp_path / "in.txt"
        path.write_text("\n".join(probs) + "\n")
        code, out, err = run(capsys, "code", "--objective", *argv, "--format", "json",
                             str(path))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["bounds"]["lower"] <= doc["value_bits"] <= doc["bounds"]["upper"], doc
        if value is not None:
            assert doc["value_bits"] == value

    def test_a_unit_fsum_keeps_its_floats_and_pmf_keeps_what_it_is_given(self):
        # fsum 1.0: the very floats, on both paths; off 1: each over the fsum,
        # order kept; Pmf(...) divides nothing
        for probs in ([0.5, 0.3, 0.2], [0.25] * 4, [0.6, 0.4 - 2.0 ** -54]):
            assert math.fsum(probs) == 1.0
            for kwargs in ({}, {"assume_sorted": True}):
                assert core.validate_pmf(probs, **kwargs).probs == tuple(probs)
        off = [0.6, 0.4000000009]
        total = math.fsum(off)
        for kwargs in ({}, {"assume_sorted": True}):
            assert core.validate_pmf(off, **kwargs).probs == (0.6 / total, 0.4000000009 / total)
        assert core.validate_pmf(off[::-1]).probs == (0.6 / total, 0.4000000009 / total)
        assert Pmf(tuple(off)).probs == tuple(off)


class TestParamReadsBack:
    """The parameter ``code`` and ``bounds`` print rebuilds the ``Objective`` they
    ran: 12 digits that read back as it, or every digit where those do not."""

    @pytest.mark.parametrize("objective,flag,param", [
        ("expavg", "--q", repr(1 + 2.0 ** -52)),
        ("expavg", "--q", repr(1 - 2.0 ** -52)),
        ("expavg", "--q", repr(1 - 2.0 ** -53)),
        ("dexp", "--d", "1e-300"),
        ("dexp", "--d", repr(math.nextafter(1e-300, 1.0))),
        ("dexp", "--d", "0.5"),
    ])
    def test_printed_param_rebuilds_the_objective(self, capsys, three_file, objective, flag,
                                                  param):
        obj = Objective(ObjectiveKind(objective), float(param))
        code, out, err = run(capsys, "code", "--objective", objective, flag, param, three_file)
        assert (code, err) == (0, "")
        printed = re.match(rf"objective: {objective} param=(\S+)\n", out).group(1)
        assert Objective(ObjectiveKind(objective), float(printed)) == obj
        assert printed == fmt(obj.param) or float(fmt(obj.param)) != obj.param
        for argv in (("code", three_file), ("bounds", three_file if objective == "expavg"
                                             else "--p=0.3")):
            code, out, err = run(capsys, argv[0], "--objective", objective, flag, param,
                                 "--format", "json", argv[1])
            assert (code, err) == (0, "")
            assert Objective(ObjectiveKind(objective), json.loads(out)["param"]) == obj


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

    @pytest.mark.parametrize("j", EXPAVG_BOUNDS_SHA256)
    def test_expavg_bytes(self, capsys, benford_file, j):
        code, out, _ = run(capsys, "bounds", "--objective", "expavg", "--q", "0.9",
                           "--j", j, benford_file)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == EXPAVG_BOUNDS_SHA256[j]

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


# each 2^lam witness family with its 2^5 + offset symbols
POWER_FAMILY_SIZES_AT_LAM_5 = (
    ("mmpr-upper-mid", 32), ("mmpr-upper-low", 33), ("mmpr-lower-a", 31),
    ("mmpr-lower-b", 32), ("len-upper-tight", 32), ("len-lower-tight", 31),
)
# the witness families whose pmf is built from p_1, with eps or alone
P1_FAMILIES = ("mmpr-upper-high", *(family for family, _ in POWER_FAMILY_SIZES_AT_LAM_5))


def _within_3_ulps(x):
    below, above = [x], [x]
    for _ in range(3):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], 2.0))
    return below + above[1:]


# every float within 3 ulps of an end of mmpr_bounds' rows, lam = 1..4
ROW_END_P1S = sorted({p1 for lam in range(1, 5)
                      for end in (1 / 2 ** lam, 1 / (2 ** lam - 1), 2 / (2 ** lam + 1),
                                  2 / 2 ** lam)
                      for p1 in _within_3_ulps(end)})


def _family_flags(fam):
    """The ``verify --family`` flags of a witness.WitnessFamily."""
    flags = ["--family", fam.kind.value]
    for field in ("p1", "eps", "q"):
        if getattr(fam, field) is not None:
            flags += [f"--{field}", repr(getattr(fam, field))]
    return flags


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
        import genhuff.verify
        from genhuff.oracle import OracleResult

        oracle = genhuff.verify.brute_force_optimal

        def off(p, obj, **kwargs):
            res = oracle(p, obj, **kwargs)
            return OracleResult(res.min_value + 1e-8, res.argmin, res.evaluated_count)

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
                         "PASS avg sandwich", "PASS one-bit-l1 sandwich",
                         "PASS limit continuity", "PASS witness tightness", "result"]
        assert "over 200 pmfs x 9 objectives" in out
        assert "PASS witness tightness: 13 witnesses of 10 families back their" in out

    def test_witness_panel_holds_every_family(self):
        assert {fam.kind for fam in verify.WITNESS_PANEL} == set(witness.FamilyKind)
        assert len(set(verify.WITNESS_PANEL)) == len(verify.WITNESS_PANEL)

    @pytest.mark.parametrize("fam", verify.WITNESS_PANEL,
                             ids=lambda fam: " ".join(_family_flags(fam)))
    def test_each_witness_panel_entry_passes_as_family(self, capsys, fam):
        code, out, err = run(capsys, "verify", *_family_flags(fam))
        assert (code, err) == (0, "")
        assert out.startswith("pmf: ") and "FAIL" not in out
        assert out.endswith("result: ok\n")

    @pytest.mark.parametrize("fam,message", [
        (witness.WitnessFamily(witness.FamilyKind.MMPR_UPPER_HIGH, p1=0.3),
         "needs p_1 in [0.5, 1)"),
        (witness.WitnessFamily(witness.FamilyKind.LEN_UPPER_TIGHT, p1=0.24999999999999997),
         "within the oracle's resolution"),
    ])
    def test_campaign_fails_on_a_panel_entry_it_cannot_check(self, capsys, monkeypatch, fam,
                                                              message):
        # a refusal that --family reports as a usage error is the panel's own fault
        monkeypatch.setattr(verify, "WITNESS_PANEL", verify.WITNESS_PANEL + (fam,))
        code, out, err = run(capsys, *CAMPAIGN)
        assert (code, err) == (1, "")
        assert f"FAIL witness tightness: {fam.kind.value} at p1={fam.p1!r}: " in out
        assert message in out and out.endswith("result: 1 failure(s)\n")

    @pytest.mark.parametrize("flag,value,message", [
        ("--trials", "0", "trials must be >= 1"),
        ("--n", "1", "n must be >= 2"),
        ("--n", "19", "<= 18 (the oracle's cap)"),
    ])
    def test_campaign_domain(self, capsys, flag, value, message):
        code, out, err = run(capsys, "verify", flag, value)
        assert code == 2 and out == ""
        assert message in err

    def test_campaign_runs_at_the_oracle_cap(self, capsys):
        code, out, err = run(capsys, "verify", "--n", "18", "--trials", "4")
        assert (code, err) == (0, "") and out.endswith("result: ok\n")

    def test_campaign_leaves_no_cyclic_garbage(self):
        # the whole path verify walks, engine, bounds, witnesses and oracle,
        # frees what it makes by reference count
        assert cyclic_garbage(lambda: verify._run_campaign(16, 20, 42)) == 0

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
        # every 2^lam family at the first p_1 past the cap, just below 2^-4: lam = 5
        *((family, repr(math.nextafter(0.0625, 0.0)), f"needs {n} symbols")
          for family, n in POWER_FAMILY_SIZES_AT_LAM_5),
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

    @pytest.mark.parametrize("family", [family for family, _ in POWER_FAMILY_SIZES_AT_LAM_5])
    def test_a_2_lam_witness_at_the_cap_is_left_to_generate(self, family):
        # lam = 4 at p_1 = 2^-4: 2^4 + offset <= 17 symbols
        import genhuff.verify
        from genhuff.witness import FamilyKind, WitnessFamily

        fam = WitnessFamily(FamilyKind(family), p1=0.0625)
        assert genhuff.verify._refuse_unchecked_witness(fam) is None

    def test_largest_witness_the_oracle_checks_passes(self, capsys):
        # lam = 4 at p_1 = 1/16: 2^4 + 1 = 17 symbols
        code, out, err = run(capsys, "verify", "--family", "mmpr-upper-low", "--p1", "0.0625")
        assert (code, err) == (0, "")
        assert out.endswith("result: ok\n")

    @pytest.mark.parametrize("q,eps,message", [
        # fl(0.4) lies above 2/5: the floats tie (1, 2, 3, 3) with (2, 2, 2, 2)
        ("1", "1e-300", "is lost in rounding"),
        # the two codes score less than the oracle's ARGMIN_TOL apart
        ("1", "1e-13", "within the oracle's resolution 1e-12"),
        ("0.9", "1e-14", "within the oracle's resolution 1e-12"),
    ])
    def test_l1_boundary_witness_it_cannot_check_is_refused(self, capsys, q, eps, message):
        code, out, err = run(capsys, "verify", "--family", "l1-boundary", "--q", q, "--eps", eps)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("q", ["1", "0.9"])
    def test_l1_boundary_passes_just_above_the_oracle_resolution(self, capsys, q):
        code, out, err = run(capsys, "verify", "--family", "l1-boundary", "--q", q,
                             "--eps", "1e-12")
        assert (code, err) == (0, "")
        assert "PASS l1-boundary: unique optimum ((2, 2, 2, 2),)" in out
        assert out.endswith("result: ok\n")

    @pytest.mark.parametrize("p1", [
        # within a few ulps below 2^(1-lam): all codewords at lam score lam + lg p_1,
        # less than an ARGMIN_TOL under the 1 of the best code with l_1 = lam - 1
        "0.49999999999999983", "0.4999999999999999", "0.49999999999999994",
        "0.24999999999999992", "0.24999999999999994", "0.24999999999999997",
        "0.12499999999999996", "0.12499999999999997", "0.12499999999999999",
    ])
    def test_len_upper_tight_witness_it_cannot_check_is_refused(self, capsys, p1):
        code, out, err = run(capsys, "verify", "--family", "len-upper-tight", "--p1", p1)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "within the oracle's resolution 1e-12" in err
        assert err.count("\n") == 1

    def test_len_upper_tight_passes_just_past_the_oracle_resolution(self, capsys):
        # l_1 = 1 scores ~1.4e-12 above l_1 = 2 here
        code, out, err = run(capsys, "verify", "--family", "len-upper-tight",
                             "--p1", "0.4999999999995")
        assert (code, err) == (0, "")
        assert "PASS len-upper-tight: every optimum has l_1 >= 2" in out
        assert out.endswith("result: ok\n")

    @pytest.mark.parametrize("family", P1_FAMILIES)
    def test_p1_family_at_its_row_ends_passes_or_is_refused(self, capsys, family):
        # each p_1 within 3 ulps of a row end 2^-lam, 1/(2^lam - 1),
        # 2/(2^lam + 1) or 2^(1-lam), lam = 1..4: a PASS or a refusal, no FAIL
        for p1 in ROW_END_P1S:
            code, out, err = run(capsys, "verify", "--family", family, "--p1", repr(p1))
            assert code in (0, 2), (p1, out)
            assert (out.endswith("result: ok\n") and err == "") if code == 0 else out == ""


BENFORD_PLAIN = """\
benford digit distribution: 0.301029995664 0.176091259056 0.124938736608 0.0969100130081 \
0.0791812460476 0.0669467896306 0.0579919469777 0.0511525224474 0.0457574905607
shannon entropy: 2.87591612099 bits
--- q = 0.6
alpha(q): 3.80178401692
renyi entropy: 2.25960116541 bits
unit cost bounds: [2.25960116541, 3.25960116541)
per-symbol cost bounds: [2.25960116541, 2.78342535504] (hat p_1 = 0.838652622347)
one-bit-l1 cost bounds: [2.3720072937, 2.7070703322)
success bounds: (0.250864860049, 0.297696101816]
optimal lengths: 1 2 3 4 5 6 7 8 8
codewords: 0 10 110 1110 11110 111110 1111110 11111110 11111111
cost: 2.38260484507 bits
success probability: 0.296088878012
--- q = 2
alpha(q): 0.5
renyi entropy: 3.02606325473 bits
unit cost bounds: [3.02606325473, 4.02606325473)
per-symbol cost bounds: [3.03966148454, 3.9107123007] (hat p_1 = 0.192237000701)
optimal lengths: 2 3 3 3 3 4 4 4 4
codewords: 00 010 011 100 101 1100 1101 1110 1111
cost: 3.09940799179 bits
"""

# sha-256 of what `genhuff benford --format json` prints: every digit, key
# and indent of its 2422 bytes
BENFORD_JSON_SHA256 = "3accbc45f6ec714b694573b72e8f48b80c322047868402b1e81055178b3c639b"


def _engine_swaps_two_lengths(monkeypatch):
    """verify's engine swaps l_1 and l_n, and scores the code it returns."""
    engine = verify.generalized_huffman

    def swapped(p, rule):
        lengths = list(engine(p, rule).lengths.lengths)
        lengths[0], lengths[-1] = lengths[-1], lengths[0]
        lv = LengthVector(tuple(lengths))
        return CodeResult(lv, canonical_codewords(lv), rule.objective().evaluate(p, lv))

    monkeypatch.setattr(verify, "generalized_huffman", swapped)


def _attained_mmpr_upper_moves_up(monkeypatch):
    """mmpr_bounds' last row, [lg((1-p)/(1-2^(1-lam))), lam + lg p], reads its upper end 1e-6 high."""
    table = bounds.mmpr_bounds

    def moved(p_j):
        r = table(p_j)
        if r.exact is None and r.upper_kind is BoundKind.ACHIEVABLE:
            return BoundReport(r.lower, r.upper + 1e-6, r.lower_kind, r.upper_kind)
        return r

    monkeypatch.setattr(bounds, "mmpr_bounds", moved)


def _offset_one_high(kind):
    """witness.FAMILIES gives the 2^lam family ``kind`` one symbol too many."""
    def apply(monkeypatch):
        fields, offset = witness.FAMILIES[kind]
        monkeypatch.setitem(witness.FAMILIES, kind, (fields, offset + 1))
    return apply


def _witness_is(*probs):
    """witness.generate builds ``probs`` whatever the family: a rival code wins outright."""
    def apply(monkeypatch):
        monkeypatch.setattr(witness, "generate", lambda fam: Pmf(probs))
    return apply


def _report_moves_up(name, kind=None):
    """bounds.``name`` reads both ends of its report 2 bits high, under objectives of
    ``kind`` only where one is given; each interval the campaign checks is at most
    ~1 bit wide, so the oracle's optimum falls below the moved lower end."""
    def apply(monkeypatch):
        bound = getattr(bounds, name)

        def moved(*args):
            r = bound(*args)
            if kind is not None and args[0].kind.value != kind:
                return r
            exact = None if r.exact is None else r.exact + 2.0
            return BoundReport(r.lower + 2.0, r.upper + 2.0, r.lower_kind, r.upper_kind,
                               exact, r.note)

        monkeypatch.setattr(bounds, name, moved)
    return apply


def _l1_bound_through_renyi(monkeypatch):
    """exp_avg_bounds_l1 forms B^a as q^(a H_a) - p_1^a, which cancels where p_1^a
    is most of sum_i p_i^a, and refuses where it cancels to 0 or below."""
    def cancelling(p, q):
        alpha, p1 = alpha_of_q(q), p.probs[0]
        x = q ** (alpha * renyi_entropy(p, alpha)) - p1 ** alpha
        if x <= 0.0:
            raise CodingError("degenerate transform mass")
        base = x ** (1.0 / alpha)
        return BoundReport(1.0 + math.log(base + p1, q), 1.0 + math.log(q * base + p1, q),
                           BoundKind.ACHIEVABLE, BoundKind.APPROACHABLE)

    monkeypatch.setattr(bounds, "exp_avg_bounds_l1", cancelling)


def _lg_sum_at_small_scale(monkeypatch):
    """evaluate and renyi_entropy divide the lg-sum by s at every scale, which
    cancels near d = 0 and q = 1, where their centred form should run."""
    monkeypatch.setattr(core, "_SMALL_SCALE", 0.0)


def _lambda_rounds_down(monkeypatch):
    """lambda_j takes floor(-lg p_j), one short of the Shannon length off powers of two."""
    monkeypatch.setattr(bounds, "lambda_j", lambda p_j: math.floor(-math.log2(p_j)))


def _max_pointwise_is_average(monkeypatch):
    """verify's max pointwise redundancy is the average one, the bottom of the chain."""
    monkeypatch.setattr(verify, "max_pointwise_redundancy", verify.avg_redundancy)


def _hat_transform_skipped(monkeypatch):
    """hat_transform hands the pmf back untransformed."""
    monkeypatch.setattr(bounds, "hat_transform", lambda p, q: p)


def _unary_code_lengths_1_to_n(monkeypatch):
    """verify's unary code is 1, 2, ..., n, one length too long at the last symbol."""
    monkeypatch.setattr(verify, "unary_code", lambda n: LengthVector(tuple(range(1, n + 1))))


CAMPAIGN = ("verify", "--n", "6", "--trials", "8")


# a defect's FAIL line must name what the oracle found: with one symbol too
# many, the len-lower-tight witness has optima with l_1 = 2 beside l_1 = 1
LOWER_TIGHT_FOUND = "optimal l_1 = 1 or 2"


@pytest.mark.parametrize("mutant,argv,row,names", [
    pytest.param(_engine_swaps_two_lengths, CAMPAIGN, "engine-oracle equivalence", "",
                 id="engine-swaps-two-lengths"),
    pytest.param(_attained_mmpr_upper_moves_up, CAMPAIGN, "witness tightness", "",
                 id="mmpr-upper-1e-6-high"),
    # each sandwich row FAILs when its bound reads 2 bits high, and each other
    # campaign row when what it checks breaks
    *(pytest.param(_report_moves_up(name, kind), CAMPAIGN, row, "", id=f"{row}-2-bits-high")
      for name, kind, row in (
          ("symbol_bounds", "mmpr", "mmpr sandwich"),
          ("symbol_bounds", "dexp", "dth sandwich"),
          ("exp_avg_bounds", None, "exp-average sandwich"),
          ("symbol_bounds", "avg", "avg sandwich"),
          ("exp_avg_bounds_l1", None, "one-bit-l1 sandwich"))),
    # the exp-average row checks the unit bounds before the per-symbol ones
    pytest.param(_report_moves_up("exp_avg_unit_bounds"), CAMPAIGN, "exp-average sandwich",
                 "unit bounds violated", id="exp-average-unit-2-bits-high"),
    pytest.param(_lambda_rounds_down, CAMPAIGN, "length conformance", "",
                 id="lambda-rounds-down"),
    pytest.param(_lg_sum_at_small_scale, CAMPAIGN, "limit continuity", "at param=",
                 id="lg-sum-at-small-scale"),
    pytest.param(_max_pointwise_is_average, CAMPAIGN, "moment ordering", "",
                 id="max-pointwise-is-average"),
    pytest.param(_hat_transform_skipped, CAMPAIGN, "transform identity", "",
                 id="hat-transform-skipped"),
    pytest.param(_unary_code_lengths_1_to_n, CAMPAIGN, "unary regime", "",
                 id="unary-code-1-to-n"),
    # the default campaign's pmfs at q = 0.51 reach the cancellation; its first
    # such pmf cancels to a refusal
    pytest.param(_l1_bound_through_renyi, ("verify",), "one-bit-l1 sandwich",
                 "refused at q=0.51 pmf=", id="l1-bound-through-renyi"),
    *(pytest.param(_offset_one_high(witness.FamilyKind(family)),
                   ("verify", "--family", family, *params), family, names,
                   id=f"{family}-offset-one-high")
      for family, params, names in (
          ("mmpr-upper-mid", ("--p1", "0.45"), ""),
          ("mmpr-upper-low", ("--p1", "0.2", "--eps", "0.01"), ""),
          ("mmpr-lower-a", ("--p1", "0.4"), ""),
          ("mmpr-lower-b", ("--p1", "0.3"), ""),
          ("len-upper-tight", ("--p1", "0.3"), ""),
          ("len-lower-tight", ("--p1", "0.4"), LOWER_TIGHT_FOUND))),
    # the campaign's witness row reaches the families it once left to --family
    *(pytest.param(_offset_one_high(witness.FamilyKind(family)), CAMPAIGN, "witness tightness",
                   LOWER_TIGHT_FOUND if family == "len-lower-tight" else "",
                   id=f"campaign-{family}-offset-one-high")
      for family in ("mmpr-upper-low", "len-upper-tight", "len-lower-tight", "mmpr-lower-b")),
    # l_1 = 1 scores 0.17 below l_1 = 2, and (1, 2, 3, 3) 0.53 below (2, 2, 2, 2):
    # a clear FAIL, not a tie too close to check
    pytest.param(_witness_is(0.45, 0.2, 0.2, 0.15),
                 ("verify", "--family", "len-upper-tight", "--p1", "0.3"), "len-upper-tight",
                 "optimal l_1 = 1", id="len-upper-tight-rival-wins"),
    pytest.param(_witness_is(0.7, 0.1, 0.1, 0.1),
                 ("verify", "--family", "l1-boundary", "--q", "0.9"), "l1-boundary",
                 "unique optimum ((1, 2, 3, 3),)", id="l1-boundary-rival-wins"),
])
def test_verify_fails_each_injected_defect(capsys, monkeypatch, mutant, argv, row, names):
    """Each defect turns a verify row that passes without it to FAIL, exit 1."""
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out.endswith("result: ok\n")
    mutant(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, ""), err
    fail = next(line for line in out.splitlines() if line.startswith(f"FAIL {row}: "))
    assert names in fail


def test_len_upper_tight_fail_names_the_oracle_l1(capsys, monkeypatch):
    """An oracle optimum with l_1 = lam - 1 fails len-upper-tight, and the
    detail names that l_1, not the claim."""
    from genhuff.oracle import OracleResult

    oracle = verify.brute_force_optimal

    def with_shorter(p, obj, **kwargs):
        # lam = 2 at p_1 = 0.3: add a code with l_1 = 1 to the optima
        res = oracle(p, obj, **kwargs)
        shorter = LengthVector((1, 2, 3, 3))
        return OracleResult(res.min_value, (shorter, *res.argmin), res.evaluated_count)

    monkeypatch.setattr(verify, "brute_force_optimal", with_shorter)
    code, out, err = run(capsys, "verify", "--family", "len-upper-tight", "--p1", "0.3")
    assert (code, err) == (1, "")
    assert ("FAIL len-upper-tight: optimal l_1 = 1 or 2, not all >= ceil(-lg p_1) = 2\n"
            in out)


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
        assert code == 0 and out == BENFORD_PLAIN

    def test_json_bytes(self, capsys):
        code, out, _ = run(capsys, "benford", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == BENFORD_JSON_SHA256


class TestBoundsSeam:
    """code and benford reach the bounds only through the functions of
    bounds.__all__, the ones a profiler wraps to time the bound work."""

    @staticmethod
    def private_bounds_reads(source: str) -> list[str]:
        """The names starting with _ that ``source`` imports from bounds or
        reads as an attribute of the bounds module."""
        tree = ast.parse(source)
        aliases, found = set(), []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if (node.module or "").rpartition(".")[2] == "bounds":
                    found += [a.name for a in node.names if a.name.startswith("_")]
                aliases |= {a.asname or a.name for a in node.names if a.name == "bounds"}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id in aliases):
                found.append(node.attr)
        return found

    def test_no_module_but_bounds_reads_a_private_bounds_name(self):
        import genhuff

        package = os.path.dirname(genhuff.__file__)
        assert self.private_bounds_reads("from . import bounds as b\nb._x(b.y)") == ["_x"]
        assert self.private_bounds_reads("from .bounds import _y, z") == ["_y"]
        modules = sorted(f for f in os.listdir(package) if f.endswith(".py"))
        assert "cli.py" in modules and "reports.py" in modules
        for name in modules:
            if name != "bounds.py":
                with open(os.path.join(package, name)) as fh:
                    assert self.private_bounds_reads(fh.read()) == [], name

    @pytest.mark.parametrize("argv", [
        ("code", "--objective", "expavg", "--q", "0.9"),
        ("code", "--objective", "expavg", "--q", "2"),
        ("code", "--objective", "expavg", "--q", "1.01"),
        ("benford", "--format", "plain"),
        ("benford", "--format", "json"),
    ], ids=" ".join)
    def test_each_report_calls_a_public_bound(self, capsys, monkeypatch, benford_file, argv):
        callers = []  # the module of each call to a function of bounds.__all__
        for name in bounds.__all__:
            func = getattr(bounds, name)
            if inspect.isfunction(func):
                def counted(*args, func=func):
                    callers.append(sys._getframe(1).f_globals["__name__"])
                    return func(*args)
                monkeypatch.setattr(bounds, name, counted)
        if argv[0] == "code":
            argv += (benford_file,)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out
        # a call from outside bounds opens a span that holds all the bound work
        assert set(callers) - {"genhuff.bounds"}, callers


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
        (("code", "--objective", "dexp", "{file}"), None, "--objective dexp requires --d",
         False),
        (("code", "--objective", "expavg", "{file}"), None, "--objective expavg requires --q",
         False),
        (("bounds", "--objective", "avg"), None, "--objective avg bounds need --p", False),
        (("code", "{file}"), b"[0.5, 0.5\n", "invalid JSON array", False),
    ], ids=["json-bool", "json-huge-int", "not-utf8", "code-out", "verify-out", "d", "q", "p",
            "p1", "eps", "step", "no-d", "no-q", "bounds-no-p", "json-invalid"])
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

    @pytest.mark.parametrize("argv,flag", [
        # a prefix of a flag of this subcommand that is another subcommand's flag
        (("verify", "--family", "len-upper-tight", "--p", "0.3"), "--p 0.3"),
        (("verify", "--n", "6", "--trials", "1", "--p", "0.3"), "--p 0.3"),
        (("code", "{file}", "--n"), "--n"),
        # a prefix of one flag and of no other subcommand's flag, once read as
        # that flag, and its negative value joined to it
        (("verify", "--family", "l1-boundary", "--q", "0.9", "--ep", "-1e-12"),
         "--ep=-1e-12"),
        (("sweep", "--figure", "mmpr", "--st", "-1e-3"), "--st=-1e-3"),
    ], ids=["verify-family-p", "verify-campaign-p", "code-n", "eps-prefix", "step-prefix"])
    def test_a_flag_is_read_by_its_full_name_only(self, three_file, argv, flag):
        code, out, err = _main_on([three_file if a == "{file}" else a for a in argv], "")
        assert code == 2 and out == ""
        assert err.endswith(f"error: unrecognized arguments: {flag}\n"), err

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


SPECIAL_ENTRIES = (1e-300, 0.0, -0.0, math.inf, -math.inf, math.nan)
EDGE_D = (1e-12, -1e-12, 1e-300, 1e-320, -1.0 + 1e-9, 1023.9999999999999, 1024.0, 1e300, 0.0,
          math.nan, math.inf)
EDGE_Q = (1.0 + 2.0 ** -52, 1.0 - 2.0 ** -52, 1.0 + 1e-12, 1.0 - 1e-12, 0.5,
          0.5000000000000001, 1e-300, 1.7e308, 0.0, 1.0, math.nan, math.inf)


@st.composite
def code_argvs(draw):
    """(argv after the input '-', the input's lines): n in 1..60 normal floats,
    up to three of them replaced by a subnormal or a special entry, divided by
    their sum or not, then p_1 moved by up to 9e-10 (within PMF_SUM_TOL)."""
    n = draw(st.integers(1, 60))
    probs = draw(st.lists(st.floats(sys.float_info.min, 1.0), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 3))):
        probs[draw(st.integers(0, n - 1))] = draw(st.one_of(
            st.floats(5e-324, sys.float_info.min, exclude_max=True),
            st.sampled_from(SPECIAL_ENTRIES)))
    total = math.fsum(x for x in probs if math.isfinite(x))
    if total > 0.0 and draw(st.booleans()):
        probs = [x / total for x in probs]
    probs[0] += draw(st.floats(-9e-10, 9e-10))
    objective = draw(st.sampled_from(("avg", "mmpr", "dexp", "expavg")))
    argv = ["--objective", objective]
    if objective == "dexp":
        argv += ["--d", repr(draw(st.sampled_from(EDGE_D)))]
    elif objective == "expavg":
        argv += ["--q", repr(draw(st.sampled_from(EDGE_Q)))]
    if draw(st.booleans()):
        argv.append("--normalize")
    return argv + draw(stray_flags(CODE_FLAGS)), "".join(f"{x!r}\n" for x in probs)


# 0 and 1, the least subnormal, 1e-17, for which 1 - p rounds to 1, 2/3 and the
# floats beside it, where the MMPR table's rows meet, and two non-finite values
EDGE_P = (0.0, 1.0, 5e-324, 1e-17, math.nextafter(2 / 3, 0.0), 2 / 3,
          math.nextafter(2 / 3, 1.0), math.nan, math.inf)


@st.composite
def bounds_argvs(draw):
    """(argv, the input's lines) of ``bounds``: either format, any objective with
    its parameter from the edges above, --j or not; --p from EDGE_P or (0, 1) for
    all but expavg, and for expavg an input '-' of n in 1..40 normal floats, up to
    two of them replaced by a subnormal, divided by their sum, then p_1 moved by
    up to 9e-10 (within PMF_SUM_TOL)."""
    objective = draw(st.sampled_from(("avg", "mmpr", "dexp", "expavg")))
    argv = ["bounds", "--objective", objective,
            "--format", draw(st.sampled_from(("json", "plain")))]
    if objective == "dexp":
        argv += ["--d", repr(draw(st.sampled_from(EDGE_D)))]
    elif objective == "expavg":
        argv += ["--q", repr(draw(st.sampled_from(EDGE_Q)))]
    if objective != "mmpr" and draw(st.booleans()):
        argv += ["--j", str(draw(st.integers(-1, 41)))]
    argv += draw(stray_flags(BOUNDS_FLAGS))
    if objective != "expavg":
        p = draw(st.one_of(st.sampled_from(EDGE_P), st.floats(0.0, 1.0)))
        return [*argv, "--p", repr(p)], ""
    n = draw(st.integers(1, 40))
    probs = draw(st.lists(st.floats(sys.float_info.min, 1.0), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 2))):
        probs[draw(st.integers(0, n - 1))] = draw(
            st.floats(5e-324, sys.float_info.min, exclude_max=True))
    total = math.fsum(probs)
    probs = [x / total for x in probs]
    probs[0] += draw(st.floats(-9e-10, 9e-10))
    return [*argv, "-"], "".join(f"{x!r}\n" for x in probs)


# every flag of every subcommand, full name, with a value it takes
EVERY_FLAG = {"--objective": "avg", "--d": "0.5", "--q": "2", "--p": "0.3", "--j": "1",
              "--normalize": None, "--assume-sorted": None, "--figure": "mmpr", "--step": "0.1",
              "--n": "6", "--trials": "1", "--seed": "0", "--family": "len-upper-tight",
              "--p1": "0.3", "--eps": "0.01"}
CODE_FLAGS = ("--objective", "--d", "--q", "--normalize", "--assume-sorted")
BOUNDS_FLAGS = CODE_FLAGS + ("--p", "--j")
SWEEP_FLAGS = ("--figure", "--step")
VERIFY_FLAGS = ("--n", "--trials", "--seed", "--family", "--p1", "--eps", "--q")


def stray_flags(own):
    """None (three draws in five), or one or two flags of the other subcommands
    that are not in ``own``, with their values; ``--p`` under verify and
    ``--n`` under code among them, each a prefix of a flag in ``own``."""
    names = sorted(f for f in EVERY_FLAG if f not in own)
    return st.sampled_from((0, 0, 0, 1, 2)).flatmap(
        lambda k: st.lists(st.sampled_from(names), min_size=k, max_size=k, unique=True)).map(
        lambda flags: [t for f in flags for t in (f, EVERY_FLAG[f]) if t is not None])


# the ends of sweep's [1e-5, 0.1], a float outside each, and values that are no step;
# 1e-5 itself takes ~0.3-1.3 s a figure, so it is an example, not a draw
SWEEP_STEPS = (0.1, math.nextafter(1e-5, 0.0), math.nextafter(0.1, 1.0), 0.0, -0.0, 5e-324,
               math.nan, math.inf, -math.inf)
# each family flag's edges and a few values inside the families' ranges
P1_EDGES = (0.0, 5e-324, 1e-17, math.nextafter(0.25, 0.0), 0.25, 0.3, 0.5, 0.6, 2 / 3, 0.75,
            math.nextafter(1.0, 0.0), 1.0, math.nan, math.inf)
EPS_EDGES = (0.0, 5e-324, 1e-13, 1e-3, 0.01, math.nextafter(0.05, 0.0), 0.05, 0.5, math.nan)
Q_EDGES = (0.0, 0.5, 0.5000000000000001, 0.75, 0.9, math.nextafter(1.0, 0.0), 1.0,
           1.0 + 2.0 ** -52, 1.5, 2.0, 1e200, math.inf, math.nan)


@st.composite
def sweep_argvs(draw):
    """``sweep`` with each --figure, a --step from SWEEP_STEPS or none, --format csv
    or none, and stray flags."""
    argv = ["sweep", "--figure", draw(st.sampled_from(("mmpr", "dexp", "l1region")))]
    step = draw(st.none() | st.sampled_from(SWEEP_STEPS))
    if step is not None:
        argv += ["--step", repr(step)]
    if draw(st.booleans()):
        argv += ["--format", "csv"]
    return argv + draw(stray_flags(SWEEP_FLAGS))


@st.composite
def verify_argvs(draw):
    """``verify``: either --family with any of --p1, --eps and --q from the edges,
    or a tiny campaign with --n, --trials and --seed at theirs; and stray flags."""
    argv = ["verify"]
    if draw(st.booleans()):
        kind = draw(st.sampled_from(list(witness.FamilyKind)))
        argv += ["--family", kind.value]
        for name, edges in (("p1", P1_EDGES), ("eps", EPS_EDGES), ("q", Q_EDGES)):
            # mostly the flags the family reads, now and then one it refuses
            if draw(st.integers(0, 9)) < (8 if name in witness.FAMILIES[kind][0] else 1):
                argv += [f"--{name}", repr(draw(st.sampled_from(edges)))]
    else:
        for flag, edges in (("--n", (1, 2, 18, 19)), ("--trials", (0, 1, 2)),
                            ("--seed", (-1, 0, 2 ** 63))):
            argv += [flag, str(draw(st.sampled_from(edges)))]
    return argv + draw(stray_flags(VERIFY_FLAGS))


def _main_on(argv, text):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` with ``text`` on stdin,
    the code of argparse's exit included."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:
        code = e.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _refused(code, out, err):
    """Whether the run was refused: exit 2 with nothing on stdout and one
    ``error:`` line, after argparse's usage where it refused the argv."""
    if code != 2:
        return False
    lines = err.splitlines()
    assert out == "" and sum("error: " in line for line in lines) == 1, (out, err)
    assert re.match(r"(genhuff( \w+)?: )?error: ", lines[-1]), err
    return True


def _no_constant(name):
    raise ValueError(f"non-RFC JSON token {name}")


class TestArgvBattery:
    """``cli.main`` on argv at the edges, for every subcommand: exit 0 with a
    finite, valid answer, exit 1 from ``verify`` only with a FAIL row, or exit 2
    with one error line and nothing on stdout.  A flag of another subcommand is
    refused."""

    @given(code_argvs())
    @settings(max_examples=300, deadline=None)
    def test_code_answers_a_finite_valid_code_or_refuses(self, case):
        argv, text = case
        code, out, err = _main_on(["code", "-", "--format", "json", *argv], text)
        stray = [t for t in argv if t in EVERY_FLAG and t not in CODE_FLAGS]
        if _refused(code, out, err):
            assert ("unrecognized arguments: " in err if stray
                    else err.startswith("error: ")), (argv, err)
            return
        assert (code, err) == (0, "") and not stray, (argv, err)
        doc = json.loads(out, parse_constant=_no_constant)
        n, lengths, words = text.count("\n"), doc["lengths"], doc["codewords"]
        assert doc["n"] == len(lengths) == len(words) == n
        assert sum(Fraction(1, 2 ** l) for l in lengths) == 1
        assert [len(w) for w in words] == lengths and all(set(w) <= {"0", "1"} for w in words)
        ordered = sorted(words)
        assert not any(b.startswith(a) for a, b in zip(ordered, ordered[1:]))
        ends = (doc["value_bits"], doc["entropy_bits"], doc["bounds"]["lower"],
                doc["bounds"]["upper"])
        assert all(map(math.isfinite, ends)), ends

    @given(bounds_argvs())
    @settings(max_examples=300, deadline=None)
    def test_bounds_answers_a_finite_interval_or_refuses(self, case):
        argv, text = case
        code, out, err = _main_on(argv, text)
        stray = [t for t in argv if t in EVERY_FLAG and t not in BOUNDS_FLAGS]
        if _refused(code, out, err):
            assert ("unrecognized arguments: " in err if stray
                    else err.startswith("error: ")), (argv, err)
            return
        assert (code, err) == (0, "") and not stray, (argv, err)
        if "json" in argv:
            doc = json.loads(out, parse_constant=_no_constant)["bounds"]
            lower, upper = doc["lower"], doc["upper"]
        else:
            lower, upper = map(float, re.match(r"bounds: [\[(](\S+), (\S+)[\])]\n", out).groups())
        assert math.isfinite(lower) and math.isfinite(upper) and lower <= upper, out

    @given(sweep_argvs())
    @example(["sweep", "--figure", "l1region", "--step", "1e-05"])
    @settings(max_examples=60, deadline=None)
    def test_sweep_prints_finite_rows_or_refuses(self, argv):
        code, out, err = _main_on(argv, "")
        stray = [t for t in argv if t in EVERY_FLAG and t not in SWEEP_FLAGS]
        step = float(argv[argv.index("--step") + 1]) if "--step" in argv else 0.01
        if _refused(code, out, err):
            assert stray or not 1e-5 <= step <= 0.1, argv
            return
        assert (code, err) == (0, "") and not stray, (argv, err)
        header, *rows = out.splitlines()
        assert rows and all(row.count(",") == header.count(",") for row in rows), out
        for row in rows:
            for field in row.split(","):
                assert field in ("", "achievable", "approachable", "exact") \
                    or math.isfinite(float(field)), row

    @given(st.sampled_from((None, "json", "plain")), st.booleans(), stray_flags(()))
    @settings(max_examples=20, deadline=None)
    def test_benford_prints_a_finite_report_or_refuses(self, fmt_value, to_file, stray):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.txt")
            argv = ["benford", *(["--format", fmt_value] if fmt_value else []),
                    *(["--out", path] if to_file else []), *stray]
            code, out, err = _main_on(argv, "")
            if _refused(code, out, err):
                assert stray, (argv, err)
                return
            assert (code, err) == (0, "") and not stray, (argv, err)
            if to_file:
                assert out == ""
                with open(path) as f:
                    out = f.read()
        if fmt_value == "json":
            doc = json.loads(out, parse_constant=_no_constant)
            assert [b["q"] for b in doc["blocks"]] == [0.6, 2.0]
        else:
            assert out.startswith("benford digit distribution: ")
            assert not re.search(r"\b(nan|inf)\b", out), out

    @given(verify_argvs())
    @settings(max_examples=120, deadline=None)
    def test_verify_passes_fails_with_a_row_or_refuses(self, argv):
        code, out, err = _main_on(argv, "")
        if _refused(code, out, err):
            return
        assert code in (0, 1) and err == "", (argv, code, err)
        assert not [t for t in argv if t in EVERY_FLAG and t not in VERIFY_FLAGS], argv
        *rows, result = out.splitlines()
        fails = [row for row in rows if row.startswith("FAIL ")]
        assert result == ("result: ok" if code == 0 else f"result: {len(fails)} failure(s)")
        assert (code == 1) == bool(fails), out
        for row in rows:
            assert re.match(r"(PASS|FAIL) [\w -]+: \S|pmf: \S", row), row
        assert not re.search(r"\b(nan|inf)\b", out), out


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
        (("code", "{file}", "--format", "plain"), (), UNUSED + PROTOCOL + (REPORTS, "fractions")),
        (("code", "{file}", "--format", "csv"), (), UNUSED + PROTOCOL + (REPORTS, "fractions")),
        (("benford", "--format", "plain"), (REPORTS,), UNUSED + PROTOCOL),
        (("bounds", "--objective", "avg", "--p", "0.3"), (REPORTS,), UNUSED + PROTOCOL),
        (("sweep", "--figure", "mmpr"), (REPORTS,), UNUSED + PROTOCOL),
        # the other side of the guard: a run that needs them loads them
        (("code", "{file}", "--format", "json"), ("json",),
         VERIFY_MODULES + PROTOCOL + (REPORTS,)),
        (("verify", "--n", "3", "--trials", "1"), VERIFY_MODULES, PROTOCOL + ("json", REPORTS)),
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

    def test_cli_import_leaves_typing_out(self):
        # without site, which may import typing itself; the annotations are strings
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); import genhuff.cli; "
             "print(*sorted(m for m in ('typing', 'dataclasses', 'inspect', 'fractions') "
             "if m in sys.modules))", child_env()["PYTHONPATH"]],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""

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
    """verify's flags read the witness families and the oracle's cap themselves."""

    @staticmethod
    def verify_option(flag):
        sub = subparsers(build_parser(["verify"]))
        return next(a for a in sub.choices["verify"]._actions if flag in a.option_strings)

    def test_family_names_are_the_witness_families(self):
        from genhuff.witness import FamilyKind

        assert list(self.verify_option("--family").choices) == [k.value for k in FamilyKind]

    def test_n_cap_is_the_oracle_cap(self):
        from genhuff.oracle import DEFAULT_MAX_N

        assert f"2..{DEFAULT_MAX_N} " in self.verify_option("--n").help


def subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


# Each subcommand's arguments, in order: (option strings, or the dest of a
# positional; choices; default; required; type)
ARGUMENTS = {
    "code": (
        ("input", None, None, True, None),
        (("--objective",), ("avg", "mmpr", "dexp", "expavg"), "avg", False, None),
        (("--d",), None, None, False, float),
        (("--q",), None, None, False, float),
        (("--format",), ("json", "csv", "plain"), "plain", False, None),
        (("--out",), None, None, False, None),
        (("--normalize",), None, False, False, None),
        (("--assume-sorted",), None, False, False, None),
    ),
    "bounds": (
        ("input", None, None, False, None),
        (("--objective",), ("avg", "mmpr", "dexp", "expavg"), "mmpr", False, None),
        (("--p",), None, None, False, float),
        (("--j",), None, None, False, int),
        (("--d",), None, None, False, float),
        (("--q",), None, None, False, float),
        (("--format",), ("json", "plain"), "plain", False, None),
        (("--out",), None, None, False, None),
        (("--normalize",), None, False, False, None),
        (("--assume-sorted",), None, False, False, None),
    ),
    "sweep": (
        (("--figure",), ("mmpr", "dexp", "l1region"), None, True, None),
        (("--step",), None, 0.01, False, float),
        (("--format",), ("csv",), "csv", False, None),
        (("--out",), None, None, False, None),
    ),
    "verify": (
        (("--n",), None, None, False, int),
        (("--trials",), None, None, False, int),
        (("--seed",), None, None, False, int),
        (("--family",), ("mmpr-upper-high", "mmpr-upper-mid", "mmpr-upper-low",
                         "mmpr-lower-a", "mmpr-lower-b", "len-upper-tight", "len-lower-tight",
                         "l1-boundary", "l1-counter", "l1-always-one"), None, False, None),
        (("--p1",), None, None, False, float),
        (("--eps",), None, None, False, float),
        (("--q",), None, None, False, float),
        (("--format",), ("plain",), "plain", False, None),
        (("--out",), None, None, False, None),
    ),
    "benford": (
        (("--format",), ("json", "plain"), "plain", False, None),
        (("--out",), None, None, False, None),
    ),
}

HELP_LINES = {
    "code": "construct an optimal code for a distribution",
    "bounds": "closed-form bounds on the optimal value",
    "sweep": "emit bound curves as CSV",
    "verify": "run the oracle-backed invariant battery",
    "benford": "full worked example on the Benford distribution",
}

TOP_USAGE = "usage: genhuff [-h] {code,bounds,sweep,verify,benford} ...\n"


class TestParser:
    """The parser builds the flags of the subcommand argv names, and only those."""

    @staticmethod
    def arguments(sp):
        return tuple((tuple(a.option_strings) or a.dest,
                      None if a.choices is None else tuple(a.choices),
                      a.default, a.required, a.type)
                     for a in sp._actions if not isinstance(a, argparse._HelpAction))

    @pytest.mark.parametrize("name", list(ARGUMENTS))
    def test_each_subcommand_keeps_its_arguments(self, name):
        choices = subparsers(build_parser([name, "--out", "x"])).choices
        assert list(choices) == list(ARGUMENTS)
        assert self.arguments(choices[name]) == ARGUMENTS[name]
        assert all(self.arguments(sp) == () for other, sp in choices.items() if other != name)

    @pytest.mark.parametrize("argv", [[], ["-h"], ["cod"], ["--foo"], ["-h", "cod"]])
    def test_no_subcommand_named_builds_names_only(self, argv):
        choices = subparsers(build_parser(argv)).choices
        assert list(choices) == list(ARGUMENTS)
        assert all(self.arguments(sp) == () for sp in choices.values())

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        out = capsys.readouterr().out
        assert exc.value.code == 0 and out.startswith(TOP_USAGE)
        for name, help_line in HELP_LINES.items():
            assert re.search(rf"^ +{name} +{re.escape(help_line)}$", out, re.MULTILINE), name

    @pytest.mark.parametrize("name", list(ARGUMENTS))
    def test_subcommand_help_lists_its_flags(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main([name, "-h"])
        out = capsys.readouterr().out
        assert exc.value.code == 0 and out.startswith(f"usage: genhuff {name} [-h]")
        for strings, *_ in ARGUMENTS[name]:
            assert (strings if isinstance(strings, str) else strings[0]) in out

    @pytest.mark.parametrize("argv,message", [
        (("cod",), "argument command: invalid choice: 'cod' "
                   "(choose from 'code', 'bounds', 'sweep', 'verify', 'benford')"),
        # argparse reads -1 as the subcommand, so code's flags, built, go unread
        (("-1", "code", "{file}"), "argument command: invalid choice: '-1' "
                                   "(choose from 'code', 'bounds', 'sweep', 'verify', 'benford')"),
        (("--foo", "code", "{file}"), "unrecognized arguments: --foo"),
        (("code", "{file}", "extra"), "unrecognized arguments: extra"),
        ((), "the following arguments are required: command"),
    ])
    def test_top_level_usage_errors(self, capsys, three_file, argv, message):
        # as argparse words them on Python 3.10 to 3.13.0
        code, err = usage_error(capsys, *(three_file if a == "{file}" else a for a in argv))
        assert code == 2
        assert err == f"{TOP_USAGE}genhuff: error: {message}\n"
