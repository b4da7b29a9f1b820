import difflib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import powerpoly
from powerpoly import cli
from powerpoly.cli import _grid_values, build_parser, main
from powerpoly.cli import test_to_json as to_json
from powerpoly.parser import parse_polynomial
from powerpoly.power import TestFunction, count_vectors
from powerpoly.power import test_to_power as to_power

F = Fraction


def run_cli(args, tmp_path=None):
    """Invoke the CLI in-process, capturing stdout."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


GOLDEN = Path(__file__).resolve().parent / "golden"
DIFF_LINES = 300  # of a mismatch's unified diff, shown before the rest is cut


def assert_artifact(argv, code, golden, tmp_path):
    """stdout has the golden file's bytes and the exit code `code`, and
    `--out` writes the same bytes.

    A missing golden is written from this run and the test fails naming
    it: to re-record one, delete its file, rerun and review the diff in git.
    """
    got, out = run_cli(argv)
    if not golden.exists():
        golden.write_bytes(out.encode())
        pytest.fail(f"wrote the missing golden {golden}; review it and rerun")
    want = golden.read_bytes().decode()
    if out != want:
        diff = list(difflib.unified_diff(
            want.splitlines(), out.splitlines(), str(golden), "stdout", lineterm=""))
        if len(diff) > DIFF_LINES:
            diff[DIFF_LINES:] = [f"... {len(diff) - DIFF_LINES} more lines of diff"]
        pytest.fail("stdout differs from its golden:\n" + "\n".join(diff))
    assert got == code
    path = tmp_path / "artifact"
    assert run_cli(argv + ["--out", str(path)]) == (code, "")
    assert path.read_bytes() == out.encode()


@pytest.fixture
def indep22(tmp_path):
    path = tmp_path / "indep22.json"
    path.write_text(json.dumps({"kind": "independence", "params": {"p": 2, "q": 2}}))
    return str(path)


@pytest.fixture
def square(tmp_path):
    def make(t):
        path = tmp_path / f"square_{t.replace('/', '_')}.json"
        path.write_text(
            json.dumps(
                {
                    "kind": "polytope",
                    "params": {
                        "A": [["-1", "0"], ["0", "-1"]],
                        "b": [f"-{t}", f"-{t}"],
                        "k": 3,
                    },
                }
            )
        )
        return str(path)

    return make


class TestGb:
    def test_basic(self):
        code, out = run_cli(
            ["gb", "--gens", "p1*p2-p3^2", "--gens", "p1-p3", "--vars", "p1,p2,p3",
             "--order", "grlex"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["basis"] == ["p1 - p3", "p2*p3 - p3^2"]

    def test_step_limit_exit_code(self):
        code, _ = run_cli(
            ["gb", "--gens", "p1^5*p2^4-p3^9", "--gens", "p1*p2*p3-1",
             "--gens", "p2^7-p3^2", "--vars", "p1,p2,p3", "--step-limit", "3"]
        )
        assert code == 3

    def test_bad_input_exit_code(self):
        code, _ = run_cli(["gb", "--gens", "p1 + q9", "--vars", "p1,p2"])
        assert code == 1

    def test_signs_and_contents_are_normalized(self):
        code, out = run_cli(
            ["gb", "--gens", "-2/3*p1^2 + p2", "--gens", "-4*p1*p2 + 6/5*p2^2",
             "--vars", "p1,p2"]
        )
        assert code == 0
        assert json.loads(out)["basis"] == ["p1*p2 - 3/10*p2^2", "p1^2 - 3/2*p2", "p2^3 - 50/3*p2^2"]


@pytest.mark.parametrize("limit", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["gb", "--gens", "p1-p3", "--vars", "p1,p2,p3"],
        # A limit below 1 is refused before the command draws on it:
        # coeff-polytope ticks its rows, threshold on rank_lt its squares.
        ["coeff-polytope", "--f", "p1+p2-p3", "--vars", "p1,p2,p3", "--n", "3",
         "--alpha", "1/20"],
        ["threshold", "--hypothesis", "RANK"],
    ],
    ids=["gb", "coeff-polytope", "threshold-rank"],
)
def test_step_limit_below_one_is_an_error(argv, limit, tmp_path, capsys):
    rank = tmp_path / "rank.json"
    rank.write_text(json.dumps({"kind": "rank_lt", "params": {"p": 3, "q": 3, "r": 3}}))
    argv = [str(rank) if a == "RANK" else a for a in argv]
    code, _ = run_cli(argv + ["--step-limit", limit])
    assert code == 1
    assert "step limit must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["threshold", "separating"])
def test_coordinate_planes_are_not_an_empty_null_set(command, tmp_path):
    # p1 p2 is >= 0 on the simplex but vanishes on two of its faces.
    path = tmp_path / "hypothesis.json"
    path.write_text(json.dumps({"kind": "custom", "params": {"k": 3, "generators": ["p1*p2"]}}))
    code, out = run_cli([command, "--hypothesis", str(path)])
    assert code == 0
    assert json.loads(out)["family"] == "custom"


@pytest.mark.parametrize("command", ["umpu", "coeff-polytope"])
def test_coefficient_rows_are_counted_before_they_are_built(command, capsys):
    # C(302, 2) = 45,451 rows at n = 300: a budget of 10 refuses them at once.
    argv = [command, "--f", "p1+p2-p3", "--vars", "p1,p2,p3", "--n", "300", "--alpha", "1/20"]
    start = time.perf_counter()
    code, out = run_cli(argv + ["--step-limit", "10"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "error: computation exceeded step limit 10\n"


def test_usage_error_exits_one_not_the_verdict_code(capsys):
    # argparse would exit 2, the code of a "does not exist" verdict.
    code, out = run_cli(["gb", "--gens", "p1-p3", "--vars", "p1,p2,p3", "--order", "lex"])
    assert (code, out) == (1, "")
    assert "argument --order: invalid choice: 'lex'" in capsys.readouterr().err
    assert run_cli(["polytope-exists"])[0] == 1  # a required option missing
    assert run_cli(["no-such-command"])[0] == 1


@pytest.mark.parametrize("command", ["threshold", "polytope-exists"])
@pytest.mark.parametrize(
    "payload, message",
    [
        ({"kind": "polytope", "params": {"b": [0]}}, "missing parameter 'A'"),
        ([1, 2], "expected an object, got list"),
    ],
    ids=["missing-parameter", "not-an-object"],
)
def test_malformed_hypothesis_json_is_an_error(command, payload, message, tmp_path, capsys):
    path = tmp_path / "hypothesis.json"
    path.write_text(json.dumps(payload))
    assert main([command, "--hypothesis", str(path)]) == 1
    assert capsys.readouterr().err == f"error: malformed hypothesis JSON: {message}\n"


@pytest.mark.parametrize("command", ["threshold", "separating"])
@pytest.mark.parametrize(
    "k, generators",
    [(3, ["p1 + p2 + p3"]), (1, ["p1"]), (3, ["p1 - p2", "p1 - p2 - 1"]),
     (3, ["p1^2 + p2^2 + p3^2"]), (3, ["p1 - 1/2", "p2 - 2/3"])],
    ids=["sum-of-all", "k1", "inconsistent", "positive-form", "linear-off-the-simplex"],
)
def test_empty_null_set_is_an_error(command, k, generators, tmp_path, capsys):
    # A reduced basis {1} has no zero on the simplex, nor has a sum of
    # squares of the coordinates, nor have p1 = 1/2 and p2 = 2/3, which
    # leave p3 = -1/6: no bound, witness or separating polynomial is
    # printed for them.
    path = tmp_path / "hypothesis.json"
    path.write_text(json.dumps({"kind": "custom", "params": {"k": k, "generators": generators}}))
    assert main([command, "--hypothesis", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: empty null set: ")


@pytest.mark.parametrize("command", ["threshold", "separating"])
@pytest.mark.parametrize(
    "payload, code",
    [({"kind": "affine", "params": {"C": [[1, 0, 0], [0, 1, 0]], "d": ["1/2", "2/3"], "k": 3}}, 1),
     ({"kind": "symmetry", "params": {"p": 3}}, 0)],
    ids=["affine-off-the-simplex", "symmetry-3"],
)
def test_linear_null_set_is_checked_against_the_simplex(command, payload, code, tmp_path, capsys):
    # p1 = 1/2 and p2 = 2/3 leave p3 = -1/6: no simplex point, and no
    # bound is printed.  The symmetric 3x3 tables meet the simplex.
    path = tmp_path / "hypothesis.json"
    path.write_text(json.dumps(payload))
    assert main([command, "--hypothesis", str(path)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err.startswith("error: empty null set: the linear generators ")
    else:
        assert json.loads(captured.out)["family"] == "symmetry"


ONE_SIGN = "empty null set: f has one strict sign on the simplex, so P0 has no point"
WHOLE = "null set is the whole simplex, no alternative: f vanishes wherever sum(p) = 1"


@pytest.mark.parametrize("command", ["umpu", "coeff-polytope"])
@pytest.mark.parametrize(
    "f, message",
    [
        ("p1+p2+p3", ONE_SIGN),
        ("2*p1^2+2*p2^2+2*p3^2+4*p1*p2+4*p1*p3+4*p2*p3", ONE_SIGN),
        ("p1+p2+p3-1", WHOLE),
        ("p1^2+p2^2+p3^2", ONE_SIGN),
        ("p1+p2+2*p3", ONE_SIGN),
        ("p1^2-p1*p2+p2^2+p3^2", ONE_SIGN),
    ],
    ids=["sum-of-all", "twice-its-square", "vanishes-on-the-simplex", "squares", "linear",
         "mixed-coefficients"],
)
def test_f_that_does_not_split_the_simplex_is_an_error(command, f, message, capsys):
    # f is 1, 2 or 0 wherever sum(p) = 1, or, in the last three, positive
    # though not constant there: no verdict, test or polytope.
    argv = [command, "--f", f, "--vars", "p1,p2,p3", "--n", "4", "--alpha", "1/20"]
    assert run_cli(argv) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["threshold", "separating"])
@pytest.mark.parametrize(
    "payload, code",
    [({"kind": "custom", "params": {"k": 3, "generators": ["p1 + p2 + p3 - 1"]}}, 1),
     ({"kind": "affine", "params": {"C": [[1, 1, 1]], "d": [1], "k": 3}}, 1),
     ({"kind": "custom", "params": {"k": 3, "generators": ["p1 + p2 + p3 - 1", "p1*p2"]}}, 0)],
    ids=["custom", "affine", "one-of-two"],
)
def test_generators_vanishing_on_the_simplex(command, payload, code, tmp_path, capsys):
    # Every generator is 0 wherever sum(p) = 1: P0 is the whole simplex and
    # no Groebner basis is asked for.  One vanishing generator of two
    # leaves P0 = {p1 p2 = 0}, with its answer.
    path = tmp_path / "hypothesis.json"
    path.write_text(json.dumps(payload))
    assert main([command, "--hypothesis", str(path)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == ""
        assert captured.err == (
            "error: null set is the whole simplex, no alternative: "
            "every generator vanishes wherever sum(p) = 1\n"
        )
    else:
        answer = json.loads(captured.out)
        witnesses = [v for key, v in answer.items() if key.endswith(("_witness", "_separating"))]
        assert witnesses == ["p1^2*p2^2", "p1^2*p2^2"]


@pytest.mark.parametrize(
    "payload, shown",
    [
        ({"kind": "independence", "params": {"p": 2.9, "q": 3}}, "2.9"),
        ({"kind": "rank_lt", "params": {"p": 3, "q": 3, "r": 2.0}}, "2.0"),
        ({"kind": "symmetry", "params": {"p": True}}, "True"),
        ({"kind": "logodds", "params": {"a": ["1", "-1"], "c": "2", "k": 3.7}}, "3.7"),
        ({"kind": "affine", "params": {"C": [[1, -1, 0]], "d": [0], "k": False}}, "False"),
        ({"kind": "independence", "params": {"p": "2", "q": 2}}, "'2'"),
        ({"kind": "rank_lt", "params": {"p": 3, "q": 3, "r": "1_0"}}, "'1_0'"),
    ],
    ids=["independence", "rank_lt", "symmetry", "logodds", "affine", "string", "underscored"],
)
def test_integer_parameters_refuse_floats_and_bools(payload, shown, tmp_path, capsys):
    # int() would truncate 2.9 to 2, read True as 1 and parse "1_0" as 10,
    # and the command would answer for a hypothesis nobody asked about.
    path = tmp_path / "hypothesis.json"
    path.write_text(json.dumps(payload))
    assert main(["threshold", "--hypothesis", str(path)]) == 1
    assert capsys.readouterr().err == f"error: expected an integer, got {shown}\n"


@pytest.mark.parametrize(
    "params, shown",
    [
        ({"substituted": "false"}, "expected a JSON boolean, got 'false'"),
        ({"substituted": 0}, "expected a JSON boolean, got 0"),
        ({"generators": "p1-p2"}, "expected generators as a list of strings, got 'p1-p2'"),
        ({"vars": "p1p2p3"}, "expected vars as a list of strings, got 'p1p2p3'"),
    ],
    ids=["string-substituted", "int-substituted", "string-generators", "string-vars"],
)
def test_custom_parameters_refuse_strings_and_ints(params, shown, tmp_path, capsys):
    # bool("false") is True, and a string iterates one character at a time:
    # either would answer for a hypothesis nobody asked about.
    path = tmp_path / "hypothesis.json"
    spec = {"k": 3, "generators": ["p1+p2-p3"], **params}
    path.write_text(json.dumps({"kind": "custom", "params": spec}))
    assert main(["threshold", "--hypothesis", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {shown}\n"


@pytest.mark.parametrize(
    "n, x, shown",
    [(2.9, [2, 0], "2.9"), (True, [1, 0], "True"), (2, [1.7, 0.3], "1.7"),
     ("2", [2, 0], "'2'"), (2, ["2", "0"], "'2'")],
    ids=["float-n", "bool-n", "float-count", "string-n", "string-count"],
)
def test_test_function_integers_refuse_floats_and_bools(n, x, shown, tmp_path, capsys):
    # int() would truncate 2.9 to 2, read True as 1 and turn (1.7, 0.3)
    # into the misleading count vector (1, 0).
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"n": n, "k": 2, "values": [{"x": x, "phi": "1/2"}]}))
    code, out = run_cli(["mc-validate", "--test", str(path), "--pi", "1/2,1/2", "--reps", "10"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        f"error: malformed test-function JSON: expected an integer, got {shown}\n"
    )


@pytest.mark.parametrize(
    "command, payload, shown",
    [
        ("threshold", {"kind": "affine", "params": {"C": "110", "d": [0], "k": 3}},
         "expected C as a list, got '110'"),
        ("threshold", {"kind": "affine", "params": {"C": ["1-10"], "d": [0], "k": 3}},
         "expected each row of C as a list, got '1-10'"),
        ("threshold", {"kind": "affine", "params": {"C": [[1, -1, 0]], "d": "0", "k": 3}},
         "expected d as a list, got '0'"),
        ("polytope-exists", {"kind": "polytope", "params": {"A": "10", "b": ["1/4"], "k": 3}},
         "expected A as a list, got '10'"),
        ("polytope-exists",
         {"kind": "polytope", "params": {"A": [[1, 0], "01"], "b": ["1/4", "1/4"], "k": 3}},
         "expected each row of A as a list, got '01'"),
        ("polytope-exists",
         {"kind": "polytope", "params": {"A": [[1, 0], [0, 1]], "b": "11", "k": 3}},
         "expected b as a list, got '11'"),
        ("threshold", {"kind": "logodds", "params": {"a": "11", "c": "1", "k": 3}},
         "expected a as a list, got '11'"),
    ],
    ids=["C", "C-row", "d", "A", "A-row", "b", "a"],
)
def test_hypothesis_lists_refuse_strings(command, payload, shown, tmp_path, capsys):
    # A string iterates one character at a time: "11" read as the log-odds
    # coefficients [1, 1] answered bounds 4/4 for a hypothesis nobody wrote.
    path = tmp_path / "hypothesis.json"
    path.write_text(json.dumps(payload))
    assert run_cli([command, "--hypothesis", str(path)]) == (1, "")
    assert capsys.readouterr().err == f"error: {shown}\n"


@pytest.mark.parametrize(
    "payload, shown",
    [
        ({"n": 2, "k": 2, "values": "[]"}, "expected values as a list, got '[]'"),
        ({"n": 2, "k": 2, "values": [{"x": "20", "phi": "1"}, {"x": [1, 1], "phi": "0"},
                                     {"x": [0, 2], "phi": "0"}]},
         "expected x as a list, got '20'"),
    ],
    ids=["values", "x"],
)
def test_test_function_lists_refuse_strings(payload, shown, tmp_path, capsys):
    # "x": "20" was read as the count vector (2, 0).
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(payload))
    assert run_cli(["power-grid", "--test", str(path), "--res", "3"]) == (1, "")
    assert capsys.readouterr().err == f"error: malformed test-function JSON: {shown}\n"


@pytest.mark.parametrize(
    "phi, shown",
    [
        (True, "expected an exact rational (p/q string), got True"),
        (1.0, "expected an exact rational (p/q string), got 1.0"),
        ("0.5", "not an exact rational (use p/q form): '0.5'"),
    ],
    ids=["bool", "float", "decimal-string"],
)
def test_test_function_phi_refuses_inexact_values(phi, shown, tmp_path, capsys):
    # After an int 1: True and 1.0 equal 1 and share its hash, so a cache keyed
    # by value would read them as the 1 already seen.
    path = tmp_path / "phi.json"
    values = [{"x": [2, 0], "phi": 1}, {"x": [1, 1], "phi": phi}, {"x": [0, 2], "phi": 1}]
    path.write_text(json.dumps({"n": 2, "k": 2, "values": values}))
    code, out = run_cli(["power-grid", "--test", str(path), "--res", "3"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error: malformed test-function JSON: {shown}\n"


@pytest.mark.parametrize(
    "command",
    [["power-grid", "--res", "3"], ["mc-validate", "--pi", "1/2,1/2", "--reps", "10"]],
    ids=["power-grid", "mc-validate"],
)
def test_test_function_refuses_a_repeated_count_vector(command, tmp_path, capsys):
    # Keeping the last phi listed would read this file as the all-zero test.
    path = tmp_path / "phi.json"
    values = [{"x": [2, 0], "phi": "1"}, {"x": [1, 1], "phi": "0"}, {"x": [2, 0], "phi": "0"}]
    path.write_text(json.dumps({"n": 2, "k": 2, "values": values}))
    code, out = run_cli([command[0], "--test", str(path), *command[1:]])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "error: malformed test-function JSON: count vector [2, 0] listed twice\n"
    )


@pytest.mark.parametrize(
    "command",
    [["power-grid", "--res", "3"], ["mc-validate", "--pi", "1/3,1/3,1/3", "--reps", "10"]],
    ids=["power-grid", "mc-validate"],
)
def test_test_function_refuses_a_missing_count_vector(command, tmp_path, capsys):
    # Reading the vectors left out as phi = 0 would answer for a test
    # nobody wrote; the first one missing, in descending lex order, is named.
    path = tmp_path / "phi.json"
    values = [{"x": [3, 0, 0], "phi": "1"}, {"x": [0, 0, 3], "phi": "0"}]
    path.write_text(json.dumps({"n": 3, "k": 3, "values": values}))
    code, out = run_cli([command[0], "--test", str(path), *command[1:]])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "error: malformed test-function JSON: count vector [2, 1, 0] missing\n"
    )


@pytest.mark.parametrize(
    "command",
    [
        ["power-grid", "--res", "3"],
        ["mc-validate", "--pi", "1/5,1/5,1/5,1/5,1/5", "--reps", "10"],
    ],
    ids=["power-grid", "mc-validate"],
)
def test_short_test_function_is_refused_before_its_table(command, tmp_path, capsys):
    # 33 bytes that name a test on C(124, 4) = 9,381,251 count vectors: the
    # short list is refused before a table of that size is built.
    path = tmp_path / "phi.json"
    path.write_text('{"n": 120, "k": 5, "values": []}\n')
    start = time.perf_counter()
    code, out = run_cli([command[0], "--test", str(path), *command[1:]])
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "error: malformed test-function JSON: count vector [120, 0, 0, 0, 0] missing\n"
    )


def test_test_function_missing_vector_is_named_after_validation(tmp_path, capsys):
    # Entries are validated first, so a bad vector keeps its own message.
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"n": 2, "k": 2, "values": [{"x": [3, 0], "phi": "1"}]}))
    code, out = run_cli(["power-grid", "--test", str(path), "--res", "3"])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: (3, 0) is not a count vector for n=2, k=2\n"


# (n, k, entries, message) of tests that no constructor may build; the
# first bad entry in input order is the one named.
NOT_A_COUNT_VECTOR = "{} is not a count vector for n=2, k=2"
BAD_TESTS = [
    pytest.param(2, 2, [([2, 0], "1"), ([1, 0, 1], "0"), ([0, 2], "0")],
                 NOT_A_COUNT_VECTOR.format((1, 0, 1)), id="wrong-length"),
    pytest.param(2, 2, [([2, 0], "1"), ([3, -1], "0"), ([0, 2], "0")],
                 NOT_A_COUNT_VECTOR.format((3, -1)), id="negative-count"),
    pytest.param(2, 2, [([2, 0], "1"), ([1, 0], "0"), ([0, 2], "0")],
                 NOT_A_COUNT_VECTOR.format((1, 0)), id="wrong-sum"),
    pytest.param(2, 2, [([2, 0], "1"), ([1, 1], "-1/2"), ([0, 2], "0")],
                 "phi((1, 1)) = -1/2 outside [0, 1]", id="phi-below-0"),
    pytest.param(2, 2, [([2, 0], "1"), ([1, 1], "3/2"), ([0, 2], "0")],
                 "phi((1, 1)) = 3/2 outside [0, 1]", id="phi-above-1"),
    pytest.param(0, 2, [([0, 0], "1")], "need n >= 1 and k >= 2", id="n0"),
    pytest.param(2, 1, [([2], "1")], "need n >= 1 and k >= 2", id="k1"),
    pytest.param(2, 2, [([2, 0], "2"), ([1, 0], "0"), ([0, 2], "0")],
                 "phi((2, 0)) = 2 outside [0, 1]", id="phi-then-count"),
    pytest.param(2, 2, [([2, 0], "1"), ([1, 0], "2"), ([0, 2], "-1")],
                 NOT_A_COUNT_VECTOR.format((1, 0)), id="count-then-phi"),
]


@pytest.mark.parametrize("n, k, entries, message", BAD_TESTS)
def test_constructor_and_reader_refuse_alike(n, k, entries, message, tmp_path, capsys):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TestFunction(n, k, {tuple(x): F(phi) for x, phi in entries})
    path = tmp_path / "phi.json"
    values = [{"x": x, "phi": phi} for x, phi in entries]
    path.write_text(json.dumps({"n": n, "k": k, "values": values}))
    assert run_cli(["power-grid", "--test", str(path), "--res", "3"]) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_commands_dispatch_through_the_module_binding(monkeypatch, tmp_path):
    # The parser is built once per process; a wrapper installed on the
    # module after the first call, as a tracer installs one, must be the
    # command the next call runs.
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(to_json(TestFunction.constant(2, 2, F(1, 2)))))
    argv = ["power-grid", "--test", str(path), "--res", "3"]
    first = run_cli(argv)
    original, seen = cli.cmd_power_grid, []

    def wrapper(args):
        seen.append(args.res)
        return original(args)

    monkeypatch.setattr(cli, "cmd_power_grid", wrapper)
    assert run_cli(argv) == first
    assert seen == [3]


@pytest.mark.parametrize("bad", ["", "p 1", "2p"])
def test_names_the_grammar_cannot_match_are_refused(bad, tmp_path, capsys):
    # No token is ever read as such a name, yet "p1,,p2" used to be accepted.
    names = ["p1", bad, "p2"]
    code, out = run_cli(["gb", "--gens", "p2", "--vars", ",".join(names)])
    assert (code, out) == (1, "")
    message = f"error: invalid variable name {bad!r}\n"
    assert capsys.readouterr().err == message
    path = tmp_path / "hypothesis.json"
    path.write_text(
        json.dumps({"kind": "custom", "params": {"k": 3, "vars": names, "generators": ["p2"]}})
    )
    assert run_cli(["threshold", "--hypothesis", str(path)]) == (1, "")
    assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "argv",
    [
        ["gb", "--gens", "p1*p2 - p3", "--vars", "VARS"],
        ["umpu", "--f", "p1+p2-p3", "--vars", "VARS", "--n", "3", "--alpha", "1/20"],
        ["coeff-polytope", "--f", "p1+p2-p3", "--vars", "VARS", "--n", "3", "--alpha", "1/20"],
        ["recover-test", "--beta", "p1^3 + p2^3 + p3^3", "--vars", "VARS", "--n", "3"],
    ],
    ids=["gb", "umpu", "coeff-polytope", "recover-test"],
)
def test_vars_names_are_stripped(argv, capsys):
    spaced = run_cli([" p1, p2 ,\tp3" if a == "VARS" else a for a in argv])
    assert capsys.readouterr().err == ""
    assert spaced == run_cli(["p1,p2,p3" if a == "VARS" else a for a in argv])
    assert spaced[0] == 0


@pytest.mark.parametrize("argv", [["--help"], ["gb", "--help"], ["--version"]])
def test_help_and_version_exit_zero(argv, capsys):
    code, out = run_cli(argv)
    assert code == 0
    assert "powerpoly" in out + capsys.readouterr().out


def test_unwritable_out_is_an_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code, stdout = run_cli(["gb", "--gens", "p1", "--vars", "p1", "--out", str(out)])
    assert (code, stdout) == (1, "")
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def indep(p, q):
    return {"kind": "independence", "params": {"p": p, "q": q}}


def sphere(k, delta_sq):
    return {"kind": "sphere", "params": {"k": k, "delta_sq": delta_sq}}


# The input files of the goldens: each dict in a golden's argv is written
# as JSON, and its path stands in its place.
SQUARE = [["-1", "0"], ["0", "-1"]]
WIDE = {"kind": "polytope", "params": {"A": SQUARE, "b": ["-3/4", "-3/4"], "k": 3}}
NARROW = {"kind": "polytope", "params": {"A": SQUARE, "b": ["-1/4", "-1/4"], "k": 3}}
PHI = {"n": 2, "k": 3, "values": [
    {"x": [2, 0, 0], "phi": "1"}, {"x": [1, 1, 0], "phi": "1/2"},
    {"x": [1, 0, 1], "phi": "0"}, {"x": [0, 2, 0], "phi": "1/3"},
    {"x": [0, 1, 1], "phi": "0"}, {"x": [0, 0, 2], "phi": "1"}]}
# The test that recover-test finds for p1^3 + 3*p1*p2*p3 + p3^3.
PHI3 = {"n": 3, "k": 3, "values": [
    {"x": list(x), "phi": {(3, 0, 0): "1", (1, 1, 1): "1/2", (0, 0, 3): "1"}.get(x, "0")}
    for x in count_vectors(3, 3)]}
# One hypothesis of each family, for the default threshold and separating output.
FAMILIES = [
    ("independence-2x3", indep(2, 3)),
    ("symmetry-3", {"kind": "symmetry", "params": {"p": 3}}),
    ("sphere", sphere(3, "1/6")),
    ("logodds", {"kind": "logodds", "params": {"a": ["1", "-1"], "c": "2", "k": 3}}),
    ("motzkin", {"kind": "motzkin", "params": {}}),
    ("custom-p1p2", {"kind": "custom", "params": {"k": 3, "generators": ["p1*p2"]}}),
    # The bounded-rank theorem gives the bounds and the witnesses.
    ("rank-lt-2x3", {"kind": "rank_lt", "params": {"p": 2, "q": 3, "r": 2}}),
]
# Negative and fractional leading coefficients, so that a change to sign or
# content normalization shows.
GB_GENS = [
    ("signs", ["-2/3*p1^2 + p2", "-4*p1*p2 + 6/5*p2^2"], "p1,p2"),
    ("mixed", ["p1*p2-p3^2", "p1^2*p3 - 3/4*p2", "p1 - 2*p3 + 1/3"], "p1,p2,p3"),
]
SPHERE_F = "p1^2 + p2^2 + p3^2 - 2/3*p1 - 2/3*p2 - 2/3*p3 + 1/6"


def f_argv(command, f, n, alpha, *flags):
    return [command, "--f", f, "--vars", "p1,p2,p3", "--n", n, "--alpha", alpha, *flags]


# (id, argv, exit code) of every pinned CLI artifact; tests/golden/<id>.out
# holds its stdout bytes.
GOLDENS = [
    *((f"gb-{name}-{order}",
       ["gb", *(a for g in gens for a in ("--gens", g)), "--vars", names, "--order", order], 0)
      for name, gens, names in GB_GENS for order in ("grlex", "grevlex")),
    *((f"{command}-{name}", [command, "--hypothesis", spec], 0)
      for name, spec in FAMILIES for command in ("threshold", "separating")),
    ("threshold-independence-2x2", ["threshold", "--hypothesis", indep(2, 2)], 0),
    # The two largest SUB witnesses of the benchmark's threshold pool.
    ("threshold-independence-3x4", ["threshold", "--hypothesis", indep(3, 4)], 0),
    ("threshold-sphere-k8", ["threshold", "--hypothesis", sphere(8, "1/8")], 0),
    ("separating-polytope", ["separating", "--hypothesis", WIDE], 0),
    ("polytope-exists-exists", ["polytope-exists", "--hypothesis", WIDE], 0),
    ("polytope-exists-not-exists", ["polytope-exists", "--hypothesis", NARROW], 2),
    # h_star, beta and the test of each verdict.
    ("umpu-exists", f_argv("umpu", "p1+p2-p3", "3", "1/20"), 0),
    ("umpu-not-exists", f_argv("umpu", "2*p1+p2-p3", "3", "1/20"), 2),
    ("umpu-candidate", f_argv("umpu", SPHERE_F, "6", "1/20"), 0),
    ("umpu-exists-vertices", f_argv("umpu", "p1+p2-p3", "3", "1/20", "--emit-vertices"), 0),
    # The H-rep rows, the halfspace count and the vertices.
    ("coeff-polytope-enumerate",
     f_argv("coeff-polytope", "p1+p2-p3", "3", "1/20", "--enumerate"), 0),
    ("coeff-polytope-sphere-n5", f_argv("coeff-polytope", SPHERE_F, "5", "1/20", "--enumerate"), 0),
    ("coeff-polytope-n4-half", f_argv("coeff-polytope", "p1+p2-p3", "4", "1/2", "--enumerate"), 0),
    # f~^2 = (p1 - p2)^2 has no p3, so every L with L3 >= 2 is a zero row.
    ("coeff-polytope-zero-rows", f_argv("coeff-polytope", "p1-p2", "3", "1/10", "--enumerate"), 0),
    ("recover-test",
     ["recover-test", "--beta", "p1^3 + 3*p1*p2*p3 + p3^3", "--vars", "p1,p2,p3", "--n", "3"], 0),
    ("mc-validate",
     ["mc-validate", "--test", PHI, "--pi", "1/2,1/3,1/6", "--reps", "1000", "--seed", "7"], 0),
    ("power-grid", ["power-grid", "--test", PHI, "--res", "4"], 0),
    ("power-grid-max-half", ["power-grid", "--test", PHI3, "--res", "11", "--max", "1/2"], 0),
]


@pytest.mark.parametrize("name, argv, code", GOLDENS, ids=[name for name, _, _ in GOLDENS])
def test_golden(name, argv, code, tmp_path):
    args = []
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            path = tmp_path / f"input{i}.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        args.append(arg)
    assert_artifact(args, code, GOLDEN / f"{name}.out", tmp_path)


def test_goldens_cover_every_subcommand_and_file():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert sorted(sub.choices) == sorted({argv[0] for _, argv, _ in GOLDENS})
    names = [f"{name}.out" for name, _, _ in GOLDENS]
    assert len(set(names)) == len(names)
    files = [str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*") if p.is_file()]
    assert [f for f in sorted(files) if f not in names] == []  # no orphaned golden


# Every option of every subcommand, with its default, from a minimal argv.
OPTION_TABLE = [
    (
        ["gb", "--gens", "p1", "--vars", "p1"],
        "cmd_gb",
        {"gens": ["p1"], "vars": "p1", "order": "grevlex", "step_limit": None, "out": None},
    ),
    (
        ["threshold", "--hypothesis", "h.json"],
        "cmd_threshold",
        {"hypothesis": "h.json", "step_limit": None, "out": None},
    ),
    (
        ["separating", "--hypothesis", "h.json"],
        "cmd_separating",
        {"hypothesis": "h.json", "step_limit": None, "out": None},
    ),
    (
        ["umpu", "--f", "p1", "--vars", "p1,p2", "--n", "2", "--alpha", "1/2"],
        "cmd_umpu",
        {"f": "p1", "vars": "p1,p2", "n": 2, "alpha": "1/2", "emit_vertices": False,
         "step_limit": None, "out": None},
    ),
    (
        ["coeff-polytope", "--f", "p1", "--vars", "p1,p2", "--n", "2", "--alpha", "1/2"],
        "cmd_polytope",
        {"f": "p1", "vars": "p1,p2", "n": 2, "alpha": "1/2", "enumerate": False,
         "step_limit": None, "out": None},
    ),
    (
        ["polytope-exists", "--hypothesis", "h.json"],
        "cmd_polytope_exists",
        {"hypothesis": "h.json", "step_limit": None, "out": None},
    ),
    (
        ["power-grid", "--test", "t.json", "--res", "3"],
        "cmd_power_grid",
        {"test": "t.json", "res": 3, "max": "1", "step_limit": None, "out": None},
    ),
    (
        ["recover-test", "--beta", "p1^2", "--vars", "p1,p2", "--n", "2"],
        "cmd_recover_test",
        {"beta": "p1^2", "vars": "p1,p2", "n": 2, "out": None},
    ),
    (
        ["mc-validate", "--test", "t.json", "--pi", "1/2,1/2"],
        "cmd_mc_validate",
        {"test": "t.json", "pi": "1/2,1/2", "reps": 100000, "seed": 0, "out": None},
    ),
]


@pytest.mark.parametrize(
    "argv, func, options", OPTION_TABLE, ids=[argv[0] for argv, _, _ in OPTION_TABLE]
)
def test_option_table(argv, func, options):
    args = vars(build_parser().parse_args(argv))
    assert args.pop("func").__name__ == func
    assert args == {"command": argv[0], **options}


def test_option_table_covers_every_subcommand():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert sorted(sub.choices) == sorted(argv[0] for argv, _, _ in OPTION_TABLE)


def test_one_parser_per_process_matches_fresh_parsers(monkeypatch, capsys):
    # Consecutive calls share one parser; each must answer as a parser built
    # for it alone would, options of earlier calls leaving no trace.
    calls = [
        ["umpu", "--f", "p1+p2-p3", "--vars", "p1,p2,p3", "--n", "3", "--alpha", "1/20",
         "--emit-vertices"],
        ["gb", "--gens", "p1-p3", "--vars", "p1,p2,p3", "--order", "lex"],
        ["umpu", "--f", "2*p1+p2-p3", "--vars", "p1,p2,p3", "--n", "3", "--alpha", "1/20"],
        ["--version"],
        ["gb", "--gens", "p1*p2-p3^2", "--gens", "p1-p3", "--vars", "p1,p2,p3"],
        ["coeff-polytope", "--f", "p1+p2-p3", "--vars", "p1,p2,p3", "--n", "3",
         "--alpha", "1/20", "--step-limit", "0"],
        ["polytope-exists"],
        ["recover-test", "--beta", "p1^2 + p2^2", "--vars", "p1,p2", "--n", "2"],
        ["coeff-polytope", "--f", "p1+p2-p3", "--vars", "p1,p2,p3", "--n", "3",
         "--alpha", "1/20"],
    ]

    def run_all():
        results = []
        for argv in calls:
            code = main(argv)
            results.append((code, *capsys.readouterr()))
        return results

    shared = run_all()
    monkeypatch.setattr(cli, "_parser", build_parser)
    assert shared == run_all()
    assert [code for code, _, _ in shared] == [0, 1, 2, 0, 0, 1, 1, 0, 0]
    assert shared[3][1] == f"powerpoly {powerpoly.__version__}\n"


class TestThreshold:
    def test_independence(self, indep22):
        code, out = run_cli(["threshold", "--hypothesis", indep22])
        assert code == 0
        payload = json.loads(out)
        assert payload["ntub_bound"] == 4
        assert payload["sub_bound"] == 4
        assert payload["cut_out_degree"] == 2
        # The bounds come from the basis alone; no null point is sampled.
        assert "gradient_evidence" not in payload

    @pytest.mark.parametrize("p, q", [(2, 2), (2, 3), (3, 4)])
    def test_independence_witness_is_the_sum_of_squared_minors(self, p, q, tmp_path):
        # Independence is rank < 2, so it takes the bounded-rank theorem:
        # the SUB witness, printed in all p q cells, is the sum of the
        # squared 2x2 minors, built here from their determinant formula.
        # It vanishes on rank-1 tables (outer products of seeded positive
        # rows and columns) and is positive at seeded tables off them.
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"kind": "independence", "params": {"p": p, "q": q}}))
        names = [f"p{i + 1}{j + 1}" for i in range(p) for j in range(q)]
        cells = [[names[i * q + j] for j in range(q)] for i in range(p)]
        minors = [
            f"{cells[i][j]}*{cells[u][v]} - {cells[i][v]}*{cells[u][j]}"
            for i, u in itertools.combinations(range(p), 2)
            for j, v in itertools.combinations(range(q), 2)
        ]
        squares = [parse_polynomial(m, names) ** 2 for m in minors]
        for command, sub, ntub in (("threshold", "sub_witness", "ntub_witness"),
                                   ("separating", "sub_separating", "ntub_separating")):
            code, out = run_cli([command, "--hypothesis", str(path)])
            payload = json.loads(out)
            assert code == 0 and payload["family"] == "independence"
            witness = parse_polynomial(payload[sub], names)
            assert witness == sum(squares[1:], squares[0])
            assert parse_polynomial(payload[ntub], names) == squares[0]
        assert (payload["ntub_degree"], payload["sub_degree"]) == (4, 4)
        rng = random.Random(20261020)

        def table(rank_one: bool) -> list:
            if rank_one:
                rows = [rng.randint(1, 9) for _ in range(p)]
                cols = [rng.randint(1, 9) for _ in range(q)]
                counts = [a * b for a in rows for b in cols]
            else:
                counts = [rng.randint(1, 9) for _ in range(p * q)]
            return [F(c, sum(counts)) for c in counts]

        for _ in range(10):
            assert witness.evaluate(table(True)) == 0
            point = table(False)
            value = sum(
                (point[i * q + j] * point[u * q + v] - point[i * q + v] * point[u * q + j]) ** 2
                for i, u in itertools.combinations(range(p), 2)
                for j, v in itertools.combinations(range(q), 2)
            )
            assert witness.evaluate(point) == value
            if value:
                assert witness.evaluate(point) > 0

    def test_deterministic_artifacts(self, indep22, tmp_path):
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert run_cli(["threshold", "--hypothesis", indep22, "--out", out1])[0] == 0
        assert run_cli(["threshold", "--hypothesis", indep22, "--out", out2])[0] == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_logodds_hypothesis(self, tmp_path):
        path = tmp_path / "logodds.json"
        path.write_text(
            json.dumps({"kind": "logodds", "params": {"a": ["1", "1"], "c": "1", "k": 3}})
        )
        code, out = run_cli(["threshold", "--hypothesis", str(path)])
        assert code == 0
        payload = json.loads(out)
        # Binomial p1*p2 - p3^2 has degree 2: both bounds are 4.
        assert payload["ntub_bound"] == 4 and payload["sub_bound"] == 4

    @pytest.mark.parametrize(
        "c",
        [(10**5 + 1) ** 2, (10**40 + 1) ** 2, 3**1400],
        ids=["(10^5+1)^2", "(10^40+1)^2", "3^1400"],
    )
    def test_logodds_square_target_takes_exact_root(self, tmp_path, c):
        # a = (2, 2): (p1 p2 / p3^2)^2 = c. A square c gives the degree-2
        # binomial p1*p2 - sqrt(c) p3^2, however large c is.
        path = tmp_path / "logodds.json"
        path.write_text(
            json.dumps({"kind": "logodds", "params": {"a": ["2", "2"], "c": str(c), "k": 3}})
        )
        code, out = run_cli(["threshold", "--hypothesis", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["ntub_bound"] == 4 and payload["sub_bound"] == 4

    @pytest.mark.parametrize("command", ["threshold", "separating"])
    @pytest.mark.parametrize(
        "spec, degree",
        [({"kind": "sphere", "params": {"k": 3, "delta_sq": "1/6"}}, 4),
         ({"kind": "symmetry", "params": {"p": 3}}, 2)],
        ids=["sphere", "symmetry"],
    )
    def test_commands_sample_no_null_points(self, command, spec, degree, tmp_path, monkeypatch):
        # The sphere and the linear sampler behind `sample_null_points`.
        def refuse(*args, **kwargs):
            raise AssertionError(f"{command} sampled null points")

        for name in ("sample_null_points", "_sample_sphere", "_sample_linear"):
            monkeypatch.setattr(powerpoly.hypotheses, name, refuse)
        path = tmp_path / "h.json"
        path.write_text(json.dumps(spec))
        code, out = run_cli([command, "--hypothesis", str(path)])
        assert code == 0
        key = {"threshold": "sub_bound", "separating": "sub_degree"}[command]
        assert json.loads(out)[key] == degree

    def test_step_limit_covers_basis_and_bounds_together(self, tmp_path):
        # The 2x3 minors plus a cubic: 358 Buchberger steps, then 458 in
        # sos_bounds, whose degree-2 cut-out check builds a Rabinowitsch
        # basis (degree 3 is the generators' top degree and passes unchecked).
        path = tmp_path / "minors23.json"
        names = ["p11", "p12", "p13", "p21", "p22", "p23"]
        gens = ["p11*p22 - p12*p21", "p11*p23 - p13*p21", "p12*p23 - p13*p22",
                "p11*p12*p13 - p21*p22*p23"]
        path.write_text(
            json.dumps({"kind": "custom", "params": {"k": 6, "vars": names, "generators": gens}})
        )
        for command in ("threshold", "separating"):
            args = [command, "--hypothesis", str(path), "--step-limit"]
            assert run_cli(args + ["359"])[0] == 3
            assert run_cli(args + ["816"])[0] == 0

    @pytest.mark.parametrize("command", ["threshold", "separating"])
    def test_rank_lt_builds_its_minors_once(self, command, tmp_path, monkeypatch):
        # The loaded hypothesis's minors are the ones squared.
        from powerpoly import hypotheses, threshold

        calls = []
        real = hypotheses.rank_lt

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(hypotheses, "rank_lt", spy)
        monkeypatch.setattr(threshold, "rank_lt", spy)
        path = tmp_path / "rank.json"
        path.write_text(json.dumps({"kind": "rank_lt", "params": {"p": 4, "q": 4, "r": 3}}))
        assert run_cli([command, "--hypothesis", str(path)])[0] == 0
        assert calls == [(4, 4, 3)]

    @pytest.mark.parametrize(
        "command, flags",
        [("threshold", ["--weights", "1"]), ("separating", ["--assert-gradient"])],
    )
    def test_tuning_flags_are_usage_errors(self, command, flags, indep22, capsys):
        # Any positive weights give a witness of the same degree, and a
        # gradient assertion certifies no bound: neither flag exists.
        assert run_cli([command, "--hypothesis", indep22, *flags]) == (1, "")
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["threshold", "separating"])
    def test_step_limit_covers_the_linear_emptiness_check(self, command, tmp_path):
        # Symmetry p = 3: 12 Buchberger steps, then 7 in the double
        # description that checks its linear basis against the simplex.
        path = tmp_path / "symmetry.json"
        path.write_text(json.dumps({"kind": "symmetry", "params": {"p": 3}}))
        args = [command, "--hypothesis", str(path), "--step-limit"]
        assert run_cli(args + ["18"])[0] == 3
        assert run_cli(args + ["19"])[0] == 0

    @pytest.mark.parametrize("command", ["threshold", "separating"])
    def test_step_limit_covers_the_rank_lt_squares(self, command, tmp_path, capsys):
        # rank_lt 6x6 r = 6 squares one minor of 720 terms: 518,400 term
        # products, counted before any is formed.
        path = tmp_path / "rank6.json"
        path.write_text(json.dumps({"kind": "rank_lt", "params": {"p": 6, "q": 6, "r": 6}}))
        start = time.perf_counter()
        code, out = run_cli([command, "--hypothesis", str(path), "--step-limit", "1000"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == "error: computation exceeded step limit 1000\n"

    @pytest.mark.parametrize("kind", ["independence", "custom"])
    def test_step_limit_covers_many_minors(self, kind, tmp_path, capsys):
        # independence 12x12 counts the 4 * 66^2 term products of its
        # squared minors before it squares any; the 2,025 minors of a 10x10
        # table as custom generators count Buchberger's C(2025, 2) pairs
        # before they are formed.
        if kind == "independence":
            spec = {"kind": "independence", "params": {"p": 12, "q": 12}}
        else:
            names = [f"p{i}_{j}" for i in range(10) for j in range(10)]
            gens = [
                f"p{i}_{j}*p{u}_{v} - p{i}_{v}*p{u}_{j}"
                for i, u in itertools.combinations(range(10), 2)
                for j, v in itertools.combinations(range(10), 2)
            ]
            spec = {"kind": "custom", "params": {"k": 100, "vars": names, "generators": gens}}
        path = tmp_path / "minors.json"
        path.write_text(json.dumps(spec))
        start = time.perf_counter()
        code, out = run_cli(["threshold", "--hypothesis", str(path), "--step-limit", "1000"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert capsys.readouterr().err == "error: computation exceeded step limit 1000\n"

    @pytest.mark.parametrize("command", ["threshold", "separating"])
    def test_step_limit_of_the_rank_lt_squares_is_pinned(self, command, tmp_path):
        # rank_lt 2x3 r = 2: 3 minors of 2 terms each, 3 * 2^2 = 12 products.
        path = tmp_path / "rank.json"
        path.write_text(json.dumps({"kind": "rank_lt", "params": {"p": 2, "q": 3, "r": 2}}))
        args = [command, "--hypothesis", str(path)]
        assert run_cli(args + ["--step-limit", "11"]) == (3, "")
        assert run_cli(args + ["--step-limit", "12"]) == run_cli(args)

    def test_separating_for_polytope(self, square):
        code, out = run_cli(["separating", "--hypothesis", square("3/4")])
        assert code == 0
        assert json.loads(out)["separating"].startswith("-p1*p2")
        code, _ = run_cli(["separating", "--hypothesis", square("1/4")])
        assert code == 2

    def test_step_limit_covers_polytope_separating(self, square):
        # P0's double description takes 8 steps on the 3/4 square.
        args = ["separating", "--hypothesis", square("3/4")]
        assert run_cli(args + ["--step-limit", "1"])[0] == 3
        code, out = run_cli(args)
        assert code == 0
        assert json.loads(out) == {
            "schema_version": 1,
            "exists": True,
            "separating": "-p1*p2 + 3/4*p1 + 3/4*p2 - 9/16",
            "kind": "SUB",
        }
        assert run_cli(args + ["--step-limit", "8"]) == (code, out)

    @pytest.mark.parametrize("t, code", [("3/4", 0), ("1/4", 2)])
    def test_separating_for_polytope_matches_polytope_exists(self, square, t, code):
        sep = run_cli(["separating", "--hypothesis", square(t)])
        exists = run_cli(["polytope-exists", "--hypothesis", square(t)])
        assert sep[0] == exists[0] == code
        extra = {"kind": "SUB"} if code == 0 else {}
        assert json.loads(sep[1]) == {**json.loads(exists[1]), **extra}

    def test_coeff_polytope_emission(self):
        code, out = run_cli(
            ["coeff-polytope", "--f", "p1+p2-p3", "--vars", "p1,p2,p3",
             "--n", "3", "--alpha", "1/20", "--enumerate"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dim"] == 3
        assert len(payload["rows"]) == 10
        assert payload["vertex_count"] == 8

class TestUmpu:
    def test_exists_vertices(self):
        code, out = run_cli(
            ["umpu", "--f", "p1+p2-p3", "--vars", "p1,p2,p3", "--n", "3",
             "--alpha", "1/20", "--emit-vertices"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "exists"
        assert payload["h_star"] == "3/20*p1 + 3/20*p2 + 3/20*p3"
        assert len(payload["vertices"]) == 8
        assert ["3/20", "3/20", "3/20"] in payload["vertices"]

    def test_not_exists_exit_code(self):
        code, out = run_cli(
            ["umpu", "--f", "2*p1+p2-p3", "--vars", "p1,p2,p3", "--n", "3",
             "--alpha", "1/20"]
        )
        assert code == 2
        assert json.loads(out)["status"] == "not_exists"

    def test_float_alpha_rejected(self):
        code, _ = run_cli(
            ["umpu", "--f", "p1+p2-p3", "--vars", "p1,p2,p3", "--n", "3",
             "--alpha", "0.05"]
        )
        assert code == 1

class TestPolytopeExists:
    def test_wide_square(self, square):
        code, out = run_cli(["polytope-exists", "--hypothesis", square("3/4")])
        assert code == 0
        payload = json.loads(out)
        assert payload["exists"] is True
        assert payload["separating"] == "-p1*p2 + 3/4*p1 + 3/4*p2 - 9/16"

    def test_narrow_square(self, square):
        code, out = run_cli(["polytope-exists", "--hypothesis", square("1/4")])
        assert code == 2
        payload = json.loads(out)
        assert payload["witness_point"] == ["1/4", "1/4"]

    def test_step_limit(self, square, capsys):
        # P0's double description takes 8 steps on the 3/4 square.
        args = ["polytope-exists", "--hypothesis", square("3/4")]
        assert run_cli(args + ["--step-limit", "1"])[0] == 3
        assert run_cli(args + ["--step-limit", "0"])[0] == 1
        assert "step limit must be >= 1" in capsys.readouterr().err
        assert run_cli(args + ["--step-limit", "8"]) == run_cli(args)


# (res, --max) of the power-grid checks.  The first four keep their
# earlier test ids.  Steps 1/9 and 1/28 do not divide 1; at step 1/9 the
# cells with index sum 9 lie on the facet pi_k = 0.
GRIDS = [
    *(pytest.param(res, top, id=f"{res}-top{t}")
      for res in (8, 9) for t, top in enumerate([F(1, 2), F(1)])),
    pytest.param(7, F(2, 3), id="7-max2/3"),
    pytest.param(5, F(1, 7), id="5-max1/7"),
    pytest.param(5, F(1), id="5-max1"),
]


class TestRoundTripCommands:
    def test_recover_then_validate_and_grid(self, tmp_path):
        test_json = str(tmp_path / "phi.json")
        code, _ = run_cli(
            ["recover-test", "--beta", "p1^2 + p2^2", "--vars", "p1,p2", "--n", "2",
             "--out", test_json]
        )
        assert code == 0
        payload = json.load(open(test_json))
        assert payload["values"][0] == {"x": [2, 0], "phi": "1"}

        code, out = run_cli(
            ["mc-validate", "--test", test_json, "--pi", "1/2,1/2",
             "--reps", "20000", "--seed", "3"]
        )
        assert code == 0
        mc = json.loads(out)
        assert mc["exact"] == "1/2"
        assert mc["within_4_se"] is True

        grid_csv = str(tmp_path / "grid.csv")
        code, _ = run_cli(
            ["power-grid", "--test", test_json, "--res", "5", "--out", grid_csv]
        )
        assert code == 0
        lines = open(grid_csv).read().strip().splitlines()
        assert lines[0] == "pi_1,power"
        assert len(lines) == 6
        # power at pi1 = 1/2 is 1/2; at the corners it is 1.
        assert lines[1] == "0.0,1.0"
        assert lines[3] == "0.5,0.5"

    def test_grid_row_count_with_max(self, tmp_path):
        test_json = str(tmp_path / "phi3.json")
        code, _ = run_cli(
            ["recover-test", "--beta", "p1^3 + p2^3 + p3^3", "--vars", "p1,p2,p3",
             "--n", "3", "--out", test_json]
        )
        assert code == 0
        code, out = run_cli(
            ["power-grid", "--test", test_json, "--res", "11", "--max", "1/2"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "pi_1,pi_2,power"
        assert len(lines) == 1 + 11 * 11  # full grid inside the simplex

    def test_grid_csv_bytes_do_not_depend_on_entry_order(self, tmp_path):
        # Each power is a float sum in term order, and the terms come in
        # descending lex order whatever order the file lists them in.
        rng = random.Random(34)
        phi = TestFunction(6, 3, {x: F(rng.randint(0, 16), 16) for x in count_vectors(6, 3)})
        payload = to_json(phi)
        canonical, shuffled = tmp_path / "canonical.json", tmp_path / "shuffled.json"
        canonical.write_text(json.dumps(payload))
        rng.shuffle(payload["values"])
        shuffled.write_text(json.dumps(payload))
        want = run_cli(["power-grid", "--test", str(canonical), "--res", "11"])
        assert want[0] == 0
        assert run_cli(["power-grid", "--test", str(shuffled), "--res", "11"]) == want

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("res, top", GRIDS)
    def test_grid_values_match_evaluate_float(self, k, res, top, tmp_path):
        step = top / (res - 1)
        grid = [i * step for i in range(res)]
        # The reference cells: exact Fraction points filtered by an exact sum.
        combos = [
            combo for combo in itertools.product(range(res), repeat=k - 1)
            if sum(grid[i] for i in combo) <= 1
        ]
        points = [
            [float(grid[i]) for i in combo] + [float(1 - sum(grid[i] for i in combo))]
            for combo in combos
        ]
        if top == F(2, 3) and k > 2:
            assert 9 in map(sum, combos)  # the facet pi_k = 0 at step 1/9 is kept
        axis = [float(x) for x in grid]
        rest = [float(1 - s * step) for s in range(max(map(sum, combos)) + 1)]
        test_json = tmp_path / "phi.json"
        rng = random.Random(100 * k + 10 * res + top.denominator)
        # Over 16, num * B / den is exact; over 3, 7 and 11 it must round
        # as float(Fraction) does.
        for den in (16, 16, 16, 3, 7, 11):
            n = rng.randint(2, 12 if k < 4 else 7)
            phi = TestFunction(n, k, {x: F(rng.randint(0, den), den) for x in count_vectors(n, k)})
            beta = to_power(phi).poly
            want = [beta.evaluate_float(point).hex() for point in points]
            assert [v.hex() for v in _grid_values(phi, combos, axis, rest)] == want

            test_json.write_text(json.dumps(to_json(phi)))
            code, out = run_cli(
                ["power-grid", "--test", str(test_json), "--res", str(res), "--max", str(top)]
            )
            assert code == 0
            rows = [line.rsplit(",", 1) for line in out.splitlines()[1:]]
            assert [coords for coords, _ in rows] == [
                ",".join(repr(x) for x in point[:-1]) for point in points
            ]
            assert [float(value).hex() for _, value in rows] == want

    def test_grid_last_coordinate_table_is_bounded(self, tmp_path):
        # 1/step is 2 * 10^9, yet no cell of a res-3 grid has an index sum above 6.
        test_json = tmp_path / "phi4.json"
        test_json.write_text(json.dumps(to_json(TestFunction.constant(2, 4, F(1, 3)))))
        code, out = run_cli(
            ["power-grid", "--test", str(test_json), "--res", "3", "--max", "1/1000000000"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "pi_1,pi_2,pi_3,power"
        assert len(lines) == 1 + 27

    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    @pytest.mark.parametrize("res", [2, 3, 5, 8])
    def test_cell_count_matches_enumeration(self, res, dims):
        for limit in range((res - 1) * dims + 1):
            cells = itertools.product(range(res), repeat=dims)
            want = sum(1 for i in cells if sum(i) <= limit)
            assert cli._cell_count(res, dims, limit) == want

    def test_grid_step_limit_is_one_step_per_cell(self, tmp_path):
        test_json = tmp_path / "phi4.json"
        test_json.write_text(json.dumps(to_json(TestFunction.constant(2, 4, F(1, 3)))))
        argv = ["power-grid", "--test", str(test_json), "--res", "5", "--max", "2/3"]
        code, out = run_cli(argv)
        cells = len(out.splitlines()) - 1
        assert (code, cells) == (0, 72)
        assert run_cli(argv + ["--step-limit", str(cells)]) == (0, out)
        assert run_cli(argv + ["--step-limit", str(cells - 1)]) == (3, "")

    def test_oversized_grid_exits_at_its_step_limit(self, tmp_path, capsys):
        # 21 count vectors at k = 6: a res-101 grid has 96,560,646 cells in
        # the simplex, refused before any is built.
        test_json = tmp_path / "phi6.json"
        test_json.write_text(json.dumps(to_json(TestFunction.constant(2, 6, F(1, 2)))))
        argv = ["power-grid", "--test", str(test_json), "--res", "101", "--step-limit", "1000000"]
        assert run_cli(argv) == (3, "")
        assert capsys.readouterr().err == "error: computation exceeded step limit 1000000\n"
        assert cli._cell_count(101, 5, 100) == 96_560_646

    def test_mc_validate_rejects_point_off_simplex(self, tmp_path, capsys):
        test_json = str(tmp_path / "phi3.json")
        code, _ = run_cli(
            ["recover-test", "--beta", "p1^2", "--vars", "p1,p2,p3", "--n", "2",
             "--out", test_json]
        )
        assert code == 0
        code, out = run_cli(["mc-validate", "--test", test_json, "--pi", "2,1,1"])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            "error: point [2.0, 1.0, 1.0] is not on the probability simplex\n"
        )

    def test_box_violation_rejected(self, capsys):
        code, _ = run_cli(
            ["recover-test", "--beta", "2*p1^2", "--vars", "p1,p2", "--n", "2"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: not a power polynomial: coefficient of index (2, 0) is 2, "
            "outside [0, 1]\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["recover-test", "--beta", "1/2", "--vars", "p1,p2", "--n", "0"],
            ["recover-test", "--beta", "p1^2", "--vars", "p1", "--n", "2"],
            ["umpu", "--f", "p1", "--vars", "p1", "--n", "2", "--alpha", "1/20"],
        ],
        ids=["recover-test-n0", "recover-test-k1", "umpu-k1"],
    )
    def test_no_test_function_json_that_the_readers_refuse(self, argv, tmp_path, capsys):
        # A test of size 0, or on one category, has no alternative to tell
        # apart; power-grid and mc-validate refuse such a file, so no
        # command writes one.
        path = tmp_path / "phi.json"
        assert main([*argv, "--out", str(path)]) == 1
        assert not path.exists()
        assert capsys.readouterr().err == "error: need n >= 1 and k >= 2\n"


class TestInstalledEntryPoint:
    def test_version_runs(self):
        # The child imports the package under test, installed or not.
        package_root = os.path.dirname(os.path.dirname(powerpoly.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, path])))
        proc = subprocess.run(
            [sys.executable, "-m", "powerpoly.cli", "--version"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "powerpoly" in proc.stdout

    def test_import_leaves_numpy_out(self):
        # numpy serves Monte-Carlo and power-grid only; importing the CLI
        # must not pay for it.
        package_root = os.path.dirname(os.path.dirname(powerpoly.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, path])))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, powerpoly, powerpoly.cli; print('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n")
