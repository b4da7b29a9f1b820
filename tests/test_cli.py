import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import powerpoly
from powerpoly import cli
from powerpoly.cli import _grid_values, build_parser, main
from powerpoly.cli import test_to_json as to_json
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


def assert_artifact(argv, code, digest, tmp_path):
    """stdout has the pinned sha256 and exit code, and `--out` writes the same bytes."""
    got, out = run_cli(argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
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

    # sha256 of stdout: negative and fractional leading coefficients, so a
    # change to sign or content normalization shows in these bytes.
    GB_OUTPUT = [
        (["-2/3*p1^2 + p2", "-4*p1*p2 + 6/5*p2^2"], "p1,p2", "grlex",
         "7276a9b4c0dd415e5fb91216616f583ceb871a534d467ac2ce55345c13ba36e7"),
        (["-2/3*p1^2 + p2", "-4*p1*p2 + 6/5*p2^2"], "p1,p2", "grevlex",
         "3ff9d39481c781f1570e3b19ae4ab892b726da66e6f5929fc89c6f06e121a31c"),
        (["p1*p2-p3^2", "p1^2*p3 - 3/4*p2", "p1 - 2*p3 + 1/3"], "p1,p2,p3", "grlex",
         "5098553fe5b9ac58dd32aac4d4317cdc7ed04032b9820eb8194e8fc5d5196ee1"),
        (["p1*p2-p3^2", "p1^2*p3 - 3/4*p2", "p1 - 2*p3 + 1/3"], "p1,p2,p3", "grevlex",
         "502360782857a1b0e259b67ef369654730e5ebac8dab7f6a07d7c81986d13409"),
    ]

    @pytest.mark.parametrize(
        "gens, names, order, digest", GB_OUTPUT,
        ids=["signs-grlex", "signs-grevlex", "mixed-grlex", "mixed-grevlex"],
    )
    def test_output_bytes(self, gens, names, order, digest, tmp_path):
        args = ["gb", "--vars", names, "--order", order]
        for g in gens:
            args += ["--gens", g]
        assert_artifact(args, 0, digest, tmp_path)

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


@pytest.mark.parametrize("command", ["umpu", "coeff-polytope"])
@pytest.mark.parametrize(
    "f, message",
    [
        ("p1+p2+p3", "empty null set"),
        ("2*p1^2+2*p2^2+2*p3^2+4*p1*p2+4*p1*p3+4*p2*p3", "empty null set"),
        ("p1+p2+p3-1", "null set is the whole simplex, no alternative"),
    ],
    ids=["sum-of-all", "twice-its-square", "vanishes-on-the-simplex"],
)
def test_f_constant_on_the_simplex_is_an_error(command, f, message, capsys):
    # f is 1, 2 or 0 wherever sum(p) = 1: no verdict, test or polytope.
    argv = [command, "--f", f, "--vars", "p1,p2,p3", "--n", "4", "--alpha", "1/20"]
    assert run_cli(argv) == (1, "")
    assert capsys.readouterr().err.startswith(f"error: {message}: ")


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


# The files the artifact pins read, by the placeholder their argv names.
ARTIFACT_INPUTS = {
    "INDEP22": {"kind": "independence", "params": {"p": 2, "q": 2}},
    "SPHERE": {"kind": "sphere", "params": {"k": 3, "delta_sq": "1/6"}},
    "WIDE": {"kind": "polytope",
             "params": {"A": [["-1", "0"], ["0", "-1"]], "b": ["-3/4", "-3/4"], "k": 3}},
    "NARROW": {"kind": "polytope",
               "params": {"A": [["-1", "0"], ["0", "-1"]], "b": ["-1/4", "-1/4"], "k": 3}},
    "PHI": {"n": 2, "k": 3, "values": [
        {"x": [2, 0, 0], "phi": "1"}, {"x": [1, 1, 0], "phi": "1/2"},
        {"x": [1, 0, 1], "phi": "0"}, {"x": [0, 2, 0], "phi": "1/3"},
        {"x": [0, 1, 1], "phi": "0"}, {"x": [0, 0, 2], "phi": "1"}]},
}

# (argv, exit code, sha256 of the artifact) of every artifact-writing
# command but gb and umpu, whose pins sit in their own classes.
ARTIFACTS = [
    pytest.param(["threshold", "--hypothesis", "INDEP22"], 0,
                 "2324a8b7369be52ec08555887776973c8f74ea7b1bbcef83c35863f20d0e721a",
                 id="threshold-independence-2x2"),
    pytest.param(["separating", "--hypothesis", "SPHERE"], 0,
                 "8ab9ef2580b1a300e6b6f22e9deb054d1cb734c38bbb4db0fa4252604a62b2a0",
                 id="separating-sphere"),
    pytest.param(["separating", "--hypothesis", "WIDE"], 0,
                 "cd83613b5b7785d906b7901e391cd177e79a965a2ae9c41668e072ed11ec64ec",
                 id="separating-polytope"),
    pytest.param(["coeff-polytope", "--f", "p1+p2-p3", "--vars", "p1,p2,p3", "--n", "3",
                  "--alpha", "1/20", "--enumerate"], 0,
                 "d39f05891d1d77f75acee89d2eea1a41cbc2d5c423f1a2c6402ace602c4120b5",
                 id="coeff-polytope-enumerate"),
    pytest.param(["polytope-exists", "--hypothesis", "WIDE"], 0,
                 "ccf847738ab07db8182b3035c34aa8953d557ee9b083dce6f1386758250ec750",
                 id="polytope-exists-exists"),
    pytest.param(["polytope-exists", "--hypothesis", "NARROW"], 2,
                 "e7d577fa368463d5e75990f4c0c14767ae699e60752918339eb7665b84b3aac3",
                 id="polytope-exists-not-exists"),
    pytest.param(["recover-test", "--beta", "p1^3 + 3*p1*p2*p3 + p3^3", "--vars", "p1,p2,p3",
                  "--n", "3"], 0,
                 "1f73958cff96d26a3efaa513e5c26afde036edc9e053f83df0cda1efa0e54d00",
                 id="recover-test"),
    pytest.param(["mc-validate", "--test", "PHI", "--pi", "1/2,1/3,1/6", "--reps", "1000",
                  "--seed", "7"], 0,
                 "2046fc93242966c507a3a3e5d5057671efbe0b981c1b1f3668f505bf249f1d95",
                 id="mc-validate"),
    pytest.param(["power-grid", "--test", "PHI", "--res", "4"], 0,
                 "4bda4fc10886b40a20e2de5bc3992f18703c9f17f677a7d3dc4bc05bd541fa79",
                 id="power-grid"),
]


@pytest.mark.parametrize("argv, code, digest", ARTIFACTS)
def test_artifact_bytes(argv, code, digest, tmp_path):
    paths = {}
    for name, payload in ARTIFACT_INPUTS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    assert_artifact([str(paths.get(a, a)) for a in argv], code, digest, tmp_path)


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
        # The 2x3 minors plus a cubic: 330 Buchberger steps, then 437 in
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
            assert run_cli(args + ["331"])[0] == 3
            assert run_cli(args + ["767"])[0] == 0

    # sha256 of the default stdout of threshold and separating, pinned so a
    # change to the witness code shows in these bytes.
    DEFAULT_OUTPUT = [
        ({"kind": "independence", "params": {"p": 2, "q": 3}},
         "d546c89eca9489a0d1fb25a4ff45a90742fafe0eb0eece42815e49ca8debf1a6",
         "e1d7b131bdb6214200eb9e4732ccd1879422dd255102297ef72a6728911a4be4"),
        ({"kind": "symmetry", "params": {"p": 3}},
         "87eb76719408b264fc824eacb90e6570a24796fc39b320bbaee9958cd28eea8f",
         "577739d7a9a6afd93397664a8fb8cedd1b46fad6890877af120811af80699b6d"),
        ({"kind": "sphere", "params": {"k": 3, "delta_sq": "1/6"}},
         "ec7912f39f3caaf207c2e9ffe24d8754aee44650104d32b7e827dc407aa1beac",
         "8ab9ef2580b1a300e6b6f22e9deb054d1cb734c38bbb4db0fa4252604a62b2a0"),
        ({"kind": "logodds", "params": {"a": ["1", "-1"], "c": "2", "k": 3}},
         "5edd460b91fb91b73e5bcf80a7b042c2266d393dc0d53458dd9e7c37f9cca822",
         "f89f5a0cfc088d2f9f6d57ae4accf3b52d6c70e540699cb1e06bd5350cec84ac"),
        ({"kind": "motzkin", "params": {}},
         "61b6f3a62c1c5f05f45b3caa8fec714ff6a5d4060f1f48c4853f27a973cae89f",
         "6ea66daee3102baa88fafcf81de68ba91cc7ece0d8fb643b9d1a655ee7021e46"),
        ({"kind": "custom", "params": {"k": 3, "generators": ["p1*p2"]}},
         "0beaaaef5918659b09003b08dec9015b2813eb0e5334bfd406717d37667f157e",
         "619ef13607e906445624614be26716f840c4b9d03c77c2c4197945a6b3e84859"),
    ]

    @pytest.mark.parametrize(
        "spec, threshold_digest, separating_digest",
        DEFAULT_OUTPUT,
        ids=["independence", "symmetry", "sphere", "logodds", "motzkin", "custom"],
    )
    def test_default_output_bytes(self, spec, threshold_digest, separating_digest, tmp_path):
        path = tmp_path / "h.json"
        path.write_text(json.dumps(spec))
        for command, digest in (("threshold", threshold_digest), ("separating", separating_digest)):
            code, out = run_cli([command, "--hypothesis", str(path)])
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "spec, digest",
        [
            ({"kind": "independence", "params": {"p": 3, "q": 4}},
             "ccc317d2ef37955d2ed4fb586753d300a43efbf9abce882e554ed246c00d2c24"),
            ({"kind": "sphere", "params": {"k": 8, "delta_sq": "1/8"}},
             "e43ca4bf3c3e3e95ec24d22a603fdfa15790e8c6aaefef963cd8acffde16718c"),
        ],
        ids=["independence-3x4", "sphere-k8"],
    )
    def test_largest_witness_bytes(self, spec, digest, tmp_path):
        # The two largest SUB witnesses of the benchmark's threshold pool.
        path = tmp_path / "h.json"
        path.write_text(json.dumps(spec))
        code, out = run_cli(["threshold", "--hypothesis", str(path)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "command, digest",
        [
            ("threshold", "acafb506c02af77240b7b6ffd701893081b25f4584021395c6d0e9d49648c6d0"),
            ("separating", "5617404eb64461161e9fdc66d78601a01679a8156befa3ae4051fbc1cd77541c"),
        ],
        ids=["threshold", "separating"],
    )
    def test_rank_lt_output_bytes(self, command, digest, tmp_path):
        # The bounded-rank theorem gives the bounds and the witnesses.
        path = tmp_path / "rank.json"
        path.write_text(json.dumps({"kind": "rank_lt", "params": {"p": 2, "q": 3, "r": 2}}))
        code, out = run_cli([command, "--hypothesis", str(path)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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
        # Symmetry p = 3: 9 Buchberger steps, then 7 in the double
        # description that checks its linear basis against the simplex.
        path = tmp_path / "symmetry.json"
        path.write_text(json.dumps({"kind": "symmetry", "params": {"p": 3}}))
        args = [command, "--hypothesis", str(path), "--step-limit"]
        assert run_cli(args + ["15"])[0] == 3
        assert run_cli(args + ["16"])[0] == 0

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

    @pytest.mark.parametrize(
        "f, n, alpha, digest",
        [
            ("p1^2 + p2^2 + p3^2 - 2/3*p1 - 2/3*p2 - 2/3*p3 + 1/6", "5", "1/20",
             "173cb8405168de93456448d1b065302035ea3ac8bc7bf0cd77f912c945572965"),
            ("p1+p2-p3", "4", "1/2",
             "327fb9739667f873b32b35152309d6092ccbee2aedd8ac22a2cc9399f11bb211"),
            # f~^2 = (p1 - p2)^2 has no p3, so every L with L3 >= 2 is a zero row.
            ("p1-p2", "3", "1/10",
             "a7cfb8a57d0e744342a97ecdf493c15c62d61cb54e0a6a61b27242019aeeb1ac"),
        ],
        ids=["sphere-k3-n5", "p1+p2-p3-n4-half", "p1-p2-n3-zero-rows"],
    )
    def test_coeff_polytope_emission_bytes_pinned(self, f, n, alpha, digest):
        # The H-rep rows, the halfspace count and the vertices, byte for byte.
        code, out = run_cli(
            ["coeff-polytope", "--f", f, "--vars", "p1,p2,p3", "--n", n, "--alpha", alpha,
             "--enumerate"]
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize(
        "f, n, flags, status, code, digest",
        [
            ("p1+p2-p3", "3", [], "exists", 0,
             "cf580ae89b9b3f74e5530243fb3ac8a79391f4951e1e624311e811d7ee07220c"),
            ("2*p1+p2-p3", "3", [], "not_exists", 2,
             "81d2973738475402ff4d492310fb7bab2d1a8f9e24601ea14036a26835f99c60"),
            ("p1^2 + p2^2 + p3^2 - 2/3*p1 - 2/3*p2 - 2/3*p3 + 1/6", "6", [], "candidate", 0,
             "db8d2200eb8712c548ded2048ff95238a0bc7d2f60d8638eef262e85df635a73"),
            ("p1+p2-p3", "3", ["--emit-vertices"], "exists", 0,
             "aa07aba9e7448931d306f53a653076512ef0b49bef0e8c25d6e31a07b3abc576"),
        ],
        ids=["exists", "not_exists", "candidate", "exists-vertices"],
    )
    def test_output_bytes(self, f, n, flags, status, code, digest, tmp_path):
        # h_star, beta and the test of each verdict, byte for byte, on
        # stdout and in the --out file.
        argv = ["umpu", "--f", f, "--vars", "p1,p2,p3", "--n", n, "--alpha", "1/20", *flags]
        assert json.loads(run_cli(argv)[1])["status"] == status
        assert_artifact(argv, code, digest, tmp_path)


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

    def test_grid_csv_bytes_pinned(self, tmp_path):
        test_json = str(tmp_path / "phi3.json")
        code, _ = run_cli(
            ["recover-test", "--beta", "p1^3 + 3*p1*p2*p3 + p3^3", "--vars", "p1,p2,p3",
             "--n", "3", "--out", test_json]
        )
        assert code == 0
        grid_csv = tmp_path / "grid.csv"
        code, out = run_cli(
            ["power-grid", "--test", test_json, "--res", "11", "--max", "1/2"]
        )
        assert code == 0
        assert run_cli(
            ["power-grid", "--test", test_json, "--res", "11", "--max", "1/2",
             "--out", str(grid_csv)]
        )[0] == 0
        assert grid_csv.read_text() == out
        assert len(out.splitlines()) == 122
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "cd46245345425dfa4cbdc8cab4c596985164afcf22dcbd47cbf76746aeeed88e"
        )

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
