"""CLI surface: verbs, exit codes, file round-trips, determinism."""

import io
import json
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import pytest
from genutil import cyclo_text
from hypothesis import example, given, settings, strategies as st

from zarpair.catalog import extended_maclane_realization, seed_ledger
from zarpair.cli import run
from zarpair.combinatorics import Combinatorics, ordered_equal
from zarpair.cyclotomic import MAX_ORDER, CycloNum
from zarpair.realization import Arrangement, ProjLine, ProjMap, apply_map


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    return code, json.loads(out) if out.strip() else None, err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# Point [1, 2] listed twice: lines 1 and 2 meet in two points.
DOUBLED = {"lines": ["A", "B", "C"], "points": [[1, 2], [1, 2], [1, 3], [2, 3]]}


def arrangement(coeff_rows):
    """The file form of an order-3 arrangement, one line per row of
    coefficient strings."""
    return {
        "cyclotomic_order": 3,
        "lines": [{"name": f"L{i}", "coeffs": row} for i, row in enumerate(coeff_rows, 1)],
    }


def assert_rejected_as_invalid(code, out, err):
    assert code == 1
    assert out == ""
    assert "point [1, 2] listed more than once" in err
    assert err.count("\n") == 1


def assert_malformed(code, out, err):
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("zarpair: error:") and err.count("\n") == 1


# A ledger entry on the bare triangle, under the trivial character mod 3.
TRIANGLE_ENTRY = {
    "id": "T",
    "modulus": 3,
    "exponents": [0, 0, 0],
    "cycle": [1, 2, 3],
    "value": "1",
    "provenance": "published: test",
    "combinatorics": {"lines": ["a", "b", "c"], "points": [[1, 2], [1, 3], [2, 3]]},
}


@pytest.fixture()
def seed_file(tmp_path, capsys):
    code, out, _ = invoke(capsys, "catalog", "ledger-seed")
    assert code == 0
    path = tmp_path / "seed.json"
    path.write_text(out, encoding="utf-8")
    return str(path)


class TestCatalog:
    @pytest.mark.parametrize(
        "name",
        [
            "ext-maclane-comb",
            "maclane-comb",
            "ext-maclane+",
            "ext-maclane-",
            "xi-maclane",
            "rybnikov-comb",
            "ledger-seed",
        ],
    )
    def test_every_name_emits_json(self, capsys, name):
        code, obj, err = invoke_json(capsys, "catalog", name)
        assert code == 0
        assert obj is not None

    def test_unknown_name_is_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "catalog", "nonsense")
        assert code == 2

    def test_deterministic_bytes(self, capsys):
        _, first, _ = invoke(capsys, "catalog", "rybnikov-comb")
        _, second, _ = invoke(capsys, "catalog", "rybnikov-comb")
        assert first == second


class TestValidate:
    def test_valid_input(self, capsys, tmp_path):
        path = write(
            tmp_path, "tri.json", {"lines": ["A", "B", "C"], "points": [[1, 2], [1, 3], [2, 3]]}
        )
        code, obj, _ = invoke_json(capsys, "validate", path)
        assert code == 0
        assert obj == {"valid": True, "problems": []}

    def test_invalid_input_exits_one(self, capsys, tmp_path):
        path = write(
            tmp_path, "bad.json", {"lines": ["A", "B", "C"], "points": [[1, 2], [1, 3]]}
        )
        code, obj, _ = invoke_json(capsys, "validate", path)
        assert code == 1
        assert not obj["valid"]
        assert obj["problems"]

    def test_garbage_exits_two(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = invoke(capsys, "validate", str(path))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "obj",
        [
            [[1, "x"]],
            {"lines": ["A", "B"]},
            {"lines": ["A", "B"], "points": "12"},
            {"lines": ["A", "B"], "points": [[1, "x"]]},
            {"lines": ["A", "B"], "points": [3]},
        ],
    )
    def test_malformed_structure_exits_two_in_one_line(self, capsys, tmp_path, obj):
        assert_malformed(*invoke(capsys, "validate", write(tmp_path, "bad.json", obj)))


class TestDerive:
    def test_pipe_equals_catalog_combinatorics(self, capsys, monkeypatch):
        code, arr_text, _ = invoke(capsys, "catalog", "rybnikov+")
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(arr_text))
        code, derived, _ = invoke(capsys, "derive", "-")
        assert code == 0
        code, explicit, _ = invoke(capsys, "catalog", "rybnikov-comb")
        assert derived == explicit  # byte-identical output

    def test_output_file(self, capsys, tmp_path):
        code, arr_text, _ = invoke(capsys, "catalog", "ext-maclane+")
        src = tmp_path / "arr.json"
        src.write_text(arr_text, encoding="utf-8")
        out = tmp_path / "comb.json"
        code, _, _ = invoke(capsys, "derive", str(src), "-o", str(out))
        assert code == 0
        derived = Combinatorics.from_obj(json.loads(out.read_text()))
        assert derived.n_lines == 9

    def test_order_839_within_ten_seconds(self, capsys, tmp_path):
        """Nine lines at order 839 (phi = 838) with one concurrent triple,
        L3 = L1 + L2, and leading coefficients other than 1. Each pairwise
        intersection used to be normalized with an inverse, which took over
        a minute here."""
        rows = [
            ["z^7", "z^300 + 2", "-z^512 + 3"],
            ["z^7", "-2*z^41 + 1", "z^777 - 1"],
            ["2*z^7", "z^300 - 2*z^41 + 3", "z^777 - z^512 + 2"],
            ["-3", "z^95 - 2", "2*z^631 + 1"],
            ["z^402", "3*z^18 + 1", "-z^250 - 2"],
            ["2*z^833", "z^129 + 4", "z^66 - 3"],
            ["5", "-z^710 + 1", "z^3 + 2"],
            ["-z^555", "2*z^200 - 1", "z^481 + 1"],
            ["3*z^61", "z^604 + 3", "-2*z^12 + 1"],
        ]
        path = write(tmp_path, "arr.json", {**arrangement(rows), "cyclotomic_order": 839})
        out = tmp_path / "comb.json"
        start = time.perf_counter()
        code, _, err = invoke(capsys, "derive", path, "-o", str(out))
        assert time.perf_counter() - start < 10
        assert code == 0, err
        derived = Combinatorics.from_obj(json.loads(out.read_text()))
        assert derived.validate().ok
        doubles = [(i, j) for i in range(1, 10) for j in range(i + 1, 10) if j > 3]
        assert derived.points == tuple(sorted([(1, 2, 3)] + doubles))

    @pytest.mark.parametrize(
        "obj",
        [
            [[1]],
            {"cyclotomic_order": 3, "lines": [5]},
            {"cyclotomic_order": 0, "lines": []},
            {"cyclotomic_order": "3", "lines": []},
            {"cyclotomic_order": True, "lines": []},
            {"cyclotomic_order": 3, "lines": [{"name": "L1", "coeffs": [1, 0, 0]}]},
            arrangement([["1/0", "0", "0"]]),
            # orders past the cap, with a well-formed body
            {**arrangement([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
             "cyclotomic_order": MAX_ORDER + 1},
            {**arrangement([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
             "cyclotomic_order": 10**12},
        ],
    )
    def test_malformed_arrangement_exits_two_in_one_line(self, capsys, tmp_path, obj):
        assert_malformed(*invoke(capsys, "derive", write(tmp_path, "bad.json", obj)))


class TestAut:
    def test_order_and_stats(self, capsys, tmp_path):
        code, comb_text, _ = invoke(capsys, "catalog", "ext-maclane-comb")
        path = tmp_path / "cm.json"
        path.write_text(comb_text, encoding="utf-8")
        code, obj, _ = invoke_json(capsys, "aut", str(path), "--stats", "--elements")
        assert code == 0
        assert obj["order"] == 12
        assert obj["stats"]["element_order_histogram"] == {
            "1": 1, "2": 7, "3": 2, "6": 2
        }
        assert "id" in obj["elements"]
        assert len(obj["elements"]) == 12

    def test_invalid_structure_exits_one(self, capsys, tmp_path):
        path = write(tmp_path, "doubled.json", DOUBLED)
        assert_rejected_as_invalid(*invoke(capsys, "aut", path))


class TestInnerCyclic:
    def test_invalid_structure_exits_one(self, capsys, tmp_path):
        comb = write(tmp_path, "doubled.json", DOUBLED)
        char = write(tmp_path, "char.json", {"modulus": 3, "exponents": [0, 1, 2]})
        assert_rejected_as_invalid(
            *invoke(capsys, "inner-cyclic", comb, char, "--cycle", "1,2,3")
        )

    def test_catalog_pair_passes_both_modes(self, capsys, tmp_path):
        _, comb_text, _ = invoke(capsys, "catalog", "ext-maclane-comb")
        _, char_text, _ = invoke(capsys, "catalog", "xi-maclane")
        comb = tmp_path / "cm.json"
        comb.write_text(comb_text, encoding="utf-8")
        char = tmp_path / "xi.json"
        char.write_text(char_text, encoding="utf-8")
        code, obj, _ = invoke_json(
            capsys, "inner-cyclic", str(comb), str(char), "--cycle", "1,2,3",
            "--mode", "both",
        )
        assert code == 0
        assert obj == {"def": True, "remark": True}

    def test_failing_character_exits_one(self, capsys, tmp_path):
        _, comb_text, _ = invoke(capsys, "catalog", "ext-maclane-comb")
        comb = tmp_path / "cm.json"
        comb.write_text(comb_text, encoding="utf-8")
        char = write(
            tmp_path, "bad.json", {"modulus": 3, "exponents": [1, 2, 0, 0, 0, 0, 0, 0, 0]}
        )
        code, obj, _ = invoke_json(
            capsys, "inner-cyclic", str(comb), char, "--cycle", "1,2,3"
        )
        assert code == 1
        assert obj == {"def": False, "remark": False}

    def test_bad_cycle_argument(self, capsys, tmp_path):
        _, comb_text, _ = invoke(capsys, "catalog", "ext-maclane-comb")
        comb = tmp_path / "cm.json"
        comb.write_text(comb_text, encoding="utf-8")
        char = write(
            tmp_path, "triv.json", {"modulus": 1, "exponents": [0] * 9}
        )
        code, _, err = invoke(capsys, "inner-cyclic", str(comb), char, "--cycle", "1,2")
        assert code == 2

    @pytest.mark.parametrize(
        "obj",
        [
            [1],
            {"modulus": 3, "exponents": 5},
            {"modulus": 3, "exponents": [0, "x", 0, 0, 0, 0, 0, 0, 0]},
            {"modulus": "3", "exponents": [0] * 9},
        ],
    )
    def test_malformed_character_exits_two_in_one_line(self, capsys, tmp_path, obj):
        _, comb_text, _ = invoke(capsys, "catalog", "ext-maclane-comb")
        comb = tmp_path / "cm.json"
        comb.write_text(comb_text, encoding="utf-8")
        char = write(tmp_path, "bad.json", obj)
        assert_malformed(
            *invoke(capsys, "inner-cyclic", str(comb), char, "--cycle", "1,2,3")
        )


class TestGlue:
    def test_glue_and_report(self, capsys, tmp_path):
        _, left_text, _ = invoke(capsys, "catalog", "ext-maclane+")
        _, right_text, _ = invoke(capsys, "catalog", "ext-maclane-")
        left = tmp_path / "mp.json"
        left.write_text(left_text, encoding="utf-8")
        right = tmp_path / "mm.json"
        right.write_text(right_text, encoding="utf-8")
        report = tmp_path / "report.json"
        code, obj, _ = invoke_json(
            capsys, "glue", str(left), str(right), "--report", str(report)
        )
        assert code == 0
        glued = Arrangement.from_obj(obj)
        assert glued.n_lines == 15
        report_obj = json.loads(report.read_text())
        assert report_obj["shared_count"] == 3
        assert report_obj["checks"] == {"gluing": True, "generic": True}
        assert report_obj["parameter"] is not None

    def test_exhausted_budget_is_an_error(self, capsys, tmp_path):
        _, left_text, _ = invoke(capsys, "catalog", "ext-maclane+")
        left = tmp_path / "mp.json"
        left.write_text(left_text, encoding="utf-8")
        code, _, err = invoke(
            capsys, "glue", str(left), str(left), "--max-candidates", "0"
        )
        assert code == 2
        assert "error" in err

    def test_fewer_than_three_lines_exits_two_in_one_line(self, capsys, tmp_path):
        two = write(tmp_path, "two.json", arrangement([["1", "0", "0"], ["0", "1", "0"]]))
        assert_malformed(*invoke(capsys, "glue", two, two))

    def test_glue_comb_on_fewer_than_three_lines_exits_two_in_one_line(
        self, capsys, tmp_path
    ):
        two = write(tmp_path, "two.json", {"lines": ["A", "B"], "points": [[1, 2]]})
        code, out, err = invoke(capsys, "glue-comb", two, two)
        assert_malformed(code, out, err)
        assert err == "zarpair: error: 2 lines; a triangle to glue along needs three\n"

    def test_glue_comb(self, capsys, tmp_path):
        _, comb_text, _ = invoke(capsys, "catalog", "ext-maclane-comb")
        path = tmp_path / "cm.json"
        path.write_text(comb_text, encoding="utf-8")
        code, obj, _ = invoke_json(capsys, "glue-comb", str(path), str(path))
        assert code == 0
        glued = Combinatorics.from_obj(obj)
        _, explicit_text, _ = invoke(capsys, "catalog", "rybnikov-comb")
        assert ordered_equal(glued, Combinatorics.from_obj(json.loads(explicit_text)))

    def test_glue_comb_invalid_structure_exits_one(self, capsys, tmp_path):
        _, comb_text, _ = invoke(capsys, "catalog", "ext-maclane-comb")
        good = tmp_path / "cm.json"
        good.write_text(comb_text, encoding="utf-8")
        bad = write(tmp_path, "doubled.json", DOUBLED)
        assert_rejected_as_invalid(*invoke(capsys, "glue-comb", str(good), bad))


class TestInvariantCommands:
    def test_glue_derivation(self, capsys, seed_file):
        code, obj, _ = invoke_json(
            capsys, "invariant", "glue",
            "--ledger", seed_file, "--left", "M+", "--right", "M+", "--id", "R+",
        )
        assert code == 0
        assert obj["id"] == "R+"
        assert obj["value"] == "z"
        assert obj["provenance"].startswith("multiplicativity")

    def test_conj_derivation(self, capsys, seed_file):
        code, obj, _ = invoke_json(
            capsys, "invariant", "conj", "--ledger", seed_file, "--entry", "M+"
        )
        assert code == 0
        assert obj["value"] == "z"

    def test_missing_entry_errors(self, capsys, seed_file):
        code, _, err = invoke(
            capsys, "invariant", "conj", "--ledger", seed_file, "--entry", "nope"
        )
        assert code == 2
        assert err == "zarpair: error: no ledger entry with id 'nope'\n"

    def test_entry_without_combinatorics_outside_the_catalog(self, capsys, tmp_path):
        entry = {
            "id": "Q",
            "modulus": 3,
            "exponents": [0] * 9,
            "cycle": [1, 2, 3],
            "value": "1",
            "provenance": "published: test",
        }
        path = write(tmp_path, "q.json", [entry])
        code, out, err = invoke(capsys, "zariski", "--ledger", path, "--entry", "Q")
        assert (code, out) == (2, "")
        assert err == (
            "zarpair: error: entry 'Q' carries no combinatorics and none was supplied\n"
        )


class TestZariski:
    def test_positive_verdict(self, capsys, seed_file):
        code, obj, _ = invoke_json(
            capsys, "zariski", "--ledger", seed_file, "--entry", "M+"
        )
        assert code == 0
        assert obj["verdict"] == "ordered_zariski_pair"
        assert obj["values"] == ["z", "1"]

    def test_aut_trivial_flag_rejected(self, capsys, seed_file):
        # the glued combinatorics always has the copy swap, so there is no
        # trivial group to upgrade on and no flag to claim one
        code, out, err = invoke(
            capsys, "zariski", "--ledger", seed_file, "--entry", "M+", "--aut-trivial"
        )
        assert code == 2
        assert out == ""
        assert "usage:" in err
        assert "unrecognized arguments: --aut-trivial" in err

    def test_triangle_in_another_traversal_order(self, capsys, tmp_path, seed_file):
        entries = json.loads(Path(seed_file).read_text())
        assert entries[0]["id"] == "M+"
        entries[0]["cycle"] = [3, 1, 2]
        path = write(tmp_path, "permuted.json", entries)
        code, obj, _ = invoke_json(capsys, "zariski", "--ledger", path, "--entry", "M+")
        assert code == 0
        assert obj["base"]["cycle"] == [3, 1, 2]
        assert obj["values"] == ["z", "1"]

    def test_inconclusive_exits_one(self, capsys, tmp_path, seed_file):
        # doctor the seed: a real value (1) for the M+ entry
        entries = json.loads(Path(seed_file).read_text())
        entries[0]["value"] = "1"
        path = write(tmp_path, "real.json", entries)
        entry_id = entries[0]["id"]
        code, obj, _ = invoke_json(capsys, "zariski", "--ledger", path, "--entry", entry_id)
        assert code == 1
        assert obj["verdict"] == "inconclusive"

    @pytest.mark.parametrize(
        "obj",
        [
            [5],
            {"a": 1},
            [{"id": ["M+"]}],
            [
                {
                    "id": "M+",
                    "modulus": 3,
                    "exponents": [0] * 9,
                    "cycle": [1, 2, "x"],
                    "value": "z",
                    "provenance": "published: test",
                }
            ],
            [
                {
                    "id": "M+",
                    "modulus": 3,
                    "exponents": [0, 0, 0, 1, 1, 1, 2, 2, 2],
                    "cycle": [1, 2, 3],
                    "value": "1/0",
                    "provenance": "published: test",
                }
            ],
        ] + [
            [
                {
                    "id": "M+",
                    "modulus": modulus,
                    "exponents": [0] * 9,
                    "cycle": [1, 2, 3],
                    "value": "1",
                    "provenance": "published: test",
                }
            ]
            for modulus in (MAX_ORDER + 1, 10**12)
        ],
    )
    def test_malformed_ledger_exits_two_in_one_line(self, capsys, tmp_path, obj):
        path = write(tmp_path, "bad.json", obj)
        assert_malformed(*invoke(capsys, "zariski", "--ledger", path, "--entry", "M+"))

    def test_value_outside_the_character_image_exits_two(self, capsys, tmp_path):
        """The trivial character sends every class to 1, so a published z
        cannot be its value."""
        entry = dict(TRIANGLE_ENTRY, exponents=[0, 0, 0], value="z")
        path = write(tmp_path, "image.json", [entry])
        code, out, err = invoke(capsys, "zariski", "--ledger", path, "--entry", "T")
        assert_malformed(code, out, err)
        assert "value z is not in the image of the character" in err

    @pytest.mark.parametrize("command", [["invariant", "conj"], ["zariski"]])
    def test_invalid_embedded_combinatorics_exits_two(self, capsys, tmp_path, command):
        """Pair (1,2) lies in two points; the entry is refused as it is read."""
        comb = {"lines": ["a", "b", "c"], "points": [[1, 2], [1, 3], [2, 3], [1, 2, 3]]}
        entry = dict(TRIANGLE_ENTRY, combinatorics=comb, value="1")
        path = write(tmp_path, "invalid.json", [entry])
        code, out, err = invoke(capsys, *command, "--ledger", path, "--entry", "T")
        assert_malformed(code, out, err)
        assert "invalid combinatorics: line pair (1,2) lies in more than one point" in err


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert invoke(capsys, )[0] == 2

    def test_unknown_flag_rejected(self, capsys):
        assert invoke(capsys, "catalog", "ext-maclane-comb", "--frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, "--help")[0] == 0


class TestRoundTrips:
    @pytest.mark.parametrize(
        "name", ["ext-maclane-comb", "maclane-comb", "rybnikov-comb"]
    )
    def test_combinatorics_reparse(self, capsys, name):
        _, text, _ = invoke(capsys, "catalog", name)
        comb = Combinatorics.from_obj(json.loads(text))
        assert json.dumps(comb.to_obj(), indent=2) + "\n" == text

    @pytest.mark.parametrize("name", ["ext-maclane+", "ext-maclane-", "rybnikov+"])
    def test_arrangement_reparse(self, capsys, name):
        _, text, _ = invoke(capsys, "catalog", name)
        arr = Arrangement.from_obj(json.loads(text))
        assert json.dumps(arr.to_obj(), indent=2) + "\n" == text


# -- fuzzing the file boundary ------------------------------------------------


def coeff_rows(coeff):
    return st.lists(st.lists(coeff, min_size=3, max_size=3), max_size=4)


# Text over the grammar's tokens is rarely a literal, so a file built from it
# alone almost never parses; half the files take only literals and so reach
# the gluing search.
literal = st.sampled_from(["0", "1", "-1", "2", "z", "z^2", "1/2*z + 1"])
arrangements = (coeff_rows(cyclo_text | literal) | coeff_rows(literal)).map(arrangement)


@settings(max_examples=40, deadline=None)
@given(st.lists(arrangements, min_size=2, max_size=2))
@example([arrangement([["1", "0", "0"], ["0", "1", "0"]])] * 2)
@example([arrangement([["1/0", "0", "0"]])] * 2)
def test_derive_and_glue_never_escape(objs):
    """derive on each file and glue on each pair: exit 0, 1 or 2, never a
    traceback, and an exit of 2 writes one line to stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [write(Path(tmp), f"a{i}.json", obj) for i, obj in enumerate(objs)]
        argvs = [["derive", p] for p in paths] + [
            ["glue", "--max-candidates", "2", left, right]
            for left, right in product(paths, repeat=2)
        ]
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1, 2)
            if code == 2:
                assert_malformed(code, out.getvalue(), err.getvalue())


# -- a golden session ----------------------------------------------------------

GOLDEN = Path(__file__).parent / "data" / "golden_session"
GOLDEN_OUTPUTS = ("glued.json", "report.json", "comb.json", "entry.json", "verdict.json")
# Fixed integer maps applied to the catalog's M+ and M- after lifting to order 12.
GOLDEN_MAPS = {
    "+": [[2, 1, 0], [0, 1, -1], [1, 0, 3]],
    "-": [[1, -2, 1], [3, 1, 0], [0, 2, 1]],
}


def golden_session(workdir: Path) -> list[int]:
    """Write the lifted inputs and the seed ledger to ``workdir``, then run
    glue --report, derive, invariant glue and zariski on them there; return
    the exit codes. The outputs are the files named in GOLDEN_OUTPUTS."""
    order = 12
    for side, sign in (("left", "+"), ("right", "-")):
        arr = extended_maclane_realization(sign)
        lifted = Arrangement(
            order,
            [ProjLine(l.name, tuple(c.lift(order) for c in l.coeffs)) for l in arr.lines],
        )
        m = ProjMap([[CycloNum.from_rational(order, v) for v in row]
                     for row in GOLDEN_MAPS[sign]])
        (workdir / f"{side}.json").write_text(json.dumps(apply_map(lifted, m).to_obj()))
    (workdir / "ledger.json").write_text(json.dumps(seed_ledger().to_obj()))
    p = {name: str(workdir / name) for name in
         ("left.json", "right.json", "ledger.json") + GOLDEN_OUTPUTS}
    sessions = [
        ["glue", p["left.json"], p["right.json"], "-o", p["glued.json"],
         "--report", p["report.json"]],
        ["derive", p["glued.json"], "-o", p["comb.json"]],
        ["invariant", "glue", "--ledger", p["ledger.json"], "--left", "M+",
         "--right", "M-", "-o", p["entry.json"]],
        ["zariski", "--ledger", p["ledger.json"], "--entry", "M+",
         "-o", p["verdict.json"]],
    ]
    return [run(argv) for argv in sessions]


def test_golden_session_is_byte_identical(tmp_path):
    assert golden_session(tmp_path) == [0, 0, 0, 0]
    for name in GOLDEN_OUTPUTS:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
