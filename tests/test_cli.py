import contextlib
import csv
import dataclasses
import io
import itertools
import json
import math
import pathlib
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distpareto import cli, laws, verify
from distpareto.graph import make_family, make_graph, parse_edge_list


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_path3_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", "path", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "spectrum"
    assert doc["payload"]["values"] == [0.0, 1.0, 2.0, 2.73205080757]
    assert doc["payload"]["count"] == 4
    assert doc["payload"]["integer_ladder"]["all_present"] is True
    assert doc["graph_summary"]["diameter"] == 2


def test_spectrum_complete4(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", "complete", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["values"] == [0.0, 1.0, 2.0, 3.0]


def test_spectrum_csv_contract(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("3\n0 1\n1 2\n")
    code, out, _ = run(capsys, "spectrum", "--edges", str(f), "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,witness"
    assert lines[1] == "0.0,0"
    assert lines[-1].startswith("2.73205080757,0 1 2")


def test_rho2_star4(capsys):
    code, out, _ = run(capsys, "rho2", "--family", "star", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["value"] == 4.0
    assert doc["payload"]["witness_vertex"] == 0


def test_rho2_wheel6(capsys):
    code, out, _ = run(capsys, "rho2", "--family", "wheel", "6")
    doc = json.loads(out)
    assert doc["payload"]["value"] == 6.0


def test_rho2_bounds_kn_minus_e(capsys):
    code, out, _ = run(capsys, "rho2", "--family", "complete_minus_edge", "5", "--bounds")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["value"] == pytest.approx((3 + math.sqrt(17)) / 2, abs=1e-9)
    bounds = {(b["bound_id"], b["k"]): b for b in doc["payload"]["bounds"]}
    res = bounds[("rho2_noncomplete_lower", None)]
    assert res["applicable"] and res["tight"]
    inapplicable = bounds[("rho2_two_edges_lower", None)]
    assert inapplicable["applicable"] is False
    assert inapplicable["bound_value"] is None


def test_formulas_kab(capsys):
    code, out, _ = run(capsys, "formulas", "rho2_kab", "2", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["formula_value"] == 4.64575131106
    assert doc["payload"]["abs_diff"] < 1e-9
    assert doc["payload"]["surd"] == "2+sqrt(7)"


def test_formulas_kn_minus_e(capsys):
    code, out, _ = run(capsys, "formulas", "kn_minus_e_radius", "4")
    doc = json.loads(out)
    assert doc["payload"]["surd"] == "(3+sqrt(17))/2"
    assert doc["payload"]["abs_diff"] < 1e-9


def test_formulas_invalid_params(capsys):
    code, _, err = run(capsys, "formulas", "rho2_two_nonincident", "4")
    assert code == cli.EXIT_PARSE
    assert "n >= 5" in err


@pytest.mark.parametrize("argv", [("star_radius", "4", "5"), ("rho2_kab", "2")])
def test_formulas_wrong_parameter_count(capsys, argv):
    code, out, err = run(capsys, "formulas", *argv)
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert "parameter(s)" in err


def _refuse_sweeps(monkeypatch, what: str) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError(f"swept {args} before checking {what}")

    for name in ("trees_upto_iso", "connected_graph_classes", "check_tree_extremes",
                 "extremal_search", "random_connected_graph", "_monotonicity_reports"):
        monkeypatch.setattr(verify, name, refuse)


@pytest.mark.parametrize("suite,order", [(suite, top + 1)
                                         for suite, (_, _, top) in verify._SUITES.items()])
def test_verify_order_cap_checked_before_any_work(capsys, monkeypatch, suite, order):
    _refuse_sweeps(monkeypatch, "the cap")
    code, out, err = run(capsys, "verify", suite, "--order", str(order))
    assert code == cli.EXIT_CAP
    assert out == ""
    assert "cap exceeded" in err


@pytest.mark.parametrize("suite,order", [
    *((suite, lowest - 1) for suite, (_, lowest, _) in verify._SUITES.items()),
    ("tree-extremes", 0), ("monotonicity", -3),  # far below the floor
])
def test_verify_order_floor_checked_before_any_work(capsys, monkeypatch, suite, order):
    _refuse_sweeps(monkeypatch, "the order range")
    # --random would make bounds-sweep run random graphs even with no order to sweep
    code, out, err = run(capsys, "verify", suite, "--order", str(order), "--random", "3")
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert "--order >=" in err


@pytest.mark.parametrize("suite", sorted(verify._SUITES))
def test_verify_negative_random_rejected_before_any_work(capsys, monkeypatch, suite):
    _refuse_sweeps(monkeypatch, "--random")
    code, out, err = run(capsys, "verify", suite, "--order", "3", "--random", "-3")
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert "--random >= 0" in err


@pytest.mark.parametrize("argv", [
    ("spectrum", "--family", "path", "5", "--jobs", "-3"),
    ("rho2", "--family", "path", "5", "--jobs", "0"),
    ("verify", "extremal", "--order", "4", "--jobs", "0"),
])
def test_jobs_below_one_rejected_before_any_work(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError(f"worked on {args} before checking --jobs")

    for name in ("make_family", "pareto_spectrum", "rho2_fast"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(verify, "extremal_search", refuse)
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert "--jobs needs a worker count >= 1" in err


def test_rho2_bounds_above_spectrum_cap(capsys):
    code, out, err = run(capsys, "rho2", "--family", "path", "21", "--bounds")
    assert code == 0, err
    rows = json.loads(out)["payload"]["bounds"]
    capped = [r for r in rows if r["bound_id"] in ("count_lower", "rho_k_lower")]
    assert len(capped) == 1 + 21
    assert all(not r["applicable"] and "n <= 20" in r["reason"] for r in capped)
    others = [r for r in rows if r["bound_id"] not in ("count_lower", "rho_k_lower")]
    assert len(others) == 11  # the rho2_* bounds
    assert any(r["applicable"] for r in others)
    assert all(r["slack"] >= -1e-8 for r in others if r["applicable"])


@pytest.mark.parametrize("flag,value", [("--tolerance", "1e-3"), ("--max-order", "5")])
def test_rho2_rejects_spectrum_flags(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["rho2", "--family", "star", "4", flag, value])
    assert exc.value.code == cli.EXIT_PARSE


def test_verify_extremal_order5(capsys):
    code, out, _ = run(capsys, "verify", "extremal", "--order", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["max_count"] == 13
    assert len(doc["payload"]["witnesses"]) == 3


def test_verify_monotonicity_order5(capsys):
    code, out, _ = run(capsys, "verify", "monotonicity", "--order", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["holds"] is True
    assert doc["payload"]["violations"] == []


def test_verify_monotonicity_computes_rho2_once_per_class(capsys, monkeypatch):
    stacks, singles = [], []
    rho2_many = verify._rho2_many
    monkeypatch.setattr(verify, "_rho2_many", lambda d: stacks.append(d.shape) or rho2_many(d))
    for module in (cli, verify):
        monkeypatch.setattr(module, "rho2_fast", lambda g: singles.append(g))
    code, out, _ = run(capsys, "verify", "monotonicity", "--order", "5")
    assert code == 0
    assert singles == []
    # one screen per order 2..5, of each distinct graph among the classes and their
    # connected edge deletions once, however many classes share it
    assert len(stacks) == 4
    classes = [g for n in range(2, 6) for g in verify.connected_graph_classes(n)]
    graphs = {(g.n, g.edges) for g in classes} | {(g.n, g.edges - {e}) for g in classes
                                                  for e in g.edges}
    distinct = sum(verify._is_connected(make_graph(n, edges)) for n, edges in graphs)
    checked = json.loads(out)["payload"]["checked"]
    assert distinct < len(classes) + checked == 30 + 129
    assert sum(shape[0] for shape in stacks) == distinct
    golden = pathlib.Path(__file__).parent / "golden" / "verify_monotonicity5.out"
    assert out.encode("utf-8") == golden.read_bytes()


def test_formulas_star_radius6(capsys):
    code, out, _ = run(capsys, "formulas", "star_radius", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["formula_value"] == pytest.approx(4 + math.sqrt(21), abs=1e-9)
    assert doc["payload"]["surd"] == "4+sqrt(21)"
    assert doc["payload"]["abs_diff"] < 1e-9


def test_verify_bounds_sweep_small(capsys):
    code, out, _ = run(capsys, "verify", "bounds-sweep", "--order", "4", "--random", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["holds"] is True


def test_verify_exit_code_on_violation(capsys, monkeypatch):
    from distpareto.verify import PropertyReport

    monkeypatch.setattr(verify, "_monotonicity_reports",
                        lambda order: iter([PropertyReport("edge_monotonicity", "fake", False, {})]))
    code, out, _ = run(capsys, "verify", "monotonicity", "--order", "4")
    assert code == cli.EXIT_VIOLATION
    payload = json.loads(out)["payload"]
    assert payload["holds"] is False
    assert payload["checked"] == 1
    assert payload["violations"] == [{"instance": "fake", "counterexample": {}}]


def test_exit_code_parse_error(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("3\n0 9\n")
    code, _, err = run(capsys, "spectrum", "--edges", str(f))
    assert code == cli.EXIT_PARSE
    assert "line 2" in err


def test_edge_list_integers_are_ascii_digits(tmp_path, capsys):
    f = tmp_path / "underscores.txt"
    f.write_text("1_0\n0 1\n1 2_0\n")  # int() reads "1_0" as 10
    code, out, err = run(capsys, "spectrum", "--edges", str(f))
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert "line 1: expected vertex count, got '1_0'" in err


def _exit_code(capsys, *argv):
    """The exit code of ``main``, returned or raised by argparse as SystemExit."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    return code


@pytest.mark.parametrize("argv", [
    ["rho2", "--family", "path", "1_0", "--format", "csv"],
    ["spectrum", "--family", "complete_bipartite", "2", "+3"],
    ["formulas", "star_radius", "\uff15"],  # a fullwidth 5
    ["formulas", "rho2_kab", "2", " 3"],
    ["verify", "extremal", "--order", "\uff14"],
    ["verify", "bounds-sweep", "--order", "3", "--random", "1_0"],
    ["verify", "bounds-sweep", "--order", "3", "--random", "1", "--seed", "+7"],
    ["spectrum", "--family", "path", "3", "--jobs", "1_0"],
], ids=["family", "family-plus", "formulas-fullwidth", "formulas-blank", "order-fullwidth",
        "random", "seed", "jobs"])
def test_cli_integers_follow_the_edge_list_rule(capsys, argv):
    # every integer argument is ASCII digits after an optional "-", as in an edge list
    assert _exit_code(capsys, *argv) == cli.EXIT_PARSE


@pytest.mark.parametrize("value", ["1_0", "\uff11e-8", " 1e-8", "+1e-8", "1e-0_8"],
                         ids=["underscore", "fullwidth", "blank", "plus", "exponent-underscore"])
def test_tolerance_follows_the_decimal_rule(capsys, value):
    # float() would read each of these; "1_0" as a tolerance of 10
    assert _exit_code(capsys, "spectrum", "--family", "path", "4", f"--tolerance={value}") == (
        cli.EXIT_PARSE)


def test_tolerance_keeps_its_values(capsys):
    for value, expected in [("1e-3", 1e-3), ("0", 0.0), ("1.5e-12", 1.5e-12), ("1E-8", 1e-8)]:
        code, out, _ = run(capsys, "spectrum", "--family", "path", "4", "--tolerance", value)
        assert code == 0 and json.loads(out)["payload"]["dedup_tolerance"] == expected


def test_cli_integers_keep_their_values(capsys):
    # leading zeros still read as they did
    assert run(capsys, "spectrum", "--family", "path", "03", "--jobs", "02")[1] == run(
        capsys, "spectrum", "--family", "path", "3")[1]


class _CountingText(io.StringIO):
    """A text file that counts the characters read from it."""

    read_chars = 0

    def read(self, size=-1):
        text = super().read(size)
        self.read_chars += len(text)
        return text

    def readline(self, size=-1):
        text = super().readline(size)
        self.read_chars += len(text)
        return text


def test_graph6_read_only_to_its_order_before_the_cap():
    from distpareto.errors import CapExceededError, GraphParseError
    from distpareto.graph import parse_graph6
    from distpareto.pareto import _check_order

    n = 1000  # K_1000 in the long form: an 83 kB line
    k1000 = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0)) + "~" * (n * (n - 1) // 12)
    for line in (k1000, "  >>graph6<<" + k1000):
        fh = _CountingText(line + "\nC~\n")
        with pytest.raises(CapExceededError):
            cli._graph6_graph(fh, _check_order)
        assert fh.read_chars <= 2 * 14, line[:16]  # leading blanks, header and order bytes
    k20 = "S" + "~" * 32  # within the cap the first line is read whole, and no further
    for line in (k20, ">>graph6<<" + k20, "Bg", " C~ ", ""):
        fh = _CountingText(line + "\nC~\n")
        if line:
            assert cli._graph6_graph(fh, _check_order) == parse_graph6(line)
        else:
            with pytest.raises(GraphParseError, match="empty graph6 input"):
                cli._graph6_graph(fh, _check_order)
        assert fh.read_chars == len(line) + 1, line


def test_exit_code_cap(capsys):
    code, _, err = run(capsys, "spectrum", "--family", "path", "21")
    assert code == cli.EXIT_CAP
    assert "exceeds cap 20" in err


def test_spectrum_cap_cannot_be_raised():
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--family", "path", "4", "--max-order", "5"])
    assert exc.value.code == cli.EXIT_PARSE


def test_exit_code_disconnected(tmp_path, capsys):
    f = tmp_path / "disc.txt"
    f.write_text("4\n0 1\n2 3\n")
    code, _, err = run(capsys, "spectrum", "--edges", str(f))
    assert code == cli.EXIT_DISCONNECTED


def test_exit_code_eigensolver_error(capsys, monkeypatch):
    # no Newton step for the secular equation: the rho2 screen and the spectrum's
    # parents cannot certify a root, and the command says so on one line
    from distpareto import spectral

    monkeypatch.setattr(spectral, "_SECULAR_ITERATIONS", 0)
    for argv in (("rho2", "--family", "path", "30"), ("spectrum", "--family", "wheel", "14")):
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_EIGENSOLVER == 5, argv
        assert out == "" and err.startswith("eigensolver error: secular equation: "), argv
        assert err.count("\n") == 1, argv


def test_exit_code_unknown_family(capsys):
    code, _, err = run(capsys, "spectrum", "--family", "mystery", "4")
    assert code == cli.EXIT_PARSE


def test_json_deterministic_across_runs_and_jobs(capsys):
    outputs = []
    for jobs in ("1", "2", "1"):
        code, out, _ = run(capsys, "spectrum", "--family", "wheel", "7", "--jobs", jobs)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_graph_echo_round_trip(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", "wheel", "6")
    doc = json.loads(out)
    gs = doc["graph_summary"]
    text = "\n".join([str(gs["order"])] + [f"{u} {v}" for u, v in gs["edges"]])
    assert parse_edge_list(text).edges == make_family("wheel", [6]).edges


def test_table_format_runs(capsys):
    code, out, _ = run(capsys, "rho2", "--family", "star", "4", "--format", "table")
    assert code == 0
    assert "value: 4.0" in out


def test_graph6_source(tmp_path, capsys):
    f = tmp_path / "g.g6"
    f.write_text("C~\n")
    code, out, _ = run(capsys, "spectrum", "--graph6", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["values"] == [0.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_spectrum_rejects_invalid_tolerance(capsys, value):
    code, out, err = run(capsys, "spectrum", "--family", "path", "4", f"--tolerance={value}",
                         "--format", "csv")
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert "tolerance" in err


def _reference_jsonable(obj):
    """The element-by-element conversion the JSON writer must reproduce; an array
    leaf stands for its list form."""
    if isinstance(obj, np.ndarray) and obj.dtype.kind != "f":
        return _decoded(obj)
    if isinstance(obj, np.ndarray):
        return _reference_jsonable(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): _reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if v != v:
            return None
        return float(f"{v:.12g}")
    return obj


_TEXT = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "n\u00e9 \u2211 \u6f22", ", ", "[", "]", "],\n    [", "{}", 'a"b\\c]']),
)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 1e-300, 5e-324, 1 / 3, 1e16]),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _FLOATS,
    _TEXT,
    st.booleans().map(np.bool_),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
)


def _decoded(masks: np.ndarray) -> list[list[int]]:
    """The vertex lists of the subsets ``masks`` (bit v for vertex v), one bit at a time."""
    return [[v for v in range(20) if m >> v & 1] for m in masks.tolist()]


# the writer's array leaves, empty ones included; a subset mask uses bits 0..19, the
# order cap, and the writer's two text tables split it at bit 10
_FLOAT_ARRAYS = st.lists(_FLOATS, max_size=7).map(lambda xs: np.array(xs, dtype=np.float64))
_HALVES = st.integers(0, (1 << 10) - 1)
_MASK = st.one_of(st.integers(0, (1 << 20) - 1), st.integers(0, 19).map(lambda v: 1 << v),
                  _HALVES.map(lambda m: m << 10), _HALVES)
_MASKS = st.lists(_MASK, max_size=6).map(lambda xs: np.array(xs, dtype=np.int32))
_KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(), st.none(),
                  st.floats(allow_nan=False))
_DOCS = st.recursive(
    st.one_of(_SCALARS, _FLOAT_ARRAYS, _MASKS),
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(_KEYS, kids, max_size=5),
        st.lists(st.lists(st.one_of(st.integers(), _FLOATS, _TEXT), max_size=3), max_size=4),
        st.lists(st.lists(st.integers(0, 20), min_size=1, max_size=4).map(tuple), max_size=4),
    ),
    max_leaves=30,
)


def _written(doc) -> str:
    """The text ``cli._write`` sends to stdout for the JSON document ``doc``."""
    return "".join(cli._layout(doc, 0)) + "\n"


@settings(max_examples=400, deadline=None)
@given(_DOCS, st.sampled_from([1, 2, 3, cli._BLOCK]))
def test_json_writer_matches_indented_dumps(doc, block):
    expected = json.dumps(_reference_jsonable(doc), sort_keys=True, indent=2) + "\n"
    with mock.patch.object(cli, "_BLOCK", block):  # array leaves split into several pieces
        assert _written(cli._jsonable(doc)) == expected


# Rows of scalars, as the bound table is: strings that look like the text between
# two rows, quotes, backslashes and newlines, NaN (null), and empty rows and lists.
_ROW_TEXT = st.one_of(
    st.text(max_size=5),
    st.sampled_from(["}, {", "},\n    {", "],", "}", "{", '"', "\\", "\n", 'a"}, {"b', "{}", "[]"]),
)
_ROW_VALUES = st.one_of(_ROW_TEXT, _FLOATS, st.integers(), st.booleans(), st.none())
_ROWS = st.lists(st.dictionaries(st.one_of(_ROW_TEXT, st.integers(-2, 2)), _ROW_VALUES, max_size=4),
                 max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_ROWS, st.dictionaries(_ROW_TEXT, _ROWS, max_size=3), st.lists(_ROWS, max_size=3)))
def test_json_writer_matches_indented_dumps_on_lists_of_dicts(doc):
    doc = cli._jsonable(doc)
    assert _written(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Bound-report rows as the writer gets them, a record leaf, with the values the
# table holds (NaN for an inapplicable bound, integers, k None or an int) and
# floats whose twelve-digit text differs from repr's.
_RECORDS = st.lists(st.builds(
    lambda texts, k, numbers, flags: laws.BoundResult(
        bound_id=texts[0], k=k, direction=texts[1], bound_value=numbers[0],
        actual_value=numbers[1], slack=numbers[2], tight=flags[0], applicable=flags[1],
        reason=texts[2]),
    st.tuples(_ROW_TEXT, _ROW_TEXT, _ROW_TEXT), st.one_of(st.none(), st.integers(1, 20)),
    st.tuples(_FLOATS, _FLOATS, _FLOATS), st.tuples(st.booleans(), st.booleans()),
), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(_RECORDS, st.sampled_from([None, "bounds"]))
def test_record_leaf_is_written_as_its_rows_field_dicts(records, key):
    # JSON against json.dumps of the field dicts, the table against the table of
    # those dicts, and CSV against csv.writer on their values, each rounded
    rows = [dataclasses.asdict(r) for r in records]
    assert _written(cli._jsonable(records if key is None else {key: records})) == (
        json.dumps(_reference_jsonable(rows if key is None else {key: rows}),
                   sort_keys=True, indent=2) + "\n")
    texts = {}
    for fmt, bounds in (("csv", records), ("table", records), ("dicts", cli._jsonable(rows))):
        doc = {"command": "rho2", "tool_version": "0", "graph_summary": None,
               "payload": {"value": 1.5, "witness_vertex": 0, "bounds": bounds}}
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli._write(cli._jsonable(doc), "table" if fmt == "dicts" else fmt)
        texts[fmt] = out.getvalue()
    assert texts["table"] == texts["dicts"]
    want = io.StringIO()
    csv.writer(want, lineterminator="\n").writerows(
        [list(rows[0])] + [list(row.values()) for row in cli._jsonable(rows)])
    assert texts["csv"] == want.getvalue()


def _neighbours(v: float, steps: int) -> float:
    """``v`` moved by ``steps`` units in the last place."""
    for _ in range(abs(steps)):
        v = math.nextafter(v, math.copysign(math.inf, steps))
    return v


# Floats whose 12-digit text differs from repr's, and their neighbours: zeros, values
# that round to integers, 1e-5, the decades 1e11..1e16 where %.12g switches to an
# exponent before repr does, and subnormals.
_ADVERSARIAL = st.tuples(
    st.one_of(
        st.sampled_from([0.0, 1e-5, 3.9999999999999, 0.9999999999996, 0.5, 9.99999999999e11,
                         999999999999.5, 1e12, 1e15, 9.9999999999999e15, 1e16, 1e17,
                         2.2250738585072014e-308, 5e-324, 1.5e-323, 1e-310, 123456.7890125]),
        st.integers(-(10**13), 10**13).map(float),
        st.tuples(st.integers(-(10**12), 10**12), st.floats(-6e-12, 6e-12)).map(
            lambda t: t[0] * (1.0 + t[1]) + t[1]),
        st.floats(9.99999999999e11, 1e16),
        st.floats(-2.3e-308, 2.3e-308),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    st.integers(-2, 2),
    st.booleans(),
).map(lambda t: _neighbours(-t[0] if t[2] else t[0], t[1]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_ADVERSARIAL, min_size=1, max_size=12))
def test_float_leaf_matches_twelve_digit_repr(xs):
    rounded = [float(f"{v:.12g}") for v in xs]
    expected = ["null" if v != v else json.dumps(r) for v, r in zip(xs, rounded)]
    text = "".join(cli._layout(np.array(xs), 0))
    assert text == "[\n  " + ",\n  ".join(expected) + "\n]"
    # CSV and table write a number whose rounding is finite as repr of that rounding
    finite = np.isfinite(rounded)
    values, rounded = np.array(xs)[finite], np.array(rounded)[finite].tolist()
    assert "".join(cli._table_pieces({"values": values}, 0)) == f"values: {rounded}\n"
    witnesses = np.left_shift(1, np.arange(values.size), dtype=np.int32)  # vertex i in row i
    doc = {"command": "spectrum", "payload": {"values": values, "witnesses": witnesses}}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._write(doc, "csv")
    assert out.getvalue() == "value,witness\n" + "".join(f"{r!r},{i}\n" for i, r in enumerate(rounded))


def test_json_writer_matches_indented_dumps_on_a_spectrum():
    from distpareto.pareto import pareto_spectrum

    spec = pareto_spectrum(make_family("wheel", [7]))
    doc = {"values": spec.values, "witnesses": spec.witnesses, "empty": [[], {}], "nested": [[[1]]],
           "value_array": spec.value_array, "witness_masks": spec.witness_masks,
           "no_values": np.empty(0), "no_masks": np.empty(0, dtype=np.int32)}
    expected = json.dumps(_reference_jsonable(doc), sort_keys=True, indent=2) + "\n"
    assert _reference_jsonable(doc)["witness_masks"] == _reference_jsonable(doc)["witnesses"]
    for block in (1, 5, cli._BLOCK):
        with mock.patch.object(cli, "_BLOCK", block):
            assert _written(cli._jsonable(doc)) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), _MASK), max_size=12),
       st.sampled_from([1, 2, 3, cli._BLOCK]))
def test_mask_leaf_matches_the_decoded_lists_in_every_format(rows, block):
    # the spectrum's witnesses as masks, in blocks of whole rows: JSON against
    # json.dumps of the decoded lists, CSV and table against the tuple rendering
    values = np.array([v for v, _ in rows], dtype=np.float64)
    masks = np.array([m for _, m in rows], dtype=np.int32)
    doc = {"command": "spectrum", "tool_version": "0", "graph_summary": None,
           "payload": {"values": values, "witnesses": masks, "count": len(rows)}}
    listed = dict(doc, payload=_reference_jsonable(doc["payload"]))
    expected = {"json": json.dumps(listed, sort_keys=True, indent=2) + "\n",
                "csv": _reference_csv(listed), "table": _reference_table(listed)}
    with mock.patch.object(cli, "_BLOCK", block):
        for fmt, text in expected.items():
            with contextlib.redirect_stdout(io.StringIO()) as out:
                cli._write(doc, fmt)
            assert out.getvalue() == text, fmt


_WRITE_BOUND = 128 << 10  # characters in one stdout write of the spectrum command


def _parsed_spectrum(text: str, fmt: str) -> tuple[list[float], list[list[int]]]:
    """The values and witnesses of a spectrum's output in ``fmt``."""
    if fmt == "json":
        payload = json.loads(text)["payload"]
        return payload["values"], payload["witnesses"]
    lines = text.splitlines()
    if fmt == "csv":
        rows = list(csv.reader(lines[1:]))
        return [float(v) for v, _ in rows], [list(map(int, w.split())) for _, w in rows]
    at = lines.index("witnesses:")
    assert lines[at - 1].startswith("values: [")
    witnesses = list(itertools.takewhile(lambda line: line.startswith("  ["), lines[at + 1 :]))
    assert lines[at + 1 + len(witnesses)].startswith("count: ")
    return json.loads(lines[at - 1][len("values: "):]), [json.loads(w) for w in witnesses]


def test_spectrum_json_is_written_in_bounded_pieces_from_the_arrays(tmp_path, monkeypatch):
    """Every format, JSON, CSV and table, is written from the arrays in bounded pieces."""
    from distpareto import pareto
    from distpareto.graph import edge_list_text
    from distpareto.verify import random_connected_graph

    g = random_connected_graph(16, np.random.default_rng(3), extra_edge_prob=0.05)
    f = tmp_path / "g16.txt"
    f.write_text(edge_list_text(g))
    spec = pareto.pareto_spectrum(g)
    expected = [float(f"{v:.12g}") for v in spec.values], [list(w) for w in spec.witnesses]
    for fmt, size in (("json", 4_000_000), ("csv", 1_000_000), ("table", 1_400_000)):
        writes = []
        monkeypatch.setattr(sys, "stdout", mock.Mock(write=writes.append))
        for name in ("values", "witnesses"):  # the output never builds the tuple forms
            monkeypatch.setattr(pareto.ParetoSpectrum, name,
                                property(lambda s: pytest.fail("tuples read")))
        assert cli.main(["spectrum", "--edges", str(f), "--format", fmt]) == 0
        monkeypatch.undo()
        text = "".join(writes)
        assert len(text) > size, fmt  # the whole output: 4.3, 1.1 and 1.5 MB
        assert max(map(len, writes)) <= _WRITE_BOUND, fmt
        assert _parsed_spectrum(text, fmt) == expected, fmt


def _reference_table(doc: dict) -> str:
    """The table text of a document whose leaves are lists, built as one string:
    the reference for the streamed table writer."""
    out = io.StringIO()
    gs = doc.get("graph_summary")
    print(f"command: {doc['command']}  (tool {doc['tool_version']})", file=out)
    if gs:
        print(f"graph: order={gs['order']} size={gs['size']} diameter={gs['diameter']}"
              + (f" name={gs['name']}" if gs.get("name") else ""), file=out)

    def walk(obj, depth=0):
        pad = "  " * depth
        if isinstance(obj, dict):
            for key, val in obj.items():
                if isinstance(val, dict) or (
                    isinstance(val, list) and any(isinstance(v, (dict, list)) for v in val)
                ):
                    print(f"{pad}{key}:", file=out)
                    walk(val, depth + 1)
                else:
                    print(f"{pad}{key}: {val}", file=out)
        else:
            for val in obj:
                if isinstance(val, dict):
                    walk(val, depth)
                    print(f"{pad}-", file=out)
                else:
                    print(f"{pad}{val}", file=out)

    walk(doc["payload"])
    return out.getvalue()


def _reference_csv(doc: dict) -> str:
    """The spectrum's CSV from a document whose leaves are lists, built as one string."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["value", "witness"])
    payload = doc["payload"]
    writer.writerows([v, " ".join(str(x) for x in w)]
                     for v, w in zip(payload["values"], payload["witnesses"]))
    return out.getvalue()


@pytest.mark.parametrize("source", [("--family", "complete", "1"), ("--family", "complete", "5"),
                                    ("--family", "wheel", "7"), ("--edges", "g12.txt")])
def test_spectrum_csv_and_table_match_the_tuple_rendering_at_every_block_size(
    tmp_path, capsys, source
):
    from distpareto.graph import edge_list_text
    from distpareto.pareto import pareto_spectrum
    from distpareto.verify import random_connected_graph

    if source[0] == "--edges":
        g = random_connected_graph(12, np.random.default_rng(7), extra_edge_prob=0.2)
        source = ("--edges", str(tmp_path / source[1]))
        pathlib.Path(source[1]).write_text(edge_list_text(g))
    g = cli._load_graph(cli._parser().parse_args(["spectrum", *source]), cli._check_order)
    spec = pareto_spectrum(g)
    ladder = json.loads(run(capsys, "spectrum", *source)[1])["payload"]["integer_ladder"]
    doc = cli._document("spectrum", {
        "values": spec.values,
        "witnesses": spec.witnesses,
        "count": spec.count,
        "integer_ladder": {"integers": ladder["integers"], "all_present": ladder["all_present"]},
        "dedup_tolerance": spec.dedup_tolerance,
    }, cli._graph_summary(g))
    expected = {"csv": _reference_csv(doc), "table": _reference_table(doc)}
    for block in (1, 2, 3, cli._BLOCK):
        with mock.patch.object(cli, "_BLOCK", block):
            for fmt in ("csv", "table"):
                code, out, _ = run(capsys, "spectrum", *source, "--format", fmt)
                assert code == 0
                assert out == expected[fmt], (fmt, block)


def test_invalid_utf8_in_an_edge_list_is_reported_by_line(tmp_path, capsys):
    n = 20
    body = (f"{n}\n" + "".join(f"{u} {v}\n" for u in range(n) for v in range(u + 1, n)) * 40).encode()
    for data in (b"# \xff\n" + body, body[:20_005] + b"\xff" + body[20_006:]):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        line = data[: data.index(b"\xff")].count(b"\n") + 1  # 1, then one past the first 8 KiB
        code, out, err = run(capsys, "spectrum", "--edges", str(path))
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert err == f"parse error: line {line}: invalid UTF-8 byte 0xff\n"


def test_spectrum_cap_reads_an_edge_list_only_up_to_its_order_line(tmp_path, capsys):
    import tracemalloc

    n = 1000  # K_1000: a 3.9 MB edge list and an 83 kB graph6 line
    g6 = tmp_path / "k1000.g6"
    g6.write_text("~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
                  + "~" * (n * (n - 1) // 12) + "\n")
    sources = [("--graph6", g6)]
    # lines ended by "\n", or only by breaks at which the file's own line reader
    # does not stop
    for end in ("\n", "\x0c", "\u2028"):
        edges = tmp_path / f"k1000-{ord(end)}.txt"
        edges.write_text(f"{n}{end}" + "".join(f"{u} {v}{end}" for u in range(n)
                                               for v in range(u + 1, n)), encoding="utf-8")
        sources.append(("--edges", edges))
    peaks = {}
    for flag, f in sources:
        tracemalloc.start()
        try:
            assert cli.main(["spectrum", flag, str(f)]) == cli.EXIT_CAP
            peaks[f.name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "exceeds cap 20" in capsys.readouterr().err
    assert all(peak < peaks[g6.name] + (1 << 20) for peak in peaks.values()), peaks


# ---------------------------------------------------------------------------
# One parser per process, built-once caches and the work they save


def test_spectrum_cap_checked_before_the_graph_is_built(capsys, monkeypatch):
    from distpareto import graph

    def refuse(*params):
        raise AssertionError(f"family built with {params}")

    for name, (_, arity) in graph._FAMILIES.items():
        monkeypatch.setitem(graph._FAMILIES, name, (refuse, arity))
    for params in (["complete", "2000"], ["complete_bipartite", "10", "11"],
                   ["clique_plus_pendant_p", "20", "3"], ["path", "21"]):
        code, out, err = run(capsys, "spectrum", "--family", *params)
        assert code == cli.EXIT_CAP and out == ""
        assert "exceeds cap 20" in err
    # at the cap the check passes and the family is built
    for params in (["complete_bipartite", "10", "10"], ["clique_plus_pendant_p", "19", "2"],
                   ["star", "20"]):
        with pytest.raises(AssertionError, match="family built"):
            cli.main(["spectrum", "--family", *params])


def test_rho2_cap_checked_before_the_graph_is_built(tmp_path, capsys, monkeypatch):
    from distpareto import graph

    def refuse(*args):
        raise AssertionError(f"graph built with {args}")

    for name, (_, arity) in graph._FAMILIES.items():
        monkeypatch.setitem(graph._FAMILIES, name, (refuse, arity))
    monkeypatch.setattr(cli, "_edge_list_graph", refuse)  # parses the lines after the order
    monkeypatch.setattr(cli, "parse_graph6", refuse)
    edges = tmp_path / "big.txt"  # above the cap and malformed: the cap wins
    edges.write_text("401\n0 1\nnot an edge\n")
    g6 = tmp_path / "p500.g6"  # order 500 in the long form, no body
    g6.write_text("~" + "".join(chr(63 + (500 >> s & 63)) for s in (12, 6, 0)) + "\n")
    for source in (["--family", "complete", "1500"], ["--family", "complete_bipartite", "200", "201"],
                   ["--family", "path", "401", "--bounds"], ["--edges", str(edges)],
                   ["--graph6", str(g6)]):
        code, out, err = run(capsys, "rho2", *source)
        assert code == cli.EXIT_CAP and out == "", source
        assert "exceeds cap 400" in err
    # at the cap the check passes and the graph is built
    for source in (["--family", "complete", "400"], ["--family", "complete_bipartite", "200", "200"]):
        with pytest.raises(AssertionError, match="graph built"):
            cli.main(["rho2", *source])
    edges.write_text("400\n0 1\n")
    with pytest.raises(AssertionError, match="graph built"):
        cli.main(["rho2", "--edges", str(edges)])


def test_formulas_cap_checked_before_the_family_is_built(capsys, monkeypatch):
    from distpareto import laws

    def refuse(*params):
        raise AssertionError(f"family built with {params}")

    monkeypatch.setattr(laws, "make_family", refuse)
    for params in (["star_radius", "1000000"], ["complete_spectrum", "21"],
                   ["kn_minus_e_radius", "21"]):
        code, out, err = run(capsys, "formulas", *params)
        assert code == cli.EXIT_CAP and out == ""
        assert "exceeds cap 20" in err
    # the rho2 forms exit 3 above the rho2 command's cap
    for params in (["rho2_kn_minus_e", "1500"], ["rho2_kab", "200", "201"],
                   ["rho2_k_pendant", "401"], ["rho2_two_nonincident", "401"]):
        code, out, err = run(capsys, "formulas", *params)
        assert code == cli.EXIT_CAP and out == ""
        assert "exceeds cap 400" in err
    # at the caps the check passes and the family is built
    for params in (["star_radius", "20"], ["rho2_kn_minus_e", "21"], ["rho2_kab", "200", "200"],
                   ["rho2_k_pendant", "400"], ["rho2_two_nonincident", "400"]):
        with pytest.raises(AssertionError, match="family built"):
            cli.main(["formulas", *params])


def test_formulas_cap_checked_before_the_closed_form_is_built(capsys, monkeypatch):
    from distpareto import laws

    def refuse(*params):
        raise AssertionError(f"closed form built with {params}")

    count, _, family, quantity = laws._CLOSED_FORMS["complete_spectrum"]
    with monkeypatch.context() as m:
        m.setitem(laws._CLOSED_FORMS, "complete_spectrum", (count, refuse, family, quantity))
        code, out, err = run(capsys, "formulas", "complete_spectrum", "4000000")
    assert code == cli.EXIT_CAP and out == ""
    assert "exceeds cap 20" in err
    # invalid parameters still get the builder's own message
    for params, message in ((["complete_spectrum", "0"], "complete_spectrum needs n >= 1"),
                            (["star_radius", "1"], "star radius needs n >= 2"),
                            (["kn_minus_e_radius", "-5"], "kn_minus_e_radius needs n >= 3")):
        code, out, err = run(capsys, "formulas", *params)
        assert code == cli.EXIT_PARSE and out == "" and message in err, params


def test_spectrum_cap_checked_before_any_edge_is_parsed(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("input parsed before the cap was checked")

    monkeypatch.setattr(cli, "_edge_list_graph", refuse)  # parses the lines after the order
    monkeypatch.setattr(cli, "parse_graph6", refuse)
    big = tmp_path / "k400.txt"  # a large edge list: K_400
    big.write_text("400\n" + "".join(f"{u} {v}\n" for u in range(400) for v in range(u + 1, 400)))
    commented = tmp_path / "commented.txt"  # comments and blanks before the order line
    commented.write_text("# a path\n\n   # indented comment\n  21  \n0 1\n")
    malformed = tmp_path / "malformed.txt"  # above the cap and malformed: the cap wins
    malformed.write_text("25\n0 99\nnot an edge\n")
    g6_short = tmp_path / "k21.g6"  # order 21 in the one-byte form, no body
    g6_short.write_text(">>graph6<<" + chr(63 + 21) + "\n")
    g6_long = tmp_path / "p63.g6"  # order 63 in the long form, truncated body
    g6_long.write_text("~??~@\n")
    for flag, f in (("--edges", big), ("--edges", commented), ("--edges", malformed),
                    ("--graph6", g6_short), ("--graph6", g6_long)):
        code, out, err = run(capsys, "spectrum", flag, str(f))
        assert code == cli.EXIT_CAP and out == "", f
        assert "exceeds cap 20" in err
    # at the cap the check passes and the parser runs
    at_cap = tmp_path / "at_cap.txt"
    at_cap.write_text("# order\n20\n")
    with pytest.raises(AssertionError, match="before the cap"):
        cli.main(["spectrum", "--edges", str(at_cap)])


@pytest.mark.parametrize("text", ["", "# only a comment\n", "x\n0 1\n", "0\n"])
def test_spectrum_bad_order_line_is_a_parse_error(tmp_path, capsys, text):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    code, out, _ = run(capsys, "spectrum", "--edges", str(f))
    assert code == cli.EXIT_PARSE and out == ""


def test_in_process_reuse_leaks_no_state(capsys):
    commands = [
        ["rho2", "--family", "wheel", "7", "--bounds"],
        ["rho2", "--family", "wheel", "7"],
        ["spectrum", "--family", "cycle", "5", "--format", "csv"],
    ]
    first = [run(capsys, *argv) for argv in commands]
    assert all(code == 0 for code, _, _ in first)
    assert "bounds" in json.loads(first[0][1])["payload"]
    assert "bounds" not in json.loads(first[1][1])["payload"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["rho2", "--bounds"])  # no graph source: usage error
    assert exc.value.code == cli.EXIT_PARSE
    capsys.readouterr()
    assert [run(capsys, *argv) for argv in commands] == first


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        for _ in range(50):
            assert cli.main(["rho2", "--family", "path", "4"]) == 0
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(built) == 1


def test_rho2_bounds_op_computes_distances_once(capsys, monkeypatch):
    from distpareto import graph

    calls = []
    real = graph._hop_distances
    monkeypatch.setattr(graph, "_hop_distances", lambda adj: calls.append(adj.shape) or real(adj))
    code, out, _ = run(capsys, "rho2", "--family", "wheel", "9", "--bounds")
    assert code == 0 and len(json.loads(out)["payload"]["bounds"]) == 21
    assert calls == [(1, 9, 9)]


def test_rho2_bounds_op_solves_each_deletion_once(capsys, monkeypatch):
    # at n <= 20 the report's spectrum keeps rho2; above the cap it is screened once
    from distpareto import pareto

    calls = []
    screen = pareto._rho2_many
    monkeypatch.setattr(pareto, "_rho2_many", lambda d: calls.append(d.shape) or screen(d))
    for n, screens in ((12, []), (21, [(1, 21, 21)])):
        calls.clear()
        code, out, _ = run(capsys, "rho2", "--bounds", "--family", "path", str(n))
        assert code == 0 and len(json.loads(out)["payload"]["bounds"]) == 12 + n
        assert calls == screens, n

