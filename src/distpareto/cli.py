"""Command-line frontend with deterministic JSON/CSV/table output.

Exit codes: 0 success (and zero violations for verify suites), 1 verify suite
found violations, 2 parse/usage error, 3 size cap exceeded, 4 disconnected
input graph, 5 eigensolver error (a numerical result failed its check).

Every command builds one document, which ``_write`` sends to stdout as JSON,
CSV or a table, piece by piece.  The spectrum's two long lists are array
leaves written in bounded blocks in every format: its values, a float array,
and its witnesses, an integer array of bit masks.  Each witness row is one
concatenation of two cached texts of its format's row layout, looked up by
the mask's bits 0..9 and 10..19 (``_half_texts``), so no witness is decoded
into labels.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import operator
import re
import sys

import numpy as np

from . import __version__
from .errors import CapExceededError, DisconnectedGraphError, EigensolverError, GraphParseError
from .graph import (
    _G6_HEADER,
    _INTEGER,
    Graph,
    FAMILY_NAMES,
    _edge_list_graph,
    _edge_list_order,
    _family_order,
    _graph6_order,
    _is_integer,
    diameter,
    distance_matrix,
    make_family,
    parse_graph6,
)
from .laws import (
    CLOSED_FORM_IDS,
    BoundResult,
    _form_instance,
    bound_report,
    closed_form,
    closed_form_brute_force,
    closed_form_surd,
)
from .pareto import DEFAULT_DEDUP_TOL, _check_order, _check_rho2_order, pareto_spectrum, rho2_fast
from .verify import _SUITES

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_DISCONNECTED = 4
EXIT_EIGENSOLVER = 5


_PLAIN = frozenset({bool, int, str, type(None)})  # scalar types JSON takes unchanged
_DIGITS12 = "{:.12g}".format  # floats are printed to 12 significant digits
_BLOCK = 4096  # entries per piece of an array leaf's text, in every format
_HALF = 10  # mask bits per text table of a row layout: two cover the order cap of 20
_HALF_SIZES = np.array([m.bit_count() for m in range(1 << _HALF)])  # vertices in a half mask
_BOUND_COLUMNS = tuple(f.name for f in dataclasses.fields(BoundResult))  # scalars, report order


def _jsonable(obj):
    """Convert payload values to JSON-stable types.

    Floats are rounded to 12 significant digits, NaN (an inapplicable numeric
    field) becomes None, numpy scalars become Python scalars, tuples become
    lists and keys become str.  A list of plain scalars, or of lists of them,
    is converted as a whole, a plain scalar in a dict is kept as it is and a
    float in a dict is rounded in place; anything else element by element.
    The leaves, a 1-D float ``np.ndarray`` (a list of numbers), a 1-D integer
    one (a list of vertex subsets as bit masks, bit v for vertex v) and a list
    of records (dataclass instances of one class with scalar fields, such as
    the bound report's rows), are kept as they are: the writers write them as
    the lists they stand for (of field dicts, for records) would be written
    after this conversion.
    """
    if isinstance(obj, dict):
        return {str(k): v if type(v) in _PLAIN else _rounded(v) if type(v) is float
                else _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        kinds = set(map(type, obj))
        if kinds <= _PLAIN:
            return list(obj)
        if len(kinds) == 1 and dataclasses.is_dataclass(obj[0]):
            return list(obj)  # a record leaf
        if kinds == {float} and not any(map(math.isnan, obj)):
            return list(map(float, map(_DIGITS12, obj)))
        if kinds <= {list, tuple} and set(map(type, itertools.chain.from_iterable(obj))) <= _PLAIN:
            return list(map(list, obj))
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _rounded(float(obj))
    return obj


def _is_records(obj) -> bool:
    """Whether ``obj``, normalised by ``_jsonable``, is a record leaf."""
    return isinstance(obj, list) and bool(obj) and dataclasses.is_dataclass(obj[0])


def _record_dicts(records: list) -> list[dict]:
    """The field dicts of a record leaf, as ``_jsonable`` converts them."""
    return [_jsonable(dataclasses.asdict(r)) for r in records]


def _rounded(v: float) -> float | None:
    """A float as ``_jsonable`` keeps it: None for NaN, else rounded to 12 digits."""
    return None if v != v else float(_DIGITS12(v))


def _graph_summary(g: Graph) -> dict:
    return {
        "order": g.n,
        "size": g.size,
        "diameter": diameter(distance_matrix(g)),
        "name": g.name,
        "edges": g.sorted_edges(),  # pairs, written as lists
    }


def _document(command: str, payload: dict, summary: dict | None = None) -> dict:
    doc = {
        "command": command,
        "payload": payload,
        "tool_version": __version__,
        "graph_summary": summary,
    }
    return _jsonable(doc)


@functools.cache
def _encoder(level: int) -> json.JSONEncoder:
    """C encoder whose item separator starts a new line indented to ``level``.

    Built once per level: an encoder keeps no state between ``encode`` calls.
    """
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * level, ": "))


def _scalars(items) -> bool:
    """Whether no item is a container or an array leaf (checked per type, not per item)."""
    return not any(issubclass(t, (dict, list, np.ndarray)) for t in set(map(type, items)))


def _rows_of_scalars(items: list) -> bool:
    """Whether ``items`` is a list of nonempty lists of scalars."""
    return set(map(type, items)) == {list} and all(items) and _scalars(
        itertools.chain.from_iterable(items))


def _layout(obj, level: int):
    """Yield ``obj``, normalised by ``_jsonable``, as pieces of the text of
    ``json.dumps`` with sorted keys and a 2-space indent, opened at nesting ``level``.

    Each container of scalars, and each list of nonempty lists of scalars, is
    one piece from one call of the C encoder; an array leaf comes in pieces of
    about ``_BLOCK`` numbers (``_leaf_pieces``).  Only the containers above
    them are walked here.
    """
    if _is_records(obj):
        yield _record_text(obj, level)
        return
    if isinstance(obj, np.ndarray):
        if not obj.size:
            yield "[]"
            return
        inner, deep = "  " * (level + 1), "\n" + "  " * (level + 2)
        yield from _leaf_pieces(obj, (f"[{deep}", f",{deep}", f"\n{inner}]", "[]"),
                                "[\n" + inner, ",\n" + inner)
        yield "\n" + "  " * level + "]"
        return
    if not isinstance(obj, (dict, list)) or not obj:
        yield json.dumps(obj)
        return
    pad, inner = "  " * level, "  " * (level + 1)
    is_dict = isinstance(obj, dict)
    opening, closing = "{}" if is_dict else "[]"
    if _scalars(obj.values() if is_dict else obj):
        body = _encoder(level + 1).encode(obj)[1:-1]
    elif not is_dict and _rows_of_scalars(obj):
        # Encoded with the rows' separator, then each row is closed and the next
        # opened on lines of their own.  A scalar neither ends in "]" nor starts
        # with "[", and an encoded string holds no newline, so "]" + separator +
        # "[" occurs exactly between two rows.
        deep = "\n" + "  " * (level + 2)
        text = _encoder(level + 2).encode(obj)[2:-2]
        body = f"[{deep}" + text.replace(f"],{deep}[", f"\n{inner}],\n{inner}[{deep}") + f"\n{inner}]"
    else:
        # The scalar items, keyed in a dict, come from one call of the C encoder,
        # split at its item separator, which no encoded scalar holds.
        keys = sorted(obj) if is_dict else range(len(obj))
        nested = [isinstance(obj[key], (dict, list, np.ndarray)) for key in keys]
        scalars = [key for key, deep in zip(keys, nested) if not deep]
        texts = iter(_encoder(level + 1).encode(
            {key: obj[key] for key in scalars} if is_dict else [obj[key] for key in scalars]
        )[1:-1].split(",\n" + inner))
        sep = opening + "\n" + inner
        for key, deep in zip(keys, nested):
            if deep:
                yield f"{sep}{_encode_str(key)}: " if is_dict else sep
                yield from _layout(obj[key], level + 1)
            else:
                yield sep + next(texts)
            sep = ",\n" + inner
        yield f"\n{pad}{closing}"
        return
    yield f"{opening}\n{inner}{body}\n{pad}{closing}"


_COLUMN_ENCODER = json.JSONEncoder(separators=("\n", ": "))  # no scalar's text holds a newline
_encode_str = json.encoder.encode_basestring_ascii  # the text json.dumps gives a str


def _column_texts(columns: list[list]) -> list[list[str]]:
    """The JSON text of each scalar of each of the equally long ``columns`` as
    ``_jsonable`` converts it: the columns of floats are rounded and written
    together in one pass (``_float_args``), all the others in one call of the C
    encoder."""
    size = len(columns[0])
    floats = [set(map(type, column)) == {float} for column in columns]
    fmts, args = _float_args(np.array([c for c, f in zip(columns, floats) if f]).ravel())
    others = _jsonable([v for c, f in zip(columns, floats) if not f for v in c])
    texts = {True: iter(list(map(operator.mod, fmts, args))),
             False: iter(_COLUMN_ENCODER.encode(others)[1:-1].split("\n"))}
    return [list(itertools.islice(texts[f], size)) for f in floats]


@functools.cache
def _record_row(cls: type, level: int) -> tuple[list[str], str]:
    """The field names of the record class ``cls`` in sorted order, and the
    template, one ``%s`` a field, of a record's dict in a list at nesting ``level``."""
    names = sorted(f.name for f in dataclasses.fields(cls))
    inner, deep = "  " * (level + 1), "\n" + "  " * (level + 2)
    return names, "{" + deep + f",{deep}".join(f"{_encode_str(n)}: %s" for n in names) + f"\n{inner}}}"


def _record_text(records: list, level: int) -> str:
    """The text of a record leaf opened at nesting ``level``, as ``_layout``
    writes the list of its field dicts: one column a field, written by
    ``_column_texts``, and each record one ``%`` of its class's template."""
    names, row = _record_row(type(records[0]), level)
    columns = _column_texts([list(map(operator.attrgetter(name), records)) for name in names])
    inner = "  " * (level + 1)
    rows = f",\n{inner}".join(map(row.__mod__, zip(*columns)))
    return f"[\n{inner}{rows}\n" + "  " * level + "]"


def _float_args(block: np.ndarray) -> tuple[list[str], list]:
    """The ``%`` format and argument of each number of a float block, together
    writing the JSON text of its ``_jsonable`` roundings: for a finite rounding,
    its ``repr``, as CSV and the table write it.

    ``%.12g`` writes a rounded float r as ``repr(r)`` does except where r is
    an integer ("4" for 4.0), has a decimal exponent of 12 to 15 (``repr``
    writes those positionally) or is subnormal (where ``repr`` may need fewer
    digits), and NaN and +-inf are written null and +-Infinity.  Each of these
    lies within 1e-11 relative of an integer (|v| >= 5e10 and |v| <= 1e-11 always
    do), or is NaN.  Of those, an integer below 1e12 is its own rounding, which
    ``repr`` writes as ``%.1f`` does ("4.0", "-0.0"), NaN is null, and the others
    are written one by one through ``_rounded``.
    """
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the test
        whole = np.rint(block)
        plain = np.abs(block - whole) > 1e-11 * np.maximum(1.0, np.abs(block))
        exact = (block == whole) & (np.abs(block) < 1e12)
    args = block.tolist()
    fmts = ["%.12g"] * len(args)
    for i in np.flatnonzero(~plain).tolist():
        if exact[i]:
            fmts[i] = "%.1f"
        else:
            fmts[i], args[i] = "%s", "null" if args[i] != args[i] else json.dumps(_rounded(args[i]))
    return fmts, args


@functools.cache
def _half_texts(head: str, sep: str, tail: str, empty: str) -> tuple[np.ndarray, np.ndarray]:
    """The two text tables of a row layout, in which a vertex subset is written as
    ``head``, its vertices joined by ``sep``, and ``tail``, or as ``empty``.

    The opening table, indexed by a mask's bits 0..9, holds the head and the
    vertices below 10 ("" for none).  The closing table, indexed by bits 10..19,
    holds the vertices from 10 on, each after ``sep``, and the tail; its second
    half, read when the opening is "", holds the whole row of those vertices.
    So every row is one concatenation (``_row_texts``).
    """
    low, high = [""] * (1 << _HALF), [""] * (1 << _HALF)  # each vertex after sep, ascending
    for m in range(1, 1 << _HALF):
        v = (m & -m).bit_length() - 1  # the lowest vertex, then those of m less it
        low[m] = sep + str(v) + low[m & (m - 1)]
        high[m] = sep + str(v + _HALF) + high[m & (m - 1)]
    opening = [""] + [head + text[len(sep):] for text in low[1:]]
    closing = [text + tail for text in high] + [empty] + [head + text[len(sep):] + tail
                                                          for text in high[1:]]
    return np.array(opening, dtype=object), np.array(closing, dtype=object)


def _row_texts(masks: np.ndarray, layout: tuple[str, str, str, str]) -> list[str]:
    """The text of each subset of ``masks`` (bits 0..19) in the row layout ``layout``
    (``_half_texts``)."""
    opening, closing = _half_texts(*layout)
    low = masks & ((1 << _HALF) - 1)
    return (opening[low] + closing[(masks >> _HALF) + (low == 0) * (1 << _HALF)]).tolist()


def _leaf_pieces(leaf: np.ndarray, layout: tuple[str, str, str, str] | None, opening: str, sep: str,
                 lead: np.ndarray | None = None):
    """Yield an array leaf's rows, joined by ``sep`` after ``opening``, in pieces
    of about ``_BLOCK`` entries (whole rows; a subset counts one more than its
    size).  An empty leaf is ``opening`` alone.

    A float array has one number a row: its blocks are ``_float_args`` as they
    are, and ``layout`` is unused.  An integer array holds vertex subsets as bit
    masks, each written in the row layout ``layout`` (``_row_texts``), after its
    number in the float array ``lead`` when one is given.
    """
    if leaf.dtype.kind == "f":
        for lo in range(0, max(leaf.size, 1), _BLOCK):
            fmts, args = _float_args(leaf[lo : lo + _BLOCK])
            yield (opening if lo == 0 else sep) + sep.join(fmts) % tuple(args)
        return
    if not leaf.size:
        yield opening
        return
    low = leaf & ((1 << _HALF) - 1)
    weight = np.cumsum(_HALF_SIZES[low] + _HALF_SIZES[leaf >> _HALF] + 1)
    cuts = np.unique(np.searchsorted(weight, np.arange(_BLOCK, weight[-1], _BLOCK), side="right"))
    bounds = [0, *cuts[(cuts > 0) & (cuts < leaf.size)].tolist(), leaf.size]
    for a, b in zip(bounds[:-1], bounds[1:]):
        rows = _row_texts(leaf[a:b], layout)
        if lead is not None:  # each row's number goes before its subset
            heads, values = _float_args(lead[a:b])
            rows = list(map(operator.add, map(operator.mod, heads, values), rows))
        yield (opening if a == 0 else sep) + sep.join(rows)


def _table_pieces(obj, depth: int):
    """Yield the table text of a payload: a nested dict or list goes below its key,
    indented, with ``-`` after each dict of a list, and a list of scalars on its
    key's line as Python writes it.  A float array is such a list and an integer
    array of subset masks a nested list, one row a line; both are written a
    block at a time."""
    pad = "  " * depth
    if isinstance(obj, dict):
        for key, val in obj.items():
            # a list of numbers, or an empty list of subsets: "key: [...]" on one line
            if isinstance(val, np.ndarray) and (val.dtype.kind == "f" or not val.size):
                yield from _leaf_pieces(val, None, f"{pad}{key}: [", ", ")
                yield "]\n"
            elif isinstance(val, np.ndarray):
                rows = f"{pad}  ["
                yield f"{pad}{key}:\n"
                yield from _leaf_pieces(val, (rows, ", ", "]\n", rows + "]\n"), "", "")
            elif _is_records(val):
                yield f"{pad}{key}:\n"
                yield from _table_pieces(_record_dicts(val), depth + 1)
            elif isinstance(val, dict) or isinstance(val, list) and not _scalars(val):
                yield f"{pad}{key}:\n"
                yield from _table_pieces(val, depth + 1)
            else:
                yield f"{pad}{key}: {val}\n"
        return
    for val in obj:
        if isinstance(val, dict):
            yield from _table_pieces(val, depth)
            yield f"{pad}-\n"
        else:
            yield f"{pad}{val}\n"


def _csv_rows(command: str, payload: dict) -> tuple[list[str], list[list]]:
    if command == "rho2":
        if "bounds" in payload:
            # csv writes None (the k of a per-graph bound, NaN values) as ""
            rows = [[b[h] for h in _BOUND_COLUMNS] for b in _record_dicts(payload["bounds"])]
            return list(_BOUND_COLUMNS), rows
        return ["value", "witness_vertex"], [[payload["value"], payload["witness_vertex"]]]
    if command == "formulas":
        header = ["identifier", "params", "formula_value", "surd", "brute_force_value", "abs_diff"]
        row = dict(payload, params=" ".join(str(p) for p in payload["params"]))
        return header, [[row[h] for h in header]]
    if command == "verify":
        header = ["suite", "checked", "violations", "holds"]
        return header, [[
            payload["suite"], payload["checked"], len(payload["violations"]), payload["holds"],
        ]]
    raise ValueError(f"no csv layout for command {command!r}")


def _write(doc: dict, fmt: str) -> None:
    """Write ``doc`` to stdout in ``fmt``, each piece as it is formatted, so the
    whole output never exists as one string.  Array leaves go out a block at a
    time: the spectrum's CSV rows are its witnesses, each led by its value."""
    write = sys.stdout.write
    if fmt == "json":
        for piece in _layout(doc, 0):
            write(piece)
        write("\n")
    elif fmt == "csv" and doc["command"] == "spectrum":
        payload = doc["payload"]
        for piece in _leaf_pieces(payload["witnesses"], (",", " ", "\n", ",\n"),
                                  "value,witness\n", "", payload["values"]):
            write(piece)
    elif fmt == "csv":
        import csv

        header, rows = _csv_rows(doc["command"], doc["payload"])
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        write(f"command: {doc['command']}  (tool {doc['tool_version']})\n")
        gs = doc["graph_summary"]
        if gs:
            write(f"graph: order={gs['order']} size={gs['size']} diameter={gs['diameter']}"
                  + (f" name={gs['name']}" if gs.get("name") else "") + "\n")
        for piece in _table_pieces(doc["payload"], 0):
            write(piece)


# ---------------------------------------------------------------------------
# Graph source handling


def _integer(text: str) -> int:
    """An integer argument, read by the edge-list rule (``graph._INTEGER``): ASCII
    digits after an optional "-".  ``int`` alone would also take "1_0", "+3", " 7"
    and "５"; the error is the one ``int`` gives, and argparse names the type "int"."""
    if not _is_integer(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


_integer.__name__ = "int"

# An integer by the rule above, optional fraction digits and an optional exponent
# that is such an integer; nan and inf are read, for the command to reject.
_is_decimal = re.compile(rf"{_INTEGER}(\.[0-9]+)?([eE]{_INTEGER})?|-?(?i:nan|inf)").fullmatch


def _decimal(text: str) -> float:
    """A float argument, read by ``_is_decimal``: ``float`` alone would also take
    "1_0", "+1e-8", " 1e-8" and "１e-8".  argparse names the type "float"."""
    if not _is_decimal(text):
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


_decimal.__name__ = "float"


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--family", nargs="+", metavar=("NAME", "PARAM"),
                     help=f"named family and integer parameters; one of: {', '.join(FAMILY_NAMES)}")
    src.add_argument("--edges", metavar="FILE", help="edge-list file (first line n, then 'u v' lines)")
    src.add_argument("--graph6", metavar="FILE", help="file with one graph6 line")


def _add_common_flags(p: argparse.ArgumentParser, jobs_help: str) -> None:
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p.add_argument("--jobs", type=_integer, default=1, help=jobs_help)


def _load_graph(args, check_order) -> Graph:
    """The input graph; ``check_order`` sees its declared order before any edge is read."""
    if args.family:
        name = args.family[0]
        params = [_integer(x) for x in args.family[1:]]
        check_order(_family_order(name, params))
        return make_family(name, params)
    if args.edges:
        with open(args.edges, "r", encoding="utf-8", errors="surrogateescape") as fh:
            n, lines = _edge_list_order(fh)  # reads up to the order line
            check_order(n)
            return _edge_list_graph(n, lines)
    with open(args.graph6, "r", encoding="utf-8") as fh:
        return _graph6_graph(fh, check_order)


def _graph6_graph(fh, check_order) -> Graph:
    """The graph on the first line of the text file ``fh``.  The line is read as far
    as its order bytes (past leading blanks and the optional header) until
    ``check_order`` has seen the order, and only then to its end."""
    head, need = "", len(_G6_HEADER) + 4
    while not head.endswith("\n") and len(head.strip()) < need and (part := fh.readline(need)):
        head += part
    check_order(_graph6_order(head)[0])
    return parse_graph6(head if head.endswith("\n") else head + fh.readline())


# ---------------------------------------------------------------------------
# Commands


def _cmd_spectrum(args) -> int:
    g = _load_graph(args, _check_order)
    spec = pareto_spectrum(g, jobs=args.jobs, dedup_tolerance=args.tolerance)
    summary = _graph_summary(g)
    ladder = np.arange(summary["diameter"] + 1)
    # The value nearest each integer is one of its neighbours in the ascending values.
    values = spec.value_array
    at = np.searchsorted(values, ladder)
    gap = np.minimum(
        abs(values[np.maximum(at - 1, 0)] - ladder),
        abs(values[np.minimum(at, values.size - 1)] - ladder),
    )
    present = bool((gap <= 1e-8 * np.maximum(1.0, ladder)).all())
    payload = {  # array leaves, written block by block in every format
        "values": values,
        "witnesses": spec.witness_masks,
        "count": spec.count,
        "integer_ladder": {"integers": ladder.tolist(), "all_present": present},
        "dedup_tolerance": spec.dedup_tolerance,
    }
    _write(_document("spectrum", payload, summary), args.format)
    return EXIT_OK


def _cmd_rho2(args) -> int:
    g = _load_graph(args, _check_rho2_order)
    # the report first: at n <= 20 its spectrum keeps rho2 on g, and rho2_fast reads it
    bounds = bound_report(g) if args.bounds else None
    value, vertex = rho2_fast(g)
    payload = {"value": value, "witness_vertex": vertex}
    if bounds is not None:
        payload["bounds"] = bounds  # a record leaf
    _write(_document("rho2", payload, _graph_summary(g)), args.format)
    return EXIT_OK


def _cmd_formulas(args) -> int:
    ident = args.identifier
    params = [_integer(p) for p in args.params]
    _form_instance(ident, tuple(params))  # the cap, before a form enumerates anything
    value = closed_form(ident, *params)
    surd = closed_form_surd(ident, *params)
    brute = closed_form_brute_force(ident, *params)
    if isinstance(value, list):
        diff = max(abs(a - b) for a, b in zip(value, brute)) if value else 0.0
    else:
        diff = abs(value - brute)
    payload = {
        "identifier": ident,
        "params": params,
        "formula_value": value,
        "surd": surd,
        "brute_force_value": brute,
        "abs_diff": diff,
    }
    _write(_document("formulas", payload), args.format)
    return EXIT_OK


def _cmd_verify(args) -> int:
    run, lowest, top = _SUITES[args.suite]
    if args.order < lowest:
        raise ValueError(f"verify {args.suite} needs --order >= {lowest}")
    if args.random < 0:
        raise ValueError("verify needs --random >= 0")
    if args.order > top:
        raise CapExceededError(f"verify {args.suite} limited to --order <= {top}")
    payload: dict = {"suite": args.suite, "params": {"order": args.order}}
    payload.update(run(order=args.order, random=args.random, seed=args.seed, jobs=args.jobs))
    _write(_document("verify", payload), args.format)
    return EXIT_OK if payload["holds"] else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distpareto",
        description="Distance Pareto eigenvalues of connected graphs: "
        "enumeration, closed forms, bounds, and verification suites.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="full distance Pareto spectrum with witnesses")
    _add_source_flags(p_spec)
    _add_common_flags(p_spec, "worker count for subset enumeration")
    p_spec.add_argument("--tolerance", type=_decimal, default=DEFAULT_DEDUP_TOL,
                        help="dedup tolerance for distinct Pareto eigenvalues")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_rho2 = sub.add_parser("rho2", help="second largest distance Pareto eigenvalue")
    _add_source_flags(p_rho2)
    _add_common_flags(p_rho2, "accepted and ignored: rho2 runs on one worker")
    p_rho2.add_argument("--bounds", action="store_true", help="append the bound report")
    p_rho2.set_defaults(func=_cmd_rho2)

    p_form = sub.add_parser("formulas", help="closed forms cross-checked against enumeration")
    p_form.add_argument("identifier", choices=CLOSED_FORM_IDS)
    p_form.add_argument("params", nargs="+", help="integer parameters")
    p_form.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p_form.set_defaults(func=_cmd_formulas)

    p_ver = sub.add_parser("verify", help="run a verification suite; exit 1 on violations")
    p_ver.add_argument("suite", choices=tuple(_SUITES))
    p_ver.add_argument("--order", type=_integer, default=5,
                       help="maximum graph order for the sweep")
    p_ver.add_argument("--random", type=_integer, default=0,
                       help="bounds-sweep: extra random connected graphs on 7..10 vertices")
    p_ver.add_argument("--seed", type=_integer, default=20240601, help="rng seed for --random")
    _add_common_flags(p_ver, "extremal: worker count for the class search")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser.  ``parse_args`` leaves no state in it, and the
    ``_SUITES`` runners look their report generators up when they run."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:  # formulas takes no --jobs
            raise ValueError("--jobs needs a worker count >= 1")
        return args.func(args)
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DisconnectedGraphError as exc:
        print(f"disconnected input: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except EigensolverError as exc:
        print(f"eigensolver error: {exc}", file=sys.stderr)
        return EXIT_EIGENSOLVER
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
