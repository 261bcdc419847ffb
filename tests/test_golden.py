"""Byte-for-byte CLI outputs against recorded golden files.

Each case's stdout lives in ``tests/golden/<name>.out`` and its exit code in
``tests/golden/exit_codes.json``.  To re-record after an intended output
change, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import pathlib

import pytest

from distpareto import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "spectrum_wheel7_json": ["spectrum", "--family", "wheel", "7"],
    "spectrum_path9_csv": ["spectrum", "--family", "path", "9", "--format", "csv"],
    "spectrum_kab34_table": ["spectrum", "--family", "complete_bipartite", "3", "4",
                             "--format", "table"],
    "spectrum_path25_cap": ["spectrum", "--family", "path", "25"],
    # witnesses with vertices >= 10, and roots from the covering code (order >= 11)
    "spectrum_path12_csv": ["spectrum", "--family", "path", "12", "--format", "csv"],
    "spectrum_cycle13_table": ["spectrum", "--family", "cycle", "13", "--format", "table"],
    "spectrum_wheel12_json": ["spectrum", "--family", "wheel", "12"],
    "rho2_bounds_kn_minus_e6_json": ["rho2", "--family", "complete_minus_edge", "6", "--bounds"],
    "rho2_bounds_star8_csv": ["rho2", "--family", "star", "8", "--bounds", "--format", "csv"],
    "rho2_bounds_complete5_json": ["rho2", "--bounds", "--family", "complete", "5"],
    "rho2_bounds_path2_json": ["rho2", "--bounds", "--family", "path", "2"],
    "rho2_bounds_cycle4_csv": ["rho2", "--bounds", "--family", "cycle", "4", "--format", "csv"],
    "rho2_bounds_path6_table": ["rho2", "--bounds", "--family", "path", "6", "--format", "table"],
    "rho2_bounds_path21_json": ["rho2", "--bounds", "--family", "path", "21"],
    # the op of the benchmark's bounds sweep, on committed edge lists of
    # verify.random_connected_graph(n, np.random.default_rng(n)) for n = 7 and 10
    "rho2_bounds_random7_json": ["rho2", "--bounds", "--edges",
                                 str(GOLDEN / "rho2_bounds_random7.txt")],
    "rho2_bounds_random10_json": ["rho2", "--bounds", "--edges",
                                  str(GOLDEN / "rho2_bounds_random10.txt")],
    "rho2_path6_csv": ["rho2", "--family", "path", "6", "--format", "csv"],
    "rho2_wheel7_table": ["rho2", "--family", "wheel", "7", "--format", "table"],
    "verify_extremal5": ["verify", "extremal", "--order", "5"],
    "verify_extremal7": ["verify", "extremal", "--order", "7"],
    "verify_extremal5_table": ["verify", "extremal", "--order", "5", "--format", "table"],
    "verify_monotonicity5": ["verify", "monotonicity", "--order", "5"],
    "verify_quasiconvex6": ["verify", "quasiconvex", "--order", "6"],
    "verify_tree_extremes7": ["verify", "tree-extremes", "--order", "7"],
    "verify_tree_extremes7_csv": ["verify", "tree-extremes", "--order", "7", "--format", "csv"],
    "verify_convexity5": ["verify", "convexity", "--order", "5"],
    "verify_convexity8": ["verify", "convexity", "--order", "8"],
    "verify_quasiconvex8": ["verify", "quasiconvex", "--order", "8"],
    "verify_tree_extremes8": ["verify", "tree-extremes", "--order", "8"],
    "verify_quasiconvex10": ["verify", "quasiconvex", "--order", "10"],  # the suites' caps
    "verify_tree_extremes14": ["verify", "tree-extremes", "--order", "14"],
    "verify_monotonicity7": ["verify", "monotonicity", "--order", "7"],
    "verify_bounds_sweep7": ["verify", "bounds-sweep", "--order", "7"],
    "verify_convexity10": ["verify", "convexity", "--order", "10"],
    "verify_bounds_sweep5_random20": ["verify", "bounds-sweep", "--order", "5", "--random", "20"],
    "formulas_complete_spectrum5_json": ["formulas", "complete_spectrum", "5"],
    "formulas_star_radius6_json": ["formulas", "star_radius", "6"],
    "formulas_kn_minus_e_radius5_json": ["formulas", "kn_minus_e_radius", "5"],
    "formulas_rho2_kn_minus_e6_json": ["formulas", "rho2_kn_minus_e", "6"],
    "formulas_rho2_kab23_json": ["formulas", "rho2_kab", "2", "3"],
    "formulas_rho2_k_pendant6_json": ["formulas", "rho2_k_pendant", "6"],
    "formulas_rho2_two_nonincident7_json": ["formulas", "rho2_two_nonincident", "7"],
    "formulas_rho2_kab25_csv": ["formulas", "rho2_kab", "2", "5", "--format", "csv"],
    "formulas_star_radius5_table": ["formulas", "star_radius", "5", "--format", "table"],
    "formulas_rho2_two_nonincident4_invalid": ["formulas", "rho2_two_nonincident", "4"],
}


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli_output(name):
    code, out = _run(CASES[name])
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == expected_codes[name]
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = _run(argv)
        (GOLDEN / f"{name}.out").write_bytes(out.encode("utf-8"))
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n",
                                            encoding="utf-8")
