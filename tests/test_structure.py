"""Source-level guards: one eigensolver site, one stacked eigenpair path, linear
algebra only in ``spectral``, one thread pool, one distance routine, no second
sweep, one JSON writer, one spectrum document for every output format, one
array-leaf renderer, one witness decode, one all-subsets pass, no labeled-tree sweep, no labeled-graph
sweep, no sweep that calls ``rho2_fast`` once per graph, one rho2 screen for
one graph and a stack (the subset pass's parent routine, the one way from an
``eigh`` to deletion roots), rho2 read from deletion roots only by the screen, the
coalescence check and the spectrum pass, no second way to hand rho2 to the bound
report, one table of the 2-paths i ~ j ~ k for the tree checkers, no
per-deletion loop in the quasiconvexity check, the verify suites (sweeps,
verdict and order ranges) in ``verify`` alone, the CLI importing only their table,
one submatrix gather for both Perron kernels and the subset pass's codewords
(square, or a codeword's rows by every column), one subset-pass plan from one
covering code, read from the order alone, one ``--jobs`` split (``verify``
never names the thread pool),
one builder of bound-report rows, and one pair order for every edge mask
(spelled once in ``verify``, no ``{pair: index}`` dict, one mask decoder and
no function handed the pair list), rho2 read from the
deletion roots alone (no pendant filter), the 2-paths i ~ j ~ k built once and
from the distance matrix, one surd builder for the three K_m - jK2 forms, and
one representation for distances (the read-only array ``distance_matrix`` keeps
on the graph, handed to the kernels as it is, no wrapper around it, and no
module-level ``rho_k``/``mu_k`` beside the spectrum's methods), and edge-list
lines split by ``str.splitlines`` alone (no line-break table of the package's
own, no "\\r" held across reads, no fixed-size ``read`` of the file), one
builder of each order's subset tables (the suffix recursion of lexicographic
order: no ``itertools.combinations`` or ``np.fromiter`` in ``pareto``, and the
bit masks built in one function, never from the rows), and the spectrum's
witnesses written from their bit masks (no ragged label leaf, and the CLI
decodes no witness), and sweeps that do each distinct piece of work once (one
distance pass for all the trees of an order, class names written from the
masks, and one Perron-root kernel that solves each distinct submatrix of a stack
once)."""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "distpareto"


def _occurrences(pattern: str) -> list[str]:
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if re.search(pattern, line):
                hits.append(f"{path.name}:{lineno}")
    return hits


def test_single_eigvalsh_site():
    assert len(_occurrences(r"eigvalsh\(")) == 1


def test_linear_algebra_only_in_spectral():
    assert {hit.split(":")[0] for hit in _occurrences(r"\blinalg\b")} == {"spectral.py"}


def test_single_thread_pool_site():
    assert len(_occurrences(r"ThreadPoolExecutor\(")) == 1


def test_pure_python_connectivity_sweep_is_gone():
    assert _occurrences(r"\b_connected_masks\b") == []


def test_single_distance_routine():
    assert _occurrences(r"\b_bulk_distances\b") == []
    assert _occurrences(r"\bfrontier\b") == []  # no per-vertex BFS
    assert [hit.split(":")[0] for hit in _occurrences(r"for level in range\(")] == ["graph.py"]


def test_one_json_writer_and_one_witness_decode():
    assert _occurrences(r"\bindent\s*=") == []  # the pure-Python indenting encoder
    assert _occurrences(r"\b_decode_flat\b") == []  # per-witness searchsorted


def test_witnesses_are_written_from_their_masks():
    # every format writes a witness from the half-mask text tables, not from labels
    assert _occurrences(r"\b_Ragged\b") == []
    assert [hit for hit in _occurrences(r"\bwitness_rows\b|\b_decode\b")
            if hit.startswith("cli.py:")] == []


def test_subset_tables_come_from_one_recursion():
    pareto_text = (SRC / "pareto.py").read_text(encoding="utf-8")
    assert "itertools.combinations" not in pareto_text and "np.fromiter" not in pareto_text
    assert _occurrences(r"np\.left_shift\(1, rows") == []  # no mask rebuilt from the rows
    assert _callers("_suffix_blocks") == {"_subsets_by_size", "_subset_fold"}
    assert _callers("_subset_fold") == {"_subset_masks", "_plan"}


def test_every_spectrum_format_is_written_from_the_arrays():
    # no output built as one string, no second CSV path, no tuple spectrum in the CLI
    hits = _occurrences(r"\bStringIO\b|\b_emit_csv\b|\bspec\.(values|witnesses)\b")
    assert [hit for hit in hits if hit.startswith("cli.py:")] == []


def test_one_array_leaf_renderer():
    # CSV and table format the array leaves in blocks, as JSON does, not list by list
    assert _occurrences(r"\b_leaf_lists\b") == []
    assert _occurrences(r'" "\.join\(map\(str') == []
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    csv_rows = next(fn for fn in ast.walk(tree)
                    if isinstance(fn, ast.FunctionDef) and fn.name == "_csv_rows")
    assert "spectrum" not in {node.value for node in ast.walk(csv_rows)
                              if isinstance(node, ast.Constant)}


def test_structure_answered_from_distances_and_one_subset_pass():
    assert _occurrences(r"\bstructure_queries\b") == []  # DFS beside the distance routine
    assert _occurrences(r"\bStructureSummary\b") == []
    assert _occurrences(r"\b_bulk_pareto_counts\b") == []  # second all-subsets pass


def test_one_stacked_eigenpair_path():
    assert _occurrences(r"\bSymMatrix\b") == []
    assert _occurrences(r"\bEigenResult\b") == []
    assert _occurrences(r"\bspectral_radius\(") == []  # the single-matrix eigenpair
    assert _occurrences(r"\bfull_spectrum\b") == []
    assert len(_occurrences(r"eigvalsh\(")) == 1
    assert [hit.split(":")[0] for hit in _occurrences(r"\bperron_pairs_many\(")] == [
        "pareto.py", "spectral.py"]


def test_trees_are_generated_not_deduplicated():
    assert _occurrences(r"\blabeled_trees\b") == []  # the n^(n-2) Prufer sweep
    assert _occurrences(r"\btree_canonical_code\b") == []
    assert _occurrences(r"\b_rooted_code\b") == []


def test_graph_classes_are_augmented_not_swept():
    assert _occurrences(r"\b_first_of_each_class\b") == []  # dedup of the labeled sweep
    # the labeled graphs are the classes' relabelings, not a sweep of every edge mask
    assert _occurrences(r"\b_connected_chunks\b|\b_SWEEP_CHUNK\b") == []


def test_sweeps_stack_rho2_instead_of_calling_rho2_fast():
    # the rho2 command, the laws catalogue and report context, the one-edge check
    assert _callers("rho2_fast") == {"_cmd_rho2", "_second", "rho2_pair", "check_edge_monotonicity"}


def _callers(name: str) -> set[str]:
    """The functions (``<lambda>`` for a lambda) of the package that call ``name``."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                callers |= {getattr(fn, "name", "<lambda>") for node in ast.walk(fn)
                            if isinstance(node, ast.Call) and name in (
                                getattr(node.func, "id", None), getattr(node.func, "attr", None))}
    return callers


def test_rho2_read_from_deletions_by_the_stacked_sweeps_and_the_spectrum():
    # the coalescence check reads every deletion's root as well as rho2
    assert _callers("_rho2_of_deletions") == {
        "_rho2_many", "pareto_spectrum", "check_coalescence_quasiconvexity"}


def test_one_rho2_screen_for_a_graph_and_a_stack():
    # the screen is the subset pass's parent routine, the one way from an eigh to deletion roots
    assert _occurrences(r"\b_deletion_roots\b") == []
    assert _callers("_secular_roots") == {"_parent_roots"}
    assert _callers("_parent_roots") == {"_parent_batch"}
    assert _callers("_parent_batch") == {"_all_subset_values", "fill", "_rho2_screen"}
    rho2_fast = _functions("pareto.py")["rho2_fast"]
    assert "_parent_batch(" not in rho2_fast and "_perron_roots_for_rows(" not in rho2_fast


def test_the_subset_pass_follows_one_covering_code():
    # the label-sum packing is gone; one eigh per codeword gives its deletions and extensions
    assert _occurrences(r"\b_parents\b|\b_PARENT_MIN\b|\b_PARENT_NEW\b") == []
    assert _callers("_bordered_roots") == {"_parent_roots"}
    assert _callers("_secular_roots") == {"_parent_roots"}


def test_the_subset_pass_reads_its_plan_from_the_order():
    # one cached plan per order, which holds the size offsets: no plan table or
    # offsets helper beside it, and no subset table handed down the pass
    assert _occurrences(r"\b_PLANS\b|\b_size_offsets\b") == []
    assert _callers("_subsets_by_size") == {"_plan", "_recompute", "_tree_convexity_reports"}
    functions = _functions("pareto.py")
    assert "for i in" not in functions["_recompute"]  # one kernel call per size, not per matrix
    for name in ("_all_subset_values", "_settle", "_exact_representatives", "_recompute"):
        fn = next(fn for fn in ast.walk(ast.parse(functions[name])) if isinstance(fn, ast.FunctionDef))
        assert {"subsets", "approx"}.isdisjoint(a.arg for a in fn.args.args), name


def test_bound_report_takes_no_rho2():
    tree = ast.parse((SRC / "laws.py").read_text(encoding="utf-8"))
    fn = next(fn for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "bound_report")
    assert [a.arg for a in fn.args.args + fn.args.kwonlyargs] == ["g"]


def _functions(module: str) -> dict[str, str]:
    """Name -> source of every function defined in ``module``."""
    text = (SRC / module).read_text(encoding="utf-8")
    return {fn.name: ast.get_source_segment(text, fn) for fn in ast.walk(ast.parse(text))
            if isinstance(fn, ast.FunctionDef)}


def test_tree_checkers_read_one_two_path_table():
    # one function builds i ~ j ~ k, from the distance matrix, and both checkers read it
    functions = _functions("verify.py")
    assert _occurrences(r"itertools\.combinations\(adj") == []
    assert {name for name, src in functions.items() if "np.triu(d == 2" in src} == {"_tree_paths"}
    assert "distance_matrix(" in functions["_tree_paths"]
    assert "adjacency(" not in functions["_tree_paths"]
    assert _callers("_tree_paths") == {"_convexity_reports", "check_coalescence_quasiconvexity"}
    assert "for u in range(" not in functions["check_coalescence_quasiconvexity"]


def test_rho2_is_read_from_the_deletion_roots_alone():
    assert _occurrences(r"\b_rho2_candidates\b") == []  # no pendant filter
    fn = next(fn for fn in ast.walk(ast.parse((SRC / "pareto.py").read_text(encoding="utf-8")))
              if isinstance(fn, ast.FunctionDef) and fn.name == "_rho2_of_deletions")
    assert [a.arg for a in fn.args.args + fn.args.kwonlyargs] == ["roots"]


def test_one_builder_for_the_complete_graph_minus_a_matching():
    from distpareto import laws

    builders = [laws._CLOSED_FORMS[ident][1]
                for ident in ("kn_minus_e_radius", "rho2_kn_minus_e", "rho2_two_nonincident")]
    assert len({b.__code__ for b in builders}) == 1
    functions = _functions("laws.py")
    assert [name for name in ("_kn_minus_e_radius", "_rho2_kn_minus_e", "_rho2_two_nonincident")
            if name in functions] == []


def test_verify_suites_live_in_verify():
    text = (SRC / "cli.py").read_text(encoding="utf-8")
    from_verify = [alias.name for node in ast.walk(ast.parse(text))
                   if isinstance(node, ast.ImportFrom)
                   for alias in node.names if node.module == "verify" or alias.name == "verify"]
    assert from_verify == ["_SUITES"]
    assert [name for name in _functions("cli.py")
            if re.search(r"sweep|_suite|_verdict|_reports", name)] == []
    # the table of runners and order ranges is defined once, in verify
    assert [hit.split(":")[0] for hit in _occurrences(r"^_SUITES\b")] == ["verify.py"]


def test_one_gather_one_jobs_split_one_bound_row_builder():
    # the values and the pairs kernel take their submatrices from one blocked gather,
    # one take at the flat offsets that one expression spells (a plan keeps those of
    # its direct batches, and the values kernel takes the upper triangles of a stack's)
    gathers = _occurrences(r"\[:, :\w*, None\] \* \w+ \+ \w+\[:, None, :\]")
    assert [hit.split(":")[0] for hit in gathers] == ["pareto.py"]
    assert _callers("_flat_offsets") == {"_gathered", "_plan", "_perron_roots_for_rows"}
    assert _callers("take") == {"_gathered"}
    assert _callers("_gathered") == {"_perron_roots_for_rows", "_perron_pairs_for_rows", "_parent_batch"}
    # the extremal search splits --jobs through the subset pass, not over classes
    assert "_map_spans" not in (SRC / "verify.py").read_text(encoding="utf-8")
    assert [hit.split(":")[0] for hit in _occurrences(r"\bBoundResult\(")] == ["laws.py"]
    assert {name for name, src in _functions("laws.py").items() if "BoundResult(" in src} == {"_row"}


def test_one_pair_order_for_every_edge_mask():
    # verify spells the pair order of a mask once; every encoder and decoder reads its table
    functions = _functions("verify.py")
    assert {name for name, src in functions.items()
            if re.search(r"triu_indices|combinations\(range", src)} == {"_pair_table"}
    assert _occurrences(r"\{\s*\w+\s*:\s*\w+\s+for\s+\w+\s*,\s*\w+\s+in\s+enumerate\(") == []
    # one function turns a mask into pairs, and no function takes the pair list
    assert {name for name, src in functions.items()
            if re.search(r">>\s*\w+\s*&\s*1\b", src)} == {"_mask_to_graph"}
    assert [fn.name for path in sorted(SRC.glob("*.py"))
            for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(fn, ast.FunctionDef)
            and "pairs" in [a.arg for a in fn.args.args + fn.args.kwonlyargs]] == []


def test_one_distance_representation():
    # distances are the array itself: no wrapper, no attribute hop to reach it
    assert _occurrences(r"\bDistanceMatrix\b|\bdm\b") == []
    assert _occurrences(r"distance_matrix\((?:[^()]|\([^()]*\))*\)\.d\b") == []
    # the integer array goes to numpy as it is, gathered blocks too, and no kernel
    # casts it: a 2x2 root is read off its gathered block into the float result
    # (only _relabelings casts, of edge bits)
    casts = {name for path in sorted(SRC.glob("*.py")) for name, src in _functions(path.name).items()
             if re.search(r"astype\((np\.float64|float)\b", src)}
    assert casts == {"_relabelings"}
    # a spectrum's rho_k and mu_k are its methods, not a second enumeration
    tree = ast.parse((SRC / "pareto.py").read_text(encoding="utf-8"))
    assert [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
            and fn.name in ("rho_k", "mu_k")] == []


def test_edge_list_lines_are_split_by_str_splitlines_alone():
    # the file's line reader stops at "\n" and at most 64 KiB on; str.splitlines
    # splits what it returns, so the package keeps no list of line breaks
    assert _occurrences(r"\b_split_lines\b|\b_LINE_BREAK\b|\b_chunks\b") == []
    assert _occurrences(r'endswith\("\\r"\)|\bfh\.read\b') == []


def test_sweeps_do_each_distinct_piece_of_work_once():
    functions = _functions("verify.py")
    # the trees of one order share one distance pass on their stacked adjacency
    assert "distance_matrix(" not in functions["check_tree_extremes"]
    assert "_hop_distances(" in functions["check_tree_extremes"]
    assert "trees_upto_iso(" in functions["check_tree_extremes"]
    # the monotonicity sweep names each class from its mask and builds no graph
    assert re.search(r"\b(Graph|make_graph|_mask_to_graph|connected_graph_classes|_describe)\(",
                     functions["_monotonicity_reports"]) is None
    # one Perron-root kernel solves each distinct submatrix of a stack once, by one
    # rule on its input's shape: no second kernel beside it and no router before it
    assert _occurrences(r"\b_distinct_perron_roots\b|\b_direct_roots\b") == []
    assert _callers("spectral_radius_many") == {"_perron_roots_for_rows"}
    assert _callers("take") == {"_gathered"}
