"""Structural rules of the package, checked on its source by AST walks
and, for its calls into numpy, under a profiler.

Each AST test names the one place where a kind of work is done and fails
when the same work appears anywhere else in ``src/poleplace``.
"""

import ast
import pathlib
import sys

import numpy as np

from poleplace import bench, linalg

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "poleplace"


def _modules():
    """(module name, parsed tree) for every source file, in name order."""
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]


def _where(stem, top):
    """'module.toplevel' for a node inside the top-level statement ``top``."""
    return stem + "." + getattr(top, "name", "<module>")


def test_range_rule_is_the_one_errstate():
    # one np.errstate decides how a placement meets the range: the rule in
    # placement; besides it, only the cast check (_in_precision) and
    # simulate's step loop set their own, so a site-by-site overflow check
    # cannot come back unseen
    found = sorted(_where(stem, top) for stem, tree in _modules() for top in tree.body
                   for node in ast.walk(top)
                   if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("errstate"))
    assert found == ["linalg._in_precision", "placement._range_rule", "sim.simulate"]


def test_one_guard_reads_the_thresholds():
    # one function raises on a numerical-zero bound: linalg._guard, which
    # sets the error's check, value and bound; besides it, THRESHOLDS is
    # read only by the predicates that raise no PlacementError.  No bound
    # is dead: every key of the table is named by a literal
    # THRESHOLDS["..."] read or as the first argument of a _guard call
    allowed = {"algebroid.OrthogonalAnchor", "bench.count_complex_pairs", "linalg._guard",
               "linalg.is_conjugate_pair", "placement.chain_controllability_report"}
    found, named, keys = [], set(), set()
    for stem, tree in _modules():
        for top in tree.body:
            if isinstance(top, ast.Assign) and ast.unparse(top.targets[0]) == "THRESHOLDS":
                keys = {key.value for key in top.value.keys}
            for node in ast.walk(top):
                if isinstance(node, ast.Subscript) and ast.unparse(node.value) == "THRESHOLDS":
                    found.append(_where(stem, top))
                    named.add(getattr(node.slice, "value", None))
                elif isinstance(node, ast.Call) and ast.unparse(node.func) == "_guard":
                    named.add(getattr(node.args[0], "value", None))
    assert keys
    assert set(found) <= allowed, sorted(found)
    assert keys <= named, f"THRESHOLDS keys never named: {sorted(keys - named)}"


def test_one_memo_owner():
    # a system's kept work (StateSpace's memo field) is read and filled by
    # one function, placement._prepared, which keeps only what returned;
    # no other code may touch the field
    found = sorted(_where(stem, top) for stem, tree in _modules() for top in tree.body
                   for node in ast.walk(top)
                   if isinstance(node, ast.Attribute) and node.attr == "_memo"
                   or isinstance(node, ast.Constant) and node.value == "_memo")
    assert set(found) == {"placement._prepared"}, found


def test_one_chain_owner():
    # a system's anchor chain is built once per precision, as the work
    # _prepared keeps; inside the package build_anchor_chain is named only
    # as _prepared's builder argument (and imported), never called; and
    # _prepared itself is named only in the placement layer (placement and
    # sim), so the CLI reaches a kept chain through an ALGORITHMS entry
    found, memo_users = [], []
    for stem, tree in _modules():
        builders = {id(node.args[3]) for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and len(node.args) > 3
                    and ast.unparse(node.func).endswith("_prepared")}
        found += [_where(stem, top) for top in tree.body for node in ast.walk(top)
                  if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in builders
                  and getattr(node, "id", getattr(node, "attr", None)) == "build_anchor_chain"]
        memo_users += [_where(stem, top) for top in tree.body for node in ast.walk(top)
                       if stem not in ("placement", "sim") and "_prepared" in (
                           getattr(node, "id", None), getattr(node, "attr", None),
                           getattr(node, "value", None), getattr(node, "name", None))]
    assert found == [], f"build_anchor_chain named outside _prepared: {sorted(found)}"
    assert memo_users == [], f"_prepared named outside placement and sim: {sorted(memo_users)}"


def test_study_kernels_skip_numpy_python_wrappers():
    # at n <= 12 a study cell's cost is numpy's per-call overhead: the QR,
    # the reflector, the verifier's matching and the CSV call the ufuncs
    # and Python scalars directly, so no frame of ndarray.sum's wrapper, of
    # fromnumeric or of np.eye may run in them (as_matrix's .all() may)
    banned = {("_methods.py", "_sum"), ("fromnumeric.py", None), ("_twodim_base_impl.py", "eye")}
    rng = np.random.default_rng(1)
    M, v = rng.standard_normal((10, 10)), rng.standard_normal(10)
    system, poles = bench.gen_integer_example(10), [-float(k) for k in range(1, 11)]
    K = bench.ALGORITHMS["algebroid1"](system, poles)
    record = bench.evaluate_placement(system, poles, K)
    achieved, targets = np.array(record.achieved), np.array(poles, dtype=complex)

    def calls():
        linalg.qr_decompose(M)
        linalg.householder_reflector(v)
        bench._match_error(achieved, targets)
        bench.render_csv([record])

    calls()  # warm-up: first-use work (the cached identities) is not counted
    entered = []

    def profile(frame, event, arg):
        path = pathlib.Path(frame.f_code.co_filename)
        if event == "call" and "numpy" in path.parts:
            if {(path.name, frame.f_code.co_name), (path.name, None)} & banned:
                entered.append(f"{path.name}:{frame.f_code.co_name}")

    sys.setprofile(profile)
    try:
        calls()
    finally:
        sys.setprofile(None)
    assert entered == []
