"""Structural rules of the package, checked on its source by AST walks
and, for its calls into numpy, under a profiler.

Each AST test names the one place where a kind of work is done and fails
when the same work appears anywhere else in ``src/poleplace``.
"""

import ast
import os
import pathlib
import re
import subprocess
import sys

import numpy as np

from poleplace import bench, errors, linalg, placement
from poleplace.errors import PlacementError

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


def test_one_reflector_check_for_an_underflowed_square_sum():
    # a nonzero vector whose squares underflow to a zero sum has no
    # Householder reflector; one check decides it, in the kernel behind
    # every anchor and the Hessenberg reduction, so no caller keeps a copy
    found = sorted(_where(stem, top) for stem, tree in _modules() for top in tree.body
                   for node in ast.walk(top)
                   if isinstance(node, ast.Call) and ast.unparse(node.func) == "_guard"
                   and getattr(node.args[0], "value", None) == "normal_square")
    assert found == ["linalg.householder_reflector"], found


def test_one_pass_of_the_eigenvalue_iteration():
    # eigenvalues runs the iteration once, on its input scaled so that the
    # largest entry lies in [1, 2); no code reruns it, or anything else, on
    # a zero divisor
    handlers = sorted(_where(stem, top) for stem, tree in _modules() for top in tree.body
                      for node in ast.walk(top)
                      if isinstance(node, ast.ExceptHandler) and node.type is not None
                      and "ZeroDivisionError" in ast.unparse(node.type))
    calls = sorted(_where(stem, top) for stem, tree in _modules() for top in tree.body
                   for node in ast.walk(top)
                   if isinstance(node, ast.Call) and ast.unparse(node.func) == "_hqr_eigenvalues")
    assert (handlers, calls) == ([], ["linalg.eigenvalues"])


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


def test_one_way_to_make_an_identity():
    # a float identity comes from linalg._identity, one read-only array per
    # (size, dtype), copied where it is written; gen_random_controllable's
    # int64 identities are exact integer constructions, not float kernels
    found = sorted((_where(stem, top), "dtype=np.int64" in map(ast.unparse, node.keywords))
                   for stem, tree in _modules() for top in tree.body for node in ast.walk(top)
                   if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.eye")
    assert [where for where, integer in found if not integer] == ["linalg._identity"], found
    assert {where for where, integer in found if integer} <= {"bench.gen_random_controllable"}, found


def test_cli_imports_without_scipy():
    # scipy serves only the real Schur form (varga); importing the CLI must
    # not load it, or every command pays ~0.3 s of start-up.  A fresh
    # process, since this one may have imported scipy already
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run(
        [sys.executable, "-c", "import sys, poleplace.cli; print(sorted(m for m in sys.modules"
                               " if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n", run.stdout


def test_cli_leaves_each_input_check_to_the_library():
    # the CLI parses argv and reports the library's errors: the pole set and
    # the charpoly are the ALGORITHMS entry's to check, integrality the
    # exact oracle's, so cli.py names neither check nor rounds a value
    tree = dict(_modules())["cli"]
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
    assert not names & {"pole_steps", "_targets", "_parse_poles"}
    calls = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert not {call for call in calls if call.endswith("round")}, calls


def _names(node):
    """Every name an AST ``Name`` or ``Attribute`` node under ``node`` reads."""
    return {getattr(sub, "id", getattr(sub, "attr", None)) for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


# public names that nothing but the tests uses, each with the reason it stays
UNUSED_BUT_KEPT = {
    "exactring.mat_mul": "perfbench's tracer wraps it by name",
    "bench.gen_random_controllable": "criterion 8 imports it",
}


def test_every_public_name_has_a_user():
    # a public top-level function or class, and a public method, classmethod
    # or property of a public class, is named by another definition in the
    # package (__init__'s re-exports do not count), by a demo or by a README
    # line; anything else is code only tests call
    root = SRC.parents[1]
    readme = set(re.findall(r"\w+", (root / "README.md").read_text()))
    demos = set().union(*(_names(ast.parse(path.read_text())) for path in (root / "demos").glob("*.py")))
    used, public = readme | demos, {}
    for stem, tree in _modules():
        for top in tree.body:
            name = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not name.startswith("_"):
                public[f"{stem}.{name}"] = name
                if isinstance(top, ast.ClassDef):
                    public |= {f"{stem}.{name}.{node.name}": node.name for node in top.body
                               if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
            if stem != "__init__":
                used |= _names(top) - {name}
    unused = sorted(where for where, name in public.items() if name not in used)
    assert unused == sorted(UNUSED_BUT_KEPT), unused


def test_every_error_class_names_a_raised_cause():
    # each PlacementError subclass is raised somewhere in the package, by a
    # raise statement or as the error of a linalg._guard call; an argument
    # a kernel or utility cannot take is a ValueError, never a class here
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, PlacementError)
               and value is not PlacementError}
    raised = set()
    for _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.add(ast.unparse(getattr(node.exc, "func", node.exc)))
            elif isinstance(node, ast.keyword) and node.arg == "error":
                raised.add(ast.unparse(node.value))
    assert len(classes) == 11
    assert classes <= raised, sorted(classes - raised)


# numpy's and scipy's Python-level functions that a study cell may still
# call from the package, each with the reason it stays; a C function's
# dispatcher frame counts as the function
ALLOWED_WRAPPERS = {
    ("_linalg.py", "svd"): "svd_decompose: np.linalg.svd is the anchor chain's only public "
                           "route to LAPACK gesdd",
    ("_util.py", "wrapper"): "schur_decompose: scipy.linalg.schur (varga's real Schur form), "
                             "entered through scipy's batching wrapper",
    ("numeric.py", "convolve"): "poly_from_roots: np.convolve's short dots may be fused by BLAS, "
                                "so replacing them is not proven bit-safe",
    ("multiarray.py", "lexsort"): "_hqr_eigenvalues: the spectrum's (real, imag) order with NaN "
                                  "last, which a Python sort does not have",
}


def test_study_kernels_skip_numpy_python_wrappers():
    # at n <= 12 a study cell's cost is numpy's per-call overhead, so its
    # placements and verifications call ufuncs, ndarray methods and cached
    # arrays, not the Python wrappers around them (.all(), .max(), np.any,
    # np.sum, np.ones, np.eye, np.linalg.norm, np.dot, ...), and set
    # np.errstate only as the range rule and around _in_precision's float32
    # cast.  One study cell per ALGORITHMS entry runs at n = 10, both
    # precisions and both pole orders, on fresh systems, so each system's
    # kept work (anchor chain, Hessenberg and Schur forms, normals) runs too
    package = pathlib.Path(linalg.__file__).parent
    poles = [-float(k) for k in range(1, 11)]

    def cells(systems):
        records = []
        for (name, fn), system in zip(placement.ALGORITHMS.items(), systems):
            for order in (poles, poles[::-1]):
                for precision in (linalg.BITS32, linalg.BITS64):
                    try:
                        K = fn(system, order, precision)
                    except PlacementError:
                        continue
                    records.append(bench.evaluate_placement(system, order, K, name,
                                                            precision=precision))
        bench.render_csv(records)
        return records

    def fresh():
        return [bench.gen_integer_example(10) for _ in placement.ALGORITHMS]

    assert cells(fresh())  # warm-up: first-use work (imports, cached identities) is not counted
    systems, entered = fresh(), []

    def profile(frame, event, arg):
        caller = frame.f_back
        path = pathlib.Path(frame.f_code.co_filename)
        if (event != "call" or caller is None or "numpy" not in path.parts and "scipy" not in path.parts
                or pathlib.Path(caller.f_code.co_filename).parent != package):
            return
        name = frame.f_code.co_name
        if name.startswith("_") and name.endswith("_dispatcher"):
            name = name[1:-len("_dispatcher")]
        if path.name == "_ufunc_config.py":  # np.errstate
            if caller.f_code.co_name == "ruled" or (
                    caller.f_code.co_name == "_in_precision"
                    and caller.f_locals["precision"].bits == 32):
                return
        elif (path.name, name) in ALLOWED_WRAPPERS:
            return
        entered.append(f"{path.name}:{name} <- {caller.f_code.co_name}")

    sys.setprofile(profile)
    try:
        cells(systems)
    finally:
        sys.setprofile(None)
    assert entered == [], sorted(set(entered))
