"""Structural rules of the package, checked on its source by AST walks.

Each test names the one place where a kind of work is done and fails
when the same work appears anywhere else in ``src/poleplace``.
"""

import ast
import pathlib

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
