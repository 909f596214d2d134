import ast
from pathlib import Path

import _reference as ref


def _functions(path):
    """(name, AST of the arguments and the body without its docstring) of
    every function defined in ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef):
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            yield node.name, ast.dump(node.args) + "".join(ast.dump(stmt) for stmt in body)


def test_no_test_copies_a_reference_function():
    # a test compares with poleplace 1.0.0 through _reference, not with a
    # hand copy of it
    package = Path(ref.ref_linalg.__file__).parent
    reference = {tree: f"{path.name}:{name}"
                 for path in package.glob("*.py") for name, tree in _functions(path)}
    copies = [f"{path.name}:{name} copies {reference[tree]}"
              for path in sorted(Path(__file__).parent.glob("*.py"))
              for name, tree in _functions(path) if tree in reference]
    assert not copies, "\n".join(copies)
