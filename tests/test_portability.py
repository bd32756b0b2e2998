"""No call in the library whose bits depend on the CPU or the Python version.

BLAS and LAPACK calls (``np.dot``, ``np.vdot``, ``np.matmul``, ``@``,
``np.inner``, ``np.tensordot``, ``np.linalg``, ``np.polyfit``, and
``np.einsum``, which calls BLAS when optimised) add in an order that depends
on the kernel OpenBLAS picks for the CPU and on its thread count;
``np.log2`` rounds differently in its AVX-512 and AVX2 loops; the builtin
``sum`` is a compensated sum from Python 3.12 on.  The library uses ufunc
sums, left folds and ``math.log2`` instead, and this test keeps it that way.
"""

import ast
import pathlib

import csrk

SOURCES = sorted(pathlib.Path(csrk.__file__).parent.glob("*.py"))

NUMPY_NAMES = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum",
               "linalg", "polyfit", "log2"}

# (module, function) -> the one construct allowed there, and why
ALLOWED = {
    # the enumeration's final probs @ f(y); ROADMAP item 3 replaces it with a
    # fixed-block ufunc reduction
    ("stats.py", "exact_weak_expectation"): "@",
}


def _findings(path):
    """(line, function, construct) of each non-portable use in one file."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "sum"):
            found.append((node.lineno, function, "sum()"))
        if (isinstance(node, ast.Attribute) and node.attr in NUMPY_NAMES
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")):
            found.append((node.lineno, function, f"np.{node.attr}"))
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            found.append((node.lineno, function, "@"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_sources_found():
    assert {"conditions.py", "stats.py", "tableau.py"} <= {
        p.name for p in SOURCES}


def test_no_cpu_or_version_dependent_arithmetic():
    bad, allowed_seen = [], set()
    for path in SOURCES:
        for line, function, what in _findings(path):
            key = (path.name, function)
            if ALLOWED.get(key) == what and key not in allowed_seen:
                allowed_seen.add(key)
                continue
            bad.append(f"{path.name}:{line}: {what} in {function}")
    assert not bad, "non-portable arithmetic:\n" + "\n".join(bad)
    # an allowance whose site is gone is dropped from ALLOWED
    assert allowed_seen == set(ALLOWED)


def test_blas_contractions_found(tmp_path):
    path = tmp_path / "contractions.py"
    path.write_text(
        "import numpy as np\n"
        "def f(a):\n"
        "    return (np.einsum('i,i', a, a) + np.inner(a, a)\n"
        "            + np.tensordot(a, a, 1) + np.linalg.norm(a))\n")
    assert sorted(what for _, _, what in _findings(path)) == [
        "np.einsum", "np.inner", "np.linalg", "np.tensordot"]
