"""No module checks distinctness by counting ``np.unique``'s output.

``np.unique(x).size != x.size`` hashes and then sorts on numpy >= 2.3;
:func:`repro.points.ids.all_distinct` answers the same question with one
sort.  This test parses every module under ``src/repro`` and fails on a
comparison with ``np.unique(...).size``, ``np.unique(...).shape[0]`` or
``len(np.unique(...))`` on either side.  Calls that need the
deduplicated values themselves (``ClusterSession.delete``) stay allowed.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.astutils import dotted_name

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def _is_unique_call(node: ast.expr) -> bool:
    return isinstance(node, ast.Call) and dotted_name(node.func) in {
        "np.unique",
        "numpy.unique",
    }


def _counts_unique(node: ast.expr) -> bool:
    """``np.unique(...).size``, ``np.unique(...).shape[0]`` or
    ``len(np.unique(...))``."""
    if isinstance(node, ast.Attribute) and node.attr == "size":
        return _is_unique_call(node.value)
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute):
        return node.value.attr == "shape" and _is_unique_call(node.value.value)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "len" and len(node.args) == 1 and _is_unique_call(node.args[0])
    return False


def unique_count_comparisons(source: str) -> list[int]:
    """Line numbers of comparisons that count ``np.unique``'s output."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and any(_counts_unique(side) for side in (node.left, *node.comparators))
    ]


def test_detector_flags_each_form_and_spares_deduplication() -> None:
    source = "\n".join(
        [
            "if np.unique(ids).size != ids.size: pass",
            "ok = len(np.unique(x)) == len(x)",
            "ok = n == numpy.unique(x).shape[0]",
            "delete_ids = np.unique(np.asarray(ids))",
            "ok = np.unique(x).size",
        ]
    )
    assert unique_count_comparisons(source) == [1, 2, 3]


def test_src_checks_distinctness_only_through_all_distinct() -> None:
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 50  # the whole package was scanned
    offenders = [
        f"{path.relative_to(SRC)}:{line}"
        for path in modules
        for line in unique_count_comparisons(path.read_text(encoding="utf-8"))
    ]
    assert offenders == [], "use repro.points.ids.all_distinct: " + ", ".join(offenders)
