"""Symbolic message-budget inference over the protocol graph.

The conformance monitor (``repro.obs.conformance``) checks Theorem
2.2/2.4 message bounds *at runtime*; this pass proves the same
asymptotic classes *statically* by folding loop ranges over
``world_size``/``k``/quorum constants into a tiny abstract domain of
monomials ``k^a · log^b`` (plus an UNBOUNDED top).  A protocol entry
point's aggregate budget is the join over its send sites of

    (loop multiplier) × (per-call cost) × (k if the site runs on
    every worker, 1 if it runs on the singleton leader)

where ``broadcast``/``send_to_many`` cost ``O(k)`` per call and
``send`` costs ``O(1)``.  Joins are componentwise exponent maxima, so
the result is the dominant monomial — exactly the granularity the
paper's bounds are stated at.

Loops the classifier cannot see through (data-dependent ``while``
loops, iteration over gathered dicts) are declared at the source with
``# lint: bound[log]`` / ``# lint: bound[k]`` comments citing the
theorem that justifies them; an undeclared opaque loop makes the
budget UNBOUNDED, which exceeds every declared class and trips KM007.

The declared classes live once, in
``repro.obs.conformance.DECLARED_MESSAGE_CLASSES``, which the runtime
conformance monitor reads too; :data:`DECLARED_ENTRY_CLASSES` is that
table.  numpy is loaded either way (``repro/__init__`` imports
``repro.core`` before any ``repro.lint`` module runs), so the import
adds only the rest of ``repro.obs``, about 30–40 ms.  The linter still
never imports the code under analysis.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from ..obs.conformance import DECLARED_MESSAGE_CLASSES as DECLARED_ENTRY_CLASSES
from .astutils import dotted_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ModuleInfo
    from .protocol import GraphSite, ProtocolAnalyzer

__all__ = [
    "Budget",
    "O1",
    "K",
    "LOG",
    "UNBOUNDED",
    "parse_class",
    "classify_iter",
    "EntryBudget",
    "ENTRY_POINTS",
    "DECLARED_ENTRY_CLASSES",
    "module_declared_budgets",
    "infer_entry_budget",
    "infer_repo_budgets",
]


@dataclass(frozen=True)
class Budget:
    """One point of the message-budget lattice: ``k^k_pow · log^log_pow``.

    ``unbounded`` is the lattice top (an opaque loop with no declared
    bound).  Ordering is componentwise on the exponents; incomparable
    monomials (``k²`` vs ``log²``) are both reported as exceeding each
    other, which is the conservative direction for a regression gate.
    """

    k_pow: int
    log_pow: int
    unbounded: bool = False

    def join(self, other: "Budget") -> "Budget":
        """Least upper bound: the dominant monomial of a *sum*."""
        if self.unbounded or other.unbounded:
            return UNBOUNDED
        return Budget(max(self.k_pow, other.k_pow), max(self.log_pow, other.log_pow))

    def times(self, other: "Budget") -> "Budget":
        """Product: loop nesting multiplies iteration counts."""
        if self.unbounded or other.unbounded:
            return UNBOUNDED
        return Budget(self.k_pow + other.k_pow, self.log_pow + other.log_pow)

    def exceeds(self, declared: "Budget") -> bool:
        """True when this budget is *not* within the declared class."""
        if declared.unbounded:
            return False
        if self.unbounded:
            return True
        return self.k_pow > declared.k_pow or self.log_pow > declared.log_pow

    @property
    def classname(self) -> str:
        """Human form: ``O(1)``, ``O(k log)``, ``O(k^2 log)``, ...."""
        if self.unbounded:
            return "UNBOUNDED"
        parts = []
        if self.k_pow == 1:
            parts.append("k")
        elif self.k_pow > 1:
            parts.append(f"k^{self.k_pow}")
        if self.log_pow == 1:
            parts.append("log")
        elif self.log_pow > 1:
            parts.append(f"log^{self.log_pow}")
        return f"O({' '.join(parts)})" if parts else "O(1)"


O1 = Budget(0, 0)
K = Budget(1, 0)
LOG = Budget(0, 1)
UNBOUNDED = Budget(0, 0, unbounded=True)

_FACTOR_RE = re.compile(r"^(k|log|1)(?:\^(\d+))?$")


def parse_class(text: str) -> Budget | None:
    """Parse ``"k"``, ``"log"``, ``"k*log"``, ``"k^2 log"``, ``"1"``.

    The shared vocabulary of ``# lint: bound[...]`` comments and
    declared budget classes.  Returns ``None`` on anything else, so a
    typo in an annotation surfaces as UNBOUNDED (fail-closed) rather
    than silently granting budget.
    """
    cleaned = text.strip().lower()
    cleaned = cleaned.replace("o(", "").replace(")", "")
    cleaned = cleaned.replace("*", " ").replace("·", " ")
    if not cleaned:
        return None
    total = O1
    for factor in cleaned.split():
        m = _FACTOR_RE.match(factor)
        if m is None:
            return None
        power = int(m.group(2) or 1)
        if m.group(1) == "k":
            total = total.times(Budget(power, 0))
        elif m.group(1) == "log":
            total = total.times(Budget(0, power))
    return total


# ----------------------------------------------------------------------
# Loop-range classification
# ----------------------------------------------------------------------

#: Name fragments that mark an iterable as cluster-sized (≈ k items).
_K_FRAGMENTS = (
    "worker", "peer", "machine", "rank", "replica", "dst", "target",
    "shard", "srcs", "member", "quorum",
)

#: Exact names that are cluster-sized counts.
_K_NAMES = {"k", "world_size", "num_machines", "n_machines"}

#: Call tails that produce a log-sized count.
_LOG_CALL_TAILS = {"log2_ceil", "log_ceil", "ilog2"}


def _is_k_sized(node: ast.expr) -> bool:
    """Heuristic: does this expression denote ~k items / a k-sized count?"""
    for sub in ast.walk(node):
        name: str | None = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if name is None:
            continue
        lowered = name.lower()
        if lowered in _K_NAMES or any(frag in lowered for frag in _K_FRAGMENTS):
            return True
    return False


def _const_int(node: ast.expr, env: Mapping[str, object]) -> int | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.Name):
        value = env.get(node.id)
        if isinstance(value, int):
            return value
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        left = _const_int(node.left, env)
        right = _const_int(node.right, env)
        if left is not None and right is not None:
            return left + right if isinstance(node.op, ast.Add) else left - right
    return None


def classify_iter(node: ast.expr, env: Mapping[str, object]) -> Budget | None:
    """Iteration-count class of a ``for`` target, or ``None`` if opaque.

    ``range(<const>)`` is O(1); ranges and containers whose size
    expressions mention cluster-sized names (``ctx.k``, ``workers``,
    ``peers``, ...) are O(k); ``log2_ceil``-style counts are O(log).
    Opaque iterables fall back to the site's ``# lint: bound[...]``
    declaration (the caller's job).
    """
    # Strip size-preserving wrappers.
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("enumerate", "sorted", "list", "set", "tuple", "reversed")
        and node.args
    ):
        node = node.args[0]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
        node.func.attr in ("items", "keys", "values")
    ):
        node = node.func.value

    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "range":
        args = node.args
        if not args:
            return None
        if all(_const_int(a, env) is not None for a in args):
            return O1
        stop = args[0] if len(args) == 1 else args[1]
        tail = dotted_name(stop.func) if isinstance(stop, ast.Call) else None
        if tail and tail.rsplit(".", 1)[-1] in _LOG_CALL_TAILS:
            return LOG
        if any(_is_k_sized(a) for a in args):
            return K
        return None
    tail = dotted_name(node.func) if isinstance(node, ast.Call) else None
    if tail and tail.rsplit(".", 1)[-1] in _LOG_CALL_TAILS:
        return LOG
    if _is_k_sized(node):
        return K
    return None


# ----------------------------------------------------------------------
# Declared entry-point classes
# ----------------------------------------------------------------------

#: entry name -> (module relpath suffix, function qualname).  The
#: analyzer walks each entry twice: once assuming ``byz is None``
#: (``f=0`` — the PR 6 byte-identity regime) and once assuming a live
#: ByzConfig (``f>0`` — quorum-verified traffic).
ENTRY_POINTS: dict[str, tuple[str, str]] = {
    "algorithm1": ("repro/core/selection.py", "selection_subroutine"),
    "algorithm2": ("repro/core/knn.py", "knn_subroutine"),
    "update": ("repro/dyn/updates.py", "UpdateProgram.run"),
    "rebalance": ("repro/dyn/balance.py", "RebalanceProgram.run"),
    "coreset": ("repro/cluster/coreset.py", "CoresetProgram.run"),
    "clustering": ("repro/cluster/driver.py", "ClusteringProgram.run"),
    "locality_rebalance": (
        "repro/dyn/balance.py", "LocalityRebalanceProgram.run"
    ),
}

def module_declared_budgets(module: "ModuleInfo") -> dict[str, Budget]:
    """Per-module ``LINT_BUDGET = {"func": "k", ...}`` declarations.

    The in-tree protocols declare their classes centrally (the table
    above); standalone protocol modules — and the KM007 fixtures — can
    instead pin a budget next to the code it bounds.
    """
    out: dict[str, Budget] = {}
    for node in module.tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not (isinstance(target, ast.Name) and target.id == "LINT_BUDGET"):
            continue
        if not isinstance(node.value, ast.Dict):
            continue
        for key, value in zip(node.value.keys, node.value.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                out[key.value] = parse_class(value.value) or UNBOUNDED
    return out


# ----------------------------------------------------------------------
# Aggregate inference
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EntryBudget:
    """Inferred vs declared class for one entry point in one regime."""

    entry: str
    regime: str  # "f0" | "byz"
    inferred: Budget
    declared: Budget
    module: str
    qualname: str
    line: int

    @property
    def ok(self) -> bool:
        """Within budget?"""
        return not self.inferred.exceeds(self.declared)


def aggregate_sites(sites: Sequence["GraphSite"]) -> Budget:
    """Cluster-wide send budget of a walked entry: join over send sites
    of ``mult × per-call cost × (k for non-leader roles, 1 for the
    singleton leader)``."""
    total = O1
    for site in sites:
        if site.kind != "send":
            continue
        per_call = K if site.method in ("broadcast", "send_to_many") else O1
        fanout = O1 if site.role == "leader" else K
        total = total.join(site.mult.times(per_call).times(fanout))
    return total


def infer_entry_budget(
    analyzer: "ProtocolAnalyzer",
    module: "ModuleInfo",
    qualname: str,
    *,
    entry: str = "",
    regime: str = "f0",
    declared: Budget | None = None,
) -> EntryBudget | None:
    """Walk one entry under one byz assumption and grade the result."""
    assumptions = {"byz": "f0"} if regime == "f0" else {"byz": "byz"}
    sites = analyzer.walk_entry(module, qualname, assumptions=assumptions)
    if sites is None:
        return None
    func = analyzer.function_at(module, qualname)
    return EntryBudget(
        entry=entry or qualname,
        regime=regime,
        inferred=aggregate_sites(sites),
        declared=declared if declared is not None else UNBOUNDED,
        module=module.relpath,
        qualname=qualname,
        line=func.node.lineno if func is not None else 1,
    )


def infer_repo_budgets(analyzer: "ProtocolAnalyzer") -> list[EntryBudget]:
    """Infer every declared in-tree entry point in both regimes."""
    results: list[EntryBudget] = []
    for entry, (suffix, qualname) in ENTRY_POINTS.items():
        module = analyzer.module_by_suffix(suffix)
        if module is None:
            continue
        for regime in ("f0", "byz"):
            declared = parse_class(DECLARED_ENTRY_CLASSES[entry][regime]) or UNBOUNDED
            graded = infer_entry_budget(
                analyzer, module, qualname,
                entry=entry, regime=regime, declared=declared,
            )
            if graded is not None:
                results.append(graded)
    return results
