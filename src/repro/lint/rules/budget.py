"""KM007 — static message-budget regression.

The runtime conformance monitor (``repro.obs.conformance``) verifies
Theorem 2.2/2.4 message counts on whatever the test suite happens to
execute.  This rule proves the same asymptotic classes on *every*
path: the budget-inference pass walks each declared protocol entry
point, folds loop ranges into ``k^a · log^b`` monomials, and flags any
entry whose inferred cluster-wide send budget exceeds its declared
class — in both the ``f=0`` (plain, byte-identical) and ``f>0``
(quorum-verified) regimes.

Two sources of declarations:

* the in-tree table :data:`repro.lint.budgets.DECLARED_ENTRY_CLASSES`
  (which is ``repro.obs.conformance.DECLARED_MESSAGE_CLASSES``, the
  runtime monitor's table);
* a per-module ``LINT_BUDGET = {"func_name": "k", ...}`` dict for
  standalone protocol modules that want a budget pinned next to the
  code.

Opaque loops (an unannotated ``while``, iteration over a gathered
dict) infer as UNBOUNDED and exceed every class: the fix is either a
real restructure or a ``# lint: bound[log]`` declaration citing the
theorem that justifies the bound.
"""

from __future__ import annotations

from typing import Iterator

from ..budgets import (
    EntryBudget,
    infer_entry_budget,
    infer_repo_budgets,
    module_declared_budgets,
)
from ..engine import ModuleInfo, ProjectIndex, Violation
from . import Rule

__all__ = ["BudgetRule"]


class BudgetRule(Rule):
    """Inferred message class must stay within the declared budget."""

    code = "KM007"
    name = "budget-regression"
    description = (
        "a protocol entry point's statically inferred message budget "
        "exceeds the class declared in obs/conformance.py"
    )

    def _repo_results(self, index: ProjectIndex) -> list[EntryBudget]:
        cached = index.km007_cache
        if cached is None:
            analyzer = index.analyzer
            cached = [] if analyzer is None else infer_repo_budgets(analyzer)
            index.km007_cache = cached
        return cached

    def check(self, module: ModuleInfo, index: ProjectIndex) -> Iterator[Violation]:
        for graded in self._repo_results(index):
            if graded.module == module.relpath and not graded.ok:
                yield self._violation(module, graded)
        analyzer = index.analyzer
        if analyzer is None:
            return
        for qualname, declared in module_declared_budgets(module).items():
            graded = infer_entry_budget(
                analyzer, module, qualname, declared=declared
            )
            if graded is not None and not graded.ok:
                yield self._violation(module, graded)

    def _violation(self, module: ModuleInfo, graded: EntryBudget) -> Violation:
        regime = " (byz regime)" if graded.regime == "byz" else ""
        return Violation(
            rule=self.code,
            path=module.relpath,
            line=graded.line,
            col=1,
            message=(
                f"entry {graded.qualname!r}{regime} infers to "
                f"{graded.inferred.classname} messages but declares "
                f"{graded.declared.classname}; restructure the loop or "
                f"declare the bound with `# lint: bound[...]`"
            ),
            scope=graded.qualname,
        )
