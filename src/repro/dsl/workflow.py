"""The Workflow declaration container.

A :class:`Workflow` is an ordered mapping from node name to operator plus a
set of declared outputs — the Python analogue of the paper's single Scala
``Workflow`` interface.  Iterating on a workflow means building a new
``Workflow`` object (or copying and editing an existing one); the change
tracker in the compiler figures out which operators actually changed, so the
user never annotates changes by hand.

Declarations must reference only earlier declarations (declaration order is a
topological order), mirroring the DSL's ``refers_to``/``results_from``
statements.  A workflow never executes itself — hand it to
:meth:`repro.core.session.HelixSession.run`, which compiles, optimizes, and
runs it.

Usage::

    from repro.dsl.operators import FieldExtractor, SyntheticCensusSource
    from repro.dsl.workflow import Workflow

    wf = Workflow("census")
    wf.add("rows", SyntheticCensusSource(config))
    wf.add("age", FieldExtractor("rows", field="age"))
    wf.mark_output("age")

    edited = wf.copy()                                       # next iteration
    edited.replace("age", FieldExtractor("rows", field="education"))
    print(edited.describe())                                 # Figure-1a-style listing
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

from repro.dsl.operators import ChangeCategory, Operator
from repro.errors import WorkflowError


class Workflow:
    """An ordered set of named operator declarations."""

    def __init__(self, name: str) -> None:
        if not name:
            raise WorkflowError("workflow name must be non-empty")
        self.name = name
        self._declarations: "OrderedDict[str, Operator]" = OrderedDict()
        self._outputs: List[str] = []

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def add(self, name: str, operator: Operator) -> str:
        """Declare ``name`` to be the result of ``operator``.

        Dependencies must already be declared (declaration order therefore is
        a topological order), mirroring how the DSL's ``refers_to`` /
        ``results_from`` statements reference earlier statements.
        """
        if not name:
            raise WorkflowError("node name must be non-empty")
        if name in self._declarations:
            raise WorkflowError(f"node {name!r} is declared twice in workflow {self.name!r}")
        missing = [dep for dep in operator.dependencies() if dep not in self._declarations]
        if missing:
            raise WorkflowError(
                f"operator for {name!r} depends on undeclared nodes {missing}; declare them first"
            )
        self._declarations[name] = operator
        return name

    def replace(self, name: str, operator: Operator) -> str:
        """Replace the operator behind an existing declaration (an iteration edit)."""
        if name not in self._declarations:
            raise WorkflowError(f"cannot replace unknown node {name!r}")
        missing = [dep for dep in operator.dependencies() if dep not in self._declarations or dep == name]
        if missing:
            raise WorkflowError(f"replacement for {name!r} depends on unavailable nodes {missing}")
        self._declarations[name] = operator
        return name

    def remove(self, name: str) -> None:
        """Remove a declaration; fails if another declaration depends on it."""
        if name not in self._declarations:
            raise WorkflowError(f"cannot remove unknown node {name!r}")
        dependents = [
            other for other, op in self._declarations.items() if name in op.dependencies() and other != name
        ]
        if dependents:
            raise WorkflowError(f"cannot remove {name!r}: nodes {dependents} depend on it")
        del self._declarations[name]
        self._outputs = [output for output in self._outputs if output != name]

    def mark_output(self, *names: str) -> None:
        """Declare workflow outputs (the paper's ``is_output()`` statements)."""
        for name in names:
            if name not in self._declarations:
                raise WorkflowError(f"cannot mark unknown node {name!r} as output")
            if name not in self._outputs:
                self._outputs.append(name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def declarations(self) -> "OrderedDict[str, Operator]":
        """Name → operator in declaration order (do not mutate)."""
        return self._declarations

    def operator(self, name: str) -> Operator:
        if name not in self._declarations:
            raise WorkflowError(f"unknown node {name!r} in workflow {self.name!r}")
        return self._declarations[name]

    def outputs(self) -> List[str]:
        return list(self._outputs)

    def node_names(self) -> List[str]:
        return list(self._declarations)

    def categories(self) -> Dict[str, ChangeCategory]:
        """Node name → change category (purple/orange/green/source)."""
        return {name: op.category for name, op in self._declarations.items()}

    def __contains__(self, name: str) -> bool:
        return name in self._declarations

    def __len__(self) -> int:
        return len(self._declarations)

    def __iter__(self) -> Iterator[Tuple[str, Operator]]:
        return iter(self._declarations.items())

    # ------------------------------------------------------------------
    # Iteration helpers
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Workflow":
        """Shallow copy (operators shared) used as the starting point of an iteration."""
        out = Workflow(name or self.name)
        out._declarations = OrderedDict(self._declarations)
        out._outputs = list(self._outputs)
        return out

    def validate(self) -> None:
        """Check that every declared output exists and at least one output is declared."""
        if not self._outputs:
            raise WorkflowError(f"workflow {self.name!r} declares no outputs")
        unknown = [output for output in self._outputs if output not in self._declarations]
        if unknown:
            raise WorkflowError(f"workflow {self.name!r} declares unknown outputs {unknown}")

    def describe(self) -> str:
        """Human-readable multi-line listing, similar to the paper's Figure 1a program."""
        lines = [f"workflow {self.name} {{"]
        for name, operator in self._declarations.items():
            marker = "  (output)" if name in self._outputs else ""
            lines.append(f"  {name} <- {operator.describe()}{marker}")
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Workflow(name={self.name!r}, nodes={len(self)}, outputs={self._outputs})"
