"""No unused imports under ``src/repro`` — an ``ast`` stand-in for ruff's F401.

A name bound by an import must be read somewhere in the same file (as code,
or inside an annotation written as a string), re-exported through the
module's ``__all__``, or be a module attribute the performance ledger patches
from outside: ``benchmarks/ledger/trace.py::TARGETS`` looks names up on the
*calling* module, so a few imports exist only to be wrapped.  That allowlist
is computed from ``TARGETS`` itself, never written down here.
"""

import ast
import importlib.util
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def ledger_patched_names():
    """``{(module, attribute)}`` for every module-level entry of the ledger's TARGETS."""
    spec = importlib.util.spec_from_file_location(
        "_ledger_trace", REPO / "benchmarks" / "ledger" / "trace.py"
    )
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return {
        (target, attribute)
        for _key, target, attributes in trace.TARGETS
        if ":" not in target  # "module:Class" entries patch methods, not imports
        for attribute in attributes
    }


def imported_names(tree):
    """``{bound name: line}`` for every import statement in the file."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def read_names(tree):
    """Every identifier the file reads, including inside string annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            every = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            every += [arg for arg in (arguments.vararg, arguments.kwarg) if arg is not None]
            annotations += [arg.annotation for arg in every] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def exported_names(tree):
    """The string entries of a module-level ``__all__ = [...]``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {
                element.value for element in ast.walk(node.value)
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            }
    return set()


def test_no_unused_imports_in_src():
    patched = ledger_patched_names()
    unused = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        relative = path.relative_to(SRC).with_suffix("")
        parts = relative.parts[:-1] if relative.name == "__init__" else relative.parts
        module = ".".join(parts)
        used = read_names(tree) | exported_names(tree)
        for name, line in sorted(imported_names(tree).items(), key=lambda item: item[1]):
            if name not in used and (module, name) not in patched:
                unused.append(f"{path.relative_to(REPO)}:{line}: {name}")
    assert not unused, "unused imports:\n" + "\n".join(unused)
