"""No module under src/netforge/ imports a name it never uses. No linter
is installed, so the check walks each module's syntax tree with `ast`."""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "netforge")
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")
# module -> names it may import without using, each with its reason
ALLOWED = {
    # perfbench/spans.py patches balance.damped_newton by name
    "balance.py": {"damped_newton"},
}


class _Uses(ast.NodeVisitor):
    """Names read anywhere in a module, except where a parameter of an
    enclosing function or lambda shadows them."""

    def __init__(self):
        self.used = set()
        self._params = []

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and \
                not any(node.id in p for p in self._params):
            self.used.add(node.id)

    def _function(self, node):
        # decorators, defaults and annotations run in the enclosing scope
        for dec in getattr(node, "decorator_list", []):
            self.visit(dec)
        self.visit(node.args)
        if getattr(node, "returns", None) is not None:
            self.visit(node.returns)
        a = node.args
        self._params.append(
            {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
            | {x.arg for x in (a.vararg, a.kwarg) if x is not None})
        for stmt in node.body if isinstance(node.body, list) else [node.body]:
            self.visit(stmt)
        self._params.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _function


def unused_imports(source):
    """Sorted names that `source` imports, at any depth, and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {a.asname or a.name for a in node.names}
    uses = _Uses()
    uses.visit(tree)
    return sorted(imported - uses.used)


def test_unused_imports_finds_names_read_only_as_parameters():
    source = ("import os.path\n"
              "from dataclasses import dataclass, field\n"
              "from .interaction import f, fprime\n"
              "@dataclass\n"
              "class A:\n"
              "    x: int = 0\n"
              "def g(field, k=f(1)):\n"
              "    from math import exp, log\n"
              "    return field.u + exp(k) + (lambda fprime: fprime)(0)\n")
    assert unused_imports(source) == ["field", "fprime", "log", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        unused = unused_imports(fh.read())
    allowed = ALLOWED.get(module, set())
    assert allowed <= set(unused), f"{module}: allow-list entry now used"
    assert sorted(set(unused) - allowed) == [], module
