"""Every name a package module imports is read in that module, and every
private module-level name is read somewhere in the package.

No linter ships with the test dependencies, so these are the checks that
keep dead imports and left-behind helpers out: ``ast`` scans of the
``src/nofkit`` modules. An import counts as read when it appears as a Name
node anywhere in its module, or when the module's ``__all__`` re-exports it;
``annotations`` (the ``from __future__`` switch) is read by the compiler. A
private (leading underscore) module-level function, class or assignment
counts as read when some package module loads it by name, reads it as an
attribute, or imports it.

``matrices.all_inputs`` is the one whole-domain enumerator: no package
module decodes codes with ``from_code`` inside a loop over
``range(1 << ...)``.

SciPy stays off the start-up path: the one ``scipy`` import in the package
sits inside ``harness.clopper_pearson``, none is at module level, and no
module catches ``ImportError`` to fall back on another code path.

``protocols.layout`` is the one derivation of a run's layout: no other
package function calls ``_partition_rows``, ``active_budget`` or
``smallest_odd_majority``, the three rules it is built from.

``protocols`` votes in one place: inside it only ``_vote`` calls
``core.plurality``, and it imports no numpy.

Every memo has an explicit bound: each ``lru_cache`` in the package, as a
decorator or a call, sets ``maxsize`` to a positive integer literal, and
``functools.cache`` (unbounded) is not used. A memo hands every caller the
same object, so no ``lru_cache`` function in ``protocols.py`` is annotated to
return a ``dict``, ``list`` or ``set``.

The benchmark's traced run wraps package functions by name, so every
(module, attribute) its span table (``perfbench/spans.py``: FUNCTIONS,
SITES and BUILDERS) names must resolve in the package. That table is read
with ``ast``, never imported or edited.

The tape is the one source of shared randomness: under ``src/nofkit`` only
``tape.py`` imports ``hashlib``, so no plan hashes labels on the side.

A run's only randomness is its tape, and ``tape.sub`` is the one way to
separate runs: no package function takes a parameter named ``ns``, and every
rule of the five built-in specs (the three protocol builders and verify's
two decomposition fixtures) takes exactly its narrow argument list, read off
``inspect.signature``.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from nofkit.harness import _announce_protocol, _constant_protocol
from nofkit.protocols import disj_protocol, gip_protocol, mod3_protocol

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nofkit"
SPANS = ROOT / "perfbench" / "spans.py"


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    exported = {"annotations"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read - exported)


def test_scan_flags_an_unread_import_and_spares_read_or_exported_ones():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from math import comb, sqrt\n"
        "from .core import run\n"
        "__all__ = ['run']\n"
        "x = np.zeros(comb(4, 2)) if os.path else None\n"
    )
    assert unread_imports(source) == ["sqrt"]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(module):
    assert unread_imports(module.read_text()) == []


def private_definitions(source: str) -> set[str]:
    """Module-level functions, classes and assignment targets whose names
    start with one underscore."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def names_read(source: str) -> set[str]:
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def unread_privates(sources: list[str]) -> list[str]:
    defined = set().union(*(private_definitions(s) for s in sources))
    read = set().union(*(names_read(s) for s in sources))
    return sorted(defined - read)


def test_private_scan_flags_a_helper_nothing_reads():
    defining = (
        "_CAP = 3\n"
        "_unused: int = 4\n"
        "def _used(): return _CAP\n"
        "def _dead(): pass\n"
        "class _Gone: pass\n"
        "def _imported(): pass\n"
        "_attr = 1\n"
        "def __getattr__(name): pass\n"
        "def public(): return _used()\n"
    )
    reading = "from .a import _imported\nimport a\nx = a._attr\n"
    assert unread_privates([defining, reading]) == ["_Gone", "_dead", "_unused"]


def test_every_private_definition_is_read_in_the_package():
    sources = [module.read_text() for module in sorted(PACKAGE.glob("*.py"))]
    assert unread_privates(sources) == []


def is_domain_size(node: ast.AST, sizes: set[str]) -> bool:
    """``1 << ...``, or a name the module binds to one."""
    if isinstance(node, ast.Name):
        return node.id in sizes
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.LShift)
        and isinstance(node.left, ast.Constant)
        and node.left.value == 1
    )


def whole_domain_decodes(source: str) -> list[int]:
    """Lines of ``from_code`` calls inside a for loop or comprehension over
    ``range(1 << ...)``, directly or through a name bound to ``1 << ...``."""
    tree = ast.parse(source)
    sizes = {
        t.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and is_domain_size(node.value, set())
        for t in node.targets
        if isinstance(t, ast.Name)
    }

    def over_whole_domain(it: ast.AST) -> bool:
        return (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
            and any(is_domain_size(a, sizes) for a in it.args)
        )

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and over_whole_domain(node.iter):
            scope = node.body
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)) and any(
            over_whole_domain(g.iter) for g in node.generators
        ):
            scope = [node]
        else:
            continue
        for inner in (n for part in scope for n in ast.walk(part)):
            if isinstance(inner, ast.Call):
                func = inner.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "from_code":
                    lines.append(inner.lineno)
    return sorted(lines)


def test_decode_scan_flags_loops_over_every_code_only():
    source = (
        "for c in range(1 << (n * k)):\n"
        "    x = InputMatrix.from_code(n, k, c)\n"
        "xs = [from_code(n, k, c) for c in range(0, 1 << w)]\n"
        "space = 1 << nk\n"
        "for c in range(space):\n"
        "    b = InputMatrix.from_code(n, k, c)\n"
        "for code, w in sorted(weight.items()):\n"
        "    x = InputMatrix.from_code(n, k, code)\n"
        "for i in range(n):\n"
        "    y = InputMatrix.from_code(n, k, i)\n"
        "z = InputMatrix.from_code(n, k, 0)\n"
    )
    assert whole_domain_decodes(source) == [2, 3, 6]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_decodes_the_whole_domain_code_by_code(module):
    assert whole_domain_decodes(module.read_text()) == []


def imports_of(source: str, name: str) -> list[tuple[str, int]]:
    """(enclosing function, or "<module>", line) of every import of module
    ``name`` or a submodule of it; relative imports are the package's own."""
    found = []

    def visit(node: ast.AST, scope: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module or ""]
            else:
                names = []
            if any(n == name or n.startswith(name + ".") for n in names):
                found.append((scope, child.lineno))
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def import_error_handlers(source: str) -> list[int]:
    """Lines of ``except`` clauses that name ``ImportError`` or
    ``ModuleNotFoundError``, alone or in a tuple."""
    caught = {"ImportError", "ModuleNotFoundError"}
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            if {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)} & caught:
                lines.append(node.lineno)
    return lines


def test_scipy_scans_find_each_import_with_its_scope_and_each_fallback():
    source = (
        "import scipy\n"
        "from scipy.special import betaincinv\n"
        "import scipyx\n"
        "from .scipy import thing\n"
        "def interval():\n"
        "    import scipy.special as sp\n"
        "    def inner():\n"
        "        from scipy import stats\n"
        "try:\n"
        "    import numpy\n"
        "except (OSError, ModuleNotFoundError):\n"
        "    pass\n"
        "except ImportError as e:\n"
        "    pass\n"
        "except ValueError:\n"
        "    pass\n"
    )
    assert imports_of(source, "scipy") == [
        ("<module>", 1), ("<module>", 2), ("interval", 6), ("inner", 8)]
    assert import_error_handlers(source) == [11, 13]


def test_scipy_is_imported_only_inside_clopper_pearson():
    found = {
        module.name: imports_of(module.read_text(), "scipy")
        for module in sorted(PACKAGE.glob("*.py"))
    }
    found = {name: [scope for scope, _ in hits] for name, hits in found.items() if hits}
    assert found == {"harness.py": ["clopper_pearson"]}


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_falls_back_on_an_import_error(module):
    assert import_error_handlers(module.read_text()) == []


def test_import_scan_finds_hashlib_at_any_depth_and_spares_lookalikes():
    source = (
        "import hashlib\n"
        "from hashlib import blake2b\n"
        "import hashlibx, os\n"
        "from .hashlib import thing\n"
        "def draw():\n"
        "    import os, hashlib as h\n"
        "x = 'import hashlib'\n"
    )
    assert imports_of(source, "hashlib") == [("<module>", 1), ("<module>", 2), ("draw", 6)]


def test_only_the_tape_imports_hashlib():
    found = [module.name for module in sorted(PACKAGE.glob("*.py"))
             if imports_of(module.read_text(), "hashlib")]
    assert found == ["tape.py"]


LAYOUT_RULES = {"_partition_rows", "active_budget", "smallest_odd_majority"}


def calls_of(source: str, names: set[str]) -> list[tuple[str, str, int]]:
    """(enclosing top-level function or class, or "<module>", name, line) of
    every call of one of ``names``, plain or as an attribute."""
    found = []
    for top in ast.parse(source).body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    found.append((scope, name, node.lineno))
    return sorted(found, key=lambda hit: (hit[2], hit[1]))


def test_layout_scan_finds_each_call_with_its_scope_and_skips_references():
    source = (
        "from .protocols import active_budget\n"
        "x = active_budget(4, 4)\n"
        "def layout(p, n, k, eps):\n"
        "    return _partition_rows(range(n), k), smallest_odd_majority(p, eps)\n"
        "def other(n, k):\n"
        "    f = lambda: combinatorics.smallest_odd_majority(1, 2)\n"
        "    return active_budget\n"
        "class Thing:\n"
        "    def method(self):\n"
        "        return _partition_rows(self.rows, 2)\n"
    )
    assert calls_of(source, LAYOUT_RULES) == [
        ("<module>", "active_budget", 2),
        ("layout", "_partition_rows", 4),
        ("layout", "smallest_odd_majority", 4),
        ("other", "smallest_odd_majority", 6),
        ("Thing", "_partition_rows", 10),
    ]


def test_only_layout_calls_the_layout_rules():
    calls = {
        (module.name, scope, name)
        for module in sorted(PACKAGE.glob("*.py"))
        for scope, name, _ in calls_of(module.read_text(), LAYOUT_RULES)
    }
    assert calls == {("protocols.py", "layout", name) for name in LAYOUT_RULES}


def test_protocols_votes_in_one_place_without_numpy():
    # every plan reader votes through _vote, so the vote cannot fork again
    source = (PACKAGE / "protocols.py").read_text()
    assert imports_of(source, "numpy") == []
    calls = [(scope, name) for scope, name, _ in calls_of(source, {"plurality"})]
    assert calls == [("_vote", "plurality")]


def traced_attributes(source: str) -> list[tuple[str, str]]:
    """(module, attribute) of every FUNCTIONS, SITES and BUILDERS entry of a
    span table; BUILDERS are the protocol factories, looked up in
    ``nofkit.protocols``."""
    tables = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("FUNCTIONS", "SITES", "BUILDERS"):
                tables[target.id] = ast.literal_eval(node.value)
    pairs = [(module, attr) for _, module, attr in tables["FUNCTIONS"] + tables["SITES"]]
    return pairs + [("nofkit.protocols", attr) for attr in tables["BUILDERS"]]


def unresolved(pairs: list[tuple[str, str]]) -> list[str]:
    """The dotted names among ``pairs`` whose attribute path does not resolve."""
    missing = []
    for module, attr in pairs:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{module}.{attr}")
                break
    return missing


def test_resolution_names_each_missing_attribute():
    pairs = [("nofkit.core", "run"), ("nofkit.core", "no_such_function"),
             ("nofkit.tape", "RandomTape.sub"), ("nofkit.tape", "RandomTape.nope")]
    assert unresolved(pairs) == ["nofkit.core.no_such_function", "nofkit.tape.RandomTape.nope"]


def test_every_traced_attribute_resolves_in_the_package():
    pairs = traced_attributes(SPANS.read_text())
    assert len(pairs) > 40
    assert unresolved(pairs) == []


def unbounded_caches(source: str) -> list[int]:
    """Lines of every ``lru_cache`` whose ``maxsize`` is not a positive
    integer literal (bare, empty call, None, or a name), and of every
    ``functools.cache``, by either spelling."""
    tree = ast.parse(source)
    cache_names = {"lru_cache"} | {
        a.asname or a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for a in node.names
        if a.name == "cache"
    }

    def is_cache(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in cache_names
        return (isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
                and isinstance(node.value, ast.Name) and node.value.id == "functools")

    def bounded(call: ast.Call) -> bool:
        name = call.func.id if isinstance(call.func, ast.Name) else call.func.attr
        sizes = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"]
        return name == "lru_cache" and len(sizes) == 1 and (
            isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int
            and sizes[0].value > 0
        )

    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and is_cache(node.func):
            if not bounded(node):
                lines.add(node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            lines.update(d.lineno for d in node.decorator_list if is_cache(d))
    return sorted(lines)


def test_cache_scan_flags_every_memo_without_a_finite_bound():
    source = (
        "import functools\n"
        "from functools import lru_cache, cache as memo\n"
        "@lru_cache(maxsize=64)\n"
        "def a(x): return x\n"
        "@functools.lru_cache(8)\n"
        "def b(x): return x\n"
        "@lru_cache\n"
        "def c(x): return x\n"
        "@lru_cache()\n"
        "def d(x): return x\n"
        "@lru_cache(maxsize=None)\n"
        "def e(x): return x\n"
        "SIZE = 4\n"
        "@functools.lru_cache(maxsize=SIZE)\n"
        "def f(x): return x\n"
        "@memo\n"
        "def g(x): return x\n"
        "@functools.cache\n"
        "def h(x): return x\n"
        "i = lru_cache(maxsize=0)(len)\n"
        "j = lru_cache(maxsize=True)(len)\n"
        "k = lru_cache(maxsize=16)(len)\n"
    )
    assert unbounded_caches(source) == [7, 9, 11, 14, 16, 18, 20, 21]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_memo_in_the_package_is_bounded(module):
    assert unbounded_caches(module.read_text()) == []


MUTABLE = {"dict", "list", "set", "Dict", "List", "Set"}


def mutable_memos(source: str) -> list[str]:
    """Names of the ``lru_cache`` functions, by either spelling, with or
    without a call, whose return annotation is a dict, list or set: bare,
    subscripted, ``typing.``-qualified or quoted."""

    def is_cache(node: ast.AST) -> bool:
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "id", getattr(node, "attr", None)) == "lru_cache"

    def container(note: ast.AST) -> bool:
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            note = ast.parse(note.value, mode="eval").body
        if isinstance(note, ast.Subscript):
            note = note.value
        return getattr(note, "id", getattr(note, "attr", None)) in MUTABLE

    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(map(is_cache, node.decorator_list))
        and node.returns is not None
        and container(node.returns)
    ]


def test_memo_scan_flags_every_cached_container_return():
    source = (
        "import functools, typing\n"
        "from functools import lru_cache\n"
        "@lru_cache(maxsize=8)\n"
        "def a(k) -> dict[int, int]: return {}\n"
        "@functools.lru_cache(maxsize=8)\n"
        "def b(k) -> list: return []\n"
        "@lru_cache\n"
        "def c(k) -> 'set[int]': return set()\n"
        "@lru_cache(maxsize=8)\n"
        "def d(k) -> typing.Dict[int, int]: return {}\n"
        "@lru_cache(maxsize=8)\n"
        "def e(k) -> tuple[int, ...]: return ()\n"
        "@lru_cache(maxsize=8)\n"
        "def f(k) -> int: return k\n"
        "@lru_cache(maxsize=8)\n"
        "def g(k): return []\n"
        "def h(k) -> dict: return {}\n"
        "@property\n"
        "def i(self) -> list: return []\n"
    )
    assert mutable_memos(source) == ["a", "b", "c", "d"]


def test_no_protocols_memo_returns_a_mutable_container():
    # a shared dict or list from a memo is one caller's write away from
    # changing every later caller's answer
    assert mutable_memos((PACKAGE / "protocols.py").read_text()) == []


def parameters_named(source: str, name: str) -> list[tuple[str, int]]:
    """(function name or "<lambda>", line) of every function or lambda with
    a parameter of this name, in any position."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            if any(a is not None and a.arg == name for a in params):
                found.append((getattr(node, "name", "<lambda>"), node.lineno))
    return sorted(found, key=lambda hit: hit[1])


def test_parameter_scan_finds_functions_and_lambdas_in_every_position():
    source = (
        "def a(x, ns=''): return x\n"
        "def b(*, ns): return ns\n"
        "f = lambda i, ns: i\n"
        "def c(ns_prefix, *ns): return ns\n"
        "def d(x): return x.ns\n"
    )
    assert parameters_named(source, "ns") == [("a", 1), ("b", 2), ("<lambda>", 3), ("c", 4)]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_package_function_takes_a_namespace(module):
    assert parameters_named(module.read_text(), "ns") == []


RULE_ARITY = {"message_rule": 4, "length_rule": 2, "output_rule": 2, "plan": 1}
PLANNED = ("gip", "disj", "mod3")  # the two fixtures have no plan; their rules get the tape
BUILTIN_SPECS = {
    "gip": lambda: gip_protocol(4, 4),
    "disj": lambda: disj_protocol(4, 4),
    "mod3": lambda: mod3_protocol(4, 4),
    "announce": lambda: _announce_protocol(2),
    "constant": lambda: _constant_protocol(1, 3, 1),
}


@pytest.mark.parametrize("name", sorted(BUILTIN_SPECS))
def test_every_builtin_rule_takes_its_narrow_argument_list(name):
    spec = BUILTIN_SPECS[name]()
    arity = {
        field: len(inspect.signature(getattr(spec, field)).parameters)
        for field in RULE_ARITY
        if getattr(spec, field) is not None
    }
    assert arity == {f: n for f, n in RULE_ARITY.items() if f != "plan" or name in PLANNED}
