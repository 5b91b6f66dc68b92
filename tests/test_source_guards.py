"""Source guards: every FFT the package runs is made in grid.py, every
on-read snapshot sequence is one class, box coefficients go back into a half
spectrum only in the inverse transform, the equation is discretized in one
place, the functools memos are three, every dataclass field and every
top-level function and class is read, and the tests run the CLI through one
harness."""

import ast
from pathlib import Path

import critns

SRC = Path(critns.__file__).parent
TESTS = Path(__file__).parent
FFT_MODULES = ("scipy.fft", "numpy.fft")
# (file, call) pairs allowed outside grid.py: the FFT worker count, no transform
ALLOWED = {("cli.py", "scipy.fft.set_workers")}
# (file, test) pairs that start a process, because the process boundary is
# what they check
SPAWNERS = {("test_acceptance.py", "test_criterion_13_reproducibility"),
            ("test_cli_fuzz.py", "test_in_process_run_matches_a_process")}
# the programs besides the package that read it: the acceptance gate and the
# benchmark's workloads
READERS = (TESTS / "test_acceptance.py", TESTS.parent / "perfbench" / "workloads.py")
# (file, name) of the top-level definitions that have no reader yet: the
# ROADMAP's time error estimate gives stride_halving_error its caller
UNREAD = {("norms.py", "stride_halving_error")}
# (file, function) of the functools memos: the box-slab and stage-line slices
# of each (d, N, M) and the one dealias box of each grid
MEMOS = {("grid.py", "_box_slabs"), ("grid.py", "_stage_lines"), ("solver.py", "dealias_box")}


def _aliases(tree) -> dict:
    """Each name an import in tree binds, mapped to the dotted name it stands for."""
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                # `import scipy.fft` binds scipy, `import numpy as np` binds np
                root = a.name.split(".")[0]
                alias[a.asname or root] = a.name if a.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for a in node.names:
                alias[a.asname or a.name] = f"{node.module}.{a.name}"
    return alias


def _resolved(node, alias) -> str | None:
    """The dotted name an expression like a.b.c stands for, or None when its
    root is no imported name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in alias:
        return ".".join([alias[node.id], *reversed(parts)])
    return None


def fft_calls(tree):
    """Sorted (line, dotted name) of the calls in tree that resolve into
    scipy.fft or numpy.fft, import aliases followed."""
    alias = _aliases(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _resolved(node.func, alias)
        if name and any(name == m or name.startswith(m + ".") for m in FFT_MODULES):
            found.append((node.lineno, name))
    return sorted(found)


def sequence_classes(tree):
    """Names of the classes in tree with collections.abc.Sequence (or
    typing.Sequence) as a base, import aliases followed."""
    alias = _aliases(tree)
    return [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(_resolved(base, alias) in ("collections.abc.Sequence", "typing.Sequence")
                    for base in node.bases)]


def _names(node, name) -> bool:
    """Whether node is the bare name or an attribute called name."""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def uses(tree, name):
    """The enclosing function (None at module level) of each use of name in
    tree: a bare name, an attribute, an import of it or from it."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (_names(child, name) or isinstance(child, ast.alias) and child.name == name
                    or isinstance(child, ast.ImportFrom) and child.module == name):
                found.append(owner)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else owner)

    visit(tree, None)
    return found


def unread_fields(trees):
    """Sorted (class, field) of the annotated fields of the dataclasses in
    trees that no attribute read in trees names.  A class whose body calls
    asdict serializes itself, which reads every field."""
    reads = {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = []
    for tree in trees:
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and any(
                    _names(dec.func if isinstance(dec, ast.Call) else dec, "dataclass")
                    for dec in cls.decorator_list)):
                continue
            if any(isinstance(node, ast.Call) and _names(node.func, "asdict")
                   for node in ast.walk(cls)):
                continue
            found += [(cls.name, stmt.target.id) for stmt in cls.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                      and stmt.target.id not in reads]
    return sorted(found)


def memoized(tree):
    """Sorted names of the functions and methods in tree decorated with
    functools.cache or functools.lru_cache, called or not, import aliases
    followed."""
    alias = _aliases(tree)
    return sorted(node.name for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and any(_resolved(dec.func if isinstance(dec, ast.Call) else dec, alias)
                          in ("functools.cache", "functools.lru_cache")
                          for dec in node.decorator_list))


def owners(tree, hit):
    """The top-level owner, a function or class.method, of each node of tree
    for which hit(node) holds; nodes outside every function are left out."""
    found = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            scopes = [(f"{stmt.name}.{item.name}", item) for item in stmt.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes = [(stmt.name, stmt)]
        else:
            scopes = []
        found += [name for name, scope in scopes for node in ast.walk(scope) if hit(node)]
    return found


def _heat_product(node) -> bool:
    """Whether node multiplies by the heat factor: np.multiply(heat, ...) or
    heat * x, the name heat as an operand."""
    if isinstance(node, ast.Call) and _names(node.func, "multiply"):
        return any(_names(arg, "heat") for arg in node.args)
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and (_names(node.left, "heat") or _names(node.right, "heat")))


def _mentions(node):
    """Every name that node mentions: a bare name, an attribute, an imported
    name, or a string constant that is the name."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name.rsplit(".", 1)[-1]
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield child.value


def unread_definitions(modules, readers):
    """Sorted (module, name) of the top-level functions and classes of the
    modules (name -> tree) that no top-level statement but their own names:
    none of the modules' other statements, and none of the readers' (name ->
    tree).  A package's `__init__.py` only re-exports, which reads nothing."""
    named = {}  # name -> the (module, statement index) pairs that name it
    for module, tree in {**readers, **modules}.items():
        if module == "__init__.py":
            continue
        for i, stmt in enumerate(tree.body):
            for name in _mentions(stmt):
                named.setdefault(name, set()).add((module, i))
    return sorted((module, stmt.name) for module, tree in modules.items()
                  for i, stmt in enumerate(tree.body)
                  if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not named.get(stmt.name, set()) - {(module, i)})


def test_ffts_only_in_grid():
    calls = {(path.name, line, name)
             for path in SRC.glob("*.py") if path.name != "grid.py"
             for line, name in fft_calls(ast.parse(path.read_text()))}
    assert sorted(c for c in calls if (c[0], c[2]) not in ALLOWED) == []
    # every allowed call still exists, so the list does not outlive its reason
    assert {(c[0], c[2]) for c in calls} == ALLOWED


def test_guard_follows_every_import_form():
    src = "\n".join([
        "import numpy as np", "import scipy.fft", "from scipy import fft",
        "from scipy.fft import rfftn as r", "from .grid import irfft",
        "np.fft.fft(x)", "scipy.fft.irfftn(x)", "fft.ifft(x)", "r(x)",
        "np.sum(x)", "irfft(x)", "scipy.linalg.norm(x)",
        "import collections.abc", "import collections.abc as cabc",
        "from collections.abc import Sequence as S", "from typing import Sequence",
        "class A(collections.abc.Sequence): pass", "class B(cabc.Sequence): pass",
        "class C(S): pass", "class D(Sequence): pass", "class E(list): pass",
        "class F(cabc.Mapping): pass",
    ])
    assert fft_calls(ast.parse(src)) == [
        (6, "numpy.fft.fft"), (7, "scipy.fft.irfftn"), (8, "scipy.fft.ifft"),
        (9, "scipy.fft.rfftn")]
    assert sequence_classes(ast.parse(src)) == ["A", "B", "C", "D"]
    src = "\n".join([
        "from .grid import _scatter as s", "grid._scatter(x)",
        "def f():", "    def g(): return _scatter", "    _scatter(x)",
        "def _scatter(): pass", "scatter(x)",
    ])
    assert uses(ast.parse(src), "_scatter") == [None, None, "g", "f"]


def test_no_store_into_another_objects_attribute():
    # obj.attr[key] = value fills a container another object owns; a memo is
    # kept by the code that builds it (functools.cache, or its own self)
    stores = [(path.name, node.lineno, ast.unparse(node))
              for path in SRC.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Attribute)
              and not (isinstance(node.value.value, ast.Name) and node.value.value.id == "self")]
    assert stores == []


def test_one_in_place_fft_call():
    # the pruned transform pair runs its complex stages through one helper
    calls = [node.lineno for node in ast.walk(ast.parse((SRC / "grid.py").read_text()))
             if isinstance(node, ast.Call)
             and any(kw.arg == "overwrite_x" for kw in node.keywords)]
    assert len(calls) == 1, calls


def test_one_on_read_sequence():
    # a loaded file, kept box coefficients, a derived snapshot, a heat-flow
    # snapshot and an LP band are each a make(i) of grid.DerivedSnapshots,
    # not a sequence class of their own
    classes = [(path.name, name) for path in SRC.glob("*.py")
               for name in sequence_classes(ast.parse(path.read_text()))]
    assert classes == [("grid.py", "DerivedSnapshots")]


def test_one_scatter_into_a_half_spectrum():
    # every flux consumer keeps its coefficients on the dealias box; only the
    # pruned inverse transform scatters them into a half spectrum
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    assert [(name, owner) for name, tree in trees.items()
            for owner in uses(tree, "_scatter")] == [("grid.py", "inverse_transform")]
    assert [(name, node.lineno) for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "scatter"] == []


def test_band_norms_in_two_readers():
    # a band profile and a band table; every other band reader, a threshold
    # probe's reduction included, goes through one of them
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    assert sorted((name, owner) for name, tree in trees.items()
                  for owner in uses(tree, "_band_norms") if owner is not None) == [
        ("norms.py", "band_profile"), ("norms.py", "band_tables")]


def test_one_path_for_each_remainder_equation_input():
    # the sampled parts' band tables come from one sampler, which alone
    # reduces them to Chemin-Lerner norms, and every frame reads the
    # remainder's heat flow through one method
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}

    def readers(name):
        return sorted((module, owner) for module, tree in trees.items()
                      for owner in owners(tree, lambda node: _names(node, name)))

    assert readers("band_tables") == [("norms.py", "sampled_norms"),
                                      ("solver.py", "Trajectory.band_table")]
    assert [module for module, tree in sorted(trees.items())
            if uses(tree, "_cl_from_matrix")] == ["norms.py"]
    assert readers("remainder_flow") == [("profiles.py", "EvolvedSystem.remainder_heat")]


def test_one_discretization_of_the_equation():
    # the step's right-hand side is the one assembler of the equation: the
    # flux kernel's other callers are the one-shot projected flux and the
    # profile sources, and the equation residual reads the step's right-hand
    # side and energy; the box Parseval energy, the Heun update and the trip
    # decision are each made in one place
    trees = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}

    def owned(hit):
        return sorted({(name, owner) for name, tree in trees.items()
                       for owner in owners(tree, hit)})

    assert owned(lambda node: _names(node, "_div_flux_hat")) == [
        ("profiles.py", "_source"), ("profiles.py", "source_term"),
        ("solver.py", "StepWorkspace.rhs"), ("solver.py", "_projected_flux")]
    [residual] = [stmt for stmt in trees["profiles.py"].body
                  if getattr(stmt, "name", None) == "ns_equation_residual"]
    read = set(_mentions(residual))
    assert {"rhs", "energy"} <= read
    assert not {"_div_flux_hat", "_leray_coefficients", "multiplicity"} & read
    # the box's weights are gathered in grid.py; scaling weighs a whole
    # half spectrum for its resampling sums
    assert owned(lambda node: isinstance(node, ast.Attribute)
                 and node.attr == "multiplicity") == [
        ("grid.py", "RetainedBox.__init__"), ("scaling.py", "_spectral_resample"),
        ("solver.py", "StepWorkspace.energy")]
    assert owned(_heat_product) == [("solver.py", "StepWorkspace.heun")]
    [integrate] = [stmt for stmt in trees["solver.py"].body
                   if getattr(stmt, "name", None) == "_integrate"]
    assert "heun" in set(_mentions(integrate))
    assert not [node for node in ast.walk(integrate) if isinstance(node, ast.Call)
                and (_names(node.func, "add") or _names(node.func, "multiply"))]
    assert owned(lambda node: isinstance(node, ast.Call)
                 and _names(node.func, "trip_reason")) == [("solver.py", "_integrate")]


def test_owner_guard_on_a_snippet():
    src = "\n".join([
        "kernel(x)", "def f():", "    def g(): return kernel(x)", "    return g",
        "class C:", "    def m(self): return self.kernel(x)", "    k = kernel",
        "def h(heat):", "    np.multiply(heat, y, out=y)", "    return heat * y + y * heat",
        "def e(heat): return np.exp(-heat) + np.multiply(y, y)",
    ])
    tree = ast.parse(src)
    assert owners(tree, lambda node: _names(node, "kernel")) == ["f", "C.m"]
    assert owners(tree, _heat_product) == ["h", "h", "h"]


def test_three_memos():
    # every radial symbol is its values on the grid's radial table, made
    # when it is asked for and kept by no one; the grid's own arrays are its
    # cached properties
    assert {(path.name, name) for path in SRC.glob("*.py")
            for name in memoized(ast.parse(path.read_text()))} == MEMOS


def test_memo_guard_on_a_snippet():
    src = "\n".join([
        "import functools", "from functools import cache as c, lru_cache, cached_property",
        "@functools.cache", "def a(): pass",
        "@c", "def b(): pass",
        "@lru_cache(maxsize=2)", "def d(): pass",
        "@functools.lru_cache", "def e(): pass",
        "class K:", "    @cached_property", "    def f(self): pass",
        "    @c", "    def g(self): pass",
        "def h(): return lru_cache(maxsize=2)(h)",
        "@other.cache", "def i(): pass",
    ])
    assert memoized(ast.parse(src)) == ["a", "b", "d", "e", "g"]


def test_every_dataclass_field_is_read():
    # a report field that no code reads is API surface kept up for nobody
    assert unread_fields([ast.parse(path.read_text()) for path in SRC.glob("*.py")]) == []


def test_every_src_function_has_a_reader():
    # a function that only tests call is kept up for nobody: it moves into
    # the tests or goes; every exception still exists, so the list does not
    # outlive its reason
    modules = {path.name: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    readers = {path.name: ast.parse(path.read_text()) for path in READERS}
    assert unread_definitions(modules, readers) == sorted(UNREAD)


def test_reader_guard_on_a_snippet():
    module = "\n".join([
        "def called(): pass", "def recursive(n): return recursive(n - 1)",
        "def tabled(): pass", "TABLE = {'name': 'tabled'}",
        "class Exported: pass", "def read_elsewhere(): pass",
        "def documented():", "    'documented'",
        "def unread(): return called()",
    ])
    exports = "from .module import Exported"
    package = "from .module import reexported\n__all__ = ['reexported']"
    reader = "import pkg.module\npkg.module.read_elsewhere()"
    assert unread_definitions({"module": ast.parse(module + "\ndef reexported(): pass"),
                               "exports": ast.parse(exports),
                               "__init__.py": ast.parse(package)},
                              {"reader": ast.parse(reader)}) == [
        ("module", "documented"), ("module", "recursive"), ("module", "reexported"),
        ("module", "unread")]


def test_unread_field_guard_on_a_snippet():
    src = "\n".join([
        "import dataclasses", "from dataclasses import asdict, dataclass",
        "@dataclass", "class A:", "    read: int", "    stored: int", "    unread: int = 0",
        "@dataclasses.dataclass(frozen=True)", "class B:", "    unread: int",
        "@dataclass", "class C:", "    unread: int",
        "    def to_dict(self): return asdict(self)",
        "class D:", "    unread: int",
        "def f(a, b):", "    a.stored = a.read", "    return b",
    ])
    assert unread_fields([ast.parse(src)]) == [("A", "stored"), ("A", "unread"), ("B", "unread")]


def test_one_cli_harness():
    # a test runs the CLI through conftest.run_cli, which alone calls
    # cli.main; only the tests of the process boundary start a process
    trees = {path.name: ast.parse(path.read_text()) for path in TESTS.glob("*.py")}
    assert {(name, owner) for name, tree in trees.items()
            for owner in uses(tree, "subprocess")} == SPAWNERS
    assert {(name, owner) for name, tree in trees.items()
            for owner in uses(tree, "main")} == {("conftest.py", "run_cli")}


def test_harness_guard_on_a_snippet():
    src = "\n".join([
        "import subprocess",
        "def f():", "    import subprocess as sp", "    sp.run(x)",
        "def g():", "    from subprocess import run", "    run(x)",
        "def h():", "    return subprocess.run(x)",
        "def k():", "    return process.run(x)",
        "def run_cli(argv):", "    return cli.main(argv)",
    ])
    assert uses(ast.parse(src), "subprocess") == [None, "f", "g", "h"]
    assert uses(ast.parse(src), "main") == ["run_cli"]
