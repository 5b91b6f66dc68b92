"""Source guards: every FFT the package runs is made in grid.py."""

import ast
from pathlib import Path

import critns

SRC = Path(critns.__file__).parent
FFT_MODULES = ("scipy.fft", "numpy.fft")
# (file, call) pairs allowed outside grid.py: the FFT worker count, no transform
ALLOWED = {("cli.py", "scipy.fft.set_workers")}


def fft_calls(tree):
    """Sorted (line, dotted name) of the calls in tree that resolve into
    scipy.fft or numpy.fft, import aliases followed."""
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
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        parts, func = [], node.func
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id in alias:
            name = ".".join([alias[func.id], *reversed(parts)])
            if any(name == m or name.startswith(m + ".") for m in FFT_MODULES):
                found.append((node.lineno, name))
    return sorted(found)


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
    ])
    assert fft_calls(ast.parse(src)) == [
        (6, "numpy.fft.fft"), (7, "scipy.fft.irfftn"), (8, "scipy.fft.ifft"),
        (9, "scipy.fft.rfftn")]


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
