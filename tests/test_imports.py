"""Static checks: no module of the package imports a name it never uses,
another module's private name or a library other than numpy and the
standard library, every top-level definition of the package is named
somewhere in the package or the benchmark, no function rebinds a module-level
name, and only ``parallel`` starts threads or sets the BLAS thread count.
Also, at run time, the CLI and the analysis load no scipy."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import mstok

PACKAGE = pathlib.Path(mstok.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_package_has_no_unused_imports():
    assert unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == ["os (line 1)", "c (line 2)"]
    assert unused_imports("from .t import T\n__all__ = ['T']\n") == []
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def private_imports(source: str) -> list[str]:
    """``module.name (line)`` for each ``_``-prefixed name, dunders excepted,
    that a source takes from a package module: by ``from .m import _x`` or
    as ``m._x`` of a module bound by ``from . import m``."""
    tree = ast.parse(source)
    modules = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "mstok"):
            for alias in node.names:
                if node.module is None or node.module == "mstok":
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append(f"{node.module}.{alias.name} (line {node.lineno})")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{modules[node.value.id]}.{node.attr} (line {node.lineno})")
    return found


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_package_imports_no_private_names():
    source = ("from . import blas, __version__\nfrom .tensor import _w, Tensor\nfrom mstok.t import _v\n"
              "from x import _y\nblas._controls()\nblas.__name__\n")
    assert private_imports(source) == ["tensor._w (line 2)", "mstok.t._v (line 3)", "blas._controls (line 5)"]
    found = {path.name: private_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def imported_roots(source: str) -> set[str]:
    """Top-level package names of every absolute import in a source."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_numpy_and_the_standard_library():
    # numpy's OpenBLAS is the one BLAS; scipy is a test oracle only.
    assert imported_roots("import os.path\nfrom scipy.linalg import eigh\nfrom . import t\n"
                          "def f():\n    import scipy as sp\n") == {"os", "scipy"}
    allowed = sys.stdlib_module_names | {"numpy"}
    found = {path.name: sorted(imported_roots(path.read_text(encoding="utf-8")) - allowed)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: roots for name, roots in found.items() if roots} == {}


def test_cli_and_analysis_load_no_scipy():
    script = ("import sys\nimport numpy as np\nimport mstok.cli\nfrom mstok.latent_stats import analyze_latents\n"
              "analyze_latents(np.random.default_rng(0).standard_normal((50, 8)), grid_size=8)\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def top_level_definitions(source: str) -> dict[str, int]:
    """Module-level function, class and constant names -> line, without
    ``__all__`` and ``__version__``."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        found[name.id] = node.lineno
    return {name: line for name, line in found.items() if name not in ("__all__", "__version__")}


def referenced_names(source: str) -> set[str]:
    """Names a source reads: loaded names, attribute names, and the
    identifiers in its string literals (``setattr(m, "f", ...)``, dotted span
    names), docstrings and other bare strings excepted."""
    tree = ast.parse(source)
    bare = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in bare:
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def test_package_has_no_unreferenced_definitions():
    source = 'A, B = 1, 2\nC: int = 3\ndef f():\n    "uses D"\nclass D: pass\n__all__ = []\n__version__ = "0"\n'
    assert top_level_definitions(source) == {"A": 1, "B": 1, "C": 2, "f": 3, "D": 5}
    assert referenced_names(source) == {"int"}
    assert referenced_names('import m\nm.f(A)\nsetattr(m, "x.C", 1)\n') == {"m", "f", "A", "setattr", "x", "C"}
    # Only the package and the benchmark's own modules count: a definition
    # that only tests read belongs with the tests.
    sources = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
    referenced = set().union(*(referenced_names(path.read_text(encoding="utf-8")) for path in sources))
    unreferenced = {path.name: [f"{name} (line {line})"
                                for name, line in top_level_definitions(path.read_text(encoding="utf-8")).items()
                                if name not in referenced]
                    for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in unreferenced.items() if names} == {}


def global_statements(source: str) -> list[str]:
    """``name (line)`` for each name a ``global`` statement declares."""
    return [f"{name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Global) for name in node.names]


def test_package_rebinds_no_module_state():
    # A module global that a function rebinds is state every worker thread
    # of ``parallel.run_shards`` would read; the inputs of a call decide
    # what it does instead.
    assert global_statements("x = 0\ndef f():\n    global x, y\n    x = 1\n") == ["x (line 3)", "y (line 3)"]
    found = {path.name: global_statements(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


# Names that start worker threads or change numpy's BLAS thread count.
THREAD_NAMES = {"ThreadPoolExecutor", "Thread", "single_threaded"}


def test_only_parallel_starts_threads_or_sets_blas():
    # ``parallel.run_shards`` opens a pool per pass and restores BLAS when it
    # returns; a thread or BLAS setting made anywhere else would outlive it.
    # ``blas`` defines ``single_threaded`` and names it only in docstrings.
    source = ('import threading\nfrom concurrent import futures\nfrom . import blas\n'
              'threading.Thread(target=f)\nfutures.ThreadPoolExecutor(2)\nwith blas.single_threaded(): pass\n')
    assert referenced_names(source) & THREAD_NAMES == THREAD_NAMES
    assert referenced_names('def single_threaded():\n    "Thread"\n') & THREAD_NAMES == set()
    found = {path.name: sorted(referenced_names(path.read_text(encoding="utf-8")) & THREAD_NAMES)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {
        "parallel.py": ["ThreadPoolExecutor", "single_threaded"]}


def package_imports(source: str) -> set[str]:
    """Package modules a source imports, by ``from . import m``,
    ``from .m import x``, ``from mstok.m import x`` or ``import mstok.m``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "mstok"):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "mstok"):
            found.add(node.module.split(".")[-1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("mstok."))
    return found


# The tokenizer's modules, and those that build on it.
TOKENIZER_MODULES = {"model", "losses", "pyramid", "attention", "metrics", "latent_stats", "imageio",
                     "gradcheck", "cli", "train"}


def test_loop_imports_no_tokenizer_module():
    # ``loop.fit`` trains any parameter tree: the tokenizer's shard, eval and
    # checkpoint writer come in as arguments.
    assert package_imports("from . import a, b\nfrom .c import d\nfrom mstok.e import f\n"
                           "import mstok.g\nimport os.path\nfrom numpy import h\n") == {"a", "b", "c", "e", "g"}
    assert package_imports((PACKAGE / "loop.py").read_text(encoding="utf-8")) & TOKENIZER_MODULES == set()


def defined_functions(source: str) -> set[str]:
    """Names of every function and method a source defines."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def test_only_tensor_walks_parameter_trees():
    # ``tensor.named_tensors`` and ``tensor.replica`` are the one walk over
    # dataclass, dict and list trees of tensors: no other module defines
    # them, or a method such as ``named_parameters``, or names both
    # ``is_dataclass`` and ``Tensor`` (``config`` walks dataclass types).
    assert defined_functions("def f():\n    pass\nclass C:\n    def g(self):\n        pass\n") == {"f", "g"}
    walks = {"named_tensors", "replica", "named_parameters"}
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert {name for name, source in sources.items() if defined_functions(source) & walks} == {"tensor.py"}
    assert {name for name, source in sources.items()
            if {"is_dataclass", "Tensor"} <= referenced_names(source)} == {"tensor.py"}
