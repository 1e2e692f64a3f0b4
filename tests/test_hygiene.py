"""Source hygiene checks over the package modules."""

import ast
import importlib
import inspect
import random
from fractions import Fraction
from pathlib import Path

import pytest

import alphacf
from alphacf import cf_core, fastgrid, orbit_compare, series_eval
from alphacf.cf_core import Alpha
from alphacf.numkit import BallFloat
from alphacf.sampling import random_rational, random_surd

MODULES = sorted(p for p in Path(alphacf.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ re-exports


def _unread_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_imports(path):
    assert _unread_imports(path.read_text(encoding="utf-8")) == []


def _defined(source: str) -> list:
    """Names of the functions and methods a source defines."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_package_keeps_no_reference_step():
    # every orbit is read from expand, which steps exact states and ball
    # ends on ints; the operator-level step, the transfer operator and the
    # 1 / x they needed are test oracles (tests/oracles.py), not package code
    found = [f"{p.name}: {name}"
             for p in Path(alphacf.__file__).parent.glob("*.py")
             for name in _defined(p.read_text(encoding="utf-8"))
             if name in ("alpha_step", "apply_transfer", "__rtruediv__")]
    assert found == []
    assert _defined("def alpha_step(x):\n    pass\n"
                    "class B:\n    def __rtruediv__(self, o):\n"
                    "        pass\n") == ["alpha_step", "__rtruediv__"]


def _thread_imports(source: str) -> list:
    """concurrent.* and threading modules a source imports."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
    return [n for n in names if n.split(".")[0] in ("concurrent", "threading")]


def test_package_starts_no_threads():
    # every call runs on its caller's thread: the float64 kernel holds the
    # GIL between numpy calls, so a pool of blow-up rows gained nothing
    found = [f"{p.name}: {name}"
             for p in Path(alphacf.__file__).parent.glob("*.py")
             for name in _thread_imports(p.read_text(encoding="utf-8"))]
    assert found == []
    assert _thread_imports("import threading\nimport os\n"
                           "from concurrent.futures import ThreadPoolExecutor"
                           "\n") == ["threading", "concurrent.futures"]


def _interval_names(source: str) -> list:
    """libmpi modules and mpi_* names a source imports or reads."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.Name):
            names.append(node.id)
    return sorted({n for n in names if "libmpi" in n
                   or n.rsplit(".", 1)[-1].startswith("mpi_")})


def test_no_module_uses_the_libmpi_interval_layer():
    # a ball is an interval with exact Fraction ends; mpmath's outward-
    # rounding interval kernels would bring back a second ball arithmetic
    found = {p.name: _interval_names(p.read_text(encoding="utf-8"))
             for p in Path(alphacf.__file__).parent.glob("*.py")}
    assert {name: names for name, names in found.items() if names} == {}
    assert _interval_names("from mpmath.libmp import mpi_add, to_str\n"
                           "import mpmath.libmp.libmpi\n") == \
        ["mpi_add", "mpmath.libmp.libmpi"]


def _called(node, name: str) -> bool:
    f = node.func if isinstance(node, ast.Call) else None
    return (isinstance(f, ast.Name) and f.id == name
            or isinstance(f, ast.Attribute) and f.attr == name)


def _ratio_roundings(source: str) -> list:
    """Where a source rounds a ratio of ints other than by
    ``numkit.ratio_mpf``: each import or read of from_rational and each
    mpf_div(from_int(..), from_int(..)), as "function: what"."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.ImportFrom):
            found.extend(f"{where}: import {a.name}" for a in node.names
                         if a.name == "from_rational")
        elif (isinstance(node, ast.Name) and node.id == "from_rational"
              or isinstance(node, ast.Attribute)
              and node.attr == "from_rational"):
            found.append(f"{where}: from_rational")
        elif _called(node, "mpf_div") and len(node.args) >= 2 and all(
                _called(arg, "from_int") for arg in node.args[:2]):
            found.append(f"{where}: mpf_div(from_int, from_int)")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_ratios_are_rounded_by_one_helper():
    # an int ratio becomes an mpf through numkit.ratio_mpf alone, which
    # divides the ints as given, so no ratio is the quotient of its two
    # operands each rounded to prec first
    found = [f"{p.name}: {hit}" for p in MODULES
             for hit in _ratio_roundings(p.read_text(encoding="utf-8"))]
    assert found == []
    assert _ratio_roundings(
        "from mpmath.libmp import from_rational as fr\n"
        "def f(p, q):\n"
        "    return libmp.from_rational(p, q, 53)\n"
        "def g(p, q):\n"
        "    return mpf_div(from_int(p), from_int(q, 53), 53)\n") == [
        "<module>: import from_rational", "f: from_rational",
        "g: mpf_div(from_int, from_int)"]


def _readers(source: str, name: str) -> list:
    """The function around each read of name in a source, one entry per
    read, "<module>" outside any function; imports are not reads."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_series_eval_logs_only_in_the_pass_and_the_residual():
    # every mp series sum reads the one running pass, whose points are
    # logged by _log_inv; the residual takes log x_0 itself, and a second
    # hand-written series loop would take logs of its own
    path = Path(alphacf.__file__).parent / "series_eval.py"
    assert _readers(path.read_text(encoding="utf-8"), "mpf_log") == [
        "_log_inv", "functional_eq_residual"]
    assert _readers("from mpmath.libmp import mpf_log\n"
                    "def f(v):\n    return libmp.mpf_log(v, 53)\n"
                    "g = mpf_log\n", "mpf_log") == ["<module>", "f"]


def test_closed_forms_add_and_multiply_only_in_the_pass(monkeypatch):
    # a closed form reads its tail's block and contraction off the pass's
    # totals and beta, so the adds and products it makes outside ``_pass``
    # do not grow with the period length L (2L + 3 per value when the
    # period's terms were added and its points multiplied again)
    inside, outside = [False], []
    for name in ("mpf_add", "mpf_sub", "mpf_mul"):
        def counted(*args, real=getattr(series_eval, name), name=name):
            if not inside[0]:
                outside.append(name)
            return real(*args)
        monkeypatch.setattr(series_eval, name, counted)

    def in_pass(*args, real=series_eval._pass):
        inside[0] = True
        try:
            return real(*args)
        finally:
            inside[0] = False
    monkeypatch.setattr(series_eval, "_pass", in_pass)
    rng, one, lengths, counts = random.Random(1), Alpha.one(), set(), set()
    for _ in range(30):
        x = random_surd(rng)
        period = cf_core.expand(x, one, 256, best_effort=True).period
        if period is None or period[1] > 40:
            continue
        lengths.add(period[1])
        for value in (lambda: series_eval.brjuno_k(x, one, 1),
                      lambda: series_eval.brjuno_k(x, one, 2),
                      lambda: series_eval.wilton(x, one)):
            cf_core._expansion.cache_clear()  # the pass runs again
            outside.clear()
            assert value().rigorous_tail
            counts.add(len(outside))
    assert min(lengths) == 1 and max(lengths) >= 30
    assert counts == {4}


def _mp_attributes(source: str) -> list:
    return sorted({node.attr for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id == "mp"})


@pytest.mark.parametrize("name", ["series_eval.py", "numkit.py"])
def test_series_and_numkit_read_no_global_precision(name):
    # mp.workprec, mp.prec and mp.dps are process-wide state, and so is the
    # precision every other mp function reads; make_mpf only wraps a raw mpf
    path = Path(alphacf.__file__).parent / name
    assert _mp_attributes(path.read_text(encoding="utf-8")) == ["make_mpf"]


def _private_definitions(tree) -> list:
    """Single-underscore module-level functions and methods, by name."""
    names = []
    for node in tree.body:
        defs = node.body if isinstance(node, ast.ClassDef) else [node]
        names += [d.name for d in defs
                  if isinstance(d, ast.FunctionDef)
                  and d.name.startswith("_") and not d.name.startswith("__")]
    return names


def _read_in_src(trees) -> set:
    """Every name and attribute name the trees load."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def test_private_helpers_have_a_caller_in_src():
    # a helper whose last caller in the package is deleted goes with it,
    # even where a test still calls it
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in MODULES}
    read = _read_in_src(trees.values())
    defined = [(name, helper) for name, tree in trees.items()
               for helper in _private_definitions(tree)]
    assert len(defined) > 40
    assert [f"{name}: {helper}" for name, helper in defined
            if helper not in read] == []


def test_orbit_classes_have_no_uncalled_method():
    # an expansion or convergent accessor that only tests call goes, as
    # digit_at and p_of went once their last package caller was deleted
    read = _read_in_src(ast.parse(p.read_text(encoding="utf-8"))
                        for p in MODULES)
    methods = [(cls.__name__, name)
               for cls in (cf_core.CFExpansion, cf_core.ConvergentSeq)
               for name, member in vars(cls).items()
               if inspect.isfunction(member) and not name.startswith("__")]
    assert len(methods) >= 6
    assert [f"{cls}.{name}" for cls, name in methods if name not in read] == []
    # a binding is no caller, a call of the attribute is
    assert _read_in_src([ast.parse("e.digit_at = f\n")]) == {"e", "f"}
    assert _read_in_src([ast.parse("e.digit_at(1)\n")]) == {"e", "digit_at"}


def _imported_modules(source: str) -> set:
    """Top-level names a source imports; package-relative ones start with '.'."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level:
            found |= {"." + (node.module or a.name).split(".")[0]
                      for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module.split(".")[0])
    return found


def test_grid_path_imports_no_mpmath():
    # the float64 grids and their quadratures run without mpmath; follow
    # their imports through the package
    pkg = Path(alphacf.__file__).parent
    todo, seen, outside = ["fastgrid", "bmo_lab"], set(), set()
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for mod in _imported_modules((pkg / f"{name}.py").read_text(
                    encoding="utf-8")):
                if mod.startswith("."):
                    todo.append(mod[1:])
                else:
                    outside.add(mod)
    assert seen >= {"fastgrid", "bmo_lab"} and "mpmath" not in outside
    assert _imported_modules("import mpmath.libmp\nfrom mpmath import mp\n"
                             "from .numkit import to_mpf\n"
                             "from . import cf_core\n") == \
        {"mpmath", ".numkit", ".cf_core"}


def test_grid_block_size_is_no_knob():
    # the block size is a module constant: the grids take exactly the
    # series' own settings, and nothing in the module reassigns _BLOCK
    params = {fastgrid.series_grid: ["xs", "alpha", "k", "signed", "terms",
                                     "tol"],
              fastgrid.wilton_grid: ["xs", "alpha", "terms", "tol"],
              fastgrid.brjuno_grid: ["xs", "alpha", "k", "terms", "tol"]}
    for grid, names in params.items():
        assert list(inspect.signature(grid).parameters) == names
    tree = ast.parse(Path(fastgrid.__file__).read_text(encoding="utf-8"))
    stores = [node for node in ast.walk(tree)
              if isinstance(node, ast.Name) and node.id == "_BLOCK"
              and not isinstance(node.ctx, ast.Load)]
    assert len(stores) == 1 and any(
        isinstance(stmt, ast.Assign) and stmt.targets[0] is stores[0]
        for stmt in tree.body)
    assert isinstance(fastgrid._BLOCK, int) and fastgrid._BLOCK > 0


def test_orbit_memos_are_bounded_by_module_constants():
    # the expansion memo, which holds exact points and balls alike, holds a
    # few recent orbits, bounded by a module constant, never by a setting;
    # the package keeps no other memo
    modules = [importlib.import_module(f"alphacf.{p.stem}") for p in MODULES]
    memos = {(module.__name__, name): memo for module in modules
             for name, memo in vars(module).items()
             if hasattr(memo, "cache_info")}
    bounds = {
        ("alphacf.cf_core", "_expansion"): (cf_core._expansion, cf_core._MEMO)}
    assert memos == {key: memo for key, (memo, _) in bounds.items()}
    for memo, bound in bounds.values():
        assert memo.cache_info().maxsize == bound > 0
    assert cf_core._MEMO <= 64
    # balls fill the same bounded memo, however many distinct ones are asked
    cf_core._expansion.cache_clear()
    for i in range(3 * cf_core._MEMO):
        cf_core.expand(BallFloat(Fraction(1, i + 3), 64), cf_core.Alpha.one(),
                       5, best_effort=True)
    assert cf_core._expansion.cache_info().currsize == cf_core._MEMO


def _tables_writers(tree: ast.AST) -> set:
    """Names of the functions that write an ``_tables`` attribute: bind or
    delete it or an item of it, or call a method of it other than get."""
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    writers = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr == "_tables"):
            continue
        up = parents[node]
        item_written = (isinstance(up, ast.Subscript)
                        and not isinstance(up.ctx, ast.Load))
        method_called = isinstance(up, ast.Attribute) and up.attr != "get"
        if isinstance(node.ctx, ast.Load) and not (item_written
                                                   or method_called):
            continue
        while not isinstance(up, (ast.FunctionDef, ast.Lambda, ast.Module)):
            up = parents[up]
        writers.add(getattr(up, "name", type(up).__name__))
    return writers


def test_only_kept_writes_the_expansion_tables():
    # the replace-never-extend protocol lives in CFExpansion.kept alone
    writers = set()
    for path in MODULES:
        writers |= _tables_writers(ast.parse(path.read_text(encoding="utf-8")))
    assert writers == {"kept"}
    for source in ("def f(e): e._tables[1] = []",
                   "def f(e): e._tables.setdefault(1, [])",
                   "def f(e): e._tables = {}",
                   "def f(e): del e._tables[1]"):
        assert _tables_writers(ast.parse(source)) == {"f"}
    assert _tables_writers(ast.parse("e._tables = {}")) == {"Module"}
    assert _tables_writers(ast.parse("def f(e): e._tables.get(1)")) == set()


def test_only_series_eval_converts_orbit_points(monkeypatch):
    # cf_core is the exact orbit engine and converts nothing: it imports no
    # conversion, and an expansion has no converting method.  The series
    # layer's pairs (x_i, log(1/x_i)) are the one table of conversions, so
    # the benchmark's exact-audit, ball-eval and rational-orbits ops keep
    # four kinds of table and no ("mpf", prec) one beside the pairs
    tree = ast.parse(Path(cf_core.__file__).read_text(encoding="utf-8"))
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert not imported & {"raw_mpf", "to_mpf", "ratio_mpf"}
    assert not _read_in_src([tree]) & {"raw_mpf", "to_mpf", "numkit"}
    assert not [name for name in ("orbit_mpf", "point_mpf")
                if hasattr(cf_core.CFExpansion, name)]
    keys, real = [], cf_core.CFExpansion.kept

    def kept(self, key, n, more):
        keys.append(key)
        return real(self, key, n, more)
    monkeypatch.setattr(cf_core.CFExpansion, "kept", kept)
    cf_core._expansion.cache_clear()
    rng, one, half = random.Random(2), Alpha.one(), Alpha.half()
    x = random_surd(rng, half=True)
    series_eval.brjuno_k(x, one)
    series_eval.wilton(x, one)
    series_eval.truncation_audit(x, 30)
    for alpha in (one, half):
        for mode in ("brjuno", "wilton"):
            series_eval.gap_audit([x], alpha, 1, 60, mode=mode)
    ball = BallFloat(random_surd(rng, half=True), prec=256)
    digits = cf_core.expand(cf_core.normalize(ball, half)[0], half, 256,
                            best_effort=True).digits
    series_eval.brjuno_k(ball, half)
    series_eval.wilton(ball, half)
    for mode in ("brjuno", "wilton"):
        series_eval.functional_eq_residual(ball, half, mode,
                                           min(50, len(digits) - 1))
    fr = random_rational(rng, 2 ** 64, half=True)
    for alpha in (Alpha(Fraction(13, 25)), Alpha(Fraction(29, 50)),
                  Alpha.golden()):
        orbit_compare.matched_orbits(fr, alpha, 40)
    series_eval.brjuno_finite_rational(fr)
    series_eval.wilton_finite_rational(fr)
    assert {key[0] for key in keys} == {"log", "run", "float", "proxy"}


@pytest.mark.parametrize("fn,names", [
    (cf_core.expand, ["x", "alpha", "max_steps", "best_effort"]),
    (series_eval.brjuno_k, ["x", "alpha", "k", "terms", "tol", "prec"]),
    (series_eval.wilton, ["x", "alpha", "terms", "tol", "prec"]),
    (series_eval.truncation_audit, ["x", "r_max", "prec"]),
    (series_eval.gap_audit, ["samples", "alpha", "k", "N", "mode"]),
    (series_eval.functional_eq_residual,
     ["x", "alpha", "mode", "N", "k", "prec"]),
    (orbit_compare.matched_orbits, ["x", "alpha", "N"]),
    (series_eval.brjuno_finite_rational, ["p_over_q", "k", "prec"]),
    (series_eval.wilton_finite_rational, ["p_over_q", "prec"]),
], ids=lambda v: v.__name__ if callable(v) else None)
def test_orbit_callers_take_no_memo_parameter(fn, names):
    # orbits are shared behind the public calls; no caller passes one in
    assert list(inspect.signature(fn).parameters) == names
