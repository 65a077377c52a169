"""Source hygiene: every name a module of the package imports is used,
every module-level private function or class is referenced in the package,
every public module-level function and every public method or property of a
package class is read by the package or wrapped by the benchmark's tracer,
and every name the tracer wraps exists.

This stands in for a linter's unused-import and dead-code rules; it parses
each module with the standard library's ast and needs nothing installed.
"""

import ast
import importlib
from pathlib import Path

import rrcf5
from rrcf5 import curve5, exactmath, icosa, pipeline, tables
from rrcf5.exactmath import CycloElem, Poly

PACKAGE_DIR = Path(rrcf5.__file__).parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def unused_imports(source):
    """Names bound by import statements in source that are never referenced.

    References are counted module-wide, as Name nodes anywhere in the
    module.  ``from __future__`` imports are ignored.
    """
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_sees_unused_and_used_imports():
    src = ("from __future__ import annotations\n"
           "import os, os.path as osp\n"
           "from math import gcd, lcm\n"
           "def f():\n"
           "    from json import dumps\n"
           "    return gcd(1, 2), osp\n")
    assert unused_imports(src) == [(2, "os"), (3, "lcm"), (5, "dumps")]


def test_package_has_no_unused_imports():
    found = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        names = unused_imports(path.read_text())
        if names:
            found[path.name] = names
    assert found == {}


def private_defs(source):
    """(line, name) of each module-level function or class named _*."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_")]


def referenced_names(source):
    """Every name source reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_scanner_sees_unreferenced_private_defs():
    src = ("def _used(): pass\n"
           "def _dead(): pass\n"
           "class _Shape: pass\n"
           "def public():\n"
           "    def _inner(): pass\n"
           "    return _used(), mod._Shape\n")
    assert private_defs(src) == [(1, "_used"), (2, "_dead"), (3, "_Shape")]
    assert {"_used", "_Shape"} <= referenced_names(src)
    assert "_dead" not in referenced_names(src)


def test_package_has_no_unreferenced_private_defs():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    used = set().union(*map(referenced_names, sources.values()))
    found = {}
    for name, source in sources.items():
        dead = [d for d in private_defs(source) if d[1] not in used]
        if dead:
            found[name] = dead
    assert found == {}


def tracer_targets():
    """The (module, attribute path) pairs of TIMED and COUNTED in the
    benchmark's tracer, read from its source without importing it."""
    targets = []
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in ("TIMED", "COUNTED")):
            targets += [entry[:2] for entry in ast.literal_eval(node.value)]
    return targets


def test_every_traced_name_resolves():
    """The tracer raises LookupError for a traced name that is gone; it looks
    each one up as an entry of its owner's own namespace."""
    targets = tracer_targets()
    assert ("icosa", "orbit_and_stabilizer") in targets
    assert ("exactmath", "CycloElem.__mul__") in targets
    assert {("pipeline", "compute_z_values"), ("pipeline", "compute_s_values"),
            ("hpnum", "j_from_tau"), ("hpnum", "reconstruct_int_poly")} <= set(targets)
    missing = []
    for module, path in targets:
        owner_name, _, attr = path.rpartition(".")
        owner = importlib.import_module(f"rrcf5.{module}")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if owner is None or vars(owner).get(attr) is None:
            missing.append(f"{module}.{path}")
    assert missing == []


# Public functions that only tests call.  Shrink this set, never grow it: a
# new function earns its place by a caller in the package.
TEST_ONLY = {
    "cache.load",
    "cache.roundtrip_ok",
}


def package_reads(sources):
    """The (module, name) pairs that the modules in sources (keyed by module
    name) read: a bare name in its own module, `module.name`, and
    `from .module import name` or `from rrcf5.module import name`.  A name
    that is only assigned is not read."""
    reads = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                reads.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                reads.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rrcf5."):
                reads.update((node.module[6:], alias.name) for alias in node.names)
    return reads


def unread_public_functions(sources, exempt=()):
    """module.name of each public module-level function that no module in
    sources reads, leaving out the names in exempt."""
    reads = package_reads(sources)
    return {f"{module}.{node.name}" for module, source in sources.items()
            for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and (module, node.name) not in reads and f"{module}.{node.name}" not in exempt}


def test_scanner_sees_unread_public_functions():
    sources = {
        "a": "import json\ndef load(): pass\ndef helper(): pass\n"
             "def main():\n    return helper(), json.load\n",
        "b": "from . import a\nfrom .a import main\ndef run():\n    return a.run\n",
        "c": "def timed(): pass\n",
    }
    # json.load is not a.load, and b.run is not read through a.run
    assert unread_public_functions(sources) == {"a.load", "b.run", "c.timed"}
    assert unread_public_functions(sources, {"c.timed"}) == {"a.load", "b.run"}


def test_every_public_function_has_a_reader():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    traced = {f"{module}.{path}" for module, path in tracer_targets()}
    assert unread_public_functions(sources, traced) == TEST_ONLY


# Public methods and properties that only tests read.  Shrink this set, never
# grow it.
TEST_ONLY_METHODS = {
    "classdata.QuadForm.discriminant",
    "exactmath.MoebiusMap.apply",
}


def unread_public_methods(sources, exempt=()):
    """module.Class.name of each public method or property of a module-level
    class in sources that no module in sources reads as an attribute,
    leaving out the names in exempt.  The receiver's type is not resolved,
    so `x.name` anywhere reads every method called name."""
    attrs = {node.attr for source in sources.values()
             for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}
    return {f"{module}.{cls.name}.{fn.name}" for module, source in sources.items()
            for cls in ast.parse(source).body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)
            and not fn.name.startswith("_") and fn.name not in attrs
            and f"{module}.{cls.name}.{fn.name}" not in exempt}


def test_scanner_sees_unread_public_methods():
    sources = {
        "a": "class Shape:\n"
             "    def area(self): pass\n"
             "    @property\n"
             "    def size(self): pass\n"
             "    def perimeter(self): pass\n"
             "    def timed(self): pass\n"
             "    def __len__(self): pass\n"
             "    def _helper(self): pass\n",
        "b": "from .a import Shape\n"
             "def f(s):\n"
             "    return s.area(), s.size, perimeter\n",
    }
    # a bare name perimeter is not an attribute read
    assert unread_public_methods(sources) == {"a.Shape.perimeter", "a.Shape.timed"}
    assert unread_public_methods(sources, {"a.Shape.timed"}) == {"a.Shape.perimeter"}


def test_every_public_method_has_a_reader():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    traced = {f"{module}.{path}" for module, path in tracer_targets()}
    assert unread_public_methods(sources, traced) == TEST_ONLY_METHODS


def package_imports(source):
    """The package modules source imports: relative imports, and absolute
    ones of rrcf5 or its submodules."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                found.add("." * node.level + (node.module or ""))
            elif node.module.partition(".")[0] == "rrcf5":
                found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.partition(".")[0] == "rrcf5")
    return found


def polyroots_calls(source):
    """Lines of source that read a name or attribute called polyroots."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if getattr(node, "id", getattr(node, "attr", None)) == "polyroots")


def test_scanner_sees_package_imports_and_polyroots():
    src = ("import mpmath\n"
           "import rrcf5.tables\n"
           "from mpmath import polyroots\n"
           "from . import cache\n"
           "from .exactmath import Poly\n"
           "def f():\n"
           "    from rrcf5 import hpnum\n"
           "    return mpmath.polyroots([1, 0, -1]), polyroots\n")
    assert package_imports(src) == {"rrcf5.tables", ".", ".exactmath", "rrcf5"}
    assert polyroots_calls(src) == [8, 8]


def test_hpnum_stands_alone_and_src_finds_no_roots_numerically():
    # the numeric kernel imports no other module of the package, and the
    # package proves its facts without numeric root finding
    assert package_imports((PACKAGE_DIR / "hpnum.py").read_text()) == set()
    found = {path.name: lines for path in sorted(PACKAGE_DIR.glob("*.py"))
             if (lines := polyroots_calls(path.read_text()))}
    assert found == {}


def test_ladders_leave_the_step_order_to_hpnum():
    # hpnum.j_from_tau alone builds the check of j, sums r(w/5) and checks j,
    # so the order a ladder step sums in is written once, in hpnum
    inner = {"check_j_by_r", "r_parts", "j_from_c", "fixed_mul", "fixed_div"}
    for name in ("pipeline.py", "classdata.py"):
        source = (PACKAGE_DIR / name).read_text()
        imported = {alias.name for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert inner & (imported | referenced_names(source)) == set(), name


def test_tau_checks_and_the_stabilizer_compose_nothing_over_q_zeta5(monkeypatch):
    # both are proven at one point on integer coordinates, so neither makes
    # a composition over Q(zeta_5) or an exact pullback
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            polys = [a for a in args if isinstance(a, Poly)]
            if name == "moebius_act_on_poly" or any(
                    isinstance(c, CycloElem) for a in polys for c in a.coeffs):
                calls.append(name)
            return fn(*args)
        return wrapped

    for name in ("poly_compose_rational", "moebius_act_on_poly"):
        wrapped = counting(name, getattr(exactmath, name))
        for module in (exactmath, curve5, icosa, pipeline):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    curve5.tau_and_isogeny_checks()
    p = Poly(tables.P_TABLE[11])
    icosa.orbit_and_stabilizer(p, icosa.generate_g60(), pipeline.build_F_G(Poly(tables.H_TABLE[11])))
    assert calls == []


def mpmath_imports(source):
    """Lines of source that import mpmath or anything from it."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.Import)
                      and any(a.name.partition(".")[0] == "mpmath" for a in node.names))
                  or (isinstance(node, ast.ImportFrom) and not node.level
                      and node.module.partition(".")[0] == "mpmath"))


def test_scanner_sees_mpmath_imports():
    src = ("import os\n"
           "import mpmath\n"
           "from mpmath import mpc\n"
           "from mpmath.libmp import to_fixed\n"
           "from .hpnum import eta\n"
           "def f():\n"
           "    import mpmath.libmp as lib\n")
    assert mpmath_imports(src) == [2, 3, 4, 7]


def test_pipeline_assembles_its_values_without_mpmath():
    # the Heegner values are combined on the numeric kernel's integer pairs
    # only, so no second assembly on mpc can come back into the pipeline
    assert mpmath_imports((PACKAGE_DIR / "pipeline.py").read_text()) == []


def public_constants(sources):
    """module.NAME of each module-level assignment to an upper-case public
    name in sources."""
    return {f"{module}.{target.id}" for module, source in sources.items()
            for node in ast.parse(source).body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id.isupper()
            and not target.id.startswith("_")}


def test_scanner_sees_unread_public_constants():
    sources = {
        "a": "LIMIT = 3\nDEAD = (1, 2)\n_PRIVATE = 0\nlower = 1\nTABLE = {}\n"
             "def f():\n    return LIMIT\n",
        "test_a": "from rrcf5.a import TABLE\nfrom rrcf5 import a\nX = a.SEEN\n",
    }
    assert public_constants(sources) == {"a.LIMIT", "a.DEAD", "a.TABLE", "test_a.X"}
    reads = {f"{m}.{n}" for m, n in package_reads(sources)}
    assert public_constants(sources) - reads == {"a.DEAD", "test_a.X"}


def test_every_public_constant_is_read():
    # reference data such as TABLE1_DS and Q_TABLE earns its place by a test
    package = {path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    tests = {path.stem: path.read_text()
             for path in sorted(Path(__file__).parent.glob("test_*.py"))}
    reads = {f"{m}.{n}" for m, n in package_reads({**package, **tests})}
    assert public_constants(package) - reads == set()


def stderr_readers(sources):
    """module.function (dotted through classes and nested defs) of each
    scope in sources that reads sys.stderr; code outside any def is named
    by its module alone."""
    found = set()

    def visit(node, scope):
        if (isinstance(node, ast.Attribute) and node.attr == "stderr"
                and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return found


def test_scanner_sees_stderr_readers():
    src = ("import sys\n"
           "def main():\n    print('x', file=sys.stderr)\n"
           "class C:\n    def warn(self):\n"
           "        def inner():\n            sys.stderr.write('y')\n"
           "def quiet():\n    print('z', file=sys.stdout)\n"
           "sys.stderr.flush()\n")
    assert stderr_readers({"m": src}) == {"m.main", "m.C.warn.inner", "m"}


def test_only_cli_main_writes_to_stderr():
    # cli.main maps every failure to its exit code and its one stderr line
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert stderr_readers(sources) == {"cli.main"}
