"""Static hygiene of the package: no module imports a name it never uses,
every module-level function and class, and every method, is used by the
package or the benchmark, every exception the package exports is raised
somewhere in it, every wire message is sent by some module, no two
classes hold the same fields, the declared runtime dependencies are
exactly the third-party packages the modules import, the ``test``
extra is exactly the third-party packages the tests import, and a run
that reads no scenario file does not load PyYAML."""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import pytest

import chronokv

SRC = Path(chronokv.__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py"))
PYPROJECT = SRC.parent.parent / "pyproject.toml"
BENCH = sorted((SRC.parent.parent / "perfbench").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree):
    """Name bound by each import of ``tree`` -> its line, ``__future__``
    imports aside."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree):
    """Names loaded anywhere in ``tree``, plus those ``__all__`` exports."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return used


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in MODULES:
        tree = parse(path)
        used = used_names(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported_names(tree).items()
                   if name not in used]
    assert unused == []


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced_names(tree):
    """Names ``tree`` loads, reads as an attribute or imports, leaving out
    each definition's references to its own name inside its own body: a
    method that only calls itself, or a class that only its own methods
    name, is not referenced."""
    found = set()
    for child in ast.iter_child_nodes(tree):
        found |= referenced_names(child)
    if isinstance(tree, ast.Name) and isinstance(tree.ctx, ast.Load):
        found.add(tree.id)
    elif isinstance(tree, ast.Attribute):
        found.add(tree.attr)
    elif isinstance(tree, ast.ImportFrom):
        found |= {alias.name for alias in tree.names}
    if isinstance(tree, DEFINITIONS):
        found.discard(tree.name)
    return found


def string_names(tree):
    """Strings in ``tree`` that could name a definition: the benchmark
    looks the methods it wraps up by name."""
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.isidentifier()}


def definitions(tree):
    """(line, name) of each module-level function and class of ``tree``,
    and of each method of its classes but the dunders, which Python
    calls by itself."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, DEFINITIONS[:2]) and not (
                        method.name.startswith("__")
                        and method.name.endswith("__")):
                    yield method.lineno, f"{node.name}.{method.name}"


def test_every_function_and_class_has_a_caller_outside_the_tests():
    referenced = set(chronokv.__all__)
    for path in MODULES + BENCH:
        referenced |= referenced_names(parse(path))
    for path in BENCH:
        referenced |= string_names(parse(path))
    assert BENCH, "no benchmark script found"
    unused = [f"{path.name}:{line} {name}"
              for path in MODULES for line, name in definitions(parse(path))
              if name.rsplit(".", 1)[-1] not in referenced]
    assert unused == []


def test_a_definition_referenced_only_by_itself_is_caught():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n"
                     "class C:\n    pass\n"
                     "def g():\n    return C.x\n")
    assert referenced_names(tree) == {"n", "C", "x"}


def test_a_method_referenced_only_by_itself_is_caught():
    tree = ast.parse("class C:\n"
                     "    def __init__(self):\n        self.used()\n"
                     "    def used(self):\n        return C\n"
                     "    def loop(self):\n        return self.loop()\n"
                     "wrap = getattr(C, 'by_name')\n")
    assert [name for _line, name in definitions(tree)] == \
        ["C", "C.used", "C.loop"]
    assert referenced_names(tree) == {"self", "used", "C", "getattr"}
    assert "by_name" in string_names(tree)


def raised_names():
    """Names of the exceptions a ``raise`` in the package names."""
    names = set()
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_exported_exception_is_raised():
    exported = [name for name in chronokv.__all__
                if isinstance(getattr(chronokv, name), type)
                and issubclass(getattr(chronokv, name), BaseException)]
    assert exported, "the package exports no exception"
    assert sorted(set(exported) - raised_names()) == []


def constructed_names(tree):
    """Names that a call in ``tree`` calls directly, as in ``Name(...)``."""
    return {node.func.id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def test_every_message_class_is_constructed_outside_its_module():
    messages = SRC / "messages.py"
    defined = {node.name for node in parse(messages).body
               if isinstance(node, ast.ClassDef)}
    constructed = set()
    for path in MODULES:
        if path != messages:
            constructed |= constructed_names(parse(path))
    assert defined, "chronokv.messages defines no class"
    assert sorted(defined - constructed) == []


# Field-less markers: a type that carries no data.
MARKERS = {"messages.TsReq", "messages.TsErr", "messages.Pending"}
# The one pair allowed to share its fields: a primary logs a finalize as a
# frozen entry, which its replicas share, whether the verdict came in a
# FinalizeReq or in the answer to a push.
SAME_FIELDS_ALLOWED = [["messages.FinalizeReq", "replication.FinalizeEntry"]]


def record_classes():
    """``module.Class`` -> field names, for each dataclass and NamedTuple
    that a module of the package defines."""
    found = {}
    for path in MODULES:
        module = importlib.import_module(f"chronokv.{path.stem}")
        for name, cls in vars(module).items():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            if dataclasses.is_dataclass(cls):
                fields = [f.name for f in dataclasses.fields(cls)]
            elif issubclass(cls, tuple) and hasattr(cls, "_fields"):
                fields = list(cls._fields)
            else:
                continue
            found[f"{path.stem}.{name}"] = frozenset(fields)
    return found


def test_no_two_classes_hold_the_same_fields():
    # One shape per fact: a second class with the same fields is a copy
    # that the code converts to and from.
    by_fields = {}
    for name, fields in record_classes().items():
        if name not in MARKERS:
            by_fields.setdefault(fields, []).append(name)
    assert by_fields, "the package defines no dataclass"
    assert sorted(sorted(names) for names in by_fields.values()
                  if len(names) > 1) == SAME_FIELDS_ALLOWED


def test_an_unused_import_is_caught():
    tree = ast.parse("import os\nfrom a import b, c as d\nprint(b)\n")
    names = imported_names(tree)
    assert sorted(n for n in names if n not in used_names(tree)) == \
        ["d", "os"]


def third_party_imports(paths):
    """Distribution names, lower-cased, of the modules ``paths`` import
    that are neither the standard library, the package nor one of
    ``paths`` themselves."""
    names = set()
    for path in paths:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                names |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    names -= set(sys.stdlib_module_names) | {"chronokv"}
    names -= {path.stem for path in paths}
    dists = packages_distributions()
    return {dist.lower() for name in names for dist in dists.get(name, [name])}


def pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as f:
        return tomllib.load(f)["project"]


def package_names(requirements):
    """Lower-cased names of pyproject requirement strings."""
    return {re.match(r"[A-Za-z0-9._-]+", r).group().lower()
            for r in requirements}


def test_runtime_dependencies_are_exactly_the_imported_packages():
    assert third_party_imports(MODULES) == \
        package_names(pyproject()["dependencies"])


def test_test_extra_is_exactly_the_packages_the_tests_import():
    assert third_party_imports(TESTS) == \
        package_names(pyproject()["optional-dependencies"]["test"])


def test_a_run_that_reads_no_scenario_file_leaves_pyyaml_unloaded():
    # Loading PyYAML costs a process about 1.3 MB; only
    # ``scenario.read_scenario`` needs it, and imports it when called.
    code = ("import sys\n"
            "import chronokv.checkers, chronokv.cluster, chronokv.history, "
            "chronokv.metrics\n"
            "print(sorted(m for m in sys.modules if m.startswith('yaml')))")
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"
