"""Every function, class, method and property in ``src/evifuse`` has a caller in the program.

A top-level definition, public or private, or a method or property of a
top-level class, that nothing else in ``src/`` or ``bench/`` refers to is
code that only tests read: API nothing uses, or a kernel left behind when
its caller went; its tests belong on the code that runs. Names are matched,
not resolved, so a reference to any attribute of the same name counts.
Dunder methods are called by Python itself and are exempt. The package
``__init__`` only re-exports names, so it does not count as a caller. The
attribute names that the bench's ``HOOKS`` patch count as callers.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "evifuse"
BENCH = ROOT / "bench"


def referenced_names(node) -> set:
    """Names, attribute names and from-imported names used anywhere under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def hook_targets(tree) -> set:
    """Attribute names that ``HOOKS`` in bench/spans.py patches by string."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets):
            for hook in node.value.elts:
                out.add(hook.elts[1].value)
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def uncalled_definitions(src_dir: Path, bench_dir: Path) -> list:
    """``module.name`` of each top-level def or class, and ``module.Class.name`` of
    each non-dunder method or property, that no other code refers to."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(src_dir.glob("*.py"))
               if path.name != "__init__.py"}
    bench = {path.stem: ast.parse(path.read_text()) for path in sorted(bench_dir.glob("*.py"))}
    outside = set().union(*(referenced_names(tree) for tree in bench.values()))
    if "spans" in bench:
        outside |= hook_targets(bench["spans"])
    # the references of each top-level statement and of each statement in a
    # class body, so a definition's own body is left out
    units = []
    for tree in modules.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                header = [*node.bases, *node.keywords, *node.decorator_list]
                units.append((node, set().union(*map(referenced_names, header))))
                units.extend((member, referenced_names(member)) for member in node.body)
            else:
                units.append((node, referenced_names(node)))

    def called(name, own) -> bool:
        return name in outside or any(name in names for unit, names in units if unit not in own)

    uncalled = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = node.body if isinstance(node, ast.ClassDef) else []
            if not called(node.name, {node, *members}):
                uncalled.append(f"{module}.{node.name}")
            uncalled.extend(
                f"{module}.{node.name}.{member.name}" for member in members
                if isinstance(member, ast.FunctionDef) and not _is_dunder(member.name)
                and not called(member.name, {member}))
    return uncalled


def test_every_public_definition_has_a_caller():
    """Private definitions are checked as well as public ones."""
    assert uncalled_definitions(SRC, BENCH) == []


def test_finds_a_definition_only_tests_call(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "__init__.py").write_text("from pkg.core import kernel, orphan, hooked\n")
    (src / "core.py").write_text(
        "def kernel(x):\n    return x\n\n\n"
        "def orphan(x):\n    return orphan(x)\n\n\n"
        "def hooked(x):\n    return x\n\n\n"
        "def _step(x):\n    return x\n\n\n"
        "def _orphan_step(x):\n    return _orphan_step(x)\n\n\n"
        "def _hooked_step(x):\n    return x\n\n\n"
        "class Used:\n"
        "    def __repr__(self):\n        return 'Used'\n\n"
        "    def method(self):\n        return 1\n\n"
        "    def hooked_method(self):\n        return 1\n\n"
        "    def orphan_method(self):\n        return self.orphan_method()\n\n"
        "    @property\n    def orphan_property(self):\n        return 1\n\n\n"
        "class _Orphan:\n    pass\n")
    (src / "user.py").write_text(
        "from pkg import core\nfrom pkg.core import Used, _step\n\n\n"
        "def run(x):\n    return core.kernel(_step(x)) + Used().method()\n")
    (bench / "spans.py").write_text(
        "from pkg import core, user\n\nHOOKS = ((core, 'hooked', 'span', None),\n"
        "         (core, '_hooked_step', 'span', None),\n"
        "         (core.Used, 'hooked_method', 'span', None))\n"
        "user.run(1)\n")
    assert uncalled_definitions(src, bench) == [
        "core.orphan", "core._orphan_step", "core.Used.orphan_method",
        "core.Used.orphan_property", "core._Orphan"]
