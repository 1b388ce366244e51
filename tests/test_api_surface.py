"""Every public function and class in ``src/evifuse`` has a caller in the program.

A public top-level definition that nothing in ``src/`` or ``bench/`` refers
to is API that only tests read; its tests belong on the code that runs.
The package ``__init__`` only re-exports names, so it does not count as a
caller.
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


def uncalled_definitions(src_dir: Path, bench_dir: Path) -> list:
    """``module.name`` of each public top-level def or class that no other code refers to."""
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(src_dir.glob("*.py"))
               if path.name != "__init__.py"}
    bench = {path.stem: ast.parse(path.read_text()) for path in sorted(bench_dir.glob("*.py"))}
    outside = set().union(*(referenced_names(tree) for tree in bench.values()))
    if "spans" in bench:
        outside |= hook_targets(bench["spans"])
    # each top-level statement's references, so a definition's own body is left out
    statements = [(node, referenced_names(node)) for tree in modules.values() for node in tree.body]
    uncalled = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in outside and not any(
                    node.name in names for other, names in statements if other is not node):
                uncalled.append(f"{module}.{node.name}")
    return uncalled


def test_every_public_definition_has_a_caller():
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
        "class Used:\n    pass\n")
    (src / "user.py").write_text(
        "from pkg import core\nfrom pkg.core import Used\n\n\n"
        "def run(x):\n    return core.kernel(x)\n")
    (bench / "spans.py").write_text(
        "from pkg import core, user\n\nHOOKS = ((core, 'hooked', 'span', None),)\n"
        "user.run(1)\n")
    assert uncalled_definitions(src, bench) == ["core.orphan"]
