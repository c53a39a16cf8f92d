"""Call-graph construction: module naming, call resolution, cycles."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.whole.graph import ImportCycleRule
from repro.analysis.whole.program import Program, module_name_for


def write_pkg(root: Path, files: dict[str, str]) -> Path:
    pkg = root / "pkg"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    for name, source in files.items():
        target = pkg / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return pkg


class TestModuleNaming:
    def test_package_module(self, tmp_path):
        pkg = write_pkg(tmp_path, {"mod.py": "x = 1\n"})
        assert module_name_for(pkg / "mod.py") == "pkg.mod"

    def test_package_init(self, tmp_path):
        pkg = write_pkg(tmp_path, {})
        assert module_name_for(pkg / "__init__.py") == "pkg"

    def test_bare_file(self, tmp_path):
        path = tmp_path / "solo.py"
        path.write_text("x = 1\n")
        assert module_name_for(path) == "solo"


class TestCallResolution:
    def test_direct_and_aliased_calls(self, tmp_path):
        pkg = write_pkg(
            tmp_path,
            {
                "a.py": "def helper():\n    return 1\n",
                "b.py": (
                    "from pkg.a import helper as h\n"
                    "def caller():\n"
                    "    return h()\n"
                ),
            },
        )
        graph = Program.from_paths([pkg]).graph
        (call,) = graph.functions["pkg.b.caller"].calls
        assert call.targets == ("pkg.a.helper",)

    def test_self_method_resolves_through_mro(self, tmp_path):
        pkg = write_pkg(
            tmp_path,
            {
                "c.py": (
                    "class Base:\n"
                    "    def shared(self):\n"
                    "        return 0\n"
                    "class Child(Base):\n"
                    "    def run(self):\n"
                    "        return self.shared()\n"
                ),
            },
        )
        graph = Program.from_paths([pkg]).graph
        (call,) = graph.functions["pkg.c.Child.run"].calls
        assert "pkg.c.Base.shared" in call.targets

    def test_super_call_skips_own_class(self, tmp_path):
        pkg = write_pkg(
            tmp_path,
            {
                "d.py": (
                    "class Base:\n"
                    "    def step(self):\n"
                    "        return 0\n"
                    "class Child(Base):\n"
                    "    def step(self):\n"
                    "        return super().step() + 1\n"
                ),
            },
        )
        graph = Program.from_paths([pkg]).graph
        calls = graph.functions["pkg.d.Child.step"].calls
        (call,) = [c for c in calls if c.name == "step"]
        assert call.targets == ("pkg.d.Base.step",)

    def test_dynamic_dispatch_includes_overrides(self, tmp_path):
        pkg = write_pkg(
            tmp_path,
            {
                "e.py": (
                    "class Policy:\n"
                    "    def pick(self):\n"
                    "        return 0\n"
                    "class Lru(Policy):\n"
                    "    def pick(self):\n"
                    "        return 1\n"
                    "def drive(p: Policy):\n"
                    "    return p.pick()\n"
                ),
            },
        )
        graph = Program.from_paths([pkg]).graph
        (call,) = graph.functions["pkg.e.drive"].calls
        assert set(call.targets) == {"pkg.e.Policy.pick", "pkg.e.Lru.pick"}

    def test_empty_tuple_annotation_is_untyped(self, tmp_path):
        pkg = write_pkg(
            tmp_path,
            {
                "f.py": (
                    "class Box:\n"
                    "    def __init__(self, items: tuple[()]) -> None:\n"
                    "        self.items = items\n"
                ),
            },
        )
        graph = Program.from_paths([pkg]).graph
        assert "pkg.f.Box.__init__" in graph.functions

    def test_graph_json_round_trips(self, tmp_path):
        pkg = write_pkg(tmp_path, {"a.py": "def f():\n    return 1\n"})
        data = Program.from_paths([pkg]).graph.to_dict()
        decoded = json.loads(json.dumps(data, sort_keys=True))
        assert "pkg.a.f" in decoded["functions"]


class TestImportCycles:
    def test_mutual_imports_are_flagged(self, tmp_path):
        pkg = write_pkg(
            tmp_path,
            {
                "a.py": "import pkg.b\n",
                "b.py": "import pkg.a\n",
            },
        )
        program = Program.from_paths([pkg])
        (violation,) = ImportCycleRule().check(program)
        assert violation.rule_id == "import-cycle"
        assert set(violation.trace) == {"pkg.a", "pkg.b"}

    def test_function_scoped_import_breaks_the_cycle(self, tmp_path):
        pkg = write_pkg(
            tmp_path,
            {
                "a.py": "import pkg.b\n",
                "b.py": (
                    "def late():\n"
                    "    from pkg import a\n"
                    "    return a\n"
                ),
            },
        )
        program = Program.from_paths([pkg])
        assert ImportCycleRule().check(program) == []
        # ...but the lazily imported name still resolves for calls.
        assert "pkg.a" in program.graph.imports["pkg.b"].values()

    def test_type_checking_imports_are_ignored(self, tmp_path):
        pkg = write_pkg(
            tmp_path,
            {
                "a.py": "import pkg.b\n",
                "b.py": (
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    import pkg.a\n"
                ),
            },
        )
        assert ImportCycleRule().check(Program.from_paths([pkg])) == []

    def test_submodule_import_does_not_drag_in_the_package(self, tmp_path):
        # ``from pkg import sub`` is cycle-safe (sys.modules fallback):
        # the edge goes to the submodule, not the package __init__.
        pkg = write_pkg(tmp_path, {"sub.py": "x = 1\n"})
        (pkg / "__init__.py").write_text("from pkg import sub\n")
        (pkg / "user.py").write_text("from pkg import sub\n")
        program = Program.from_paths([pkg])
        assert ImportCycleRule().check(program) == []
        assert program.graph.module_imports["pkg.user"] == {"pkg.sub": 1}
