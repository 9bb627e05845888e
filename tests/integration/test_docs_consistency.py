"""Documentation-to-code consistency guards.

DESIGN.md promises a bench target per experiment and a module per system;
these tests keep those promises true as the code evolves.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DESIGN = (ROOT / "DESIGN.md").read_text()
EXPERIMENTS = (ROOT / "EXPERIMENTS.md").read_text()
README = (ROOT / "README.md").read_text()


class TestDesignPromises:
    def test_every_bench_target_exists(self):
        targets = set(re.findall(r"benchmarks/(bench_\w+\.py)", DESIGN))
        assert targets, "DESIGN.md must list bench targets"
        for target in targets:
            assert (ROOT / "benchmarks" / target).exists(), target

    def test_every_named_module_imports(self):
        modules = set(re.findall(r"`(repro\.[a-z_.]+)`", DESIGN))
        import importlib

        for module in sorted(modules):
            # entries may name attributes (repro.core.rounding.func): try
            # the module first, then its parent
            try:
                importlib.import_module(module)
            except ImportError:
                parent, __, attribute = module.rpartition(".")
                imported = importlib.import_module(parent)
                assert hasattr(imported, attribute), module

    def test_experiments_reference_real_benches(self):
        targets = set(re.findall(r"benchmarks/(bench_\w+\.py)", EXPERIMENTS))
        for target in targets:
            assert (ROOT / "benchmarks" / target).exists(), target

    def test_every_bench_module_is_documented(self):
        """No orphan benchmarks: each bench file appears in EXPERIMENTS.md
        or DESIGN.md."""
        documented = DESIGN + EXPERIMENTS
        for path in (ROOT / "benchmarks").glob("bench_*.py"):
            assert path.name in documented, path.name

    def test_readme_examples_exist(self):
        examples = set(re.findall(r"examples/(\w+\.py)", README))
        assert examples
        for example in examples:
            assert (ROOT / "examples" / example).exists(), example

    def test_named_tools_exist(self):
        """Every ``tools/<name>.py`` the docs, the verify skill or CI
        name must exist (``perfbench/`` keeps its own README)."""
        documents = [
            ROOT / "README.md",
            *sorted((ROOT / "docs").glob("*.md")),
            ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
            ROOT / ".github" / "workflows" / "ci.yml",
        ]
        named = set()
        for document in documents:
            if document.exists():
                text = document.read_text()
                named |= set(re.findall(r"\btools/(\w+\.py)", text))
        assert named, "no tools/*.py named in the docs"
        for tool in sorted(named):
            assert (ROOT / "tools" / tool).exists(), tool

    def test_docs_exist(self):
        for path in ("docs/LANGUAGE.md", "docs/AIS.md"):
            assert (ROOT / path).exists(), path
