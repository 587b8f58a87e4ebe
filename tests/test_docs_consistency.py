"""Documentation-drift guards.

A reproduction's documentation IS part of the artefact; these tests fail
when code and docs fall out of sync (new experiment not indexed, example
script not listed, promised doc file missing).
"""

import os
import re

import pytest

from repro.experiments import REGISTRY

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(path: str) -> str:
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return fh.read()


class TestExperimentIndexing:
    def test_every_experiment_in_design_md(self):
        design = read("DESIGN.md")
        missing = [k for k in REGISTRY if k not in design]
        assert not missing, f"DESIGN.md misses experiment ids: {missing}"

    def test_every_experiment_in_experiments_md(self):
        text = read("EXPERIMENTS.md")
        # PERF is bench-only QA; everything else needs a section
        missing = [
            k for k in REGISTRY if k not in text and k != "PERF"
        ]
        assert not missing, f"EXPERIMENTS.md misses: {missing}"

    def test_cli_descriptions_nonempty(self):
        from repro.cli import _DESCRIPTIONS

        for key, desc in _DESCRIPTIONS.items():
            assert desc.strip(), f"empty CLI description for {key}"


class TestExamplesListed:
    def test_readme_lists_every_example(self):
        readme = read("README.md")
        examples_dir = os.path.join(ROOT, "examples")
        for name in sorted(os.listdir(examples_dir)):
            if name.endswith(".py"):
                assert name in readme, f"README.md misses examples/{name}"

    def test_every_example_has_docstring_and_main(self):
        examples_dir = os.path.join(ROOT, "examples")
        for name in sorted(os.listdir(examples_dir)):
            if not name.endswith(".py"):
                continue
            text = read(os.path.join("examples", name))
            assert text.lstrip().startswith(
                ("#!/usr/bin/env python3", '"""')
            ), name
            assert '"""' in text, f"{name} lacks a docstring"
            assert "def main()" in text, f"{name} lacks main()"
            assert '__name__ == "__main__"' in text, name


class TestPromisedDocsExist:
    @pytest.mark.parametrize(
        "path",
        [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "CHANGELOG.md",
            "LICENSE",
            "CITATION.cff",
            "Makefile",
            "docs/MODEL.md",
            "docs/ALGORITHMS.md",
            "docs/REPRODUCING.md",
            "docs/THEORY.md",
            "docs/WORKLOADS.md",
            "docs/API.md",
        ],
    )
    def test_exists_and_nonempty(self, path):
        assert os.path.exists(os.path.join(ROOT, path)), path
        assert len(read(path)) > 100, f"{path} suspiciously short"

    def test_readme_links_resolve(self):
        readme = read("README.md")
        for target in re.findall(r"\]\(((?:docs/)?[A-Z_]+\.md)\)", readme):
            assert os.path.exists(
                os.path.join(ROOT, target)
            ), f"README links to missing {target}"


class TestVersionSource:
    def test_pyproject_reads_the_package_version(self):
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
            meta = tomllib.load(fh)
        assert "version" not in meta["project"]
        assert "version" in meta["project"]["dynamic"]
        attr = meta["tool"]["setuptools"]["dynamic"]["version"]["attr"]
        module, _, name = attr.rpartition(".")
        import importlib

        import repro

        assert getattr(importlib.import_module(module), name) == (
            repro.__version__
        )

    def test_changelog_heads_with_the_package_version(self):
        import repro

        first = re.search(r"^## (\S+)", read("CHANGELOG.md"), re.M)
        assert first and first.group(1) == repro.__version__


class TestBenchCoverage:
    def test_every_experiment_has_a_bench(self):
        bench_dir = os.path.join(ROOT, "benchmarks")
        bench_text = "".join(
            read(os.path.join("benchmarks", f))
            for f in os.listdir(bench_dir)
            if f.endswith(".py")
        )
        # each registered driver module must be exercised by some bench
        import repro.experiments as exps

        for key, fn in REGISTRY.items():
            module = fn.__module__.rsplit(".", 1)[-1]
            assert module in bench_text, (
                f"experiment {key} ({module}) has no bench"
            )


class TestRejectionReasonDocs:
    """The admission rejection vocabulary and its documentation must
    agree in both directions: an undocumented wire reason is unusable,
    a documented-but-dead one is a lie."""

    def _documented_reasons(self):
        text = read("docs/SERVICE.md")
        section = text.split("## Admission control", 1)[1]
        section = section.split("\n## ", 1)[0]
        return set(re.findall(r"\*\*`([a-z][a-z-]*)`\*\*", section))

    def test_every_reason_code_documented(self):
        from repro.service import REASON_CODES

        documented = self._documented_reasons()
        for code in REASON_CODES:
            assert code in documented, (
                f"reason {code!r} is in REASON_CODES but not in the "
                "docs/SERVICE.md admission-control list"
            )

    def test_every_documented_reason_exists(self):
        from repro.service import REASON_CODES, RejectionReason

        for name in self._documented_reasons():
            assert name in REASON_CODES, (
                f"docs/SERVICE.md documents reason {name!r} which is "
                "not in repro.service.REASON_CODES"
            )
        # the enum and the tuple are the same vocabulary
        assert set(REASON_CODES) == {r.value for r in RejectionReason}

    def test_fault_matrix_names_every_shard_fault_kind(self):
        from repro.service import SHARD_FAULT_KINDS

        text = read("docs/SERVICE.md")
        matrix = text.split("The fault matrix", 1)[1].split("\n\n", 2)[1]
        for kind in SHARD_FAULT_KINDS:
            assert kind in matrix, (
                f"shard fault kind {kind!r} missing from the "
                "docs/SERVICE.md fault matrix"
            )
