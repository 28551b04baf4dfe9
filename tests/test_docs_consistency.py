"""Repository hygiene: documentation references resolve.

Docs that point at files which don't exist rot silently; these tests
keep README/DESIGN/EXPERIMENTS/docs honest.
"""

import glob
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "docs" / "architecture.md",
    ROOT / "docs" / "paper_walkthrough.md",
]


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` is a module, or attributes of the longest
    importable module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


class TestDocsExist:
    def test_all_documents_present(self):
        for path in DOCS + [ROOT / "REPORT.md"]:
            assert path.exists(), path

    def test_markdown_links_resolve(self):
        link = re.compile(r"\]\(((?!http)[^)#]+)\)")
        for doc in DOCS:
            for target in link.findall(doc.read_text()):
                resolved = (doc.parent / target).resolve()
                assert resolved.exists(), f"{doc.name} links to missing {target}"


class TestReferencedArtifactsExist:
    def test_bench_files_mentioned_in_design_exist(self):
        text = (ROOT / "DESIGN.md").read_text()
        for name in re.findall(r"benchmarks/(test_\w+\.py)", text):
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_bench_files_mentioned_in_experiments_exist(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for name in re.findall(r"`(test_\w+\.py)`", text):
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_modules_mentioned_in_walkthrough_importable(self):
        text = (ROOT / "docs" / "paper_walkthrough.md").read_text()
        for module in set(re.findall(r"`(repro\.[a-z_.]+)`", text)):
            # strip trailing attribute references like repro.core.magic
            parts = module.split(".")
            for cut in range(len(parts), 1, -1):
                candidate = ".".join(parts[:cut])
                try:
                    importlib.import_module(candidate)
                    break
                except ImportError:
                    continue
            else:
                pytest.fail(f"walkthrough references unimportable {module}")

    @pytest.mark.parametrize("doc", DOCS, ids=lambda path: path.name)
    def test_backticked_repro_names_resolve(self, doc):
        """Every backticked ``repro.…`` dotted name imports, or is an
        attribute chain on a module that does. ``docs/migration.md`` is
        left out: it names removed APIs by design."""
        names = set(re.findall(r"`(repro(?:\.[A-Za-z_]\w*)+)", doc.read_text()))
        missing = sorted(name for name in names if not _resolves(name))
        assert not missing, f"{doc.name} names unresolvable {missing}"

    def test_backticked_repo_paths_exist(self):
        """Every path under a source, test or docs directory that a doc
        names in backticks exists. A ``::test`` or ``:line`` suffix is
        dropped; ``<placeholder>``, ``{a,b}`` and ``*`` match as globs.
        ``docs/migration.md`` is left out: it names removed files by
        design."""
        prefixes = ("src/", "tests/", "benchmarks/", "bench/", "examples/",
                    "docs/", ".github/")
        missing = []
        for doc in DOCS + [ROOT / "docs" / "metrics.md"]:
            for span in re.findall(r"`([^`\n]+)`", doc.read_text()):
                for token in span.split():
                    if not token.startswith(prefixes):
                        continue
                    path = token.split(":")[0].rstrip(".,;)")
                    pattern = re.sub(r"<[^>]*>|\{[^}]*\}", "*", path)
                    if not glob.glob(str(ROOT / pattern)):
                        missing.append(f"{doc.name}: {token}")
        assert not missing, missing

    def test_examples_mentioned_in_readme_exist(self):
        text = (ROOT / "README.md").read_text()
        for name in re.findall(r"`(\w+\.py)` \|", text):
            assert (ROOT / "examples" / name).exists(), name

    def test_every_example_listed_in_readme(self):
        text = (ROOT / "README.md").read_text()
        for path in (ROOT / "examples").glob("*.py"):
            assert path.name in text, f"{path.name} missing from README"
