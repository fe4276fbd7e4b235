"""The invariant *Nothing unreferenced* (``tests/test_invariants.py::unreferenced``).

The check fails when a def or class in ``src/`` is referenced nowhere in
``src/``, ``perfbench/``, ``examples/`` or ``benchmarks/`` -- its own body and
its package's re-export do not count, nor, for a def in a class body, a bare
name of its spelling -- or when a name of
the deleted posting record view or of the old regression gate comes back.
These tests run it on a copy of the checkout, which must pass, and on copies
with one such change, which must not.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from test_invariants import ROOT, SCANNED, unreferenced


def _copy(tmp_path: Path) -> Path:
    tree = tmp_path / "tree"
    for top in SCANNED:
        shutil.copytree(ROOT / top, tree / top, ignore=shutil.ignore_patterns("__pycache__", "*.json", "*.txt"))
    return tree


def _append(path: Path, text: str) -> None:
    with path.open("a", encoding="utf-8") as handle:
        handle.write(text)


def test_nothing_in_the_checkout_is_unreferenced(tmp_path: Path) -> None:
    # The copy alone finds nothing, so what the copies below find is their change.
    assert unreferenced(_copy(tmp_path)) == []


def test_a_def_nothing_calls_fails_the_step(tmp_path: Path) -> None:
    tree = _copy(tmp_path)
    _append(tree / "src" / "repro" / "coding" / "postings.py", "\n\ndef _never_called() -> None:\n    pass\n")
    assert [line for line in unreferenced(tree) if line.endswith("_never_called is referenced nowhere")]


def test_a_def_only_its_own_body_calls_fails_the_step(tmp_path: Path) -> None:
    tree = _copy(tmp_path)
    _append(
        tree / "src" / "repro" / "coding" / "postings.py",
        "\n\ndef _countdown(n: int) -> int:\n    return 0 if n == 0 else _countdown(n - 1)\n",
    )
    assert [line for line in unreferenced(tree) if line.endswith("_countdown is referenced nowhere")]


def test_a_def_only_its_package_reexports_fails_the_step(tmp_path: Path) -> None:
    tree = _copy(tmp_path)
    _append(tree / "src" / "repro" / "coding" / "postings.py", "\n\ndef reexported_only() -> None:\n    pass\n")
    _append(
        tree / "src" / "repro" / "coding" / "__init__.py",
        "\nfrom repro.coding.postings import reexported_only\n\n__all__ += [\"reexported_only\"]\n",
    )
    assert [line for line in unreferenced(tree) if line.endswith("reexported_only is referenced nowhere")]


def test_a_method_only_a_bare_name_mentions_fails_the_step(tmp_path: Path) -> None:
    # A local variable and a builtin call spell the methods' names, but only
    # an attribute or a string reaches a def in a class body.
    tree = _copy(tmp_path)
    _append(
        tree / "src" / "repro" / "coding" / "postings.py",
        "\n\nclass _Shelf:\n"
        "    def sorted(self) -> list:\n        return []\n\n"
        "    def shelf_count(self) -> int:\n        return 0\n\n\n"
        "def _shelve() -> int:\n    shelf_count = len(sorted(_Shelf.__mro__))\n    return shelf_count\n\n\n"
        "_SHELVED = _shelve()\n",
    )
    orphans = [line.rpartition(": ")[2] for line in unreferenced(tree)]
    assert orphans == ["sorted is referenced nowhere", "shelf_count is referenced nowhere"]


def test_a_record_view_name_coming_back_fails_the_step(tmp_path: Path) -> None:
    tree = _copy(tmp_path)
    _append(tree / "src" / "repro" / "coding" / "postings.py", "\n# A NodeCode per posting.\n")
    assert [line for line in unreferenced(tree) if "NodeCode" in line]
