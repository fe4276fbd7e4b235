"""The CI lint step *Nothing unreferenced*, run as CI runs it.

The step fails when a def or class in ``src/`` is referenced nowhere in
``src/``, ``perfbench/``, ``examples/`` or ``benchmarks/`` -- its own body and
its package's re-export do not count, nor, for a def in a class body, a bare
name of its spelling -- or when a name of
the deleted posting record view or of the old regression gate comes back.
These tests run the step's script from ``.github/workflows/ci.yml`` on the
checkout, which must pass, and on copies with one such change, which must not.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "perfbench", "examples", "benchmarks")


def _script() -> str:
    """The ``run:`` block of the step, dedented."""
    lines = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8").splitlines()
    start = lines.index("      - name: Nothing unreferenced") + 2
    assert lines[start - 1].strip() == "run: |"
    block = []
    for line in lines[start:]:
        if line.strip() and not line.startswith(" " * 10):
            break
        block.append(line)
    return textwrap.dedent("\n".join(block))


def _run(cwd: Path, tmp_path: Path) -> subprocess.CompletedProcess:
    """The step in *cwd*, with ``python`` the interpreter running the tests."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir(exist_ok=True)
    if not (bin_dir / "python").exists():
        (bin_dir / "python").symlink_to(sys.executable)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    return subprocess.run(
        ["bash", "-e", "-c", _script()], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def _copy(tmp_path: Path) -> Path:
    tree = tmp_path / "tree"
    for top in SCANNED:
        shutil.copytree(ROOT / top, tree / top, ignore=shutil.ignore_patterns("__pycache__", "*.json", "*.txt"))
    return tree


def _append(path: Path, text: str) -> None:
    with path.open("a", encoding="utf-8") as handle:
        handle.write(text)


def test_nothing_in_the_checkout_is_unreferenced(tmp_path: Path) -> None:
    done = _run(ROOT, tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "defs in src/ are referenced" in done.stdout


def test_a_def_nothing_calls_fails_the_step(tmp_path: Path) -> None:
    tree = _copy(tmp_path)
    _append(tree / "src" / "repro" / "coding" / "postings.py", "\n\ndef _never_called() -> None:\n    pass\n")
    done = _run(tree, tmp_path)
    assert done.returncode != 0
    assert "_never_called is referenced nowhere" in done.stdout


def test_a_def_only_its_own_body_calls_fails_the_step(tmp_path: Path) -> None:
    tree = _copy(tmp_path)
    _append(
        tree / "src" / "repro" / "coding" / "postings.py",
        "\n\ndef _countdown(n: int) -> int:\n    return 0 if n == 0 else _countdown(n - 1)\n",
    )
    done = _run(tree, tmp_path)
    assert done.returncode != 0
    assert "_countdown is referenced nowhere" in done.stdout


def test_a_def_only_its_package_reexports_fails_the_step(tmp_path: Path) -> None:
    tree = _copy(tmp_path)
    _append(tree / "src" / "repro" / "coding" / "postings.py", "\n\ndef reexported_only() -> None:\n    pass\n")
    _append(
        tree / "src" / "repro" / "coding" / "__init__.py",
        "\nfrom repro.coding.postings import reexported_only\n\n__all__ += [\"reexported_only\"]\n",
    )
    done = _run(tree, tmp_path)
    assert done.returncode != 0
    assert "reexported_only is referenced nowhere" in done.stdout


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
    done = _run(tree, tmp_path)
    assert done.returncode != 0
    orphans = [line.rpartition(": ")[2] for line in done.stdout.splitlines()]
    assert orphans == ["sorted is referenced nowhere", "shelf_count is referenced nowhere"]


def test_a_record_view_name_coming_back_fails_the_step(tmp_path: Path) -> None:
    tree = _copy(tmp_path)
    _append(tree / "src" / "repro" / "coding" / "postings.py", "\n# A NodeCode per posting.\n")
    done = _run(tree, tmp_path)
    assert done.returncode != 0
    assert "NodeCode" in done.stdout
