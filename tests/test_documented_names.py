"""Every `` `path.py::name` `` the documents cite names a def or class.

``docs/*.md`` and ``README.md`` point a reader at code as
`` `service/service.py::_serve` `` or, pytest-style, as
`` `tests/live/test_live.py::TestLifecycle::test_...` ``.  The path is from
the repository root or from ``src/repro``; each name after it must be a
function or class in that file (at any depth: `` `service.py::_serve` ``
may be a method), and a later name one inside the def before it, found
through the file's AST, so a rename or deletion that leaves a document
stale fails here instead of with the next reader.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, List

ROOT = Path(__file__).resolve().parents[1]
#: A cited name: a path ending in ``.py``, then ``::`` and a chain of
#: identifiers separated by ``::`` or ``.``.
_CITATION = re.compile(r"`([\w./-]+\.py)::(\w+(?:(?:::|\.)\w+)*)")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _documents() -> List[Path]:
    return sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]


def _resolves(scope: ast.AST, names: List[str]) -> bool:
    """Whether *scope* holds a def or class ``names[0]`` that holds the rest."""
    if not names:
        return True
    return any(
        _resolves(node, names[1:])
        for node in ast.walk(scope)
        if isinstance(node, _DEFS) and node.name == names[0] and node is not scope
    )


def stale_citations(documents: Iterable[Path], root: Path = ROOT) -> List[str]:
    """``document:line: citation`` for each citation that names nothing."""
    stale = []
    for document in documents:
        for number, line in enumerate(document.read_text(encoding="utf-8").splitlines(), 1):
            for match in _CITATION.finditer(line):
                path, chain = match.groups()
                names = re.split(r"::|\.", chain)
                sources = [found for found in (root / path, root / "src" / "repro" / path) if found.is_file()]
                trees = [ast.parse(source.read_text(encoding="utf-8")) for source in sources]
                if not any(_resolves(tree, names) for tree in trees):
                    stale.append(f"{document.name}:{number}: {path}::{chain}")
    return stale


def test_the_documents_cite_something() -> None:
    texts = [document.read_text(encoding="utf-8") for document in _documents()]
    assert sum(len(_CITATION.findall(text)) for text in texts) >= 10


def test_every_documented_name_exists() -> None:
    assert stale_citations(_documents()) == []


def test_a_planted_stale_citation_fails(tmp_path) -> None:
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(
        "class Box:\n    def open(self):\n        pass\n\n\ndef helper():\n    pass\n"
    )
    document = tmp_path / "notes.md"
    document.write_text(
        "Fine: `pkg/mod.py::helper`, `pkg/mod.py::Box::open`, `pkg/mod.py::Box.open`.\n"
        "Stale: `pkg/mod.py::generate_corpus`, `pkg/mod.py::Box::close`, `pkg/gone.py::helper`.\n"
        "A method needs no class, `pkg/mod.py::open`; a later name is inside: `pkg/mod.py::helper::open`.\n"
    )
    assert stale_citations([document], tmp_path) == [
        "notes.md:2: pkg/mod.py::generate_corpus",
        "notes.md:2: pkg/mod.py::Box::close",
        "notes.md:2: pkg/gone.py::helper",
        "notes.md:3: pkg/mod.py::helper::open",
    ]
