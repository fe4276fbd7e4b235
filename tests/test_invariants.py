"""The architecture's invariants, one test each.

Each test guards one design decision that the paper's claims rest on in
this code, and its docstring says which.  A test that bans a name is a call
of :func:`matches`, which reports each line it finds as ``path:line: text``.
A test about the shape of a def reads the def with :mod:`ast` -- its
statements, the calls in them and their order, a decorator -- and never a
range of its text.  A new invariant is a new test here that fails on the
tree before the change it guards.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import Counter
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCTIONS, ast.ClassDef)


# ----------------------------------------------------------------------
# Reading the tree
# ----------------------------------------------------------------------
def _files(paths: Sequence[str], glob: str, root: Path) -> Iterator[Path]:
    """Each file of *paths*: a file itself, or a directory's files matching
    *glob* at any depth, bytecode caches skipped."""
    for name in paths:
        path = root / name
        if path.is_dir():
            yield from sorted(
                found for found in path.rglob(glob) if found.is_file() and "__pycache__" not in found.parts
            )
        else:
            yield path


def matches(
    pattern: str, *paths: str, glob: str = "*", exclude: Sequence[str] = (), root: Path = ROOT
) -> List[str]:
    """``path:line: text`` of every line that *pattern* finds in *paths*
    (see :func:`_files`), but for the files *exclude* names."""
    found = re.compile(pattern)
    hits = []
    for path in _files(paths, glob, root):
        name = path.relative_to(root).as_posix()
        if name in exclude:
            continue
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if found.search(line):
                hits.append(f"{name}:{number}: {line.strip()}")
    return hits


@functools.lru_cache(maxsize=None)
def _module(path: str) -> ast.Module:
    return ast.parse((ROOT / path).read_text(encoding="utf-8"))


def _modules(top: str, mentioning: str) -> Iterator[Tuple[str, ast.Module]]:
    """Each ``.py`` file under *top* whose text holds *mentioning*, parsed."""
    for path in _files([top], "*.py", ROOT):
        text = path.read_text(encoding="utf-8")
        if mentioning in text:
            yield path.relative_to(ROOT).as_posix(), ast.parse(text)


def _def(path: str, name: str, within: Optional[str] = None) -> ast.AST:
    """The one def or class *name* in *path*, in class *within* if given."""
    scope = _module(path) if within is None else _def(path, within)
    found = [node for node in ast.walk(scope) if isinstance(node, _DEFS) and node.name == name]
    assert len(found) == 1, f"{path}: {len(found)} defs named {name}"
    return found[0]


def _calls(node: ast.AST, name: str) -> List[ast.Call]:
    """The calls in *node* of *name*: a function, ``self._serve``, or any
    object's method (``HTTPConnection`` finds ``http.client.HTTPConnection(``)."""
    return [
        inner
        for inner in ast.walk(node)
        if isinstance(inner, ast.Call) and f".{ast.unparse(inner.func)}".endswith(f".{name}")
    ]


def _first(body: Sequence[ast.stmt], name: str) -> int:
    """The index in *body* of the first statement that calls *name*."""
    at = [index for index, statement in enumerate(body) if _calls(statement, name)]
    assert at, f"no statement calls {name}"
    return at[0]


def _outside(tree: ast.AST, skipped: ast.AST) -> Iterator[ast.AST]:
    """The nodes of *tree*, but for *skipped* and what it holds."""
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is not skipped:
            yield node
            todo.extend(ast.iter_child_nodes(node))


def _neighbours(node: ast.AST) -> Set[Tuple[str, str]]:
    """Each two adjacent items of a tuple, a list or a call's arguments in *node*."""
    pairs = set()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Call):
            items = [ast.unparse(item) for item in inner.args]
        elif isinstance(inner, (ast.Tuple, ast.List)):
            items = [ast.unparse(item) for item in inner.elts]
        else:
            continue
        pairs.update(zip(items, items[1:]))
    return pairs


def _where(path: str, nodes: Sequence[ast.AST]) -> List[str]:
    return [f"{path}:{node.lineno}: {ast.unparse(node)}" for node in nodes]


# ----------------------------------------------------------------------
# Nothing unreferenced
# ----------------------------------------------------------------------
#: asyncio calls these on a protocol.
_ASYNCIO = {
    "connection_made", "get_buffer", "buffer_updated", "eof_received",
    "connection_lost", "pause_writing", "resume_writing",
}
#: Defs only the tests call, each the oracle or fixture builder they hold the code to.
_ORACLES = {
    "match_corpus": "the brute-force matcher the tests hold every executor to",
    "decode_varint_list": "the scalar decoder the tests hold decode_varint_run to",
    "build_tree": "the tests' builder of fixture trees from nested tuples",
    "structurally_equal": "the tests' oracle of what a parse or a decoded key gives back",
    "is_valid_cover": "the tests' oracle of the paper's valid cover (Definition 7)",
    "is_root_split_cover": "the tests' oracle of the paper's root-split cover (Definition 8)",
    "has_deep_branching_anomaly": "the tests' oracle of the paper's deep-branching anomaly (Definition 10)",
}
#: Where a use counts: the package, the benchmark, the walkthroughs and the paper's tables.
SCANNED = ("src", "perfbench", "examples", "benchmarks")
_Def = Tuple[int, str, bool, int, bool]


def _names(node: ast.AST, reexports: bool = False) -> List[str]:
    """The names *node* mentions; without the imports and strings of a re-export."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias) and not reexports:
        return [node.name.rpartition(".")[2]]
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and not reexports:
        return [node.value]
    return []


@functools.lru_cache(maxsize=None)
def _uses(text: str, reexports: bool, defines: bool) -> Tuple[Counter, Counter, Tuple[_Def, ...]]:
    """What one file holds: the names it mentions, those of them that are
    bare names, and (if *defines*) each def and class as ``(line, name,
    registered, mentions of its name inside it, in a class body)``.

    A def in a class body is reached through an attribute or a string
    (getattr) only: a bare name of the same spelling (a local, a builtin such
    as ``print``) is not a use of it.  Cached by text, so a copy of the tree
    with one file amended parses that file only.
    """
    tree = ast.parse(text)
    refs, bare, defs = Counter(), Counter(), []
    members = {id(inner) for outer in ast.walk(tree) if isinstance(outer, ast.ClassDef) for inner in outer.body}
    for node in ast.walk(tree):
        refs.update(_names(node, reexports))
        bare.update([node.id] if isinstance(node, ast.Name) else [])
        if defines and isinstance(node, _DEFS):
            member = id(node) in members
            decorators = {ast.unparse(d).partition("(")[0] for d in node.decorator_list}
            own = sum(
                _names(inner).count(node.name)
                for inner in ast.walk(node)
                if not (member and isinstance(inner, ast.Name))
            )
            defs.append((node.lineno, node.name, "experiment" in decorators, own, member))
    return refs, bare, tuple(defs)


def unreferenced(root: Path = ROOT) -> List[str]:
    """What *Nothing unreferenced* finds under *root*: each def or class in
    ``src/`` that nothing uses, and each line of ``src/`` naming the deleted
    posting record view or bench gate.

    A use is a name loaded, an attribute, an import or a string in ``src/``,
    ``perfbench/``, ``examples/`` or ``benchmarks/``.  A definition, a
    def's mention of its own name inside its body (a recursion) and a
    package ``__init__``'s re-export (an import or an ``__all__`` string)
    are none.  The registry calls ``@experiment`` functions by name, so
    they need none.
    """
    problems = matches(r"FilterPosting|RootPosting|SubtreePosting|NodeCode|bench[./]gate", "src", root=root)
    refs, bare, defs = Counter(), Counter(), []
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            file_refs, file_bare, file_defs = _uses(text, path.name == "__init__.py", top == "src")
            refs.update(file_refs)
            bare.update(file_bare)
            defs.extend((path.relative_to(root).as_posix(), *found) for found in file_defs)
    return problems + [
        f"{path}:{line}: {name} is referenced nowhere"
        for path, line, name, registered, own, member in defs
        if refs[name] - (bare[name] if member else 0) <= own
        and name not in _ASYNCIO
        and name not in _ORACLES
        and not (name.startswith("__") and name.endswith("__"))
        and not registered
    ]


# ----------------------------------------------------------------------
# The invariants
# ----------------------------------------------------------------------
def test_no_index_class_is_tested_for_above_the_index() -> None:
    """What an index is made of is the index's business (``flavor``,
    ``stats_extras()``, ``segments``): the CLI, the services and the bench
    print what it reports and never ask which class it is."""
    assert matches(
        r"isinstance\([^)]*(ShardedIndex|LiveIndex|SegmentSet)",
        "src/repro/cli.py", "src/repro/serve", "src/repro/service", "src/repro/exec", "src/repro/bench",
    ) == []


def test_one_index_type() -> None:
    """An index is a SegmentSet -- a plain file is the set of one source --
    and SubtreeIndex is only the reader of one file and the build: no
    posting cache, flavor or stats of its own, no manifest sniff, and
    nothing above the index asks an object whether it has a manifest or
    a store."""
    assert matches(
        r"attach_postings_cache|_CACHE_MISS|stats_extras|probe_snapshot|is_manifest|flavor =",
        "src/repro/core/index.py",
    ) == []
    assert matches(r'getattr\([^)]*"(manifest|manifest_path|store)"', "src/repro/cli.py", "src/repro/service") == []


def test_the_micro_batcher_stays_deleted() -> None:
    """/query/batch is /query over a list (PR 24): the window that held a
    batch back to coalesce it, its class, its error and its knobs are
    gone, and no flag brings them back.  (Bracketed so that this file
    does not hold the names either.)"""
    assert matches(
        r"Micro[B]atcher|Batcher[C]losed|flush[_-]window|max[_]batch|batch[_]flush",
        "src", "docs", "examples", "README.md",
    ) == []


def test_result_tables_are_built_by_the_orchestrator_only() -> None:
    """An experiment is declared once, on its measure function: the
    orchestrator builds every result table from the declaration, and no
    second table of runner functions exists to fall out of step with it."""
    assert matches(
        r"ExperimentResult\(", "src/repro",
        exclude=("src/repro/bench/results.py", "src/repro/bench/runner.py"),
    ) == []
    assert matches(r"\bRUNNERS\b", "src/repro") == []


def test_the_http_hop_stays_on_one_buffer() -> None:
    """A connection is one asyncio protocol that parses requests out of its
    one receive buffer: no asyncio streams path lives beside it, and every
    read of a server lands in the server's one buffer
    (asyncio.BufferedProtocol), never in a buffer allocated a read."""
    server = "src/repro/serve/server.py"
    assert matches(r"start_server|Stream(Reader|Writer)", "src/repro/serve") == []
    assert matches(r"def data_received\b", server) == []
    bases = {
        ast.unparse(base)
        for node in ast.walk(_module(server))
        if isinstance(node, ast.ClassDef)
        for base in node.bases
    }
    assert "asyncio.BufferedProtocol" in bases


def test_a_compaction_stays_on_bytes() -> None:
    """A compaction is a pass over bytes the live index already holds: a
    list's kept runs of rows are spliced as they were stored
    (CodingScheme.cut re-encodes only the row count and the gap after a
    cut) and the delta's trees are data-file records, so neither posting
    columns, nor node trees, nor a body of ints come back on the write
    path.  Turning rows of ints into a stored list is the tests' reference
    writer (tests/coding/recordkit.py::encode_body), not src/'s."""
    assert matches(r"without_tids|encode_postings|from_postings|Corpus", "src/repro/live") == []
    assert matches(r"def encode_body|delta_gaps", "src", glob="*.py") == []
    cut = _def("src/repro/coding/base.py", "cut", within="CodingScheme")
    writers = ("encode_varint_list", "encode_body", "row_tail")
    assert [ast.unparse(call) for name in writers for call in _calls(cut, name)] == []


def test_a_list_is_built_in_its_stored_form() -> None:
    """A key's list is built in the form the B+Tree stores it
    (core/index.py::accumulate_posting_lists hands each row to
    coding/base.py::StoredList.append, which writes it as varints, its
    tid a gap): no build holds a list as ints and encodes it after."""
    assert matches(r"encode_body\(", "src/repro/core/index.py") == []


def test_a_lists_bytes_have_one_home() -> None:
    """A posting list's stored form -- the row count, then varint rows, each
    tid a gap -- is written, cut and read in coding/base.py only: the
    build and the live delta hand it rows and read it through it, and a
    compaction asks its one encoded_lists for a source's lists."""
    assert matches(
        r"storage\.codec|decode_varint|encode_varint", "src/repro/live", "src/repro/core/index.py", glob="*.py"
    ) == []
    defs = [
        f"{path}:{node.lineno}"
        for path, tree in _modules("src", "encoded_lists")
        for node in ast.walk(tree)
        if isinstance(node, _FUNCTIONS) and node.name == "encoded_lists"
    ]
    assert len(defs) == 1, defs


def test_one_segment_writer() -> None:
    """Every index and data file a manifest names is written by one writer
    (repro.core.segments.write_segment, which fsyncs both) and published
    by one commit (Manifest.commit): the live index and the shard builder
    neither write segment files nor swap manifests themselves."""
    assert matches(
        r"write_posting_lists\(|append_record\(|TreeStore\.build\(|save_atomic\(",
        "src/repro/live", "src/repro/shard",
    ) == []
    assert matches(r"def (_write_segment|_copy_records|_surviving_lists|_build_shard_trees)\b", "src") == []


def _not_keyed_by_part(path: str) -> List[str]:
    """The cache reads and writes (``get_tagged``, ``put`` or ``peek`` of a
    tuple) and fetch-memo entries in *path* whose key does not end in ``part.key``."""
    keys = []
    for node in ast.walk(_module(path)):
        if isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Tuple) \
                and ast.unparse(node.func).rpartition(".")[2] in ("get_tagged", "put", "peek"):
            keys.append((node, node.args[0]))
        elif isinstance(node, ast.Subscript) and ast.unparse(node.value) == "memo":
            keys.append((node, node.slice))
    return _where(path, [
        node for node, key in keys
        if not (isinstance(key, ast.Tuple) and key.elts and ast.unparse(key.elts[-1]) == "part.key")
    ])


def test_one_result_path() -> None:
    """A query is answered per part of the index (a frozen set is one; a
    live index has one per segment and one for its delta), each part's
    result and lists cached under the part's tag: the service never asks
    what kind of index it serves, and no merged level or version sweep
    comes back.  A compaction never sweeps the cache, and a cache entry
    is keyed by its part's stable key -- a live part's lineage, which a
    compaction's flush or rewrite keeps -- never by the part's position,
    which a compaction moves.  Only an add moves a tag: a removal is cut
    from what is served, so no tag is a tombstone count."""
    segments = "src/repro/core/segments.py"
    assert matches(r"flavor ==|isinstance\([^)]*LiveIndex|from repro\.live", "src/repro/service") == []
    assert matches(r"_merged_keys|_seen_version", "src") == []
    assert matches(r"_clear_postings_cache", "src/repro/live") == []
    assert _not_keyed_by_part(segments) + _not_keyed_by_part("src/repro/service/service.py") == []
    tags = [
        node for node in ast.walk(_module(segments))
        if (isinstance(node, ast.Call) and ast.unparse(node.func) == "Part")
        or (isinstance(node, ast.Assign) and any(ast.unparse(t).endswith("tag") for t in node.targets))
    ]
    counted = [
        node for node in tags
        if any(re.fullmatch(r"[\w.]*dead", ast.unparse(call.args[0])) for call in _calls(node, "len") if call.args)
    ]
    assert _where(segments, counted) == []
    assert any(ast.unparse(node.args[0]) == "lineage.key" for node in tags if isinstance(node, ast.Call) and node.args)


def test_a_service_owns_its_caches() -> None:
    """A query service owns its caches -- prepared queries, posting lists
    and results, each one plain locked LRU map -- and reads both the
    posting and the result cache through one cut-on-read path: the index
    keeps no cache and offers none to attach, so two services over one
    index share nothing, and no lock-striped cache comes back."""
    assert matches(
        r"attach_postings_cache|ValueCache|postings_cache", "src/repro/core", "src/repro/storage", "src/repro/live"
    ) == []
    assert matches(r"StripedLRUCache|stripes", "src") == []


def test_an_add_builds_no_node_tree() -> None:
    """A live add reads its Penn text once (trees.penn.scan_penn gives the
    record it logs and the numbering it indexes): no node tree is parsed,
    rendered back and walked again, and the Penn reader has one tokenizer
    -- one whitespace split around the brackets."""
    penn = "src/repro/trees/penn.py"
    assert matches(r"parse_penn|ParseTree\(", "src/repro/live/live.py") == []
    assert matches(r"_tokenize|isspace", penn) == []
    splits = [call for call in _calls(_module(penn), "split") if not call.args and not call.keywords]
    assert len(splits) == 1, _where(penn, splits)


def test_one_query_tokenizer() -> None:
    """A query string is read with one split over its separators (brackets,
    axes, whitespace runs), each error position counted from the pieces'
    lengths, and a query that is one key is composed over its nodes
    before the packing pass (_scan), which it never reaches."""
    parser = "src/repro/query/parser.py"
    assert matches(r"finditer", parser) == []
    splits = _calls(_module(parser), "split")
    assert len(splits) == 1, _where(parser, splits)
    body = _def("src/repro/query/decompose.py", "compile_query").body
    one_key = _first(body, "_one_key")
    assert one_key < _first(body, "_scan")
    assert isinstance(body[one_key], ast.If) and isinstance(body[one_key].body[-1], ast.Return)


def test_a_query_is_arrays() -> None:
    """A query is its pre-order arrays (label, parent, axis, canonical text
    by node id): the compiler reads those and never walks a query node, so
    a point query builds no QueryNode (tests/exec/test_point_query_nodes.py
    holds the executor to that)."""
    compiler = "src/repro/query/decompose.py"
    walked = [
        node for node in ast.walk(_module(compiler))
        if isinstance(node, ast.Attribute) and node.attr in ("children", "child_axes", "parent", "node_id")
    ]
    assert _where(compiler, walked) == []


def test_a_tree_is_written_once() -> None:
    """A B+Tree file is written once (bulk_load into a new file, then only
    BPlusTree.overwrite of a same-length value): a tree opened from an
    existing file is read-only, so no reader writes a byte of it, and
    the insert path and what only it served stay deleted."""
    assert matches(r"def insert\b|_insert_into_parent", "src/repro/storage/bptree.py") == []
    assert matches(r'"r\+b"', "src/repro/storage/pager.py") == []
    assert matches(r"TGrepScanner|ablation_storage", "src") == []


def _plans(node: ast.AST) -> bool:
    """Whether *node* works a plan out: a node's offset, a slot's width, the
    twin pairs, or a query node's label or children."""
    if isinstance(node, ast.Subscript):
        return ast.unparse(node.value) == "offsets"
    if isinstance(node, ast.BinOp):
        return (isinstance(node.op, ast.Add) and ast.unparse(node.left).endswith("width")) or (
            isinstance(node.op, ast.Mult) and ast.unparse(node.left) == "3"
        )
    if isinstance(node, ast.AugAssign):
        return isinstance(node.op, ast.Add) and ast.unparse(node.target).endswith("width")
    if isinstance(node, ast.Attribute):
        return node.attr in ("combinations", "label", "children")
    if isinstance(node, ast.Name):
        return node.id == "combinations"
    return isinstance(node, ast.alias) and node.name.rpartition(".")[2] == "combinations"


def test_a_plan_is_planned_once() -> None:
    """A plan is a function of the cover and the join order: its offsets,
    the slots it reads and the twin pairs it keeps apart are worked out
    in the cached plan_skeleton only, and a query binds its columns to
    that.  The service joins in the order its prepared query's first
    join chose, from the lists it read, so a live index's writes re-plan
    nothing."""
    plan = "src/repro/exec/plan.py"
    planned = [node for node in _outside(_module(plan), _def(plan, "plan_skeleton")) if _plans(node)]
    assert _where(plan, planned) == []
    orders = {
        ast.unparse(keyword.value)
        for node in ast.walk(_module("src/repro/service/service.py"))
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg == "order"
    }
    assert "prepared.order" in orders


def test_prepare_reads_no_index() -> None:
    """Preparing a query reads nothing from the index: the join order comes
    from the lists the first join fetches, so no stored count is read
    and the B+Tree has no read of part of a value."""
    bptree = "src/repro/storage/bptree.py"
    assert matches(r"posting_list_length", "src") == []
    assert matches(r"def peek\b", bptree) == []
    limited = [
        f"{node.name}({arg.arg})"
        for node in ast.walk(_module(bptree))
        if isinstance(node, _FUNCTIONS) and node.name in ("_get_from_tree", "_load_value")
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        if "limit" in arg.arg
    ]
    assert limited == []


def test_a_point_query_builds_no_plan_objects() -> None:
    """A point query pays for its lookup: the counters, the result and the
    cover are slotted dataclasses, and a one-key structural cover is
    answered from its postings once, before the join dispatches on the
    coding."""
    executor = "src/repro/exec/executor.py"
    for path, name in ((executor, "ExecutionStats"), (executor, "QueryResult"), ("src/repro/query/covers.py", "Cover")):
        decorators = [ast.unparse(decorator) for decorator in _def(path, name).decorator_list]
        assert "dataclass(slots=True)" in decorators, (name, decorators)
    dispatch = _def(executor, "_dispatch_join")
    assert len(_calls(dispatch, "count_distinct_roots")) == 1
    dispatched = [
        index for index, statement in enumerate(dispatch.body)
        if isinstance(statement, ast.If) and ast.unparse(statement.test) == "filtered"
    ]
    assert len(dispatched) == 1
    assert _first(dispatch.body, "count_distinct_roots") < dispatched[0]


def test_one_query_path() -> None:
    """A query is a batch of one: ``run`` and ``run_many`` are span wrappers over
    one loop, ``_serve``, so the cached pipeline's fetch memo, spans,
    counters and timing are written once, and its one join call is where
    a test holds a query (tests/serve/chaos/conftest.py::HeldMisses)."""
    service = "src/repro/service/service.py"
    assert matches(r"def (_run_impl|_execute_uncached|_fetch_for_run|_run_many_impl)\b", service) == []
    for name in ("run", "run_many"):
        assert _calls(_def(service, name, within="QueryService"), "self._serve"), name
    assert len(_calls(_module(service), "self._execute_prepared")) == 1


def _encodes(node: ast.AST) -> List[ast.Call]:
    """The calls in *node* that encode a result: ``_json_ok``,
    ``result_to_dict``, or a ``json.dumps`` of anything but the query text."""
    return [
        call for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and (
            ast.unparse(call.func).rpartition(".")[2] in ("_json_ok", "result_to_dict")
            or (ast.unparse(call.func) == "json.dumps" and ast.unparse(call) != "json.dumps(text)")
        )
    ]


def test_a_resident_answer_is_encoded_once() -> None:
    """A resident answer is the QueryResult the result cache holds, so the
    server encodes a result's JSON once, on the result (``_encoded``), and
    splices it into each body: ``result_to_dict`` has one caller, a body is
    no ``json.dumps`` of a result dict, and a query is prepared once a
    request -- ``run`` / ``run_many`` take the handler's prepared queries."""
    server = "src/repro/serve/server.py"
    assert len(_calls(_module(server), "result_to_dict")) == 1
    assert _calls(_def(server, "_encoded"), "result_to_dict")
    for name in ("_queries_ok", "_answer_bytes"):
        assert _where(server, _encodes(_def(server, name))) == []
    handed = _neighbours(_def(server, "_handle_queries"))
    assert ("service.run_many", "prepared") in handed
    assert ("service.run", "prepared[0]") in handed
    assert [
        pair for pair in handed
        if pair[0] in ("service.run", "service.run_many") and re.match(r"texts\b", pair[1])
    ] == []


def test_one_load_client() -> None:
    """The closed and the open loop send a request, read its response and
    sort its status (200 accepted, 503 shed, the rest an error) through
    one client, repro.serve.loadgen._Client: one connection built, one
    body parsed, and no request method of a loop's own."""
    loadgen = "src/repro/serve/loadgen.py"
    for name in ("HTTPConnection", "json.loads"):
        calls = _calls(_module(loadgen), name)
        assert len(calls) == 1, _where(loadgen, calls)
    assert matches(r"def _one_request\b", loadgen) == []


def test_one_index() -> None:
    """The paper's node approach is the subtree index at mss 1 under
    root-split (one (tid, pre, post, level) row per node under its
    label), so no second index builder, executor or interval numbering
    lives beside it; and the filtering phase -- fetch each candidate
    tree, count its matches with the exact matcher -- is written once,
    exec/executor.py::filter_candidates, which the filter-based coding
    and both baselines call."""
    assert matches(r"class (NodeIntervalIndex|IntervalCode)\b|def number_tree\b", "src", glob="*.py") == []
    counted = [
        where
        for path, tree in _modules("src/repro", "count_matches")
        if path != "src/repro/trees/matching.py"
        for where in _where(path, _calls(tree, "count_matches"))
    ]
    assert len(counted) == 1, counted
    assert _calls(_def("src/repro/exec/executor.py", "filter_candidates"), "count_matches")


def test_every_answer_is_exact() -> None:
    """A same-label sibling is held with all its twins in one key or bound
    by the join, so every coding answers exactly: no cover lists the
    twins it left to chance, no oracle test expects a wrong answer, and
    no wrong answer is pinned as accepted."""
    assert matches(r"split_twins", "src") == []
    assert matches(r"xfail", "tests/exec/test_oracle_generative.py") == []
    assert not (ROOT / "tests/exec/data/small_scope_wrong.json").exists()
    assert matches(r'"wrong"', "tests/exec/data", glob="*.json") == []


def test_nothing_unreferenced() -> None:
    """Every def and class in src/ is used by src/, perfbench/, examples/ or
    benchmarks/: a name loaded, an attribute, an import or a string
    (getattr) counts -- for a def in a class body, an attribute or a
    string only; a definition, a def's mention of its own name from
    inside its own body (a recursion), a package __init__'s re-export (an
    import or an __all__ string) and the tests do not.  A decoded posting
    list is columns only -- no record view -- and the paper's tables have
    one check (benchmarks/conftest.py), not a gate."""
    assert unreferenced() == []
