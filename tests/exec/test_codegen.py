"""The generated join kernel: random shapes against a product-and-filter
reference, plans too deep for one function, and the table of compiled kernels."""

from __future__ import annotations

import json
import random
import threading
import urllib.request
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.postings import PostingColumns
from repro.core.index import SubtreeIndex
from repro.core.segments import SegmentSet
from repro.exec import QueryExecutor, build_plan, cover_relations, run_plan
from repro.exec.codegen import MAX_LOOPS, compile_kernel, kernel_source
from repro.exec.plan import JoinPlan, JoinStep, Relation
from repro.query.decompose import min_rc
from repro.query.model import has_duplicate_siblings
from repro.query.parser import parse_query
from repro.serve.server import ServerThread
from repro.service import QueryService
from repro.trees.matching import count_matches
from repro.trees.node import ParseTree, build_tree
from repro.workloads.wh import generate_wh_queries


# ----------------------------------------------------------------------
# (a) random relations x random shapes against itertools.product
# ----------------------------------------------------------------------
def _reference(shape, tids, columns) -> dict:
    """Per tree: every combination of one row per relation, filtered."""
    steps, root = shape
    starts = [sum(step[0] for step in steps[:number]) for number in range(len(steps))]
    counts = {}
    for tid in sorted(set.intersection(*(set(column) for column in tids))):
        rows = [
            [tuple(column[at] for column in columns[start:start + step[0]])
             for at, other in enumerate(tids[number]) if other == tid]
            for number, (step, start) in enumerate(zip(steps, starts))
        ]
        roots = set()
        for combination in product(*rows):
            b = sum(combination, ())
            if (
                all(b[x] == b[y] for step in steps for x, y in step[1])
                and all(
                    b[up] < b[low] and b[up + 1] > b[low + 1] and (not child or b[up + 2] + 1 == b[low + 2])
                    for step in steps for up, low, child in step[2]
                )
                and all(b[x] != b[y] for step in steps for x, y in step[3])
            ):
                roots.add(b[root])
        if roots:
            counts[tid] = len(roots)
    return counts


@st.composite
def _plans(draw) -> JoinPlan:
    """One to six relations of one to three slots, tids drawn from five
    trees, values from six, and per step any predicates over the slots bound
    by then that involve the step's own."""
    relations, steps, slots_so_far = [], [], 0
    small = st.integers(min_value=0, max_value=5)
    for number in range(draw(st.integers(min_value=1, max_value=6))):
        slots = draw(st.integers(min_value=1, max_value=3))
        tids = sorted(draw(st.lists(st.integers(min_value=0, max_value=4), max_size=7)))
        columns = [draw(st.lists(small, min_size=len(tids), max_size=len(tids))) for _ in range(3 * slots)]
        relations.append(Relation(
            PostingColumns(tids, tuple(tuple(columns[3 * s:3 * s + 3]) for s in range(slots))), {}
        ))
        own = st.sampled_from([3 * (slots_so_far + s) for s in range(slots)])
        slots_so_far += slots
        bound = st.sampled_from([3 * s for s in range(slots_so_far)])
        pairs = st.lists(st.tuples(bound, own), max_size=1)
        checks = st.lists(st.one_of(
            st.tuples(bound, own, st.booleans()), st.tuples(own, bound, st.booleans())
        ), max_size=2)
        equal, distinct = tuple(draw(pairs)), tuple(draw(pairs))
        steps.append(JoinStep(number, tuple(columns), equal, tuple(draw(checks)), distinct))
    root = draw(st.sampled_from([3 * s for s in range(slots_so_far)]))
    shape = tuple((len(step.columns), step.equal, step.checks, step.distinct) for step in steps)
    return JoinPlan(relations, list(range(len(steps))), steps, (shape, root))


@settings(max_examples=300, deadline=None)
@given(_plans())
def test_generated_kernels_equal_product_and_filter(plan: JoinPlan) -> None:
    tids = [relation.columns.tids for relation in plan.relations]
    columns = [column for step in plan.steps for column in step.columns]
    expected = _reference(plan.shape, tids, columns)
    assert run_plan(plan) == expected
    assert list(run_plan(plan)) == sorted(expected)


# ----------------------------------------------------------------------
# (b) plans of more steps than one function may nest loops
# ----------------------------------------------------------------------
CHAIN = 25
_RIGID = "A(" * (CHAIN - 1) + "A" + ")" * (CHAIN - 1)
_LOOSE = "(//".join("ABC"[at % 3] for at in range(CHAIN)) + ")" * (CHAIN - 1)


def _chain(labels: str) -> tuple:
    spec = (labels[-1], [])
    for label in reversed(labels[:-1]):
        spec = (label, [spec, ("D", [])])
    return spec


_DEEP = [
    ParseTree(build_tree(spec), tid=tid)
    for tid, spec in enumerate([
        _chain("A" * 30), _chain("ABC" * 10), _chain("A" * 24), _chain("ABC"), _chain("ABC" * 9),
    ])
]


def _oracle(text: str) -> dict:
    root = parse_query(text).root
    counts = ((tree.tid, count_matches(root, tree)) for tree in _DEEP)
    return {tid: count for tid, count in counts if count}


@pytest.fixture(scope="module")
def deep(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("deep")
    opened = {
        coding: SubtreeIndex.build(_DEEP, 1, coding, str(workdir / f"{coding}.si"))
        for coding in ("root-split", "subtree-interval")
    }
    yield opened
    for index in opened.values():
        index.close()


@pytest.mark.parametrize("text", [_RIGID, _LOOSE], ids=["child", "descendant"])
class TestChainedFunctions:
    def test_the_oracle_finds_the_chain(self, text) -> None:
        assert parse_query(text).size() == CHAIN > MAX_LOOPS
        assert _oracle(text) == ({0: 6} if text is _RIGID else {1: 2, 4: 1})

    @pytest.mark.parametrize("coding", ["root-split", "subtree-interval"])
    def test_executor_at_mss_1(self, deep, coding, text) -> None:
        """One relation per query node; root-split at mss 1 is the paper's node approach."""
        assert QueryExecutor(deep[coding]).execute(parse_query(text)).matches_per_tree == _oracle(text)

    def test_post_query(self, deep, text) -> None:
        with ServerThread(QueryService(SegmentSet.of(deep["root-split"]))) as server:
            request = urllib.request.Request(
                server.url + "/query", data=json.dumps({"query": text}).encode(),
                headers={"Content-Type": "application/json"}, method="POST",
            )
            with urllib.request.urlopen(request) as response:
                assert response.status == 200
                body = json.load(response)
        expected = {str(tid): count for tid, count in _oracle(text).items()}
        assert body["result"]["matches_per_tree"] == expected

    def test_the_source_is_chained(self, deep, text) -> None:
        query = parse_query(text)
        index = deep["root-split"]
        cover = min_rc(query, 1)
        postings = [index.lookup(subtree.key_bytes()) for subtree in cover.subtrees]
        plan = build_plan(query, cover_relations(cover, postings), cover.edges)
        assert len(plan.steps) == CHAIN
        assert f"def part{MAX_LOOPS}():" in plan.kernel_source
        assert f"{'    ' * (MAX_LOOPS + 2)}part{MAX_LOOPS}()\n" in plan.kernel_source


# ----------------------------------------------------------------------
# (c) the table of compiled kernels
# ----------------------------------------------------------------------
def _plan_of(text: str, mss: int = 2) -> JoinPlan:
    query = parse_query(text)
    cover = min_rc(query, mss)
    postings = [PostingColumns([1], (([at + 1], [9 - at], [at]),)) for at, _ in enumerate(cover.subtrees)]
    return build_plan(query, cover_relations(cover, postings), cover.edges)


def _random_shape(rng: random.Random):
    steps = []
    for number in range(rng.randint(1, 5)):
        bound = 3 * rng.randrange(number + 1)
        steps.append((
            3,
            ((bound, 3 * number),) if number and rng.random() < 0.3 else (),
            ((bound, 3 * number, rng.random() < 0.5),) if number and rng.random() < 0.8 else (),
            ((bound, 3 * number),) if number and rng.random() < 0.2 else (),
        ))
    return tuple(steps), 3 * rng.randrange(len(steps))


class TestKernelTable:
    def test_queries_of_one_shape_share_one_kernel(self) -> None:
        first, second = _plan_of("S(NP(DT))(VP(VBZ))"), _plan_of("VP(PP(IN))(NP(NN))")
        assert first.shape == second.shape
        assert compile_kernel(first.shape) is compile_kernel(second.shape)
        assert first.kernel_source == second.kernel_source
        assert _plan_of("S(NP(DT))(VP(//VBZ))").shape != first.shape

    def test_the_key_is_integers_and_the_source_holds_no_query_text(self) -> None:
        plan = _plan_of("WHNP(WDT(XYZZY))(NN(PLUGH))")

        def leaves(item):
            return [item] if not isinstance(item, tuple) else [leaf for part in item for leaf in leaves(part)]

        assert all(isinstance(leaf, int) for leaf in leaves(plan.shape))
        assert not any(label in plan.kernel_source for label in ("WHNP", "WDT", "XYZZY", "PLUGH"))

    def test_the_table_is_bounded(self) -> None:
        rng = random.Random(18)
        bound = compile_kernel.cache_info().maxsize
        assert bound is not None
        shapes = {_random_shape(rng) for _ in range(1000)}
        assert len(shapes) > bound
        for shape in shapes:
            compile_kernel(shape)
            assert compile_kernel.cache_info().currsize <= bound

    def test_threads_compiling_one_new_shape_all_get_a_working_kernel(self) -> None:
        shape = (((3, (), (), ()), (3, (), ((0, 3, True),), ()), (3, (), ((3, 6, False),), ((0, 6),))), 3)
        compile_kernel.cache_clear()
        barrier = threading.Barrier(8)
        answers = []

        def work() -> None:
            barrier.wait()
            kernel = compile_kernel(shape)
            answers.append(kernel(
                [4], [[4], [4, 4], [4, 5]], [[1], [9], [0], [2, 7], [8, 3], [1, 1], [3, 3], [7, 7], [2, 2]]
            ))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [{4: 1}] * 8


# ----------------------------------------------------------------------
# One kernel, pinned; and what sibling injectivity adds to it
# ----------------------------------------------------------------------
PINNED = '''\
def kernel(common, tids, columns):
    t0, t1, t2, = tids
    c0 = columns[0]
    c1 = columns[1]
    c2 = columns[2]
    c3 = columns[3]
    c6 = columns[6]
    c7 = columns[7]
    c8 = columns[8]
    lo0 = lo1 = lo2 = 0
    counts, roots = {}, set()
    for tid in common:
        lo0 = bisect_left(t0, tid, lo0)
        for i0 in range(lo0, bisect_right(t0, tid, lo0)):
            v0 = c0[i0]
            v1 = c1[i0]
            v2 = c2[i0]
            lo1 = bisect_left(t1, tid, lo1)
            for i1 in range(lo1, bisect_right(t1, tid, lo1)):
                v3 = c3[i1]
                if not (v0 == v3): continue
                lo2 = bisect_left(t2, tid, lo2)
                for i2 in range(lo2, bisect_right(t2, tid, lo2)):
                    v6 = c6[i2]
                    v7 = c7[i2]
                    v8 = c8[i2]
                    if not (v6 < v0 and v7 > v1 and v8 + 1 == v2): continue
                    roots.add(v6)
        if roots:
            counts[tid] = len(roots)
            roots.clear()
    return counts
'''


def test_one_kernel_pinned() -> None:
    # S(NP(DT)(NN)) at mss 2 is NP(DT), NP(NN) and S: the NP both keys root,
    # then S as its parent -- only S's level and the first NP's codes are read.
    plan = _plan_of("S(NP(DT)(NN))")
    assert [(step.equal, step.checks) for step in plan.steps] == [
        ((), ()), (((0, 3),), ()), ((), ((6, 0, True),))
    ]
    assert plan.kernel_source == PINNED == kernel_source(plan.shape)


def test_same_label_siblings_in_different_relations_must_differ() -> None:
    plan = _plan_of("NP(NN(x))(NN(y))")
    assert sum(len(step.distinct) for step in plan.steps) == 1
    assert plan.kernel_source.count(" != ") == 1
    # Inside one key the key keeps them apart: nothing is added.
    assert not any(step.distinct for step in _plan_of("S(NP(NN)(NN))(VP)", mss=3).steps)


def test_no_benchmark_template_gains_a_conjunct() -> None:
    texts = [item.text for item in generate_wh_queries() if not has_duplicate_siblings(item.query)]
    assert len(texts) == 42
    for text in texts:
        for mss in (1, 2, 3):
            plan = _plan_of(text, mss)
            assert not any(step.distinct for step in plan.steps)
            assert "!=" not in plan.kernel_source
