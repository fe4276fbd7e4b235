"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from repro.corpus.generator import CorpusGenerator
from repro.corpus.store import Corpus
from repro.trees.node import ParseTree, build_tree
from repro.trees.penn import parse_penn


def pytest_configure(config: pytest.Config) -> None:
    """Hypothesis keeps its example database and caches in a temp dir of the
    session, not in ``.hypothesis/`` of the checkout.  (Its pytest plugin
    writes there while collecting, before any fixture could step in.)"""
    home = tempfile.mkdtemp(prefix="repro-hypothesis-")
    set_hypothesis_home_dir(home)
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))


# Tier-1 runs Hypothesis's default profile.  ``REPRO_HYPOTHESIS_PROFILE=deep``
# (a CI step over the generative oracles) gives every property ten times its
# examples; a property that sets its own count scales it with
# ``tests/exec/test_oracle_generative.py::_examples``.
settings.register_profile("deep", max_examples=10 * settings.get_profile("default").max_examples)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def small_corpus() -> Corpus:
    """A deterministic 120-sentence synthetic corpus shared across tests."""
    generator = CorpusGenerator(seed=7)
    return Corpus(generator.generate(120))


@pytest.fixture(scope="session")
def tiny_corpus() -> Corpus:
    """A deterministic 25-sentence corpus for the more expensive integration tests."""
    generator = CorpusGenerator(seed=11)
    return Corpus(generator.generate(25))


@pytest.fixture()
def paper_tree() -> ParseTree:
    """The matching sentence of Figure 1(b) of the paper."""
    text = (
        "(ROOT (S (NP (DT The) (NNS agouti)) "
        "(VP (VBZ is) (NP (DT a) (JJ short-tailed) (, ,) (JJ plant-eating) (NN rodent)))))"
    )
    return ParseTree(parse_penn(text), tid=0)


@pytest.fixture()
def figure4_tree() -> ParseTree:
    """A small abstract tree in the spirit of Figure 4(a): A(B)(C(A(C)(D)))."""
    root = build_tree(("A", [("B", []), ("C", [("A", [("C", []), ("D", [])])])]))
    return ParseTree(root, tid=0)
