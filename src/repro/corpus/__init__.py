"""Synthetic treebank generation and corpus storage.

The paper's evaluation uses up to one million sentences of the AQUAINT news
corpus parsed with the Stanford parser.  Neither the corpus nor the parser is
available offline, so this package provides the substitution documented in
``docs/architecture.md``: a deterministic PCFG-style generator that produces
Penn-Treebank-tagged constituency trees whose *shape statistics* (average
branching factor, branching-factor tail, label alphabet growth, tree size
distribution) track the values the paper reports for parsed English news.

Members
-------
* :mod:`repro.corpus.grammar` -- the probabilistic grammar and vocabulary.
* :mod:`repro.corpus.generator` -- sampling parse trees from the grammar.
* :mod:`repro.corpus.store` -- the in-memory corpus container and the
  flat on-disk "data file" used by the filtering phase.
"""

from repro.corpus.generator import CorpusGenerator
from repro.corpus.grammar import Grammar, Vocabulary, default_grammar
from repro.corpus.store import Corpus, TreeStore, data_file_path

__all__ = [
    "data_file_path",
    "Grammar",
    "Vocabulary",
    "default_grammar",
    "CorpusGenerator",
    "Corpus",
    "TreeStore",
]
