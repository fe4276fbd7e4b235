"""Sampling syntactically annotated trees from a probabilistic grammar.

The generator plays the role of "AQUAINT parsed with the Stanford parser" in
this reproduction: it produces constituency trees with Penn Treebank tags
whose shape statistics match parsed English news closely enough that the
index-size and query-time experiments have the same shape as the paper's.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

from repro.corpus.grammar import Grammar, default_grammar
from repro.trees.node import Node, ParseTree


class CorpusGenerator:
    """Deterministic generator of parse trees.

    Parameters
    ----------
    grammar:
        The grammar to sample from; defaults to :func:`default_grammar`.
    seed:
        Seed of the private random generator.  Two generators built with the
        same grammar and seed produce identical corpora.
    wrap_root:
        When ``True`` (default) every sentence tree is wrapped in a ``ROOT``
        node, mirroring the Stanford parser output shown in Figure 1 of the
        paper.
    min_tokens / max_tokens:
        Rejection-sampling bounds on the sentence length, used to avoid
        degenerate one-word "sentences" and pathologically long ones.
    """

    def __init__(
        self,
        grammar: Optional[Grammar] = None,
        seed: int = 0,
        wrap_root: bool = True,
        min_tokens: int = 4,
        max_tokens: int = 45,
    ):
        self.grammar = grammar or default_grammar()
        self.rng = random.Random(seed)
        self.wrap_root = wrap_root
        self.min_tokens = min_tokens
        self.max_tokens = max_tokens

    # ------------------------------------------------------------------
    def _expand(self, symbol: str, depth: int) -> Node:
        """Recursively expand *symbol* into a tree node."""
        if not self.grammar.is_phrase(symbol):
            # Pre-terminal: attach a sampled lexical leaf.
            word = self.grammar.vocabulary.sample(symbol, self.rng)
            return Node(symbol, [Node(word)])
        production = self.grammar.choose(symbol, depth, self.rng)
        children = [self._expand(child, depth + 1) for child in production.rhs]
        return Node(symbol, children)

    def generate_tree(self, tid: int = -1) -> ParseTree:
        """Sample one parse tree (rejection-sampled to the token bounds)."""
        for _ in range(64):
            root = self._expand(self.grammar.start_symbol, 0)
            token_count = sum(1 for _ in root.leaves())
            if self.min_tokens <= token_count <= self.max_tokens:
                break
        if self.wrap_root:
            root = Node("ROOT", [root])
        return ParseTree(root, tid=tid)

    def generate(self, count: int, start_tid: int = 0) -> Iterator[ParseTree]:
        """Yield *count* parse trees with sequential tree identifiers."""
        for offset in range(count):
            yield self.generate_tree(tid=start_tid + offset)

    def generate_list(self, count: int, start_tid: int = 0) -> List[ParseTree]:
        """Materialise :meth:`generate` into a list."""
        return list(self.generate(count, start_tid=start_tid))
