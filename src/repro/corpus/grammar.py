"""A probabilistic grammar for generating English-like constituency trees.

The grammar is a hand-crafted PCFG over Penn Treebank tags.  It is *not*
intended to produce grammatical English; it is tuned so that sampled trees
reproduce the shape statistics the paper relies on:

* small average branching factor for internal nodes (paper reports ~1.52),
* very few nodes with branching factor larger than 10,
* a bounded constituent-label alphabet with a Zipfian lexical vocabulary, and
* sentence parse trees of a few dozen nodes.

Determinism: all sampling goes through a :class:`random.Random` instance
supplied by the caller, so corpora are reproducible from a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: Constituent (phrase-level) tags used by the default grammar.
PHRASE_TAGS = ["S", "NP", "VP", "PP", "SBAR", "ADJP", "ADVP", "QP", "WHNP", "PRN"]

#: Part-of-speech (pre-terminal) tags used by the default grammar.
POS_TAGS = [
    "DT", "NN", "NNS", "NNP", "JJ", "JJR", "VBZ", "VBD", "VB", "VBN", "VBG",
    "IN", "RB", "CC", "PRP", "PRP$", "TO", "MD", "CD", "WDT", "WP", "WRB", ",", ".",
]


@dataclass(frozen=True)
class Production:
    """A single weighted production ``lhs -> rhs``.

    ``rhs`` symbols are either phrase tags (expanded recursively) or POS tags
    (expanded into a single lexical leaf by the vocabulary).
    """

    lhs: str
    rhs: Tuple[str, ...]
    weight: float


class Vocabulary:
    """A Zipf-distributed lexical vocabulary, one word list per POS tag.

    Words are synthetic (``nn_0017``-style) but their frequency distribution
    follows a Zipf law with the given exponent, mirroring natural-language
    token statistics -- which is what matters for index-key and posting-list
    size behaviour.
    """

    def __init__(self, sizes: Dict[str, int] | None = None, zipf_exponent: float = 1.1):
        self.zipf_exponent = zipf_exponent
        self.sizes = dict(sizes) if sizes else self._default_sizes()
        self._words: Dict[str, List[str]] = {}
        self._cumulative: Dict[str, List[float]] = {}
        for tag, size in self.sizes.items():
            prefix = tag.lower().replace("$", "s").replace(",", "comma").replace(".", "period")
            words = [f"{prefix}_{index:04d}" for index in range(size)]
            weights = [1.0 / (rank + 1) ** zipf_exponent for rank in range(size)]
            total = sum(weights)
            cumulative: List[float] = []
            acc = 0.0
            for weight in weights:
                acc += weight / total
                cumulative.append(acc)
            self._words[tag] = words
            self._cumulative[tag] = cumulative

    @staticmethod
    def _default_sizes() -> Dict[str, int]:
        sizes = {
            "NN": 2500, "NNS": 1200, "NNP": 1800, "JJ": 900, "JJR": 120,
            "VBZ": 350, "VBD": 500, "VB": 450, "VBN": 350, "VBG": 300,
            "RB": 300, "IN": 60, "DT": 12, "CC": 8, "PRP": 12, "PRP$": 8,
            "TO": 1, "MD": 10, "CD": 400, "WDT": 4, "WP": 5, "WRB": 5,
            ",": 1, ".": 2,
        }
        return sizes

    def sample(self, tag: str, rng: random.Random) -> str:
        """Sample a word for *tag* according to the Zipf distribution."""
        if tag not in self._words:
            return tag.lower()
        point = rng.random()
        cumulative = self._cumulative[tag]
        lo, hi = 0, len(cumulative) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cumulative[mid] < point:
                lo = mid + 1
            else:
                hi = mid
        return self._words[tag][lo]


class Grammar:
    """A weighted context-free grammar with depth-aware expansion.

    To keep sampled trees finite and realistically sized, recursive phrase
    expansions are damped: beyond ``soft_depth`` the sampler prefers the
    shortest / least recursive productions for a symbol.
    """

    def __init__(
        self,
        productions: Sequence[Production],
        vocabulary: Vocabulary,
        start_symbol: str = "S",
        soft_depth: int = 6,
        hard_depth: int = 12,
    ):
        self.start_symbol = start_symbol
        self.vocabulary = vocabulary
        self.soft_depth = soft_depth
        self.hard_depth = hard_depth
        self._by_lhs: Dict[str, List[Production]] = {}
        for production in productions:
            self._by_lhs.setdefault(production.lhs, []).append(production)
        if start_symbol not in self._by_lhs:
            raise ValueError(f"start symbol {start_symbol!r} has no productions")

    # ------------------------------------------------------------------

    def is_phrase(self, symbol: str) -> bool:
        """``True`` when *symbol* is expanded recursively (has productions)."""
        return symbol in self._by_lhs

    # ------------------------------------------------------------------
    def _recursiveness(self, production: Production) -> int:
        """Number of phrase symbols on the right-hand side (recursion proxy)."""
        return sum(1 for symbol in production.rhs if self.is_phrase(symbol))

    def choose(self, symbol: str, depth: int, rng: random.Random) -> Production:
        """Pick a production for *symbol* respecting the depth damping."""
        options = self._by_lhs[symbol]
        if depth >= self.hard_depth:
            # Force the least recursive expansion available.
            return min(options, key=self._recursiveness)
        if depth >= self.soft_depth:
            # Exponentially damp recursive productions beyond the soft depth.
            damping = 0.5 ** (depth - self.soft_depth + 1)
            weights = [
                production.weight * (damping ** self._recursiveness(production))
                for production in options
            ]
        else:
            weights = [production.weight for production in options]
        total = sum(weights)
        point = rng.random() * total
        acc = 0.0
        for production, weight in zip(options, weights):
            acc += weight
            if point <= acc:
                return production
        return options[-1]


def default_grammar(vocabulary: Vocabulary | None = None) -> Grammar:
    """Build the default English-like grammar used by the experiments.

    The production inventory and weights are chosen so that the average
    internal branching factor of sampled trees is close to 1.5 and sentences
    have roughly 8--25 tokens (30--80 tree nodes), matching news text parses.
    """
    productions = [
        # Sentences -----------------------------------------------------
        Production("S", ("NP", "VP"), 0.58),
        Production("S", ("NP", "VP", "."), 0.20),
        Production("S", ("PP", ",", "NP", "VP"), 0.05),
        Production("S", ("ADVP", ",", "NP", "VP"), 0.03),
        Production("S", ("S", "CC", "S"), 0.04),
        Production("S", ("VP",), 0.05),
        Production("S", ("NP", "VP", "PP"), 0.05),
        # Noun phrases --------------------------------------------------
        Production("NP", ("DT", "NN"), 0.22),
        Production("NP", ("DT", "JJ", "NN"), 0.12),
        Production("NP", ("NN",), 0.08),
        Production("NP", ("NNS",), 0.07),
        Production("NP", ("NNP",), 0.10),
        Production("NP", ("NNP", "NNP"), 0.06),
        Production("NP", ("PRP",), 0.06),
        Production("NP", ("DT", "NNS"), 0.05),
        Production("NP", ("NP", "PP"), 0.09),
        Production("NP", ("NP", "SBAR"), 0.03),
        Production("NP", ("NP", ",", "NP", ","), 0.02),
        Production("NP", ("JJ", "NNS"), 0.04),
        Production("NP", ("DT", "JJ", "JJ", "NN"), 0.02),
        Production("NP", ("PRP$", "NN"), 0.03),
        Production("NP", ("QP", "NNS"), 0.02),
        Production("NP", ("NP", "CC", "NP"), 0.03),
        Production("NP", ("DT", "NN", "NN"), 0.03),
        # Verb phrases --------------------------------------------------
        Production("VP", ("VBZ", "NP"), 0.16),
        Production("VP", ("VBD", "NP"), 0.16),
        Production("VP", ("VBZ", "ADJP"), 0.04),
        Production("VP", ("VB", "NP"), 0.07),
        Production("VP", ("MD", "VP"), 0.06),
        Production("VP", ("VBD", "SBAR"), 0.04),
        Production("VP", ("VBZ", "SBAR"), 0.03),
        Production("VP", ("VBD", "NP", "PP"), 0.08),
        Production("VP", ("VBZ", "NP", "PP"), 0.07),
        Production("VP", ("VBN", "PP"), 0.05),
        Production("VP", ("VBG", "NP"), 0.04),
        Production("VP", ("VBD",), 0.03),
        Production("VP", ("VBZ",), 0.02),
        Production("VP", ("VP", "CC", "VP"), 0.03),
        Production("VP", ("TO", "VP"), 0.04),
        Production("VP", ("VB", "PP"), 0.03),
        Production("VP", ("VBD", "ADVP"), 0.03),
        Production("VP", ("VBZ", "VP"), 0.02),
        # Prepositional / adjectival / adverbial phrases ------------------
        Production("PP", ("IN", "NP"), 0.92),
        Production("PP", ("TO", "NP"), 0.08),
        Production("ADJP", ("JJ",), 0.55),
        Production("ADJP", ("RB", "JJ"), 0.25),
        Production("ADJP", ("JJ", "PP"), 0.20),
        Production("ADVP", ("RB",), 0.80),
        Production("ADVP", ("RB", "RB"), 0.20),
        Production("QP", ("CD",), 0.55),
        Production("QP", ("CD", "CD"), 0.20),
        Production("QP", ("RB", "CD"), 0.25),
        # Subordinate clauses and wh-phrases -------------------------------
        Production("SBAR", ("IN", "S"), 0.50),
        Production("SBAR", ("WHNP", "S"), 0.50),
        Production("WHNP", ("WDT",), 0.45),
        Production("WHNP", ("WP",), 0.45),
        Production("WHNP", ("WRB",), 0.10),
        Production("PRN", (",", "NP", ","), 1.00),
    ]
    return Grammar(productions, vocabulary or Vocabulary())
