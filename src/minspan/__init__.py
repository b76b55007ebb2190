"""Minimal-interval semantics: interval antichains, their lattice, and search.

The answer to a structured query inside a document is the antichain of
inclusion-minimal text regions witnessing it. This package provides the
value types and every operator of that lattice in closed form, exhaustive
enumeration of the finite lattices, brute-force oracles for verification,
and a small retrieval engine (positional index, query language, snippets,
scoring) built on top.
"""

from .antichain import BOTTOM, TOP, Antichain, CriticalSet, GeneralAntichain
from .engine import SearchResult, evaluate, format_score, score, search, snippets
from .enumeration import LevelProfile, cardinality, enumerate_lattice, level_profile, width
from .indexing import PositionalIndex, build_index, tokenize
from .intervals import EMPTY, FULL, UNBOUNDED, ExtendedInterval, Interval, Universe
from .operators import (
    Containment,
    StrictContainment,
    block,
    filter_containment,
    intersection,
    join,
    leq,
    meet,
    ordered_meet,
    pseudo_difference,
    rank,
    strict_containment,
    symmetric_difference,
    within,
)
from .queries import QuerySyntaxError, parse_query
from .representation import (
    bracket,
    coatom,
    complement_singletons,
    critical_intervals,
    meet_of_irreducibles,
    relative_pseudo_complement,
)

__all__ = [
    "Antichain",
    "BOTTOM",
    "TOP",
    "GeneralAntichain",
    "CriticalSet",
    "Interval",
    "ExtendedInterval",
    "Universe",
    "UNBOUNDED",
    "EMPTY",
    "FULL",
    "leq",
    "join",
    "meet",
    "pseudo_difference",
    "symmetric_difference",
    "intersection",
    "Containment",
    "StrictContainment",
    "filter_containment",
    "strict_containment",
    "ordered_meet",
    "block",
    "within",
    "rank",
    "complement_singletons",
    "bracket",
    "coatom",
    "critical_intervals",
    "meet_of_irreducibles",
    "relative_pseudo_complement",
    "enumerate_lattice",
    "cardinality",
    "LevelProfile",
    "level_profile",
    "width",
    "tokenize",
    "build_index",
    "PositionalIndex",
    "parse_query",
    "QuerySyntaxError",
    "evaluate",
    "snippets",
    "score",
    "format_score",
    "search",
    "SearchResult",
]

__version__ = "0.1.0"
