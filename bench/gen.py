"""Seeded input generators for the benchmark.

Every generator takes the workload seed and derives its own
``random.Random`` from a string key, so the same seed gives the same
inputs byte for byte on any host and Python version, and two generators
never share a stream. The program under test only ever receives what these
functions return.
"""

from __future__ import annotations

import itertools
import random
from array import array
from typing import Iterable, Iterator

VOCAB = 5000
ZIPF_EXPONENT = 1.1
BROAD_RANKS = 50  # broad queries draw every operand from ranks below this
RARE_RANK = 1000  # selective queries require one operand at or above this rank
MALFORMED_SHARE = 0.05


def word(rank: int) -> str:
    return f"w{rank}"


def zipf_corpus(seed: int, docs: int = 300, min_len: int = 200, max_len: int = 2000) -> list[tuple[str, str]]:
    """``docs`` documents of ``min_len``..``max_len`` Zipf-distributed tokens.

    Returns (doc id, text) pairs; the text has twelve words to a line.
    """
    rng = random.Random(f"corpus:{seed}")
    weights = list(itertools.accumulate((r + 1) ** -ZIPF_EXPONENT for r in range(VOCAB)))
    words = [word(r) for r in range(VOCAB)]
    corpus = []
    for d in range(docs):
        tokens = rng.choices(words, cum_weights=weights, k=rng.randint(min_len, max_len))
        lines = (" ".join(tokens[i : i + 12]) for i in range(0, len(tokens), 12))
        corpus.append((f"d{d:04d}.txt", "\n".join(lines) + "\n"))
    return corpus


# Query templates over operand slots a, b, c and a window k. ``required``
# names the slots a document must contain for the query to match anywhere:
# either side of AND, < and ++, the left side of MINUS, WITHIN and every
# containment operator. OR requires neither side, so the bare OR template
# has no required slot and only the broad class uses it.
TEMPLATES: tuple[tuple[str, str, str], ...] = (
    ("and", "{a} AND {b}", "ab"),
    ("and_or", "{a} AND ({b} OR {c})", "a"),
    ("or", "{a} OR {b}", ""),
    ("phrase", '"{a} {b}"', "ab"),
    ("ordered", "{a} < {b}", "ab"),
    ("minus", "{a} MINUS {b}", "a"),
    ("within", "({a} AND {b}) WITHIN {k}", "ab"),
    ("containing", "({a} AND {b}) >> {c}", "ab"),
    ("not_containing", "({a} AND {b}) !>> {c}", "ab"),
    ("contained_in", "{a} << ({b} AND {c})", "a"),
    ("not_contained_in", "{a} !<< ({b} AND {c})", "a"),
    ("strictly_containing", "({a} AND {b}) >>> {c}", "ab"),
    ("not_strictly_containing", "({a} AND {b}) !>>> {c}", "ab"),
)

# Each mutation turns any well-formed query into one the parser must reject.
MUTATIONS: tuple[tuple[str, str], ...] = (
    ("dropped_paren", "({q}"),
    ("dangling_operator", "{q} AND"),
    ("empty_phrase", '{q} AND ""'),
    ("within_without_number", "({q}) WITHIN"),
)


# The most frequent operand of a query sets most of its cost, so every
# query draws it from one of these rank bands and its other common operands
# from that band's start up to BROAD_RANKS, but never from the first band:
# no query pairs two of the three most frequent terms.
BANDS = ((0, 3), (3, 10), (10, 25), (25, BROAD_RANKS))


def _deck(rng: random.Random, items: Iterable) -> Iterator:
    """Endless draws that use every item once per shuffled round.

    Drawing in rounds instead of independently keeps the mix of templates
    and term frequencies the same from seed to seed, so a run's median and
    tail move with the program, not with the terms a seed happened to pick.
    """
    items = list(items)
    while True:
        round_ = items[:]
        rng.shuffle(round_)
        yield from round_


def query_stream(seed: int, cls: str, count: int = 4000) -> list[tuple[str, str, str]]:
    """A shuffled stream of ``count`` queries of one class, 5% malformed.

    Each item is (class, template or mutation name, query text), where the
    class is ``cls`` or ``malformed``. The stream goes through every pair of
    template and rank band in shuffled rounds. That sequence, the lead term
    of each query and the slots of the lead and rare terms are the same for
    every seed, so the mix of cheap and costly queries is too. The seed
    picks the other operands, the windows, the rare terms and the malformed
    queries: one in every block of twenty, at a seeded place, is a malformed
    mutation of a query of the class.
    """
    if cls not in ("broad", "selective"):
        raise ValueError(f"unknown query class {cls!r}")
    rng = random.Random(f"queries:{cls}:{seed}")
    # the same templates, lead terms and slots for every seed
    design = random.Random(f"queries:{cls}")
    templates = [t for t in TEMPLATES if cls == "broad" or t[2]]
    cells = _deck(design, [(t, band) for t in templates for band in range(len(BANDS))])
    leads = [_deck(design, range(lo, hi)) for lo, hi in BANDS]
    others = [_deck(rng, range(max(lo, BANDS[0][1]), BROAD_RANKS)) for lo, _ in BANDS]
    rare = _deck(rng, range(RARE_RANK, VOCAB))
    mutations = _deck(rng, MUTATIONS)
    block = round(1 / MALFORMED_SHARE)
    stream = []
    for i in range(count):
        if i % block == 0:
            malformed_at = i + rng.randrange(block)
        (name, shape, required), band = next(cells)
        used = [s for s in "abc" if f"{{{s}}}" in shape]
        slots: dict[str, object] = {"k": rng.randint(5, 40)}
        if cls == "selective":
            slots[design.choice(required)] = word(next(rare))
        common = [s for s in used if s not in slots]
        lead = design.choice(common)
        slots[lead] = word(next(leads[band]))
        for slot in common:
            if slot != lead:
                term = word(next(others[band]))
                while term in slots.values():
                    term = word(next(others[band]))
                slots[slot] = term
        text = shape.format(**slots)
        if i == malformed_at:
            mutation, mutated = next(mutations)
            stream.append(("malformed", f"{mutation}:{name}", mutated.format(q=text)))
        else:
            stream.append((cls, name, text))
    return stream


Columns = tuple[array, array]  # left extremes, right extremes


def sized_intervals(rng: random.Random, size: int) -> Columns:
    """The interval lists of the acceptance suite's scaling check.

    Lefts step by 1..4 and rights by at least 1, so the list is an antichain
    in normal form with a mix of short and overlapping intervals. The two
    columns take 16 bytes an interval, so the inputs barely move the
    benchmark's peak memory; ``zip(*columns)`` gives the intervals.
    """
    lefts, rights = array("q"), array("q")
    left, right = 0, -1
    for _ in range(size):
        left += rng.randint(1, 4)
        right = max(right + 1, left + rng.randint(0, 5))
        lefts.append(left)
        rights.append(right)
    return lefts, rights


def bulk_cases(seed: int, size: int, count: int) -> list[dict[str, Columns]]:
    """``count`` operand sets of ``size`` intervals each, as columns.

    Each set has two independent antichains ``a`` and ``b``, ``refined``
    (the singleton at every left extreme of a, so a <= refined and leq scans
    to the end) and ``shifted`` (a moved one position right, so the
    pseudo-difference keeps most of a).
    """
    rng = random.Random(f"bulk:{size}:{seed}")
    cases = []
    for _ in range(count):
        a = sized_intervals(rng, size)
        b = sized_intervals(rng, size)
        cases.append(
            {
                "a": a,
                "b": b,
                "refined": (a[0], a[0]),
                "shifted": (array("q", (x + 1 for x in a[0])), array("q", (x + 1 for x in a[1]))),
            }
        )
    return cases


def shuffled_pairs(seed: int, count: int) -> list[tuple[int, int]]:
    """Every ordered pair of indices below ``count``, in a seeded order."""
    pairs = [(i, j) for i in range(count) for j in range(count)]
    random.Random(f"pairs:{seed}").shuffle(pairs)
    return pairs


def oracle_sample(seed: int, count: int, size: int) -> list[tuple[int, int]]:
    """``size`` seeded index pairs below ``count`` for the oracle cross-check."""
    rng = random.Random(f"oracle:{seed}")
    return [(rng.randrange(count), rng.randrange(count)) for _ in range(size)]
