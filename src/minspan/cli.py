"""Command line front end: index, query, enum, check.

Exit codes: 0 success, 1 usage error, 2 runtime error. All output is
deterministic for a fixed input.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import random
import stat
import sys
from collections.abc import Callable, Iterable
from itertools import product
from pathlib import Path

from .antichain import Antichain
from .engine import format_score, search
from .enumeration import cardinality, enumerate_lattice, level_profile, width
from .indexing import PositionalIndex, _records
from .intervals import Universe
from .operators import Containment, StrictContainment, block, filter_containment, join, leq, meet, ordered_meet
from .operators import pseudo_difference, rank, within
from .oracle import oracle_bound, oracle_crit, oracle_filter, oracle_leq, oracle_rank
from .oracle import oracle_residual, oracle_spans, oracle_within
from .representation import critical_intervals, relative_pseudo_complement

# op -> whether the closed form agrees with the oracle on (a, b) over
# {0..n-1}; the ops in _PER_ELEMENT look at a alone
_CHECKS: dict[str, Callable[[Antichain, Antichain, int], bool]] = {
    "leq": lambda a, b, n: leq(a, b) == oracle_leq(a, b, n),
    "join": lambda a, b, n: join(a, b) == oracle_bound(a, b, n, "join"),
    "meet": lambda a, b, n: meet(a, b) == oracle_bound(a, b, n, "meet"),
    "minus": lambda a, b, n: pseudo_difference(a, b) == oracle_residual(a, b, n, "minus"),
    "implies": lambda a, b, n: (
        relative_pseudo_complement(a, b, Universe.bounded(n)).to_antichain()
        == oracle_residual(a, b, n, "implies")
    ),
    "crit": lambda a, _, n: critical_intervals(a, Universe.bounded(n)) == oracle_crit(a, n),
    "rank": lambda a, _, n: rank(a, n) == oracle_rank(a, n),
    "ordered_meet": lambda a, b, n: ordered_meet(a, b) == oracle_spans(a, b, "ordered"),
    "block": lambda a, b, n: block(a, b) == oracle_spans(a, b, "block"),
    **{m.value: lambda a, b, n, m=m: filter_containment(a, b, m) == oracle_filter(a, b, m)
       for m in (*Containment, *StrictContainment)},
    "within": lambda a, _, n: all(within(a, k) == oracle_within(a, k) for k in range(n + 1)),
}
_PER_ELEMENT = frozenset({"crit", "rank", "within"})
CHECK_OPS = tuple(_CHECKS)
_SAMPLE_SEED = 0x5EED


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# built once per process: building it costs about ten times what parsing does
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="minspan", description="Minimal-interval search and lattice tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="tokenize text files into a JSON-lines index")
    p_index.add_argument("paths", nargs="+", metavar="path")
    p_index.add_argument("-o", "--output", required=True)

    p_query = sub.add_parser("query", help="run a structured query against an index")
    p_query.add_argument("indexfile")
    p_query.add_argument("--q", required=True, dest="query")
    p_query.add_argument("--snippets", type=int, default=0, metavar="K")
    p_query.add_argument("--score", action="store_true")
    p_query.add_argument("--doc", default=None, metavar="ID")

    p_enum = sub.add_parser("enum", help="enumerate and analyse the lattice on n positions")
    p_enum.add_argument("--n", type=int, required=True)
    mode = p_enum.add_mutually_exclusive_group()
    mode.add_argument("--count", action="store_true")
    mode.add_argument("--levels", action="store_true")
    mode.add_argument("--width", action="store_true")
    mode.add_argument("--list", action="store_true")

    p_check = sub.add_parser("check", help="verify closed forms against the brute-force oracle")
    p_check.add_argument("--n", type=int, required=True)
    p_check.add_argument("--ops", default="all")
    p_check.add_argument("--samples", type=int, default=0,
                         help="random pair sample size (default: exhaustive)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        if args.command == "index":
            return _cmd_index(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "enum":
            return _cmd_enum(args)
        return _cmd_check(args)
    except BrokenPipeError:
        return 2
    except Exception as exc:  # noqa: BLE001 - single reporting point for runtime errors
        print(f"minspan: error: {exc}", file=sys.stderr)
        return 2


def _cmd_index(args: argparse.Namespace) -> int:
    docs = []
    for p in map(Path, args.paths):
        try:
            docs.append((p.name, p.read_text(encoding="utf-8")))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{p} is not UTF-8: {exc}") from None
    # each record straight from the tokenizer: no postings to build and invert
    _dump_whole(_records(docs), args.output)
    print(f"indexed {len(docs)} document(s) -> {args.output}")
    return 0


def _dump_whole(lines: Iterable[str], path: str) -> None:
    """Write lines to a file that takes the place of path only once they are all written.

    A new path or a regular file is written to a sibling temporary file,
    which is then renamed over it. The temporary is opened with "x", so its
    mode follows the umask as open() does, and it takes an existing file's
    mode. On any error it is removed, and path is left as it was. An
    existing path that is no regular file, such as /dev/null or a FIFO, is
    written in place.
    """
    target = os.path.realpath(path)
    try:
        mode = os.stat(target).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(target, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        return
    tmp = f"{target}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            fh.writelines(lines)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _cmd_query(args: argparse.Namespace) -> int:
    with open(args.indexfile, "rb") as fh:
        index = PositionalIndex.load_jsonl(fh)
    if args.doc is not None and args.doc not in index.docs:
        raise ValueError(f"unknown document id: {args.doc!r}")
    for r in search(index, args.query, k=args.snippets):
        if args.doc is not None and r.doc_id != args.doc:
            continue
        fields = [r.doc_id]
        if args.score:
            fields.append(format_score(r.score))
        if args.snippets:
            fields.append(" ".join(str(iv) for iv in r.snippets))
        print("\t".join(fields))
    return 0


def _cmd_enum(args: argparse.Namespace) -> int:
    n = args.n
    if args.levels:
        for r, count in enumerate(level_profile(n).counts):
            print(f"{r}:{count}")
    elif args.width:
        print(width(n))
    elif args.list:
        for a in enumerate_lattice(n):
            print(a)
    else:
        print(cardinality(n))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    n = args.n
    if n < 1:
        raise ValueError("--n must be positive")
    if args.samples < 0:
        raise ValueError("--samples must be nonnegative")
    ops = CHECK_OPS if args.ops == "all" else tuple(args.ops.split(","))
    for op in ops:
        if op not in CHECK_OPS:
            raise ValueError(f"unknown op {op!r}; choose from {', '.join(CHECK_OPS)} or all")
    elements = list(enumerate_lattice(n))
    failures = 0
    for op in ops:
        check = _CHECKS[op]
        if op in _PER_ELEMENT:
            bad = sum(not check(a, a, n) for a in elements)
            label = f"{len(elements)} elements"
        else:
            if args.samples:
                # a fresh generator for each op, so that every op checks the same pairs
                rng = random.Random(_SAMPLE_SEED)
                pairs = ((rng.choice(elements), rng.choice(elements)) for _ in range(args.samples))
            else:
                pairs = product(elements, repeat=2)
            # each pair is made as it is checked, so the pairs are never held at once
            bad = sum(not check(a, b, n) for a, b in pairs)
            label = f"{args.samples or len(elements) ** 2} pairs"
        if bad:
            failures += 1
            print(f"{op}: FAIL ({bad} mismatches over {label})")
        else:
            print(f"{op}: ok ({label})")
    if failures:
        print("MISMATCH")
        return 2
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
