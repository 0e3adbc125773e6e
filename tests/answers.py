"""Answer digests: one SHA-256 per coverage group of the library's answers.

    python3 tests/answers.py                  # print every digest as JSON
    python3 tests/answers.py --check          # compare with tests/answers.json
    python3 tests/answers.py --slice small --check

Run it from the root of a source checkout; it imports cayleysg from ./src.
A change that keeps every answer keeps every digest, so --check (exit 0
when all digests match, 1 otherwise) is the gate for changes that should
not move an answer.  A digest key is "<slice>/<group>":

- slice "small" is every labeled table of order 1-3 (122 tables); slice
  "large" is the 126 order-4 classes up to isomorphism and
  anti-isomorphism, left_zero(2) x right_zero(3), symmetric_group(3) and
  the 13 direct products of the benchmark's closed-wide workload; slice
  "groups" is the groups of order 2-4 and symmetric_group(3);
- group "enumerate" is enumerate_semigroup at budgets n and 50,
  "enumerate_10000" at budget 10 000 (most of the run time),
  "state_cap_60" at the default budget with state_cap=60 (order <= 4
  only), "count_distinct_words" is L = 1-4, "free_pair_check" is every
  ordered pair of elements (small only), "classify" is the JSON of
  classify, "green" the R, L, H and D class ids and the minimal ideal, and
  "canonical_form" the forms up to isomorphism and up to isomorphism and
  anti-isomorphism (SizeCapError above order 6), and "canonicalize" the
  serialized canonicalize of every word of length 1-3 over a table of order
  <= 6 and of every one-letter word over a wider one (large only), and
  "canonicalize_long" (groups only) the serialized canonicalize of one
  seeded word of each length 4-8 whose closure, all |S|**length residual
  words, is within the default closure cap.

An exception is an answer too and is recorded by its type name.  The
tier-1 suite checks the small slice without enumerate_10000, the groups
slice, and the enumerate, green and count_distinct_words groups of the
large slice.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cayleysg as c  # noqa: E402

DIGEST_FILE = HERE / "answers.json"

# Indices into the finite (H-trivial) order-4 classes, in corpus order, of
# the factors of the closed-wide products (orders 16 and 64).
CLOSED_WIDE_FACTORS = (
    (68, 77), (6, 35), (39, 18), (27, 59),
    (17, 71, 5), (24, 32, 58), (9, 26, 88), (4, 10, 14),
    (33, 66, 22), (76, 36, 0), (31, 38, 44), (19, 29, 66),
    (40, 54, 53),
)


def small_tables():
    return [
        S
        for n in (1, 2, 3)
        for S in c.generate_tables(c.CorpusSpec(n, "labeled"))
    ]


def large_tables():
    classes = list(c.generate_tables(c.CorpusSpec(4, "up_to_iso_anti")))
    finite = [S for S in classes if c.is_h_trivial(S)]
    products = [
        functools.reduce(c.direct_product, [finite[i] for i in index])
        for index in CLOSED_WIDE_FACTORS
    ]
    extra = [
        c.direct_product(c.left_zero(2), c.right_zero(3)),
        c.symmetric_group(3),
    ]
    return classes + extra + products


def group_tables():
    return [
        c.cyclic_group(2),
        c.cyclic_group(3),
        c.cyclic_group(4),
        c.direct_product(c.cyclic_group(2), c.cyclic_group(2)),
        c.symmetric_group(3),
    ]


def _attempt(call):
    try:
        return call()
    except ValueError as err:
        return "raises %s" % type(err).__name__


def _enumeration(S, *args, **kwargs):
    result = _attempt(lambda: c.enumerate_semigroup(S, *args, **kwargs))
    if isinstance(result, c.Closed):
        elements = [e.serialize().decode("ascii") for e in result.elements]
        return ["Closed", elements, result.cayley, result.generator_map]
    if isinstance(result, c.Exceeded):
        return ["Exceeded", result.count_reached, result.capped]
    return result


def _enumerate(S):
    return [_enumeration(S, budget) for budget in (S.order, 50)]


def _enumerate_10000(S):
    return _enumeration(S, 10_000)


def _state_cap_60(S):
    if S.order > 4:
        return None
    return _enumeration(S, state_cap=60)


def _count_distinct_words(S):
    return [_attempt(lambda: c.count_distinct_words(S, L)) for L in (1, 2, 3, 4)]


def _free_pair_check(S):
    n = S.order
    return [
        _attempt(lambda: c.free_pair_check(S, u, v))
        for u in range(n)
        for v in range(n)
    ]


def _classify(S):
    return c.report_to_json(c.classify(S))


def _green(S):
    g = c.green_relations(S)
    return [g.r_class, g.l_class, g.h_class, g.d_class, g.minimal_ideal]


def _canonical_form(S):
    return [
        _attempt(lambda: c.canonical_form(S, mode).decode("ascii"))
        for mode in ("up_to_iso", "up_to_iso_anti")
    ]


def _canonicalize(S):
    n = S.order
    longest = 3 if n <= 6 else 1
    words = itertools.chain.from_iterable(
        itertools.product(range(n), repeat=k) for k in range(1, longest + 1)
    )
    return [
        _attempt(lambda: c.canonicalize(S, word).serialize().decode("ascii"))
        for word in words
    ]


def _canonicalize_long(S):
    n = S.order
    rng = random.Random(n)
    words = [
        tuple(rng.randrange(n) for _ in range(length))
        for length in range(4, 9)
        if n**length <= c.engine.CLOSURE_CAP
    ]
    return [c.canonicalize(S, word).serialize().decode("ascii") for word in words]


GROUPS = {
    "enumerate": _enumerate,
    "enumerate_10000": _enumerate_10000,
    "state_cap_60": _state_cap_60,
    "count_distinct_words": _count_distinct_words,
    "free_pair_check": _free_pair_check,
    "classify": _classify,
    "green": _green,
    "canonical_form": _canonical_form,
    "canonicalize": _canonicalize,
    "canonicalize_long": _canonicalize_long,
}
SLICES = {"small": small_tables, "large": large_tables, "groups": group_tables}
# Groups each slice leaves out; the groups slice runs canonicalize_long only.
SKIPPED = {
    "small": ("canonicalize", "canonicalize_long"),
    "large": ("free_pair_check", "canonicalize_long"),
    "groups": tuple(group for group in GROUPS if group != "canonicalize_long"),
}


def digest(tables, answer) -> str:
    """SHA-256 over one line per table: its dump line and its answer."""
    h = hashlib.sha256()
    for S in tables:
        line = json.dumps([c.dump_line(S), answer(S)], sort_keys=True)
        h.update(line.encode("ascii") + b"\n")
    return h.hexdigest()


def digests(slices=tuple(SLICES), skip=()) -> dict:
    out = {}
    for name in slices:
        tables = SLICES[name]()
        for group, answer in GROUPS.items():
            if group not in SKIPPED[name] and group not in skip:
                out["%s/%s" % (name, group)] = digest(tables, answer)
    return out


def mismatches(computed: dict) -> list:
    """The keys of computed whose digest differs from the frozen one."""
    frozen = json.loads(DIGEST_FILE.read_text(encoding="utf-8"))
    return [key for key, value in computed.items() if frozen.get(key) != value]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="answer digests of cayleysg")
    parser.add_argument("--slice", choices=tuple(SLICES), action="append")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    computed = digests(args.slice or tuple(SLICES))
    print(json.dumps(computed, indent=1, sort_keys=True))
    if not args.check:
        return 0
    wrong = mismatches(computed)
    for key in wrong:
        print("digest of %s differs from %s" % (key, DIGEST_FILE.name), file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
