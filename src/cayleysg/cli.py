"""Command line interface.

Tables come from a file, from stdin ('-'), or from a built-in family via
'family:NAME' or 'family:NAME:PARAMS', e.g. family:cyclic_group:6 or
family:rectangular_band:2,3.  All indices on the command line and in the
JSON output are 1-based.

Integer options are ASCII decimal numerals, as table entries are.

Exit codes: 0 success, 2 unreadable or malformed input (a bad command line
included) or output that cannot be written (an --out path, or a stdout
whose reader has gone, for which nothing is printed, also under python -u;
a run whose code was already nonzero keeps it), 3 a well-formed table
that is not associative, 4 a verify run that found disagreements (including
a closed C(S) that is not H-trivial), 5 a run that hit a resource limit (the
work cap, the behavior graph's state cap or the section closure cap).
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from .core import (
    DEDUP_MODES,
    DEFAULT_BUDGET,
    WORK_CAP,
    ClosureCapError,
    NotAssociativeError,
    StateCapError,
    WorkCapError,
    _check_size,
    _check_words,
    named_family,
    word_total,
)
from .tableio import TableParseError, _shifted, parse_entries, parse_natural, parse_table

PARSE_ERROR = 2
OUTPUT_ERROR = 2
ASSOCIATIVITY_ERROR = 3
DISAGREEMENT = 4
RESOURCE_LIMIT = 5


def load_input(token: str):
    """A table from 'family:NAME[:P1,P2]', a path, or '-' for stdin."""
    if token.startswith("family:"):
        parts = token.split(":")
        name = parts[1]
        params = []
        if len(parts) > 2 and parts[2]:
            try:
                params = [parse_natural(p) for p in parts[2].split(",")]
            except ValueError:
                raise TableParseError("bad family parameters in %r" % token)
        if len(parts) > 3:
            raise TableParseError("bad family reference %r" % token)
        try:
            return named_family(name, *params)
        except TypeError as err:
            raise TableParseError("family %r: %s" % (name, err))
    if token == "-":
        return parse_table(sys.stdin.read())
    try:
        with open(token, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise TableParseError("cannot read %r: %s" % (token, err))
    return parse_table(text)


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise ValueError("cannot write %r: %s" % (path, err))


def _parse_letters(raw: str, what: str, n: int):
    """Comma separated 1-based letters, each in 1..n, as 0-based indices."""
    if raw == "":
        return ()
    try:
        return tuple(parse_entries(raw.split(","), n))
    except ValueError as err:
        msg = "%s entries must lie in 1..%d, got %r: %s"
        raise TableParseError(msg % (what, n, raw, err))


def cmd_classify(args) -> int:
    import json

    from .classify import classify, report_to_json

    S = load_input(args.input)
    print(json.dumps(report_to_json(classify(S)), indent=2))
    return 0


def cmd_machine(args) -> int:
    from .machine import build_cayley_machine, machine_to_dot

    S = load_input(args.input)
    _write(args.dot, machine_to_dot(build_cayley_machine(S)))
    return 0


def cmd_enumerate(args) -> int:
    import json

    from .engine import Closed, enumerate_semigroup

    S = load_input(args.input)
    result = enumerate_semigroup(S, args.budget)
    if isinstance(result, Closed):
        payload = {
            "status": "Closed",
            "element_count": len(result.elements),
            "cayley": _shifted(result.cayley),
            "generator_map": _shifted(result.generator_map),
        }
    else:
        payload = {"status": "Exceeded", **vars(result)}
    print(json.dumps(payload, indent=2))
    return 0


def cmd_act(args) -> int:
    from .engine import act

    S = load_input(args.input)
    word = _parse_letters(args.word, "word", S.order)
    prefix = _parse_letters(args.prefix, "prefix", S.order)
    if not word:
        raise TableParseError("word must be non-empty")
    out = act(S, word, prefix)
    print(",".join(str(x + 1) for x in out))
    return 0


def cmd_growth(args) -> int:
    from .engine import word_counts

    _check_size("--max-len", args.max_len)
    _check_size("--work-cap", args.work_cap)
    # The free reference counts the words of a free semigroup whose rank is
    # the number of distinct generator states: equal columns mean no relation
    # yet, a stalled distinct column means the generated semigroup is finite.
    S = load_input(args.input)
    rank = len(set(S.rows))
    print("order %d, %d distinct generator states" % (S.order, rank))
    print("length  distinct  new  free reference")
    counts = word_counts(S, range(S.order))
    previous = 0
    for length in range(1, args.max_len + 1):
        try:
            _check_words(S.order, length, args.work_cap)
        except WorkCapError as err:
            print("stopped at length %d: %s" % (length, err))
            break
        total = next(counts)
        free_reference = word_total(rank, length)
        print("%6d  %8d  %4d  %14d" % (length, total, total - previous, free_reference))
        previous = total
    return 0


def cmd_verify(args) -> int:
    import json

    from .verify import run_verify

    report = run_verify(
        args.max_order, budget=args.budget, free_len=args.free_len, dedup=args.dedup
    )
    text = json.dumps(report.to_json(), indent=2) + "\n"
    _write(args.out, text)
    if args.out != "-":
        summary = "checked %d tables: %d disagreements, %d inconclusive" % (
            report.tables_checked,
            len(report.disagreements),
            len(report.inconclusive),
        )
        print(summary)
    return DISAGREEMENT if report.disagreements else 0


def cmd_corpus(args) -> int:
    from .corpus import CorpusSpec, dump_line, generate_tables

    tables = generate_tables(CorpusSpec(args.order, args.dedup))
    _write(args.out, "".join(dump_line(S) + "\n" for S in tables))
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ValueError on a bad command line, so
    main reports it like any other malformed input."""

    def error(self, message):
        raise ValueError("%s: %s" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cayleysg",
        description="finite semigroups and the semigroups their Cayley machines generate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="structural report on the generated semigroup")
    p.add_argument("input", help="table file, '-' for stdin, or family:NAME[:PARAMS]")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("machine", help="write the Cayley machine as Graphviz text")
    p.add_argument("input")
    p.add_argument("--dot", default="-", help="output path ('-' for stdout)")
    p.set_defaults(func=cmd_machine)

    p = sub.add_parser("enumerate", help="enumerate the generated semigroup")
    p.add_argument("input")
    p.add_argument("--budget", type=parse_natural, default=DEFAULT_BUDGET)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("act", help="apply the transformation of a word to a prefix")
    p.add_argument("input")
    p.add_argument("--word", required=True, help="comma separated 1-based elements")
    p.add_argument("--prefix", required=True, help="comma separated 1-based letters")
    p.set_defaults(func=cmd_act)

    p = sub.add_parser(
        "growth",
        help="distinct transformations among the words up to each length",
    )
    p.add_argument("input")
    p.add_argument("--max-len", type=parse_natural, default=6)
    p.add_argument("--work-cap", type=parse_natural, default=WORK_CAP)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("verify", help="cross-check classifier and engine on a corpus")
    p.add_argument("--max-order", type=parse_natural, required=True)
    p.add_argument("--budget", type=parse_natural, default=DEFAULT_BUDGET)
    p.add_argument("--free-len", type=parse_natural, default=4)
    p.add_argument("--dedup", choices=DEDUP_MODES, default="up_to_iso_anti")
    p.add_argument("--out", default="-", help="report path ('-' for stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("corpus", help="dump all tables of one order, one per line")
    p.add_argument("--order", type=parse_natural, required=True)
    p.add_argument("--dedup", choices=DEDUP_MODES, default="up_to_iso_anti")
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    stdout = sys.stdout
    if isinstance(getattr(stdout, "buffer", None), io.RawIOBase):
        # unbuffered (python -u): a text layer straight over the file drops
        # the rest of a write that a departing reader cut short, where a
        # buffered one writes on and raises BrokenPipeError
        sys.stdout = open(
            stdout.fileno(), "w", encoding=stdout.encoding, errors=stdout.errors, closefd=False
        )
    code = 0
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush at
        # shutdown cannot fail again (the Python docs' SIGPIPE recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code or OUTPUT_ERROR
    except NotAssociativeError as err:
        print("error: %s" % err, file=sys.stderr)
        return ASSOCIATIVITY_ERROR
    except (WorkCapError, StateCapError, ClosureCapError) as err:
        print("error: %s" % err, file=sys.stderr)
        return RESOURCE_LIMIT
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return PARSE_ERROR
    finally:
        sys.stdout = stdout


if __name__ == "__main__":
    sys.exit(main())
