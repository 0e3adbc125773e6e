"""The benchmark's workloads: inputs made from a seed, the timed loop, the checks.

Every workload is a closed loop with one client: the next op starts when the
previous one returns.  A run is a sequence of passes.  Pass p gets its own
inputs, made from random.Random("<workload>/<seed>/<p>"), so the same seed
gives the same inputs and no input repeats within a run.  A run stops at the
first pass boundary after --seconds of measured timed work, so every run
covers whole passes and the metrics of two seeds describe the same mix of
work: the seed changes labels, words and the order of ops, not how many of
each kind a pass holds.

Workloads (why each one is here):

verify-order4    The verify cross-check, check_table per table, over the 149
                 tables of order <= 4 up to iso/anti-iso streamed from
                 generate_tables, at the CLI defaults.  The main user job;
                 its time is the 41 tables whose C(S) is infinite, each
                 enumerated until it overshoots the budget.  Each streamed
                 table is relabeled by a seeded permutation, which changes
                 no answer.
closed-wide      classify + enumerate_semigroup on direct products of order
                 16 and 64 of H-trivial order-4 tables: every run is Closed,
                 the budget never binds, and composition with a 16- or
                 64-letter alphabet, the Cayley table and element() dominate.
element-queries  canonicalize, equal and act on words of length 2-9 over
                 every corpus table and a few named families: the section
                 closure and the coinductive equality, which no other
                 workload reaches.
cli-oneshot      One cayleysg process at a time (classify, enumerate, act,
                 machine) on seeded table files and family inputs up to
                 order 64: interpreter start and imports dominate.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from typing import Callable, Iterable

import bench_probe

# cayleysg re-exports a function called classify over its classify module,
# so the modules are looked up by their full names.
core = import_module("cayleysg.core")
green = import_module("cayleysg.green")
machine = import_module("cayleysg.machine")
engine = import_module("cayleysg.engine")
classify_mod = import_module("cayleysg.classify")
corpus = import_module("cayleysg.corpus")
tableio = import_module("cayleysg.tableio")
verify = import_module("cayleysg.verify")

perf_counter = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS_FILE = HERE / "corpus4.txt"

# The defaults of `cayleysg verify` and `cayleysg enumerate`.
BUDGET = 10_000
FREE_LEN = 4

# Semigroups of order n up to isomorphism and anti-isomorphism (OEIS A001423).
CLASSES_UP_TO_ISO_ANTI = {1: 1, 2: 4, 3: 18, 4: 126}

# Positions in the list of H-trivial order-4 corpus tables of the factors of
# the closed-wide products: four pairs and eight triples drawn once with
# random.Random("closed-wide"), and the triple of the three tables with the
# largest C(S) (10, 7 and 7 elements), which closes at 256 elements.
CLOSED_WIDE_FACTORS = (
    (68, 77), (6, 35), (39, 18), (27, 59),
    (17, 71, 5), (24, 32, 58), (9, 26, 88), (4, 10, 14),
    (33, 66, 22), (76, 36, 0), (31, 38, 44), (19, 29, 66),
    (40, 54, 53),
)

# A word of length L over n letters has at most n**L residual words under
# sections, so words with n**L at most this never reach the section closure
# cap of canonicalize (10 000 words).
WORD_SPACE_CAP = 10_000
MIN_WORD_LEN = 2
MAX_WORD_LEN = 9

ELEMENT_FAMILIES = (
    ("cyclic_group", 2),
    ("cyclic_group", 3),
    ("cyclic_group", 4),
    ("symmetric_group", 3),
    ("example_ijkf",),
)

CLI_TIMEOUT_S = 120


@dataclass
class Op:
    """One timed call and the check of its answer.

    check(result) returns None for a right answer and a reason otherwise.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    """build_pass(p) gives the ops of pass p; every completed pass must
    hold pass_size ops."""

    build_pass: Callable[[int], Iterable[Op]]
    pass_size: int


@dataclass
class Outcome:
    """What a run measured.  latencies and pass_rates are in reference
    seconds (see bench_probe); the raw_ lists hold the measured values."""

    latencies: list = field(default_factory=list)
    raw_latencies: list = field(default_factory=list)
    pass_rates: list = field(default_factory=list)
    raw_pass_rates: list = field(default_factory=list)
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    pass_errors: list = field(default_factory=list)
    probe_samples: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.pass_errors

    @property
    def ops_per_s(self) -> float:
        """Median over passes of ops per second of timed work."""
        return statistics.median(self.pass_rates) if self.pass_rates else 0.0


MAX_REPORTED_FAILURES = 20


def measure(workload: Workload, first_pass: Iterable[Op], seconds: float, tracer,
            scaler: bench_probe.Scaler | None = None) -> Outcome:
    """Run whole passes until `seconds` of measured timed work are done.

    Timed work is each op's call plus the production of the next op, which
    is where verify-order4 streams its tables; building a pass's inputs,
    checking answers and sampling the host speed are not timed.
    """
    scaler = scaler or bench_probe.Scaler()
    out = Outcome()
    ops = first_pass
    for p in itertools.count():
        if p > 0:
            ops = workload.build_pass(p)
        stream = iter(ops)
        done = 0
        raw_busy = scaled_busy = 0.0
        broken = False

        def settle():
            nonlocal scaled_busy
            for scaled, is_op in scaler.settle():
                scaled_busy += scaled
                if is_op:
                    out.latencies.append(scaled)

        while True:
            tracer.active = True
            start = perf_counter()
            try:
                op = next(stream, None)
            except Exception as err:  # a broken stream ends the run, reported
                op = None
                broken = True
                out.pass_errors.append("pass %d stream raised %r" % (p, err))
            produced = perf_counter() - start
            raw_busy += produced
            scaler.add(produced, False)
            if op is None:
                tracer.active = False
                break
            tracer.op = out.attempted
            span = tracer.begin("op")
            start = perf_counter()
            try:
                result = op.call()
            except Exception as err:  # counted as a failed op; the run goes on
                result = err
            latency = perf_counter() - start
            tracer.end(span, label=op.label)
            tracer.active = False
            tracer.op = None
            raw_busy += latency
            scaler.add(latency, True)
            out.raw_latencies.append(latency)
            out.attempted += 1
            done += 1
            problem = judge(op, result)
            if problem is not None:
                out.failed += 1
                if len(out.failures) < MAX_REPORTED_FAILURES:
                    out.failures.append("%s: %s" % (op.label, problem))
            if scaler.due:
                settle()
        settle()
        out.busy_s += raw_busy
        if done:
            out.pass_rates.append(done / scaled_busy)
            out.raw_pass_rates.append(done / raw_busy)
        else:
            out.pass_errors.append("pass %d had no ops" % p)
        if done == 0 or broken:
            break
        if done != workload.pass_size:
            out.pass_errors.append(
                "pass %d ran %d ops, expected %d" % (p, done, workload.pass_size)
            )
        if out.busy_s >= seconds:
            break
    out.probe_samples = scaler.samples
    return out


def judge(op: Op, result) -> str | None:
    if isinstance(result, Exception):
        return "raised %s: %s" % (type(result).__name__, result)
    try:
        return op.check(result)
    except Exception as err:  # an answer the check cannot even read is wrong
        return "check raised %s: %s" % (type(err).__name__, err)


# ---------------------------------------------------------------- inputs


def pass_rng(workload: str, seed: int, p: int) -> random.Random:
    return random.Random("%s/%d/%d" % (workload, seed, p))


def relabel(S, rng: random.Random):
    """An isomorphic copy of S, elements renamed by a random permutation.

    Relabeling keeps associativity, so the copy skips make_table's check.
    """
    n = S.order
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for a, row in enumerate(S.rows):
        target = rows[perm[a]]
        for b, ab in enumerate(row):
            target[perm[b]] = perm[ab]
    return core.MulTable(tuple(tuple(row) for row in rows))


def corpus4() -> list:
    """The 149 tables of order <= 4 up to iso/anti-iso, in corpus order."""
    with open(CORPUS_FILE, encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip() and not line.startswith("#")]
    return [corpus.load_dump_line(line) for line in lines]


def random_word(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    return tuple(rng.randrange(n) for _ in range(length))


def max_word_len(n: int) -> int:
    length = MIN_WORD_LEN
    while length < MAX_WORD_LEN and n ** (length + 1) <= WORD_SPACE_CAP:
        length += 1
    return length


def same_rows_word(S, word, rng: random.Random) -> tuple[int, ...]:
    """word with each letter swapped for a random letter of the same row.

    Letters whose left translations agree are the same Cayley machine
    state, so the result names the same transformation as word; for tables
    without repeated rows it is word itself.
    """
    by_row: dict = {}
    for a, row in enumerate(S.rows):
        by_row.setdefault(row, []).append(a)
    return tuple(rng.choice(by_row[S.rows[a]]) for a in word)


def cascade(S, word, prefix) -> tuple[int, ...]:
    """Reference action of a word on a prefix, straight from the definition:
    the machines of the word's letters in series, each in state s reading x
    writing s*x and moving to s*x."""
    states = list(word)
    out = []
    for x in prefix:
        y = x
        for i, s in enumerate(states):
            y = S.rows[s][y]
            states[i] = y
        out.append(y)
    return tuple(out)


# ------------------------------------------------------------- workloads


def verify_order4(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    max_order = 2 if tiny else 4

    def build_pass(p):
        return _verify_stream(pass_rng("verify-order4", seed, p), max_order)

    size = sum(CLASSES_UP_TO_ISO_ANTI[o] for o in range(1, max_order + 1))
    return Workload(build_pass, pass_size=size)


def _verify_stream(rng, max_order):
    for order in range(1, max_order + 1):
        for S in corpus.generate_tables(corpus.CorpusSpec(order, "up_to_iso_anti")):
            yield _verify_op(relabel(S, rng))


def _verify_op(T) -> Op:
    def call():
        return verify.check_table(T, BUDGET, FREE_LEN)

    def check(result):
        _passed, disagreements, inconclusive = result
        if disagreements:
            return "disagreements %s" % json.dumps(disagreements)
        if inconclusive:
            return "inconclusive %s" % json.dumps(inconclusive)
        return None

    return Op("check_table order %d" % T.order, call, check)


def closed_wide(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    finite4 = [S for S in corpus4() if S.order == 4 and green.is_h_trivial(S)]
    factors = CLOSED_WIDE_FACTORS[:2] if tiny else CLOSED_WIDE_FACTORS
    products = [
        functools.reduce(core.direct_product, [finite4[i] for i in index])
        for index in factors
    ]

    def build_pass(p):
        rng = pass_rng("closed-wide", seed, p)
        tables = [relabel(P, rng) for P in products]
        rng.shuffle(tables)
        return [_closed_op(T) for T in tables]

    return Workload(build_pass, pass_size=len(products))


def _closed_op(T) -> Op:
    def call():
        return classify_mod.classify(T), engine.enumerate_semigroup(T)

    def check(result):
        report, enumeration = result
        if not isinstance(enumeration, engine.Closed):
            return "expected Closed, got %r" % (enumeration,)
        if not report.is_finite:
            return "classify says infinite, enumeration closed"
        if len(enumeration.generator_map) != T.order:
            return "generator_map has %d entries for order %d" % (
                len(enumeration.generator_map),
                T.order,
            )
        core.make_table(enumeration.cayley, cap=None)  # raises unless associative
        return None

    return Op("closed order %d" % T.order, call, check)


def element_queries(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    tables = corpus4() + [core.named_family(*spec) for spec in ELEMENT_FAMILIES]
    if tiny:
        tables = tables[:3] + tables[-2:]
    longest = 4 if tiny else MAX_WORD_LEN

    def build_pass(p):
        rng = pass_rng("element-queries", seed, p)
        ops = []
        for S in tables:
            T = relabel(S, rng)
            n = T.order
            for length in range(MIN_WORD_LEN, min(longest, max_word_len(n)) + 1):
                u = random_word(rng, n, length)
                if length % 2 == 0:
                    v = same_rows_word(T, u, rng)
                else:
                    v = random_word(rng, n, length)
                prefix = random_word(rng, n, length + 2)
                ops.extend(_query_ops(T, u, v, prefix))
        return ops

    size = sum(
        3 * (min(longest, max_word_len(S.order)) - MIN_WORD_LEN + 1) for S in tables
    )
    return Workload(build_pass, pass_size=size)


def _query_ops(T, u, v, prefix) -> list[Op]:
    """canonicalize(u), equal(u, v), act(u, prefix), each checked against
    the others and against the reference cascade."""
    known: dict = {}

    def canonical_u():
        if "u" not in known:
            known["u"] = engine.canonicalize(T, u)
        return known["u"]

    def check_canonicalize(element):
        known["u"] = element
        if element.apply(prefix) != cascade(T, u, prefix):
            return "canonicalize(%r).apply(%r) disagrees with the cascade" % (u, prefix)
        return None

    def check_equal(same):
        cv = canonical_u() if v == u else engine.canonicalize(T, v)
        if same != (canonical_u() == cv):
            return "equal(%r, %r) = %r, canonical forms say otherwise" % (u, v, same)
        return None

    def check_act(image):
        expected = canonical_u().apply(prefix)
        known.clear()
        if image != expected:
            return "act(%r, %r) = %r, canonicalize gives %r" % (u, prefix, image, expected)
        if image != cascade(T, u, prefix):
            return "act(%r, %r) disagrees with the cascade" % (u, prefix)
        return None

    order = T.order
    return [
        Op("canonicalize order %d length %d" % (order, len(u)),
           lambda: engine.canonicalize(T, u), check_canonicalize),
        Op("equal order %d length %d" % (order, len(u)),
           lambda: engine.equal(T, u, v), check_equal),
        Op("act order %d length %d" % (order, len(u)),
           lambda: engine.act(T, u, prefix), check_act),
    ]


def cli_oneshot(seed: int, workdir: Path, tiny: bool = False) -> Workload:
    tables = corpus4()
    finite4 = [S for S in tables if S.order == 4 and green.is_h_trivial(S)]
    infinite4 = [S for S in tables if S.order == 4 and not green.is_h_trivial(S)]
    families = {
        "family:rectangular_band:8,8": core.rectangular_band(8, 8),
        "family:cyclic_group:64": core.cyclic_group(64),
        "family:left_zero:64": core.left_zero(64),
        "family:example_ijkf": core.example_ijkf(),
    }

    def build_pass(p):
        rng = pass_rng("cli-oneshot", seed, p)
        inputs = dict(families)
        made = (
            ("finite4", relabel(rng.choice(finite4), rng)),
            ("infinite4", relabel(rng.choice(infinite4), rng)),
            ("product16", relabel(
                core.direct_product(rng.choice(finite4), rng.choice(finite4)), rng
            )),
        )
        files = []
        for label, S in made:
            path = workdir / ("p%d-%s.txt" % (p, label))
            path.write_text(tableio.format_table(S), encoding="utf-8")
            inputs[str(path)] = S
            files.append(str(path))
        finite4_file, infinite4_file, product_file = files
        jobs = [
            ("classify", finite4_file),
            ("classify", infinite4_file),
            ("classify", product_file),
            ("classify", "family:rectangular_band:8,8"),
            ("classify", "family:cyclic_group:64"),
            ("enumerate", finite4_file),
            ("enumerate", product_file),
            ("enumerate", "family:rectangular_band:8,8"),
            ("enumerate", "family:left_zero:64"),
            ("act", infinite4_file),
            ("act", "family:cyclic_group:64"),
            ("act", "family:example_ijkf"),
            ("machine", finite4_file),
            ("machine", "family:cyclic_group:64"),
        ]
        if tiny:
            jobs = [jobs[0], jobs[5], jobs[9], jobs[12]]
        ops = []
        for command, token in jobs:
            S = inputs[token]
            argv = [command, token]
            if command == "act":
                word = random_word(rng, S.order, rng.randint(2, 6))
                prefix = random_word(rng, S.order, 8)
                argv += ["--word", _one_based(word), "--prefix", _one_based(prefix)]
            else:
                word = prefix = None
            ops.append(_cli_op(argv, library_stdout(command, S, word, prefix)))
        rng.shuffle(ops)
        return ops

    return Workload(build_pass, pass_size=4 if tiny else 14)


def _one_based(letters) -> str:
    return ",".join(str(x + 1) for x in letters)


def library_stdout(command: str, S, word=None, prefix=None) -> str:
    """What `cayleysg <command>` prints for S, computed in this process."""
    if command == "classify":
        report = classify_mod.classify(S)
        return json.dumps(classify_mod.report_to_json(report), indent=2) + "\n"
    if command == "enumerate":
        result = engine.enumerate_semigroup(S, BUDGET)
        if isinstance(result, engine.Closed):
            payload = {
                "status": "Closed",
                "element_count": len(result.elements),
                "cayley": [[v + 1 for v in row] for row in result.cayley],
                "generator_map": [e + 1 for e in result.generator_map],
            }
        else:
            payload = {
                "status": "Exceeded",
                "count_reached": result.count_reached,
                "capped": result.capped,
            }
        return json.dumps(payload, indent=2) + "\n"
    if command == "act":
        return _one_based(engine.act(S, word, prefix)) + "\n"
    if command == "machine":
        return machine.machine_to_dot(machine.build_cayley_machine(S))
    raise ValueError("unknown command %r" % command)


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, env):
    return subprocess.run(
        [sys.executable, "-m", "cayleysg.cli", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )


def _cli_op(argv, expected: str) -> Op:
    env = cli_env()

    def call():
        return run_cli(argv, env)

    def check(proc):
        if proc.returncode != 0:
            return "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-300:])
        if proc.stdout != expected:
            return "stdout differs from the library answer (%d vs %d chars)" % (
                len(proc.stdout),
                len(expected),
            )
        return None

    return Op("cayleysg " + " ".join(argv[:2]), call, check)


WORKLOADS = {
    "verify-order4": verify_order4,
    "closed-wide": closed_wide,
    "element-queries": element_queries,
    "cli-oneshot": cli_oneshot,
}
