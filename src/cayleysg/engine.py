"""Exact computation with the transformations generated by a Cayley machine.

A word w = (a_1, ..., a_k) over the elements of S names the transformation
of infinite strings obtained by running the Cayley machine from state a_1,
then feeding its output through the machine started at a_2, and so on.  Two
different words often name the same transformation; everything here decides
such questions exactly:

  * first_letter_action(w) is what w does to the first input letter: the
    left translation of S by a_k * ... * a_1, returned as that table row,
  * section(w, x) is the word that continues the computation after the
    first letter x, and act(w, p) applies w to a finite prefix p,
  * equal, canonicalize and AutElement compare transformations exactly by
    minimizing the corresponding machines,
  * enumerate_semigroup, count_distinct_words and word_counts (behind the
    free pair check of classify) close one-letter machines under composition
    with one breadth-first search by word length.

The search never stores one machine per word.  It grows a single minimized
behavior graph whose states are the distinct transformations seen so far;
appending a letter h to a behavior c is machine composition, so the result
depends only on c and on what h does to the outputs of c, and a product
table is read off the right Cayley graph.  State ids are stable as the graph
grows.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter

# the limits live in core, for the routes that load no engine; engine.X still names each
from .core import (
    DEFAULT_BUDGET,
    WORK_CAP,
    ClosureCapError,
    MulTable,
    StateCapError,
    WorkCapError,
    _check_elements,
    _check_int,
    _check_size,
    _check_words,
    _picker,
    word_total,
)

CLOSURE_CAP = 10_000
STATE_CAP = 500_000


def _check_word(S, word):
    word = tuple(word)
    if not word:
        raise ValueError("empty word")
    return _check_elements("letter", word, S.order)


def _section(rows, word):
    # the rows of the running products a_1, a_2 * a_1, ..., a_k * ... * a_1:
    # column x is the section at x, the last row the first letter action
    p = word[0]
    out = [rows[p]]
    for a in word[1:]:
        p = rows[a][p]
        out.append(rows[p])
    return out


def first_letter_action(S: MulTable, word) -> tuple[int, ...]:
    """The map the word induces on the first input letter, as its image row
    (row a_k * ... * a_1 of the table)."""
    return _section(S.rows, _check_word(S, word))[-1]


def section(S: MulTable, word, x: int):
    """The word that continues the computation after the first letter x.

    Its entries are the running products a_i * ... * a_1 * x, so sections
    preserve word length.
    """
    word = _check_word(S, word)
    _check_word(S, (x,))
    return tuple(row[x] for row in _section(S.rows, word))


def act(S: MulTable, word, prefix):
    """Apply the transformation named by the word to a finite prefix."""
    word = _check_word(S, word)
    rows = S.rows
    out = []
    # a letter reads one column of the running products, not every row
    for x in _check_elements("letter", tuple(prefix), S.order):
        residual = []
        for a in word:
            x = rows[a][x]
            residual.append(x)
        word = residual
        out.append(x)
    return tuple(out)


def equal(S: MulTable, u, v) -> bool:
    """Exact equality of the transformations named by two words.

    Coinductive check on pairs of residual words: a pair passes if the two
    first letter actions agree and every pair of sections passes, assuming
    equality on revisited pairs.  Terminates because sections preserve word
    length.  Independent of canonicalize; the two are cross-checked in the
    test suite.
    """
    u = _check_word(S, u)
    v = _check_word(S, v)
    rows = S.rows
    seen = set()
    stack = [(u, v)]
    while stack:
        a, b = stack.pop()
        if a == b or (a, b) in seen:
            continue
        seen.add((a, b))
        ra, rb = _section(rows, a), _section(rows, b)
        if ra[-1] != rb[-1]:
            return False
        stack.extend(zip(zip(*ra), zip(*rb)))
    return True


@dataclass(frozen=True)
class AutElement:
    """A transformation of infinite strings as a minimal pointed machine.

    The machine is canonically numbered (breadth-first from the initial
    state, letters in increasing order), so two AutElements are equal as
    values exactly when they are equal as transformations; the initial
    state is always 0 after canonical numbering.
    """

    letters: int
    transition: tuple[tuple[int, ...], ...]
    output: tuple[tuple[int, ...], ...]
    initial: int = 0

    @property
    def n_states(self) -> int:
        return len(self.transition)

    def serialize(self) -> bytes:
        """Canonical bytes: counts, both tables row-major, initial state."""
        flat = [self.n_states, self.letters]
        for row in self.transition:
            flat.extend(row)
        for row in self.output:
            flat.extend(row)
        flat.append(self.initial)
        return ",".join(map(str, flat)).encode("ascii")

    def apply(self, prefix):
        """Run the machine over a finite prefix (cross-check against act)."""
        s = self.initial
        out = []
        for x in _check_elements("letter", tuple(prefix), self.letters):
            out.append(self.output[s][x])
            s = self.transition[s][x]
        return tuple(out)


def _refine(out_rows, nxt_rows, established=0, seeds=0, need=None):
    """Classes of machine states under behavioral equivalence.

    Moore refinement: start from the partition by output rows, split by
    successor classes until no class splits.  Returns per-state class ids
    numbered by first occurrence in state order, or None once a pass proves
    that the first seeds later states fall into need or more classes that
    hold no established state.

    The states below established must be pairwise inequivalent; they keep
    their ids.  After each pass, an established state whose class holds no
    later state is alone in its class for good (blocks only split), so it
    takes the unique tag -1 - s and leaves the passes; the tag is its exact
    class, so states pointing at it still split correctly.

    A pass over the later states runs in C builtins: one iterator reads the
    classes of their successors row after row, and zip groups each state's
    class with the next len(row) of them into its signature tuple, which is
    hashed once.  Passes stop as soon as every state left in them has a
    class of its own: a discrete partition cannot split again.

    Blocks only split, so states in different classes of any pass are
    different, and a class that holds no established state after a pass
    never equals one (a retired state is alone in its class for good).  A
    pass numbers the live established states first, so its classes from
    len(ids) on hold later states only, and the seeds, which come first
    among the later states, open theirs in order: the largest class of a
    seed tells how many such classes the seeds hold, with no set of them.
    """
    k = established
    ids: dict = {}
    cls = [ids.setdefault(row, len(ids)) for row in out_rows]
    count = len(ids)
    live = range(k)  # established states still in the passes
    later, later_nxt = cls[k:], nxt_rows[k:]
    letters = len(nxt_rows[0]) if nxt_rows else 0
    get = cls.__getitem__
    while count < len(live) + len(later):
        ids = {}
        number = ids.setdefault
        if live:
            est = [number((cls[s], *map(get, nxt_rows[s])), len(ids)) for s in live]
        fresh = len(ids)  # classes from here on hold later states only
        succ = map(get, itertools.chain.from_iterable(later_nxt))
        later = [number(sig, len(ids)) for sig in zip(later, *[succ] * letters)]
        if (
            need is not None
            and len(ids) - fresh >= need
            and max(itertools.islice(later, seeds), default=-1) + 1 - fresh >= need
        ):
            return None
        if len(ids) == count:
            break
        count = len(ids)
        cls[k:] = later
        if live:
            shared = set(later)
            kept = []
            for s, c in zip(live, est):
                if c in shared:
                    cls[s] = c
                    kept.append(s)
                else:
                    cls[s] = -1 - s
            live = kept
            count = len(shared)
    else:
        # discrete: no later state equals an established one or another
        # later state, so each is a fresh class in state order
        return list(range(len(cls)))
    # the live established states are alone in their classes, so the last
    # pass numbered them 0..len(live)-1; fresh classes follow from k on (for
    # k = 0 the remap is the identity)
    state_of = [*live, *range(k, k + count - len(live))]
    return [*range(k), *map(state_of.__getitem__, later)]


def _minimize(out_rows, nxt_rows):
    """The class of each state and the quotient machine's output and
    successor rows, its states numbered as the classes of _refine.

    Classes are numbered by first occurrence, so the partition is discrete
    exactly when the last state's class is len(cls) - 1 (or there is no
    state); a discrete refinement is its own quotient, returned as fresh
    lists of the same rows, as callers extend the lists they get."""
    cls = _refine(out_rows, nxt_rows)
    if not cls or cls[-1] == len(cls) - 1:
        return cls, list(out_rows), list(nxt_rows)
    qout, qnxt = [], []
    renumber = cls.__getitem__
    for s, c in enumerate(cls):
        if c == len(qout):
            qout.append(out_rows[s])
            qnxt.append(tuple(map(renumber, nxt_rows[s])))
    return cls, qout, qnxt


def canonicalize(S: MulTable, word, closure_cap: int = CLOSURE_CAP) -> AutElement:
    """The minimal pointed machine of the transformation named by the word.

    Collects the words reachable from the input via sections and minimizes
    their machine.  The orbit is finite (at most
    |S|**len(word) words, as sections preserve word length); if more than
    closure_cap distinct residual words appear, raises ClosureCapError as a
    resource limit (equal() still answers pairwise questions).

    Entry i of section(w, x) is (a_i * ... * a_1) * x, so the sections of w
    for x = 0..n-1 are the columns of the rows of its running products, and
    the last of those rows is its output row.

    The quotient is returned as _minimize numbers it, by first occurrence
    among the residual words: that is its breadth-first order from class 0,
    as the words are collected breadth-first in letter order and only the
    first word of a class can bring a new class into the closure (any later
    word of it has sections equivalent to the first word's, letter by letter).
    When no two residual words are equivalent (over a nontrivial group,
    whose Cayley machines generate a free semigroup, the closure of a
    length-k word is all |S|**k words), the refinement is discrete and the
    collected machine is its own quotient.
    """
    word = _check_word(S, word)
    _check_int("closure_cap", closure_cap)
    rows = S.rows
    number = {word: 0}.setdefault
    order = [word]
    out_rows, nxt_rows = [], []
    for w in order:
        prefix_rows = _section(rows, w)
        out_rows.append(prefix_rows[-1])
        nxt = []
        for s in zip(*prefix_rows):
            t = number(s, len(order))
            if t == len(order):
                if t >= closure_cap:
                    raise ClosureCapError(t)
                order.append(s)
            nxt.append(t)
        nxt_rows.append(tuple(nxt))
    _, qout, qnxt = _minimize(out_rows, nxt_rows)
    return AutElement(S.order, tuple(qnxt), tuple(qout))


class BehaviorGraph:
    """A growing minimized machine holding every behavior seen so far.

    States are pairwise distinct transformations; out[c] is the first
    element of S whose row state c outputs.  extend() composes existing
    behaviors with one-letter machines and merges the results in by
    refining the new pair states against the established states, which
    leave the refinement once no pair state shares their class;
    established state ids never change because established states are
    pairwise inequivalent and fresh classes follow in first occurrence.

    Input letters with equal table columns (a*x == a*x' for every a) act
    alike in every behavior, so states read only the first letter of each
    distinct column; element() expands the machine back to all letters.

    fresh_bound, None by default, stops extend once that many new behaviors
    are proven (see extend); _breadth_first sets it from its budget.  It is
    no argument of extend, so extend(graph, seeds) keeps the signature that
    perfbench/bench_trace.py wraps.
    """

    def __init__(self, S: MulTable, state_cap: int = STATE_CAP):
        self.rows = S.rows
        self.state_cap = _check_int("state_cap", state_cap)
        self.fresh_bound = None
        # column[x] numbers the distinct table columns in order; behaviors
        # read the first letter of each
        first: dict = {}
        self.column = tuple(first.setdefault(col, len(first)) for col in zip(*S.rows))
        inputs = [self.column.index(k) for k in range(len(first))]
        # reduced[a] is row a at those letters, rep[a] the first element with row a
        self.reduced = list(map(_picker(inputs), S.rows))
        first_with: dict = {}
        self.rep = [first_with.setdefault(row, a) for a, row in enumerate(S.rows)]
        cls, self.out, self.nxt = _minimize(self.rep, self.reduced)
        # behavior of the one-letter word (g,) for each element g
        self.generator_state = tuple(cls)
        self._act_reps: dict = {}
        self.act_rep = [self._act_rep_of(m) for m in self.out]

    def __len__(self):
        return len(self.out)

    def _act_rep_of(self, m):
        """act_rep[h] is the first element acting like h on the values of
        row m: a behavior that outputs row m followed by the machine of h or
        of act_rep[h] is one machine.  The cache holds at most |S| tuples."""
        reps = self._act_reps.get(m)
        if reps is None:
            on_image = itemgetter(*set(self.rows[m]))
            first: dict = {}
            reps = self._act_reps[m] = tuple(
                first.setdefault(on_image(row_h), h) for h, row_h in enumerate(self.rows)
            )
        return reps

    def extend(self, seeds):
        """Compose behaviors with one-letter machines and absorb the results.

        seeds is an iterable of (state, element) pairs; the return value
        gives, for each seed in order, the state id of the transformation
        'seed behavior followed by the machine of element'.

        A pair (c, h) outputs the row of h*m for m = out[c], as h*(m*x) =
        (h*m)*x, and moves to the pairs (nxt[c][x], h*m*x), so (c, h) and
        (c, act_rep[c][h]) are one pair state.

        With fresh_bound set, returns None, leaving the graph as it was,
        after the first Moore pass that splits the seeds into fresh_bound
        or more classes holding no state of the graph: each such class is
        a behavior the graph does not hold, whatever the remaining passes
        do.  StateCapError comes first: composition raises it before it
        numbers a pair state, seed or successor, past state_cap.

        A state outside 0..len(self) - 1 or an element outside 0..|S| - 1
        raises ValueError.
        """
        seeds = list(seeds)
        _check_elements("state", [c for c, _ in seeds], len(self.out))
        _check_elements("element", [h for _, h in seeds], len(self.rows))
        rows, rep, reduced = self.rows, self.rep, self.reduced
        out, nxt, act_rep = self.out, self.nxt, self.act_rep
        base = top = len(out)

        # pair_ids[c][g] numbers the pair (c, g) from base on, in the order
        # of pair_list
        pair_ids: dict = defaultdict(dict)
        pair_list: list = []
        seed_ids = []
        for c, h in seeds:
            g = act_rep[c][h]
            pid = pair_ids[c].setdefault(g, top)
            if pid == top:
                if top >= self.state_cap:
                    raise StateCapError(top + 1)
                pair_list.append((c, g))
                top += 1
            seed_ids.append(pid)
        seed_pairs = len(pair_list)
        pair_out = []
        pair_nxt = []
        for c, h in pair_list:
            m = rep[rows[h][out[c]]]
            ids = []
            for t, hy in zip(nxt[c], reduced[m]):
                g = act_rep[t][hy]
                pid = pair_ids[t].setdefault(g, top)
                if pid == top:
                    if top >= self.state_cap:
                        raise StateCapError(top + 1)
                    pair_list.append((t, g))
                    top += 1
                ids.append(pid)
            pair_out.append(m)
            pair_nxt.append(tuple(ids))

        cls = _refine(out + pair_out, nxt + pair_nxt, base, seed_pairs, self.fresh_bound)
        if cls is None:
            return None
        # established behaviors are pairwise distinct, fresh classes follow in id order
        if cls[:base] != list(range(base)):
            raise RuntimeError("refinement renumbered an established behavior")
        for j in range(len(pair_list)):
            c = cls[base + j]
            if c >= len(out):
                if c != len(out):
                    raise RuntimeError("fresh behavior class %d out of id order" % c)
                out.append(pair_out[j])
                nxt.append(tuple(cls[t] for t in pair_nxt[j]))
                act_rep.append(self._act_rep_of(pair_out[j]))
        return [cls[pid] for pid in seed_ids]

    def element(self, state: int) -> AutElement:
        """The canonical machine of the behavior at the given state: the
        states it reaches, numbered breadth-first, letter x reading entry
        column[x], where the first letter to read entry k precedes the first
        to read entry k + 1.  A state outside 0..len(self) - 1 raises
        ValueError."""
        _check_elements("state", (state,), len(self.out))
        out, nxt = self.out, self.nxt
        order = [state]
        index = {state: 0}
        for s in order:
            for t in nxt[s]:
                if t not in index:
                    index[t] = len(order)
                    order.append(t)
        pick = _picker(self.column)
        renumber = index.__getitem__
        transition = tuple(pick(tuple(map(renumber, nxt[s]))) for s in order)
        output = tuple(self.rows[out[s]] for s in order)
        return AutElement(len(self.column), transition, output)


@dataclass(frozen=True)
class Closed:
    """The generated semigroup is finite and fully enumerated.

    elements[i] is the i-th distinct transformation (in discovery order),
    cayley is its multiplication table and generator_map sends each element
    of S to the index of its one-letter transformation.
    """

    elements: tuple[AutElement, ...]
    cayley: tuple[tuple[int, ...], ...]
    generator_map: tuple[int, ...]


@dataclass(frozen=True)
class Exceeded:
    """Enumeration stopped after proving more than budget distinct elements
    (or, with capped=True, after hitting the internal state cap with
    count_reached elements found).

    A capped count depends on how many pair states the engine spends before
    the cap binds, so it can grow between versions that spend fewer; an
    uncapped answer never moves."""

    count_reached: int
    capped: bool = False


EnumerationResult = Closed | Exceeded


def _breadth_first(graph, gens, budget=None):
    """Breadth-first search by word length of the semigroup generated by
    the behaviors of gens: index maps the graph state of each element to its
    number in discovery order, parent[e] = (p, i) says e = p * gens[i] (p is
    -1 for gens[i] itself) and right[e][i] = e * gens[i] is the right Cayley
    graph.  Yields after each length that adds elements, with right filled
    up to the previous length; ends, with right complete, at the first
    length that adds nothing, or, with right shorter than parent, at the
    first extend that proves more than budget graph states (each extend gets
    fresh_bound = budget + 1 - len(graph), or None for no budget).

    As in Froidure and Pin (1997), discovery order is the shortlex order of
    the elements' first words: generators come in order, then the frontier
    in order, each extended by the generators in order.  Write u = gens[b] * s
    for b the first letter of u's first word.  The product u * gens[i] is
    composed only when u is a generator or s * gens[i] was new, its first
    word that of s followed by i.  Otherwise s * gens[i] = p * gens[j] for
    (p, j) = its parent, shortlex below (s, i), and u * gens[i] =
    (gens[b] * p) * gens[j] is an element found already: entry j < i of u's
    own row when p is s, else entry j of the right row of gens[b] * p, whose
    first word is shortlex below u's.  Only the composed products are
    handed to extend, so only they can bring new elements; composition is
    associative, so a product read is the one extend would give.

    left[e][b] = gens[b] * e is the left Cayley graph, filled once per
    length for the elements of the length before: for parent[e] = (p, j),
    gens[b] * e = (gens[b] * p) * gens[j], and gens[b] * p is no longer
    than e, so its right row is complete.  A generator's row is composed
    whole; every other row is built entry by entry, composed or read."""
    index: dict = {}
    right: list = []
    parent: list = []
    # first[e] is the first letter of e's first word and suffix[e] the
    # element named by the rest of it (-1 for a generator); new_letters[e]
    # lists the i for which e * gens[i] was new, its first word e's and i
    first: list = []
    suffix: list = []
    new_letters: list = []
    gen: list = []
    left: list = []
    k = len(gens)
    every = range(k)

    def element(st, p, i):
        e = index.get(st)
        if e is None:
            e = index[st] = len(parent)
            parent.append((p, i))
            if p < 0:
                first.append(i)
                suffix.append(-1)
            else:
                first.append(first[p])
                s = suffix[p]
                suffix.append(gen[i] if s < 0 else right[s][i])
                new_letters[p].append(i)
        return e

    for i, g in enumerate(gens):
        gen.append(element(graph.generator_state[g], -1, i))
    while len(right) < len(parent):
        yield index, right, parent
        frontier = range(len(right), len(parent))
        composed = [every if s < 0 else new_letters[s] for s in suffix[len(right) :]]
        states = list(index)[len(right) :]
        seeds = [(st, gens[i]) for st, row in zip(states, composed) for i in row]
        graph.fresh_bound = None if budget is None else budget + 1 - len(graph)
        if (results := graph.extend(seeds)) is None:
            return
        results = iter(results)
        for p, j in parent[len(left) : len(right)]:
            left.append(tuple(right[x][j] for x in (gen if p < 0 else left[p])))
        for u in frontier:
            new_letters.append([])
            s, b = suffix[u], first[u]
            if s < 0:
                row = map(element, itertools.islice(results, k), [u] * k, every)
            else:
                row = []
                for i, r in enumerate(right[s]):
                    p, j = parent[r]
                    if p != s:
                        row.append(right[gen[b] if p < 0 else left[p][b]][j])
                    else:
                        row.append(element(next(results), u, i) if j == i else row[j])
            right.append(tuple(row))


def enumerate_semigroup(
    S: MulTable, budget: int = DEFAULT_BUDGET, state_cap: int = STATE_CAP
) -> EnumerationResult:
    """Close the one-letter machines of S under composition.

    Breadth-first on word length (see _breadth_first for which products of
    the previous depth are composed).  The run is Closed when a depth adds
    nothing new, and Exceeded once more than budget distinct
    transformations are proven to exist; a budget below the distinct rows,
    where the search starts, raises ValueError.  Row a of the table follows
    the right Cayley graph: a * (p * g) = (a * p) * g.

    With one generator per distinct row, the first element with it (a
    repeated row's products are never new, so the elements and their order
    are those of every element a generator), the graph's states are exactly
    the elements found so far, in discovery order: a pair state composes a
    graph state with an element, whose machine is a generator's, so a fresh
    class is an element new at this depth, which is a composed product and
    so holds a seed, and _refine numbers it by its first seed.  So the
    search's budget, a bound on graph states, stops a depth as soon as its
    Moore passes prove the budget passed, with the answer the full depth
    gives, before its absorption and Cayley rows.
    """
    _check_int("budget", budget)
    graph = BehaviorGraph(S, state_cap)
    if budget < len(graph):
        raise ValueError("budget %d below the %d distinct rows" % (budget, len(graph)))
    try:
        for _, right, parent in _breadth_first(graph, sorted(set(graph.rep)), budget):
            pass
    except StateCapError:
        return Exceeded(len(graph), capped=True)
    if len(right) < len(parent):
        return Exceeded(budget + 1)

    cayley = []
    for a in range(len(parent)):
        row: list = []
        for p, i in parent:
            row.append(right[a if p < 0 else row[p]][i])
        cayley.append(tuple(row))
    elements = tuple(map(graph.element, range(len(graph))))
    return Closed(elements, tuple(cayley), graph.generator_state)


def word_counts(S: MulTable, gens):
    """How many distinct transformations the words over gens of length at
    most l name, for l = 1, 2, ...; the count stays put from the first
    length that adds none.  The count is uncapped: a caller applies the
    work cap (_check_words) to the lengths it reads.  Letters with equal
    rows name one machine, so the search takes one letter per distinct row
    among gens."""
    graph = BehaviorGraph(S)
    letters = sorted({graph.rep[g] for g in gens})
    counts = (len(index) for index, _, _ in _breadth_first(graph, letters))
    total = 0
    while True:
        # a finite closure ends the search: longer words name nothing new
        total = next(counts, total)
        yield total


def count_distinct_words(S: MulTable, max_len: int, work_cap: int = WORK_CAP) -> int:
    """How many distinct transformations the words of length 1..max_len name.

    The sweep is capped by the total number of words, sum of |S|**l for
    l = 1..max_len; raises WorkCapError above work_cap.
    """
    _check_size("max_len", max_len)
    _check_words(S.order, max_len, work_cap)
    return list(itertools.islice(word_counts(S, range(S.order)), max_len))[-1]
