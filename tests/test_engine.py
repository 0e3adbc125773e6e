from __future__ import annotations

import importlib
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import cayleysg as c
import cayleysg.engine as engine
import oracles


def small_pool():
    return [
        c.example_ijkf(),
        c.left_zero(2),
        c.left_zero(3),
        c.right_zero(2),
        c.null(3),
        c.cyclic_group(2),
        c.cyclic_group(3),
        c.rectangular_band(2, 2),
        c.make_table([[0, 0], [0, 1]]),
    ]


def words_of(S, max_len):
    return st.lists(
        st.integers(0, S.order - 1), min_size=1, max_size=max_len
    ).map(tuple)


# word validation


def test_word_validation():
    S = c.cyclic_group(2)
    with pytest.raises(ValueError):
        c.first_letter_action(S, ())
    with pytest.raises(ValueError):
        c.section(S, (0, 2), 0)
    with pytest.raises(ValueError):
        c.section(S, (0,), 2)
    with pytest.raises(ValueError):
        c.act(S, (0,), (0, 5))


@pytest.mark.parametrize("letter", [True, 1.0])
def test_every_entry_point_rejects_a_letter_that_is_not_an_int(letter):
    # True and 1.0 would index row 1; each must fail as bad input instead
    S = c.cyclic_group(3)
    calls = [
        lambda: c.first_letter_action(S, (letter,)),
        lambda: c.section(S, (letter,), 0),
        lambda: c.section(S, (1,), letter),
        lambda: c.act(S, (letter,), (0,)),
        lambda: c.act(S, (0,), (letter,)),
        lambda: c.act(S, (0,), (0, letter)),
        lambda: c.equal(S, (letter,), (1,)),
        lambda: c.equal(S, (1,), (letter,)),
        lambda: c.canonicalize(S, (letter,)),
        lambda: c.free_pair_check(S, letter, 0, 3),
        lambda: c.free_pair_check(S, 0, letter, 3),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


# first_letter_action


def test_first_letter_action_frozen_cases():
    z2 = c.cyclic_group(2)
    assert c.first_letter_action(z2, (1,)) == (1, 0)
    assert c.first_letter_action(z2, (1, 1)) == (0, 1)
    lz = c.left_zero(2)
    assert c.first_letter_action(lz, (0, 1)) == (1, 1)
    S = c.example_ijkf()
    assert (
        c.first_letter_action(S, (0,))
        == c.first_letter_action(S, (1,))
        == (0, 1, 2, 0)
    )


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_first_letter_action_matches_literal_runs(data):
    S = data.draw(st.sampled_from(small_pool()))
    word = data.draw(words_of(S, 4))
    action = c.first_letter_action(S, word)
    for x in range(S.order):
        assert action[x] == oracles.word_apply(S.rows, word, (x,))[0]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_word_actions_compose_through_reversed_products(data):
    S = data.draw(st.sampled_from(small_pool()))
    a = data.draw(st.integers(0, S.order - 1))
    b = data.draw(st.integers(0, S.order - 1))
    assert c.first_letter_action(S, (a, b)) == S.rows[S.mul(b, a)]


# section


def test_section_frozen_cases():
    z2 = c.cyclic_group(2)
    assert c.section(z2, (1, 1), 0) == (1, 0)
    assert c.section(z2, (1,), 1) == (0,)
    S = c.example_ijkf()
    assert c.section(S, (3, 2), 3) == (0, 0)  # f*f = i, then k*i = i
    lz = c.left_zero(3)
    assert c.section(lz, (2, 0, 1), 0) == (2, 0, 1)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_section_continues_the_run(data):
    # applying w to x:p equals (first output letter, apply section(w, x) to p)
    S = data.draw(st.sampled_from(small_pool()))
    word = data.draw(words_of(S, 3))
    x = data.draw(st.integers(0, S.order - 1))
    prefix = data.draw(st.lists(st.integers(0, S.order - 1), max_size=4).map(tuple))
    full = oracles.word_apply(S.rows, word, (x,) + prefix)
    assert full[0] == c.first_letter_action(S, word)[x]
    assert full[1:] == oracles.word_apply(S.rows, c.section(S, word, x), prefix)


def test_sections_preserve_length(small_tables):
    for S in small_tables[::11]:
        for word in itertools.product(range(S.order), repeat=2):
            for x in range(S.order):
                assert len(c.section(S, word, x)) == 2


# act


def test_act_frozen_cases():
    z2 = c.cyclic_group(2)
    assert c.act(z2, (1,), (0, 0, 0)) == (1, 1, 1)
    assert c.act(z2, (1,), (1, 1, 1)) == (0, 1, 0)
    assert c.act(z2, (1, 1), (0, 1, 0, 1)) == (0, 0, 0, 1)
    lz = c.left_zero(2)
    assert c.act(lz, (0,), (1, 1, 1)) == (0, 0, 0)
    assert c.act(z2, (1,), ()) == ()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_act_matches_literal_machine_runs(data):
    S = data.draw(st.sampled_from(small_pool()))
    word = data.draw(words_of(S, 4))
    prefix = data.draw(st.lists(st.integers(0, S.order - 1), max_size=6).map(tuple))
    assert c.act(S, word, prefix) == oracles.word_apply(S.rows, word, prefix)


# equal


def test_equal_frozen_cases():
    S = c.example_ijkf()
    assert c.equal(S, (0,), (1,))
    assert c.equal(S, (0,), (3,))
    assert not c.equal(S, (1,), (2,))
    z2 = c.cyclic_group(2)
    assert not c.equal(z2, (0,), (1,))
    # the machine semigroup of a group is free: no collisions at all
    assert not c.equal(z2, (1, 1), (0,))
    assert not c.equal(z2, (0, 0), (0,))
    rz = c.right_zero(2)
    assert c.equal(rz, (0,), (1,))
    assert c.equal(rz, (0,), (0, 1))


def test_equal_passes_identical_words_without_sections(monkeypatch):
    engine = importlib.import_module("cayleysg.engine")
    calls = []
    section = engine._section

    def counted(*args):
        calls.append(args)
        return section(*args)

    monkeypatch.setattr(engine, "_section", counted)
    assert c.equal(c.cyclic_group(8), (1, 2, 3, 4, 5), (1, 2, 3, 4, 5))
    assert calls == []


def test_one_letter_words_equal_iff_rows_equal(small_tables):
    # the first letter action determines a one-letter transformation
    for S in small_tables[::7]:
        for s in range(S.order):
            for t in range(S.order):
                assert c.equal(S, (s,), (t,)) == (S.rows[s] == S.rows[t])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_equal_words_act_identically(data):
    S = data.draw(st.sampled_from(small_pool()))
    u = data.draw(words_of(S, 3))
    v = data.draw(words_of(S, 3))
    if c.equal(S, u, v):
        for prefix in itertools.product(range(S.order), repeat=3):
            assert oracles.word_apply(S.rows, u, prefix) == oracles.word_apply(
                S.rows, v, prefix
            )


# canonicalize and AutElement


def test_canonicalize_golden_machines():
    trivial = c.canonicalize(c.left_zero(1), (0,))
    assert trivial == c.AutElement(1, ((0,),), ((0,),))
    assert trivial.serialize() == b"1,1,0,0,0"

    toggle = c.canonicalize(c.cyclic_group(2), (1,))
    assert toggle.transition == ((0, 1), (1, 0))
    assert toggle.output == ((1, 0), (0, 1))
    assert toggle.serialize() == b"2,2,0,1,1,0,1,0,0,1,0"

    collapse = c.canonicalize(c.example_ijkf(), (0,))
    assert collapse.transition == ((0, 0, 1, 0), (0, 0, 1, 0))
    assert collapse.output == ((0, 1, 2, 0), (0, 1, 2, 1))


def test_canonicalize_identifies_equal_words():
    S = c.example_ijkf()
    assert c.canonicalize(S, (0,)) == c.canonicalize(S, (3,))
    assert c.canonicalize(S, (0,)).serialize() == c.canonicalize(S, (1,)).serialize()
    assert c.canonicalize(S, (0,)) != c.canonicalize(S, (2,))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_canonicalize_agrees_with_equal(data):
    S = data.draw(st.sampled_from(small_pool()))
    u = data.draw(words_of(S, 3))
    v = data.draw(words_of(S, 3))
    assert (c.canonicalize(S, u) == c.canonicalize(S, v)) == c.equal(S, u, v)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_aut_element_apply_matches_literal_runs(data):
    S = data.draw(st.sampled_from(small_pool()))
    word = data.draw(words_of(S, 3))
    prefix = data.draw(st.lists(st.integers(0, S.order - 1), max_size=5).map(tuple))
    element = c.canonicalize(S, word)
    assert element.apply(prefix) == oracles.word_apply(S.rows, word, prefix)


def test_aut_element_apply_checks_its_prefix():
    # -1 would read as letter 2 and True as letter 1; 3 is past the table
    element = c.canonicalize(c.cyclic_group(3), (1, 2))
    for prefix in [(-1,), (True,), (3,), (0, 1.0)]:
        with pytest.raises(ValueError, match="letter"):
            element.apply(prefix)
    assert element.apply([0, 1, 2]) == c.act(c.cyclic_group(3), (1, 2), (0, 1, 2))


def test_canonicalize_is_breadth_first_numbered(small_tables):
    for S in small_tables[::13]:
        for s in range(S.order):
            element = c.canonicalize(S, (s,))
            assert element.initial == 0
            seen = {0}
            for state in range(element.n_states):
                assert state in seen  # reachable before or when scanned
                seen.update(element.transition[state])


def test_canonicalize_numbers_new_successors_in_increasing_order(small_tables):
    # scanning the states in order, letters in order, each successor not
    # seen before is the next state id: the breadth-first numbering
    for S in small_tables:
        for length in (1, 2, 3):
            for word in itertools.product(range(S.order), repeat=length):
                element = c.canonicalize(S, word)
                reached = 1
                for row in element.transition:
                    for t in row:
                        assert t <= reached
                        reached += t == reached
                assert reached == element.n_states


def test_canonicalize_closure_cap():
    with pytest.raises(c.ClosureCapError):
        c.canonicalize(c.cyclic_group(3), (1, 2, 1, 2, 1, 2, 1), closure_cap=20)


@pytest.mark.parametrize("S, word", [(c.cyclic_group(3), (1, 2)), (c.cyclic_group(2), (1, 0, 1))])
def test_canonicalize_closure_cap_boundary(S, word):
    # the closure of a word over a group is all |S|**len(word) words: a cap
    # of that many passes, one less raises with the cap as its count
    total = S.order ** len(word)
    assert c.canonicalize(S, word, closure_cap=total).n_states == total
    with pytest.raises(c.ClosureCapError) as caught:
        c.canonicalize(S, word, closure_cap=total - 1)
    assert caught.value.count == total - 1


def residual_classes(S, word):
    """The number of behaviors among the residual words of word, by
    breadth-first sections and textbook Moore refinement."""
    order = [word]
    index = {word: 0}
    out_rows, nxt_rows = [], []
    for w in order:
        out_rows.append(c.first_letter_action(S, w))
        nxt = []
        for x in range(S.order):
            s = c.section(S, w, x)
            if s not in index:
                index[s] = len(order)
                order.append(s)
            nxt.append(index[s])
        nxt_rows.append(nxt)
    return len(order), len(set(oracles.moore_classes(out_rows, nxt_rows)))


@pytest.mark.parametrize(
    "S, lengths",
    [
        (c.cyclic_group(2), range(4, 10)),
        (c.cyclic_group(3), range(4, 8)),
        (c.cyclic_group(4), range(4, 6)),
        (c.symmetric_group(3), (4,)),
    ],
)
def test_canonicalize_keeps_every_residual_word_of_a_group(S, lengths):
    rng = random.Random(S.order)
    for length in lengths:
        word = tuple(rng.randrange(S.order) for _ in range(length))
        element = c.canonicalize(S, word)
        assert element.n_states == S.order**length
        for _ in range(20):
            prefix = [rng.randrange(S.order) for _ in range(12)]
            assert element.apply(prefix) == c.act(S, word, prefix)


@pytest.mark.parametrize(
    "S",
    [
        c.example_ijkf(),
        c.rectangular_band(2, 2),
        c.null(3),
        c.make_table([[0, 0], [0, 1]]),
        c.direct_product(c.cyclic_group(2), c.right_zero(2)),
    ],
)
def test_canonicalize_quotients_the_residual_words_of_a_non_group(S):
    rng = random.Random(S.order)
    merged = 0
    for length in range(4, 9):
        for _ in range(5):
            word = tuple(rng.randrange(S.order) for _ in range(length))
            element = c.canonicalize(S, word)
            words, classes = residual_classes(S, word)
            assert element.n_states == classes
            merged += classes < words
            for _ in range(20):
                prefix = [rng.randrange(S.order) for _ in range(12)]
                assert element.apply(prefix) == c.act(S, word, prefix)
    assert merged > 0  # some words take the quotient path


# enumerate_semigroup


def test_enumerate_example_ijkf_is_left_zero_of_two():
    result = c.enumerate_semigroup(c.example_ijkf(), 100)
    assert isinstance(result, c.Closed)
    assert len(result.elements) == 2
    assert result.cayley == ((0, 0), (1, 1))
    assert result.generator_map == (0, 0, 1, 0)
    assert result.elements[0] == c.canonicalize(c.example_ijkf(), (0,))
    assert result.elements[1] == c.canonicalize(c.example_ijkf(), (2,))


def test_enumerate_left_zero_gives_right_zero():
    for n in range(1, 6):
        result = c.enumerate_semigroup(c.left_zero(n), 100)
        assert isinstance(result, c.Closed)
        assert len(result.elements) == n
        assert all(
            result.cayley[a][b] == b for a in range(n) for b in range(n)
        )
        assert result.generator_map == tuple(range(n))


def test_enumerate_right_zero_collapses():
    for n in range(1, 6):
        result = c.enumerate_semigroup(c.right_zero(n), 100)
        assert isinstance(result, c.Closed)
        assert len(result.elements) == 1


def test_enumerate_rectangular_band_matches_left_zero_factor():
    band = c.enumerate_semigroup(c.rectangular_band(2, 3), 100)
    factor = c.enumerate_semigroup(c.left_zero(2), 100)
    assert isinstance(band, c.Closed) and isinstance(factor, c.Closed)
    assert len(band.elements) == len(factor.elements)
    assert oracles.find_isomorphism(band.cayley, factor.cayley) is not None


def test_enumerate_group_exceeds_budget():
    result = c.enumerate_semigroup(c.cyclic_group(2), 100)
    assert result == c.Exceeded(count_reached=101, capped=False)


def test_enumerate_budget_must_cover_generators():
    with pytest.raises(ValueError):
        c.enumerate_semigroup(c.cyclic_group(3), 2)


def test_enumerate_budget_need_only_cover_the_distinct_rows():
    # order 64 with 8 distinct rows; C(S) is the left zero semigroup on them
    result = c.enumerate_semigroup(c.rectangular_band(8, 8), 10)
    assert isinstance(result, c.Closed)
    assert len(result.elements) == 8
    assert result == c.enumerate_semigroup(c.rectangular_band(8, 8))
    # order 4 with 2 distinct rows; C(S) is infinite, like C(Z2)
    S = c.direct_product(c.cyclic_group(2), c.right_zero(2))
    assert c.enumerate_semigroup(S, 2) == c.Exceeded(3)
    with pytest.raises(ValueError, match="budget 1 below the 2 distinct rows"):
        c.enumerate_semigroup(S, 1)


def test_enumerate_state_cap_reports_capped():
    result = c.enumerate_semigroup(c.cyclic_group(2), 10**6, state_cap=50)
    assert isinstance(result, c.Exceeded)
    assert result.capped


def level_counts(S, bound):
    """The per-length counts of word_counts, which never takes a budget, up
    to the closure or the first count past bound."""
    counts = []
    for total in engine.word_counts(S, range(S.order)):
        if counts and total == counts[-1]:
            break
        counts.append(total)
        if total > bound:
            break
    return counts


@pytest.fixture(scope="module")
def infinite_order4():
    """The 35 order-4 classes (up to isomorphism and anti-isomorphism) whose
    C(S) is infinite, with their level counts past 1000; with the 6 of order
    2 and 3, the 41 of order <= 4."""
    tables = c.generate_tables(c.CorpusSpec(4, "up_to_iso_anti"))
    return [(S, counts) for S in tables if (counts := level_counts(S, 1000))[-1] > 1000]


def test_enumerate_stops_exactly_at_the_budget(tables2, tables3, infinite_order4):
    # budgets at n, at each level count and one below it (|C(S)| - 1 and
    # |C(S)| for a finite C(S)), and inside a level
    assert len(infinite_order4) == 35
    small = [(S, level_counts(S, 1000)) for S in [c.left_zero(1), *tables2, *tables3]]
    for S, counts in small + infinite_order4:
        budgets = {S.order, 50, 100, 1000, *counts, *(k - 1 for k in counts)}
        for budget in sorted(b for b in budgets if S.order <= b <= 1000):
            result = c.enumerate_semigroup(S, budget)
            if counts[-1] > budget:
                assert result == c.Exceeded(budget + 1), (S.rows, budget)
            else:
                assert isinstance(result, c.Closed), (S.rows, budget)
                assert len(result.elements) == counts[-1]


def every_product(graph, gens):
    return [(s, g) for s in range(len(graph)) for g in gens]


def graph_state(graph):
    return len(graph), list(graph.out), list(graph.nxt), list(graph.act_rep)


def test_a_stopped_extend_leaves_the_graph_as_it_was():
    graph = c.BehaviorGraph(c.cyclic_group(2))
    graph.extend(every_product(graph, (0, 1)))
    seeds = every_product(graph, (0, 1))
    before = graph_state(graph)
    graph.fresh_bound = 1
    with pytest.raises(engine.FreshBoundReached):
        graph.extend(seeds)
    assert graph_state(graph) == before
    graph.fresh_bound = None
    graph.extend(seeds)
    assert len(graph) > before[0]


def test_a_behavior_graph_extends_its_own_rows():
    # the one-letter machine of a group is discrete, so it is its own
    # quotient; the graph's out and nxt must still be lists of its own
    S = c.cyclic_group(3)
    graph = c.BehaviorGraph(S)
    assert graph.out is not graph.rep and graph.nxt is not graph.reduced
    rep, reduced = list(graph.rep), list(graph.reduced)
    for _ in range(3):
        graph.extend(every_product(graph, range(S.order)))
    assert len(graph) == 3 + 9 + 27 + 81  # C(S) is free of rank 3
    assert graph.rep == rep and graph.reduced == reduced


def test_behavior_graph_checks_its_indices():
    graph = c.BehaviorGraph(c.cyclic_group(3))
    graph.extend(every_product(graph, range(3)))
    before = graph_state(graph)
    n = len(graph)
    for state in (-1, n, True, 1.0, None):
        with pytest.raises(ValueError):
            graph.element(state)
    bad_seeds = [
        [(0, -1)],
        [(0, 3)],
        [(0, True)],
        [(-1, 0)],
        [(n, 0)],
        [(True, 1)],
        [(1, 0), (True, 1)],
        [(0,)],
    ]
    for seeds in bad_seeds:
        with pytest.raises(ValueError):
            graph.extend(seeds)
    assert graph_state(graph) == before
    assert graph.element(n - 1) == graph.element(n - 1)
    assert graph.extend(iter([(0, 2)])) == graph.extend([(0, 2)])


@pytest.mark.parametrize(
    "S", [c.cyclic_group(3), c.example_ijkf(), c.rectangular_band(2, 2), c.null(3)]
)
def test_an_unmet_fresh_bound_changes_no_extend(S):
    # one more than the new behaviors among the seeds cannot be proven; a
    # lone seed also brings in new pair states that are no seed's behavior
    plain, bounded = c.BehaviorGraph(S), c.BehaviorGraph(S)
    for _ in range(4):
        products = every_product(plain, range(S.order))
        for seeds in (products[-1:], products):
            size = len(plain)
            ids = plain.extend(seeds)
            bounded.fresh_bound = len({i for i in ids if i >= size}) + 1
            assert bounded.extend(seeds) == ids
            assert graph_state(bounded) == graph_state(plain)


def test_graph_states_are_the_elements_in_discovery_order(tables2, tables3):
    # with every element of S a generator, _breadth_first numbers each graph
    # state as its own id after every length, up to 1000 elements
    order4 = c.generate_tables(c.CorpusSpec(4, "up_to_iso"))
    for S in [c.left_zero(1), *tables2, *tables3, *order4]:
        graph = c.BehaviorGraph(S)
        try:
            for index, _, _ in engine._breadth_first(graph, range(S.order)):
                assert list(index) == list(range(len(graph))), S.rows
                graph.fresh_bound = 1001 - len(graph)
        except engine.FreshBoundReached:
            pass


def test_every_product_names_its_first_word_times_the_generator(tables2, tables3):
    # most products are read off the Cayley graphs, not composed: check each
    # against equal, which never builds a behavior graph, up to 300 elements
    order4 = c.generate_tables(c.CorpusSpec(4, "up_to_iso"))
    for S in [c.left_zero(1), *tables2, *tables3, *order4]:
        n = S.order
        for gens in [range(n), *itertools.product(range(n), repeat=2)]:
            graph = c.BehaviorGraph(S)
            try:
                for _, right, parent in engine._breadth_first(graph, gens):
                    graph.fresh_bound = 301 - len(graph)
            except engine.FreshBoundReached:
                pass
            words = []
            for p, i in parent:
                words.append((gens[i],) if p < 0 else words[p] + (gens[i],))
            for e, row in enumerate(right):
                for i, r in enumerate(row):
                    word = words[e] + (gens[i],)
                    assert c.equal(S, words[r], word), (S.rows, tuple(gens), word)


def extend_seeds(monkeypatch, S, budget):
    """The answer of enumerate_semigroup and how many seeds it extended."""
    extend = engine.BehaviorGraph.extend
    seeds = []

    def counted(graph, pairs):
        seeds.append(len(pairs))
        return extend(graph, pairs)

    monkeypatch.setattr(engine.BehaviorGraph, "extend", counted)
    return c.enumerate_semigroup(S, budget), sum(seeds)


def test_extend_composes_only_the_products_whose_suffix_product_is_new(monkeypatch):
    # the closed-wide product of the three H-trivial order-4 classes with
    # the largest C(S) (10, 7 and 7 elements); composing every product of
    # its 256 elements would take 256 * 64 = 16 384 seeds
    classes = c.generate_tables(c.CorpusSpec(4, "up_to_iso_anti"))
    finite = [S for S in classes if c.is_h_trivial(S)]
    S = c.direct_product(c.direct_product(finite[40], finite[54]), finite[53])
    result, seeds = extend_seeds(monkeypatch, S, 10_000)
    assert len(result.elements) == 256
    assert seeds <= 4809


def test_a_free_closure_composes_every_product(monkeypatch):
    # C(Z_3) is free, so every word is a first word: all 3 * 363 products
    # of the lengths 1 to 5 are composed
    result, seeds = extend_seeds(monkeypatch, c.cyclic_group(3), 1000)
    assert result == c.Exceeded(1001)
    assert seeds == 1089


@pytest.mark.parametrize(
    "S, seeds, size",
    [
        (c.rectangular_band(2, 3), 4, 2),
        (c.example_ijkf(), 4, 2),
        (c.rectangular_band(8, 8), 64, 8),
    ],
    ids=["rectangular_band_2_3", "example_ijkf", "rectangular_band_8_8"],
)
def test_repeated_rows_are_composed_once(monkeypatch, S, seeds, size):
    # elements with equal rows name one machine, so each distinct row is
    # one generator: with every element a generator the search composed
    # 12, 8 and 512 seeds
    result, composed = extend_seeds(monkeypatch, S, 10_000)
    assert isinstance(result, c.Closed)
    assert len(result.elements) == size
    assert composed == seeds


@pytest.mark.parametrize(
    "line",
    [
        "4;1 1 1 4;1 2 3 4;1 3 2 4;4 4 4 1",
        "4;1 1 3 3;1 2 3 4;3 3 1 1;3 4 1 2",
        "4;1 1 3 3;2 2 4 4;3 3 1 1;4 4 2 2",
    ],
)
def test_a_capped_count_follows_the_pair_states_spent(line):
    # composing only the products whose suffix product is new spends fewer
    # pair states, so the cap of 60 binds at 60 elements, not at 28; the
    # uncapped answer does not move
    S = c.load_dump_line(line)
    assert c.enumerate_semigroup(S, state_cap=60) == c.Exceeded(60, capped=True)
    assert c.enumerate_semigroup(S) == c.Exceeded(10_001)


def test_graph_outputs_are_the_first_element_with_their_row():
    # tables with repeated rows: a state's output names the first of them
    tables = [
        c.example_ijkf(),
        c.rectangular_band(2, 3),
        c.direct_product(c.left_zero(2), c.right_zero(3)),
    ]
    for S in tables:
        graph = c.BehaviorGraph(S)
        for _ in range(3):
            graph.extend(every_product(graph, range(S.order)))
        for s, m in enumerate(graph.out):
            assert S.rows.index(S.rows[m]) == m
            assert graph.element(s).output[0] == S.rows[m]


def test_the_level_past_the_budget_stops_before_absorbing(monkeypatch):
    extend = engine.BehaviorGraph.extend
    stopped = []

    def recorded(graph, seeds):
        before = graph_state(graph)
        try:
            return extend(graph, seeds)
        except engine.FreshBoundReached:
            stopped.append(len(seeds))
            assert graph_state(graph) == before
            raise

    monkeypatch.setattr(engine.BehaviorGraph, "extend", recorded)
    # lengths 1..4 give 3, 12, 39 and 120 elements
    assert c.enumerate_semigroup(c.cyclic_group(3), 100) == c.Exceeded(101)
    assert stopped == [(39 - 12) * 3]


def test_a_capped_last_level_keeps_its_capped_answer():
    # the length that passes the budget hits the state cap while composing,
    # before any Moore pass could stop it, so the answer stays the capped one
    assert c.enumerate_semigroup(c.cyclic_group(3), 100, state_cap=100) == c.Exceeded(
        39, capped=True
    )
    assert c.enumerate_semigroup(c.cyclic_group(2), 100, state_cap=100) == c.Exceeded(
        62, capped=True
    )


def test_extend_rejects_a_refinement_that_breaks_state_ids(monkeypatch):
    import cayleysg.engine as engine

    refine = engine._refine
    graph = c.BehaviorGraph(c.cyclic_group(2))
    graph.extend([(0, 0), (0, 1)])
    assert len(graph) > 2

    def swap_first_two(*args):
        cls = refine(*args)
        return [{0: 1, 1: 0}.get(k, k) for k in cls]

    monkeypatch.setattr(engine, "_refine", swap_first_two)
    with pytest.raises(RuntimeError):
        graph.extend([(1, 0)])

    def skip_an_id(*args):
        cls = refine(*args)
        return [k if k < len(graph) else k + 1 for k in cls]

    monkeypatch.setattr(engine, "_refine", skip_an_id)
    with pytest.raises(RuntimeError):
        graph.extend([(s, g) for s in range(len(graph)) for g in (0, 1)])


@st.composite
def machines_over_a_minimal_prefix(draw):
    """Output rows, successor rows and k: the first k states are a minimal
    machine, and the later states read its rows and point anywhere."""
    letters = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(0, 2)] * letters)
    m = draw(st.integers(0, 8))
    out = draw(st.lists(row, min_size=m, max_size=m))
    nxt = [draw(st.tuples(*[st.integers(0, m - 1)] * letters)) for _ in range(m)]
    _, out, nxt = engine._minimize(out, nxt)
    k = len(out)
    later = draw(st.integers(0 if k else 1, 8))
    if k:
        row = st.one_of(row, st.sampled_from(out))
    out += draw(st.lists(row, min_size=later, max_size=later))
    nxt += [draw(st.tuples(*[st.integers(0, k + later - 1)] * letters)) for _ in range(later)]
    return out, nxt, k


@settings(max_examples=300, deadline=None)
@given(machines_over_a_minimal_prefix())
@example(([(0,), (1,), (0,)], [(1,), (0,), (1,)], 0))
@example(([(0,), (1,)], [(1,), (0,)], 2))
def test_refine_over_established_states_matches_plain_refinement(machine):
    out, nxt, k = machine
    assert engine._refine(out, nxt, k) == engine._refine(out, nxt)
    assert engine._refine(out[:k], nxt[:k], k) == list(range(k))


@st.composite
def wide_machines_over_a_minimal_prefix(draw):
    """A machine of machines_over_a_minimal_prefix over 1-64 letters: each
    letter reads one of the narrow columns, every column is read, so the
    first k states stay minimal; then a few entries of the later states
    change at random."""
    out, nxt, k = draw(machines_over_a_minimal_prefix())
    width = len(out[0])
    extra = draw(st.lists(st.integers(0, width - 1), max_size=64 - width))
    columns = draw(st.permutations([*range(width), *extra]))
    out = [[row[j] for j in columns] for row in out]
    nxt = [[row[j] for j in columns] for row in nxt]
    for _ in range(draw(st.integers(0, 4)) if k < len(out) else 0):
        s = draw(st.integers(k, len(out) - 1))
        x = draw(st.integers(0, len(columns) - 1))
        if draw(st.booleans()):
            out[s][x] = draw(st.integers(0, 2))
        else:
            nxt[s][x] = draw(st.integers(0, len(out) - 1))
    return [*map(tuple, out)], [*map(tuple, nxt)], k


# machines whose partition turns discrete on a pass that still split a block
DISCRETE_BEFORE_STABLE = [
    # a chain that splits one state per pass
    ([(0,), (0,), (0,), (1,)], [(1,), (2,), (3,), (3,)], 0),
    # a later state leaves the class of an established one on the first pass
    ([(0,), (1,), (0,)], [(1,), (1,), (2,)], 2),
    # two later states split from each other and from the established pair
    ([(0, 0), (1, 1), (0, 0), (0, 0)], [(1, 1), (0, 0), (3, 1), (2, 2)], 2),
    # discrete by output rows alone, before any pass
    ([(0,), (1,), (2,)], [(0,), (0,), (0,)], 1),
]


@settings(max_examples=300, deadline=None)
@given(wide_machines_over_a_minimal_prefix())
@example(DISCRETE_BEFORE_STABLE[0])
@example(DISCRETE_BEFORE_STABLE[1])
@example(DISCRETE_BEFORE_STABLE[2])
@example(DISCRETE_BEFORE_STABLE[3])
def test_refine_matches_textbook_moore_refinement(machine):
    out, nxt, k = machine
    assert engine._refine(out, nxt, k) == oracles.moore_classes(out, nxt)


@pytest.mark.parametrize("machine", DISCRETE_BEFORE_STABLE)
def test_discrete_before_stable_examples_end_discrete(machine):
    out, nxt, k = machine
    assert oracles.moore_classes(out, nxt) == list(range(len(out)))
    assert oracles.moore_classes(out[:k], nxt[:k]) == list(range(k))


def test_extend_matches_every_product_of_a_closed_search(product16):
    # every pair state equals an established behavior: the match path
    for S in (c.example_ijkf(), product16):
        result = c.enumerate_semigroup(S)
        assert isinstance(result, c.Closed)
        graph = engine.BehaviorGraph(S)
        for index, _, _ in engine._breadth_first(graph, range(S.order)):
            pass
        states = list(index)
        size = len(graph)
        found = graph.extend([(state, g) for state in states for g in range(S.order)])
        assert found == [
            states[row[result.generator_map[g]]]
            for row in result.cayley
            for g in range(S.order)
        ]
        assert len(graph) == size


def test_enumerate_is_deterministic():
    S = c.example_ijkf()
    assert c.enumerate_semigroup(S, 100) == c.enumerate_semigroup(S, 100)
    z3 = c.cyclic_group(3)
    assert c.enumerate_semigroup(z3, 50) == c.enumerate_semigroup(z3, 50)


def test_enumerate_tables_are_semigroups(small_tables):
    for S in small_tables:
        result = c.enumerate_semigroup(S, 200)
        if isinstance(result, c.Closed):
            assert c.check_associativity(result.cayley)
            assert len(result.generator_map) == S.order


def test_enumerate_cayley_matches_per_word_canonicalization(small_tables):
    # folding a word through generator_map and the returned table must land
    # on the same element that per-word minimization produces
    for S in small_tables[::6]:
        result = c.enumerate_semigroup(S, 200)
        if not isinstance(result, c.Closed):
            continue
        by_bytes = {e.serialize(): i for i, e in enumerate(result.elements)}
        assert len(by_bytes) == len(result.elements)
        for word in itertools.product(range(S.order), repeat=3):
            index = result.generator_map[word[0]]
            for letter in word[1:]:
                index = result.cayley[index][result.generator_map[letter]]
            assert by_bytes[c.canonicalize(S, word).serialize()] == index


def test_enumerate_elements_act_like_their_words(small_tables):
    for S in small_tables[::8]:
        result = c.enumerate_semigroup(S, 200)
        if not isinstance(result, c.Closed):
            continue
        for g in range(S.order):
            element = result.elements[result.generator_map[g]]
            for prefix in itertools.product(range(S.order), repeat=2):
                assert element.apply(prefix) == oracles.word_apply(
                    S.rows, (g,), prefix
                )


def closed_pool(product16):
    # tables whose letters share columns or act alike on output images
    return [
        c.left_zero(3),
        c.rectangular_band(2, 3),
        c.example_ijkf(),
        c.direct_product(c.left_zero(2), c.right_zero(3)),
        product16,
    ]


def test_enumerate_generators_are_their_canonical_machines(product16):
    for S in closed_pool(product16):
        result = c.enumerate_semigroup(S)
        assert isinstance(result, c.Closed)
        for g in range(S.order):
            assert result.elements[result.generator_map[g]] == c.canonicalize(S, (g,))


def test_enumerate_products_of_generators_act_like_two_letter_words(product16):
    rng = random.Random(6)
    for S in closed_pool(product16):
        n = S.order
        result = c.enumerate_semigroup(S)
        gm = result.generator_map
        prefixes = list(itertools.product(range(n), repeat=2))
        prefixes += [tuple(rng.randrange(n) for _ in range(6)) for _ in range(8)]
        for g in range(n):
            for h in range(n):
                element = result.elements[result.cayley[gm[g]][gm[h]]]
                for prefix in prefixes:
                    assert element.apply(prefix) == oracles.word_apply(
                        S.rows, (g, h), prefix
                    )


# count_distinct_words


def test_count_distinct_words_frozen_cases():
    z2 = c.cyclic_group(2)
    assert [c.count_distinct_words(z2, L) for L in range(1, 6)] == [2, 6, 14, 30, 62]
    assert c.count_distinct_words(c.cyclic_group(3), 4) == 120
    assert c.count_distinct_words(c.symmetric_group(3), 3) == 258
    assert c.count_distinct_words(c.example_ijkf(), 3) == 2
    assert c.count_distinct_words(c.right_zero(3), 6) == 1


def test_count_distinct_words_matches_per_word_canonicalization(small_tables):
    for S in small_tables[::5]:
        for max_len in (1, 2, 3):
            seen = set()
            for length in range(1, max_len + 1):
                for word in itertools.product(range(S.order), repeat=length):
                    seen.add(c.canonicalize(S, word).serialize())
            assert c.count_distinct_words(S, max_len) == len(seen)


def test_count_distinct_words_validation():
    with pytest.raises(ValueError):
        c.count_distinct_words(c.cyclic_group(2), 0)
    with pytest.raises(c.WorkCapError):
        c.count_distinct_words(c.cyclic_group(2), 10, work_cap=100)


def test_count_distinct_words_rejects_a_bool_length_or_cap():
    # True would read as the length 1 and give 3
    S = c.cyclic_group(3)
    for max_len, work_cap in [(True, 100), (2, True), (2.0, 100), (2, None)]:
        with pytest.raises(ValueError):
            c.count_distinct_words(S, max_len, work_cap=work_cap)


def test_enumerate_semigroup_rejects_a_bool_budget_or_state_cap():
    S = c.cyclic_group(1)
    for budget, state_cap in [(True, 100), (10, True), (10, False)]:
        with pytest.raises(ValueError):
            c.enumerate_semigroup(S, budget, state_cap=state_cap)


def test_behavior_graph_rejects_a_bool_state_cap():
    with pytest.raises(ValueError):
        c.BehaviorGraph(c.cyclic_group(2), state_cap=True)


def test_canonicalize_rejects_a_bool_closure_cap():
    # a bool is refused as an argument, not read as a cap of one word
    with pytest.raises(ValueError, match="closure_cap must be an int"):
        c.canonicalize(c.cyclic_group(2), (0, 1), closure_cap=True)


def test_word_total_is_the_sum_of_the_powers():
    for letters in range(6):
        for length in range(9):
            total = sum(letters**l for l in range(1, length + 1))
            assert engine.word_total(letters, length) == total
