"""Group models, cycle notation, and the composition convention."""

from __future__ import annotations

import random
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cayleykit import (
    CapabilityError,
    ModelError,
    adjacent_model,
    apply_word,
    circular_model,
    custom_model,
    cycle_structure,
    cycles_to_perm,
    cyclic_model,
    format_perm,
    is_generating,
    parse_cycles,
    parse_model,
    perm_inverse,
    perm_multiply,
    perm_parity,
    z2_model,
)
from cayleykit import groups
from cayleykit.errors import ElementSyntaxError
from cayleykit.groups import GeneratingSet


def _compose_left_to_right(a, b):
    return tuple(b[x] for x in a)


def _compose_right_to_left(a, b):
    return tuple(a[x] for x in b)


def test_convention_matches_the_commuting_transposition_products():
    # s1*s3*s2 and three rewrites of it must all equal (1,3,4,2) in S4
    s1 = parse_cycles("(1,2)", 4)
    s2 = parse_cycles("(2,3)", 4)
    s3 = parse_cycles("(3,4)", 4)
    s4 = parse_cycles("(4,1)", 4)
    target = parse_cycles("(1,3,4,2)", 4)
    words = [(s1, s3, s2), (s3, s1, s2), (s4, s3, s1), (s4, s1, s3)]
    for word in words:
        acc = tuple(range(4))
        for s in word:
            acc = _compose_left_to_right(acc, s)
        assert acc == target
    # the opposite convention disagrees on the same words
    acc = tuple(range(4))
    for s in words[0]:
        acc = _compose_right_to_left(acc, s)
    assert acc != target
    assert perm_multiply(perm_multiply(s1, s3), s2) == target


@given(st.permutations(range(5)), st.permutations(range(5)), st.permutations(range(5)))
def test_multiply_is_associative(a, b, c):
    a, b, c = tuple(a), tuple(b), tuple(c)
    assert perm_multiply(perm_multiply(a, b), c) == perm_multiply(a, perm_multiply(b, c))


@given(st.permutations(range(6)))
def test_inverse_cancels(a):
    a = tuple(a)
    e = tuple(range(6))
    assert perm_multiply(a, perm_inverse(a)) == e
    assert perm_multiply(perm_inverse(a), a) == e


@given(st.permutations(range(6)), st.permutations(range(6)))
def test_parity_is_a_homomorphism(a, b):
    a, b = tuple(a), tuple(b)
    assert perm_parity(perm_multiply(a, b)) == (perm_parity(a) + perm_parity(b)) % 2


@given(st.integers(1, 7).flatmap(lambda n: st.permutations(range(n))))
def test_parity_and_cycle_structure_match_direct_counts(a):
    a = tuple(a)
    inversions = sum(a[i] > a[j] for i, j in combinations(range(len(a)), 2))
    assert perm_parity(a) == inversions % 2
    lengths = []
    unseen = set(range(len(a)))
    while unseen:
        i = start = min(unseen)
        length = 0
        while True:
            unseen.discard(i)
            length += 1
            i = a[i]
            if i == start:
                break
        if length > 1:
            lengths.append(length)
    assert cycle_structure(a) == tuple(sorted(lengths, reverse=True))


def test_cycle_notation_round_trip():
    rng = random.Random(7)
    for n in range(1, 9):
        for _ in range(20):
            p = tuple(rng.sample(range(n), n))
            assert parse_cycles(format_perm(p), n) == p


def test_parse_cycles_fixtures():
    assert parse_cycles("e", 4) == (0, 1, 2, 3)
    assert parse_cycles("()", 4) == (0, 1, 2, 3)
    assert parse_cycles("(1,2)(3,4)", 4) == (1, 0, 3, 2)
    assert parse_cycles(" (1, 3, 2) ", 3) == (2, 0, 1)
    with pytest.raises(ElementSyntaxError):
        parse_cycles("(1,2", 4)
    with pytest.raises(ElementSyntaxError):
        parse_cycles("(1,5)", 4)
    with pytest.raises(ElementSyntaxError):
        parse_cycles("(1,2)(2,3)", 4)  # repeated point
    with pytest.raises(ElementSyntaxError):
        parse_cycles("(1,1)", 4)


def test_cycle_structure():
    assert cycle_structure(parse_cycles("(1,2,3)(4,5)", 5)) == (3, 2)
    assert cycle_structure(tuple(range(5))) == ()
    assert cycle_structure(parse_cycles("(1,2)", 6)) == (2,)


def test_conjugation_relabels_points():
    m = circular_model(5)
    g = m.parse_element("(1,2)")
    p = m.parse_element("(1,3)")
    assert m.conjugate(g, p) == m.parse_element("(2,3)")
    flip = m.check_element(tuple(4 - i for i in range(5)))  # i -> 6-i in 1-based terms
    assert m.conjugate(m.parse_element("(1,3)"), flip) == m.parse_element("(3,5)")


def test_model_names_round_trip_through_the_descriptor_grammar():
    models = [
        circular_model(5),
        adjacent_model(4),
        custom_model(5, ["(1,2)", "(1,2,3,4,5)"]),
        cyclic_model(9),
        cyclic_model(9, inverse_closed=False),
        z2_model(),
    ]
    for m in models:
        again = parse_model(m.name)
        assert again.name == m.name
        assert again.generating_set.generators == m.generating_set.generators


def test_bad_descriptors_are_rejected():
    for spec in ("nope", "sym-circular:2", "sym-circular:x", "cyclic:1", "sym-custom:4:", "z3"):
        with pytest.raises((ElementSyntaxError, ModelError)):
            parse_model(spec)


def test_generating_set_flags():
    assert circular_model(4).generating_set.inverse_closed
    assert adjacent_model(4).generating_set.inverse_closed
    assert not cyclic_model(5, inverse_closed=False).generating_set.inverse_closed
    assert not custom_model(5, ["(1,2,3)(4,5)", "(1,2,3)", "(1,4)"]).generating_set.inverse_closed


def test_custom_model_validation():
    with pytest.raises(ModelError):
        custom_model(4, [])
    with pytest.raises(ModelError):
        custom_model(4, ["(1,2)", "(1,2)"])
    with pytest.raises(ModelError):
        custom_model(4, ["e"])
    with pytest.raises(ModelError):
        custom_model(4, ["(1,2)"])  # a single transposition generates S2, not S4
    sub = custom_model(4, ["(1,2)"], require_generating=False)
    assert sub.generating_set.generators == (parse_cycles("(1,2)", 4),)


def test_is_generating():
    m5 = circular_model(5)
    assert is_generating(m5, m5.generating_set)
    assert not is_generating(m5, GeneratingSet((parse_cycles("(1,2)", 5),), True))
    assert is_generating(
        m5, GeneratingSet((parse_cycles("(1,2)", 5), parse_cycles("(1,2,3,4,5)", 5)), False)
    )
    with pytest.raises(CapabilityError):
        is_generating(z2_model(), GeneratingSet(((1, 0),), False))


def test_is_generating_uses_order_counting_for_large_n():
    m = adjacent_model(10)
    assert is_generating(m, m.generating_set)
    ten_cycle = cycles_to_perm(10, [tuple(range(1, 11))])
    assert not is_generating(m, GeneratingSet((ten_cycle,), False))


def _closure_size(model, generators):
    """Elements reached from the identity by right multiplication, counted by a plain walk."""
    seen = {model.identity}
    todo = [model.identity]
    while todo:
        x = todo.pop()
        for s in generators:
            y = model.multiply(x, s)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return len(seen)


def _agrees_with_closure(model, generators) -> bool:
    got = is_generating(model, GeneratingSet(tuple(generators), False))
    assert got == (_closure_size(model, generators) == model.order), generators
    return got


def test_is_generating_matches_orbit_closure_on_small_sets():
    s4 = circular_model(4)
    elements = list(s4.elements())
    outcomes = set()
    for size in (1, 2):
        for gens in combinations(elements, size):
            outcomes.add(_agrees_with_closure(s4, gens))
    assert outcomes == {True, False}

    rng = random.Random(17)
    outcomes = set()
    for n in (5, 6):
        model = circular_model(n)
        for _ in range(40):
            gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 3))]
            outcomes.add(_agrees_with_closure(model, gens))
    assert outcomes == {True, False}

    assert not _agrees_with_closure(cyclic_model(6), (2,))
    assert _agrees_with_closure(cyclic_model(5), (2,))
    for n in (5, 6, 12):
        model = cyclic_model(n)
        for size in (1, 2):
            for gens in combinations(range(n), size):
                _agrees_with_closure(model, gens)


def test_schreier_sims_keeps_at_most_n_choose_2_generators_per_level(monkeypatch):
    n = 12
    levels = []
    sift = groups._sims_filter

    def recording(n_, gens):
        gens = list(gens)
        kept = sift(n_, gens)
        levels.append((len(set(gens)), len(kept)))
        return kept

    monkeypatch.setattr(groups, "_sims_filter", recording)
    bound = n * (n - 1) // 2
    rng = random.Random(1212)
    sifted = False
    for _ in range(12):
        gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 4))]
        levels.clear()
        assert factorial(n) % groups._subgroup_order(n, gens) == 0
        assert len(levels) >= 2
        assert max(kept for _, kept in levels) <= bound, levels
        sifted |= max(distinct for distinct, _ in levels) > bound
    assert sifted

    # orders known in closed form
    circ = circular_model(n).generating_set.generators
    assert groups._subgroup_order(n, list(circ)) == factorial(12)
    split = [g for g in adjacent_model(n).generating_set.generators if g[5] != 6]
    assert groups._subgroup_order(n, split) == factorial(6) ** 2  # S6 x S6
    twelve_cycle = cycles_to_perm(n, [tuple(range(1, 13))])
    square = perm_multiply(twelve_cycle, twelve_cycle)
    assert groups._subgroup_order(n, [twelve_cycle, square]) == 12


def test_apply_word_walks_edges_right_to_left_targets():
    m = circular_model(4)
    # letters are generator indices; the word s1 s3 s2 lands on (1,3,4,2)
    assert apply_word(m, m.identity, [0, 2, 1]) == m.parse_element("(1,3,4,2)")
    assert apply_word(m, m.identity, []) == m.identity


def test_cyclic_and_z2_element_checks():
    c = cyclic_model(6)
    assert c.multiply(4, 5) == 3
    assert c.inverse(2) == 4
    with pytest.raises(ModelError):
        c.check_element(6)
    with pytest.raises(ModelError):
        c.check_element(True)
    z = z2_model()
    assert z.multiply((1, 2), (-3, 4)) == (-2, 6)
    assert z.inverse((5, -7)) == (-5, 7)
    with pytest.raises(ModelError):
        z.check_element((1, 2, 3))
    with pytest.raises(ElementSyntaxError):
        z.parse_element("(1;2)")
    assert z.parse_element("(-3, 4)") == (-3, 4)
    assert not z.is_finite


def test_symmetric_model_bounds():
    with pytest.raises(ModelError):
        circular_model(2)
    with pytest.raises(ModelError):
        adjacent_model(1)
    with pytest.raises(ModelError):
        circular_model(13)
