import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from poset_oracles import fac_order, transitive_reduction

from nakayama.algebra import (
    ZERO,
    NakayamaAlgebra,
    make_cyclic,
    make_linear,
    quotient_by_idempotent,
    reject,
    rejection_chain,
)
from nakayama.errors import InvalidPoset, InvariantViolation
from nakayama.modcat import Indec
from nakayama.poset import (
    HasseQuiver,
    Plus,
    Poset,
    classify_quotient_pairs,
    double_hasse,
    double_poset,
    geq,
    hasse_by_rejection,
    hasse_direct,
    lift_through_rejection,
    mutations,
    pair_label,
    poset_isomorphic,
    stt_poset,
)
from nakayama.tautilt import enumerate_stt
from nakayama.verify import cyclic_algebra, valid_cyclic_series, valid_linear_series

L33 = make_cyclic(3, 3)


def _pair(alg, module):
    from nakayama.tautilt import make_pair

    return make_pair(alg, tuple(Indec(*s) for s in module))


def test_order_examples():
    pairs = enumerate_stt(L33)
    top = _pair(L33, [(1, 3), (2, 3), (3, 3)])
    bottom = _pair(L33, [])
    for p in pairs:
        assert geq(L33, top, p)
        assert geq(L33, p, bottom)
    # one covering edge transcribed from the order diagram
    upper = _pair(L33, [(2, 1), (2, 3), (3, 3)])
    lower = _pair(L33, [(2, 1), (3, 2), (3, 3)])
    assert geq(L33, upper, lower) and not geq(L33, lower, upper)


def test_order_is_antisymmetric():
    pairs = enumerate_stt(L33)
    for p in pairs:
        for q in pairs:
            if geq(L33, p, q) and geq(L33, q, p):
                assert p == q


def test_hasse_direct_counts():
    h = hasse_direct(L33)
    assert len(h.vertices) == 20
    assert len(h.arrows) == 30
    assert set(h.degree_sequence()) == {3}


def test_hasse_small_algebras():
    h = hasse_direct(make_linear([1]))
    assert len(h.vertices) == 2 and len(h.arrows) == 1
    h0 = hasse_direct(ZERO)
    assert len(h0.vertices) == 1 and h0.arrows == ()


def test_unique_top_and_bottom():
    for alg in (L33, make_cyclic(2, 4), make_linear([1, 2, 2])):
        p = stt_poset(alg)
        k = len(p.elements)
        full = (1 << k) - 1
        tops = [i for i in range(k) if p.down[i] == full]
        bottoms = [i for i in range(k)
                   if all(p.down[j] >> i & 1 for j in range(k))]
        assert len(tops) == 1 and len(bottoms) == 1
        assert p.elements[tops[0]].killed == ()
        assert p.elements[bottoms[0]].module == ()


def _order_test_algebras():
    algs = [make_cyclic(n, r) for n, r in ((4, 2), (5, 3), (3, 3), (4, 4), (2, 4), (3, 5))]
    algs += [cyclic_algebra(ks) for ks in valid_cyclic_series(3, 4) if len(set(ks)) > 1]
    algs += [make_linear(list(ks)) for ks in valid_linear_series(4, 4)]
    algs.append(quotient_by_idempotent(make_linear([1, 2, 3, 4]), {2}))
    algs.append(ZERO)
    return algs


def test_bitset_order_and_covers_match_definition():
    for alg in _order_test_algebras():
        pairs = enumerate_stt(alg)
        poset = stt_poset(alg, pairs)
        oracle = fac_order(alg, pairs)
        assert poset.down == oracle.down, alg.loewy
        assert poset.hasse() == transitive_reduction(oracle)


def test_hasse_direct_rechecks_arrows_against_definition(monkeypatch):
    # a chain in enumeration order is a valid poset but not the Fac order
    def chain(alg):
        pairs = enumerate_stt(alg)
        return Poset(pairs, [(2 << i) - 1 for i in range(len(pairs))])

    monkeypatch.setattr("nakayama.poset.stt_poset", chain)
    with pytest.raises(InvalidPoset, match="not in the Fac order"):
        hasse_direct(L33)


def test_mutation_example():
    full = _pair(L33, [(1, 3), (2, 3), (3, 3)])
    nbrs = mutations(L33, full)
    assert _pair(L33, [(2, 1), (2, 3), (3, 3)]) in nbrs
    assert len(nbrs) == 3


def test_mutation_involutive():
    universe = enumerate_stt(L33)
    for p in universe:
        for q in mutations(L33, p, universe):
            assert p in mutations(L33, q, universe)


def test_hasse_neighbors_are_mutations():
    alg = make_cyclic(4, 4)
    h = hasse_direct(alg)
    universe = list(h.vertices)
    adjacency = {v: set() for v in universe}
    for a, b in h.arrows:
        adjacency[universe[a]].add(universe[b])
        adjacency[universe[b]].add(universe[a])
    for v in universe:
        assert adjacency[v] == set(mutations(alg, v, universe))


def test_hasse_degree_equals_vertex_count():
    for alg in (make_cyclic(2, 3), make_cyclic(4, 2), make_linear([1, 2, 3])):
        h = hasse_direct(alg)
        assert set(h.degree_sequence()) == {alg.n}


def test_double_single_vertex():
    p = Poset(["w"], [1])
    d = double_poset(p, {0})
    assert d.elements == ["w", Plus("w")]
    h = d.hasse()
    assert h.labelled_arrows() == {(Plus("w"), "w")}
    hq = double_hasse(p.hasse(), {0})
    assert hq.same_labelled_graph(h)


def test_double_empty_set_is_identity():
    p = Poset(["a", "b"], [0b01, 0b11])
    assert double_poset(p, set()).elements == p.elements
    assert double_hasse(p.hasse(), set()) == p.hasse()


def test_double_diamond_sketch():
    # four-vertex sketch: w1 -> n1 -> n2 -> w2 with a direct w1 -> w2
    q = HasseQuiver(("w1", "n1", "n2", "w2"), ((0, 1), (0, 3), (1, 2), (2, 3)))
    d = double_hasse(q, {1, 2})
    assert d.labelled_arrows() == {
        ("w1", "w2"),
        ("w1", Plus("n1")),
        (Plus("n1"), "n1"),
        (Plus("n1"), Plus("n2")),
        ("n1", "n2"),
        (Plus("n2"), "n2"),
        ("n2", "w2"),
    }
    assert len(d.vertices) == 6


def _random_poset(rng, k):
    down = [1 << i for i in range(k)]
    for j in range(k):
        for i in range(j):
            if rng.random() < 0.3:
                down[j] |= down[i]
    return Poset(list(range(k)), down)


def _convexify(poset, chosen):
    k = len(poset.elements)
    chosen = set(chosen)
    changed = True
    while changed:
        changed = False
        for x in range(k):
            if x in chosen:
                continue
            above = any(poset.down[n] >> x & 1 for n in chosen)
            below = any(poset.down[x] >> n & 1 for n in chosen)
            if above and below:
                chosen.add(x)
                changed = True
    return chosen


def test_doubling_identity_on_random_posets():
    rng = random.Random(2024)
    for _ in range(200):
        k = rng.randint(1, 12)
        p = _random_poset(rng, k)
        chosen = _convexify(p, {i for i in range(k) if rng.random() < 0.35})
        lhs = double_poset(p, chosen).hasse()
        rhs = double_hasse(p.hasse(), chosen)
        assert lhs.same_labelled_graph(rhs)


def test_covers_match_transitive_reduction_on_random_posets():
    rng = random.Random(2024)
    for _ in range(200):
        k = rng.randint(1, 12)
        p = _random_poset(rng, k)
        chosen = _convexify(p, {i for i in range(k) if rng.random() < 0.35})
        for q in (p, double_poset(p, chosen)):
            assert q.hasse() == transitive_reduction(q)


@pytest.mark.parametrize(
    "elements, down, message",
    [
        (["a", "b"], [0b01], "1 down-sets for 2 elements"),
        (["a", "b"], [0b01, 0b01], "not reflexive at 'b'"),
        (["a", "b"], [0b11, 0b11], "not antisymmetric: 'a' and 'b'"),
        (["a", "b", "c"], [0b001, 0b011, 0b110], "not transitive below 'c'"),
        (["a"], [0b11], "has bits outside the elements"),
        (["a"], [-1], "has bits outside the elements"),
    ],
)
def test_invalid_poset_is_a_typed_error(elements, down, message):
    with pytest.raises(InvalidPoset, match=message):
        Poset(elements, down)


_OPTIMIZED_CHECK = """
import sys
from nakayama.errors import InvalidPoset, InvariantViolation
from nakayama.poset import Poset
if not sys.flags.optimize:
    sys.exit("not running under -O")
try:
    Poset(["a", "b"], [3, 3])
except InvalidPoset:
    sys.exit(0)
sys.exit("accepted a relation that is not antisymmetric")
"""


def test_poset_invariants_hold_under_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECK],
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        timeout=120,
    )


_OPTIMIZED_LIFT_CHECK = """
import sys
from nakayama import tautilt
from nakayama.algebra import make_cyclic
from nakayama.errors import InvariantViolation
from nakayama.poset import hasse_by_rejection, mutations
if not sys.flags.optimize:
    sys.exit("not running under -O")
alg = make_cyclic(2, 2)
universe = tautilt.enumerate_stt(alg)
try:
    mutations(alg, universe[0], universe + universe)
    sys.exit("accepted a slot with two other completions")
except InvariantViolation:
    pass
tautilt.is_support_tau_tilting = lambda alg, module: None
try:
    hasse_by_rejection(alg)
except InvariantViolation:
    sys.exit(0)
sys.exit("a failed lift went into the quiver")
"""


def test_lift_and_mutation_invariants_hold_under_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_LIFT_CHECK],
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        timeout=120,
    )


def test_mutation_without_completion_raises():
    pairs = enumerate_stt(L33)
    with pytest.raises(InvariantViolation):
        mutations(L33, pairs[0], pairs[:1])


@pytest.mark.parametrize(
    "alg",
    [
        make_cyclic(3, 4),
        make_linear([1, 2, 2]),
        quotient_by_idempotent(make_linear([1, 2, 3, 4]), {2}),
    ],
    ids=["cyclic(3,4)", "linear(1,2,2)", "linear(1..4)/{2}"],
)
def test_one_rejection_step_gives_the_direct_quiver(alg):
    # the lifts, placed on the quotient's quiver doubled along class 2,
    # are the Hasse quiver of the algebra label for label
    from nakayama.algebra import projective_injectives

    j = min(projective_injectives(alg))
    sub = hasse_direct(reject(alg, j))
    n2, lifts = lift_through_rejection(alg, j, sub.vertices)
    doubled = double_hasse(sub, set(n2))
    assert len(lifts) == len(doubled.vertices)
    assert HasseQuiver(tuple(lifts), doubled.arrows).same_labelled_graph(hasse_direct(alg))


def test_classify_semisimple_stage():
    # the 3-vertex stage with one arrow: rejecting its projective-injective
    # at the arrow source leaves the semisimple algebra, and exactly the
    # pairs containing the new simple summand while avoiding its socle
    # vertex sit in the middle class
    alg = NakayamaAlgebra((1, 2, 3), {3: 2}, {1: 1, 2: 1, 3: 2})
    quotient_pairs = enumerate_stt(reject(alg, 3))
    n1, n2, n3 = classify_quotient_pairs(alg, 3, quotient_pairs)
    marked = {frozenset(p.module) for p in (quotient_pairs[i] for i in n2)}
    assert marked == {
        frozenset({Indec(3, 1)}),
        frozenset({Indec(1, 1), Indec(3, 1)}),
    }
    _, lifted = lift_through_rejection(alg, 3, quotient_pairs)
    assert sorted(lifted, key=lambda p: p.module) == enumerate_stt(alg)
    # the adjoined copies: pairs containing the projective with its radical
    doubled = {p for p in lifted if {Indec(3, 2), Indec(3, 1)} <= set(p.module)}
    assert {frozenset(p.module) for p in doubled} == {
        frozenset({Indec(3, 2), Indec(3, 1)}),
        frozenset({Indec(3, 2), Indec(3, 1), Indec(1, 1)}),
    }


def test_classify_empty_middle_class_keeps_size():
    # when the radical of the rejected projective reaches its own socle
    # vertex, nothing doubles
    alg = make_cyclic(2, 3)
    quotient_pairs = enumerate_stt(reject(alg, 1))
    n1, n2, n3 = classify_quotient_pairs(alg, 1, quotient_pairs)
    assert n2 == []
    assert len(enumerate_stt(alg)) == len(quotient_pairs)


def test_simple_rejection_doubles():
    alg = make_cyclic(1, 1)
    quotient_pairs = enumerate_stt(ZERO)
    n1, n2, n3 = classify_quotient_pairs(alg, 1, quotient_pairs)
    assert (n1, n2, n3) == ([], [0], [])  # the empty pair is middle-class
    _, lifted = lift_through_rejection(alg, 1, quotient_pairs)
    assert len(lifted) == 2 * len(quotient_pairs)


def test_lift_count_formula():
    from nakayama.algebra import projective_injectives

    for alg in [make_cyclic(3, 3), make_cyclic(3, 4), make_linear([1, 2, 2])]:
        j = min(projective_injectives(alg))
        quotient_pairs = enumerate_stt(reject(alg, j))
        n1, n2, n3 = classify_quotient_pairs(alg, j, quotient_pairs)
        assert len(enumerate_stt(alg)) == len(quotient_pairs) + len(n2)


def test_rejection_equals_direct_small_grid():
    for n in range(1, 4):
        for r in range(1, 5):
            alg = make_cyclic(n, r)
            assert hasse_by_rejection(alg) == hasse_direct(alg)
        for ks in valid_linear_series(n, 4):
            alg = make_linear(list(ks))
            assert hasse_by_rejection(alg) == hasse_direct(alg)


def test_rejection_on_disconnected():
    alg = quotient_by_idempotent(make_linear([1, 2, 3, 4]), {2})
    assert hasse_by_rejection(alg) == hasse_direct(alg)


def test_rejection_on_mixed_cyclic_series():
    for series in ((2, 3, 3), (3, 4, 4), (2, 2, 3, 3), (4, 5, 5, 5), (3, 4, 4, 4, 4)):
        alg = cyclic_algebra(series)
        assert hasse_by_rejection(alg) == hasse_direct(alg)


def test_rejection_matches_direct_at_scale():
    # six vertices, Loewy length six: 924 pairs, 2772 covering arrows
    alg = make_cyclic(6, 6)
    h = hasse_direct(alg)
    assert len(h.vertices) == 924 and len(h.arrows) == 2772
    assert set(h.degree_sequence()) == {6}
    assert hasse_by_rejection(alg) == h


def test_rejection_matches_direct_at_seven():
    # seven vertices, Loewy length seven: 3432 pairs, 12012 covering arrows
    alg = make_cyclic(7, 7)
    h = hasse_direct(alg)
    assert len(h.vertices) == 3432 and len(h.arrows) == 12012
    assert hasse_by_rejection(alg) == h


def test_rejection_result_is_pick_independent():
    from nakayama.algebra import projective_injectives

    def largest_picks(alg):
        # reject at the largest projective-injective while the algebra
        # stays connected
        picks = []
        while not alg.is_zero() and len(alg.component_vertices()) == 1:
            j = max(projective_injectives(alg))
            picks.append(j)
            alg = reject(alg, j)
        return picks

    for alg in (make_cyclic(3, 4), make_cyclic(4, 4), make_cyclic(2, 5)):
        picks = largest_picks(alg)
        assert hasse_by_rejection(alg, picks=picks) == hasse_direct(alg)


def test_published_chain_and_isomorphism():
    chain = rejection_chain(make_cyclic(3, 4), picks=[1, 2, 3, 1, 2, 1, 3, 2, 3])
    semisimple = chain[9][0]
    assert sorted(semisimple.loewy.values()) == [1, 1, 1]
    p34 = stt_poset(make_cyclic(3, 4))
    p33 = stt_poset(make_cyclic(3, 3))
    iso = poset_isomorphic(p34, p33)
    assert iso is not None
    for a in p34.elements:
        for b in p34.elements:
            assert p34.le(a, b) == p33.le(iso[a], iso[b])
    # every stage of the chain with all Loewy lengths >= 3 has the same poset
    reference = p33
    for alg, _ in chain[:4]:
        assert min(alg.loewy.values()) >= 3
        assert poset_isomorphic(stt_poset(alg), reference) is not None


def test_isomorphism_negative_and_self():
    chain = Poset(list("abc"), [0b001, 0b011, 0b111])
    antichain = Poset(list("xyz"), [0b001, 0b010, 0b100])
    assert poset_isomorphic(chain, antichain) is None
    assert poset_isomorphic(chain, chain) is not None
    assert poset_isomorphic(antichain, antichain) is not None


def test_forbidden_class_transitions():
    # with Q the rejected projective and R its radical, the strict order
    # never climbs from the plain classes into the Q-classes
    from nakayama.algebra import projective_injectives

    algs = [make_cyclic(n, r) for n in range(1, 5) for r in range(1, 5)]
    algs += [make_linear(list(ks)) for ks in valid_linear_series(3, 4)]
    for alg in algs:
        j = min(projective_injectives(alg))
        q = Indec(j, alg.loewy[j])
        radical = Indec(j, alg.loewy[j] - 1) if alg.loewy[j] > 1 else None
        pairs = enumerate_stt(alg)

        def cls(p):
            has_q = q in p.module
            has_r = radical is None or radical in p.module
            if has_q and has_r:
                return "2+"
            if has_q:
                return "3"
            if has_r:
                return "2-"
            return "1"

        forbidden = {("1", "2-"), ("1", "2+"), ("1", "3"),
                     ("2-", "3"), ("2+", "3"), ("2-", "2+")}
        for p in pairs:
            for s in pairs:
                if p != s and geq(alg, p, s):
                    assert (cls(p), cls(s)) not in forbidden


def test_pair_label_and_dot():
    from nakayama.poset import hasse_dot, hasse_json

    full = _pair(L33, [(1, 3), (2, 3), (3, 3)])
    assert pair_label(L33, full) == "1/3/2 + 2/1/3 + 3/2/1"
    empty = _pair(L33, [])
    assert pair_label(L33, empty) == "0 [1,2,3]"
    h = hasse_direct(L33)
    dot = hasse_dot(L33, h)
    assert dot.count("->") == 30
    assert "1/3/2 + 2/1/3 + 3/2/1" in dot
    js = hasse_json(h)
    assert js.startswith('{"arrows"')
