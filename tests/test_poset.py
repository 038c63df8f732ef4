import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from module_oracles import all_indecs
from poset_oracles import (
    Plus,
    covers_by_full_or,
    degree_sequence,
    double_hasse_by_scan,
    double_labelled,
    double_poset,
    fac_order,
    flat_arrows,
    geq_by_fac,
    hasse_dot_one,
    hasse_json_dumps,
    in_arrows,
    labelled_arrows,
    le,
    lift_check_by_full_scan,
    mutations_scan,
    pair_label_one,
    pairs_json_dumps,
    rotation_difference,
    same_labelled_graph,
    transitive_reduction,
)

from nakayama import algebra, poset, tautilt
from nakayama.algebra import (
    ZERO,
    NakayamaAlgebra,
    clamps,
    make_cyclic,
    make_linear,
    projective_injectives,
    quotient_by_idempotent,
    reject,
    rejection_chain,
)
from nakayama.cli import main
from nakayama.errors import (
    InvalidModule,
    InvalidPoset,
    InvariantViolation,
    NotInDomain,
    NotProjectiveInjective,
)
from nakayama.modcat import BitIndex, Indec, bit_index, bits, comp_factors
from nakayama.poset import (
    HasseQuiver,
    Poset,
    classify_quotient_pairs,
    double_hasse,
    geq,
    hasse_by_rejection,
    hasse_direct,
    hasse_dot,
    hasse_json,
    lift_through_rejection,
    mutations,
    pair_label,
    pair_labels,
    pairs_json,
    rejection_isomorphism,
    stt_poset,
)
from nakayama.tautilt import SttPair, enumerate_stt, make_pair
from nakayama.verify import cyclic_algebra, valid_cyclic_series, valid_linear_series

L33 = make_cyclic(3, 3)


def _pair(alg, module):
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
    assert set(degree_sequence(h)) == {3}


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
        poset = stt_poset(alg)
        oracle = fac_order(alg, poset.elements)
        assert poset.down == oracle.down, alg.loewy
        assert poset.hasse() == transitive_reduction(oracle)


def test_geq_matches_the_fac_oracle():
    for alg in _order_test_algebras():
        pairs = enumerate_stt(alg)
        for m in pairs:
            for n in pairs:
                assert geq(alg, m, n) == geq_by_fac(alg, m, n), (alg, m, n)


def test_geq_raises_on_an_invalid_summand_of_the_lower_pair():
    top = _pair(L33, [(1, 3), (2, 3), (3, 3)])
    for bad in (Indec(1, 4), Indec(9, 1), Indec(2, 0)):
        lower = SttPair((Indec(1, 1), bad), ())
        for order in (geq, geq_by_fac):
            with pytest.raises(InvalidModule):
                order(L33, top, lower)


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
    for p in enumerate_stt(L33):
        for q in mutations(L33, p):
            assert p in mutations(L33, q)


def test_hasse_neighbors_are_mutations():
    alg = make_cyclic(4, 4)
    h = hasse_direct(alg)
    universe = list(h.vertices)
    adjacency = {v: set() for v in universe}
    for a, b in h.arrows:
        adjacency[universe[a]].add(universe[b])
        adjacency[universe[b]].add(universe[a])
    for v in universe:
        assert adjacency[v] == set(mutations(alg, v))


MUTATION_ALGEBRAS = (
    [cyclic_algebra(list(ks)) for n in range(1, 5) for ks in valid_cyclic_series(n, 5)]
    + [make_linear(list(ks)) for n in range(1, 6) for ks in valid_linear_series(n, 5)]
    + [
        quotient_by_idempotent(make_linear([1, 2, 3, 4]), {2}),
        quotient_by_idempotent(make_cyclic(5, 5), {2, 4}),
        make_cyclic(4, 1),
        make_cyclic(5, 5),
        make_cyclic(6, 6),
    ]
)


def test_mutations_match_scan_oracle():
    # 242 algebras, 11 076 pairs
    for alg in MUTATION_ALGEBRAS:
        pairs = enumerate_stt(alg)
        for p in pairs:
            assert mutations(alg, p) == mutations_scan(alg, p, pairs), (alg, p)


def test_mutations_reject_bad_pairs():
    a3 = make_linear([1, 2, 3])
    s1 = (Indec(1, 1),)
    assert mutations(a3, SttPair(s1, (2, 3)))
    for pair, error in [
        (SttPair(s1, ()), NotInDomain),  # not support tau-tilting
        (SttPair(s1, (2, 3, 9)), NotInDomain),  # 9 is not a vertex
        (SttPair(s1, (2,)), NotInDomain),  # wrong killed set
        (SttPair((Indec(7, 1),), (2, 3)), InvalidModule),  # not a module
    ]:
        with pytest.raises(error):
            mutations(a3, pair)


def test_mutations_read_the_graph_of_the_enumeration(monkeypatch):
    # the compatibility graph is built once per algebra, by the
    # enumeration, and kept on its BitIndex for every later call
    alg = make_cyclic(4, 4)
    pairs = enumerate_stt(alg)
    graph = tautilt.compatibility_graph(alg)
    assert tautilt.modcat.bit_index(alg).graph is graph
    monkeypatch.setattr(tautilt.modcat, "all_tau_rigid_indecs", None)  # a rebuild would call it
    assert enumerate_stt(alg) == pairs
    assert all(len(mutations(alg, p)) == alg.n for p in pairs)
    assert tautilt.compatibility_graph(alg) is graph


def test_hasse_degree_equals_vertex_count():
    for alg in (make_cyclic(2, 3), make_cyclic(4, 2), make_linear([1, 2, 3])):
        h = hasse_direct(alg)
        assert set(degree_sequence(h)) == {alg.n}


def test_double_single_vertex():
    p = Poset(["w"], [1])
    d = double_poset(p, {0})
    assert d.elements == ["w", Plus("w")]
    h = d.hasse()
    assert labelled_arrows(h) == {(Plus("w"), "w")}
    hq = double_labelled(p.hasse(), {0})
    assert same_labelled_graph(hq, h)


def test_double_empty_set_is_identity():
    p = Poset(["a", "b"], [0b01, 0b11])
    assert double_poset(p, set()).elements == p.elements
    assert double_labelled(p.hasse(), set()) == p.hasse()


def test_double_diamond_sketch():
    # four-vertex sketch: w1 -> n1 -> n2 -> w2 with a direct w1 -> w2
    q = HasseQuiver(("w1", "n1", "n2", "w2"), ((0, 1), (0, 3), (1, 2), (2, 3)))
    d = double_labelled(q, {1, 2})
    assert labelled_arrows(d) == {
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
        rhs = double_labelled(p.hasse(), chosen)
        assert same_labelled_graph(lhs, rhs)



def test_in_arrow_doubling_matches_the_arrow_scan_on_random_posets():
    # the doubled in-arrow table has the arrows of a scan of every arrow,
    # and the entry of every vertex that is not chosen is left as it was
    rng = random.Random(2024)
    for _ in range(200):
        k = rng.randint(1, 12)
        p = _random_poset(rng, k)
        arrows = p.hasse().arrows
        chosen = _convexify(p, {i for i in range(k) if rng.random() < 0.35})
        into = in_arrows(k, arrows)
        before = list(into)
        doubled = double_hasse(into, k, chosen)
        assert flat_arrows(doubled) == sorted(double_hasse_by_scan(arrows, k, chosen))
        assert all(doubled[b] is before[b] for b in range(k) if b not in chosen)

def test_covers_match_transitive_reduction_on_random_posets():
    rng = random.Random(2024)
    for _ in range(200):
        k = rng.randint(1, 12)
        p = _random_poset(rng, k)
        chosen = _convexify(p, {i for i in range(k) if rng.random() < 0.35})
        for q in (p, double_poset(p, chosen)):
            assert q.hasse() == transitive_reduction(q)


def _relabelled(rng, down):
    """The same order with its elements put in a random index order."""
    k = len(down)
    perm = list(range(k))
    rng.shuffle(perm)
    moved = [0] * k
    for i, mask in enumerate(down):
        moved[perm[i]] = sum(1 << perm[j] for j in bits(mask))
    return moved


def _random_relation(rng, trial):
    """Down-set masks on 1..9 elements: a random reflexive relation, a
    random poset, or a random poset with one off-diagonal bit flipped."""
    k = rng.randint(1, 9)
    if trial % 3 == 0:
        return [rng.getrandbits(k) | 1 << i for i in range(k)]
    down = _relabelled(rng, _random_poset(rng, k).down)
    if trial % 3 == 2 and k > 1:
        i, j = rng.sample(range(k), 2)
        down[i] ^= 1 << j
    return down


def test_check_matches_the_full_or_oracle_on_random_relations():
    rng = random.Random(21)
    accepted = rejected = 0
    for trial in range(12000):
        down = _random_relation(rng, trial)
        elements = list(range(len(down)))
        try:
            covers = covers_by_full_or(elements, down)
        except InvalidPoset:
            with pytest.raises(InvalidPoset):
                Poset(elements, down)
            rejected += 1
            continue
        arrows = tuple((i, j) for i, mask in enumerate(covers) for j in bits(mask))
        assert Poset(elements, down).hasse().arrows == arrows, down
        accepted += 1
    assert accepted > 5000 and rejected > 4000


def test_check_skips_what_lies_below_a_visited_element():
    # a chain listed top first: the walk visits one element below each
    # element, where ORing every strict down-set takes k(k-1)/2 ORs
    k = 1000
    every = (1 << k) - 1
    down = [every >> i << i for i in range(k)]
    elements = list(range(k))

    def best(check, runs):
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            check(elements, down)
            times.append(time.perf_counter() - start)
        return min(times)

    assert Poset(elements, down).hasse().arrows == tuple((i, i + 1) for i in range(k - 1))
    assert 10 * best(Poset, 5) < best(covers_by_full_or, 1)


@pytest.mark.parametrize(
    "elements, down, message",
    [
        (["a", "b"], [0b01], "1 down-sets for 2 elements"),
        (["a", "b"], [0b01, 0b01], "not reflexive at 'b'"),
        (["a", "b"], [0b11, 0b11], "not antisymmetric: 'a' and 'b'"),
        (["a", "b", "c"], [0b001, 0b011, 0b110], "not transitive below 'c'"),
        (["a"], [0b11], "has bits outside the elements"),
        (["a"], [-1], "has bits outside the elements"),
        (["a"], [1.0], "down-set of 'a' is a float, not an int"),
        (["a"], ["1"], "down-set of 'a' is a str, not an int"),
        (["a", "b"], [1, None], "down-set of 'b' is a NoneType, not an int"),
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
for down in ([3, 3], [1, 1.0], [1, None]):
    try:
        Poset(["a", "b"], down)
    except InvalidPoset:
        continue
    sys.exit(f"accepted the down-sets {down}")
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
from nakayama import poset, tautilt
from nakayama.algebra import make_cyclic
from nakayama.errors import InvariantViolation
from nakayama.poset import hasse_by_rejection, mutations
if not sys.flags.optimize:
    sys.exit("not running under -O")
alg = make_cyclic(2, 2)
pair = tautilt.enumerate_stt(alg)[0]
# with every node adjacent to every other, each node outside the pair
# completes any slot
real_graph = tautilt.compatibility_graph
def complete_graph(alg):
    nbr, nodes, labels = real_graph(alg)
    return [nodes & ~(1 << p) for p in range(len(nbr))], nodes, labels
tautilt.compatibility_graph = complete_graph
try:
    mutations(alg, pair)
    sys.exit("accepted a slot with several other completions")
except InvariantViolation:
    pass
tautilt.compatibility_graph = real_graph
# a wrong socle vertex puts pairs in the wrong class: a stage lift fails
# while is_support_tau_tilting is intact
real_socle = poset.socle_vertex_of_projective
poset.socle_vertex_of_projective = lambda alg, j: alg.next_down.get(real_socle(alg, j), j)
try:
    hasse_by_rejection(alg)
    sys.exit("a failed stage lift went into the quiver")
except InvariantViolation:
    pass
poset.socle_vertex_of_projective = real_socle
# the final decode is checked over the input algebra
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


def test_mutation_without_completion_raises(monkeypatch):
    # with no edge in the pair graph no slot has another completion
    pairs = enumerate_stt(L33)
    real = tautilt.compatibility_graph

    def edgeless(alg):
        nbr, nodes, labels = real(alg)
        return [0] * len(nbr), nodes, labels

    monkeypatch.setattr(tautilt, "compatibility_graph", edgeless)
    with pytest.raises(InvariantViolation):
        mutations(L33, pairs[0])


def _masks(index, pairs):
    return [index.encode(p.module) for p in pairs]


def _pairs(index, masks):
    return [make_pair(index.alg, index.decode(mask)) for mask in masks]


def _support(index, mask):
    supp = 0
    for p in bits(mask):
        supp |= index.supp[p]
    return supp


def _lift(index, j, masks):
    """lift_through_rejection with the supports read off the index:
    (n2, lifts)."""
    supports = [_support(index, m) for m in masks]
    n2, lifts, _ = lift_through_rejection(index.alg, index, j, masks, supports)
    return n2, lifts


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
    j = min(projective_injectives(alg))
    sub = hasse_direct(reject(alg, j))
    index = BitIndex(alg)
    n2, lifts = _lift(index, j, _masks(index, sub.vertices))
    doubled = double_labelled(sub, set(n2))
    assert len(lifts) == len(doubled.vertices)
    lifted = HasseQuiver(tuple(_pairs(index, lifts)), doubled.arrows)
    assert same_labelled_graph(lifted, hasse_direct(alg))


def test_classify_semisimple_stage():
    # the 3-vertex stage with one arrow: rejecting its projective-injective
    # at the arrow source leaves the semisimple algebra, and exactly the
    # pairs containing the new simple summand while avoiding its socle
    # vertex sit in the middle class
    alg = NakayamaAlgebra((1, 2, 3), {3: 2}, {1: 1, 2: 1, 3: 2})
    quotient_pairs = enumerate_stt(reject(alg, 3))
    index = BitIndex(alg)
    masks = _masks(index, quotient_pairs)
    n1, n2, n3 = classify_quotient_pairs(alg, index, 3, masks)
    marked = {frozenset(p.module) for p in (quotient_pairs[i] for i in n2)}
    assert marked == {
        frozenset({Indec(3, 1)}),
        frozenset({Indec(1, 1), Indec(3, 1)}),
    }
    _, lifts = _lift(index, 3, masks)
    lifted = _pairs(index, lifts)
    assert sorted(lifted, key=lambda p: p.module) == enumerate_stt(alg)
    # the adjoined copies: pairs containing the projective Q and Q/soc Q
    doubled = {p for p in lifted if {Indec(3, 2), Indec(3, 1)} <= set(p.module)}
    assert {frozenset(p.module) for p in doubled} == {
        frozenset({Indec(3, 2), Indec(3, 1)}),
        frozenset({Indec(3, 2), Indec(3, 1), Indec(1, 1)}),
    }


def test_classify_empty_middle_class_keeps_size():
    # when Q/soc Q, for Q the rejected projective, has the socle vertex
    # of Q among its composition factors, nothing doubles
    alg = make_cyclic(2, 3)
    quotient_pairs = enumerate_stt(reject(alg, 1))
    index = BitIndex(alg)
    n1, n2, n3 = classify_quotient_pairs(alg, index, 1, _masks(index, quotient_pairs))
    assert n2 == []
    assert len(enumerate_stt(alg)) == len(quotient_pairs)


def test_simple_rejection_doubles():
    alg = make_cyclic(1, 1)
    quotient_pairs = enumerate_stt(ZERO)
    index = BitIndex(alg)
    masks = _masks(index, quotient_pairs)
    n1, n2, n3 = classify_quotient_pairs(alg, index, 1, masks)
    assert (n1, n2, n3) == ([], [0], [])  # the empty pair is middle-class
    _, lifted = _lift(index, 1, masks)
    assert len(lifted) == 2 * len(quotient_pairs)


def test_lift_count_formula():
    for alg in [make_cyclic(3, 3), make_cyclic(3, 4), make_linear([1, 2, 2])]:
        j = min(projective_injectives(alg))
        quotient_pairs = enumerate_stt(reject(alg, j))
        index = BitIndex(alg)
        n1, n2, n3 = classify_quotient_pairs(alg, index, j, _masks(index, quotient_pairs))
        assert len(enumerate_stt(alg)) == len(quotient_pairs) + len(n2)


def _stages(alg):
    """Per stage of the default rejection chain of alg, as the engine runs
    it over alg's own index: (a, index, j, masks, supports, lifts, lift
    supports)."""
    chain = rejection_chain(alg)
    chain.pop()
    index = bit_index(alg)
    masks, supports = [0], [0]
    while chain:
        a, j = chain.pop()
        _, lifts, lift_supports = lift_through_rejection(a, index, j, masks, supports)
        yield a, index, j, masks, supports, lifts, lift_supports
        masks, supports = lifts, lift_supports


def _full_check(a, index, mask):
    """The support vertices of a lift by the full pairwise check over the
    stage algebra a, on a's own index; None if it fails."""
    stage = bit_index(a)
    supp = stage.tilting_support(stage.encode(index.decode(mask)))
    return None if supp is None else stage.vertices(supp)


def _lift_grid():
    """Every cyclic series with n <= 4 and entries <= 6, every linear
    series with n <= 5 and entries <= 5, and linear 1..4 without vertex 2:
    287 algebras."""
    algs = [cyclic_algebra(ks) for n in range(1, 5) for ks in valid_cyclic_series(n, 6)]
    algs += [make_linear(list(ks)) for n in range(1, 6) for ks in valid_linear_series(n, 5)]
    return algs + [quotient_by_idempotent(make_linear([1, 2, 3, 4]), {2})]


def test_stage_supports_read_over_the_input_index():
    # every module of a stage algebra is a module of alg with the same
    # composition factors, so its support mask in alg's own index is the
    # vertex bits of its composition factors over the stage
    algs = _lift_grid()
    assert len(algs) == 287
    for alg in algs:
        index = bit_index(alg)
        for a, _ in rejection_chain(alg)[:-1]:
            for m in all_indecs(a):
                factors = sum(index.vertex_bit[v] for v in set(comp_factors(a, m)))
                assert index.supp[index[m]] == factors, (alg, a, m)


def test_summand_masks_round_trip_over_the_input_index():
    alg = make_cyclic(3, 4)
    index = bit_index(alg)
    assert index.decode(0) == () and index.encode(()) == 0
    for a, _, _, _, _, lifts, _ in _stages(alg):
        pairs = enumerate_stt(a)
        assert sorted(index.decode(mask) for mask in lifts) == [p.module for p in pairs]
        assert sorted(_masks(index, pairs)) == sorted(lifts)


def test_incremental_lift_check_matches_full_check():
    # every lift the two-row check accepts passes the full pairwise check
    # over its stage algebra, with the support the engine carried
    for alg in _lift_grid():
        for a, index, _, _, _, lifts, supports in _stages(alg):
            full = [_full_check(a, index, mask) for mask in lifts]
            assert full == [index.vertices(supp) for supp in supports]


@pytest.mark.parametrize(
    "source, target", [(3, 1), (1, 3), (3, 2), (1, 2)],
    ids=["class 3 as 1 (no swap)", "class 1 as 3", "class 3 as 2", "class 1 as 2"],
)
def test_misclassified_lift_raises(monkeypatch, source, target):
    # each pair of the source class is handed to its stage as one of the
    # target class: the two-row check raises exactly when the full check
    # rejects one of its lifts (a class 1 pair taken as class 3 can lift
    # to a good pair, the class 2 copy of another); only Q's row catches
    # some class 1 pairs taken as class 2
    algs = [cyclic_algebra(ks) for n in range(1, 4) for ks in valid_cyclic_series(n, 5)]
    algs += [make_linear(list(ks)) for n in range(1, 5) for ks in valid_linear_series(n, 4)]
    verdicts = Counter()
    for alg in algs:
        for a, index, j, masks, supports, _, _ in _stages(alg):
            q = 1 << index[Indec(j, a.loewy[j])]
            r = 1 << index[Indec(j, a.loewy[j] - 1)] if a.loewy[j] > 1 else 0
            forced = ([], [], [])
            forced[target - 1].append(0)
            for idx in classify_quotient_pairs(a, index, j, masks)[source - 1]:
                mask = masks[idx]
                lifts = {1: [mask], 2: [mask, mask | q], 3: [mask ^ (r | q)]}[target]
                bad = None in [_full_check(a, index, m) for m in lifts]
                monkeypatch.setattr(poset, "classify_quotient_pairs", lambda *_: forced)
                try:
                    lift_through_rejection(a, index, j, [mask], [supports[idx]])
                    raised = False
                except InvariantViolation:
                    raised = True
                monkeypatch.undo()
                assert raised == bad, (alg, j, index.decode(mask))
                verdicts[bad] += 1
    assert verdicts[True] > 100
    if source == 3:
        assert verdicts[False] == 0



def _raises(f, *args):
    """The message of the InvariantViolation that f(*args) raises, None
    if it returns."""
    try:
        f(*args)
    except InvariantViolation as e:
        return str(e)
    return None


def test_stage_check_agrees_with_the_full_scan_on_flipped_masks():
    # one bit of one input mask flipped, R's and Q's among the choices,
    # with the support read off the flipped mask: the check on the lifts
    # with R or Q, at their positions, raises exactly when the check of
    # every lift on every position does, naming the same lift, and they
    # return the same lifts
    rng = random.Random(2024)
    algs = [cyclic_algebra(ks) for n in range(1, 4) for ks in valid_cyclic_series(n, 5)]
    algs += [make_linear(list(ks)) for n in range(1, 5) for ks in valid_linear_series(n, 4)]
    verdicts = Counter()
    for alg in algs:
        for a, index, j, masks, supports, _, _ in _stages(alg):
            idx = rng.randrange(len(masks))
            flipped, sups = list(masks), list(supports)
            flipped[idx] ^= 1 << rng.randrange(len(index.indecs))
            sups[idx] = _support(index, flipped[idx])
            args = (a, index, j, flipped, sups)
            want = _raises(lift_check_by_full_scan, *args)
            assert _raises(lift_through_rejection, *args) == want, (alg, j)
            if want is None:
                assert lift_through_rejection(*args) == lift_check_by_full_scan(*args)
            verdicts[want is None] += 1
    assert verdicts[True] > 100 and verdicts[False] > 100, verdicts


def _move_first(source, target, stage, moved):
    """classify_quotient_pairs with the first pair of class source at the
    given stage (counted from 1, from the zero algebra up) handed over as
    class target; appends the stage to moved when it does so."""
    calls = []

    def classify(alg, index, j, masks):
        classes = list(classify_quotient_pairs(alg, index, j, masks))
        calls.append(j)
        if len(calls) == stage and classes[source - 1]:
            moved.append(stage)
            first = classes[source - 1].pop(0)
            classes[target - 1] = sorted(classes[target - 1] + [first])
        return tuple(classes)

    return classify


def _input_picks(alg):
    """The picks of alg's own default rejection chain: forced, they keep
    hasse_by_rejection on every stage of it, clamped ones included."""
    return [j for _, j in rejection_chain(alg)[:-1]]


@pytest.mark.parametrize(
    "alg",
    [make_cyclic(2, 2), make_cyclic(2, 3), make_cyclic(3, 2), L33, make_linear([1, 2, 3])],
    ids=["cyclic(2,2)", "cyclic(2,3)", "cyclic(3,2)", "cyclic(3,3)", "linear(1,2,3)"],
)
def test_class_1_lifted_as_class_3_raises(monkeypatch, alg):
    # a class 1 pair lifted as M | R | Q can be a good pair, equal to the
    # class 2 copy of another: no stage check and not the final check over
    # alg sees it, so hasse_by_rejection checks that its lifts are distinct
    repeated, picks = 0, _input_picks(alg)
    for stage in range(1, len(picks) + 1):
        moved = []
        monkeypatch.setattr(poset, "classify_quotient_pairs", _move_first(1, 3, stage, moved))
        try:
            hasse_by_rejection(alg, picks=picks)
        except InvariantViolation as e:
            repeated += "appears twice" in str(e)
        else:
            assert not moved, f"stage {stage}: the moved pair went through"
    assert repeated > 0


def test_repeated_lift_names_the_module(monkeypatch):
    monkeypatch.setattr(poset, "classify_quotient_pairs", _move_first(1, 3, 3, []))
    module = (Indec(2, 1), Indec(2, 2))
    with pytest.raises(InvariantViolation, match=re.escape(f"lift {module} appears twice")):
        hasse_by_rejection(make_cyclic(2, 2))


def test_dropped_class_2_pair_raises(monkeypatch):
    # a class 2 pair taken as class 1 lifts once, to a good pair, and its
    # second lift mask | Q is never made: no stage check sees the missing
    # copy, the vertex count against the interval DP does
    algs = [cyclic_algebra(ks) for n in range(1, 4) for ks in valid_cyclic_series(n, 5)]
    algs += [make_linear(list(ks)) for n in range(1, 5) for ks in valid_linear_series(n, 4)]
    moved = []
    for alg in algs:
        picks = _input_picks(alg)
        for stage in range(1, len(picks) + 1):
            before = len(moved)
            monkeypatch.setattr(poset, "classify_quotient_pairs", _move_first(2, 1, stage, moved))
            try:
                hasse_by_rejection(alg, picks=picks)
            except InvariantViolation as e:
                assert "but the DP counts" in str(e), (alg, stage, e)
            else:
                assert len(moved) == before, f"{alg!r} stage {stage}: the dropped pair went through"
    assert len(moved) == 459


def test_dropped_class_2_pair_names_both_counts(monkeypatch):
    monkeypatch.setattr(poset, "classify_quotient_pairs", _move_first(2, 1, 1, []))
    alg = make_cyclic(4, 4)
    message = f"lifts over {alg!r}, but the DP counts 70"
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        hasse_by_rejection(alg)


_OPTIMIZED_MISCLASSIFIED = """
import sys
from nakayama import poset, tautilt
from nakayama.algebra import make_cyclic
from nakayama.errors import InvariantViolation
if not sys.flags.optimize:
    sys.exit("not running under -O")
real = poset.classify_quotient_pairs
tautilt.is_support_tau_tilting = lambda alg, module: sys.exit("a bad lift passed its stage")
for source, target in ((2, 0), (0, 2), (2, 1), (0, 1), (1, 0)):
    def moved(alg, index, j, masks):
        classes = real(alg, index, j, masks)
        classes[target].extend(classes[source])
        classes[source].clear()
        return classes
    poset.classify_quotient_pairs = moved
    try:
        poset.hasse_by_rejection(make_cyclic(3, 3))
        sys.exit("no stage raised")
    except InvariantViolation:
        pass
"""


def test_misclassified_lift_raises_under_optimize():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_MISCLASSIFIED],
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "make",
    [lambda: make_cyclic(5, 5), lambda: make_linear([1, 2, 3, 3, 3, 4, 5])],
    ids=["cyclic(5,5)", "linear(1,2,3,3,3,4,5)"],
)
def test_rejection_after_direct_on_the_same_algebra(make):
    # the enumeration has filled the algebra's own BitIndex in its own
    # order before the engine runs
    alg = make()
    direct = hasse_direct(alg)
    assert hasse_by_rejection(alg) == direct


def test_rejection_rejects_once_per_stage(monkeypatch):
    # the engine walks rejection_chain: per stage one pick, which calls
    # projective_injectives, and one reject, whose guard calls it again
    alg = make_cyclic(5, 5)
    calls = Counter()
    for name in ("reject", "projective_injectives"):
        def counted(*args, _name=name, _fn=getattr(algebra, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(algebra, name, counted)
    assert len(hasse_by_rejection(alg).vertices) == 252
    assert alg.dimension() == 25  # one stage per dimension
    assert calls == {"reject": 25, "projective_injectives": 50}
    # P_1 of cyclic(5,5) is no longer injective once its socle is rejected
    with pytest.raises(NotProjectiveInjective):
        hasse_by_rejection(alg, picks=[1, 1])


def test_rejection_checks_every_lift_over_the_input_algebra(monkeypatch):
    monkeypatch.setattr(tautilt, "is_support_tau_tilting", lambda alg, module: None)
    with pytest.raises(InvariantViolation, match=r"is not support tau-tilting over"):
        hasse_by_rejection(make_cyclic(2, 2))


def test_rejection_equals_direct_small_grid():
    for n in range(1, 4):
        for r in range(1, 5):
            alg = make_cyclic(n, r)
            assert hasse_by_rejection(alg) == hasse_direct(alg)
        for ks in valid_linear_series(n, 4):
            alg = make_linear(list(ks))
            assert hasse_by_rejection(alg) == hasse_direct(alg)


# largest projective-injective first down cyclic(4,4): the chain splits
# after the ninth pick, and the fifteenth takes the second of two
# components where the default would take the first; the default makes
# the last pick
PICKS_PAST_SPLIT = [4, 3, 3, 2, 2, 2, 1, 4, 3, 2, 1, 4, 3, 1, 4]


@pytest.mark.parametrize(
    "alg, picks",
    [
        (quotient_by_idempotent(make_linear([1, 2, 3, 4]), {2}), None),
        (quotient_by_idempotent(make_linear(list(range(1, 9))), {3, 6}), None),
        (make_cyclic(4, 1), None),
        (quotient_by_idempotent(make_cyclic(5, 5), {2, 4}), None),
        (make_cyclic(4, 4), PICKS_PAST_SPLIT),
        # the reduced route's clamp swap beside another component: a clamped
        # 3-cycle beside a path (100 pairs), two clamped 2-cycles (36 pairs)
        (NakayamaAlgebra([1, 2, 3, 7, 8], {1: 3, 3: 2, 2: 1, 8: 7},
                         {1: 7, 2: 6, 3: 6, 7: 1, 8: 2}), None),
        (NakayamaAlgebra([1, 2, 3, 4], {1: 2, 2: 1, 3: 4, 4: 3}, {1: 4, 2: 3, 3: 3, 4: 2}), None),
    ],
    ids=["linear(1..4)/{2}", "linear(1..8)/{3,6}", "cyclic(4,1)", "cyclic(5,5)/{2,4}",
         "cyclic(4,4) picks past split", "3-cycle(7,6,6) beside 8->7",
         "2-cycles(4,3) and (3,2)"],
)
def test_rejection_on_disconnected(alg, picks):
    assert hasse_by_rejection(alg, picks=picks) == hasse_direct(alg)


def test_rejection_on_mixed_cyclic_series():
    for series in ((2, 3, 3), (3, 4, 4), (2, 2, 3, 3), (4, 5, 5, 5), (3, 4, 4, 4, 4)):
        alg = cyclic_algebra(series)
        assert hasse_by_rejection(alg) == hasse_direct(alg)


def test_rejection_on_the_reduced_algebra_matches_direct(monkeypatch):
    # without picks the chain starts at the algebra with each Loewy length
    # clamped to its cycle size; the clamped projectives are renamed after
    algs = [cyclic_algebra(ks) for n in range(1, 5) for ks in valid_cyclic_series(n, n + 4)]
    assert len(algs) == 301
    assert sum(max(alg.loewy.values()) > alg.n for alg in algs) == 196
    tops, real = [], poset.rejection_chain
    monkeypatch.setattr(poset, "rejection_chain", lambda a, picks: tops.append(a) or real(a, picks))
    for alg in algs:
        assert hasse_by_rejection(alg) == hasse_direct(alg), alg
    assert len(tops) == 301 and all(max(a.loewy.values()) <= a.n for a in tops)


def test_rejection_matches_direct_at_scale():
    # six vertices, Loewy length six: 924 pairs, 2772 covering arrows
    alg = make_cyclic(6, 6)
    h = hasse_direct(alg)
    assert len(h.vertices) == 924 and len(h.arrows) == 2772
    assert set(degree_sequence(h)) == {6}
    assert hasse_by_rejection(alg) == h


def test_rejection_matches_direct_at_seven():
    # seven vertices, Loewy length seven: 3432 pairs, 12012 covering arrows
    alg = make_cyclic(7, 7)
    h = hasse_direct(alg)
    assert len(h.vertices) == 3432 and len(h.arrows) == 12012
    assert hasse_by_rejection(alg) == h


@pytest.mark.parametrize("n", range(2, 8))
def test_hasse_quiver_of_cyclic_is_invariant_under_rotation(n):
    # i -> i mod n + 1 is an automorphism of cyclic(n, r); r = n + 1 takes
    # the clamped rejection route
    for r in (n, n + 1):
        alg = make_cyclic(n, r)
        for quiver in (hasse_direct(alg), hasse_by_rejection(alg)):
            assert rotation_difference(quiver, n) is None, (n, r)


def test_rotation_certificate_catches_a_removed_or_reversed_arrow():
    for alg in (make_cyclic(3, 4), make_cyclic(4, 4)):
        quiver = hasse_by_rejection(alg)
        assert rotation_difference(quiver, alg.n) is None
        for i, (a, b) in enumerate(quiver.arrows):
            rest = quiver.arrows[:i] + quiver.arrows[i + 1:]
            assert rotation_difference(quiver._replace(arrows=rest), alg.n), (alg, a, b)
            reversed_one = quiver._replace(arrows=rest + ((b, a),))
            assert rotation_difference(reversed_one, alg.n), (alg, a, b)


def test_rejection_result_is_pick_independent():
    def largest_picks(alg):
        # reject at the largest projective-injective while the algebra
        # stays connected
        picks = []
        while not alg.is_zero() and len(alg.arrow_orders()) == 1:
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
    # each of the first three steps rejects a projective longer than the
    # cycle, so it is an order isomorphism; together they take (4,4,4) to
    # (3,3,3)
    assert chain[3][0] == make_cyclic(3, 3)
    for alg, j in chain[:3]:
        p, q = stt_poset(alg), stt_poset(reject(alg, j))
        iso = rejection_isomorphism(alg, j)
        assert set(iso) == set(p.elements) and set(iso.values()) == set(q.elements)
        for a in p.elements:
            for b in p.elements:
                assert le(p, a, b) == le(q, iso[a], iso[b])


def _isomorphism_cases():
    """Every cyclic series with n <= 4 and entries <= n + 3, with each
    projective-injective j longer than the cycle."""
    for n in range(1, 5):
        for ks in valid_cyclic_series(n, n + 3):
            alg = cyclic_algebra(ks)
            for j in sorted(projective_injectives(alg)):
                if alg.loewy[j] > n:
                    yield alg, j


def test_rejection_isomorphism_on_the_cyclic_grid():
    cases = list(_isomorphism_cases())
    assert len(cases) == 278
    for alg, j in cases:
        iso = rejection_isomorphism(alg, j)
        assert sorted(iso) == enumerate_stt(alg)
        assert sorted(iso.values()) == enumerate_stt(reject(alg, j))
        p, r = Indec(j, alg.loewy[j]), Indec(j, alg.loewy[j] - 1)
        for pair, image in iso.items():
            assert image.killed == pair.killed
            swapped = {r if s == p else s for s in pair.module}
            assert set(image.module) == swapped and len(image.module) == len(pair.module)


def test_rejection_isomorphism_unit_by_unit_reaches_the_reduced_algebra():
    # reject one unit at a time at the least clamped projective-injective:
    # the step maps compose to a bijection onto the pairs of the reduced
    # algebra, renaming each clamped projective (j, loewy[j]) to (j, m),
    # from exactly the vertices of the rejection route's quiver
    algs = [a for n in range(1, 4) for ks in valid_cyclic_series(n, n + 4)
            if clamps(a := cyclic_algebra(ks))]
    steps = 0
    for alg in algs:
        stage, composite = alg, {pair: pair for pair in enumerate_stt(alg)}
        while clamps(stage):
            j = min(clamps(stage).keys() & projective_injectives(stage))
            step = rejection_isomorphism(stage, j)
            composite = {pair: step[image] for pair, image in composite.items()}
            stage, steps = reject(stage, j), steps + 1
        clamped = clamps(alg)
        assert stage == NakayamaAlgebra(alg.vertices, alg.next_down, {**alg.loewy, **clamped})
        assert sorted(composite.values()) == enumerate_stt(stage), alg
        quiver = hasse_by_rejection(alg)
        assert set(composite) == set(quiver.vertices), alg
        renamed = {Indec(j, alg.loewy[j]): Indec(j, m) for j, m in clamped.items()}
        for pair, image in composite.items():
            module = tuple(sorted(renamed.get(s, s) for s in pair.module))
            assert image == SttPair(module, pair.killed), (alg, pair)
        turned = {(composite[a], composite[b]) for a, b in labelled_arrows(quiver)}
        assert turned == labelled_arrows(hasse_by_rejection(stage)), alg
    assert (len(algs), steps) == (56, 293)


@pytest.mark.parametrize(
    "alg, j",
    [(L33, 1), (make_cyclic(3, 4), 4), (make_linear([1, 2, 3, 4]), 4), (ZERO, 1)],
    ids=["cyclic(3,3) j=1", "not a vertex", "linear", "zero"],
)
def test_rejection_isomorphism_domain(alg, j):
    with pytest.raises(NotInDomain):
        rejection_isomorphism(alg, j)


def test_rejection_isomorphism_rejects_a_wrong_quotient(monkeypatch):
    # a quotient whose pairs are not the images: not a bijection
    monkeypatch.setattr(poset, "reject", lambda alg, j: L33)
    with pytest.raises(InvalidPoset, match="not a bijection"):
        rejection_isomorphism(make_cyclic(3, 4), 1)


def test_rejection_isomorphism_rejects_a_wrong_order(monkeypatch):
    # the right pairs under the discrete order: every down-set of a
    # non-minimal pair differs from its image's
    alg, real = make_cyclic(3, 4), poset.stt_poset

    def discrete_quotient(a):
        p = real(a)
        return p if a == alg else Poset(p.elements, [1 << i for i in range(len(p.elements))])

    monkeypatch.setattr(poset, "stt_poset", discrete_quotient)
    with pytest.raises(InvalidPoset, match="different down-sets"):
        rejection_isomorphism(alg, 1)


def test_forbidden_class_transitions():
    # with Q the rejected projective and R = Q/soc Q, the strict order
    # never climbs from the plain classes into the Q-classes
    algs = [make_cyclic(n, r) for n in range(1, 5) for r in range(1, 5)]
    algs += [make_linear(list(ks)) for ks in valid_linear_series(3, 4)]
    for alg in algs:
        j = min(projective_injectives(alg))
        q = Indec(j, alg.loewy[j])
        r = Indec(j, alg.loewy[j] - 1) if alg.loewy[j] > 1 else None
        pairs = enumerate_stt(alg)

        def cls(p):
            has_q = q in p.module
            has_r = r is None or r in p.module
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


def _rendering_test_algebras():
    algs = [cyclic_algebra(ks) for n in range(1, 5) for ks in valid_cyclic_series(n, n + 2)]
    algs += [make_linear(list(ks)) for n in range(1, 6) for ks in valid_linear_series(n, n + 1)]
    algs.append(quotient_by_idempotent(make_linear([1, 2, 3, 4]), {2}))
    algs.append(ZERO)
    return algs


def test_json_rendering_matches_json_dumps_oracle():
    algs = _rendering_test_algebras()
    assert L33 in algs
    for alg in algs:
        direct, rejection = hasse_direct(alg), hasse_by_rejection(alg)
        for quiver in (direct, rejection):
            assert hasse_json(quiver) == hasse_json_dumps(quiver), alg.loewy
        for pairs in (direct.vertices, tautilt.enumerate_tau_tilt(alg)):
            assert pairs_json(pairs) == pairs_json_dumps(pairs), alg.loewy


def test_json_rendering_keeps_summands_and_killed_tuples_apart():
    # cyclic(3,3) has the killed set (2, 3) and the summand Indec(2, 3),
    # which are equal as tuples; a shared fragment cache mixes them up
    pairs = enumerate_stt(L33)
    assert any(p.killed == (2, 3) for p in pairs)
    assert any(Indec(2, 3) in p.module for p in pairs)
    for ps in (pairs, pairs[::-1]):
        assert pairs_json(ps) == pairs_json_dumps(ps)
    assert json.loads(pairs_json(pairs)) == [p.to_json() for p in pairs]


def test_text_rendering_matches_per_pair_labels(capsys):
    for alg in _rendering_test_algebras()[::7] + [L33]:
        quiver = hasse_direct(alg)
        labels = [pair_label_one(alg, v) for v in quiver.vertices]
        assert pair_labels(alg, quiver.vertices) == labels
        assert [pair_label(alg, v) for v in quiver.vertices] == labels
        assert hasse_dot(alg, quiver) == hasse_dot_one(alg, quiver)
        assert main(["enumerate", "--algebra-json", json.dumps(algebra.algebra_to_json(alg))]) == 0
        assert capsys.readouterr().out == "".join(label + "\n" for label in labels)
