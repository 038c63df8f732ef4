import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from module_oracles import (
    all_indecs,
    enumerate_component_dfs,
    enumerate_tau_tilt_filter,
    is_support_tau_tilting_oracle,
    support_oracle,
)

from nakayama import modcat, poset, tautilt
from nakayama.algebra import (
    ZERO,
    NakayamaAlgebra,
    components,
    cyclic_algebra,
    make_cyclic,
    make_gamma,
    make_linear,
    quotient_by_idempotent,
)
from nakayama.errors import (
    InvalidModule,
    InvariantViolation,
    NotCyclicConnected,
    NotInDomain,
    NotLinear,
    NotTauTilting,
)
from nakayama.modcat import Indec, all_tau_rigid_indecs, pair_tau_rigid, support
from nakayama.tautilt import (
    SttPair,
    drop_to_proper_part,
    enumerate_ps_tau_tilt,
    enumerate_stt,
    enumerate_tau_tilt,
    is_support_tau_tilting,
    lift_proper_to_tau_tilting,
    make_pair,
    np_part,
    pr_part,
    shift_killed,
    split_at_source,
    unsplit_at_source,
)
from nakayama.verify import valid_cyclic_series, valid_linear_series

L33 = make_cyclic(3, 3)

# the full landscape over the 3-vertex self-injective algebra of Loewy length 3,
# transcribed module by module (10 proper + 10 tau-tilting)
EXPECTED_L33 = [
    set(),
    {(1, 1)},
    {(2, 1)},
    {(3, 1)},
    {(1, 2), (1, 1)},
    {(1, 2), (3, 1)},
    {(2, 2), (2, 1)},
    {(2, 2), (1, 1)},
    {(3, 2), (3, 1)},
    {(3, 2), (2, 1)},
    {(1, 3), (2, 3), (3, 3)},
    {(1, 1), (1, 3), (2, 3)},
    {(2, 1), (2, 3), (3, 3)},
    {(3, 1), (3, 3), (1, 3)},
    {(1, 2), (1, 1), (1, 3)},
    {(1, 2), (3, 1), (1, 3)},
    {(2, 2), (2, 1), (2, 3)},
    {(2, 2), (1, 1), (2, 3)},
    {(3, 2), (3, 1), (3, 3)},
    {(3, 2), (2, 1), (3, 3)},
]


def _modules(pairs):
    return {frozenset((s.top, s.length) for s in p.module) for p in pairs}


def test_enumerate_l33_matches_transcribed_list():
    pairs = enumerate_stt(L33)
    assert len(pairs) == 20
    assert _modules(pairs) == {frozenset(m) for m in EXPECTED_L33}


def test_enumerate_split_counts():
    assert len(enumerate_tau_tilt(L33)) == 10
    assert len(enumerate_ps_tau_tilt(L33)) == 10
    assert len(enumerate_tau_tilt(make_cyclic(4, 3))) == 15
    assert len(enumerate_tau_tilt(make_gamma(5, 3))) == 18
    assert len(enumerate_stt(make_cyclic(4, 4))) == 70


def test_enumerate_zero_algebra():
    assert enumerate_stt(ZERO) == [SttPair((), ())]


def test_is_support_tau_tilting_examples():
    full = is_support_tau_tilting(L33, [Indec(1, 3), Indec(2, 3), Indec(3, 3)])
    assert full is not None and full.killed == ()
    simple = is_support_tau_tilting(L33, [Indec(2, 1)])
    assert simple is not None and simple.killed == (1, 3)
    # a tau-rigid pair with matching support count is accepted (it appears
    # in the transcribed landscape above)
    both = is_support_tau_tilting(L33, [Indec(1, 1), Indec(1, 2)])
    assert both is not None and both.killed == (2,)
    # non-rigid input is refused
    assert is_support_tau_tilting(L33, [Indec(1, 1), Indec(2, 1)]) is None
    # rigid but support too large
    assert is_support_tau_tilting(L33, [Indec(1, 2)]) is None


def test_killed_set_is_support_complement():
    for pair in enumerate_stt(make_cyclic(4, 4)):
        from nakayama.modcat import support

        assert set(pair.killed) == set(range(1, 5)) - support(make_cyclic(4, 4), pair.module)


def test_np_pr_split():
    m = (Indec(2, 1), Indec(2, 3), Indec(1, 3))
    assert np_part(L33, m) == (Indec(2, 1),)
    assert pr_part(L33, m) == (Indec(2, 3), Indec(1, 3))
    allproj = (Indec(1, 3), Indec(2, 3))
    assert np_part(L33, allproj) == ()
    assert pr_part(L33, allproj) == allproj
    assert pr_part(L33, (Indec(1, 1),)) == ()


def test_shift_killed():
    assert shift_killed(L33, {1, 3}) == {3, 2}
    assert shift_killed(L33, set()) == set()
    assert shift_killed(L33, {1, 2, 3}) == {1, 2, 3}
    with pytest.raises(NotCyclicConnected):
        shift_killed(make_linear([1, 2]), {1})
    two_cycles = NakayamaAlgebra([1, 2, 3, 4], {1: 2, 2: 1, 3: 4, 4: 3}, dict.fromkeys(range(1, 5), 2))
    with pytest.raises(NotCyclicConnected, match="single cycle"):
        shift_killed(two_cycles, {1})


def test_the_cycle_is_kept_on_an_algebra_that_is_one_cycle():
    alg = make_cyclic(5, 5)
    assert "_cycle" not in alg.__dict__
    assert shift_killed(alg, {1, 3}) == {5, 2}
    kept = alg.__dict__["_cycle"]
    assert shift_killed(alg, {2}) == {1} and alg.__dict__["_cycle"] is kept
    # one that is not keeps nothing and is refused on every call
    linear = make_linear([1, 2])
    for _ in range(2):
        with pytest.raises(NotCyclicConnected):
            shift_killed(linear, {1})
        assert "_cycle" not in linear.__dict__


def test_an_unhashable_or_unorderable_summand_is_an_invalid_module():
    alg = make_cyclic(2, 2)
    good, bad = SttPair((Indec(1, 2), Indec(2, 2)), ()), SttPair((Indec([1], 2),), ())
    for entry, *args in (
        (is_support_tau_tilting, [Indec([1], 2)]),
        (is_support_tau_tilting, [Indec(1, 2), Indec("a", 2)]),
        (modcat.check_valid, Indec([1], 2)),
        (modcat.check_valid, Indec(1, "a")),
        (modcat.comp_factors, Indec([1], 2)),
        (modcat.is_projective, Indec([1], 2)),
        (pair_tau_rigid, Indec("a", 2), Indec(1, 1)),
        (modcat.is_tau_rigid_indec, Indec([1], 2)),
        (support, [Indec([1], 2)]),
        (make_pair, [Indec([1], 2)]),
        (make_pair, [Indec(1, 2), Indec("a", 2)]),
        (poset.geq, good, bad),
        (poset.geq, bad, good),
    ):
        with pytest.raises(InvalidModule, match="not an Indec with integer top and length"):
            entry(alg, *args)
    assert is_support_tau_tilting(alg, [Indec(1, 2), Indec(2, 2)]).module == (Indec(1, 2), Indec(2, 2))


def test_a_non_int_top_or_length_is_an_invalid_module():
    # True == 1 and 2.0 == 2, so only a type test refuses them: check_valid's,
    # also where it is the only guard, and pair_tau_rigid's before its cache
    alg = make_cyclic(2, 2)
    good = SttPair((Indec(1, 2), Indec(2, 2)), ())
    for entry, *args in (
        (modcat.check_valid, Indec(1, 2.0)),
        (modcat.check_valid, Indec(True, 2)),
        (modcat.is_projective, Indec(1, 2.0)),
        (modcat.comp_factors, Indec(True, 2)),
        (poset.geq, good, SttPair((Indec(True, 1.5),), ())),
        (pair_tau_rigid, Indec(1, 1.5), Indec(2, 1)),
        (pair_tau_rigid, Indec(2, 1), Indec(1, None)),
    ):
        with pytest.raises(InvalidModule, match="not an Indec with integer top and length"):
            entry(alg, *args)
    assert alg.__dict__["_pair_rigid"] == {}


def test_one_vertex_is_its_own_cycle_with_or_without_its_dead_loop():
    # make_linear([1]) is the algebra make_cyclic(1, 1): the shift, the lift
    # and the drop treat them alike
    for alg in (make_linear([1]), make_cyclic(1, 1)):
        assert shift_killed(alg, {1}) == {1}
        tau = SttPair((Indec(1, 1),), ())
        assert lift_proper_to_tau_tilting(alg, SttPair((), (1,))) == tau
        assert drop_to_proper_part(alg, tau) == SttPair((), (1,))


def test_shift_killed_refuses_a_vertex_outside_the_quiver():
    with pytest.raises(NotInDomain, match="outside the quiver"):
        shift_killed(L33, {4})
    with pytest.raises(NotInDomain, match="outside the quiver"):
        lift_proper_to_tau_tilting(L33, SttPair((), (1, 4)))


def test_lift_example():
    n = SttPair((Indec(2, 1),), (1, 3))
    m = lift_proper_to_tau_tilting(L33, n)
    assert set(m.module) == {Indec(2, 1), Indec(2, 3), Indec(3, 3)}
    assert m.killed == ()


def test_lift_of_empty_pair_is_whole_algebra():
    empty = SttPair((), (1, 2, 3))
    m = lift_proper_to_tau_tilting(L33, empty)
    assert set(m.module) == {Indec(1, 3), Indec(2, 3), Indec(3, 3)}


def test_lift_drop_roundtrips():
    for alg in (L33, make_cyclic(3, 4), make_cyclic(4, 4), make_cyclic(4, 5)):
        tt = enumerate_tau_tilt(alg)
        ps = enumerate_ps_tau_tilt(alg)
        assert len(tt) == len(ps)
        for p in ps:
            assert drop_to_proper_part(alg, lift_proper_to_tau_tilting(alg, p)) == p
        for m in tt:
            assert lift_proper_to_tau_tilting(alg, drop_to_proper_part(alg, m)) == m


def test_proper_modules_have_no_projectives_when_loewy_large():
    # with every Loewy length >= n, proper pairs carry no projective summand
    for alg in [make_cyclic(n, r) for n in range(1, 5) for r in (n, n + 1)]:
        for p in enumerate_ps_tau_tilt(alg):
            assert not pr_part(alg, p.module)


def test_tau_tilting_has_projective_summand():
    for n in range(1, 5):
        for r in range(1, 6):
            alg = make_cyclic(n, r)
            for m in enumerate_tau_tilt(alg):
                assert pr_part(alg, m.module)


def test_split_at_source_partition():
    g = make_gamma(3, 2)
    tt = enumerate_tau_tilt(g)
    assert len(tt) == 3
    buckets = {}
    for m in tt:
        v, sub = split_at_source(g, m)
        buckets.setdefault(v, []).append(sub)
        assert unsplit_at_source(g, v, sub) == m
    # one class per reachable killed vertex, sizes 2 + 1
    assert sorted(len(b) for b in buckets.values()) == [1, 2]


def test_split_partition_sizes_match_quotient_counts():
    from nakayama.algebra import quotient_by_idempotent
    from nakayama.verify import valid_linear_series

    for n in range(1, 6):
        for ks in valid_linear_series(n, 5):
            alg = make_linear(list(ks))
            if len(alg.arrow_orders()) != 1:
                continue
            s = alg.source_vertex()
            seen = {}
            for m in enumerate_tau_tilt(alg):
                v, sub = split_at_source(alg, m)
                seen[v] = seen.get(v, 0) + 1
                assert unsplit_at_source(alg, v, sub) == m
            total = 0
            for i in range(alg.loewy[s]):
                v = s - i
                total += len(enumerate_tau_tilt(quotient_by_idempotent(alg, {v})))
            assert sum(seen.values()) == len(enumerate_tau_tilt(alg)) == total


def test_hereditary_two_vertex_tilts_contain_source_projective():
    a2 = make_linear([1, 2])
    assert {frozenset(m.module) for m in enumerate_tau_tilt(a2)} == {
        frozenset({Indec(1, 1), Indec(2, 2)}),
        frozenset({Indec(2, 1), Indec(2, 2)}),
    }


def test_radical_square_zero_tilting_lists():
    # transcribed module lists for the 3- and 4-vertex radical-square-zero
    # linear algebras (path source carries the largest label here)
    g3 = make_gamma(3, 2)
    assert {frozenset(m.module) for m in enumerate_tau_tilt(g3)} == {
        frozenset({Indec(1, 1), Indec(2, 2), Indec(3, 2)}),
        frozenset({Indec(2, 1), Indec(2, 2), Indec(3, 2)}),
        frozenset({Indec(3, 1), Indec(1, 1), Indec(3, 2)}),
    }
    g4 = make_gamma(4, 2)
    assert {frozenset(m.module) for m in enumerate_tau_tilt(g4)} == {
        frozenset({Indec(1, 1), Indec(2, 2), Indec(4, 1), Indec(4, 2)}),
        frozenset({Indec(2, 1), Indec(2, 2), Indec(4, 1), Indec(4, 2)}),
        frozenset({Indec(1, 1), Indec(2, 2), Indec(3, 2), Indec(4, 2)}),
        frozenset({Indec(2, 1), Indec(2, 2), Indec(3, 2), Indec(4, 2)}),
        frozenset({Indec(3, 1), Indec(1, 1), Indec(3, 2), Indec(4, 2)}),
    }


def test_enumeration_distributes_over_components():
    from nakayama.algebra import components, quotient_by_idempotent

    alg = quotient_by_idempotent(make_linear([1, 2, 3, 4, 5]), {3})
    parts = components(alg)
    assert len(parts) == 2
    product = 1
    for c in parts:
        product *= len(enumerate_stt(c))
    assert len(enumerate_stt(alg)) == product


def test_every_tau_rigid_set_extends_to_tau_tilting():
    for alg in [make_cyclic(n, r) for n in range(1, 5) for r in range(1, 5)]:
        rigid = all_tau_rigid_indecs(alg)
        tilts = [set(m.module) for m in enumerate_tau_tilt(alg)]
        sets = [[]]
        for i, x in enumerate(rigid):
            new = []
            for s in sets:
                if all(pair_tau_rigid(alg, x, y) for y in s):
                    new.append(s + [x])
            sets.extend(new)
        for s in sets:
            assert any(set(s) <= t for t in tilts), s


def test_split_requires_tau_tilting():
    g = make_gamma(3, 2)
    with pytest.raises(NotTauTilting):
        split_at_source(g, SttPair((Indec(1, 1),), (2, 3)))
    with pytest.raises(NotTauTilting, match="over the quotient"):
        unsplit_at_source(g, 3, SttPair((Indec(1, 1),), (2,)))


def test_lift_requires_proper_nonprojective():
    with pytest.raises(NotInDomain):
        lift_proper_to_tau_tilting(L33, SttPair((Indec(1, 3), Indec(2, 3), Indec(3, 3)), ()))
    # a proper pair with a projective summand is outside the domain
    l32 = make_cyclic(3, 2)
    pair = is_support_tau_tilting(l32, [Indec(1, 2), Indec(3, 1)])
    assert pair is not None and pair.killed == (2,)
    with pytest.raises(NotInDomain):
        lift_proper_to_tau_tilting(l32, pair)
    # the inverse direction needs a tau-tilting pair
    with pytest.raises(NotTauTilting, match="nonempty killed set"):
        drop_to_proper_part(L33, SttPair((Indec(2, 1),), (1,)))


def test_pair_json_roundtrip():
    for pair in enumerate_stt(L33):
        assert SttPair.from_json(pair.to_json()) == pair


_PAIRS = {n: enumerate_stt(make_cyclic(n, n)) for n in range(1, 7)}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 6).flatmap(lambda n: st.sampled_from(_PAIRS[n])))
def test_pair_json_text_round_trip(pair):
    assert SttPair.from_json(json.loads(json.dumps(pair.to_json()))) == pair


# any pair of distinct summands and distinct killed vertices, valid over an
# algebra or not: from_json reads pair literals before any algebra is known
literal_pairs = st.builds(
    lambda summands, killed: SttPair(tuple(sorted(summands)), tuple(sorted(killed))),
    st.sets(st.builds(Indec, st.integers(-3, 9), st.integers(-3, 9)), max_size=6),
    st.sets(st.integers(-3, 9), max_size=6),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(literal_pairs)
def test_any_pair_json_text_round_trip(pair):
    assert SttPair.from_json(json.loads(json.dumps(pair.to_json()))) == pair


P1, P2 = {"top": 1, "len": 3}, {"top": 2, "len": 3}


@pytest.mark.parametrize("data", [
    {"summands": [], "killed": "32"},
    {"summands": [], "killed": ""},
    {"summands": [], "killed": [2.0, True]},
    {"summands": [], "killed": [1, "2"]},
    {"summands": [], "killed": [None]},
    {"summands": [], "killed": {"1": 2}},
    {"summands": [], "killed": [1, 1]},
    {"summands": [P1, P1, P2], "killed": []},
    {"summands": [P1, dict(P1)], "killed": [3]},
    {"summands": {"top": 1, "len": 3}, "killed": []},
])
def test_pair_json_takes_distinct_summands_and_integer_vertices(data):
    with pytest.raises(NotInDomain):
        SttPair.from_json(data)


# -- the bit index against the pairwise, set-based oracles --------------------

INDEX_ALGEBRAS = (
    [cyclic_algebra(list(ks)) for ks in valid_cyclic_series(3, 4)]
    + [make_linear(list(ks)) for ks in valid_linear_series(4, 4)]
    + [quotient_by_idempotent(make_linear([1, 2, 3, 4]), {2})]
)


def _fresh(alg):
    """An equal algebra with cold caches."""
    return NakayamaAlgebra(alg.vertices, alg.next_down, alg.loewy)


@pytest.mark.parametrize("alg", INDEX_ALGEBRAS, ids=repr)
def test_bit_index_matches_pairwise_oracle(alg):
    # every multiset of at most n + 1 indecomposables, rigid or not: on a
    # cold algebra per call, after enumerate_stt, and on an index that
    # fills up call by call
    after_enumeration, filling = _fresh(alg), _fresh(alg)
    enumerate_stt(after_enumeration)
    indecs = all_indecs(alg)
    for size in range(alg.n + 2):
        for module in itertools.combinations_with_replacement(indecs, size):
            expected = is_support_tau_tilting_oracle(alg, module)
            assert is_support_tau_tilting(_fresh(alg), module) == expected
            assert is_support_tau_tilting(after_enumeration, module[::-1]) == expected
            assert is_support_tau_tilting(filling, module) == expected
            assert support(filling, module) == support_oracle(alg, module)


def _count_pairs(monkeypatch):
    """Patch the pair rule to record each pair it computes, unordered."""
    calls, real = [], modcat._rigid_row

    def counted(alg, x, ys):
        calls.extend(frozenset((x, y)) for y in ys)
        return real(alg, x, ys)

    monkeypatch.setattr(modcat, "_rigid_row", counted)
    return calls


def test_cold_compatibility_graph_computes_each_unordered_pair_once(monkeypatch):
    # on a cold cyclic(4,4) the graph computes each of the r(r+1)/2 = 136
    # unordered pairs of its r = 16 tau-rigid indecomposables once, the
    # diagonal included, and asks pair_tau_rigid nothing
    calls = _count_pairs(monkeypatch)
    alg = make_cyclic(4, 4)
    rigid = all_tau_rigid_indecs(alg)
    tautilt.compatibility_graph(alg)
    assert (len(rigid), len(calls), len(set(calls))) == (16, 136, 136)
    assert set(calls) == {frozenset(pair) for pair in itertools.product(rigid, rigid)}
    assert "_pair_rigid" not in alg.__dict__


def test_cold_support_check_computes_each_unordered_pair_once(monkeypatch):
    # every tau-rigid part of a support tau-tilting module: k distinct
    # summands make k(k+1)/2 pair computations on a cold index, none of
    # them a mirror of another, and none on a warm one
    calls = _count_pairs(monkeypatch)
    for alg in INDEX_ALGEBRAS:
        warm = _fresh(alg)
        tautilt.compatibility_graph(warm)
        for pair in enumerate_stt(alg):
            for k in range(len(pair.module) + 1):
                for module in itertools.combinations(pair.module, k):
                    cold = _fresh(alg)
                    calls.clear()
                    expected = is_support_tau_tilting_oracle(alg, module)
                    assert is_support_tau_tilting(cold, module) == expected
                    assert len(calls) == k * (k + 1) // 2
                    assert len(set(calls)) == len(calls)
                    calls.clear()
                    assert is_support_tau_tilting(cold, module[::-1]) == expected
                    assert is_support_tau_tilting(warm, module) == expected
                    assert calls == []


# -- the maximal-clique enumeration against the DFS oracle --------------------

ENUMERATION_ALGEBRAS = (
    [cyclic_algebra(list(ks)) for ks in valid_cyclic_series(4, 6)]
    + [make_linear(list(ks)) for ks in valid_linear_series(6, 6)]
    + [make_cyclic(n, n) for n in range(1, 9)]
    + [
        make_cyclic(7, 3),
        quotient_by_idempotent(make_linear([1, 2, 3, 4]), {2}),
        quotient_by_idempotent(make_linear(list(range(1, 9))), {3, 6}),
        make_cyclic(4, 1),
        quotient_by_idempotent(make_cyclic(5, 5), {2, 4}),
    ]
)


@pytest.mark.parametrize("alg", ENUMERATION_ALGEBRAS, ids=repr)
def test_enumerate_stt_matches_dfs_oracle(alg):
    # the same product over components and sort, on a cold copy
    oracle = _fresh(alg)
    parts = [enumerate_component_dfs(c) for c in components(oracle)]
    expected = sorted(
        (make_pair(oracle, itertools.chain.from_iterable(combo))
         for combo in itertools.product(*parts)),
        key=lambda p: p.module,
    )
    assert enumerate_stt(alg) == expected


# -- the tau-tilting clique search against the filter oracle ------------------

TAU_TILT_ALGEBRAS = {
    "cyclic n<=5, entries<=n+2": [
        cyclic_algebra(list(ks)) for n in range(1, 6) for ks in valid_cyclic_series(n, n + 2)
    ],
    "linear n<=5, entries<=5": [
        make_linear(list(ks)) for n in range(1, 6) for ks in valid_linear_series(n, 5)
    ],
    "disconnected quotients": [
        quotient_by_idempotent(make_linear([1, 2, 3, 4]), {2}),
        quotient_by_idempotent(make_cyclic(5, 4), {1, 3}),
        quotient_by_idempotent(make_linear(list(range(1, 9))), {3, 6}),
    ],
}


@pytest.mark.parametrize("grid", TAU_TILT_ALGEBRAS)
def test_enumerate_tau_tilt_matches_filter_oracle(grid):
    # the module-only clique search against the unkilled pairs of
    # enumerate_stt over the same compatibility graph, in order
    for alg in TAU_TILT_ALGEBRAS[grid]:
        assert enumerate_tau_tilt(alg) == enumerate_tau_tilt_filter(alg), alg


def test_tau_tilt_search_raises_on_a_missing_edge():
    # without the edge S1 -- P2 of the linear A2 algebra, S1 has no module
    # neighbour (S1 + S2 is not tau-rigid): a maximal clique of one member
    # on two vertices; enumerate_stt completes it by killing vertex 2, so
    # every clique has two members, and only the count shows the lost pair
    # S1 + P2
    alg = make_linear([1, 2])
    nbr, _, labels = tautilt.compatibility_graph(alg)
    s1, p2 = labels.index(Indec(1, 1)), labels.index(Indec(2, 2))
    nbr[s1] &= ~(1 << p2)
    nbr[p2] &= ~(1 << s1)
    with pytest.raises(InvariantViolation, match="has 1 members, not 2"):
        enumerate_tau_tilt(alg)
    lost = r"\{1:1,2:2\}\) has 4 maximal cliques, but the DP counts 5"
    with pytest.raises(InvariantViolation, match=lost):
        enumerate_stt(alg)


def _toggle_edge(alg, x, y):
    """Add the edge x -- y to the algebra's cached graph, or remove it."""
    nbr, _, labels = tautilt.compatibility_graph(alg)
    p, q = labels.index(x), labels.index(y)
    nbr[p] ^= 1 << q
    nbr[q] ^= 1 << p


def test_tau_tilt_search_raises_on_a_spurious_edge():
    # S1 + S2 is not tau-rigid over cyclic(2,2); with the edge S1 -- S2 it
    # is a maximal clique of two module nodes, so every clique has n
    # members and only the count against the DP shows the extra module
    alg = make_cyclic(2, 2)
    _toggle_edge(alg, Indec(1, 1), Indec(2, 1))
    with pytest.raises(InvariantViolation, match="has 4 maximal cliques, but the DP counts 3"):
        enumerate_tau_tilt(alg)


@pytest.mark.parametrize("x, y, message", [
    (Indec(1, 1), Indec(2, 2), "has 20 maximal cliques, but the DP counts 25"),
    (Indec(1, 1), Indec(2, 1), "has 5 members, not 4"),
    (Indec(4, 1), Indec(5, 2), "has 20 maximal cliques, but the DP counts 25"),
    (Indec(4, 1), Indec(5, 1), "has 5 members, not 4"),
], ids=["removed in {1,2}", "spurious in {1,2}", "removed in {4,5}", "spurious in {4,5}"])
def test_enumeration_of_two_components_raises_on_a_wrong_edge_in_either(x, y, message):
    # linear 1..5 without vertex 3 is linear A2 twice; a wrong module --
    # module edge inside one component is caught on the whole graph
    alg = quotient_by_idempotent(make_linear([1, 2, 3, 4, 5]), {3})
    _toggle_edge(alg, x, y)
    with pytest.raises(InvariantViolation, match=message):
        enumerate_stt(alg)


def test_invalid_summand_wins_over_non_rigid_pair():
    # (1,1) + (2,1) is not tau-rigid; the invalid summand is reported
    # wherever it sorts, on a cold index and on one that has seen the pair
    for warm in (False, True):
        alg = make_cyclic(3, 3)
        if warm:
            assert is_support_tau_tilting(alg, [Indec(1, 1), Indec(2, 1)]) is None
        for bad in (Indec(0, 1), Indec(1, 4), Indec(9, 1)):
            module = [Indec(1, 1), Indec(2, 1), bad]
            with pytest.raises(InvalidModule):
                is_support_tau_tilting(alg, module)
            with pytest.raises(InvalidModule):
                is_support_tau_tilting_oracle(alg, module)


# -- guards that must hold under python -O ------------------------------------


def test_rigid_set_larger_than_its_support_raises(monkeypatch):
    # with every pair declared rigid, the nine tau-rigid indecomposables
    # form one clique that supports every vertex: a maximal clique of
    # nine members on three vertices
    monkeypatch.setattr(modcat, "_rigid_row", lambda alg, x, ys: (1 << len(ys)) - 1)
    with pytest.raises(InvariantViolation):
        enumerate_stt(make_cyclic(3, 3))


def test_maximal_pair_with_too_few_members_raises(monkeypatch):
    # with no pair declared rigid, (1,2) alone leaves only vertex 2 to
    # kill: a maximal clique of two members on three vertices
    monkeypatch.setattr(modcat, "_rigid_row", lambda alg, x, ys: 0)
    with pytest.raises(InvariantViolation, match="has 2 members, not 3"):
        enumerate_stt(make_cyclic(3, 3))


def test_split_at_source_guards_raise(monkeypatch):
    g = make_gamma(3, 2)  # source 3, source projective 3/2
    m = enumerate_tau_tilt(g)[0]
    with monkeypatch.context() as mp:
        mp.setattr(modcat, "support", lambda alg, module: set())
        with pytest.raises(InvariantViolation, match="misses 3 vertices"):
            split_at_source(g, m)
    with monkeypatch.context() as mp:
        mp.setattr(modcat, "support", lambda alg, module: {2, 3})
        with pytest.raises(InvariantViolation, match="out of reach"):
            split_at_source(g, m)
    real = tautilt.is_support_tau_tilting
    with monkeypatch.context() as mp:
        mp.setattr(tautilt, "is_support_tau_tilting",
                   lambda alg, module: real(alg, module) if alg.n == 3 else None)
        with pytest.raises(InvariantViolation, match="over the quotient"):
            split_at_source(g, m)
    with monkeypatch.context() as mp:  # a checked module without P_3 = 3/2
        mp.setattr(tautilt, "is_support_tau_tilting",
                   lambda alg, module: SttPair(tuple(module), ()))
        with pytest.raises(NotTauTilting, match="must contain the source projective"):
            split_at_source(g, SttPair((Indec(1, 1),), ()))


def test_unsplit_at_source_checks_the_completion():
    # 1 + 3/2/1 has two summands on three support vertices
    with pytest.raises(NotInDomain, match="completion at killed vertex 1 is not tau-tilting"):
        unsplit_at_source(make_linear([1, 2, 3]), 1, SttPair((Indec(1, 1),), ()))


@pytest.mark.parametrize(
    "alg, match",
    [
        (ZERO, "not connected"),
        (quotient_by_idempotent(make_linear([1, 2, 3]), {2}), "not connected"),
        (make_cyclic(3, 2), "cycle"),
    ],
)
def test_split_at_source_needs_a_connected_linear_algebra(alg, match):
    with pytest.raises(NotLinear, match=match):
        split_at_source(alg, SttPair((), ()))
    with pytest.raises(NotLinear, match=match):
        unsplit_at_source(alg, 1, SttPair((), ()))


def test_split_at_source_validates_the_pair():
    # n summands with an empty killed set, but not tau-rigid
    g = make_gamma(3, 2)
    fake = SttPair((Indec(1, 1), Indec(2, 1), Indec(3, 2)), ())
    with pytest.raises(NotTauTilting):
        split_at_source(g, fake)
