import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from module_oracles import (
    component_table_oracle,
    components_oracle,
    projective_injectives_socle_scan,
)

from nakayama import algebra
from nakayama.algebra import (
    ZERO,
    NakayamaAlgebra,
    algebra_from_json,
    algebra_to_json,
    components,
    make_cyclic,
    make_gamma,
    make_linear,
    projective_injectives,
    quotient_by_idempotent,
    reject,
    rejection_chain,
    socle_vertex_of_projective,
    standard_arrows,
)
from nakayama.errors import (
    InvalidKupisch,
    InvariantViolation,
    NotInDomain,
    NotProjectiveInjective,
    ZeroAlgebra,
)
from nakayama.verify import cyclic_algebra, valid_cyclic_series, valid_linear_series


def test_make_cyclic_basic():
    a = make_cyclic(3, 3)
    assert a.vertices == (1, 2, 3)
    assert a.loewy == {1: 3, 2: 3, 3: 3}
    assert a.next_down == {1: 3, 2: 1, 3: 2}


def test_make_cyclic_smallest():
    a = make_cyclic(1, 1)
    assert a.vertices == (1,)
    assert a.loewy[1] == 1
    assert a.next_down == {1: 1}


def test_make_cyclic_four_five():
    a = make_cyclic(4, 5)
    assert a.dimension() == 20
    assert all(a.loewy[j] == 5 for j in a.vertices)


def test_make_linear_hereditary():
    a = make_linear([1, 2, 3])
    assert a.next_down == {2: 1, 3: 2}
    assert a.loewy == {1: 1, 2: 2, 3: 3}


def test_make_linear_radical_square_zero():
    a = make_linear([1, 2, 2, 2])
    assert a == make_gamma(4, 2)


def test_make_linear_rejects_jump():
    with pytest.raises(InvalidKupisch, match=r"^loewy\(2\) = 3 exceeds loewy\(1\) \+ 1$"):
        make_linear([1, 3])
    with pytest.raises(InvalidKupisch, match=r"^loewy\(4\) = 4 exceeds loewy\(3\) \+ 1$"):
        make_linear([1, 2, 2, 4])
    with pytest.raises(InvalidKupisch, match="vertex 1 has no outgoing edge"):
        make_linear([2, 2])


def test_projective_injectives_self_injective():
    assert projective_injectives(make_cyclic(3, 3)) == {1, 2, 3}


def test_projective_injectives_hereditary():
    # P_1 and P_2 embed in the longer P_2 and P_3
    assert projective_injectives(make_linear([1, 2, 3])) == {3}


def test_projective_injectives_zero():
    with pytest.raises(ZeroAlgebra):
        projective_injectives(ZERO)


def _random_valid_algebra(rng):
    n = rng.randint(1, 6)
    if rng.random() < 0.5:
        series = rng.choice(list(valid_cyclic_series(n, rng.randint(1, 6))))
        return cyclic_algebra(series)
    series = rng.choice(list(valid_linear_series(n, rng.randint(1, 6))))
    return make_linear(list(series))


def test_closed_form_matches_socle_scan_everywhere():
    for n in range(1, 7):
        for ks in valid_cyclic_series(n, 7):
            a = cyclic_algebra(ks)
            assert projective_injectives(a) == projective_injectives_socle_scan(a)
        for ks in valid_linear_series(n, 7):
            a = make_linear(list(ks))
            assert projective_injectives(a) == projective_injectives_socle_scan(a)
    # rejection leaves disconnected algebras with dead ambient edges
    for alg in (make_cyclic(3, 4), make_cyclic(4, 4), make_linear([1, 2, 3, 3])):
        for a, _ in rejection_chain(alg)[:-1]:
            assert projective_injectives(a) == projective_injectives_socle_scan(a)


def test_every_nonzero_algebra_has_projective_injective():
    rng = random.Random(7)
    for _ in range(300):
        a = _random_valid_algebra(rng)
        assert projective_injectives(a)


def test_reject_decreases_dimension_by_one():
    rng = random.Random(11)
    for _ in range(200):
        a = _random_valid_algebra(rng)
        j = min(projective_injectives(a))
        assert reject(a, j).dimension() == a.dimension() - 1


def test_reject_first_step():
    a2 = reject(make_cyclic(3, 4), 1)
    assert a2.loewy == {1: 3, 2: 4, 3: 4}
    assert a2.next_down == {1: 3, 2: 1, 3: 2}


def test_reject_requires_projective_injective():
    a2 = reject(make_cyclic(3, 4), 1)
    with pytest.raises(NotProjectiveInjective):
        reject(a2, 1)


def test_reject_simple_vertex_disappears():
    assert reject(make_cyclic(1, 1), 1).is_zero()


def test_rejection_chain_reaches_zero():
    chain = rejection_chain(make_cyclic(3, 4))
    assert len(chain) == 13  # dimension 12 plus the zero algebra
    assert chain[-1][0].is_zero()


def test_rejection_chain_with_explicit_picks():
    # the published 10-algebra chain down to the semisimple stage
    picks = [1, 2, 3, 1, 2, 1, 3, 2, 3]
    chain = rejection_chain(make_cyclic(3, 4), picks=picks)
    kupisch = [tuple(sorted(a.loewy.values())) for a, _ in chain[:10]]
    assert kupisch == [
        (4, 4, 4), (3, 4, 4), (3, 3, 4), (3, 3, 3), (2, 3, 3),
        (2, 2, 3), (1, 2, 3), (1, 2, 2), (1, 1, 2), (1, 1, 1),
    ]
    # fourth algebra is the self-injective one; seventh is hereditary linear
    assert chain[3][0].loewy == {1: 3, 2: 3, 3: 3}
    a7 = chain[6][0]
    assert a7.loewy == {1: 1, 2: 2, 3: 3}
    assert not a7.component_is_cyclic(1)
    # the eighth step rejects a projective of Loewy length 2
    a8, j8 = chain[7]
    assert a8.loewy[j8] == 2


def test_rejection_chain_rejects_leftover_picks():
    assert rejection_chain(make_cyclic(1, 1), picks=[1])[-1] == (ZERO, None)
    with pytest.raises(NotInDomain, match=r"\[5, 7\]"):
        rejection_chain(make_cyclic(1, 1), picks=[1, 5, 7])
    # a full pick list is accepted and one pick more is left over
    alg = make_cyclic(3, 4)
    full = [j for _, j in rejection_chain(alg)[:-1]]
    assert len(full) == alg.dimension()
    assert [j for _, j in rejection_chain(alg, picks=full)[:-1]] == full
    with pytest.raises(NotInDomain):
        rejection_chain(alg, picks=full + [1])


def test_quotient_examples():
    a = make_cyclic(3, 3)
    q = quotient_by_idempotent(a, {1})
    assert q.vertices == (2, 3)
    assert q.loewy == {2: 1, 3: 2}   # K A_2 on the surviving labels
    assert quotient_by_idempotent(a, {1, 2, 3}).is_zero()
    assert quotient_by_idempotent(a, set()) == a
    with pytest.raises(InvalidKupisch, match="not in the algebra"):
        quotient_by_idempotent(a, {7})


def test_quotient_splits_path():
    q = quotient_by_idempotent(make_linear([1, 2, 3]), {2})
    assert len(components(q)) == 2
    assert all(c.n == 1 for c in components(q))


def _grid_with_quotients():
    """Every cyclic series of n <= 5 and linear series of n <= 6 with
    entries <= 6, each with all of its idempotent quotients."""
    algs = [cyclic_algebra(ks) for n in range(1, 6) for ks in valid_cyclic_series(n, 6)]
    algs += [make_linear(list(ks)) for n in range(1, 7) for ks in valid_linear_series(n, 6)]
    for a in algs:
        for mask in range(1 << a.n):
            yield quotient_by_idempotent(a, {v for i, v in enumerate(a.vertices) if mask >> i & 1})


def _assert_components_match_oracle(a):
    oracle = component_table_oracle(a)
    comps = sorted({c for c, _ in oracle.values()})
    assert a.component_vertices() == comps, a
    for v in a.vertices:
        assert a.component_is_cyclic(v) == oracle[v][1], (a, v)
        assert a.component_size(v) == len(oracle[v][0]), (a, v)


def test_component_table_matches_two_way_search():
    count = 0
    for a in _grid_with_quotients():
        _assert_components_match_oracle(a)
        count += 1
    assert count == 28830
    # every stage of a rejection chain: dead ambient edges, cycles opening
    chain = rejection_chain(make_cyclic(4, 5))
    assert len(chain) == 21
    for a, _ in chain:
        _assert_components_match_oracle(a)


def test_components_are_the_hand_built_sub_algebras():
    split = 0
    for a in _grid_with_quotients():
        comps = components(a)
        assert comps == components_oracle(a), a
        split += len(comps) > 1
    assert split == 13834
    for a, _ in rejection_chain(make_cyclic(4, 5)):
        assert components(a) == components_oracle(a)


def test_standard_arrows():
    assert standard_arrows(3, True) == {1: 3, 2: 1, 3: 2}
    assert standard_arrows(3, False) == {2: 1, 3: 2}
    assert standard_arrows(1, True) == {1: 1}
    assert standard_arrows(1, False) == {}
    # both shapes are built and recognised in this labelling
    assert cyclic_algebra([2, 2, 2]).next_down == standard_arrows(3, True)
    assert make_linear([1, 2, 2]).next_down == standard_arrows(3, False)
    assert algebra_to_json(cyclic_algebra([2, 2, 2]))["kind"] == "cyclic"
    assert algebra_to_json(make_linear([1, 2, 2]))["kind"] == "linear"
    reversed_cycle = NakayamaAlgebra((1, 2, 3), {1: 2, 2: 3, 3: 1}, {1: 2, 2: 2, 3: 2})
    assert algebra_to_json(reversed_cycle)["kind"] == "general"


def test_components():
    a = make_cyclic(3, 3)
    assert components(a) == [a]
    assert components(ZERO) == []
    # semisimple algebra presented on a cyclic quiver splits completely
    assert len(components(make_cyclic(4, 1))) == 4


def test_kupisch_invariants_after_operations():
    rng = random.Random(23)
    for _ in range(200):
        a = _random_valid_algebra(rng)
        killed = {v for v in a.vertices if rng.random() < 0.4}
        q = quotient_by_idempotent(a, killed)
        # constructor revalidates; spot-check the path-sink rule
        for v in q.vertices:
            if v not in q.next_down:
                assert q.loewy[v] == 1


def test_json_roundtrip():
    for a in [make_cyclic(3, 3), make_linear([1, 2, 2]), ZERO,
              quotient_by_idempotent(make_cyclic(4, 4), {2})]:
        assert algebra_from_json(algebra_to_json(a)) == a


_CYCLIC = {n: [cyclic_algebra(list(ks)) for ks in valid_cyclic_series(n, 5)] for n in range(1, 6)}
_LINEAR = {n: [make_linear(list(ks)) for ks in valid_linear_series(n, 6)] for n in range(1, 7)}
_ALGEBRAS = st.one_of(
    st.integers(1, 5).flatmap(lambda n: st.sampled_from(_CYCLIC[n])),
    st.integers(1, 6).flatmap(lambda n: st.sampled_from(_LINEAR[n])),
)
_QUOTIENTS = _ALGEBRAS.flatmap(
    lambda a: st.sets(st.sampled_from(a.vertices)).map(lambda k: quotient_by_idempotent(a, k))
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(_ALGEBRAS, _QUOTIENTS))
def test_json_text_round_trip(a):
    assert algebra_from_json(json.dumps(algebra_to_json(a))) == a


def test_json_literals():
    assert algebra_from_json({"kind": "cyclic", "kupisch": [3, 3, 3]}) == make_cyclic(3, 3)
    assert algebra_from_json({"kind": "linear", "kupisch": [1, 2, 3]}) == make_linear([1, 2, 3])


def test_cyclic_constructor_is_shared():
    # the JSON literal, the CLI flags and the verify re-export all build
    # cyclic algebras through algebra.cyclic_algebra
    from nakayama import algebra, verify
    from nakayama.cli import _algebra_from_args, build_parser

    assert verify.cyclic_algebra is algebra.cyclic_algebra
    for ks in valid_cyclic_series(3, 4):
        alg = cyclic_algebra(ks)
        assert alg.next_down == {1: 3, 2: 1, 3: 2}
        assert alg.loewy == dict(zip((1, 2, 3), ks))
        assert algebra_from_json({"kind": "cyclic", "kupisch": list(ks)}) == alg
        argv = ["count", "--cyclic", "3", "--kupisch", ",".join(map(str, ks))]
        assert _algebra_from_args(build_parser().parse_args(argv)) == alg
    assert make_cyclic(4, 3) == cyclic_algebra([3, 3, 3, 3])


@pytest.mark.parametrize("n, r", [(0, 3), (3, 0), (-1, 2), (2, -1)])
def test_make_cyclic_rejects_empty_or_nonpositive(n, r):
    with pytest.raises(InvalidKupisch):
        make_cyclic(n, r)


@pytest.mark.parametrize(
    "literal",
    [
        '{"kind": "cyclic", "kupisch": []}',
        '{"kind": "cyclic"}',
        '{"kind": "linear", "kupisch": 3}',
        '{"kind": "general", "vertices": [1], "next_down": {}, "loewy": {"x": 1}}',
        '{"kind": "general", "vertices": [1.0, 2], "next_down": {"2": 1}, '
        '"loewy": {"1": 1, "2": 2}}',
        '{"kind": "general", "vertices": [true, 2], "next_down": {"2": 1}, '
        '"loewy": {"1": 1, "2": 2}}',
        '{"kind": "spiral"}',
        "[1]",
        "{bad",
    ],
)
def test_malformed_algebra_literal_is_invalid_kupisch(literal):
    with pytest.raises(InvalidKupisch):
        algebra_from_json(literal)


@pytest.mark.parametrize("vertices", [["a", 1], [1, "a"], [None, 2], [(1,), 1]])
def test_non_int_labels_raise_invalid_kupisch_before_sorting(vertices):
    # mixed labels cannot be sorted: the label check comes first
    loewy = {v: 1 for v in vertices}
    with pytest.raises(InvalidKupisch, match="must be an integer"):
        NakayamaAlgebra(vertices, {}, loewy)


def test_algebra_invariants_raise(monkeypatch):
    a = make_linear([1, 2, 3])
    assert a.source_vertex() == 3
    b = make_cyclic(3, 3)
    monkeypatch.setattr(b, "factors", lambda j, length: (j,))  # P_1 stops at its top
    with pytest.raises(InvariantViolation, match="socle"):
        socle_vertex_of_projective(b, 1)
    monkeypatch.setattr(algebra, "quotient_by_idempotent", lambda alg, killed: alg)
    with pytest.raises(InvariantViolation, match="dimension 1 to 1"):
        reject(make_linear([1]), 1)


def test_an_algebra_never_equals_another_type():
    assert make_cyclic(2, 2).__eq__("x") is NotImplemented
    assert (make_cyclic(2, 2) == "x") is False


@pytest.mark.parametrize(
    "vertices, next_down, loewy, match",
    [
        ([1, 1], {}, {1: 1}, "duplicate vertex labels"),
        ([1, 2], {}, {1: 1}, "loewy keys"),
        ([1], {1: 5}, {1: 1}, "next_down 1->5 leaves the vertex set"),
        ([1, 2, 3], {2: 1, 3: 1}, {1: 1, 2: 2, 3: 2}, "vertex 1 has two incoming edges"),
        ([1, 2], {1: 1}, {1: 2, 2: 1}, "self-loop at 1"),
        ([1, 2], {2: 1.0}, {1: 1, 2: 2}, "next_down 2->1.0 must join integer vertices"),
    ],
)
def test_malformed_quiver_data_raises_invalid_kupisch(vertices, next_down, loewy, match):
    with pytest.raises(InvalidKupisch, match=match):
        NakayamaAlgebra(vertices, next_down, loewy)
