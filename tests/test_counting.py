import functools
import json
import math

import pytest
from module_oracles import cyclic_series_filter, linear_series_filter

from nakayama import algebra, counting, tautilt
from nakayama.algebra import (
    ZERO,
    NakayamaAlgebra,
    cyclic_algebra,
    make_cyclic,
    make_gamma,
    make_linear,
    quotient_by_idempotent,
)
from nakayama.cli import main
from nakayama.counting import (
    catalan,
    central_binomial,
    count_gamma_recurrence,
    count_stt_gamma2_jasso,
    dp_counts,
    enumerated_counts,
    table_line,
    verify_tables,
)
from nakayama.errors import InvariantViolation
from nakayama.modcat import Indec
from nakayama.sequences import enumerate_Z
from nakayama.tautilt import enumerate_stt, enumerate_tau_tilt
from nakayama.verify import valid_cyclic_series, valid_linear_series


def test_catalan_values():
    assert [catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_central_binomial_values():
    assert central_binomial(5) == 252
    assert central_binomial(0) == 1


def test_gamma_recurrence_values():
    assert count_gamma_recurrence(4, 3) == 9
    assert count_gamma_recurrence(5, 2) == 8
    for r in range(1, 6):
        assert count_gamma_recurrence(1, r) == 1
    # hereditary diagonal
    for n in range(1, 6):
        assert count_gamma_recurrence(n, n) == catalan(n)


def test_jasso_recurrence_values():
    assert count_stt_gamma2_jasso(3) == 12
    assert count_stt_gamma2_jasso(4) == 29
    assert count_stt_gamma2_jasso(5) == 70


def test_verify_tables_all_ok():
    reports = verify_tables()
    assert len(reports) == 50
    assert all(ok for _, ok in reports)


def _one_more_pair(alg):
    tt, proper, stt = enumerated_counts(alg)  # the unpatched import
    return tt, proper + 1, stt + 1


@pytest.mark.parametrize(
    "name, fake, note",
    [
        ("count_gamma_recurrence", lambda n, r: -1, "recurrence gives -1"),
        ("count_stt_gamma2_jasso", lambda n: -1, "two-term recurrence gives -1"),
        ("catalan", lambda n: -1, "hereditary count is not catalan("),
        ("enumerated_counts", _one_more_pair, "semisimple count is not 2^n"),
        ("central_binomial", lambda n: -1, "count is not binom(2n,n)=-1"),
    ],
)
def test_verify_tables_notes_each_failed_cross_check(monkeypatch, name, fake, note):
    monkeypatch.setattr(counting, name, fake)
    noted = [(line, ok) for line, ok in verify_tables() if note in line]
    assert noted
    assert all(line.startswith("MISMATCH") and not ok for line, ok in noted), noted


SPLIT_ALGEBRAS = (
    [make(n, r) for make in (make_gamma, make_cyclic) for n in range(1, 6) for r in range(1, 6)]
    + [
        quotient_by_idempotent(make_linear([1, 2, 3, 4]), {2}),
        quotient_by_idempotent(make_cyclic(5, 4), {1, 3}),
        ZERO,
    ]
)


def test_clique_counts_match_enumerate_stt():
    # the counts behind the reference table, against the killed/unkilled
    # split of the pairs that enumerate_stt lists
    for alg in SPLIT_ALGEBRAS:
        pairs = enumerate_stt(alg)
        tt = sum(1 for p in pairs if not p.killed)
        assert enumerated_counts(alg) == (tt, len(pairs) - tt, len(pairs)), alg
    assert enumerated_counts(ZERO) == (1, 0, 1)


def test_counts_build_no_component_algebra(monkeypatch):
    # the two disconnected quotients and the zero algebra are counted on
    # the graph of the whole algebra, the one that enumerate_stt searches
    def fail(*args):
        pytest.fail(f"an algebra built to count: {args}")

    monkeypatch.setattr(algebra, "components", fail)
    monkeypatch.setattr(algebra, "quotient_by_idempotent", fail)
    fresh = [NakayamaAlgebra(a.vertices, a.next_down, a.loewy) for a in SPLIT_ALGEBRAS[-3:]]
    assert [enumerated_counts(alg) for alg in fresh] == [(2, 8, 10), (2, 8, 10), (1, 0, 1)]


def test_counts_build_no_pair(monkeypatch):
    # two components: (linear 1) x (linear 1,2) has 2 x 5 pairs, of which
    # 1 x 2 are tau-tilting
    alg = quotient_by_idempotent(make_linear([1, 2, 3, 4]), {2})
    monkeypatch.setattr(tautilt, "SttPair", None)
    monkeypatch.setattr(tautilt, "make_pair", None)
    assert enumerated_counts(alg) == (2, 8, 10)


def test_table_spot_values():
    tt, _, stt = enumerated_counts(make_cyclic(5, 3))
    assert (tt, stt) == (31, 132)
    tt, _, stt = enumerated_counts(make_gamma(5, 4))
    assert (tt, stt) == (28, 118)
    for n in range(1, 6):
        assert enumerated_counts(make_cyclic(n, 1))[2] == 2 ** n


def test_self_injective_closed_form():
    for n in range(1, 7):
        assert len(enumerate_stt(make_cyclic(n, n))) == central_binomial(n)


def test_hereditary_tilting_catalan():
    for n in range(1, 8):
        alg = make_linear(list(range(1, n + 1)))
        assert len(enumerate_tau_tilt(alg)) == catalan(n)


def test_sequence_count_identities():
    for n in range(1, 7):
        size = len(enumerate_Z(n))
        assert size == math.comb(2 * n - 1, n - 1)
        assert 2 * size == central_binomial(n)


def test_source_projective_recurrence_general():
    # tau-tilting count = sum over reach of the source projective of
    # catalan-weighted counts of the truncated algebras
    pool = [
        ks
        for n in range(1, 6)
        for ks in valid_linear_series(n, 5)
        if len(make_linear(list(ks)).arrow_orders()) == 1
    ]
    assert len(pool) >= 20
    for ks in pool:
        alg = make_linear(list(ks))
        s = alg.source_vertex()
        total = 0
        for i in range(1, alg.loewy[s] + 1):
            killed = set(range(s, s - i, -1))
            sub = quotient_by_idempotent(alg, killed)
            total += catalan(i - 1) * len(enumerate_tau_tilt(sub))
        assert total == len(enumerate_tau_tilt(alg))


def test_report_formatting():
    assert table_line("cyclic n=3 r=3", (10, 10, 20), (10, 10, 20)) == (
        "ok       cyclic n=3 r=3 counts=(10, 10, 20) expected=(10, 10, 20) [enumerated]",
        True,
    )
    assert table_line("cyclic n=3 r=3", (10, 10, 20), (9, 11, 20)) == (
        "MISMATCH cyclic n=3 r=3 counts=(10, 10, 20) expected=(9, 11, 20) [enumerated]",
        False,
    )
    # a failed cross-check fails the line even when the counts match
    assert table_line("linear n=2 r=2", (2, 3, 5), (2, 3, 5), ["recurrence gives 3"]) == (
        "MISMATCH linear n=2 r=2 counts=(2, 3, 5) expected=(2, 3, 5) [enumerated]"
        "  recurrence gives 3",
        False,
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_series_walks_list_the_filtered_products_in_order(n):
    for max_entry in (0, 1, n + 1, n + 2, n + 3):
        assert valid_cyclic_series(n, max_entry) == list(cyclic_series_filter(n, max_entry))
        assert valid_linear_series(n, max_entry) == list(linear_series_filter(n, max_entry))


def test_the_empty_cycle_has_one_series():
    assert valid_cyclic_series(0, 3) == list(cyclic_series_filter(0, 3)) == [()]


# -- the interval DP against the clique enumeration ---------------------------

GRID = [
    (shape, ks)
    for n in range(1, 6)
    for shape, series in (
        ("cyclic", valid_cyclic_series(n, n + 2)), ("linear", valid_linear_series(n, n + 1))
    )
    for ks in series
]


def grid_algebra(shape, ks):
    return cyclic_algebra(ks) if shape == "cyclic" else make_linear(list(ks))


@functools.cache
def grid_enumerated(shape, ks):
    return enumerated_counts(grid_algebra(shape, ks))


def test_dp_counts_equal_enumerated_on_the_grid():
    assert len(GRID) == 889
    for shape, ks in GRID:
        assert dp_counts(grid_algebra(shape, ks)) == grid_enumerated(shape, ks), (shape, ks)


@pytest.mark.parametrize(
    "alg",
    [
        quotient_by_idempotent(make_linear([1, 2, 3, 4]), {2}),
        quotient_by_idempotent(make_cyclic(5, 4), {2, 4}),
        # a path 5 -> 3 -> 2 -> 1 and a cycle 1 -> 5 -> 2 -> 3 -> 1, neither
        # in label order
        NakayamaAlgebra([1, 2, 3, 5], {5: 3, 3: 2, 2: 1}, {1: 1, 2: 2, 3: 3, 5: 3}),
        NakayamaAlgebra([1, 2, 3, 5], {1: 5, 5: 2, 2: 3, 3: 1}, {1: 3, 2: 3, 3: 2, 5: 4}),
        *(cyclic_algebra([r]) for r in range(1, 4)),
        ZERO,
    ],
    ids=repr,
)
def test_dp_counts_equal_enumerated_off_the_standard_labelling(alg):
    assert dp_counts(alg) == enumerated_counts(alg)


def test_dp_closed_forms_up_to_60():
    for n in range(1, 61):
        tt, proper, stt = dp_counts(make_cyclic(n, n))
        assert (tt, proper, stt) == (
            math.comb(2 * n - 1, n - 1), math.comb(2 * n - 1, n - 1), central_binomial(n)
        ), n
        tt, _, stt = dp_counts(make_linear(list(range(1, n + 1))))
        assert (tt, stt) == (catalan(n), catalan(n + 1)), n


def test_dp_matches_the_recurrences():
    for n in range(1, 31):
        for r in range(1, 8):
            assert dp_counts(make_gamma(n, r))[0] == count_gamma_recurrence(n, r), (n, r)
        assert dp_counts(make_gamma(n, 2))[2] == count_stt_gamma2_jasso(n), n


def test_dp_catches_an_enumeration_that_loses_a_pair():
    # without the edge S1 -- P2 of the linear A2 algebra's cached graph the
    # clique search loses the pair S1 + P2 without an error; the DP, which
    # never reads the graph, still counts 5 pairs
    alg = make_linear([1, 2])
    nbr, _, labels = tautilt.compatibility_graph(alg)
    s1, p2 = labels.index(Indec(1, 1)), labels.index(Indec(2, 2))
    nbr[s1] &= ~(1 << p2)
    nbr[p2] &= ~(1 << s1)
    assert enumerated_counts(alg)[2] == 4
    assert dp_counts(alg) == (2, 3, 5)
    assert dp_counts(alg) != enumerated_counts(alg)


def test_verify_tables_notes_a_dp_disagreement(monkeypatch):
    real = counting.dp_counts
    monkeypatch.setattr(
        counting, "dp_counts", lambda alg: (0, 0, 0) if alg == make_cyclic(2, 2) else real(alg)
    )
    bad = [(line, ok) for line, ok in verify_tables() if not ok]
    assert bad == [(
        "MISMATCH cyclic n=2 r=2 counts=(3, 3, 6) expected=(3, 3, 6) [enumerated]"
        "  DP gives (0, 0, 0)",
        False,
    )]


def test_a_component_without_tau_tilting_modules_is_an_invariant_violation(monkeypatch):
    monkeypatch.setattr(counting, "_component_counts", lambda loewy: (0, 1))
    with pytest.raises(InvariantViolation, match="0 tau-tilting modules"):
        dp_counts(make_cyclic(2, 2))


def test_count_prints_the_enumerated_counts(capsys):
    for shape, ks in GRID:
        flags = ["--cyclic", str(len(ks))] if shape == "cyclic" else ["--linear"]
        argv = ["count", *flags, "--kupisch", ",".join(map(str, ks))]
        tt, proper, stt = grid_enumerated(shape, ks)
        assert main(argv) == 0
        assert capsys.readouterr().out == f"tau-tilt: {tt}\nproper: {proper}\nstt: {stt}\n"
        assert main([*argv, "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(
            {"tau_tilt": tt, "proper": proper, "stt": stt}, sort_keys=True, separators=(",", ":")
        ) + "\n"
