"""End-to-end transcriptions of the reference worked examples.

Each row of the 4-vertex table pairs a sequence with the modules it induces
over the cyclic algebras of Loewy length 4, 3, and 2 (where defined), and
with the proper pair obtained by stripping projectives.  Modules are written
as composition-factor stacks, top first.
"""

from poset_oracles import degree_sequence

from nakayama.algebra import make_cyclic
from nakayama.geometry import tau_tilt_to_triangulation, triangulation_to_tau_tilt
from nakayama.modcat import Indec, comp_factors
from nakayama.poset import hasse_direct, pair_label
from nakayama.sequences import SeqA, top_of_triangulation, x_of_sequence
from nakayama.tautilt import drop_to_proper_part

L33 = make_cyclic(3, 3)

L44 = make_cyclic(4, 4)
L43 = make_cyclic(4, 3)
L42 = make_cyclic(4, 2)

# sequence, stacks over r=4, proper-part stacks, stacks over r=3, stacks over r=2
TABLE_ROWS = [
    ((1, 1, 1, 1),
     ["1/4/3/2", "2/1/4/3", "3/2/1/4", "4/3/2/1"], [],
     ["1/4/3", "2/1/4", "3/2/1", "4/3/2"], ["1/4", "2/1", "3/2", "4/3"]),
    ((1, 0, 2, 1),
     ["1/4/3/2", "3/2/1/4", "4/3/2/1", "3"], ["3"],
     ["1/4/3", "3/2/1", "4/3/2", "3"], ["1/4", "3/2", "4/3", "3"]),
    ((2, 0, 2, 0),
     ["1/4/3/2", "3/2/1/4", "1", "3"], ["1", "3"],
     ["1/4/3", "3/2/1", "1", "3"], ["1/4", "3/2", "1", "3"]),
    ((1, 0, 1, 2),
     ["1/4/3/2", "4/3/2/1", "4/3", "3"], ["4/3", "3"],
     ["1/4/3", "4/3/2", "4/3", "3"], None),
    ((1, 0, 0, 3),
     ["1/4/3/2", "4/3/2/1", "4/3", "4"], ["4/3", "4"],
     ["1/4/3", "4/3/2", "4/3", "4"], None),
    ((2, 0, 1, 1),
     ["1/4/3/2", "1/4/3", "4/3", "3"], ["1/4/3", "4/3", "3"], None, None),
    ((3, 0, 1, 0),
     ["1/4/3/2", "1/4/3", "1", "3"], ["1/4/3", "1", "3"], None, None),
    ((4, 0, 0, 0),
     ["1/4/3/2", "1/4/3", "1/4", "1"], ["1/4/3", "1/4", "1"], None, None),
    ((3, 0, 0, 1),
     ["1/4/3/2", "1/4/3", "1/4", "4"], ["1/4/3", "1/4", "4"], None, None),
    ((2, 0, 0, 2),
     ["1/4/3/2", "1/4/3", "4/3", "4"], ["1/4/3", "4/3", "4"], None, None),
]


def _stacks(alg, pair):
    return sorted("/".join(str(v) for v in comp_factors(alg, s)) for s in pair.module)


def test_table_rows_across_all_columns():
    for seq, col4, proper, col3, col2 in TABLE_ROWS:
        x = x_of_sequence(SeqA(seq))
        assert top_of_triangulation(x) == SeqA(seq)
        pair4 = triangulation_to_tau_tilt(L44, x)
        assert _stacks(L44, pair4) == sorted(col4)
        assert tau_tilt_to_triangulation(L44, pair4) == x
        dropped = drop_to_proper_part(L44, pair4)
        assert _stacks(L44, dropped) == sorted(proper)
        if col3 is not None:
            pair3 = triangulation_to_tau_tilt(L43, x)
            assert _stacks(L43, pair3) == sorted(col3)
        if col2 is not None:
            pair2 = triangulation_to_tau_tilt(L42, x)
            assert _stacks(L42, pair2) == sorted(col2)


def test_table_column_sizes():
    bounds = {j: 4 for j in range(1, 5)}
    from nakayama.geometry import enumerate_restricted

    assert len(enumerate_restricted(4, bounds)) == 35
    assert len(enumerate_restricted(4, {j: 3 for j in range(1, 5)})) == 15
    assert len(enumerate_restricted(4, {j: 2 for j in range(1, 5)})) == 7


def test_hasse_left_edge_chain():
    # one maximal chain read off the 3-vertex order diagram, top to bottom
    labels = [pair_label(L33, v) for v in hasse_direct(L33).vertices]
    chain = [
        "1/3/2 + 2/1/3 + 3/2/1",
        "2 + 2/1/3 + 3/2/1",
        "2 + 3/2 + 3/2/1",
        "2 + 3/2 [1]",
        "2 [1,3]",
        "0 [1,2,3]",
    ]
    for label in chain:
        assert label in labels
    h = hasse_direct(L33)
    arrow_labels = {
        (pair_label(L33, h.vertices[a]), pair_label(L33, h.vertices[b]))
        for a, b in h.arrows
    }
    for upper, lower in zip(chain, chain[1:]):
        assert (upper, lower) in arrow_labels


# the full 20-vertex order diagram of the 3-vertex self-injective algebra,
# written as (module summands, killed); arrows transcribed row by row
FIGURE_VERTICES = {
    "A": ([(1, 3), (2, 3), (3, 3)], []),
    "B": ([(2, 1), (2, 3), (3, 3)], []),
    "C": ([(1, 1), (1, 3), (2, 3)], []),
    "D": ([(3, 1), (1, 3), (3, 3)], []),
    "E": ([(2, 1), (3, 2), (3, 3)], []),
    "F": ([(2, 1), (2, 2), (2, 3)], []),
    "G": ([(2, 2), (2, 3), (1, 1)], []),
    "H": ([(1, 3), (1, 2), (1, 1)], []),
    "I": ([(1, 3), (3, 1), (1, 2)], []),
    "J": ([(3, 2), (3, 1), (3, 3)], []),
    "K": ([(2, 1), (3, 2)], [1]),
    "L": ([(2, 1), (2, 2)], [3]),
    "M": ([(2, 2), (1, 1)], [3]),
    "N": ([(1, 2), (1, 1)], [2]),
    "O": ([(3, 1), (1, 2)], [2]),
    "P": ([(3, 2), (3, 1)], [1]),
    "Q": ([(2, 1)], [1, 3]),
    "R": ([(1, 1)], [2, 3]),
    "S": ([(3, 1)], [1, 2]),
    "T": ([], [1, 2, 3]),
}
FIGURE_ARROWS = [
    "AB", "AC", "AD",
    "BE", "BF", "CG", "CH", "DI", "DJ",
    "EK", "EJ", "FL", "GF", "GM", "HN", "IH", "IO", "JP",
    "KQ", "KP", "LQ", "ML", "MR", "NR", "ON", "OS", "PS",
    "QT", "RT", "ST",
]


def test_full_order_diagram_matches_transcription():
    from nakayama.tautilt import SttPair

    name_to_pair = {
        name: SttPair(
            tuple(sorted(Indec(*s) for s in module)), tuple(killed)
        )
        for name, (module, killed) in FIGURE_VERTICES.items()
    }
    h = hasse_direct(L33)
    assert set(h.vertices) == set(name_to_pair.values())
    expected = {
        (name_to_pair[a], name_to_pair[b]) for a, b in FIGURE_ARROWS
    }
    got = {(h.vertices[a], h.vertices[b]) for a, b in h.arrows}
    assert got == expected


def test_three_vertex_stage_quiver():
    # the 10-element stage just before semisimple in the published chain:
    # an isolated vertex times a two-vertex path, transcribed in full
    from nakayama.algebra import NakayamaAlgebra
    from nakayama.tautilt import SttPair

    alg = NakayamaAlgebra((1, 2, 3), {3: 2}, {1: 1, 2: 1, 3: 2})
    vertices = {
        "top": ([(1, 1), (2, 1), (3, 2)], []),
        "u1": ([(1, 1), (3, 1), (3, 2)], []),
        "v1": ([(2, 1), (3, 2)], [1]),
        "v2": ([(1, 1), (2, 1)], [3]),
        "v3": ([(1, 1), (3, 1)], [2]),
        "v4": ([(3, 1), (3, 2)], [1]),
        "w1": ([(2, 1)], [1, 3]),
        "w2": ([(1, 1)], [2, 3]),
        "w3": ([(3, 1)], [1, 2]),
        "zero": ([], [1, 2, 3]),
    }
    arrows = [
        ("top", "v1"), ("top", "v2"), ("top", "u1"),
        ("u1", "v3"), ("u1", "v4"),
        ("v1", "w1"), ("v1", "v4"),
        ("v2", "w1"), ("v2", "w2"),
        ("v3", "w2"), ("v3", "w3"),
        ("v4", "w3"),
        ("w1", "zero"), ("w2", "zero"), ("w3", "zero"),
    ]
    name_to_pair = {
        name: SttPair(tuple(sorted(Indec(*s) for s in m)), tuple(killed))
        for name, (m, killed) in vertices.items()
    }
    h = hasse_direct(alg)
    assert set(h.vertices) == set(name_to_pair.values())
    got = {(h.vertices[a], h.vertices[b]) for a, b in h.arrows}
    assert got == {(name_to_pair[a], name_to_pair[b]) for a, b in arrows}
    assert set(degree_sequence(h)) == {3}
