"""Reference implementations that the bitset order and covers in
nakayama.poset are tested against: one predicate call per ordered pair of
elements, and one scan per ordered pair of indices."""

from nakayama.poset import HasseQuiver, Poset, geq


def from_relation(elements, le):
    """Poset from a binary predicate le(x, y) meaning x <= y."""
    elements = list(elements)
    down = []
    for y in elements:
        mask = 0
        for j, x in enumerate(elements):
            if le(x, y):
                mask |= 1 << j
        down.append(mask)
    return Poset(elements, down)


def fac_order(alg, pairs):
    """The support tau-tilting poset from the definitional order geq."""
    return from_relation(pairs, lambda x, y: geq(alg, y, x))


def transitive_reduction(poset):
    """Covering relations by definition: i > j with nothing strictly
    between them."""
    k = len(poset.elements)
    up = [0] * k
    for i in range(k):
        for j in range(k):
            if i != j and poset.down[i] >> j & 1:
                up[j] |= 1 << i
    arrows = []
    for i in range(k):
        for j in range(k):
            if i == j or not poset.down[i] >> j & 1:
                continue
            between = poset.down[i] & up[j] & ~(1 << i) & ~(1 << j)
            if between == 0:
                arrows.append((i, j))
    return HasseQuiver(tuple(poset.elements), tuple(sorted(arrows)))
