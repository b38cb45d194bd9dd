"""Bitmask-row kernels, the one place where rows of bits are moved.

A relation on points 0..n-1 is one int row per point, bit j of row i
meaning i is related to j. ``closure_rows`` closes such rows,
``gather_rows`` restricts them to a sub-carrier, ``image_rows`` relabels
them along a point map, ``transpose_rows`` gives the converse relation,
``reach`` ORs the rows at a mask's bits and ``is_acyclic`` asks whether the
rows' graph has a cycle. Over the rows of a map's fibres, the converse of
the rows ``1 << f[a]``, ``reach`` is a preimage.
"""

BACKEND = "python"


def iter_bits(mask):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def closure_rows(rows, n, positions=None):
    """Close a relation given as successor bitmasks, one int row per point.

    Returns a tuple of rows containing the diagonal and closed under
    composition (bit-parallel Warshall). Rows may be arbitrary-width ints,
    so carriers of any size work unchanged.

    Only the active rows, those with a bit besides their diagonal, enter the
    loops: a diagonal-only row never changes and adds nothing as a pivot.
    A relation that touches a few points of a large carrier therefore costs
    about the square of those few, not of the carrier.

    ``positions`` (default every point) names the rows to close: only they
    get their diagonal, are scanned for activity and serve as pivots, and
    every other row is returned as given. When the rows off ``positions``
    are zero, the result is the full closure with those rows zeroed (a
    pivot off ``positions`` would only add its own diagonal bit), so a
    closure on a small open of a large space costs the open, not the space.
    """
    out = list(rows)
    if positions is None:
        positions = range(n)
    for i in positions:
        out[i] |= 1 << i
    active = [i for i in positions if out[i] != 1 << i]
    for k in active:
        rk = out[k]
        bit = 1 << k
        for i in active:
            if out[i] & bit:
                out[i] |= rk
    return tuple(out)


def gather_rows(rows, mask):
    """Compress each row to the bits at the set positions of mask.

    Bit k of an output row is the input row's bit at the k-th lowest set
    position of mask, so restricting full-carrier rows to a sub-carrier
    whose points sit at those positions renumbers them 0, 1, ... in order.
    The mask is split once into maximal runs of set bits; each row then
    costs one shift-and-mask per run instead of one test per bit.
    """
    runs = []
    offset = 0
    while mask:
        start = (mask & -mask).bit_length() - 1
        high = mask >> start
        run = high & ~(high + 1)
        runs.append((start, run, offset))
        offset += run.bit_length()
        mask ^= run << start
    out = []
    for row in rows:
        value = 0
        for start, run, shift in runs:
            value |= (row >> start & run) << shift
        out.append(value)
    return tuple(out)


def image_rows(rows, f, out, positions=None):
    """OR the image of the relation along the point map f into out: bit
    f[b] of row a lands in out[f[a]]. Returns out. ``positions`` (default
    every row) names the rows to move, so a relation on a small open of a
    large space costs the open."""
    if positions is None:
        positions = range(len(rows))
    for a in positions:
        image = 0
        for b in iter_bits(rows[a]):
            image |= 1 << f[b]
        out[f[a]] |= image
    return out


def transpose_rows(rows, m):
    """The converse relation on m columns: bit a of row b iff bit b of row a."""
    out = [0] * m
    for a, row in enumerate(rows):
        bit = 1 << a
        for b in iter_bits(row):
            out[b] |= bit
    return out


def reach(mask, rows):
    """The OR of the rows at the set bits of mask."""
    out = 0
    for i in iter_bits(mask):
        out |= rows[i]
    return out


def is_acyclic(rows):
    """Whether the graph of the rows, self-loops aside, has no cycle.

    Kahn's algorithm: count each point's incoming steps, then remove points
    no remaining step enters; every point goes exactly when there is no
    cycle. One pass over the steps, with no closure."""
    indegree = [0] * len(rows)
    for a, row in enumerate(rows):
        for b in iter_bits(row & ~(1 << a)):
            indegree[b] += 1
    ready = [b for b, count in enumerate(indegree) if not count]
    removed = 0
    while ready:
        a = ready.pop()
        removed += 1
        for b in iter_bits(rows[a] & ~(1 << a)):
            indegree[b] -= 1
            if not indegree[b]:
                ready.append(b)
    return removed == len(rows)
