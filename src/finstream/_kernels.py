"""Bitmask-row kernels: transitive-reflexive closure and bit gathering."""

BACKEND = "python"


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
