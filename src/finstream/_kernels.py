"""Transitive-reflexive closure on bitmask rows."""

BACKEND = "python"


def closure_rows(rows, n):
    """Close a relation given as successor bitmasks, one int row per point.

    Returns a tuple of rows containing the diagonal and closed under
    composition (bit-parallel Warshall). Rows may be arbitrary-width ints,
    so carriers of any size work unchanged.

    Only the active rows, those with a bit besides their diagonal, enter the
    loops: a diagonal-only row never changes and adds nothing as a pivot.
    A relation that touches a few points of a large carrier therefore costs
    about the square of those few, not of the carrier.
    """
    out = list(rows)
    for i in range(n):
        out[i] |= 1 << i
    active = [i for i in range(n) if out[i] != 1 << i]
    for k in active:
        rk = out[k]
        bit = 1 << k
        for i in active:
            if out[i] & bit:
                out[i] |= rk
    return tuple(out)
