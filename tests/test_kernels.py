import random

import finstream
from finstream._kernels import (
    BACKEND,
    closure_rows,
    gather_rows,
    image_rows,
    iter_bits,
    reach,
    transpose_rows,
)

from conftest import closure_oracle


def random_rows(rng, n, density=0.2):
    return [
        sum(1 << j for j in range(n) if rng.random() < density) for i in range(n)
    ]


def sparse_rows(rng, n, active):
    """Rows of which only ``active`` carry bits; the others close to their
    bare diagonal, as in a closure over a small open of a large space."""
    rows = [0] * n
    for i in rng.sample(range(n), active):
        rows[i] = sum(1 << j for j in rng.sample(range(n), 2))
    return rows


def assert_matches_oracle(rows, n):
    names = [f"p{i}" for i in range(n)]
    pairs = {
        (names[i], names[j]) for i in range(n) for j in range(n) if rows[i] >> j & 1
    }
    closed = closure_rows(rows, n)
    got = {
        (names[i], names[j]) for i in range(n) for j in range(n) if closed[i] >> j & 1
    }
    assert got == closure_oracle(names, pairs)


def test_python_kernel_matches_oracle():
    rng = random.Random(1)
    for n in (0, 1, 2, 5, 9, 16, 64, 70):
        # about one successor per row past 16 points keeps the oracle's
        # fixpoint small while chains still cross the 64-bit boundary
        density = 0.2 if n <= 16 else 1 / n
        for _ in range(20):
            assert_matches_oracle(random_rows(rng, n, density), n)
    for n, active in ((16, 3), (70, 6), (289, 9)):
        for _ in range(20):
            assert_matches_oracle(sparse_rows(rng, n, active), n)


def reachable(rows, i):
    """Row i of the full reflexive-transitive closure, by graph search."""
    seen = 1 << i
    todo = [i]
    while todo:
        new = rows[todo.pop()] & ~seen
        seen |= new
        todo.extend(j for j in range(new.bit_length()) if new >> j & 1)
    return seen


def test_closure_on_positions_matches_full_closure():
    """Rows supported on a position set close there as the full closure
    does, with the rows off the set left zero."""
    rng = random.Random(3)
    for n in range(71):
        for _ in range(6):
            k = rng.choice((0, n, rng.randint(0, n)))
            positions = sorted(rng.sample(range(n), k))
            # successors inside the set, as on an open; every other draw
            # also lets them leave it
            targets = positions if rng.random() < 0.5 else range(n)
            rows = [0] * n
            for i in positions:
                rows[i] = sum(1 << j for j in targets if rng.random() < 2 / (k + 1))
            expected = tuple(reachable(rows, i) if i in positions else 0 for i in range(n))
            assert closure_rows(rows, n, positions) == expected


def test_selected_backend_is_exported():
    assert BACKEND == finstream.kernel_backend == "python"
    assert closure_rows([0b10, 0b00], 2) == (0b11, 0b10)


def gather_oracle(rows, mask):
    """One bit test per set position of the mask, lowest first."""
    positions = [j for j in range(mask.bit_length()) if mask >> j & 1]
    return tuple(
        sum((row >> j & 1) << k for k, j in enumerate(positions)) for row in rows
    )


def test_gather_rows_matches_per_bit_oracle():
    rng = random.Random(2)
    for n in (0, 1, 5, 64, 70, 289):
        full = (1 << n) - 1
        alternating = sum(1 << j for j in range(0, n, 2))
        rows = [rng.getrandbits(n) if n else 0 for _ in range(12)]
        masks = [0, full, alternating, full ^ alternating]
        masks += [1 << j for j in {0, 63, 64, n - 1} if 0 <= j < n]
        masks += [rng.getrandbits(n) & rng.getrandbits(n) if n else 0 for _ in range(20)]
        for mask in masks:
            assert gather_rows(rows, mask) == gather_oracle(rows, mask)
    assert gather_rows([], 0b101) == ()
    assert gather_rows([0b111], 0) == (0,)


def bits_oracle(mask):
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


def random_widths(rng):
    """Row widths 0-70, each with rows that are empty, full, single bits or
    random."""
    for n in (0, 1, 2, 5, 63, 64, 65, 70):
        full = (1 << n) - 1
        rows = [rng.getrandbits(n) if n else 0 for _ in range(n)]
        if n:
            rows[0] = 0
            rows[-1] = full
            rows[n // 2] = 1 << rng.randrange(n)
        yield n, rows


def test_iter_bits_matches_per_bit_oracle():
    rng = random.Random(4)
    for n in (0, 1, 63, 64, 65, 70, 289):
        for mask in (0, (1 << n) - 1, rng.getrandbits(n) if n else 0):
            assert list(iter_bits(mask)) == bits_oracle(mask)


def test_image_rows_matches_per_bit_oracle():
    rng = random.Random(5)
    for n, rows in random_widths(rng):
        for m in (1, 3, n, n + 7):
            if not m:
                continue
            maps = [
                [rng.randrange(m) for _ in range(n)],  # non-injective when m < n
                [0] * n,  # constant
                [(a * 7) % m for a in range(n)],
            ]
            for f in maps:
                for positions in (None, sorted(rng.sample(range(n), n // 3))):
                    base = [rng.getrandbits(m) for _ in range(m)]
                    expected = list(base)
                    for a in range(n) if positions is None else positions:
                        for b in range(n):
                            if rows[a] >> b & 1:
                                expected[f[a]] |= 1 << f[b]
                    out = list(base)
                    assert image_rows(rows, f, out, positions) is out
                    assert out == expected
    # the empty map moves nothing
    out = [0b101, 0]
    assert image_rows([], [], out) == [0b101, 0]


def test_transpose_rows_matches_per_bit_oracle():
    rng = random.Random(6)
    for n, rows in random_widths(rng):
        expected = [
            sum(1 << a for a in range(n) if rows[a] >> b & 1) for b in range(n)
        ]
        assert transpose_rows(rows, n) == expected
        assert transpose_rows(transpose_rows(rows, n), n) == rows
    assert transpose_rows([], 3) == [0, 0, 0]
    assert transpose_rows([], 0) == []
    # the converse of the rows 1 << f[a] is the fibres of f, empty ones too
    f = [2, 0, 2, 2]
    assert transpose_rows([1 << t for t in f], 4) == [0b0010, 0, 0b1101, 0]


def test_reach_matches_per_bit_oracle():
    rng = random.Random(7)
    for n, rows in random_widths(rng):
        masks = [0, (1 << n) - 1] + [1 << j for j in {0, n // 2, n - 1} if 0 <= j < n]
        masks += [rng.getrandbits(n) if n else 0 for _ in range(10)]
        for mask in masks:
            expected = 0
            for j in range(n):
                if mask >> j & 1:
                    expected |= rows[j]
            assert reach(mask, rows) == expected
    # over the fibres of a map, reach is the preimage
    f = [2, 0, 2, 2, 1]
    fibres = transpose_rows([1 << t for t in f], 3)
    for target in range(8):
        assert reach(target, fibres) == sum(1 << a for a, t in enumerate(f) if target >> t & 1)
