"""Open masks: the openness test, mask_of, and the value memo's invariant
that every key is an open mask checked on the miss that stored it."""

import random

import pytest

from finstream import (
    StoredPrecirculation,
    all_opens,
    directed_interval,
    directed_square,
    pullback,
)
from finstream import circulation
from finstream.corpus import spaces_upto
from finstream.errors import NotOpen, UnknownPoint
from finstream.models import pathology_fixture
from finstream.spaces import is_open_mask, require_open_mask

from conftest import model_streams, open_mask_oracle


def _stored(stream):
    space = stream.space
    return StoredPrecirculation(
        space, {space.set_of(m): stream.value_mask(m) for m in all_opens(space)}
    )


def _precirculation(kind):
    """A circulation, a stored precirculation or a pullback, with a cold
    memo, and one open and one non-open mask of its space."""
    square = directed_square(1, 1)
    if kind == "circulation":
        pc = square.circ
    elif kind == "stored":
        pc = _stored(square)
    else:
        pc = pullback(square, {p: p for p in square.space.points}, square.space)
    space = pc.space
    widest = max(all_opens(space), key=int.bit_count)
    shut = next(m for m in range(1, 1 << space.n) if not is_open_mask(space, m))
    return pc, widest, shut


KINDS = ("circulation", "stored", "pullback")


@pytest.fixture
def open_checks(monkeypatch):
    """The masks circulation.require_open_mask is called on, in order."""
    seen = []

    def spy(space, mask):
        seen.append(mask)
        return require_open_mask(space, mask)

    monkeypatch.setattr(circulation, "require_open_mask", spy)
    return seen


@pytest.mark.parametrize("kind", KINDS)
def test_memo_hit_skips_the_openness_check(kind, open_checks):
    pc, open_mask, _ = _precirculation(kind)
    open_checks.clear()
    first = pc.rows_on(open_mask)
    assert open_checks[0] == open_mask  # a pullback's miss also reads its source
    checks = len(open_checks)
    assert pc.rows_on(open_mask) is first
    assert pc.assign_mask(open_mask) == pc.assign_mask(open_mask)
    assert len(open_checks) == checks
    assert list(pc._memo).count(open_mask) == 1


@pytest.mark.parametrize("kind", KINDS)
def test_non_open_mask_is_never_stored(kind):
    pc, open_mask, shut = _precirculation(kind)
    pc.rows_on(open_mask)
    size = len(pc._memo)
    for _ in range(2):
        with pytest.raises(NotOpen, match="is not open"):
            pc.rows_on(shut)
        assert len(pc._memo) == size
        assert shut not in pc._memo


@pytest.mark.parametrize("mask", [-1, -2, 1 << 40, 1 << 9, (1 << 10) - 1])
def test_mask_outside_the_space_is_not_open(mask):
    s = directed_square(1, 1)
    assert s.space.n == 9
    assert not is_open_mask(s.space, mask)
    with pytest.raises(NotOpen, match="outside the space"):
        require_open_mask(s.space, mask)
    for read in (s.circ.value_mask, s.circ.value_rows, s.circ.rows_on, s.circ.assign_mask):
        with pytest.raises(NotOpen):
            read(mask)
    assert not s.circ._memo


def test_mask_outside_the_space_is_not_open_on_every_precirculation():
    for pc in (_stored(directed_interval(2)), pathology_fixture().pulled):
        for mask in (-1, 1 << pc.space.n, 1 << 40):
            with pytest.raises(NotOpen):
                pc.rows_on(mask)
        assert not pc._memo


def test_is_open_mask_matches_the_definition_on_small_spaces():
    for space in spaces_upto(3):
        for mask in range(-2, 1 << (space.n + 1)):
            assert is_open_mask(space, mask) == open_mask_oracle(space, mask), (space, mask)


def test_is_open_mask_matches_the_definition_on_random_masks():
    rng = random.Random(29)
    for s in model_streams():
        space = s.space
        for m in all_opens(space):
            assert is_open_mask(space, m)
        for _ in range(300):
            mask = rng.getrandbits(space.n + 2) - rng.randint(0, 1) * (1 << (space.n + 2))
            assert is_open_mask(space, mask) == open_mask_oracle(space, mask), (space, mask)


def test_mask_of_reports_the_first_unknown_name():
    space = directed_interval(2).space
    names = ["v0", "nope", "e1", "gone"]
    message = "'nope' not a point of the space"
    for points in (names, iter(names), (p for p in names)):
        with pytest.raises(UnknownPoint) as raised:
            space.mask_of(points)
        assert str(raised.value) == message
    with pytest.raises(UnknownPoint) as by_index:
        space.index("nope")
    assert str(by_index.value) == message
    assert space.mask_of(p for p in ("v0", "e1")) == space.mask_of(["e1", "v0"])
    with pytest.raises(TypeError):
        space.mask_of(["v0", ["e1"]])
