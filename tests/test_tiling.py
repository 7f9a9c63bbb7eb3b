"""Tests for the one rule that cuts every memory-bounded loop's index space."""

import math

import numpy as np
from helpers import traced_peak
from hypothesis import given, settings, strategies as st

from icdms.geometry import PAIR_TILE
from icdms.tiling import pieces, tiles


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_tiles_cover_the_space_once_in_c_order_within_the_limit(data):
    """The pieces cover the index space exactly once, in C order; a piece
    exceeds ``limit`` only where its cut axes are down to one entry; each
    cut axis holds as many entries as the limit allows; and the axes not
    in ``axes`` stay whole.  ``math.prod`` of the piece lengths is the
    largest piece's size."""
    shape = tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=6)))
    limit = data.draw(st.integers(1, math.prod(shape) + 2))
    axes = data.draw(st.none() | st.lists(st.integers(0, len(shape) - 1), unique=True))
    cut = range(len(shape)) if axes is None else axes
    sizes = tiles(shape, limit, axes)
    assert all(type(size) is int for size in sizes)
    for k, (n, size) in enumerate(zip(shape, sizes)):
        if k not in cut:
            assert size == n
        elif size < n:
            assert math.prod(sizes) // size * (size + 1) > limit
    cover = np.zeros(shape, dtype=int)
    corners, largest = [], 0
    for piece in pieces(shape, sizes):
        cover[piece] += 1
        corners.append(tuple(s.start for s in piece))
        lengths = [s.stop - s.start for s in piece]
        assert all(s.start % size == 0 for s, size in zip(piece, sizes))
        assert math.prod(lengths) <= limit or all(lengths[k] == 1 for k in cut)
        largest = max(largest, math.prod(lengths))
    assert (cover == 1).all()
    assert math.prod(sizes) == largest
    assert corners == sorted(set(corners))


def test_tiles_of_a_million_points_per_axis_hold_only_the_cuts():
    # 8 * 10**12 pieces, one (beta, lambda1) pair each; the walk makes each
    # piece as it reaches it.
    shape = (10**6,) * 3
    sizes, peak = traced_peak(lambda: tiles(shape, PAIR_TILE))
    assert sizes == (1, 1, PAIR_TILE)
    assert [-(-n // size) for n, size in zip(shape, sizes)] == [10**6, 10**6, 8]
    assert peak < 2**14
    walk = pieces(shape, sizes)
    assert next(walk) == (slice(0, 1), slice(0, 1), slice(0, PAIR_TILE))
    for _ in range(7):
        last = next(walk)
    assert last == (slice(0, 1), slice(0, 1), slice(7 * PAIR_TILE, 10**6))
    assert next(walk) == (slice(0, 1), slice(1, 2), slice(0, PAIR_TILE))


def test_first_piece_of_a_million_points_per_axis_is_reached_in_constant_memory():
    # itertools.product of the cut axes' slices held every slice of every
    # axis before the first piece: 256 MB traced.
    first, peak = traced_peak(lambda: next(pieces((10**6,) * 3, tiles((10**6,) * 3, PAIR_TILE))))
    assert first == (slice(0, 1), slice(0, 1), slice(0, PAIR_TILE))
    assert peak < 2**14
