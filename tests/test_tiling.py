"""Tests for the one rule that cuts every memory-bounded loop's index space."""

import itertools
import math

import numpy as np
from helpers import traced_peak
from hypothesis import given, settings, strategies as st

from icdms.geometry import PAIR_TILE
from icdms.tiling import largest_piece, tiles


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_tiles_cover_the_space_once_in_c_order_within_the_limit(data):
    """The pieces cover the index space exactly once, in C order; a piece
    exceeds ``limit`` only where its cut axes are down to one entry; each
    cut axis holds as many entries as the limit allows; and the axes not
    in ``axes`` stay whole.  ``largest_piece`` is the largest piece's size."""
    shape = tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=6)))
    limit = data.draw(st.integers(1, math.prod(shape) + 2))
    axes = data.draw(st.none() | st.lists(st.integers(0, len(shape) - 1), unique=True))
    cut = range(len(shape)) if axes is None else axes
    cuts = tiles(shape, limit, axes)
    sizes = [axis[0].stop for axis in cuts]
    for k, (n, axis) in enumerate(zip(shape, cuts)):
        assert list(axis) == [axis[i] for i in range(len(axis))]
        if k not in cut:
            assert list(axis) == [slice(0, n)]
        elif sizes[k] < n:
            assert math.prod(sizes) // sizes[k] * (sizes[k] + 1) > limit
    cover = np.zeros(shape, dtype=int)
    corners, largest = [], 0
    for piece in itertools.product(*cuts):
        cover[piece] += 1
        corners.append(tuple(s.start for s in piece))
        lengths = [s.stop - s.start for s in piece]
        assert math.prod(lengths) <= limit or all(lengths[k] == 1 for k in cut)
        largest = max(largest, math.prod(lengths))
    assert (cover == 1).all()
    assert largest_piece(cuts) == largest
    assert corners == sorted(set(corners))


def test_tiles_of_a_million_points_per_axis_hold_only_the_cuts():
    # 8 * 10**12 pieces, one (beta, lambda1) pair each; a slice is made only
    # when it is read.
    cuts, peak = traced_peak(lambda: tiles((10**6,) * 3, PAIR_TILE))
    assert [len(axis) for axis in cuts] == [10**6, 10**6, 8]
    assert cuts[0][-1] == slice(10**6 - 1, 10**6)
    assert cuts[2][-1] == slice(7 * PAIR_TILE, 10**6)
    assert peak < 2**14
