"""The one rule by which every memory-bounded loop cuts its index space:
the Gaussian sweep's tiles (``geometry``) and the discrete joint's blocks
and pieces (``discrete``).  :func:`tiles` gives each axis's piece length,
and :func:`pieces` walks the pieces one at a time."""

from __future__ import annotations

import math


def tiles(shape, limit: int, axes=None) -> tuple[int, ...]:
    """Each axis's piece length, for cutting ``range(shape[k])`` into
    consecutive slices: ``math.prod`` of it is the largest piece.

    ``axes`` (default: every axis) are cut in order, each to as many entries
    as keep a piece within ``limit`` cells, the axes not yet cut counted
    whole.  Cutting stops once a piece fits, so with the default order the
    outer axes go to one entry first.  Axes not in ``axes`` stay whole, so a
    piece exceeds ``limit`` only where its cut axes are down to one entry.
    """
    chunk, size = list(shape), math.prod(shape)
    for k in range(len(shape)) if axes is None else axes:
        if size <= limit:
            break
        size //= shape[k]
        chunk[k] = max(1, limit // size)
        size *= chunk[k]
    return tuple(chunk)


def pieces(shape, chunk):
    """The pieces of ``shape`` cut to ``chunk`` entries per axis (the last
    slice of an axis shorter), as tuples of slices in C order.

    An odometer over the cut axes: it holds the current piece only, so a
    million-point axis costs nothing until it is walked.
    """
    index = [slice(0, c) for c in chunk]
    cut = [k for k in reversed(range(len(shape))) if chunk[k] < shape[k]]
    while True:
        yield tuple(index)
        for k in cut:
            start = index[k].stop
            if start < shape[k]:
                index[k] = slice(start, min(start + chunk[k], shape[k]))
                break
            index[k] = slice(0, chunk[k])
        else:
            return
