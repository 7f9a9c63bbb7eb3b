"""The one rule by which every memory-bounded loop cuts its index space:
the Gaussian sweep's tiles (``geometry``) and the discrete joint's blocks
and pieces (``discrete``)."""

from __future__ import annotations

import math
from collections.abc import Sequence


class _Cuts(Sequence):
    """``range(n)`` as consecutive slices of ``size`` entries, the last one
    shorter, each made when it is read: a million-point axis costs nothing
    until it is walked."""

    def __init__(self, n: int, size: int):
        self.n, self.size, self.starts = n, size, range(0, n, size)

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, k: int) -> slice:
        start = self.starts[k]
        return slice(start, min(start + self.size, self.n))


def tiles(shape, limit: int, axes=None) -> list[Sequence[slice]]:
    """Each axis's consecutive slices covering ``range(shape[k])``.

    ``axes`` (default: every axis) are cut in order, each to as many entries
    as keep a piece within ``limit`` cells, the axes not yet cut counted
    whole.  Cutting stops once a piece fits, so with the default order the
    outer axes go to one entry first.  Axes not in ``axes`` stay whole, so a
    piece exceeds ``limit`` only where its cut axes are down to one entry.
    ``itertools.product`` of the sequences gives the pieces in C order; it
    holds the sum of the cut counts, never their product.
    """
    chunk, size = list(shape), math.prod(shape)
    for k in range(len(shape)) if axes is None else axes:
        if size <= limit:
            break
        size //= shape[k]
        chunk[k] = max(1, limit // size)
        size *= chunk[k]
    # An uncut axis is its one slice: a tuple, which product walks faster.
    return [(slice(0, n),) if c == n else _Cuts(n, c) for n, c in zip(shape, chunk)]
