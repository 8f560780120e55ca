"""Domain decomposition for the 5-point Laplacian case study (§8.2).

A global N x N interior is split over a near-square process grid; each rank
owns a local block padded with a one-cell ghost frame (Fig. 8.1).  Ranks
are laid out row-major over the process grid, and neighbour relationships
(north/south/east/west) drive the border exchanges of every implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.validation import require_int

WORD = 8  # double-precision grid cells


def process_grid(nprocs: int) -> tuple[int, int]:
    """Most-square factorisation ``rows x cols == nprocs`` with
    ``rows <= cols``."""
    nprocs = require_int(nprocs, "nprocs")
    if nprocs < 1:
        raise ValueError("nprocs must be >= 1")
    rows = int(math.isqrt(nprocs))
    while nprocs % rows != 0:
        rows -= 1
    return rows, nprocs // rows


@dataclass(frozen=True)
class LocalBlock:
    """One rank's share of the global interior."""

    rank: int
    height: int  # interior rows owned
    width: int  # interior cols owned
    global_row0: int  # global index of the first owned row
    global_col0: int
    north: int | None  # neighbour ranks (None at the physical boundary)
    south: int | None
    east: int | None
    west: int | None

    @property
    def interior_cells(self) -> int:
        return self.height * self.width

    @property
    def working_set_bytes(self) -> float:
        """Working set of one Jacobi sweep: two padded grids (§8.5)."""
        return 2.0 * (self.height + 2) * (self.width + 2) * WORD

    def neighbours(self) -> list[int]:
        return [n for n in (self.north, self.south, self.east, self.west)
                if n is not None]

    def exchange_bytes(self, word_bytes: int = 8) -> int:
        """Ghost data shipped per iteration (one row/col per live side)."""
        total = 0
        if self.north is not None:
            total += self.width * word_bytes
        if self.south is not None:
            total += self.width * word_bytes
        if self.east is not None:
            total += self.height * word_bytes
        if self.west is not None:
            total += self.height * word_bytes
        return total


def _split(total: int, parts: int) -> list[int]:
    """Balanced 1-D split: sizes differ by at most one."""
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def decompose(n: int, nprocs: int) -> list[LocalBlock]:
    """Split an ``n x n`` interior over ``nprocs`` row-major ranks."""
    n = require_int(n, "n")
    nprocs = require_int(nprocs, "nprocs")
    rows, cols = process_grid(nprocs)
    if n < rows or n < cols:
        raise ValueError(f"grid {n}x{n} too small for a {rows}x{cols} split")
    heights = _split(n, rows)
    widths = _split(n, cols)
    row_offsets = [sum(heights[:i]) for i in range(rows)]
    col_offsets = [sum(widths[:i]) for i in range(cols)]
    blocks = []
    for rank in range(nprocs):
        r, c = divmod(rank, cols)
        blocks.append(
            LocalBlock(
                rank=rank,
                height=heights[r],
                width=widths[c],
                global_row0=row_offsets[r],
                global_col0=col_offsets[c],
                north=rank - cols if r > 0 else None,
                south=rank + cols if r < rows - 1 else None,
                east=rank + 1 if c < cols - 1 else None,
                west=rank - 1 if c > 0 else None,
            )
        )
    return blocks
