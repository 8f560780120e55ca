"""Unit and property tests for domain decomposition (§8.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stencil.grid import decompose, process_grid


class TestProcessGrid:
    @pytest.mark.parametrize(
        "p,expected",
        [(1, (1, 1)), (2, (1, 2)), (4, (2, 2)), (6, (2, 3)), (8, (2, 4)),
         (16, (4, 4)), (60, (6, 10)), (64, (8, 8))],
    )
    def test_near_square_factorisation(self, p, expected):
        assert process_grid(p) == expected

    def test_prime_degenerates_to_row(self):
        assert process_grid(7) == (1, 7)


class TestDecompose:
    def test_cells_partition_domain(self):
        blocks = decompose(100, 8)
        assert sum(b.interior_cells for b in blocks) == 100 * 100

    def test_balanced_split(self):
        blocks = decompose(100, 8)
        sizes = [b.interior_cells for b in blocks]
        assert max(sizes) - min(sizes) <= max(blocks[0].height, blocks[0].width)

    def test_neighbour_symmetry(self):
        blocks = decompose(64, 16)
        for b in blocks:
            if b.east is not None:
                assert blocks[b.east].west == b.rank
            if b.south is not None:
                assert blocks[b.south].north == b.rank

    def test_boundary_blocks_have_no_outer_neighbours(self):
        n = 64
        blocks = decompose(n, 16)
        for b in blocks:
            assert (b.north is None) == (b.global_row0 == 0)
            assert (b.south is None) == (b.global_row0 + b.height == n)
            assert (b.west is None) == (b.global_col0 == 0)
            assert (b.east is None) == (b.global_col0 + b.width == n)

    def test_offsets_tile_domain(self):
        n = 50
        blocks = decompose(n, 6)
        covered = np.zeros((n, n), dtype=int)
        for b in blocks:
            covered[
                b.global_row0 : b.global_row0 + b.height,
                b.global_col0 : b.global_col0 + b.width,
            ] += 1
        assert (covered == 1).all()

    def test_too_small_domain_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            decompose(2, 9)

    def test_exchange_bytes(self):
        blocks = decompose(32, 4)  # 2x2 grid, 16x16 blocks
        corner = blocks[0]
        assert corner.exchange_bytes() == (16 + 16) * 8  # south + east only

    def test_working_set_is_two_padded_grids(self):
        block = decompose(30, 4)[0]  # 15x15 interior
        assert block.working_set_bytes == 2 * 17 * 17 * 8


@given(n=st.integers(16, 128), p=st.integers(1, 16))
@settings(max_examples=60, deadline=None)
def test_decomposition_properties(n, p):
    rows, cols = process_grid(p)
    if n < rows or n < cols:
        return
    blocks = decompose(n, p)
    assert len(blocks) == p
    assert sum(b.interior_cells for b in blocks) == n * n
    for b in blocks:
        assert b.height >= 1 and b.width >= 1
