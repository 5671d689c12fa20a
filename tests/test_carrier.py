"""Carrier enumeration order, the reserved header row, and capacity math."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgestego import EdgeMap, capacity_bytes, carrier


def _edge_map(width, height, coords):
    membership = np.zeros((height, width), dtype=bool)
    for x, y in coords:
        membership[y, x] = True
    return EdgeMap(membership)


def _blocks(edges, limit):
    """The indices ``carrier_blocks`` yields, each block's ``start`` checked to be the
    number of carriers in the blocks before it."""
    blocks, walked = [], 0
    for start, index in carrier.carrier_blocks(edges, limit):
        assert start == walked
        blocks.append(index)
        walked += index.size
    return blocks


def _walk(edges, limit):
    """The blocks ``carrier_blocks`` yields, joined into one index."""
    return np.concatenate([np.empty(0, np.intp), *_blocks(edges, limit)])


def _carriers(edges):
    ys, xs = np.divmod(_walk(edges, edges.count), edges.width)
    return list(zip(xs.tolist(), ys.tolist()))


def test_carriers_come_out_row_major():
    carriers = _carriers(_edge_map(8, 5, [(2, 1), (0, 3), (5, 1)]))
    assert carriers == [(2, 1), (5, 1), (0, 3)]
    # second route: sort by y, then x
    assert carriers == sorted([(2, 1), (0, 3), (5, 1)], key=lambda p: (p[1], p[0]))


def test_header_row_is_reserved():
    edges = _edge_map(30, 4, [(x, 0) for x in range(30)])
    assert _carriers(edges) == []
    assert capacity_bytes(edges) == 0


def test_row_zero_edges_are_skipped_not_reordered():
    edges = _edge_map(10, 4, [(3, 0), (9, 0), (1, 2), (4, 2)])
    assert _carriers(edges) == [(1, 2), (4, 2)]


def test_empty_map_has_no_capacity():
    edges = EdgeMap(np.zeros((6, 6), dtype=bool))
    assert _carriers(edges) == []
    assert capacity_bytes(edges) == 0


def test_seven_carriers_hold_seven_bytes():
    # 7 carriers * 9 bits = 63 bits -> 7 whole bytes
    edges = _edge_map(27, 3, [(x, 1) for x in range(7)])
    assert capacity_bytes(edges) == 7


def test_capacity_of_5630_carriers():
    # large-count arithmetic: 5630 carriers give 50670 bits, 6333 whole bytes
    membership = np.zeros((80, 80), dtype=bool)
    membership.reshape(-1)[80 : 80 + 5630] = True  # skips row 0 entirely
    edges = EdgeMap(membership)
    assert edges.count == 5630
    assert len(_carriers(edges)) == 5630
    assert capacity_bytes(edges) == 6333


@given(st.integers(0, 2**32 - 1))
def test_carriers_for_is_the_fewest_that_hold_the_payload(size):
    # ceil(8 * size / 9): enough carriers for size bytes, and one fewer is not
    n = carrier.carriers_for(size)
    assert carrier.capacity_of(n) >= size
    assert n == 0 or carrier.capacity_of(n - 1) < size


@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_capacity_matches_bit_counting(width, height, seed):
    rng = np.random.default_rng(seed)
    edges = EdgeMap(rng.random((height, width)) < 0.3)
    carriers = _carriers(edges)
    bits = 0
    for _ in carriers:
        bits += 9  # three LSBs in each of the three channels
    assert capacity_bytes(edges) == bits // 8
    assert len(carriers) <= edges.count


@given(st.integers(1, 12), st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_carriers_are_exactly_the_non_reserved_edges(width, height, seed):
    rng = np.random.default_rng(seed)
    membership = rng.random((height, width)) < 0.4
    carriers = _carriers(EdgeMap(membership))
    expected = [
        (x, y) for y in range(1, height) for x in range(width) if membership[y, x]
    ]
    assert carriers == expected


def test_construction_order_is_irrelevant():
    rng = np.random.default_rng(1)
    coords = list(zip(rng.integers(0, 10, 30).tolist(), rng.integers(0, 10, 30).tolist()))
    forward = _edge_map(10, 10, coords)
    backward = _edge_map(10, 10, list(reversed(coords)))
    assert _carriers(forward) == _carriers(backward)


@pytest.mark.parametrize("block_pixels", [1, 7, 64, carrier._BLOCK_PIXELS])
def test_index_matches_a_whole_image_flatnonzero(monkeypatch, block_pixels):
    # row blocks of one row and of several, the limit cut inside a block, at
    # the first seam, at the end and past it, and an index too big for uint16
    monkeypatch.setattr(carrier, "_BLOCK_PIXELS", block_pixels)
    rng = np.random.default_rng(block_pixels)
    for width, height in ((1, 9), (3, 7), (8, 20), (13, 31), (300, 250), (2**16 + 1, 2)):
        membership = rng.random((height, width)) < 0.4
        edges = EdgeMap(membership)
        reference = np.flatnonzero(membership[1:]) + width
        assert carrier.carrier_count(edges) == reference.size
        rows = max(1, block_pixels // width)
        seam = np.count_nonzero(membership[1 : 1 + rows])
        for limit in (0, 1, seam, reference.size // 2, reference.size, reference.size + 5):
            blocks = _blocks(edges, limit)
            assert all(block.dtype == np.intp for block in blocks)
            assert np.array_equal(_walk(edges, limit), reference[:limit])
            for k, block in enumerate(blocks):  # block k holds row block k's carriers only
                assert np.all((block // width - 1) // rows == k)
            # the walk ends with the block that reaches the limit, else with the image
            if limit == 0:
                ends = 0
            elif limit <= reference.size:
                ends = (reference[limit - 1] // width - 1) // rows + 1
            else:
                ends = -(-(height - 1) // rows)
            assert len(blocks) == ends
