"""The sender's SACK scoreboard against a per-block reference fold.

The scoreboard update folds all of an ACK's SACK blocks in one linear
pass. The reference below is the older per-block fold it replaced (one
full-list merge and one full-list subtraction per block), kept here
verbatim as the specification: for every input both must leave exactly
the same ``_sacked`` and ``_rexmit_out`` lists, not merely the same sets.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.testing import TwoHostWorld
from repro.transport.tcp import _subtract_ranges, _union_ranges

# ---------------------------------------------------------------------- #
# reference: the per-block fold


def _merge_range(ranges, start, end):
    """Insert [start, end) into a sorted disjoint range list."""
    merged = []
    placed = False
    for r_start, r_end in ranges:
        if r_end < start or (placed and r_start > end):
            merged.append((r_start, r_end))
        elif r_start > end:
            if not placed:
                merged.append((start, end))
                placed = True
            merged.append((r_start, r_end))
        else:
            start = min(start, r_start)
            end = max(end, r_end)
    if not placed:
        merged.append((start, end))
    merged.sort()
    return merged


def _subtract_range(ranges, start, end):
    """Remove [start, end) from a sorted disjoint range list."""
    result = []
    for r_start, r_end in ranges:
        if r_end <= start or r_start >= end:
            result.append((r_start, r_end))
            continue
        if r_start < start:
            result.append((r_start, start))
        if r_end > end:
            result.append((end, r_end))
    return result


def reference_merge_sack(snd_una, sacked, rexmit_out, blocks):
    ranges = list(sacked)
    for start, end in blocks:
        start = max(start, snd_una)
        if end <= start:
            continue
        ranges = _merge_range(ranges, start, end)
        rexmit_out = _subtract_range(rexmit_out, start, end)
    return ranges, rexmit_out


def reference_trim_sacked(snd_una, sacked, rexmit_out):
    sacked = [(max(start, snd_una), end) for start, end in sacked if end > snd_una]
    return sacked, _subtract_range(rexmit_out, 0, snd_una)


# ---------------------------------------------------------------------- #
# strategies

SEQ = st.integers(min_value=0, max_value=80)


@st.composite
def canonical_ranges(draw):
    """Sorted, disjoint, non-touching, non-empty ranges (the scoreboard's
    form): strictly increasing edges, paired up."""
    edges = sorted(draw(st.sets(SEQ, max_size=16)))
    if len(edges) % 2:
        edges.pop()
    return [(edges[i], edges[i + 1]) for i in range(0, len(edges), 2)]


#: SACK blocks as a receiver might send them and worse: any order,
#: empty, inverted, below snd_una, touching or overlapping each other.
BLOCKS = st.lists(st.tuples(SEQ, SEQ), max_size=12)


def sender(snd_una, sacked, rexmit_out):
    world = TwoHostWorld()
    conn = world.client.connect(world.server_endpoint)
    conn._snd_una = snd_una
    conn._sacked = list(sacked)
    conn._rexmit_out = list(rexmit_out)
    return conn


# ---------------------------------------------------------------------- #
# tests


class TestMergeSack:
    # The scoreboard and the retransmitted ranges are drawn independently,
    # so they overlap freely: equality does not rest on the sender's own
    # invariant that retransmissions in flight are never SACKed.
    @settings(max_examples=400, deadline=None)
    @given(SEQ, canonical_ranges(), canonical_ranges(), BLOCKS)
    def test_matches_per_block_fold(self, snd_una, sacked, rexmit_out, blocks):
        conn = sender(snd_una, sacked, rexmit_out)
        conn._merge_sack(tuple(blocks))
        expected = reference_merge_sack(snd_una, sacked, rexmit_out, blocks)
        assert (conn._sacked, conn._rexmit_out) == expected

    def test_touching_blocks_merge_into_one_range(self):
        conn = sender(10, [(30, 40)], [(12, 50)])
        conn._merge_sack(((20, 25), (25, 30), (40, 45)))
        assert conn._sacked == [(20, 45)]
        # Only the new blocks leave the retransmitted ranges, not the
        # whole scoreboard: (30, 40) was SACKed before this ACK.
        assert conn._rexmit_out == [(12, 20), (30, 40), (45, 50)]

    def test_blocks_wholly_below_snd_una_change_nothing(self):
        conn = sender(50, [(60, 70)], [(50, 55)])
        conn._merge_sack(((10, 20), (30, 50), (45, 40)))
        assert conn._sacked == [(60, 70)]
        assert conn._rexmit_out == [(50, 55)]


class TestTrimSacked:
    @settings(max_examples=300, deadline=None)
    @given(SEQ, canonical_ranges(), canonical_ranges())
    def test_matches_reference(self, snd_una, sacked, rexmit_out):
        conn = sender(snd_una, sacked, rexmit_out)
        conn._trim_sacked()
        expected = reference_trim_sacked(snd_una, sacked, rexmit_out)
        assert (conn._sacked, conn._rexmit_out) == expected


class TestRangeHelpers:
    # _retransmit_at records a retransmitted segment with a union.
    @settings(max_examples=300, deadline=None)
    @given(canonical_ranges(), SEQ, st.integers(min_value=1, max_value=20))
    def test_union_of_one_range_matches_insert(self, ranges, start, length):
        end = start + length
        assert _union_ranges(ranges + [(start, end)]) == _merge_range(
            ranges, start, end
        )

    @settings(max_examples=300, deadline=None)
    @given(canonical_ranges(), canonical_ranges())
    def test_subtract_matches_per_hole_fold(self, ranges, holes):
        expected = ranges
        for start, end in holes:
            expected = _subtract_range(expected, start, end)
        assert _subtract_ranges(ranges, holes) == expected

    def test_hole_spanning_several_ranges(self):
        assert _subtract_ranges([(0, 5), (8, 12), (15, 20)], [(3, 17)]) == [
            (0, 3),
            (17, 20),
        ]

    def test_empty_inputs(self):
        assert _subtract_ranges([], [(0, 5)]) == []
        assert _subtract_ranges([(0, 5)], []) == [(0, 5)]
