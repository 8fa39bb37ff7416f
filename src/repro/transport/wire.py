"""Mixed real/virtual byte streams and the TCP stream buffers.

A stream *piece* is either ``bytes`` (real data — HTTP headers, small
payloads that must be parsed) or a non-negative ``int`` (that many virtual
bytes — response bodies whose content is irrelevant to timing). All
sequence arithmetic treats both identically; only the HTTP layer ever looks
inside real pieces.

:class:`SendBuffer` holds the outbound stream with absolute offsets and
serves arbitrary byte-range slices, so retransmissions need no per-segment
copies. :class:`ReassemblyBuffer` is the receive side: an interval map that
tolerates duplication, reordering, and partial overlap, releasing in-order
pieces to the application.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Tuple, Union

Piece = Union[bytes, int]


def piece_len(piece: Piece) -> int:
    """Byte length of one piece."""
    if isinstance(piece, (bytes, bytearray)):
        return len(piece)
    if isinstance(piece, int):
        if piece < 0:
            raise ValueError(f"virtual piece length must be >= 0: {piece!r}")
        return piece
    raise TypeError(f"not a stream piece: {piece!r}")


def pieces_len(pieces: List[Piece]) -> int:
    """Total byte length of a piece list."""
    return sum(piece_len(p) for p in pieces)


def piece_slice(piece: Piece, start: int, end: int) -> Piece:
    """Slice one piece by byte range (``0 <= start <= end <= len``)."""
    if isinstance(piece, (bytes, bytearray)):
        return bytes(piece[start:end])
    return end - start


def pieces_slice(pieces: List[Piece], start: int, end: int) -> List[Piece]:
    """Slice a piece list by byte range, skipping empty fragments.

    ``start``/``end`` are offsets relative to the beginning of ``pieces``;
    out-of-range ends are clamped.
    """
    if start < 0:
        raise ValueError(f"negative slice start: {start!r}")
    result: List[Piece] = []
    offset = 0
    for piece in pieces:
        if offset >= end:
            break
        length = piece_len(piece)
        lo = max(start - offset, 0)
        hi = min(end - offset, length)
        if lo < hi:
            result.append(piece_slice(piece, lo, hi))
        offset += length
    return result


def pieces_to_bytes(pieces: List[Piece], fill: bytes = b"\x00") -> bytes:
    """Materialize a piece list as real bytes (virtual bytes become fill).

    Only used by tests and by code paths that genuinely need content.
    """
    parts = []
    for piece in pieces:
        if isinstance(piece, (bytes, bytearray)):
            parts.append(bytes(piece))
        else:
            parts.append(fill * piece)
    return b"".join(parts)


class SendBuffer:
    """Outbound stream with absolute offsets and an acknowledged prefix.

    Appended pieces accumulate at increasing offsets; :meth:`slice` serves
    any byte range at or beyond the acknowledged prefix, which is advanced
    by :meth:`ack_to` (releasing memory for real pieces).
    """

    __slots__ = ("_starts", "_pieces", "_length", "_acked")

    def __init__(self) -> None:
        self._starts: List[int] = []
        self._pieces: List[Piece] = []
        self._length = 0
        self._acked = 0

    @property
    def length(self) -> int:
        """Total bytes ever appended (the stream's current end offset)."""
        return self._length

    @property
    def acked(self) -> int:
        """Offset of the acknowledged prefix."""
        return self._acked

    @property
    def unacked_bytes(self) -> int:
        """Bytes appended but not yet acknowledged."""
        return self._length - self._acked

    def append(self, piece: Piece) -> None:
        """Add a piece to the end of the stream (zero-length is a no-op)."""
        length = piece_len(piece)
        if length == 0:
            return
        self._starts.append(self._length)
        self._pieces.append(piece)
        self._length += length

    def slice(self, start: int, length: int) -> List[Piece]:
        """Return pieces covering ``[start, start + length)``.

        Raises:
            ValueError: if the range reaches below the acked prefix or
                beyond the appended data.
        """
        end = start + length
        if start < self._acked:
            raise ValueError(f"slice start {start} below acked prefix {self._acked}")
        if end > self._length:
            raise ValueError(f"slice end {end} beyond stream end {self._length}")
        if length == 0:
            return []
        index = bisect_right(self._starts, start) - 1
        result: List[Piece] = []
        while index < len(self._pieces):
            piece_start = self._starts[index]
            if piece_start >= end:
                break
            piece = self._pieces[index]
            lo = max(start - piece_start, 0)
            hi = min(end - piece_start, piece_len(piece))
            if lo < hi:
                result.append(piece_slice(piece, lo, hi))
            index += 1
        return result

    def ack_to(self, offset: int) -> None:
        """Advance the acknowledged prefix (never backwards)."""
        if offset <= self._acked:
            return
        if offset > self._length:
            raise ValueError(f"ack {offset} beyond stream end {self._length}")
        self._acked = offset
        # Release fully acked pieces from the front.
        drop = 0
        while drop < len(self._pieces):
            end = self._starts[drop] + piece_len(self._pieces[drop])
            if end <= offset:
                drop += 1
            else:
                break
        if drop:
            del self._starts[:drop]
            del self._pieces[:drop]


class ReassemblyBuffer:
    """Receive-side interval map delivering in-order stream pieces.

    ``insert`` accepts any (offset, pieces) fragment — duplicated,
    reordered, or partially overlapping previously received data —
    and ``pop_ready`` releases whatever is now contiguous from
    :attr:`next_offset`.
    """

    __slots__ = ("next_offset", "_fragments")

    def __init__(self) -> None:
        self.next_offset = 0
        # Non-overlapping stored fragments: sorted list of (start, end, pieces).
        self._fragments: List[Tuple[int, int, List[Piece]]] = []

    @property
    def buffered_bytes(self) -> int:
        """Bytes held out of order, not yet deliverable."""
        return sum(end - start for start, end, __ in self._fragments)

    def ranges(self) -> List[Tuple[int, int]]:
        """The out-of-order (start, end) offset ranges held, lowest first.

        Used by TCP to build SACK blocks.
        """
        return [(start, end) for start, end, __ in self._fragments]

    def insert(self, offset: int, pieces: List[Piece]) -> None:
        """Store a fragment of the stream starting at ``offset``."""
        length = pieces_len(pieces)
        start, end = offset, offset + length
        if end <= self.next_offset:
            return
        if start < self.next_offset:
            pieces = pieces_slice(pieces, self.next_offset - start, length)
            start = self.next_offset
        # Clip the incoming fragment into the gaps between stored fragments.
        gaps = self._gaps(start, end)
        new_fragments = []
        for gap_start, gap_end in gaps:
            part = pieces_slice(pieces, gap_start - start, gap_end - start)
            if part:
                new_fragments.append((gap_start, gap_end, part))
        if new_fragments:
            self._fragments.extend(new_fragments)
            self._fragments.sort(key=lambda frag: frag[0])

    def _gaps(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Sub-ranges of [start, end) not covered by stored fragments."""
        gaps = []
        cursor = start
        for frag_start, frag_end, __ in self._fragments:
            if frag_end <= cursor:
                continue
            if frag_start >= end:
                break
            if frag_start > cursor:
                gaps.append((cursor, min(frag_start, end)))
            cursor = max(cursor, frag_end)
            if cursor >= end:
                break
        if cursor < end:
            gaps.append((cursor, end))
        return gaps

    def pop_ready(self) -> List[Piece]:
        """Remove and return all pieces now contiguous at ``next_offset``."""
        ready: List[Piece] = []
        while self._fragments and self._fragments[0][0] == self.next_offset:
            __, end, pieces = self._fragments.pop(0)
            ready.extend(pieces)
            self.next_offset = end
        return ready
