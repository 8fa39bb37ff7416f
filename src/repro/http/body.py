"""Message bodies: real bytes or counted virtual bytes.

A :class:`Body` is what an HTTP message carries. Bodies created from real
``bytes`` keep their content (needed for recorded HTML whose structure the
browser model scans); virtual bodies know only their length, which is all
the transport needs to reproduce timing. The distinction never leaks into
timing — both serialize to the same number of on-wire bytes.
"""

from __future__ import annotations

from typing import List

from repro.transport.wire import Piece, piece_len


class Body:
    """An HTTP message body.

    Create with :meth:`from_bytes` (content preserved), :meth:`virtual`
    (length-only), or :meth:`empty`.
    """

    __slots__ = ("_pieces", "_length")

    def __init__(self, pieces: List[Piece]) -> None:
        # A tuple of bytes/ints holds no references the cyclic GC could
        # chase, so the collector untracks it; a list stays tracked.
        self._pieces = tuple([p for p in pieces if piece_len(p) > 0])
        self._length = sum(piece_len(p) for p in self._pieces)

    @classmethod
    def _single(cls, piece: Piece) -> "Body":
        """``cls([piece])`` without the filtering pass (one body per
        recorded pair is built this way, so it is on the set-up path)."""
        body = cls.__new__(cls)
        length = piece_len(piece)
        body._pieces = (piece,) if length else ()
        body._length = length
        return body

    @classmethod
    def empty(cls) -> "Body":
        """A zero-length body (one shared instance: bodies are immutable)."""
        return _EMPTY

    @classmethod
    def from_bytes(cls, data: bytes) -> "Body":
        """A body with real content."""
        return cls._single(data)

    @classmethod
    def virtual(cls, length: int) -> "Body":
        """A content-free body of ``length`` bytes."""
        if length < 0:
            raise ValueError(f"body length must be >= 0, got {length!r}")
        return cls._single(length)

    @property
    def length(self) -> int:
        """Total byte length."""
        return self._length

    @property
    def pieces(self) -> List[Piece]:
        """The underlying stream pieces (copy)."""
        return list(self._pieces)

    @property
    def is_fully_real(self) -> bool:
        """True when every byte of content is available."""
        return all(isinstance(p, (bytes, bytearray)) for p in self._pieces)

    def as_bytes(self) -> bytes:
        """Materialize the content.

        Raises:
            ValueError: if any part of the body is virtual.
        """
        if not self.is_fully_real:
            raise ValueError("body contains virtual bytes; no content to return")
        return b"".join(bytes(p) for p in self._pieces)

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Body):
            return NotImplemented
        if self._length != other._length:
            return False
        if self.is_fully_real and other.is_fully_real:
            return self.as_bytes() == other.as_bytes()
        # Virtual bodies compare by length alone.
        return True

    def __repr__(self) -> str:
        kind = "real" if self.is_fully_real else "virtual"
        return f"<Body {self._length}B {kind}>"


_EMPTY = Body([])
