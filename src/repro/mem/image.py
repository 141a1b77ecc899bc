"""Functional memory images at 8-byte-word granularity.

An image is a sparse map from word-aligned addresses to integers. Unwritten
words read as zero, which matches zero-initialised simulated memory.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from repro.common.address import line_base, split_words, words_of_line
from repro.common.errors import SimulationError
from repro.common.units import WORD_BYTES


class MemoryImage:
    """A sparse, word-granular functional memory."""

    def __init__(self, name: str = "mem"):
        self.name = name
        self._words: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._words)

    def read_word(self, addr: int) -> int:
        """Read the word at ``addr`` (must be 8-byte aligned)."""
        if addr % WORD_BYTES:
            raise SimulationError(f"unaligned word read at {addr:#x}")
        return self._words.get(addr, 0)

    def write_word(self, addr: int, value: int) -> None:
        """Write the word at ``addr`` (must be 8-byte aligned)."""
        if addr % WORD_BYTES:
            raise SimulationError(f"unaligned word write at {addr:#x}")
        self._words[addr] = value

    def read_range(self, addr: int, nbytes: int) -> tuple:
        """Read every word overlapping ``[addr, addr+nbytes)``."""
        return tuple(self.read_word(w) for w in split_words(addr, nbytes))

    def write_range(self, addr: int, values: Iterable[int]) -> None:
        """Write consecutive words starting at ``addr``'s containing word."""
        base = addr & ~(WORD_BYTES - 1)
        for i, value in enumerate(values):
            self.write_word(base + i * WORD_BYTES, value)

    def read_line(self, addr: int) -> Dict[int, int]:
        """Snapshot the cache line containing ``addr`` as {word addr: value}.

        Only materialised words are returned; absent words are zero.
        """
        return {
            w: self._words[w] for w in words_of_line(addr) if w in self._words
        }

    def apply(self, payload: Mapping[int, int]) -> None:
        """Apply a {word addr: value} payload (e.g. a drained persist op)."""
        for addr, value in payload.items():
            self.write_word(addr, value)

    def apply_line_exact(self, line_addr: int, payload: Mapping[int, int]) -> None:
        """Overwrite a full cache line with ``payload``.

        Words of the line absent from ``payload`` are reset to zero: a line
        snapshot captures the whole 64 bytes, so restoring it must also
        restore the zeros.
        """
        base = line_base(line_addr)
        for w in words_of_line(base):
            if w in payload:
                self._words[w] = payload[w]
            else:
                self._words.pop(w, None)

    def copy(self) -> "MemoryImage":
        """Deep copy (used by the crash machinery to freeze PM state)."""
        dup = MemoryImage(self.name)
        dup._words = dict(self._words)
        return dup

    def items(self):
        """Iterate over (word addr, value) pairs of materialised words."""
        return self._words.items()

    def equal_on(self, other: "MemoryImage", addrs: Iterable[int]) -> bool:
        """Compare two images on a set of word addresses."""
        return all(self.read_word(a) == other.read_word(a) for a in addrs)


def snapshot_line(image: MemoryImage, addr: int) -> Dict[int, int]:
    """Snapshot the full cache line containing ``addr`` from ``image``.

    The result maps every materialised word of the line to its value; it is
    the payload format carried by persist operations.
    """
    return image.read_line(line_base(addr))
