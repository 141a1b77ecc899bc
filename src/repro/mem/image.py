"""Functional memory images at 8-byte-word granularity.

An image is a sparse map from word-aligned addresses to integers. Unwritten
words read as zero, which matches zero-initialised simulated memory.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, Iterable, List, Mapping

from repro.common.address import line_base, split_words, words_of_line
from repro.common.errors import SimulationError
from repro.common.units import CACHE_LINE_BYTES, WORD_BYTES


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

    def read_words(self, addr: int, n: int) -> List[int]:
        """Read ``n`` consecutive words from ``addr`` (must be 8-byte aligned)."""
        if addr % WORD_BYTES:
            raise SimulationError(f"unaligned word read at {addr:#x}")
        get = self._words.get
        return [get(w, 0) for w in range(addr, addr + n * WORD_BYTES, WORD_BYTES)]

    def line_snapshot(self, addr: int) -> Dict[int, int]:
        """All eight words of ``addr``'s line, zeros included: the value an
        LPO or DPO carries. :meth:`read_line` (a WB payload) returns only
        the materialised words, on purpose."""
        base = line_base(addr)
        get = self._words.get
        return {w: get(w, 0) for w in range(base, base + CACHE_LINE_BYTES, WORD_BYTES)}

    def read_range(self, addr: int, nbytes: int) -> tuple:
        """Read every word overlapping ``[addr, addr+nbytes)``."""
        return tuple(self.read_word(w) for w in split_words(addr, nbytes))

    def write_range(self, addr: int, values: Iterable[int]) -> None:
        """Write consecutive words starting at ``addr``'s containing word."""
        base = addr & ~(WORD_BYTES - 1)
        self._words.update(zip(count(base, WORD_BYTES), values))

    def read_line(self, addr: int) -> Dict[int, int]:
        """Snapshot the cache line containing ``addr`` as {word addr: value}.

        Only materialised words are returned; absent words are zero.
        """
        return {
            w: self._words[w] for w in words_of_line(addr) if w in self._words
        }

    def apply(self, payload: Mapping[int, int]) -> None:
        """Apply a {word addr: value} payload (e.g. a drained persist op).
        A payload with an unaligned key is rejected before any write."""
        for addr in payload:
            if addr % WORD_BYTES:
                raise SimulationError(f"unaligned word write at {addr:#x}")
        self._words.update(payload)

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
    the payload of an eviction writeback (WB). LPOs and DPOs carry
    :meth:`MemoryImage.line_snapshot`, which includes the zero words.
    """
    return image.read_line(line_base(addr))


def relocate_line(snapshot: Mapping[int, int], line: int, entry_addr: int) -> Dict[int, int]:
    """The LPO payload logging ``snapshot`` of ``line`` at ``entry_addr``:
    word ``line + k`` moves to ``entry_addr + k``, absent words as zero."""
    return {
        entry_addr + off: snapshot.get(line + off, 0)
        for off in range(0, CACHE_LINE_BYTES, WORD_BYTES)
    }
