"""Property tests: the bulk word I/O of :class:`MemoryImage` agrees with
per-word ``read_word``/``write_word`` loops, absent (zero) words included."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.address import words_of_line
from repro.common.errors import SimulationError
from repro.mem.image import MemoryImage

BASE = 0x1000_0000_0000
SPAN = 32  # words in the window the images are drawn over

word_addrs = st.integers(0, SPAN - 1).map(lambda k: BASE + 8 * k)
byte_addrs = st.integers(0, 8 * SPAN - 1).map(lambda k: BASE + k)
values = st.integers(0, 2**64 - 1)
sparse = st.dictionaries(word_addrs, values, max_size=SPAN // 2)


def image_of(words):
    img = MemoryImage()
    for addr, value in words.items():
        img.write_word(addr, value)
    return img


@given(sparse, word_addrs, st.integers(0, 12))
def test_read_words_matches_read_word_loop(words, addr, n):
    img = image_of(words)
    assert img.read_words(addr, n) == [img.read_word(addr + 8 * i) for i in range(n)]


@given(sparse, byte_addrs)
def test_line_snapshot_matches_read_word_loop(words, addr):
    img = image_of(words)
    expect = {w: img.read_word(w) for w in words_of_line(addr)}
    snap = img.line_snapshot(addr)
    assert snap == expect
    assert list(snap) == list(expect)


@given(sparse, byte_addrs, st.lists(values, max_size=12))
def test_write_range_matches_write_word_loop(words, addr, vals):
    bulk, loop = image_of(words), image_of(words)
    bulk.write_range(addr, vals)
    for i, value in enumerate(vals):
        loop.write_word((addr & ~7) + 8 * i, value)
    assert dict(bulk.items()) == dict(loop.items())


@given(sparse, sparse)
def test_apply_matches_write_word_loop(words, payload):
    bulk, loop = image_of(words), image_of(words)
    bulk.apply(payload)
    for addr, value in payload.items():
        loop.write_word(addr, value)
    assert dict(bulk.items()) == dict(loop.items())


@given(sparse, byte_addrs.filter(lambda a: a % 8), st.integers(0, 12))
def test_unaligned_read_words_raises_like_read_word(words, addr, n):
    img = image_of(words)
    with pytest.raises(SimulationError):
        img.read_word(addr)
    with pytest.raises(SimulationError):
        img.read_words(addr, n)


@given(sparse, sparse, byte_addrs.filter(lambda a: a % 8), values)
def test_unaligned_apply_raises_and_writes_nothing(words, payload, bad, value):
    img = image_of(words)
    with pytest.raises(SimulationError):
        image_of(words).write_word(bad, value)
    with pytest.raises(SimulationError):
        img.apply({**payload, bad: value})
    assert dict(img.items()) == words
