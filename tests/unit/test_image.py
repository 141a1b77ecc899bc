"""Unit tests for the functional memory images."""

import pytest

from repro.common.errors import SimulationError
from repro.mem.image import MemoryImage, relocate_line, snapshot_line

BASE = 0x1000_0000_0000


def test_unwritten_words_read_zero():
    img = MemoryImage()
    assert img.read_word(BASE) == 0


def test_write_read_roundtrip():
    img = MemoryImage()
    img.write_word(BASE, 1234)
    assert img.read_word(BASE) == 1234


def test_unaligned_access_rejected():
    img = MemoryImage()
    with pytest.raises(SimulationError):
        img.read_word(BASE + 3)
    with pytest.raises(SimulationError):
        img.write_word(BASE + 4, 1)  # 4 is not 8-aligned


def test_write_range_consecutive_words():
    img = MemoryImage()
    img.write_range(BASE, [1, 2, 3])
    assert img.read_range(BASE, 24) == (1, 2, 3)


def test_read_line_snapshot_only_materialised():
    img = MemoryImage()
    img.write_word(BASE, 7)
    img.write_word(BASE + 56, 9)
    snap = img.read_line(BASE + 8)  # any addr in the line
    assert snap == {BASE: 7, BASE + 56: 9}


def test_snapshot_line_helper_matches_read_line():
    img = MemoryImage()
    img.write_word(BASE + 16, 5)
    assert snapshot_line(img, BASE + 63) == img.read_line(BASE)


def test_apply_payload():
    img = MemoryImage()
    img.apply({BASE: 1, BASE + 8: 2})
    assert img.read_word(BASE + 8) == 2


def test_apply_line_exact_clears_unmentioned_words():
    img = MemoryImage()
    img.write_range(BASE, [1, 2, 3, 4, 5, 6, 7, 8])
    img.apply_line_exact(BASE, {BASE: 42})
    assert img.read_word(BASE) == 42
    for off in range(8, 64, 8):
        assert img.read_word(BASE + off) == 0


def test_copy_is_independent():
    img = MemoryImage()
    img.write_word(BASE, 1)
    dup = img.copy()
    dup.write_word(BASE, 2)
    assert img.read_word(BASE) == 1
    assert dup.read_word(BASE) == 2


def test_equal_on():
    a, b = MemoryImage(), MemoryImage()
    a.write_word(BASE, 3)
    b.write_word(BASE, 3)
    assert a.equal_on(b, [BASE])
    b.write_word(BASE + 8, 9)
    assert not a.equal_on(b, [BASE, BASE + 8])


def test_apply_rejects_unaligned_payload_whole():
    img = MemoryImage()
    img.write_word(BASE, 1)
    with pytest.raises(SimulationError):
        img.apply({BASE: 9, BASE + 8: 9, BASE + 20: 9})
    assert dict(img.items()) == {BASE: 1}


def test_line_snapshot_includes_zero_words():
    img = MemoryImage()
    img.write_word(BASE + 8, 3)
    snap = img.line_snapshot(BASE + 40)
    assert list(snap) == [BASE + 8 * i for i in range(8)]
    assert snap[BASE + 8] == 3 and snap[BASE] == 0
    assert img.read_line(BASE) == {BASE + 8: 3}  # materialised words only


def test_relocate_line_rekeys_onto_log_entry():
    entry = BASE + 0x4000
    payload = relocate_line({BASE + 16: 4}, BASE, entry)
    assert payload == {entry + 8 * i: (4 if i == 2 else 0) for i in range(8)}
