"""LZMA chunk codec: config word, round trips, size enforcement."""

import lzma
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from minifskit import (
    V1_CONFIG_WORD,
    V2_CONFIG_WORD,
    Version,
    check_config_word,
    compress_chunk,
    decompress_chunk,
)
from minifskit.codec import DEFAULT_OUTPUT_LIMIT
from minifskit.errors import ChunkTooLarge, CorruptStream, SizeMismatch, UnknownConfigWord
from helpers import ref_compress_chunk


class TestConfigWord:
    def test_v2(self):
        assert check_config_word(b"\x5d\x00\x00\x80" + b"rest") is Version.V2

    def test_v1_legacy(self):
        assert check_config_word(b"\x5a\x00\x00\x80" + b"rest") is Version.V1_LEGACY

    def test_xz_magic_is_not_a_config_word(self):
        with pytest.raises(UnknownConfigWord) as exc_info:
            check_config_word(b"\xfd7zX")
        assert exc_info.value.word == b"\xfd7zX"

    def test_short_chunk(self):
        with pytest.raises(UnknownConfigWord):
            check_config_word(b"\x5d\x00")


class TestRoundTrip:
    def test_repetitive_text(self):
        data = b"hello world" * 1000
        chunk = compress_chunk(data)
        assert decompress_chunk(chunk, len(data)) == data

    def test_empty(self):
        chunk = compress_chunk(b"")
        assert decompress_chunk(chunk, 0) == b""

    def test_zeros_compress_tightly(self):
        chunk = compress_chunk(b"\x00" * (1 << 20))
        assert len(chunk) < 4096

    def test_output_always_starts_with_v2_word(self):
        for data in (b"", b"x", b"abc" * 50000, bytes(range(256))):
            assert compress_chunk(data)[:4] == V2_CONFIG_WORD

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=1 << 16))
    def test_roundtrip_property(self, data):
        assert decompress_chunk(compress_chunk(data), len(data)) == data

    def test_multi_megabyte_roundtrip(self):
        data = (bytes(range(256)) * 8192) + b"tail"  # 2 MiB + 4
        assert decompress_chunk(compress_chunk(data), len(data)) == data


def mixed_bytes(size: int) -> bytes:
    """``size`` bytes of repeated words with runs of random bytes, seeded by the size.

    Past 1 MiB the first MiB repeats, which keeps the encoders quick.
    """
    rng = random.Random(size)
    words = [rng.randbytes(rng.randint(1, 12)) for _ in range(64)]
    out = bytearray()
    while len(out) < min(size, 1 << 20):
        out += rng.randbytes(rng.randint(0, 600)) if rng.random() < 0.1 else rng.choice(words)
    return (bytes(out) * (size // len(out) + 1) if out else b"")[:size]


class TestReferenceEncoder:
    """compress_chunk writes what the 8 MiB-dictionary legacy encoder writes."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        st.binary(max_size=1 << 16),
        st.builds(lambda unit, count: (unit * count)[:1 << 17],
                  st.binary(min_size=1, max_size=64), st.integers(1, 1 << 12)),
        st.builds(lambda words, picks: b" ".join(words[i % len(words)] for i in picks),
                  st.lists(st.binary(min_size=1, max_size=9), min_size=1, max_size=40),
                  st.lists(st.integers(0, 1 << 8), max_size=4000)),
    ))
    def test_equals_reference_property(self, data):
        assert compress_chunk(data) == ref_compress_chunk(data)

    # Either side of the 4 KiB dictionary floor, the default chunk cap
    # (393216), the next power of two, and the 8 MiB dictionary cap.
    @pytest.mark.parametrize("size", [0, 1, 4095, 4096, 4097, 393216, 524288, 524289, (8 << 20) + 1])
    def test_equals_reference_at_dictionary_boundaries(self, size):
        data = mixed_bytes(size)
        assert compress_chunk(data) == ref_compress_chunk(data)


class TestSizeEnforcement:
    DATA = b"The quick brown fox jumps over the lazy dog. " * 400

    def test_one_byte_short_expectation(self):
        chunk = compress_chunk(self.DATA)
        with pytest.raises(SizeMismatch) as exc_info:
            decompress_chunk(chunk, len(self.DATA) - 1)
        assert exc_info.value.expected == len(self.DATA) - 1

    def test_one_byte_long_expectation(self):
        chunk = compress_chunk(self.DATA)
        with pytest.raises(SizeMismatch) as exc_info:
            decompress_chunk(chunk, len(self.DATA) + 1)
        assert exc_info.value.actual == len(self.DATA)

    def test_never_returns_more_than_expected(self):
        # A bomb-ish stream: tiny input, megabyte of zeros inside.
        chunk = compress_chunk(b"\x00" * (1 << 20))
        with pytest.raises(SizeMismatch):
            decompress_chunk(chunk, 512)

    def test_expected_size_above_output_limit(self):
        # The limit is checked before any decoding, so a 1-byte chunk will do.
        with pytest.raises(ChunkTooLarge):
            decompress_chunk(compress_chunk(b"x"), DEFAULT_OUTPUT_LIMIT + 1)

    def test_negative_expected_size(self):
        with pytest.raises(ValueError):
            decompress_chunk(compress_chunk(b"x"), -1)


class TestStreamVariants:
    DATA = b"variant payload " * 256

    def test_unknown_size_field_is_default(self):
        chunk = compress_chunk(self.DATA)
        assert chunk[5:13] == b"\xff" * 8

    def test_embedded_size_field_accepted(self):
        chunk = compress_chunk(self.DATA)
        patched = chunk[:5] + struct.pack("<Q", len(self.DATA)) + chunk[13:]
        assert decompress_chunk(patched, len(self.DATA)) == self.DATA

    def test_embedded_size_field_is_not_trusted(self):
        # A lying size field changes nothing: the table's size governs.
        chunk = compress_chunk(self.DATA)
        lying = chunk[:5] + struct.pack("<Q", 7) + chunk[13:]
        assert decompress_chunk(lying, len(self.DATA)) == self.DATA

    def test_interoperates_with_stock_lzma(self):
        # Stock tooling must be able to read what compress_chunk writes.
        chunk = compress_chunk(self.DATA)
        assert lzma.decompress(chunk, format=lzma.FORMAT_ALONE) == self.DATA


class TestCorruptInput:
    DATA = b"payload under test " * 300

    def test_flipped_payload_byte(self):
        chunk = bytearray(compress_chunk(self.DATA))
        chunk[20] ^= 0xFF
        with pytest.raises((CorruptStream, SizeMismatch)):
            decompress_chunk(bytes(chunk), len(self.DATA))

    def test_truncated_stream(self):
        chunk = compress_chunk(self.DATA)
        with pytest.raises((CorruptStream, SizeMismatch)):
            decompress_chunk(chunk[:len(chunk) // 2], len(self.DATA))

    def test_chunk_shorter_than_stream_header(self):
        with pytest.raises(CorruptStream):
            decompress_chunk(b"\x5d\x00\x00\x80\x00\xff", 10)

    def test_v1_chunk_not_decodable(self):
        chunk = V1_CONFIG_WORD + compress_chunk(self.DATA)[4:]
        with pytest.raises(UnknownConfigWord):
            decompress_chunk(chunk, len(self.DATA))

    def test_garbage_with_valid_word(self):
        chunk = V2_CONFIG_WORD + b"\x00" + b"\xff" * 8 + b"\x81\x22\x33\x44" * 16
        with pytest.raises((CorruptStream, SizeMismatch)):
            decompress_chunk(chunk, 1000)
