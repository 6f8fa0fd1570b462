"""LZMA chunk codec: config word, round trips, size enforcement."""

import lzma
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
