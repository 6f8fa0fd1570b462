"""LZMA chunk codec: config word, round trips, size enforcement."""

import lzma
import random
import struct
from unittest.mock import patch

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
from minifskit import codec
from minifskit.codec import DEFAULT_OUTPUT_LIMIT, STREAM_HEADER_SIZE, ChunkDecoder
from minifskit.errors import ChunkTooLarge, CorruptStream, MiniFsError, SizeMismatch, UnknownConfigWord
from helpers import ref_compress_chunk, ref_decompress_chunk


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


def outcome(call):
    """What ``call`` returns, or the type and text of the MiniFsError it raises; any other exception escapes."""
    try:
        return call()
    except MiniFsError as exc:
        return type(exc), str(exc)


@st.composite
def damaged_streams(draw) -> tuple[bytes, int]:
    """A chunk of random or repetitive data and an expected size, often damaged:
    a flipped byte (header included), a cut, or a size a few bytes off."""
    data = draw(st.one_of(
        st.binary(max_size=3000),
        st.builds(lambda unit, count: unit * count,
                  st.binary(min_size=1, max_size=16), st.integers(1, 400)),
    ))
    chunk = bytearray(compress_chunk(data))
    damage = draw(st.sampled_from(["none", "flip", "cut", "size"]))
    if damage == "flip":
        chunk[draw(st.integers(0, len(chunk) - 1))] ^= draw(st.integers(1, 255))
    elif damage == "cut":
        del chunk[draw(st.integers(STREAM_HEADER_SIZE, len(chunk) - 1)):]
    delta = draw(st.sampled_from([-7, -1, 1, 7])) if damage == "size" else 0
    return bytes(chunk), max(0, len(data) + delta)


class TestChunkDecoder:
    """Every prefix a decoder returns is the start of the reference's whole
    decode, and its whole decode is the reference's, bytes or error."""

    @settings(max_examples=300, deadline=None)
    @given(stream=damaged_streams(), ends=st.lists(st.integers(0, 1 << 13), max_size=5),
           piece=st.integers(1, 700))
    def test_prefixes_and_whole_decode_match_the_reference(self, stream, ends, piece):
        chunk, expected = stream
        reference = outcome(lambda: ref_decompress_chunk(chunk, expected))
        with patch.object(codec, "_PIECE", piece):  # several pieces per chunk
            assert outcome(lambda: decompress_chunk(chunk, expected)) == reference
            try:
                decoder = ChunkDecoder(chunk, expected)
            except MiniFsError as exc:
                assert (type(exc), str(exc)) == reference
                return
            for end in [min(end, expected) for end in ends]:
                got = outcome(lambda: decoder.decode_to(end))
                if isinstance(got, bytes):  # resuming decodes what a fresh decoder does
                    assert got == ChunkDecoder(chunk, expected).decode_to(end)
                if isinstance(reference, bytes):
                    assert got == reference[:end]
            assert outcome(lambda: decoder.decode_to(expected)) == reference
            assert (decoder.data is not None) == isinstance(reference, bytes)

    def test_read_inside_a_short_stream_then_past_its_end(self):
        # The stream ends 10 bytes before the declared size.  Once the decoder
        # has met the end of the stream, a later read must raise SizeMismatch,
        # not the EOFError of a decoder asked for more past its end.
        data = b"short stream " * 40
        decoder = ChunkDecoder(compress_chunk(data), len(data) + 10)
        assert decoder.decode_to(100, 13) == data[13:100]
        for end in (len(data) + 5, len(data) + 5, len(data) + 10):
            with pytest.raises(SizeMismatch) as raised:
                decoder.decode_to(end)
            assert str(raised.value) == f"decompressed to {len(data)} bytes, expected {len(data) + 10}"
        assert decoder.decode_to(len(data)) == data
        assert decoder.data is None

    def test_range_outside_the_chunk(self):
        decoder = ChunkDecoder(compress_chunk(b"x" * 50), 50)
        for start, end in ((0, 51), (6, 5), (-1, 5)):
            with pytest.raises(ValueError):
                decoder.decode_to(end, start)
        assert decoder.decode_to(50, 45) == b"x" * 5

    def test_pieces_stay_under_a_mebibyte(self):
        assert codec._PIECE < 1 << 20
        data = mixed_bytes(3 << 20)
        assert ChunkDecoder(compress_chunk(data), len(data)).decode_to(len(data)) == data
