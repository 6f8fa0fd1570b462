"""On-disk structure decoding, layout arithmetic and validation."""

import pytest
from hypothesis import given, strategies as st

from minifskit import (
    MiniFsHeader,
    open_view,
)
from minifskit.structs import (
    ChunkRecord,
    FileRecord,
    NameTable,
    compute_layout,
    full_path,
    infer_chunk_count,
    name_at,
    parse_chunk_table,
    parse_file_table,
    parse_header,
    validate_layout,
)
from minifskit.codec import DEFAULT_OUTPUT_LIMIT, STREAM_HEADER_SIZE, V2_CONFIG_WORD, decompress_chunk
from minifskit.errors import (
    ArithmeticOverflow,
    BadMagic,
    EmptyFileTable,
    NonAsciiName,
    OffsetOutOfRange,
    TruncatedImage,
    TruncatedTable,
    UnsafePath,
    UnterminatedString,
)
from helpers import build_three_file_image

u32 = st.integers(min_value=0, max_value=0xFFFF_FFFF)


def validate_tables(header, records, chunks, image_length, names=None):
    """``validate_layout`` on tables laid out from ``header`` at base 0.

    Without ``names`` the pool is ``name_table_size`` NUL bytes, so every
    in-range offset resolves to the empty string.
    """
    layout = compute_layout(header, len(chunks))
    if names is None:
        names = NameTable(b"\x00" * header.name_table_size)
    return validate_layout(layout, names, records, chunks, image_length)


def make_header_bytes(file_count=0, name_table_size=0, unknown_a=0, unknown_b=0,
                      reserved=b"\x00" * 10, magic=b"MINIFS"):
    return (magic + reserved + unknown_a.to_bytes(4, "big") + file_count.to_bytes(4, "big")
            + unknown_b.to_bytes(4, "big") + name_table_size.to_bytes(4, "big"))


class TestHeader:
    def test_decodes_observed_values(self):
        # 0x14F files and a 0x12C4-byte name table, straight from a real header.
        header = parse_header(make_header_bytes(file_count=0x14F, name_table_size=0x12C4))
        assert header.file_count == 335
        assert header.name_table_size == 4804

    def test_empty_file_system_header_is_valid(self):
        header = parse_header(make_header_bytes())
        assert header.file_count == 0
        assert header.name_table_size == 0

    def test_corrupted_magic(self):
        with pytest.raises(BadMagic):
            parse_header(make_header_bytes(magic=b"MINIFX"))

    def test_wrong_length_rejected(self):
        with pytest.raises(TruncatedImage):
            parse_header(make_header_bytes()[:31])
        with pytest.raises(TruncatedImage):
            parse_header(make_header_bytes() + b"\x00")

    def test_big_endian_not_little(self):
        raw = make_header_bytes(file_count=0x0000014F)
        assert parse_header(raw).file_count == 335
        assert parse_header(raw).file_count != 1325400064  # LE misread of the same bytes

    @given(
        file_count=u32, name_table_size=u32, unknown_a=u32, unknown_b=u32,
        reserved=st.binary(min_size=10, max_size=10),
    )
    def test_roundtrip_is_byte_exact(self, file_count, name_table_size,
                                     unknown_a, unknown_b, reserved):
        raw = make_header_bytes(file_count, name_table_size, unknown_a, unknown_b, reserved)
        header = parse_header(raw)
        assert header.encode() == raw
        assert header.unknown_a == unknown_a
        assert header.unknown_b == unknown_b
        assert header.reserved == reserved


class TestNameTable:
    POOL = NameTable(b"fw/mtk\x00base.css\x00")

    def test_path_string(self):
        assert name_at(self.POOL, 0) == "fw/mtk"

    def test_file_name_string(self):
        assert name_at(self.POOL, 7) == "base.css"

    def test_empty_string_for_root_files(self):
        assert name_at(NameTable(b"\x00"), 0) == ""

    def test_offset_out_of_range(self):
        with pytest.raises(OffsetOutOfRange):
            name_at(self.POOL, len(self.POOL.pool))
        with pytest.raises(OffsetOutOfRange):
            name_at(self.POOL, -1)

    def test_unterminated(self):
        with pytest.raises(UnterminatedString):
            name_at(NameTable(b"abc"), 0)

    def test_non_ascii(self):
        for bad in (b"\x1fx\x00", b"\x7fx\x00", b"\x80x\x00"):
            with pytest.raises(NonAsciiName):
                name_at(NameTable(bad), 0)

    @given(st.binary(max_size=64), st.integers(min_value=0, max_value=63))
    def test_result_never_contains_nul(self, pool, offset):
        table = NameTable(pool)
        try:
            result = name_at(table, offset)
        except (OffsetOutOfRange, UnterminatedString, NonAsciiName):
            return
        assert "\x00" not in result


class TestFullPath:
    POOL = NameTable(b"fw/mtk\x00base.css\x00boot.bin\x00\x00")

    @staticmethod
    def rec(path_offset, name_offset):
        return FileRecord(path_offset, name_offset, 0, 0, 0)

    def test_join(self):
        assert full_path(self.POOL, self.rec(0, 7)) == "fw/mtk/base.css"

    def test_root_file_has_no_leading_slash(self):
        assert full_path(self.POOL, self.rec(25, 16)) == "boot.bin"

    def test_traversal_rejected(self):
        pool = NameTable(b"a/../..\x00x\x00")
        with pytest.raises(UnsafePath):
            full_path(pool, self.rec(0, 8))

    def test_separator_inside_name_rejected(self):
        pool = NameTable(b"\x00a/b\x00")
        with pytest.raises(UnsafePath):
            full_path(pool, self.rec(0, 1))

    def test_absolute_path_rejected(self):
        pool = NameTable(b"/etc\x00passwd\x00")
        with pytest.raises(UnsafePath):
            full_path(pool, self.rec(0, 5))

    def test_empty_name_rejected(self):
        pool = NameTable(b"a\x00\x00")
        with pytest.raises(UnsafePath):
            full_path(pool, self.rec(0, 2))

    @given(
        path=st.lists(st.text(alphabet="abcdef", min_size=1, max_size=4),
                      min_size=0, max_size=3).map("/".join),
        name=st.text(alphabet="abcdef.", min_size=1, max_size=8)
        .filter(lambda n: n not in (".", "..")),
    )
    def test_separator_count(self, path, name):
        pool = NameTable(path.encode() + b"\x00" + name.encode() + b"\x00")
        joined = full_path(pool, self.rec(0, len(path) + 1))
        expected = path.count("/") + name.count("/") + (1 if path else 0)
        assert joined.count("/") == expected


class TestFileTable:
    RAW = bytes.fromhex("00000000" "00000007" "00000000" "00000000" "00060700")

    def test_decodes_observed_record(self):
        (rec,) = parse_file_table(self.RAW, 1)
        assert rec == FileRecord(
            path_offset=0, name_offset=7, chunk_index=0,
            offset_in_chunk=0, file_size=395008,
        )

    def test_empty(self):
        assert parse_file_table(b"", 0) == []

    def test_truncated(self):
        with pytest.raises(TruncatedTable):
            parse_file_table(b"\x00" * 30, 2)

    @given(u32, u32, u32, u32, u32)
    def test_roundtrip(self, a, b, c, d, e):
        rec = FileRecord(a, b, c, d, e)
        (back,) = parse_file_table(rec.encode(), 1)
        assert back == rec

    @given(st.binary(min_size=20, max_size=20))
    def test_reencode_is_byte_exact(self, raw):
        (rec,) = parse_file_table(raw, 1)
        assert rec.encode() == raw


class TestChunkTable:
    RAW = bytes.fromhex("00000000" "0002FD71" "00060700")

    def test_decodes_observed_record(self):
        (rec,) = parse_chunk_table(self.RAW, 1)
        assert rec == ChunkRecord(data_offset=0, compressed_size=195953,
                                  decompressed_size=395008)

    def test_empty(self):
        assert parse_chunk_table(b"", 0) == []

    def test_truncated(self):
        with pytest.raises(TruncatedTable):
            parse_chunk_table(b"\x00" * 20, 2)

    def test_undersized_compressed_size_parses_but_flags(self):
        # Parse accepts it; validate_layout reports the sub-minimum size.
        (rec,) = parse_chunk_table(ChunkRecord(0, 3, 10).encode(), 1)
        assert rec.compressed_size == 3
        header = MiniFsHeader(file_count=0, name_table_size=0)
        violations = validate_tables(header, [], [rec], image_length=1 << 20)
        assert any(v.kind == "chunk-size" for v in violations)

    @given(u32, u32, u32)
    def test_roundtrip(self, a, b, c):
        rec = ChunkRecord(a, b, c)
        (back,) = parse_chunk_table(rec.encode(), 1)
        assert back == rec

    @given(st.binary(min_size=12, max_size=12))
    def test_reencode_is_byte_exact(self, raw):
        (rec,) = parse_chunk_table(raw, 1)
        assert rec.encode() == raw


class TestChunkInference:
    @staticmethod
    def rec(chunk_index):
        return FileRecord(0, 0, chunk_index, 0, 0)

    def test_observed_last_index(self):
        records = [self.rec(i) for i in (0, 1, 0x29)]
        assert infer_chunk_count(records) == 42

    def test_single_record(self):
        assert infer_chunk_count([self.rec(0)]) == 1

    def test_empty_table(self):
        with pytest.raises(EmptyFileTable):
            infer_chunk_count([])

    def test_adversarial_table_vs_max_oracle(self):
        # An earlier record pointing past the last one's chunk: the rule
        # still answers last+1, and validation must notice the divergence.
        records = [self.rec(7), self.rec(5)]
        assert infer_chunk_count(records) == 6
        assert max(r.chunk_index for r in records) + 1 == 8  # the max-based oracle
        header = MiniFsHeader(file_count=2, name_table_size=0)
        chunks = [ChunkRecord(0, 5, 0)] * 6
        violations = validate_tables(header, records, chunks, image_length=1 << 20)
        assert any(v.kind == "chunk-inference" for v in violations)
        assert any(v.kind == "chunk-index" for v in violations)


class TestLayout:
    def test_observed_arithmetic(self):
        header = MiniFsHeader(file_count=335, name_table_size=4804)
        layout = compute_layout(header, chunk_count=42, base=0)
        assert layout.names_start == 32
        assert layout.files_start == 4836
        assert layout.chunk_table_start == 11536
        assert layout.data_start == 12040

    def test_empty_collapses_to_header_end(self):
        layout = compute_layout(MiniFsHeader(0, 0), 0, 0)
        assert (layout.names_start, layout.files_start,
                layout.chunk_table_start, layout.data_start) == (32, 32, 32, 32)

    def test_nonzero_base(self):
        # 100 + 32 = 132; +16 = 148; +20 = 168; +12 = 180
        layout = compute_layout(MiniFsHeader(file_count=1, name_table_size=16), 1, 100)
        assert (layout.names_start, layout.files_start,
                layout.chunk_table_start, layout.data_start) == (132, 148, 168, 180)

    def test_overflow(self):
        with pytest.raises(ArithmeticOverflow):
            compute_layout(MiniFsHeader(file_count=0xFFFF_FFFF, name_table_size=0), 0, 0)

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError):
            compute_layout(MiniFsHeader(0, 0), 0, -1)

    @given(
        file_count=st.integers(min_value=0, max_value=10_000),
        name_table_size=st.integers(min_value=0, max_value=100_000),
        chunk_count=st.integers(min_value=0, max_value=10_000),
    )
    def test_strictly_monotone(self, file_count, name_table_size, chunk_count):
        header = MiniFsHeader(file_count=file_count, name_table_size=name_table_size)
        layout = compute_layout(header, chunk_count)

        bigger_names = compute_layout(
            MiniFsHeader(file_count, name_table_size + 1), chunk_count)
        assert bigger_names.files_start == layout.files_start + 1
        assert bigger_names.data_start == layout.data_start + 1

        bigger_files = compute_layout(
            MiniFsHeader(file_count + 1, name_table_size), chunk_count)
        assert bigger_files.chunk_table_start == layout.chunk_table_start + 20
        assert bigger_files.data_start == layout.data_start + 20

        bigger_chunks = compute_layout(header, chunk_count + 1)
        assert bigger_chunks.data_start == layout.data_start + 12


class TestValidateLayout:
    def test_packed_image_is_clean(self):
        image = build_three_file_image()
        view = open_view(image)
        assert view.violations == []
        assert validate_layout(view.layout, view.names, view.files, view.chunks,
                               len(image)) == []

    def test_chunk_index_off_by_one(self):
        header = MiniFsHeader(file_count=1, name_table_size=4)
        records = [FileRecord(0, 2, 42, 0, 0)]
        chunks = [ChunkRecord(0, 5, 0)] * 42
        violations = validate_tables(header, records, chunks, image_length=1 << 20)
        assert [v.kind for v in violations].count("chunk-index") == 1

    def test_file_span_exceeds_chunk(self):
        header = MiniFsHeader(file_count=1, name_table_size=4)
        records = [FileRecord(0, 2, 0, 395000, 100)]
        chunks = [ChunkRecord(0, 195953, 395008)]
        violations = validate_tables(header, records, chunks, image_length=1 << 20)
        assert [v.kind for v in violations] == ["file-span"]

    def test_name_offset_outside_pool(self):
        header = MiniFsHeader(file_count=1, name_table_size=4)
        records = [FileRecord(4, 0, 0, 0, 0)]
        chunks = [ChunkRecord(0, 5, 0)]
        violations = validate_tables(header, records, chunks, image_length=1 << 20)
        assert any(v.kind == "name-offset" for v in violations)

    @pytest.mark.parametrize("offset, size", [(0xFFFF_FFFF, 1), (1, 0xFFFF_FFFF),
                                              (0xFFFF_FFFF, 0xFFFF_FFFF)])
    def test_file_span_is_not_wrapped_to_32_bits(self, offset, size):
        # In u32 arithmetic each sum wraps to below the chunk size.
        header = MiniFsHeader(file_count=1, name_table_size=4)
        (record,) = parse_file_table(FileRecord(0, 2, 0, offset, size).encode(), 1)
        chunks = [ChunkRecord(0, 13, 0xFFFF_FFFF)]
        violations = validate_tables(header, [record], chunks, image_length=1 << 20)
        assert [(v.kind, v.index) for v in violations] == [("file-span", 0), ("chunk-size", 0)]

    @pytest.mark.parametrize("data_offset, compressed_size", [(0xFFFF_FFFF, 13), (13, 0xFFFF_FFFF),
                                                              (0xFFFF_FFFF, 0xFFFF_FFFF)])
    def test_chunk_bounds_are_not_wrapped_to_32_bits(self, data_offset, compressed_size):
        header = MiniFsHeader(file_count=0, name_table_size=0)
        (chunk,) = parse_chunk_table(ChunkRecord(data_offset, compressed_size, 0).encode(), 1)
        violations = validate_tables(header, [], [chunk], image_length=1 << 20)
        assert [(v.kind, v.index) for v in violations] == [("chunk-bounds", 0)]

    def test_chunk_data_beyond_image(self):
        header = MiniFsHeader(file_count=0, name_table_size=0)
        chunks = [ChunkRecord(0, 1000, 100)]
        violations = validate_tables(header, [], chunks, image_length=50)
        assert any(v.kind == "chunk-bounds" for v in violations)

    def test_unresolvable_name_with_pool(self):
        header = MiniFsHeader(file_count=1, name_table_size=4)
        records = [FileRecord(0, 0, 0, 0, 0)]
        chunks = [ChunkRecord(0, 5, 0)]
        names = NameTable(b"abcd")  # no terminator anywhere
        violations = validate_tables(header, records, chunks, 1 << 20, names=names)
        assert any(v.kind == "bad-name" for v in violations)

    def test_decompressed_size_above_decoder_limit(self):
        header = MiniFsHeader(file_count=0, name_table_size=0)
        chunks = [ChunkRecord(0, 100, DEFAULT_OUTPUT_LIMIT + 1)]
        violations = validate_tables(header, [], chunks, image_length=1 << 20)
        assert [(v.kind, v.index) for v in violations] == [("chunk-size", 0)]

    def test_chunk_size_floor_is_the_decoders_stream_header(self):
        # A chunk of exactly the header, declaring no output, decodes.
        assert decompress_chunk(V2_CONFIG_WORD + bytes(STREAM_HEADER_SIZE - 4), 0) == b""
        header = MiniFsHeader(file_count=0, name_table_size=0)
        kinds = {size: [v.kind for v in validate_tables(header, [], [ChunkRecord(0, size, 0)],
                                                        image_length=1 << 20)]
                 for size in (12, 13)}
        assert kinds == {12: ["chunk-size"], 13: []}
        assert STREAM_HEADER_SIZE == 13
