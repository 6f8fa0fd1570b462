"""On-disk structure decoding, layout arithmetic and validation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from minifskit import (
    MiniFsHeader,
    open_view,
)
from minifskit import structs
from minifskit.structs import (
    ChunkRecord,
    FileRecord,
    FsLayout,
    _path_keys,
    _string_key,
    parse_instance,
    screen_instance,
    tables_end,
    validate_layout,
)
from minifskit.codec import DEFAULT_OUTPUT_LIMIT, STREAM_HEADER_SIZE, V2_CONFIG_WORD, decompress_chunk
from minifskit.errors import (
    ArithmeticOverflow,
    BadMagic,
    NonAsciiName,
    OffsetOutOfRange,
    TruncatedImage,
    UnsafePath,
    UnterminatedString,
)
from helpers import build_three_file_image, join_one, name_at, observed_instance, region_layout

u32 = st.integers(min_value=0, max_value=0xFFFF_FFFF)


def validate_tables(header, records, chunks, image_length, names=None):
    """``validate_layout`` on tables laid out from ``header`` at base 0.

    Without ``names`` the pool is ``name_table_size`` NUL bytes, so every
    in-range offset resolves to the empty string.
    """
    layout = region_layout(header, len(chunks))
    if names is None:
        names = b"\x00" * header.name_table_size
    return validate_layout(layout, names, records, chunks, image_length)


def make_header_bytes(file_count=0, name_table_size=0, unknown_a=0, unknown_b=0,
                      reserved=b"\x00" * 10, magic=b"MINIFS"):
    return (magic + reserved + unknown_a.to_bytes(4, "big") + file_count.to_bytes(4, "big")
            + unknown_b.to_bytes(4, "big") + name_table_size.to_bytes(4, "big"))


def overflow(span):
    return ArithmeticOverflow, f"table regions span {span} bytes from base, beyond 32-bit addressing"


# Hostile headers: each maps to (dump, base, expected), where ``expected``
# is the (type, message) of the exception raised, or the layout of a clean
# parse.  The region spans in the overflow messages are measured from base.
HOSTILE_HEADERS = {
    "short-header": (b"MINIFS" + bytes(10), 0,
                     (TruncatedImage, "dump ends inside the header at offset 0")),
    "short-header-at-8": (bytes(8) + b"MINIFS" + bytes(10), 8,
                          (TruncatedImage, "dump ends inside the header at offset 8")),
    "bad-magic": (make_header_bytes(magic=b"MINIFX"), 0, (BadMagic, "no b'MINIFS' at offset 0")),
    "negative-base": (make_header_bytes(), -1, (BadMagic, "no b'MINIFS' at offset -1")),
    "file-table-overflow": (make_header_bytes(0xFFFF_FFFF), 0, overflow(32 + 20 * 0xFFFF_FFFF)),
    "pool-overflow": (make_header_bytes(0, 0xFFFF_FFFF), 0, overflow(32 + 0xFFFF_FFFF)),
    "chunk-table-overflow": (bytes(8) + make_header_bytes(1)
                             + FileRecord(0, 0, 0xFFFF_FFFF, 0, 0).encode(),
                             8, overflow(32 + 20 + 12 * (1 << 32))),
    "pool-past-dump": (make_header_bytes(0, 100) + bytes(99), 0,
                       (TruncatedImage, "name pool or file table extends past the 131-byte dump")),
    "chunk-table-past-dump": (bytes(8) + make_header_bytes(1) + FileRecord(0, 0, 1, 0, 0).encode()
                              + bytes(23), 8,
                              (TruncatedImage, "chunk table extends past the 83-byte dump")),
    "no-files": (make_header_bytes(0, 4) + b"abc\x00", 0, FsLayout(0, 32, 36, 36, 36, 0)),
}


class TestHostileHeaders:
    @pytest.mark.parametrize("case", HOSTILE_HEADERS)
    def test_every_entry_point_gives_the_pinned_answer(self, case):
        dump, base, expected = HOSTILE_HEADERS[case]
        if isinstance(expected, FsLayout):
            header, layout, names, files, chunks = parse_instance(dump, base)
            assert (layout, names, list(files), list(chunks)) == (expected, b"abc\x00", [], [])
            assert header == MiniFsHeader(0, 4)
            view = open_view(dump, base)
            assert (view.layout, view.violations) == (expected, [])
            assert screen_instance(dump, base) == (expected, None)
            return
        kind, message = expected
        for entry in (parse_instance, open_view, screen_instance):
            with pytest.raises(kind) as raised:
                entry(dump, base)
            assert (type(raised.value), str(raised.value)) == (kind, message), entry.__name__


def instance(file_count=0, name_table_size=0, chunk_count=1, base=0, **header_words):
    """Header bytes at ``base`` and zeroed tables; the last file record names chunk ``chunk_count - 1``."""
    tables = bytes(name_table_size)
    if file_count:
        tables += (bytes(20 * (file_count - 1)) + FileRecord(0, 0, chunk_count - 1, 0, 0).encode()
                   + bytes(12 * chunk_count))
    return bytes(base) + make_header_bytes(file_count, name_table_size, **header_words) + tables


# The last file record names chunk 0, so the chunk table holds one record.
LAST_RECORD = FileRecord(0, 0, 0, 0, 0).encode()


def parse_tables(file_records: bytes, chunk_records: bytes) -> tuple[list, list]:
    """The records of the file and chunk tables ``parse_instance`` reads from raw records and an empty pool."""
    header = MiniFsHeader(len(file_records) // 20, 0).encode()
    return tuple(map(list, parse_instance(header + file_records + chunk_records)[3:]))


class TestHeader:
    def test_decodes_observed_values(self):
        # 0x14F files and a 0x12C4-byte name table, straight from a real header.
        header = parse_instance(instance(file_count=0x14F, name_table_size=0x12C4))[0]
        assert header.file_count == 335
        assert header.name_table_size == 4804

    def test_empty_file_system_header_is_valid(self):
        header = parse_instance(make_header_bytes())[0]
        assert header.file_count == 0
        assert header.name_table_size == 0

    def test_corrupted_magic(self):
        with pytest.raises(BadMagic):
            parse_instance(make_header_bytes(magic=b"MINIFX"))

    def test_wrong_length_rejected(self):
        # Once the magic is whole, a dump that ends inside the header is truncated.
        for length in range(6, 32):
            with pytest.raises(TruncatedImage):
                parse_instance(make_header_bytes()[:length])

    def test_big_endian_not_little(self):
        header = parse_instance(instance(file_count=0x0000014F))[0]
        assert header.file_count == 335
        assert header.file_count != 1325400064  # LE misread of the same bytes

    @given(
        file_count=st.integers(min_value=0, max_value=300),
        name_table_size=st.integers(min_value=0, max_value=5000),
        unknown_a=u32, unknown_b=u32, reserved=st.binary(min_size=10, max_size=10),
    )
    def test_roundtrip_is_byte_exact(self, file_count, name_table_size,
                                     unknown_a, unknown_b, reserved):
        image = instance(file_count, name_table_size, unknown_a=unknown_a, unknown_b=unknown_b,
                         reserved=reserved)
        header = parse_instance(image)[0]
        assert header.encode() == image[:32]
        assert (header.file_count, header.name_table_size) == (file_count, name_table_size)
        assert header.unknown_a == unknown_a
        assert header.unknown_b == unknown_b
        assert header.reserved == reserved


class TestNameTable:
    """The reference reader's scalar decoder, which ``test_reference`` holds ``join_paths`` to."""

    POOL = b"fw/mtk\x00base.css\x00"

    def test_path_string(self):
        assert name_at(self.POOL, 0) == "fw/mtk"

    def test_file_name_string(self):
        assert name_at(self.POOL, 7) == "base.css"

    def test_empty_string_for_root_files(self):
        assert name_at(b"\x00", 0) == ""

    def test_offset_out_of_range(self):
        with pytest.raises(OffsetOutOfRange):
            name_at(self.POOL, len(self.POOL))
        with pytest.raises(OffsetOutOfRange):
            name_at(self.POOL, -1)

    def test_unterminated(self):
        with pytest.raises(UnterminatedString):
            name_at(b"abc", 0)

    def test_non_ascii(self):
        for bad in (b"\x1fx\x00", b"\x7fx\x00", b"\x80x\x00"):
            with pytest.raises(NonAsciiName):
                name_at(bad, 0)

    @given(st.binary(max_size=64), st.integers(min_value=0, max_value=63))
    def test_result_never_contains_nul(self, pool, offset):
        try:
            result = name_at(pool, offset)
        except (OffsetOutOfRange, UnterminatedString, NonAsciiName):
            return
        assert "\x00" not in result


class TestFullPath:
    """One record's ``join_paths``, its refusal raised (``helpers.join_one``)."""

    POOL = b"fw/mtk\x00base.css\x00boot.bin\x00\x00"

    @staticmethod
    def rec(path_offset, name_offset):
        return FileRecord(path_offset, name_offset, 0, 0, 0)

    def test_join(self):
        assert join_one(self.POOL, self.rec(0, 7)) == "fw/mtk/base.css"

    def test_root_file_has_no_leading_slash(self):
        assert join_one(self.POOL, self.rec(25, 16)) == "boot.bin"

    def test_traversal_rejected(self):
        pool = b"a/../..\x00x\x00"
        with pytest.raises(UnsafePath):
            join_one(pool, self.rec(0, 8))

    def test_separator_inside_name_rejected(self):
        pool = b"\x00a/b\x00"
        with pytest.raises(UnsafePath):
            join_one(pool, self.rec(0, 1))

    def test_absolute_path_rejected(self):
        pool = b"/etc\x00passwd\x00"
        with pytest.raises(UnsafePath):
            join_one(pool, self.rec(0, 5))

    def test_empty_name_rejected(self):
        pool = b"a\x00\x00"
        with pytest.raises(UnsafePath):
            join_one(pool, self.rec(0, 2))

    @given(
        path=st.lists(st.text(alphabet="abcdef", min_size=1, max_size=4),
                      min_size=0, max_size=3).map("/".join),
        name=st.text(alphabet="abcdef.", min_size=1, max_size=8)
        .filter(lambda n: n not in (".", "..")),
    )
    def test_separator_count(self, path, name):
        pool = path.encode() + b"\x00" + name.encode() + b"\x00"
        joined = join_one(pool, self.rec(0, len(path) + 1))
        expected = path.count("/") + name.count("/") + (1 if path else 0)
        assert joined.count("/") == expected


# Pools with and without NULs, with bytes that are not printable ASCII before and after them.
POOL_BYTES = [b"\x00", b"a", b" ", b"~", b"\x01", b"\x1f", b"\x7f", b"\x80", b"\xff"]
pools = st.lists(st.sampled_from(POOL_BYTES), max_size=40).map(b"".join)


class TestStrings:
    """``_strings``, offset by offset, against the scalar reader ``name_at``."""

    @given(pool=pools, data=st.data())
    def test_agree_with_name_at(self, pool, data):
        offset = st.integers(-1, len(pool) + 2)
        offsets = np.array(data.draw(st.lists(st.tuples(offset, offset), max_size=20)), np.int64)
        ends, stops, faults = structs._strings(pool, offsets.reshape(-1, 2))
        codes = {OffsetOutOfRange: structs._OUTSIDE, UnterminatedString: structs._UNTERMINATED,
                 NonAsciiName: structs._UNPRINTABLE}
        columns = (column.ravel().tolist() for column in (offsets, ends, stops, faults))
        for offset, end, stop, fault in zip(*columns):
            try:
                name_at(pool, offset)
            except (OffsetOutOfRange, UnterminatedString, NonAsciiName) as exc:
                assert fault == codes[type(exc)]
                error = structs._string_error(pool, offset, stop, fault)  # names the stop byte
                assert (type(error), str(error)) == (type(exc), str(exc))
            else:
                assert fault == structs._GOOD
            if offset >= 0:
                nul = pool.find(b"\x00", offset)
                assert end == (nul if nul >= 0 else len(pool))


class TestPathKeys:
    @given(pool=st.binary(max_size=300),
           offsets=st.lists(st.tuples(st.integers(0, 310), st.integers(0, 310)), max_size=20))
    def test_match_the_key_of_the_joined_bytes(self, pool, offsets):
        """The array keys equal the integer key of each record's two strings, read up to the next NUL, joined."""
        def string(offset):
            return pool[offset:].partition(b"\x00")[0]

        keys = _path_keys(pool, np.array(offsets, np.int64).reshape(-1, 2))
        assert keys.tolist() == [_string_key(string(d) + b"/" + string(n) if string(d) else string(n))
                                 for d, n in offsets]


class TestFileTable:
    RAW = bytes.fromhex("00000000" "00000007" "00000000" "00000000" "00060700")

    def test_decodes_observed_record(self):
        (rec,), _ = parse_tables(self.RAW, bytes(12))
        assert rec == FileRecord(
            path_offset=0, name_offset=7, chunk_index=0,
            offset_in_chunk=0, file_size=395008,
        )

    def test_empty(self):
        assert parse_tables(b"", b"") == ([], [])

    def test_truncated(self):
        with pytest.raises(TruncatedImage):
            parse_instance(make_header_bytes(file_count=2) + b"\x00" * 30)

    @given(u32, u32, u32, u32, u32)
    def test_roundtrip(self, a, b, c, d, e):
        rec = FileRecord(a, b, c, d, e)
        (back, _), _ = parse_tables(rec.encode() + LAST_RECORD, bytes(12))
        assert back == rec

    @given(st.binary(min_size=20, max_size=20))
    def test_reencode_is_byte_exact(self, raw):
        (rec, _), _ = parse_tables(raw + LAST_RECORD, bytes(12))
        assert rec.encode() == raw


class TestChunkTable:
    RAW = bytes.fromhex("00000000" "0002FD71" "00060700")

    def test_decodes_observed_record(self):
        _, (rec,) = parse_tables(LAST_RECORD, self.RAW)
        assert rec == ChunkRecord(data_offset=0, compressed_size=195953,
                                  decompressed_size=395008)

    def test_empty(self):
        assert list(parse_instance(make_header_bytes(name_table_size=4) + b"abc\x00")[4]) == []

    def test_truncated(self):
        # The last record names chunk 1, so the table needs 24 bytes; 20 follow.
        image = make_header_bytes(file_count=1) + FileRecord(0, 0, 1, 0, 0).encode() + bytes(20)
        with pytest.raises(TruncatedImage):
            parse_instance(image)

    def test_undersized_compressed_size_parses_but_flags(self):
        # Parse accepts it; validate_layout reports the sub-minimum size.
        _, (rec,) = parse_tables(LAST_RECORD, ChunkRecord(0, 3, 10).encode())
        assert rec.compressed_size == 3
        header = MiniFsHeader(file_count=0, name_table_size=0)
        violations = validate_tables(header, [], [rec], image_length=1 << 20)
        assert any(v.kind == "chunk-size" for v in violations)

    @given(u32, u32, u32)
    def test_roundtrip(self, a, b, c):
        rec = ChunkRecord(a, b, c)
        _, (back,) = parse_tables(LAST_RECORD, rec.encode())
        assert back == rec

    @given(st.binary(min_size=12, max_size=12))
    def test_reencode_is_byte_exact(self, raw):
        _, (rec,) = parse_tables(LAST_RECORD, raw)
        assert rec.encode() == raw


class TestChunkInference:
    @staticmethod
    def chunk_count(*chunk_indices):
        """The chunk count ``parse_instance`` infers for records naming these chunks."""
        records = b"".join(FileRecord(0, 0, i, 0, 0).encode() for i in chunk_indices)
        need = 12 * (chunk_indices[-1] + 1) if chunk_indices else 0
        image = make_header_bytes(file_count=len(chunk_indices)) + records + bytes(need)
        return parse_instance(image)[1].chunk_count

    def test_observed_last_index(self):
        assert self.chunk_count(0, 1, 0x29) == 42

    def test_single_record(self):
        assert self.chunk_count(0) == 1

    def test_empty_table(self):
        assert self.chunk_count() == 0

    def test_adversarial_table_vs_max_oracle(self):
        # An earlier record pointing past the last one's chunk: the rule
        # still answers last+1, and validation must notice the divergence.
        assert self.chunk_count(7, 5) == 6
        assert max(7, 5) + 1 == 8  # the max-based oracle
        records = FileRecord(0, 0, 7, 0, 0).encode() + FileRecord(0, 0, 5, 0, 0).encode()
        image = make_header_bytes(file_count=2) + records + ChunkRecord(0, 5, 0).encode() * 6
        _, layout, names, files, chunks = parse_instance(image)
        violations = validate_layout(layout, names, files, chunks, image_length=1 << 20)
        assert any(v.kind == "chunk-inference" for v in violations)
        assert any(v.kind == "chunk-index" for v in violations)


def regions(layout):
    return layout.names_start, layout.files_start, layout.chunk_table_start, layout.data_start


class TestLayout:
    def test_observed_arithmetic(self):
        image = observed_instance()
        assert len(image) == 12040
        assert regions(parse_instance(image)[1]) == (32, 4836, 11536, 12040)

    def test_empty_collapses_to_header_end(self):
        assert regions(parse_instance(make_header_bytes())[1]) == (32, 32, 32, 32)

    def test_nonzero_base(self):
        # 100 + 32 = 132; +16 = 148; +20 = 168; +12 = 180
        layout = parse_instance(instance(file_count=1, name_table_size=16, base=100), 100)[1]
        assert regions(layout) == (132, 148, 168, 180)

    def test_overflow(self):
        with pytest.raises(ArithmeticOverflow):
            parse_instance(make_header_bytes(file_count=0xFFFF_FFFF))

    def test_negative_base_rejected(self):
        with pytest.raises(BadMagic):
            parse_instance(make_header_bytes(), -1)

    @given(
        file_count=st.integers(min_value=1, max_value=200),
        name_table_size=st.integers(min_value=0, max_value=2000),
        chunk_count=st.integers(min_value=1, max_value=200),
    )
    def test_strictly_monotone(self, file_count, name_table_size, chunk_count):
        def layout(files, pool, chunks):
            return parse_instance(instance(files, pool, chunks))[1]

        base = layout(file_count, name_table_size, chunk_count)
        assert base == region_layout(MiniFsHeader(file_count, name_table_size), chunk_count)

        bigger_names = layout(file_count, name_table_size + 1, chunk_count)
        assert bigger_names.files_start == base.files_start + 1
        assert bigger_names.data_start == base.data_start + 1

        bigger_files = layout(file_count + 1, name_table_size, chunk_count)
        assert bigger_files.chunk_table_start == base.chunk_table_start + 20
        assert bigger_files.data_start == base.data_start + 20

        bigger_chunks = layout(file_count, name_table_size, chunk_count + 1)
        assert bigger_chunks.data_start == base.data_start + 12


class TestTablesEnd:
    """The vector end auto-detection screens with, against the decoder's layout."""

    @given(
        base=st.integers(min_value=0, max_value=40),
        file_count=st.integers(min_value=0, max_value=8)
        | st.integers(min_value=0xFFFF_FFF0, max_value=0xFFFF_FFFF),
        name_table_size=st.integers(min_value=0, max_value=64)
        | st.integers(min_value=0xFFFF_FF00, max_value=0xFFFF_FFFF),
        tail=st.binary(max_size=160) | st.integers(min_value=0, max_value=320).map(bytes),
    )
    def test_matches_parse_instance(self, base, file_count, name_table_size, tail):
        dump = bytes(base) + make_header_bytes(file_count, name_table_size) + tail
        end = tables_end(np.frombuffer(dump, dtype=np.uint8), np.array([base], dtype=np.int64))
        end = int(end[0])
        if end > len(dump):
            with pytest.raises((TruncatedImage, ArithmeticOverflow)):
                parse_instance(dump, base)
            return
        try:
            layout = parse_instance(dump, base)[1]
        except TruncatedImage as exc:  # only the chunk table can still lie past the dump
            assert str(exc).startswith("chunk table extends past")
        except ArithmeticOverflow:
            assert file_count  # only a chunk count from a record can overflow here
        else:
            assert end == layout.chunk_table_start


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
        record = FileRecord(0, 2, 0, offset, size)
        chunks = [ChunkRecord(0, 13, 0xFFFF_FFFF)]
        violations = validate_tables(header, [record], chunks, image_length=1 << 20)
        assert [(v.kind, v.index) for v in violations] == [("file-span", 0), ("chunk-size", 0)]

    @pytest.mark.parametrize("data_offset, compressed_size", [(0xFFFF_FFFF, 13), (13, 0xFFFF_FFFF),
                                                              (0xFFFF_FFFF, 0xFFFF_FFFF)])
    def test_chunk_bounds_are_not_wrapped_to_32_bits(self, data_offset, compressed_size):
        header = MiniFsHeader(file_count=0, name_table_size=0)
        chunk = ChunkRecord(data_offset, compressed_size, 0)
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
        names = b"abcd"  # no terminator anywhere
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
