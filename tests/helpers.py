"""Builders shared across test modules, and a reference reader, encoder and decoder."""

import functools
import lzma
import struct
from dataclasses import dataclass

from minifskit import PackOptions, compress_chunk, pack
from minifskit.codec import (
    DEFAULT_OUTPUT_LIMIT,
    STREAM_HEADER_SIZE,
    V1_CONFIG_WORD,
    Version,
    _bounded_dict_size,
    _lzma1_filter_from_props,
    check_config_word,
)
from minifskit.errors import (
    AmbiguousPath,
    ChunkTooLarge,
    CorruptStream,
    MiniFsError,
    NonAsciiName,
    NotFound,
    OffsetOutOfRange,
    SizeMismatch,
    TruncatedTable,
    UnknownConfigWord,
    UnterminatedString,
)
from minifskit.structs import (
    CHUNK_RECORD_SIZE,
    FILE_RECORD_SIZE,
    HEADER_SIZE,
    ChunkRecord,
    FileRecord,
    FsLayout,
    MiniFsHeader,
    Violation,
    check_path,
    join_paths,
)

# Three files across two chunks: the middle-of-the-road instance most
# extractor tests want.  With the 600-byte cap the sorted entries group
# as [boot.bin, fw/mtk/app.js] + [fw/mtk/base.css].
THREE_FILE_ENTRIES = [
    ("fw/mtk/base.css", b"body { margin: 0; }\n" * 20),
    ("fw/mtk/app.js", b"function f() { return 1; }\n" * 16),
    ("boot.bin", bytes(range(100))),
]


def build_three_file_image() -> bytes:
    return pack(
        THREE_FILE_ENTRIES,
        PackOptions(max_chunk_decompressed=600, sort_entries=True),
    )


def overlapping_hit_dump(size: int) -> bytes:
    """Zeros with a MINIFS header every 4 KiB and an empty name pool in each.

    Each header's file table runs to the end of the dump minus 12 bytes,
    room for one chunk record, so the tables overlap and parsing them all
    costs time quadratic in ``size``; every record points outside its
    empty pool.
    """
    dump = bytearray(size)
    for base in range(0, size - 12 - HEADER_SIZE, 4096):
        file_count = (size - 12 - base - HEADER_SIZE) // FILE_RECORD_SIZE
        dump[base:base + HEADER_SIZE] = MiniFsHeader(file_count, 0).encode()
    return bytes(dump)


def one_string_pool_dump(pool_size: int = 128 << 10, records: int = 6000) -> bytes:
    """A clean image whose name pool is one string of ``a`` ending in a NUL.

    Record i's directory string starts at 2i·s and its name at (2i+1)·s
    in that string (s = pool_size // (2 · records)), and each record is
    byte 0 of the one 16-byte chunk.  A reader that copies the string at
    each offset holds about ``records`` × ``pool_size`` bytes: 245 KiB
    as built by default, but ~1 GiB of strings.
    """
    stride = pool_size // (2 * records)
    pool = b"a" * (pool_size - 1) + b"\x00"
    chunk = compress_chunk(b"x" * 16)
    table = b"".join(FileRecord(2 * i * stride, (2 * i + 1) * stride, 0, 0, 1).encode()
                     for i in range(records))
    return (MiniFsHeader(records, len(pool)).encode() + pool + table
            + ChunkRecord(0, len(chunk), 16).encode() + chunk)


def shared_stream_dump(records: int) -> bytes:
    """A clean image of ``records`` one-byte files ``f``, one to a chunk,
    whose chunk records all point at one stream of the two bytes ``ab``.

    Reading a file decodes its chunk to byte 1 of 2, so the read leaves
    the chunk's decoder unfinished: 12 bytes of chunk table per decoder.
    """
    pool = b"\x00f\x00"
    stream = compress_chunk(b"ab")
    return (MiniFsHeader(records, len(pool)).encode() + pool
            + b"".join(FileRecord(0, 1, i, 0, 1).encode() for i in range(records))
            + ChunkRecord(0, len(stream), 2).encode() * records + stream)


@functools.cache
def chunk_bomb() -> bytes:
    """Ten 16 MiB zero files, one to a chunk: about 25 KB of image, 160 MiB decoded."""
    zero = bytes(16 << 20)
    return pack([(f"zero{i}", zero) for i in range(10)], PackOptions(max_chunk_decompressed=16 << 20))


def region_layout(header: MiniFsHeader, chunk_count: int, base: int = 0) -> FsLayout:
    """The five region starts by the format's arithmetic, restated apart from the decoder."""
    files_start = base + HEADER_SIZE + header.name_table_size
    chunk_table_start = files_start + FILE_RECORD_SIZE * header.file_count
    return FsLayout(base, base + HEADER_SIZE, files_start, chunk_table_start,
                    chunk_table_start + CHUNK_RECORD_SIZE * chunk_count, chunk_count)


def observed_instance() -> bytes:
    """The tables of an instance with the observed header words, and no chunk data.

    12,040 bytes: a header declaring 0x14F files and a 0x12C4-byte name
    pool, the pool, 335 file records (the first an observed one, the last
    naming chunk 0x29) and 42 chunk records (the first an observed one).
    """
    header = (b"MINIFS" + bytes(10) + (0).to_bytes(4, "big") + (0x14F).to_bytes(4, "big")
              + (0).to_bytes(4, "big") + (0x12C4).to_bytes(4, "big"))
    pool = b"fw/mtk\x00base.css\x00".ljust(0x12C4, b"\x00")
    files = (bytes.fromhex("00000000" "00000007" "00000000" "00000000" "00060700")
             + bytes(FILE_RECORD_SIZE) * 333 + FileRecord(0, 7, 0x29, 0, 0).encode())
    chunks = bytes.fromhex("00000000" "0002FD71" "00060700") + bytes(CHUNK_RECORD_SIZE) * 41
    return header + pool + files + chunks


def write_tree(root, entries) -> None:
    """Materialize (path, bytes) pairs under ``root``."""
    for rel, content in entries:
        dest = root / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_bytes(content)


def read_tree(root) -> dict[str, bytes]:
    """Relative path -> bytes for every regular file under ``root``."""
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def join_one(pool: bytes, record) -> str:
    """The path :func:`structs.join_paths` gives one record, or its refusal raised."""
    path = join_paths(pool, [record])[0]
    if isinstance(path, tuple):
        raise path[0](path[1])
    return path


# --- Reference reader: the dataclass records, per-record validation and
# one-join-per-record path index that the columnless reader replaced.  The
# equivalence tests hold the current code to it.  It decodes every string
# with its own scalar ``name_at`` and remembers nothing.

def name_at(pool: bytes, offset: int) -> str:
    """The string at ``offset`` of the name pool, up to its NUL, checked one byte at a time.

    The empty string (a NUL at ``offset``) is the path of the root.
    """
    if not 0 <= offset < len(pool):
        raise OffsetOutOfRange(f"name offset {offset} outside pool of {len(pool)} bytes")
    end = pool.find(b"\x00", offset)
    if end < 0:
        raise UnterminatedString(f"no NUL terminator after offset {offset}")
    for at in range(offset, end):
        if not 0x20 <= pool[at] < 0x7F:
            raise NonAsciiName(f"byte {pool[at]:#04x} at pool offset {at} is not printable ASCII")
    return pool[offset:end].decode("ascii")


@dataclass(frozen=True)
class RefFileRecord:
    path_offset: int
    name_offset: int
    chunk_index: int
    offset_in_chunk: int
    file_size: int


def ref_parse_file_table(buf: bytes, file_count: int) -> list[RefFileRecord]:
    need = FILE_RECORD_SIZE * file_count
    if len(buf) < need:
        raise TruncatedTable(
            f"file table needs {need} bytes for {file_count} records, got {len(buf)}"
        )
    return [
        RefFileRecord(*struct.unpack_from(">IIIII", buf, i * FILE_RECORD_SIZE))
        for i in range(file_count)
    ]


def ref_validate_layout(layout, names, records, chunks, image_length) -> list[Violation]:
    violations: list[Violation] = []
    add = violations.append

    pool_size = len(names)
    for i, rec in enumerate(records):
        for what, off in (("path", rec.path_offset), ("name", rec.name_offset)):
            if off >= pool_size:
                add(Violation(
                    "name-offset",
                    f"{what} offset {off} outside {pool_size}-byte pool",
                    index=i,
                ))
            else:
                try:
                    name_at(names, off)
                except (UnterminatedString, NonAsciiName) as exc:
                    add(Violation("bad-name", f"{what} string: {exc}", index=i))
        if rec.chunk_index >= len(chunks):
            add(Violation(
                "chunk-index",
                f"chunk index {rec.chunk_index} with only {len(chunks)} chunks",
                index=i,
            ))
        else:
            chunk = chunks[rec.chunk_index]
            if rec.offset_in_chunk + rec.file_size > chunk.decompressed_size:
                add(Violation(
                    "file-span",
                    f"offset {rec.offset_in_chunk} + size {rec.file_size} exceeds "
                    f"{chunk.decompressed_size}-byte chunk {rec.chunk_index}",
                    index=i,
                ))

    for i, chunk in enumerate(chunks):
        if chunk.compressed_size < STREAM_HEADER_SIZE:
            add(Violation(
                "chunk-size",
                f"compressed size {chunk.compressed_size} below the "
                f"{STREAM_HEADER_SIZE}-byte LZMA stream header",
                index=i,
            ))
        if chunk.decompressed_size > DEFAULT_OUTPUT_LIMIT:
            add(Violation(
                "chunk-size",
                f"decompressed size {chunk.decompressed_size} above the "
                f"{DEFAULT_OUTPUT_LIMIT}-byte decoder limit",
                index=i,
            ))
        end = layout.data_start + chunk.data_offset + chunk.compressed_size
        if end > image_length:
            add(Violation(
                "chunk-bounds",
                f"chunk data ends at {end} but image is {image_length} bytes",
                index=i,
            ))

    if records:
        last = records[-1].chunk_index
        highest = max(rec.chunk_index for rec in records)
        if highest != last:
            add(Violation(
                "chunk-inference",
                f"last record names chunk {last} but chunk {highest} is referenced earlier",
            ))

    return violations


def ref_full_path(names, record) -> str:
    directory = name_at(names, record.path_offset)
    name = name_at(names, record.name_offset)
    check_path(directory, name)
    return f"{directory}/{name}" if directory else name


def ref_paths(names, records) -> list[str | MiniFsError]:
    """Per record, its joined path or the naming error."""
    paths: list[str | MiniFsError] = []
    for rec in records:
        try:
            paths.append(ref_full_path(names, rec))
        except MiniFsError as exc:
            paths.append(exc)
    return paths


def ref_index(paths) -> dict[str, list[int]]:
    """Path → record indices; records whose names do not join are left out."""
    by_path: dict[str, list[int]] = {}
    for index, path in enumerate(paths):
        if not isinstance(path, MiniFsError):
            by_path.setdefault(path, []).append(index)
    return by_path


def ref_select(by_path, selector: str) -> int:
    """The record index a path selector picks out of ``ref_index``."""
    matches = by_path.get(selector, [])
    if not matches:
        raise NotFound(f"no file named {selector!r}")
    if len(matches) > 1:
        raise AmbiguousPath(
            f"{len(matches)} entries share the path {selector!r}; select by index"
        )
    return matches[0]


# --- Reference encoder: the stock legacy-LZMA ("alone") encoder with the
# v2 encoder's 8 MiB dictionary, which compress_chunk replaced.  The
# equivalence tests hold compress_chunk to it byte for byte.

def ref_compress_chunk(data: bytes) -> bytes:
    filters = [{"id": lzma.FILTER_LZMA1, "preset": 6, "dict_size": 8 << 20}]
    return lzma.compress(data, format=lzma.FORMAT_ALONE, filters=filters)


# --- Reference decoder: the whole-chunk decode in one call, which
# ChunkDecoder replaced.  The equivalence tests hold decompress_chunk,
# and every prefix that ChunkDecoder returns, to it.

def ref_decompress_chunk(chunk: bytes, expected_size: int) -> bytes:
    if expected_size < 0:
        raise ValueError(f"expected_size must be non-negative, got {expected_size}")
    if expected_size > DEFAULT_OUTPUT_LIMIT:
        raise ChunkTooLarge(
            f"expected_size {expected_size} exceeds the output limit {DEFAULT_OUTPUT_LIMIT}")
    if check_config_word(chunk) is not Version.V2:
        raise UnknownConfigWord(
            bytes(chunk[:4]),
            f"chunk carries the legacy v1 word {V1_CONFIG_WORD.hex()}; only v2 is decodable")
    if len(chunk) < STREAM_HEADER_SIZE:
        raise CorruptStream(
            f"chunk of {len(chunk)} bytes is shorter than the {STREAM_HEADER_SIZE}-byte "
            "LZMA stream header")
    dict_size = _bounded_dict_size(int.from_bytes(chunk[1:5], "little"), expected_size)
    decoder = lzma.LZMADecompressor(
        lzma.FORMAT_RAW, filters=_lzma1_filter_from_props(chunk[0], dict_size))
    try:
        out = decoder.decompress(chunk[STREAM_HEADER_SIZE:], max_length=expected_size)
        overrun = b""
        if len(out) == expected_size and not decoder.eof:
            overrun = decoder.decompress(b"", max_length=1)
    except lzma.LZMAError as exc:
        raise CorruptStream(f"LZMA decoder failed: {exc}") from exc
    if overrun:
        raise SizeMismatch(expected_size, expected_size + len(overrun),
                           f"stream decodes past the expected {expected_size} bytes")
    if len(out) != expected_size:
        raise SizeMismatch(expected_size, len(out))
    return out
