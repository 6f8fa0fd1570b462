"""On-disk structures of the MiniFS v2 read-only file system.

An instance is laid out as five back-to-back regions, addressed from the
position of the magic string (the *base*)::

    base +  0   header, fixed 32 bytes, starts with ASCII "MINIFS"
    base + 32   name pool: NUL-delimited ASCII strings (paths and names)
    ...         file table: 20-byte records, one per file
    ...         chunk table: 12-byte records, one per compressed chunk
    ...         chunk data: raw LZMA streams, concatenated without padding

All multi-byte fields are unsigned 32-bit big-endian.  The header carries
two words and ten bytes whose meaning is unknown; they are preserved
verbatim so that decode/encode round-trips are byte-exact.  The format
stores no chunk count: it is the last file record's chunk index plus one.

:func:`parse_instance` is the one decoder: it bounds every region by the
dump and unpacks the header and both tables.  :func:`validate_layout`
cross-checks what it returns; :func:`screen_instance` finds some of those
violations in O(1) with the decoder's own header checks and region
arithmetic.

Everything in this module is a pure function over immutable inputs; a
:class:`NameTable` only remembers what it has already decoded.  A dump
is ``bytes`` or a read-only ``mmap`` of a dump file (:data:`Dump`).
"""

from __future__ import annotations

import mmap
import struct
from contextlib import suppress
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator, NamedTuple

import numpy as np

from .codec import DEFAULT_OUTPUT_LIMIT, STREAM_HEADER_SIZE
from .errors import (
    ArithmeticOverflow,
    BadMagic,
    MiniFsError,
    NonAsciiName,
    OffsetOutOfRange,
    TruncatedImage,
    UnsafePath,
    UnterminatedString,
)

# A whole dump as the parsers read it: any read-only buffer whose slices
# are ``bytes``, such as ``bytes`` or a read-only ``mmap``.  Every region
# that is kept is sliced out, so nothing keeps more than its own bytes.
Dump = bytes | mmap.mmap

MAGIC = b"MINIFS"
HEADER_SIZE = 32
FILE_RECORD_SIZE = 20
CHUNK_RECORD_SIZE = 12

# The header: magic, 10 unidentified bytes, unknown_a, file_count,
# unknown_b, name_table_size.  tables_end gathers two words by offset.
_HEADER = struct.Struct(">6s10sIIII")
_FILE_COUNT_OFFSET = 0x14
_NAME_TABLE_SIZE_OFFSET = 0x1C

_U32_MAX = 0xFFFF_FFFF

# Deleting these from a name leaves only the bytes it may not contain.
_PRINTABLE = bytes(range(0x20, 0x7F))
_PRINTABLE_OR_NUL = b"\x00" + _PRINTABLE

# Byte positions of one header word, for gathering it at many bases.
_WORD_BYTES = np.arange(4)

_FILE_RECORD = struct.Struct(">IIIII")
_CHUNK_RECORD = struct.Struct(">III")


def _check_u32(value: int, what: str) -> int:
    if not 0 <= value <= _U32_MAX:
        raise ValueError(f"{what} {value} does not fit an unsigned 32-bit field")
    return value


@dataclass(frozen=True)
class MiniFsHeader:
    """Decoded 32-byte header.

    ``unknown_a``, ``unknown_b`` and ``reserved`` have no identified
    meaning; they are carried through unchanged.
    """

    file_count: int
    name_table_size: int
    unknown_a: int = 0
    unknown_b: int = 0
    reserved: bytes = b"\x00" * 10

    def encode(self) -> bytes:
        if len(self.reserved) != 10:
            raise ValueError(f"reserved must be 10 bytes, got {len(self.reserved)}")
        return _HEADER.pack(
            MAGIC,
            bytes(self.reserved),
            _check_u32(self.unknown_a, "unknown_a"),
            _check_u32(self.file_count, "file_count"),
            _check_u32(self.unknown_b, "unknown_b"),
            _check_u32(self.name_table_size, "name_table_size"),
        )


@dataclass(frozen=True)
class NameTable:
    """NUL-delimited ASCII string pool, addressed by byte offset.

    Records share strings, so the table remembers the decoded string
    per offset and the directory check per directory string
    (:func:`_check_pair`).
    """

    pool: bytes
    _strings: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _directories: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.pool)


class FileRecord(NamedTuple):
    """One 20-byte entry of the file table."""

    path_offset: int
    name_offset: int
    chunk_index: int
    offset_in_chunk: int
    file_size: int

    def encode(self) -> bytes:
        return _FILE_RECORD.pack(*map(_check_u32, self, self._fields))


class ChunkRecord(NamedTuple):
    """One 12-byte entry of the chunk table.

    ``data_offset`` is relative to the start of the chunk data region,
    not to the image base.
    """

    data_offset: int
    compressed_size: int
    decompressed_size: int

    def encode(self) -> bytes:
        return _CHUNK_RECORD.pack(*map(_check_u32, self, self._fields))


class FsLayout(NamedTuple):
    """Absolute start offsets of the five regions of one instance."""

    base: int
    names_start: int
    files_start: int
    chunk_table_start: int
    data_start: int
    chunk_count: int

    @property
    def file_count(self) -> int:
        return (self.chunk_table_start - self.files_start) // FILE_RECORD_SIZE


@dataclass(frozen=True)
class Violation:
    """One broken invariant found by :func:`validate_layout`."""

    kind: str
    detail: str
    index: int | None = None

    def __str__(self) -> str:
        where = "" if self.index is None else f"[{self.index}] "
        return f"{self.kind}: {where}{self.detail}"


def _header_at(dump: Dump, base: int) -> MiniFsHeader:
    """The decoded header at ``base``.

    Raises BadMagic without the magic there, and TruncatedImage if the
    dump ends inside the header.
    """
    if base < 0 or dump[base:base + len(MAGIC)] != MAGIC:
        raise BadMagic(f"no {MAGIC!r} at offset {base}")
    if base + HEADER_SIZE > len(dump):
        raise TruncatedImage(f"dump ends inside the header at offset {base}")
    _, reserved, unknown_a, file_count, unknown_b, name_table_size = _HEADER.unpack_from(dump, base)
    return MiniFsHeader(file_count, name_table_size, unknown_a, unknown_b, reserved)


def name_at(table: NameTable, offset: int) -> str:
    """Return the NUL-terminated ASCII string starting at ``offset``.

    The empty string (a NUL at ``offset``) is valid: it is the path of
    files living in the file-system root.
    """
    pool = table.pool
    if not 0 <= offset < len(pool):
        raise OffsetOutOfRange(f"name offset {offset} outside pool of {len(pool)} bytes")
    end = pool.find(b"\x00", offset)
    if end < 0:
        raise UnterminatedString(f"no NUL terminator after offset {offset}")
    raw = pool[offset:end]
    if raw.translate(None, _PRINTABLE):
        i, b = next((i, b) for i, b in enumerate(raw) if b < 0x20 or b >= 0x7F)
        raise NonAsciiName(f"byte {b:#04x} at pool offset {offset + i} is not printable ASCII")
    return raw.decode("ascii")


def check_name(name: str) -> None:
    """The file-name half of the one path rule, shared by reading and packing.

    The name must be printable ASCII, non-empty, hold no separator, and
    not be ``.`` or ``..``.  Raises UnsafePath, or NonAsciiName.
    """
    if not name:
        raise UnsafePath("empty file name")
    if "/" in name:
        raise UnsafePath(f"file name {name!r} contains a path separator")
    if name in (".", ".."):
        raise UnsafePath(f"file name is {name!r}")
    _check_printable("file name", name)


def check_directory(directory: str) -> None:
    """The directory half of the path rule: printable ASCII, not absolute,
    no empty, ``.`` or ``..`` component; the empty string is the root.
    An empty or ``.`` component would let two joined paths name one file."""
    if directory.startswith("/"):
        raise UnsafePath(f"absolute directory path {directory!r}")
    if directory:
        parts = directory.split("/")
        if ".." in parts:
            raise UnsafePath(f"directory path {directory!r} contains a '..' component")
        if "." in parts:
            raise UnsafePath(f"directory path {directory!r} contains a '.' component")
        if "" in parts:
            raise UnsafePath(f"directory path {directory!r} has an empty component")
    _check_printable("directory", directory)


def _check_printable(what: str, text: str) -> None:
    if not (text.isascii() and text.isprintable()):
        ch = next(ch for ch in text if not " " <= ch <= "~")
        raise NonAsciiName(f"{what} {text!r} contains non-printable byte {ord(ch):#04x}")


def _remembered(memo: dict, key: int, compute, *args):
    """``compute(*args)``, run once per ``key``; a refusal is remembered as
    its type and message and raised afresh on each lookup, so threads never
    share one exception.  Threads that miss together store equal results."""
    if key not in memo:
        try:
            memo[key] = compute(*args)
        except MiniFsError as exc:
            memo[key] = (type(exc), str(exc))
    found = memo[key]
    if type(found) is tuple:
        raise found[0](found[1])
    return found


def _string_at(table: NameTable, offset: int) -> str:
    return _remembered(table._strings, offset, name_at, table, offset)


def _decode_strings(table: NameTable, offsets: set[int]) -> dict:
    """Remember the string at each in-pool offset of ``offsets``; return the memo.

    A pool of printable ASCII and NULs is checked in one pass; any other
    string goes through :func:`name_at`, and a refusal is remembered.
    """
    memo, pool = table._strings, table.pool
    text = "" if pool.translate(None, _PRINTABLE_OR_NUL) else pool.decode("ascii")
    for offset in offsets - memo.keys():
        end = text.find("\0", offset)
        if end >= 0:
            memo[offset] = text[offset:end]
        elif offset < len(pool):
            with suppress(MiniFsError):
                _string_at(table, offset)
    return memo


def _index_pairs(table: NameTable, records: list[FileRecord]) -> dict[tuple, list[int]]:
    """(directory string, file name) → record indices, read from what
    :func:`validate_layout` left in the memo.  A refusal (a tuple) or an
    offset outside the pool (None) in a key matches no pair of strings."""
    strings = table._strings
    by_pair: dict[tuple, list[int]] = {}
    for index, rec in enumerate(records):
        key = strings.get(rec.path_offset), strings.get(rec.name_offset)
        by_pair.setdefault(key, []).append(index)
    return by_pair


def _check_pair(table: NameTable, directory: str, name: str) -> None:
    """The whole path rule for a directory string and a file name; each
    directory string is checked once per table, refusals remembered."""
    check_name(name)
    _remembered(table._directories, directory, check_directory, directory)


def full_path(table: NameTable, record: FileRecord) -> str:
    """Join a record's directory string and file name into one path.

    An empty directory string means the file sits in the root and the
    name is returned alone.  The pair must pass the path rule, so nothing
    joined here can climb out of an extraction root.  Each offset is
    decoded, and each directory checked, once per table.
    """
    directory = _string_at(table, record.path_offset)
    name = _string_at(table, record.name_offset)
    _check_pair(table, directory, name)
    return f"{directory}/{name}" if directory else name


def tables_end(data: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Where the name pool and file table of the header at each base end.

    The vector form of the ``chunk_table_start`` of :func:`parse_instance`,
    read straight from the ``file_count`` and ``name_table_size`` words of
    the headers at ``bases`` (int64) in the uint8 array ``data``.  Every
    header must lie inside ``data``.  An end past the dump is the
    TruncatedImage (or ArithmeticOverflow) :func:`parse_instance` raises
    before it reads a table.
    """
    def word(at: int) -> np.ndarray:
        return data[(bases + at)[:, None] + _WORD_BYTES].view(">u4")[:, 0].astype(np.int64)

    return (bases + HEADER_SIZE + word(_NAME_TABLE_SIZE_OFFSET)
            + FILE_RECORD_SIZE * word(_FILE_COUNT_OFFSET))


def parse_instance(
    dump: Dump, base: int = 0
) -> tuple[MiniFsHeader, FsLayout, NameTable, list[FileRecord], list[ChunkRecord]]:
    """Parse the header, name pool and both tables of the instance at ``base``.

    Checks only that every region lies inside ``dump``; the cross-checks
    are :func:`validate_layout`'s job.  Raises BadMagic, TruncatedImage
    or ArithmeticOverflow when the bytes cannot hold an instance, and
    only MiniFsError subclasses in every other case.
    """
    header = _header_at(dump, base)
    layout = _layout_at(dump, header, base)
    names = NameTable(dump[layout.names_start:layout.files_start])
    files = _FILE_RECORD.iter_unpack(dump[layout.files_start:layout.chunk_table_start])
    chunks = _CHUNK_RECORD.iter_unpack(dump[layout.chunk_table_start:layout.data_start])
    return (header, layout, names, list(map(FileRecord._make, files)),
            list(map(ChunkRecord._make, chunks)))


def _layout_at(dump: Dump, header: MiniFsHeader, base: int) -> FsLayout:
    """The five regions of the instance at ``base``, in O(1), with the chunk
    count read from the last file record.  The end of the file table, then
    that of the chunk table, raises ArithmeticOverflow if it lies beyond
    32-bit addressing from ``base``, else TruncatedImage if past ``dump``."""
    names_start = base + HEADER_SIZE
    files_start = names_start + header.name_table_size
    chunk_table_start = files_start + FILE_RECORD_SIZE * header.file_count
    _check_end(chunk_table_start, base, len(dump), "name pool or file table")
    chunk_count = 0
    if header.file_count:
        chunk_count = _FILE_RECORD.unpack_from(dump, chunk_table_start - FILE_RECORD_SIZE)[2] + 1
    data_start = chunk_table_start + CHUNK_RECORD_SIZE * chunk_count
    _check_end(data_start, base, len(dump), "chunk table")
    return FsLayout(base, names_start, files_start, chunk_table_start, data_start, chunk_count)


def _check_end(end: int, base: int, size: int, what: str) -> None:
    if end - base > _U32_MAX:
        raise ArithmeticOverflow(
            f"table regions span {end - base} bytes from base, beyond 32-bit addressing")
    if end > size:
        raise TruncatedImage(f"{what} extends past the {size}-byte dump")


def screen_instance(dump: Dump, base: int) -> tuple[FsLayout, Violation | None]:
    """The layout of the instance at ``base`` and the first violation a few O(1) reads find.

    Reads the header's count words, the first and last file records and
    chunk 0's record, and raises what :func:`parse_instance` raises when
    the header or a table does not fit.  A violation found here is one
    :func:`validate_layout` reports, so the instance is certainly
    unclean; None proves nothing.
    """
    header = _header_at(dump, base)
    layout = _layout_at(dump, header, base)
    return layout, next(_screen(dump, header, layout), None)


def _screen(dump: Dump, header: MiniFsHeader, layout: FsLayout) -> Iterator[Violation]:
    """The O(1) violations: first and last file records, then chunk 0, found lazily."""
    if not header.file_count:
        return
    pool = header.name_table_size
    for index in (0, header.file_count - 1):
        path_offset, name_offset, chunk_index, _, _ = _FILE_RECORD.unpack_from(
            dump, layout.files_start + FILE_RECORD_SIZE * index)
        for what, off in (("path", path_offset), ("name", name_offset)):
            if off >= pool:
                yield _outside_pool(what, off, pool, index)
        if chunk_index >= layout.chunk_count:  # never the last record: it sets the count
            yield _chunk_index(chunk_index, layout.chunk_count, index)
    chunk = ChunkRecord._make(_CHUNK_RECORD.unpack_from(dump, layout.chunk_table_start))
    yield from _chunk_violations(chunk, layout.data_start, len(dump), 0)


def _outside_pool(what: str, offset: int, pool_size: int, index: int) -> Violation:
    return Violation("name-offset", f"{what} offset {offset} outside {pool_size}-byte pool", index)


def _chunk_index(chunk_index: int, chunk_count: int, index: int) -> Violation:
    return Violation("chunk-index", f"chunk index {chunk_index} with only {chunk_count} chunks",
                     index)


def _chunk_violations(
    chunk: ChunkRecord, data_start: int, image_length: int, index: int
) -> Iterator[Violation]:
    if chunk.compressed_size < STREAM_HEADER_SIZE:
        yield Violation("chunk-size", f"compressed size {chunk.compressed_size} below the "
                        f"{STREAM_HEADER_SIZE}-byte LZMA stream header", index)
    if chunk.decompressed_size > DEFAULT_OUTPUT_LIMIT:
        yield Violation("chunk-size", f"decompressed size {chunk.decompressed_size} above the "
                        f"{DEFAULT_OUTPUT_LIMIT}-byte decoder limit", index)
    end = data_start + chunk.data_offset + chunk.compressed_size
    if end > image_length:
        yield Violation("chunk-bounds", f"chunk data ends at {end} but image is {image_length} bytes",
                        index)


def validate_layout(
    layout: FsLayout,
    names: NameTable,
    records: list[FileRecord],
    chunks: list[ChunkRecord],
    image_length: int,
) -> list[Violation]:
    """Cross-check parsed structures and report every broken invariant.

    Precondition: the arguments are what :func:`parse_instance` returned
    for a dump of ``image_length`` bytes, so the regions up to
    ``layout.data_start`` already lie inside the dump and ``chunks``
    holds ``layout.chunk_count`` records; those bounds are not checked
    again here.

    Returns an empty list for a well-formed instance.  Violations are
    data, not failures: callers decide whether to stop (default) or to
    continue best-effort (force mode).  Each distinct in-pool offset the
    records name is decoded into ``names`` first, and the result is
    remembered, refusals included, for the lookups and path joins that
    follow; path *safety* is checked when paths are joined
    (:func:`full_path`).
    """
    violations: list[Violation] = []
    add = violations.append

    pool_size = len(names)
    offsets = {*map(itemgetter(0), records), *map(itemgetter(1), records)}
    strings = _decode_strings(names, offsets)
    bad = {off for off in offsets if type(strings.get(off)) is not str}
    for i, (path_offset, name_offset, chunk_index, start, size) in enumerate(records):
        if path_offset in bad or name_offset in bad:
            for what, off in (("path", path_offset), ("name", name_offset)):
                if off >= pool_size:
                    add(_outside_pool(what, off, pool_size, i))
                elif off in bad:  # a remembered refusal
                    add(Violation("bad-name", f"{what} string: {strings[off][1]}", index=i))
        if chunk_index >= len(chunks):
            add(_chunk_index(chunk_index, len(chunks), i))
        elif start + size > chunks[chunk_index].decompressed_size:
            add(Violation(
                "file-span",
                f"offset {start} + size {size} exceeds "
                f"{chunks[chunk_index].decompressed_size}-byte chunk {chunk_index}",
                index=i,
            ))

    for i, chunk in enumerate(chunks):
        violations.extend(_chunk_violations(chunk, layout.data_start, image_length, i))

    if records:
        last = records[-1].chunk_index
        highest = max(rec.chunk_index for rec in records)
        if highest != last:
            add(Violation(
                "chunk-inference",
                f"last record names chunk {last} but chunk {highest} is referenced earlier",
            ))

    return violations
