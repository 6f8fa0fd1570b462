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
dump, unpacks the header, keeps the name pool as ``bytes`` and reads
each table as one array of 32-bit words (:class:`RecordTable`).
:func:`validate_layout` cross-checks what it returns with array
operations, copying no string; :func:`screen_instance` finds some of
those violations in O(1) with the decoder's own header checks and region
arithmetic.  :func:`join_paths` names the records from the same arrays,
and a :class:`PathIndex`, built the same way, finds the records that
join to a path.  These two read the strings at the records' offsets
with one scan of the pool (:func:`_strings`); validation needs that
scan only for a pool holding a byte that is neither NUL nor printable
ASCII, or one that does not end in a NUL.

Everything in this module is a pure function over immutable inputs; only
a :class:`PathIndex` remembers the records it found for a path.  A dump
is ``bytes`` or a read-only ``mmap`` of a dump file (:data:`Dump`).
"""

from __future__ import annotations

import mmap
import struct
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
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

# Linux's limits on one file name and on a path: extraction could not create longer ones.
NAME_MAX = 255
PATH_MAX = 4096

# What decoding refuses in the string at an offset, in the order it is checked.
_GOOD, _OUTSIDE, _UNTERMINATED, _UNPRINTABLE = range(4)

# The bytes a name pool holds when decoding refuses no string inside it.
_NUL_AND_PRINTABLE = bytes([0, *range(0x20, 0x7F)])

# A path's lookup key is its polynomial hash in base 256 modulo the
# Mersenne prime 2**31 - 1, which is int.from_bytes(path, "little")
# modulo it.  There 256**k is 2**(8k mod 31), and every product of two
# reduced values fits a uint64.
_PRIME = (1 << 31) - 1
_POWERS = np.array([1 << (8 * j % 31) for j in range(31)], np.uint32)  # 256**j, by j mod 31

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


class RecordTable(Sequence):
    """A file or chunk table, read-only: ``array`` holds its big-endian
    32-bit words, one row per record, over the table's own bytes ``raw``.

    Indexing builds the ``record`` tuple of one row; iterating builds all.
    """

    __slots__ = ("record", "raw", "array", "_row", "_count")

    def __init__(self, record: type[FileRecord] | type[ChunkRecord], raw: bytes) -> None:
        self.record, self.raw = record, raw
        self.array = np.frombuffer(raw, ">u4").reshape(-1, len(record._fields))
        self._row = struct.Struct(">" + "I" * len(record._fields))
        self._count = len(self.array)  # a read by index or path then makes no NumPy call

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int):
        if not -self._count <= index < self._count:
            raise IndexError(f"record {index} outside a table of {self._count}")
        row = self._row.unpack_from(self.raw, self._row.size * (index % self._count))
        return tuple.__new__(self.record, row)  # as record._make does, without its Python frame

    def __iter__(self):
        return map(self.record._make, self.array.tolist())

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self.array if dtype is None else self.array.astype(dtype)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecordTable):
            return NotImplemented
        return self.record is other.record and self.raw == other.raw

    __hash__ = None


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


def _string_error(pool: bytes, offset: int, stop: int, fault: int) -> MiniFsError:
    """What decoding raises for the string at ``offset``; ``stop`` is its unprintable byte."""
    if fault == _OUTSIDE:
        return OffsetOutOfRange(f"name offset {offset} outside pool of {len(pool)} bytes")
    if fault == _UNTERMINATED:
        return UnterminatedString(f"no NUL terminator after offset {offset}")
    return NonAsciiName(f"byte {pool[stop]:#04x} at pool offset {stop} is not printable ASCII")


def _strings(pool: bytes, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per offset (int64, any shape): where its string ends, its stop, and
    what decoding refuses in it (``_GOOD``: nothing).

    The end is the first NUL at or after the offset, the stop the first
    byte there that is NUL or not printable ASCII; each is the pool's
    length when there is none.  Refused, in this order: an offset outside
    the pool, a string that ends at the pool's end, a stop before the end
    (the byte decoding names).  One scan finds those bytes and counts,
    per pool position, how many lie before it; that count, gathered at
    each offset, indexes the first one at or after it.  No offset is
    sorted and no string is copied.
    """
    data = np.frombuffer(pool, np.uint8)
    special = np.append(np.flatnonzero((data < 0x20) | (data > 0x7E)), len(data))
    nul = np.append(data[special[:-1]] == 0, True)  # the pool's end ends a string too
    next_nul = special[nul][np.cumsum(nul) - nul]  # per such byte, the first NUL at or after it
    # Per pool position (and the pool's end), how many such bytes lie before it.
    before = np.repeat(np.arange(len(special), dtype=np.uint32), np.diff(special, prepend=-1))
    first = before[np.clip(offsets, 0, len(data))]
    ends, stops = next_nul[first], special[first]
    return ends, stops, np.select([(offsets < 0) | (offsets >= len(data)), ends == len(data), stops < ends],
                                  [_OUTSIDE, _UNTERMINATED, _UNPRINTABLE], _GOOD)


def check_lengths(directory_length: int, name_length: int) -> None:
    """The path rule's first part: a name of at most NAME_MAX bytes, then
    ``directory/name`` of at most PATH_MAX.  Raises UnsafePath."""
    if name_length > NAME_MAX:
        raise UnsafePath(f"file name of {name_length} bytes is longer than NAME_MAX ({NAME_MAX})")
    length = directory_length + 1 + name_length if directory_length else name_length
    if length > PATH_MAX:
        raise UnsafePath(f"joined path of {length} bytes is longer than PATH_MAX ({PATH_MAX})")


def check_name(name: str) -> None:
    """The file-name part of the path rule: non-empty, no separator, not
    ``.`` or ``..``, printable ASCII.  Raises UnsafePath, or NonAsciiName."""
    if not name:
        raise UnsafePath("empty file name")
    if "/" in name:
        raise UnsafePath(f"file name {name!r} contains a path separator")
    if name in (".", ".."):
        raise UnsafePath(f"file name is {name!r}")
    _check_printable("file name", name)


def check_directory(directory: str) -> None:
    """The directory part of the path rule: printable ASCII, not absolute,
    no empty, ``.`` or ``..`` component, none longer than NAME_MAX; the
    empty string is the root.  An empty or ``.`` component would let two
    joined paths name one file."""
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
    longest = max(map(len, directory.split("/")))
    if longest > NAME_MAX:
        raise UnsafePath(f"directory component of {longest} bytes is longer than NAME_MAX ({NAME_MAX})")


def check_path(directory: str, name: str) -> None:
    """The one path rule of reading and packing, lengths first, so no refusal quotes a long string."""
    check_lengths(len(directory), len(name))
    check_name(name)
    check_directory(directory)


def _check_printable(what: str, text: str) -> None:
    if not (text.isascii() and text.isprintable()):
        ch = next(ch for ch in text if not " " <= ch <= "~")
        raise NonAsciiName(f"{what} {text!r} contains non-printable byte {ord(ch):#04x}")


def _refusal(check, *args) -> tuple[type[MiniFsError], str] | None:
    """None if ``check(*args)`` passes, else the type and message of its refusal."""
    try:
        check(*args)
    except MiniFsError as exc:
        return type(exc), str(exc)
    return None


def join_paths(pool: bytes, files: Sequence[FileRecord]) -> list[str | tuple[type[MiniFsError], str]]:
    """Per record, its directory string and file name joined into one path
    (the name alone at the root), or its refusal's type and message.

    Decoding refuses first, the directory string before the name, then
    the path rule (:func:`check_path`), whose lengths are read from the
    string ends before any string is copied.  Each distinct string that
    passes is decoded once and each distinct directory checked once.
    """
    offsets = np.asarray(files, np.int64).reshape(-1, 5)[:, :2]
    ends, stops, faults = _strings(pool, offsets)
    lengths = ends - offsets  # directory string, file name
    refused = ((faults != _GOOD).any(axis=1) | (lengths[:, 1] > NAME_MAX)
               | (lengths.sum(axis=1) + (lengths[:, 0] > 0) > PATH_MAX))
    refusals = {}
    for i in np.flatnonzero(refused).tolist():
        bad = [(offset, stop, fault) for offset, stop, fault
               in zip(offsets[i].tolist(), stops[i].tolist(), faults[i].tolist()) if fault != _GOOD]
        error = _string_error(pool, *bad[0]) if bad else None
        refusals[i] = (type(error), str(error)) if error else _refusal(check_lengths, *lengths[i].tolist())
    kept = ~refused
    spans = dict(zip(offsets[kept].ravel().tolist(), ends[kept].ravel().tolist()))
    strings = {start: pool[start:end].decode("ascii") for start, end in spans.items()}

    checked: dict[str, tuple[type[MiniFsError], str] | None] = {}  # directory -> its refusal
    paths: list[str | tuple[type[MiniFsError], str]] = []
    for i, (path_offset, name_offset) in enumerate(offsets.tolist()):
        refusal = refusals.get(i)
        if refusal is None:
            directory, name = strings[path_offset], strings[name_offset]
            refusal = _refusal(check_name, name)
            if refusal is None and directory not in checked:
                checked[directory] = _refusal(check_directory, directory)
        paths.append(refusal or checked[directory] or (f"{directory}/{name}" if directory else name))
    return paths


def _string_key(text: bytes) -> int:
    return int.from_bytes(text, "little") % _PRIME


def _path_keys(pool: bytes, offsets: np.ndarray) -> np.ndarray:
    """Per record, :func:`_string_key` of the path :func:`join_paths` would join.

    ``offsets`` holds each record's directory-string and file-name
    offsets (int64); each string runs to the next NUL or the pool's end.
    One prefix sum over the pool gives every string's key, and the two
    combine as the bytes of ``directory/name`` (the name alone at the
    root) would.
    """
    data = np.frombuffer(pool, np.uint8)
    starts = np.minimum(offsets, len(data))
    ends = _strings(pool, offsets)[0]
    prefix = np.zeros(len(data) + 1, np.uint64)  # in place: each pool-length buffer costs its page faults
    terms = prefix[1:]
    np.multiply(data, np.tile(_POWERS, len(data) // 31 + 1)[:len(data)], out=terms, dtype=np.uint64)
    terms %= _PRIME  # so that the sum stays below 2**64 for any pool under 4 GiB
    np.cumsum(terms, out=terms)
    directory, name = ((prefix[ends] - prefix[starts]) % _PRIME * _POWERS[-starts % 31] % _PRIME).T
    length = (ends - starts)[:, 0]
    joined = (directory + _POWERS[length % 31] * ((ord("/") + 256 * name) % _PRIME)) % _PRIME
    return np.where(length > 0, joined, name).astype(np.int64)


class PathIndex:
    """The records whose directory string and file name join to a path.

    Built with array operations: the records ordered by the key
    (:func:`_string_key`) of the path each would join.  A lookup hashes
    the path, keeps the records with its key whose two strings' bytes
    match its halves, and applies the path rule to that pair.  A path
    that some record matches remembers its answer, so the rule runs once
    per path.
    """

    def __init__(self, pool: bytes, files: Sequence[FileRecord]) -> None:
        offsets = np.asarray(files, np.int64).reshape(-1, 5)[:, :2]
        keys = _path_keys(pool, offsets)
        order = np.argsort(keys, kind="stable")  # equal keys keep table order
        self._pool = pool
        # Memoryviews over the sorted columns: a lookup makes no NumPy call.
        self._keys, self._records, self._path_offsets, self._name_offsets = (
            memoryview(np.ascontiguousarray(column))
            for column in (keys[order], order, *offsets[order].T))
        self._found: dict[str, list[int]] = {}  # path -> its matches, once some record's bytes match

    def find(self, path: str) -> list[int]:
        """Indices, in table order, of the records that join to ``path`` as :func:`join_paths` does."""
        found = self._found.get(path)
        if found is not None:
            return found
        directory, sep, name = path.rpartition("/")
        if (sep and not directory) or not path.isascii():
            return []  # "/name" is no record's join; the rule refuses other non-ASCII paths
        keys, key = self._keys, _string_key(path.encode())
        pool, wanted_directory, wanted_name = (
            self._pool, directory.encode() + b"\x00", name.encode() + b"\x00")
        found, k = [], bisect_left(keys, key)
        while k < len(keys) and keys[k] == key:
            if (pool.startswith(wanted_directory, self._path_offsets[k])
                    and pool.startswith(wanted_name, self._name_offsets[k])):
                found.append(self._records[k])
            k += 1
        if found:
            try:
                check_path(directory, name)
            except MiniFsError:
                found = []
            self._found[path] = found
        return found


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
) -> tuple[MiniFsHeader, FsLayout, bytes, RecordTable, RecordTable]:
    """Parse the header, name pool (``bytes``) and both tables of the instance at ``base``.

    Checks only that every region lies inside ``dump``; the cross-checks
    are :func:`validate_layout`'s job.  Raises BadMagic, TruncatedImage
    or ArithmeticOverflow when the bytes cannot hold an instance, and
    only MiniFsError subclasses in every other case.
    """
    header = _header_at(dump, base)
    layout = _layout_at(dump, header, base)
    return (header, layout, dump[layout.names_start:layout.files_start],
            RecordTable(FileRecord, dump[layout.files_start:layout.chunk_table_start]),
            RecordTable(ChunkRecord, dump[layout.chunk_table_start:layout.data_start]))


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
    pool: bytes,
    records: Sequence[FileRecord],
    chunks: Sequence[ChunkRecord],
    image_length: int,
) -> list[Violation]:
    """Cross-check parsed structures and report every broken invariant.

    Precondition: the arguments are what :func:`parse_instance` returned
    for a dump of ``image_length`` bytes, so the regions up to
    ``layout.data_start`` already lie inside the dump and ``chunks``
    holds ``layout.chunk_count`` records; those bounds are not checked
    again here.  Lists of records are accepted as well as tables.

    Returns an empty list for a well-formed instance.  Violations are
    data, not failures: callers decide whether to stop (default) or to
    continue best-effort (force mode).  Every check runs over whole
    columns, and a :class:`Violation` is built only for a flagged record
    or chunk, in table order.  No string is decoded; path *safety* is
    checked when paths are joined (:func:`join_paths`).  A pool of
    printable ASCII strings that ends in a NUL can refuse only an offset
    outside it, so the pool is scanned for each string's fault
    (:func:`_strings`) only when it holds another byte or ends otherwise.
    """
    files = np.asarray(records, np.int64).reshape(-1, 5)
    table = np.asarray(chunks, np.int64).reshape(-1, 3)
    count = len(table)
    offsets = files[:, :2]
    if pool.endswith(b"\x00") and not pool.translate(None, _NUL_AND_PRINTABLE):
        # Every string inside such a pool is good, so the pool is not scanned
        # here, and a view's joined paths or lookup scan it once.
        fault, stop = np.where(offsets >= len(pool), _OUTSIDE, _GOOD), offsets  # no stop is read
    else:
        _, stop, fault = _strings(pool, offsets)
    chunk_index = files[:, 2]
    missing = chunk_index >= count
    overrun = ~missing & (files[:, 3] + files[:, 4]
                          > np.append(table[:, 2], 0)[np.minimum(chunk_index, count)])

    violations: list[Violation] = []
    add = violations.append
    for i in np.flatnonzero((fault != _GOOD).any(axis=1) | missing | overrun).tolist():
        path_offset, name_offset, index, start, size = files[i].tolist()
        for what, off, code, at in zip(("path", "name"), (path_offset, name_offset),
                                       fault[i].tolist(), stop[i].tolist()):
            if code == _OUTSIDE:
                add(_outside_pool(what, off, len(pool), i))
            elif code != _GOOD:
                add(Violation("bad-name", f"{what} string: {_string_error(pool, off, at, code)}", index=i))
        if missing[i]:
            add(_chunk_index(index, count, i))
        elif overrun[i]:
            size_limit = int(table[index, 2])
            add(Violation("file-span", f"offset {start} + size {size} exceeds "
                          f"{size_limit}-byte chunk {index}", index=i))

    ends = layout.data_start + table[:, 0] + table[:, 1]
    flagged = ((table[:, 1] < STREAM_HEADER_SIZE) | (table[:, 2] > DEFAULT_OUTPUT_LIMIT)
               | (ends > image_length))
    for i in np.flatnonzero(flagged).tolist():
        violations.extend(_chunk_violations(ChunkRecord._make(table[i].tolist()),
                                            layout.data_start, image_length, i))

    if len(files):
        last, highest = int(chunk_index[-1]), int(chunk_index.max())
        if highest != last:
            add(Violation(
                "chunk-inference",
                f"last record names chunk {last} but chunk {highest} is referenced earlier",
            ))

    return violations
