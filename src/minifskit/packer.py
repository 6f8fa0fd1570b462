"""Building MiniFS v2 images from file trees.

The inverse of extraction: a directory (or an in-memory entry list)
becomes header + name pool + file table + chunk table + compressed
chunks.  Emitted images always parse back with zero validation
violations, which is what makes round-trip testing and fixture
generation possible without any vendor dump.

The original tooling's grouping policy is unknown; files are packed
first-fit in entry order, starting a new chunk whenever the next file
would push the decompressed size over the cap.  The default cap sits
near the chunk sizes observed in real images.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .codec import DEFAULT_OUTPUT_LIMIT, _map_in_order, compress_chunk
from .errors import ArithmeticOverflow, FileTooLarge, NamePoolTooLarge, UnsafePath
from .structs import ChunkRecord, FileRecord, MiniFsHeader, check_directory, check_lengths, check_name

DEFAULT_CHUNK_CAP = 0x60000

_U32_MAX = 0xFFFF_FFFF


@dataclass
class PackOptions:
    """Knobs for image emission.

    ``unknown_b=None`` writes zero, or the first file's size when
    ``mimic_vendor`` is set (real headers have been seen carrying that
    value there).  The ten reserved header bytes are always zero.
    """

    max_chunk_decompressed: int = DEFAULT_CHUNK_CAP
    sort_entries: bool = True
    mimic_vendor: bool = False
    unknown_a: int = 0
    unknown_b: int | None = None


def split_entry_path(path: str) -> tuple[str, str]:
    """Split a relative POSIX path into (directory, file name) for :func:`build_name_pool`."""
    if path.startswith("/"):
        raise UnsafePath(f"absolute path {path!r}")
    directory, _, name = path.rpartition("/")
    return directory, name


def build_name_pool(
    paths: Iterable[tuple[str, str]],
    *,
    limit: int = _U32_MAX,
) -> tuple[bytes, list[tuple[int, int]]]:
    """Lay out the NUL-delimited string pool for (directory, name) pairs.

    Each distinct string is stored once: directory strings first in
    first-use order, then file names, matching the layout seen in real
    images.  Each pair's lengths and each distinct string are checked once
    against the path rule extraction enforces, so a packed image can always
    be extracted.  Returns the pool plus per-entry (path_offset, name_offset).
    """
    offsets: dict[str, int] = {}
    pieces: list[bytes] = []
    size = 0

    def intern(text: str) -> int:
        nonlocal size
        if text in offsets:
            return offsets[text]
        encoded = text.encode("ascii") + b"\x00"
        if size + len(encoded) > limit:
            raise NamePoolTooLarge(f"name pool would exceed {limit} bytes at string {text!r}")
        offsets[text] = size
        pieces.append(encoded)
        size += len(encoded)
        return offsets[text]

    directories: dict[str, int] = {}
    names: set[str] = set()
    pending = []
    for directory, name in paths:
        check_lengths(len(directory), len(name))
        if name not in names:
            check_name(name)
            names.add(name)
        if directory not in directories:
            check_directory(directory)
            directories[directory] = intern(directory)
        pending.append((directories[directory], name))
    pairs = [(path_offset, intern(name)) for path_offset, name in pending]
    return b"".join(pieces), pairs


def plan_chunks(sizes: Sequence[int], max_chunk_decompressed: int) -> list[range]:
    """Group entries into chunks, first-fit in order: one range of entry indices per chunk.

    A new chunk starts whenever adding the next file would exceed the
    cap, so the last entry always lands in the highest-numbered chunk —
    which is what keeps the format's chunk count inference rule true.
    """
    if not 0 < max_chunk_decompressed <= DEFAULT_OUTPUT_LIMIT:
        raise ValueError(f"chunk cap must be 1..{DEFAULT_OUTPUT_LIMIT}, got {max_chunk_decompressed}")
    chunks = []
    start = filled = 0
    for i, size in enumerate(sizes):
        if size > max_chunk_decompressed:
            raise FileTooLarge(
                f"entry {i} is {size} bytes, above the {max_chunk_decompressed}-byte chunk cap"
            )
        if i > start and filled + size > max_chunk_decompressed:
            chunks.append(range(start, i))
            start, filled = i, 0
        filled += size
    if sizes:
        chunks.append(range(start, len(sizes)))
    return chunks


def _collect_tree(tree: str | os.PathLike) -> list[tuple[str, bytes]]:
    root = Path(tree)
    if not root.is_dir():
        raise NotADirectoryError(f"{root} is not a directory")
    entries = []
    for path in sorted(root.rglob("*")):
        if path.is_file() and not path.is_symlink():
            entries.append((path.relative_to(root).as_posix(), path.read_bytes()))
    return entries


def pack(
    tree: str | os.PathLike | Sequence[tuple[str, bytes]],
    options: PackOptions | None = None,
) -> bytes:
    """Build a complete image from a directory or (path, bytes) pairs.

    Entries are ordered lexicographically by path unless
    ``options.sort_entries`` is off.  The result satisfies ``open_view``
    with zero violations; an empty tree packs to the bare 32-byte
    header.  Each chunk's files are joined where it is compressed, on
    :func:`codec._map_in_order`'s threads, so beside the entries at most
    64 MiB of joined chunks (a larger chunk alone) is held at once; the
    image does not depend on the thread count.
    """
    opts = options or PackOptions()
    if isinstance(tree, (str, os.PathLike)):
        entries = _collect_tree(tree)
    else:
        entries = [(path, bytes(content)) for path, content in tree]
    if opts.sort_entries:
        entries.sort(key=lambda e: e[0])

    # Split lazily, so that entries are refused in order, whichever rule they break.
    pool, name_offsets = build_name_pool(split_entry_path(path) for path, _ in entries)
    sizes = [len(content) for _, content in entries]
    chunks = plan_chunks(sizes, opts.max_chunk_decompressed)

    def join_and_compress(chunk: range) -> bytes:
        return compress_chunk(b"".join(entries[i][1] for i in chunk))

    compressed = list(_map_in_order(join_and_compress, chunks,
                                    size=lambda chunk: sum(sizes[i] for i in chunk)))

    file_records, chunk_records = [], []
    data_offset = 0
    for index, (chunk, blob) in enumerate(zip(chunks, compressed)):
        offset = 0
        for i in chunk:
            file_records.append(FileRecord(*name_offsets[i], index, offset, sizes[i]))
            offset += sizes[i]
        chunk_records.append(ChunkRecord(data_offset, len(blob), offset))
        data_offset += len(blob)
    if data_offset > _U32_MAX:
        raise ArithmeticOverflow(f"chunk data region of {data_offset} bytes exceeds 32-bit offsets")

    unknown_b = opts.unknown_b
    if unknown_b is None:
        unknown_b = len(entries[0][1]) if (opts.mimic_vendor and entries) else 0
    header = MiniFsHeader(
        file_count=len(entries),
        name_table_size=len(pool),
        unknown_a=opts.unknown_a,
        unknown_b=unknown_b,
    )

    return b"".join([
        header.encode(),
        pool,
        b"".join(r.encode() for r in file_records),
        b"".join(r.encode() for r in chunk_records),
        b"".join(compressed),
    ])
