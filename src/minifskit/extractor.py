"""Opening, listing, reading and materializing MiniFS instances.

The flow mirrors how the format is meant to be consumed: parse the
header, the name pool and both tables, then pull individual files out of
their decompressed chunks.  A chunk holds several files, so a view keeps
one store of chunk decodes, at most 64 MiB of their declared sizes, each
counted as at least 64 KiB; the chunks stored first are dropped until a
new one fits, and a larger chunk is kept alone.  A read decodes only its
own chunk, up to its file's end, and a later read resumes there.  An
unfinished entry holds its decoded prefix, its LZMA dictionary (about
that prefix again) and ~37 KB of decoder state, and reads its compressed
bytes straight from the dump.  So a chunk is decoded once per view while
the store keeps it, unless its decode fails: a failed decode is dropped,
and the next read starts afresh.  A file that ends before its chunk's
damage therefore reads.  Extraction instead decodes each chunk whole,
once, writes its files and drops it, outside that store, and ``minifs
verify`` decodes the same way.  Such decodes run on one thread per
available CPU, never more threads than chunks, with at most 64 MiB of
declared chunk bytes in flight plus each running decoder's dictionary.

Opening a view keeps the name pool as ``bytes`` and both tables as
arrays (:class:`structs.RecordTable`), and validates them with array
operations, building no per-record object.  Paths are joined once per
view, on the first listing or extraction, from the same arrays
(:func:`structs.join_paths`).  Extraction orders its writes by chunk,
then by offset in the chunk, with one stable ``np.lexsort`` of the
table's columns, so records that tie keep table order.  A lookup by path
joins no path: the view's first one builds a :class:`structs.PathIndex`
from the arrays, and each one hashes the path, compares the bytes of the
records with its key and applies the path rule, once per path that some
record matches.

Whether to go on past table violations is decided once, when the view
is opened (``force``); after that each damaged record fails alone, in a
read and in extraction, and the other records are read and written.
"""

from __future__ import annotations

import errno
import logging
import os
import stat
import threading
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import codec, structs
from .codec import Version, _map_in_order, check_config_word, decompress_chunk
from .errors import (
    MiniFsError,
    NotFound,
    AmbiguousPath,
    OffsetOutOfRange,
    TruncatedImage,
    TruncatedTable,
    UnsafePath,
    ValidationFailed,
)

_log = logging.getLogger(__name__)
_ENTRY_FLOOR = 1 << 16  # the least a stored chunk counts against its view's store


@dataclass
class MiniFsView:
    """A parsed instance inside (or equal to) a dump.

    ``violations`` is empty unless the view was opened in force mode.
    ``names`` is the name pool's bytes.  ``source`` is the whole dump,
    ``bytes`` or a read-only ``mmap`` (:data:`structs.Dump`).  Decoders
    read compressed chunks from ``source`` in place; only
    :meth:`compressed_chunk` copies one out.
    """

    source: structs.Dump
    header: structs.MiniFsHeader
    layout: structs.FsLayout
    names: bytes
    files: structs.RecordTable
    chunks: structs.RecordTable
    violations: list[structs.Violation] = field(default_factory=list)
    _chunks: dict[int, codec.ChunkDecoder] = field(default_factory=dict, repr=False, compare=False)
    _stored: int = field(default=0, repr=False, compare=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    @property
    def base(self) -> int:
        return self.layout.base

    def chunk_data(self, index: int) -> bytes:
        """Decompressed content of chunk ``index``, from the view's store.

        Resumes the chunk's stored decode where a read left it; a
        finished chunk is not decoded again while the store keeps it.
        """
        return self._chunk_bytes(index, 0, None)

    def _chunk_bytes(self, index: int, start: int, end: int | None) -> bytes:
        """Bytes ``start``..``end`` of chunk ``index`` (None: its end), decoded no further than ``end``."""
        decoder = self._decoder(index)
        try:
            return decoder.decode_to(decoder.expected_size if end is None else end, start)
        except MiniFsError:
            with self._lock:  # dropped: the next read decodes afresh, so no read depends on another
                if self._chunks.get(index) is decoder:
                    self._stored -= _charge(self._chunks.pop(index))
            raise

    def _decoder(self, index: int) -> codec.ChunkDecoder:
        """Chunk ``index``'s stored decoder, built and stored on the first read.

        The store keeps at most DEFAULT_OUTPUT_LIMIT of :func:`_charge`:
        the entries stored first are dropped until a new chunk fits, and a
        larger chunk is kept alone.  A thread that holds a dropped
        decoder still finishes its read.  Neither the view's lock nor a
        decoder's is taken while the other is held.
        """
        with self._lock:
            decoder = self._chunks.get(index)
            if decoder is None:
                decoder = codec.ChunkDecoder(*self._compressed(index))
                while self._chunks and self._stored + _charge(decoder) > codec.DEFAULT_OUTPUT_LIMIT:
                    self._stored -= _charge(self._chunks.pop(next(iter(self._chunks))))
                self._chunks[index] = decoder
                self._stored += _charge(decoder)
            return decoder

    def compressed_chunk(self, index: int) -> tuple[bytes, int]:
        """Raw compressed bytes of chunk ``index`` plus its expected size."""
        chunk, size = self._compressed(index)
        return bytes(chunk), size

    def _compressed(self, index: int) -> tuple[memoryview, int]:
        """:meth:`compressed_chunk`, as a view of ``source`` instead of a copy."""
        if not 0 <= index < len(self.chunks):
            raise NotFound(f"no chunk {index} (table holds {len(self.chunks)})")
        rec = self.chunks[index]
        start = self.layout.data_start + rec.data_offset
        end = start + rec.compressed_size
        if end > len(self.source):
            raise TruncatedImage(
                f"chunk {index} data ends at {end} but dump is {len(self.source)} bytes"
            )
        return memoryview(self.source)[start:end], rec.decompressed_size

    @cached_property
    def version(self) -> Version:
        """Chunk 0's configuration word, as :func:`version_at` reads it."""
        return version_at(self.source, self.layout)

    @cached_property
    def _paths(self) -> list[str | tuple[type[MiniFsError], str]]:
        """Per record, its joined path or its naming error's type and message."""
        return structs.join_paths(self.names, self.files)

    @cached_property
    def _index(self) -> structs.PathIndex:
        """The lookup by path, built on the first one."""
        return structs.PathIndex(self.names, self.files)


def _charge(decoder: codec.ChunkDecoder) -> int:
    """What ``decoder`` counts against its view's store: at least _ENTRY_FLOOR, as an
    unfinished one holds ~37 KB of liblzma state however few bytes it declares."""
    return max(decoder.expected_size, _ENTRY_FLOOR)


@dataclass(frozen=True)
class FileEntry:
    """One file of the instance, with its path already joined."""

    index: int
    path: str
    chunk_index: int
    offset_in_chunk: int
    file_size: int


def version_at(dump: structs.Dump, layout: structs.FsLayout) -> Version:
    """Chunk 0's configuration word, read in O(1); UNKNOWN without a chunk or a known word."""
    at = layout.chunk_table_start
    start = layout.data_start + int.from_bytes(dump[at:at + 4], "big")
    try:
        return check_config_word(dump[start:start + 4]) if layout.chunk_count else Version.UNKNOWN
    except MiniFsError:
        return Version.UNKNOWN


def open_view(dump: structs.Dump, base: int = 0, *, force: bool = False) -> MiniFsView:
    """Parse and validate the instance whose magic sits at ``base``.

    ``dump`` is ``bytes`` or a read-only ``mmap``; the view keeps it as
    ``source`` and copies out only the regions it parses.

    Raises BadMagic or TruncatedImage when the bytes cannot be an
    instance at all, and ValidationFailed when structural invariants are
    broken — unless ``force`` is set, in which case the view is returned
    with its violations attached for best-effort work on damaged dumps.
    """
    header, layout, names, files, chunks = structs.parse_instance(dump, base)
    violations = structs.validate_layout(layout, names, files, chunks, len(dump))
    if violations and not force:
        raise ValidationFailed(violations)
    return MiniFsView(
        source=dump,
        header=header,
        layout=layout,
        names=names,
        files=files,
        chunks=chunks,
        violations=violations,
    )


def _entry(index: int, path: str | tuple[type[MiniFsError], str], rec: structs.FileRecord) -> FileEntry:
    if isinstance(path, tuple):
        raise path[0](f"file record {index}: {path[1]}")
    return FileEntry(index, path, rec.chunk_index, rec.offset_in_chunk, rec.file_size)


def list_files(view: MiniFsView) -> list[FileEntry]:
    """All files in table order, with joined paths.

    Naming failures are re-raised with the offending record index
    prepended, so damaged tables are easy to pinpoint.
    """
    return [_entry(i, path, rec) for i, (path, rec) in enumerate(zip(view._paths, view.files))]


def _span(data: bytes | memoryview, start: int, size: int) -> bytes | memoryview:
    """The ``size`` bytes of decoded chunk ``data`` from ``start``; OffsetOutOfRange past its end."""
    end = start + size
    if end > len(data):
        raise OffsetOutOfRange(f"file spans bytes {start}..{end} of a {len(data)}-byte chunk")
    return data[start:end]


def _record_chunk(view: MiniFsView, index: int) -> int:
    """``index``, the chunk a file record names; TruncatedTable if the table lacks it."""
    if index >= len(view.chunks):
        raise TruncatedTable(
            f"a file record names chunk {index}, but the chunk table holds {len(view.chunks)}")
    return index


def read_file(view: MiniFsView, selector: int | str) -> bytes:
    """File content by table index or by exact joined path.

    Index selection slices by the record's chunk, offset and size, so it
    reads a record whose name does not join.  Path selection never
    matches such a record, and raises AmbiguousPath on duplicate paths;
    pick by index instead.  A record that names a chunk the table does
    not hold, which only a forced view has, raises TruncatedTable.
    """
    if isinstance(selector, int):
        if not 0 <= selector < len(view.files):
            raise NotFound(f"no file record {selector} (table holds {len(view.files)})")
        index = selector
    else:
        matches = view._index.find(selector)
        if not matches:
            raise NotFound(f"no file named {selector!r}")
        if len(matches) > 1:
            raise AmbiguousPath(
                f"{len(matches)} entries share the path {selector!r}; select by index"
            )
        index = matches[0]
    record = view.files[index]
    chunk = _record_chunk(view, record.chunk_index)
    end = record.offset_in_chunk + record.file_size
    if end <= view.chunks[chunk].decompressed_size:
        return view._chunk_bytes(chunk, record.offset_in_chunk, end)
    # Raises the chunk's error, else OffsetOutOfRange.
    return _span(view.chunk_data(chunk), record.offset_in_chunk, record.file_size)


@dataclass
class FileResult:
    """Outcome for one file of an extraction run."""

    index: int
    path: str
    size: int
    chunk_index: int
    status: str                   # "ok" | "failed"
    error: str | None = None
    written_to: str | None = None


@dataclass
class ExtractReport:
    """Deterministic summary of one extraction run."""

    results: list[FileResult]
    out_dir: str
    chunk_count: int
    warnings: list[str] = field(default_factory=list)
    categories: Counter = field(default_factory=Counter)

    @property
    def written(self) -> int:
        return sum(1 for r in self.results if r.status == "ok")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.status == "failed")

    @property
    def total_bytes(self) -> int:
        return sum(r.size for r in self.results if r.status == "ok")

    def to_machine(self) -> str:
        lines = [
            f"out_dir={self.out_dir}",
            f"files={len(self.results)}",
            f"written={self.written}",
            f"failed={self.failed}",
            f"bytes={self.total_bytes}",
            f"chunks={self.chunk_count}",
        ]
        for r in self.results:
            lines.append(f"file.{r.index}.path={r.path}")
            lines.append(f"file.{r.index}.size={r.size}")
            lines.append(f"file.{r.index}.chunk={r.chunk_index}")
            lines.append(f"file.{r.index}.status={r.status}")
            if r.error:
                lines.append(f"file.{r.index}.error={r.error}")
        for name in sorted(self.categories):
            lines.append(f"category.{name}={self.categories[name]}")
        for i, w in enumerate(self.warnings):
            lines.append(f"warning.{i}={w}")
        return "\n".join(lines) + "\n"


_EXTENSION_CATEGORIES = {
    "css": "css",
    "html": "html", "htm": "html",
    "js": "js",
    "png": "images", "jpg": "images", "jpeg": "images", "gif": "images", "ico": "images",
    "txt": "config", "cfg": "config", "dat": "config", "ini": "config",
}


def _classify_one(name: str, content: bytes | memoryview) -> str:
    """Coarse content category: a PEM sniff, else the file extension."""
    if bytes(content[:10]) == b"-----BEGIN":
        return "keys"
    ext = name.rsplit(".", 1)[-1].lower() if "." in name.rsplit("/", 1)[-1] else ""
    return _EXTENSION_CATEGORIES.get(ext, "binary")


# O_NOFOLLOW (POSIX): opening a symlink fails, so no write follows one; with
# O_NONBLOCK, opening a FIFO never waits for a reader.  O_PATH (Linux) opens a
# directory without read permission; with O_DIRECTORY it still refuses a symlink.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_NOFOLLOW | os.O_NONBLOCK | os.O_CLOEXEC
_DIRECTORY_FLAGS = getattr(os, "O_PATH", os.O_RDONLY) | os.O_DIRECTORY | os.O_NOFOLLOW | os.O_CLOEXEC
_OPEN_DIRECTORIES = 64  # directory descriptors an extraction keeps open besides its root's


def _write_file(root: str, fds: dict[str, int], target: str,
                content: bytes | memoryview) -> str:
    """Write ``target`` below ``fds[""]``, the descriptor of the output
    directory ``root`` (a path ending in "/"), and return the file's path.

    Each directory is created and opened from its parent's descriptor and
    the file from its directory's, so the length of ``root`` does not
    matter and no symlink is followed.  ``fds`` keeps the directories
    opened; when it holds _OPEN_DIRECTORIES of them, they are all closed.
    """
    directory, _, name = target.rpartition("/")
    fd = fds.get(directory)
    if fd is None:
        fd, path = fds[""], ""
        for part in directory.split("/"):
            path = f"{path}/{part}" if path else part
            parent, fd = fd, fds.get(path)
            if fd is None:
                fd = _open(root, parent, part, path, target, directory)
                if len(fds) > _OPEN_DIRECTORIES:
                    for cached in [key for key in fds if key]:
                        os.close(fds.pop(cached))
                fds[path] = fd
    fd = _open(root, fd, name, target, target)
    try:
        done = 0
        while done < len(content):
            done += os.write(fd, content[done:])
    finally:
        os.close(fd)
    return root + target


def _open(root: str, parent: int, name: str, path: str, target: str,
          directory: str | None = None) -> int:
    """``name`` below ``parent`` (``path`` below ``root``) opened for writing or,
    given the target's ``directory``, created if missing and opened as one.

    A symlink, or a FIFO, socket or device where a file goes, raises
    UnsafePath; any other error names the path that writing ``target`` by
    its absolute path would have failed on.
    """
    exists = None
    try:
        if directory is None:
            fd = os.open(name, _WRITE_FLAGS, 0o666, dir_fd=parent)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                return fd
            os.close(fd)  # a FIFO that has a reader, or a device: refused below
            raise OSError(errno.ENXIO, os.strerror(errno.ENXIO))
        try:
            os.mkdir(name, dir_fd=parent)
        except FileExistsError as exc:
            exists = exc
        return os.open(name, _DIRECTORY_FLAGS, dir_fd=parent)
    except OSError as exc:
        try:
            mode = os.stat(name, dir_fd=parent, follow_symlinks=False).st_mode
        except OSError:
            mode = 0
        if stat.S_ISLNK(mode):
            raise UnsafePath(f"{target!r}: {path!r} is a symlink") from None
        if directory is None and mode and not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
            raise UnsafePath(f"{target!r}: {path!r} is not a regular file") from None
        if exists and exc.errno == errno.ENOTDIR:  # a file where a directory must go
            exc, path = exists if path == directory else NotADirectoryError(
                errno.ENOTDIR, os.strerror(errno.ENOTDIR)), directory
        exc.filename = root + path
        raise exc


def _decode_chunks(view: MiniFsView, indices: Sequence[int]) -> Iterator[memoryview | MiniFsError]:
    """Per chunk index, in order: its decoded bytes, or the MiniFsError decoding raised.

    Runs outside the view's store through :func:`codec._map_in_order`, under
    the module's thread rule; logs one debug record.
    """
    _log.debug("decoding %d chunks on %d threads, at most %d declared bytes ahead",
               len(indices), codec._threads(len(indices)), codec.DEFAULT_OUTPUT_LIMIT)

    def decode(index: int) -> memoryview | MiniFsError:
        try:
            return memoryview(decompress_chunk(*view._compressed(_record_chunk(view, index))))
        except MiniFsError as exc:
            return exc

    # In force mode a record may name a chunk the table does not hold.
    return _map_in_order(decode, indices,
                         lambda i: view.chunks[i].decompressed_size if i < len(view.chunks) else 0)


def extract_all(view: MiniFsView, out_dir: str | os.PathLike) -> ExtractReport:
    """Write every file of the instance under ``out_dir``.

    One in-order pass, outside the view's store, decompresses each chunk
    once, writes its files and drops it once the next is decoded; threads
    decode ahead under the module's rule while writes stay ordered, so
    about one chunk per thread plus one is held.  Per-file problems are recorded
    in the report instead of aborting the run; only an unusable output
    directory is fatal.  A record fails alone, with its error, whether its
    name does not join, its chunk does not decode or its file cannot be
    written, however the view was opened; each such record and each chunk
    that fails to decode logs one debug record.  Files are written from
    their parent directory's descriptor, following no symlink: a file
    whose path meets an existing symlink under ``out_dir``, or that finds
    a FIFO, socket or device at its own path, fails with UnsafePath (see
    :func:`_write_file`).

    Duplicate joined paths never overwrite each other: later copies get
    the lowest ``.dupN`` suffix that no record's path or earlier copy uses.
    """
    out_root = str(Path(out_dir).resolve())
    Path(out_root).mkdir(parents=True, exist_ok=True)

    warnings: list[str] = []
    paths = view._paths
    table = view.files.array
    chunk_of, start_of, size_of = (table[:, column].tolist() for column in (2, 3, 4))
    results: list[FileResult | None] = [None] * len(paths)
    for i, path in enumerate(paths):
        if isinstance(path, tuple):
            _log.debug("file record %d failed: its name does not join: %s", i, path[1])
            results[i] = FileResult(index=i, path="", size=size_of[i], chunk_index=chunk_of[i],
                                    status="failed", error=f"{path[0].__name__}: {path[1]}")
    # Write order: by chunk, then by offset in it; lexsort is stable, so ties keep table order.
    kept = [i for i in np.lexsort((table[:, 3], table[:, 2])).tolist() if results[i] is None]
    groups = {chunk: list(group) for chunk, group in groupby(kept, chunk_of.__getitem__)}

    last_dup = {paths[i]: -1 for i in kept}  # path -> last .dupN given; 0: the path itself
    categories: Counter = Counter()
    root = os.path.join(out_root, "")
    fds = {"": os.open(root, _DIRECTORY_FLAGS)}  # directory -> its open descriptor
    try:
        for data, (index, group) in zip(_decode_chunks(view, list(groups)), groups.items()):
            failure = f"{type(data).__name__}: {data}" if isinstance(data, MiniFsError) else None
            if failure:
                _log.debug("chunk %d failed to decode, failing its %d files: %s", index, len(group), failure)
            for i in group:
                path = target = paths[i]
                bump = last_dup[path] + 1
                while bump and f"{path}.dup{bump}" in last_dup:
                    bump += 1
                last_dup[path] = bump
                if bump:
                    target = f"{path}.dup{bump}"
                    warnings.append(f"duplicate path {path!r}; record {i} written as {target!r}")

                error = failure
                if error is None:
                    try:
                        content = _span(data, start_of[i], size_of[i])
                        dest = _write_file(root, fds, target, content)
                    except (MiniFsError, OSError) as exc:
                        error = f"{type(exc).__name__}: {exc}"
                        _log.debug("file record %d failed to write %r: %s", i, target, error)
                    else:
                        categories[_classify_one(path, content)] += 1
                results[i] = FileResult(
                    index=i, path=path, size=size_of[i], chunk_index=index,
                    status="failed" if error else "ok", error=error, written_to=None if error else dest,
                )
    finally:
        for fd in fds.values():
            os.close(fd)

    return ExtractReport(
        results=results,
        out_dir=out_root,
        chunk_count=len(view.chunks),
        warnings=warnings,
        categories=categories,
    )
