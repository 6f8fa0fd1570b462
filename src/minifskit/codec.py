"""LZMA chunk compression and decompression, and the ordered thread map that runs them.

Chunks are legacy-LZMA ("alone") streams: a 13-byte header (1 properties
byte, 4-byte little-endian dictionary size, 8-byte little-endian
uncompressed size) followed by the compressed payload.  The first four
header bytes double as the format's configuration word: ``5D 00 00 80``
for v2 images, ``5A 00 00 80`` for the earlier v1 generation.

The uncompressed-size field is not trusted: vendors may write the real
length or the unknown-size marker (all ``FF``).  The chunk table carries
the authoritative decompressed size, so the decoder parses the header
itself and runs the payload through a raw LZMA1 decoder capped at the
expected length.  That accepts both size-field variants, guards against
decompression bombs, and never allocates a dictionary larger than the
output could reference.
"""

from __future__ import annotations

import enum
import lzma
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence

from .errors import (
    ChunkTooLarge, CorruptStream, EncodeError, MiniFsError, SizeMismatch, UnknownConfigWord,
)

V2_CONFIG_WORD = bytes.fromhex("5d000080")
V1_CONFIG_WORD = bytes.fromhex("5a000080")

# Dictionary size written by the v2 encoder; little-endian 0x00800000 (8 MiB),
# which together with the 0x5D properties byte yields the v2 config word.
_ENCODER_DICT_SIZE = 0x0080_0000

# The smallest chunk the decoder accepts: a stream header with no payload.
STREAM_HEADER_SIZE = 13
_UNKNOWN_SIZE_FIELD = b"\xff" * 8
# The header the encoder writes: properties 0x5D (lc=3, lp=0, pb=2), the
# 8 MiB dictionary field, the unknown-size field.  It opens with V2_CONFIG_WORD.
_V2_STREAM_HEADER = b"\x5d" + _ENCODER_DICT_SIZE.to_bytes(4, "little") + _UNKNOWN_SIZE_FIELD

# Largest decompressed chunk accepted.  Observed real chunks are a few
# hundred KiB; anything near this cap is hostile or corrupt.
DEFAULT_OUTPUT_LIMIT = 64 * 1024 * 1024

_MIN_DICT_SIZE = 4096

# Output per decoder call: under 1 MiB, the malloc mmap threshold at which
# each temporary costs page faults.
_PIECE = (1 << 20) - 4096
# Input per decoder call: the decoder copies what it has not consumed when
# the output piece fills, so a small feed keeps that copy small.
_FEED = 1 << 16


class Version(enum.Enum):
    """File-system generation, as identified by the configuration word."""

    V2 = "v2"
    V1_LEGACY = "v1-legacy"
    UNKNOWN = "unknown"


def check_config_word(chunk: bytes) -> Version:
    """Classify a chunk by its leading 4-byte configuration word.

    Returns V2 or V1_LEGACY; anything else raises UnknownConfigWord
    carrying the bytes actually seen.
    """
    word = bytes(chunk[:4])
    if len(word) < 4:
        raise UnknownConfigWord(word, f"chunk holds only {len(word)} bytes, need 4")
    if word == V2_CONFIG_WORD:
        return Version.V2
    if word == V1_CONFIG_WORD:
        return Version.V1_LEGACY
    raise UnknownConfigWord(word)


def _lzma1_filter_from_props(props: int, dict_size: int) -> list[dict]:
    if props > 224:
        raise CorruptStream(f"invalid LZMA properties byte {props:#04x}")
    lc = props % 9
    rest = props // 9
    lp = rest % 5
    pb = rest // 5
    return [{"id": lzma.FILTER_LZMA1, "lc": lc, "lp": lp, "pb": pb, "dict_size": dict_size}]


def _bounded_dict_size(declared: int, expected_size: int) -> int:
    # A match can never reach further back than the bytes already
    # produced, so a dictionary covering the whole output is always
    # enough.  This keeps decoder memory proportional to the chunk, no
    # matter what the header claims.
    needed = max(expected_size, _MIN_DICT_SIZE)
    if needed > _MIN_DICT_SIZE:
        needed = 1 << (needed - 1).bit_length()
    return min(max(declared, _MIN_DICT_SIZE), needed)


class ChunkDecoder:
    """The decode of one v2 chunk, extended on demand to ``expected_size`` bytes.

    ``expected_size`` comes from the chunk table and wins over whatever
    the stream's own size field says.  Construction runs the header checks
    once; :meth:`decode_to` then extends the decoded prefix in pieces of
    under 1 MiB.  LZMA decodes in order, and its output so far depends
    only on its input so far, so a prefix equals the start of the whole
    decode.  The decode that reaches ``expected_size`` probes for an
    overrun and checks the size, and then sets :attr:`data`.  Never
    produces more than ``expected_size`` bytes of output, plus one probe
    byte for an overrun.  Safe to share between threads.

    Raises ValueError for a negative ``expected_size``, ChunkTooLarge when
    it exceeds DEFAULT_OUTPUT_LIMIT, UnknownConfigWord for a non-v2
    leading word (including the legacy v1 word, whose chunks this toolkit
    does not decode) and CorruptStream for a chunk shorter than the stream
    header or an invalid properties byte.
    """

    def __init__(self, chunk: bytes | memoryview, expected_size: int):
        if expected_size < 0:
            raise ValueError(f"expected_size must be non-negative, got {expected_size}")
        if expected_size > DEFAULT_OUTPUT_LIMIT:
            raise ChunkTooLarge(
                f"expected_size {expected_size} exceeds the output limit {DEFAULT_OUTPUT_LIMIT}"
            )
        version = check_config_word(chunk)
        if version is not Version.V2:
            raise UnknownConfigWord(
                bytes(chunk[:4]),
                f"chunk carries the legacy v1 word {V1_CONFIG_WORD.hex()}; only v2 is decodable",
            )
        if len(chunk) < STREAM_HEADER_SIZE:
            raise CorruptStream(
                f"chunk of {len(chunk)} bytes is shorter than the {STREAM_HEADER_SIZE}-byte "
                "LZMA stream header"
            )
        declared_dict = int.from_bytes(chunk[1:5], "little")
        filters = _lzma1_filter_from_props(chunk[0], _bounded_dict_size(declared_dict, expected_size))
        self.expected_size = expected_size
        #: The whole decoded chunk once a decode has reached ``expected_size`` and passed its checks.
        self.data: bytes | None = None
        self._decoder = lzma.LZMADecompressor(lzma.FORMAT_RAW, filters=filters)
        self._input = memoryview(chunk)[STREAM_HEADER_SIZE:]
        self._fed = 0
        self._out: bytes | bytearray = b""
        self._error: MiniFsError | None = None
        self._lock = threading.Lock()

    def decode_to(self, end: int, start: int = 0) -> bytes:
        """Bytes ``start``..``end`` of the chunk, decoding no further than ``end``.

        Needs ``0 <= start <= end <= expected_size`` (else ValueError).
        Reaching ``end`` raises CorruptStream when the decoder rejects the
        payload and SizeMismatch when the stream ends short of ``end`` or,
        at ``expected_size``, decodes past it.  A prefix decoded before such
        an error stays readable, and a later call past it raises the same
        error again.
        """
        if not 0 <= start <= end <= self.expected_size:
            raise ValueError(f"bytes {start}..{end} are not within the {self.expected_size}-byte chunk")
        with self._lock:
            if self.data is None and (end > len(self._out) or end == self.expected_size):
                if self._error is None:
                    try:
                        self._extend(end)
                    except MiniFsError as exc:
                        self._error = exc
                if self._error is not None:
                    raise self._error
            if self.data is not None:
                return self.data[start:end]
            return bytes(memoryview(self._out)[start:end])

    def _extend(self, end: int) -> None:
        self._run(end)
        if len(self._out) < end:
            raise SizeMismatch(self.expected_size, len(self._out))
        if end == self.expected_size:
            # One probe byte tells apart "stream complete" from "stream
            # wants to emit more than the table promised".
            self._run(end + 1)
            if len(self._out) > end:
                raise SizeMismatch(end, len(self._out), f"stream decodes past the expected {end} bytes")
            self._decoder = self._input = None
            self.data, self._out = bytes(self._out), b""

    def _run(self, limit: int) -> None:
        """Decode until the output holds ``limit`` bytes, the stream ends or the input runs out."""
        decoder = self._decoder
        while len(self._out) < limit and not decoder.eof:  # past eof, decompress raises EOFError
            data = b""
            if decoder.needs_input:
                if self._fed == len(self._input):
                    return
                data = self._input[self._fed:self._fed + _FEED]
                self._fed += len(data)
            try:
                piece = decoder.decompress(data, max_length=min(_PIECE, limit - len(self._out)))
            except lzma.LZMAError as exc:
                raise CorruptStream(f"LZMA decoder failed: {exc}") from exc
            if not self._out:  # a chunk decoded in one call keeps its piece, uncopied
                self._out = piece
            elif piece:
                if isinstance(self._out, bytes):
                    self._out = bytearray(self._out)
                self._out += piece


def decompress_chunk(chunk: bytes | memoryview, expected_size: int) -> bytes:
    """Decompress one v2 chunk to exactly ``expected_size`` bytes.

    One whole :class:`ChunkDecoder` decode, with its checks and errors.
    """
    return ChunkDecoder(chunk, expected_size).decode_to(expected_size)


def compress_chunk(data: bytes) -> bytes:
    """Compress ``data`` into a v2 chunk.

    The output starts with the v2 configuration word and uses the
    unknown-size stream variant, exactly what
    :func:`decompress_chunk` (and stock LZMA tools) accept.  The header
    declares 8 MiB, but the raw LZMA1 encoder (preset 6) gets the
    dictionary the decoder sizes for the chunk; no match can reach past
    the chunk's start, so the bytes equal an 8 MiB encoder's, while an
    encoder costs 4-5 MiB at the default cap instead of ~19 MiB.
    """
    filters = [{"id": lzma.FILTER_LZMA1, "preset": 6,
                "dict_size": _bounded_dict_size(_ENCODER_DICT_SIZE, len(data))}]
    try:
        return _V2_STREAM_HEADER + lzma.compress(data, format=lzma.FORMAT_RAW, filters=filters)
    except lzma.LZMAError as exc:
        raise EncodeError(f"LZMA encoder failed: {exc}") from exc


# The cgroup CPU quota: v2's "<quota> <period>" file, else v1's two files.
_CGROUP_V2_CPU_MAX = "/sys/fs/cgroup/cpu.max"
_CGROUP_V1_CPU_DIR = "/sys/fs/cgroup/cpu"


def _cgroup_cpus() -> int | None:
    """The cgroup CPU quota rounded up to whole CPUs; None where none is set or readable."""
    def words(path: str) -> list[str]:
        try:
            with open(path) as handle:
                return handle.read().split()
        except (OSError, UnicodeDecodeError):
            return []

    fields = words(_CGROUP_V2_CPU_MAX) or (
        words(os.path.join(_CGROUP_V1_CPU_DIR, "cpu.cfs_quota_us"))
        + words(os.path.join(_CGROUP_V1_CPU_DIR, "cpu.cfs_period_us")))
    try:
        quota, period = map(int, fields)
    except ValueError:  # no file, "max", or not two numbers
        return None
    return -(-quota // period) if quota > 0 and period > 0 else None


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one, within the cgroup quota."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, _cgroup_cpus() or cpus)


def _threads(count: int) -> int:
    """The threads a map of ``count`` items runs on: every available CPU, at most ``count``, at least 1.

    Fewer than two items read no affinity set and no cgroup file.
    """
    return min(_available_cpus(), count) if count > 1 else 1


def _map_in_order(fn: Callable, items: Sequence, size: Callable[..., int]) -> Iterator:
    """Yield ``fn(item)`` per item, in order, on :func:`_threads` threads that keep at most that many waiting.

    Another item starts only while the ``size`` of the items started and
    not yet yielded stays within DEFAULT_OUTPUT_LIMIT; the first always does.
    """
    threads = _threads(len(items))
    if threads == 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        window: deque = deque()
        held = 0
        for item in items:
            weight = size(item)
            while window and (len(window) == threads or held + weight > DEFAULT_OUTPUT_LIMIT):
                future, started = window.popleft()
                held -= started
                yield future.result()
            window.append((pool.submit(fn, item), weight))
            held += weight
        while window:
            yield window.popleft()[0].result()
