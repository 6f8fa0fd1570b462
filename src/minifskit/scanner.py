"""Locating MiniFS instances inside raw flash dumps.

Two complementary techniques:

* magic search — every occurrence of the ASCII string ``MINIFS`` is a
  candidate instance, opened at most once (:func:`iter_views`); hits
  whose declared tables cannot fit are refused from their header words,
  and hits that a few O(1) reads show unclean are not opened.
  The view gives the hit a version hint and a summary, so false
  positives (the string inside some HTML file) are kept apart from real
  file systems.

* block entropy — Shannon entropy per fixed-size block segments a dump
  into high-entropy regions (compressed or encrypted data), low-entropy
  regions (code, text, tables) and erased-flash runs, the usual first
  step when staring at an unknown dump.

Thresholds are conventional firmware-carving defaults, not properties of
the format; everything is tunable.
"""

from __future__ import annotations

import bisect
import dataclasses
import logging
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Iterator

import numpy as np

from . import codec, structs
from .codec import Version
from .errors import EmptyInput, MiniFsError
from .extractor import MiniFsView, open_view, version_at

DEFAULT_BLOCK_SIZE = 1024
DEFAULT_HIGH_THRESHOLD = 7.5
DEFAULT_EMPTY_BYTE = 0xFF

LABEL_LOW = "low"
LABEL_HIGH = "high"
LABEL_EMPTY = "empty"

# Block labels by code: ``entropy >= threshold`` gives 0 or 1, and 2 is empty.
_LABELS = (LABEL_LOW, LABEL_HIGH, LABEL_EMPTY)

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MinifsSummary:
    """Header facts for a parsed instance, attached to hits and scan reports.

    ``violations`` counts what :func:`structs.validate_layout` found for
    an opened hit; an instance is clean when it is 0.  A hit screened out
    without being opened (:func:`iter_views`) counts 1, a lower bound.
    """

    base: int
    file_count: int
    name_table_size: int
    chunk_count: int
    version: Version
    violations: int = 0


@dataclass(frozen=True)
class MagicHit:
    """One occurrence of the magic string inside a dump.

    ``summary`` is None when the tables at the hit do not parse, or when
    the search's record budget ran out before the hit (:func:`iter_views`).
    """

    offset: int
    version_hint: Version
    summary: MinifsSummary | None = None


@dataclass
class Section:
    """A maximal run of equally-labeled blocks."""

    start: int
    end: int
    label: str
    mean_entropy: float
    minifs: MinifsSummary | None = None


@dataclass
class SectionProfile:
    """Per-block entropy of a dump plus the derived section list.

    ``entropies`` is a float64 array of bits per byte in [0, 8], one
    entry per block.  ``constant_bytes`` is an int16 array: entry ``i``
    is the byte value when block ``i`` is one repeated byte (how erased
    flash is told apart from other zero-entropy content), else -1.
    Sections are empty until :func:`segment_sections` fills them.  Since
    the fields are arrays, comparing two profiles with ``==`` raises.
    """

    block_size: int
    length: int
    entropies: np.ndarray
    constant_bytes: np.ndarray
    sections: list[Section] = field(default_factory=list)


def iter_views(
    dump: structs.Dump, *, force: bool = False
) -> Iterator[tuple[int, structs.FsLayout | None, MiniFsView | None]]:
    """Each ``MINIFS`` offset, ascending, with its layout and its view opened in force mode.

    ``dump`` is ``bytes`` or a read-only ``mmap``; it is searched in place.

    A hit whose tables do not parse is refused in O(1), most from its
    header words alone, and yields no layout.  Without ``force``, a hit
    that :func:`structs.screen_instance` shows unclean yields its layout
    and is never parsed.  Every other hit is opened once, within a budget
    of ``len(dump) // 20 + 1024`` file records per pass; a hit that would
    overdraw it yields no layout.  Each hit that yields no view logs one
    debug record with the reason.  The dump is searched in windows of
    512 KiB (:func:`_magic_offsets`), so memory holds one window's marks
    and offsets and one hit's tables unless the caller keeps them; a
    window without a hit reads no header.  A pass that runs to its end
    logs one debug record with the bytes and windows searched, the hits,
    and how many were refused from their header words, refused on
    reading their tables, screened out, opened and over budget.
    """
    data = np.frombuffer(dump, dtype=np.uint8)
    size = len(data)
    budget = size // structs.FILE_RECORD_SIZE + 1024  # no one instance needs more
    rows = np.empty((2, -(-min(size, _WINDOW) // 16) * 8), dtype=bool)
    header = tables = screened = opened = over = 0
    for start in range(0, size, _WINDOW):
        window = data[start:start + _WINDOW + len(structs.MAGIC) - 1]
        offsets = _magic_offsets(window, rows)
        if not len(offsets):
            continue
        offsets += start
        whole = offsets[offsets + structs.HEADER_SIZE <= size]
        ends = structs.tables_end(data, whole).tolist()
        # Most hits are refused here, so the log level is asked once per window.
        debug = _log.isEnabledFor(logging.DEBUG)
        for at, end in zip_longest(offsets.tolist(), ends):
            layout = view = None
            if end is None:
                header += 1
                if debug:
                    _log.debug("MINIFS hit at %d refused: the %d-byte dump ends inside its "
                               "header", at, size)
            elif end > size:
                header += 1
                if debug:
                    _log.debug("MINIFS hit at %d refused: declared tables end at %d, "
                               "past the %d-byte dump", at, end, size)
            else:
                try:
                    layout, violation = structs.screen_instance(dump, at)
                except MiniFsError as exc:
                    tables += 1
                    _log.debug("MINIFS hit at %d refused: %s", at, exc)
                else:
                    if violation and not force:
                        screened += 1
                        _log.debug("MINIFS hit at %d screened out: %s", at, violation)
                    elif layout.file_count > budget:
                        over += 1
                        _log.debug("MINIFS hit at %d not opened: its %d file records overdraw "
                                   "the %d left of this pass's budget", at, layout.file_count,
                                   budget)
                        layout = None
                    else:
                        opened += 1
                        budget -= layout.file_count
                        view = open_view(dump, at, force=True)
            yield at, layout, view
    _log.debug("searched %d bytes in %d windows: %d MINIFS hits, %d refused from their header "
               "words, %d refused on reading their tables, %d screened out, %d opened, "
               "%d over budget", size, -(-size // _WINDOW), header + tables + screened + opened + over,
               header, tables, screened, opened, over)


# Bytes searched per window of :func:`iter_views`; a window also reads the
# five bytes after it, so a magic across its edge is found in it.  At
# 512 KiB the search's two 256 KiB rows of marks, one buffer, and the row
# a narrowed window adds come from the heap even where the allocator maps
# every block of 1 MiB or more afresh (glibc with
# MALLOC_MMAP_THRESHOLD_=1048576), where the page faults of a fresh 1 MiB
# buffer cost about as much as searching 1 MiB.  Smaller windows add
# per-window overhead on large dumps.
_WINDOW = 1 << 19

# Where ``MINIFS`` can start, read from aligned 16-bit words: a start at
# byte 2k puts ``NI`` in bytes 2k + 2 and 2k + 3, and a start at byte
# 2k + 1 puts ``IN`` there.  Per start parity, that word comes first, then
# the others that make up the magic's six bytes, each as (its byte offset
# from 2k, its little-endian value).
_WORDS = tuple(
    tuple((at, int.from_bytes(text, "little")) for at, text in words)
    for words in (((2, b"NI"), (0, b"MI"), (4, b"FS")),
                  ((2, b"IN"), (4, b"IF"), (1, b"MI"), (5, b"FS"))))

# Marked 16-byte stretches, at most, whose offsets :func:`_magic_offsets`
# checks byte by byte; past that, it first narrows the marks with every word.
_SPARSE = 1024


def _magic_offsets(window: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Ascending offsets where ``MINIFS`` starts in ``window``'s first ``_WINDOW`` bytes.

    ``rows``, a bool buffer of two rows of at least ``ceil(n / 16) * 8``
    entries for ``n`` offsets that every window of one search reuses,
    marks the starts at even and at odd offsets by the first of their
    aligned words (:data:`_WORDS`).  Only the 16-byte stretches (8 marks
    per row, one 64-bit word) with a mark are checked in full.  When more
    than ``_SPARSE`` stretches are marked, as in a window of one repeated
    near-magic, the marks are first narrowed by every other word of the
    magic, through one more row, so that only its starts stay marked and
    the check stays linear in the window.
    """
    magic = structs.MAGIC
    starts = max(0, min(_WINDOW, len(window) - len(magic) + 1))
    counts = (-(-starts // 2), starts // 2)  # the words k where a start 2k, 2k + 1 fits
    width = -(-counts[0] // 8) * 8
    marks = rows[:, :width]
    for row, count, ((at, word), *_) in zip(marks, counts, _WORDS):
        np.equal(window[at:at + 2 * count].view("<u2"), word, out=row[:count])
        row[count:] = False
    marked = np.logical_or(*(marks.view(np.uint64) != 0))
    if np.count_nonzero(marked) > _SPARSE:
        spare = np.empty(width, dtype=bool)
        for row, count, (_, *more) in zip(marks, counts, _WORDS):
            for at, word in more:
                row[:count] &= np.equal(window[at:at + 2 * count].view("<u2"), word,
                                        out=spare[:count])
        marked = np.logical_or(*(marks.view(np.uint64) != 0))
    # A bool flatnonzero: on the 64-bit words themselves it is much slower.
    stretches = np.flatnonzero(marked)
    found = (stretches[:, np.newaxis] * 16 + np.arange(16)).ravel()
    found = found[found < starts]
    for k in range(len(magic)):
        if not len(found):
            break
        found = found[window[found + k] == magic[k]]
    return found


def find_magic(dump: structs.Dump) -> list[MagicHit]:
    """Find every ``MINIFS`` occurrence in ``bytes`` or a read-only ``mmap``, ascending.

    Only hits that can be clean are opened (:func:`iter_views`).  A hit's
    version hint is chunk 0's configuration word, read in O(1); it is
    UNKNOWN, and the hit has no summary, when :func:`iter_views` yields
    no layout.  A hit screened out unopened counts one violation.
    """
    hits = []
    for offset, layout, view in iter_views(dump):
        if layout is None:
            hits.append(MagicHit(offset, Version.UNKNOWN))
            continue
        version = version_at(dump, layout)
        hits.append(MagicHit(offset, version, MinifsSummary(
            base=offset, file_count=layout.file_count,
            name_table_size=layout.files_start - layout.names_start,
            chunk_count=layout.chunk_count, version=version,
            violations=1 if view is None else len(view.violations),
        )))
    return hits


def entropy_profile(dump: structs.Dump, block_size: int = DEFAULT_BLOCK_SIZE) -> SectionProfile:
    """Per-block Shannon entropy over the whole dump, ``bytes`` or a read-only ``mmap``.

    The final partial block, if any, is measured over its actual length.
    ``block_size`` must be a power of two, at least 16.  The full blocks
    are split into spans of 4 MiB (one block, when blocks are larger)
    that run through :func:`codec._map_in_order`, on one thread per
    available CPU; a dump under two spans, or one CPU, measures them on
    the calling thread.  Blocks are measured in batches whose
    intermediates fill one workspace of at most 864 KiB on the calling
    thread and twice that on a pool thread (one block's, when blocks are
    larger), allocated once per call on the calling thread and once per
    span on a pool thread.  Each entropy is bit-identical to
    ``-(p * np.log2(p)).sum()`` over that block's nonzero byte
    frequencies ``p`` in ascending byte order, whatever the thread count.
    Logs one debug record with the full-block, span and thread counts,
    the blocks per batch and the bytes of each workspace.
    """
    if len(dump) == 0:
        raise EmptyInput("cannot profile an empty dump")
    if block_size < 16 or block_size & (block_size - 1):
        raise ValueError(f"block_size must be a power of two >= 16, got {block_size}")

    entropies = np.empty(-(-len(dump) // block_size))
    constants = np.empty(len(entropies), dtype=np.int16)
    data = np.frombuffer(dump, dtype=np.uint8)
    full = len(dump) // block_size * block_size
    blocks = data[:full].reshape(-1, block_size)
    per_span = max(1, _SPAN_BYTES // block_size)
    spans = range(0, len(blocks), per_span)
    threads = codec._threads(len(spans))
    budget = _BATCH_BUDGET if threads == 1 else 2 * _BATCH_BUDGET
    per_batch = min(max(1, budget // _workspace_bytes(block_size)), len(entropies))
    # The partial tail block is narrower than a full one, so it fits too.
    workspace = np.empty(per_batch * _workspace_bytes(min(block_size, len(dump))), dtype=np.uint8)
    _log.debug("profiling %d full blocks of %d bytes in %d spans on %d threads, "
               "%d blocks per batch in a workspace of %d bytes per thread", len(blocks),
               block_size, len(spans), threads, per_batch, workspace.nbytes)
    if full:
        plogp = _plogp_table(block_size)

        def profile_span(start: int) -> None:
            space = workspace if threads == 1 else np.empty_like(workspace)
            end = min(start + per_span, len(blocks))
            for i in range(start, end, per_batch):
                rows = blocks[i:min(i + per_batch, end)]
                _profile_rows(rows, plogp, entropies[i:i + len(rows)],
                              constants[i:i + len(rows)], space)

        # Each span writes its own slices of the arrays and returns nothing to hold.
        for _ in codec._map_in_order(profile_span, spans, size=lambda start: 0):
            pass
    if full < len(dump):
        tail = data[full:]
        _profile_rows(tail.reshape(1, -1), _plogp_table(tail.size), entropies[-1:],
                      constants[-1:], workspace)
    return SectionProfile(
        block_size=block_size,
        length=len(dump),
        entropies=entropies,
        constant_bytes=constants,
    )


# Workspace bytes that size a batch of :func:`entropy_profile` on the
# calling thread: about 45 KiB of input at 16-byte blocks and 123 blocks
# at 1024-byte blocks.  Under 1 MiB, it comes from the heap even where the
# allocator maps every block of 1 MiB or more afresh (glibc with
# MALLOC_MMAP_THRESHOLD_=1048576).  A pool thread's is twice as large:
# smaller batches pass the interpreter lock between two threads more
# often, and larger ones raise the peak memory of every threaded profile.
_BATCH_BUDGET = 864 * 1024

# Input bytes per span of :func:`entropy_profile`: a few dozen batches,
# enough to amortise handing a span to a thread.
_SPAN_BYTES = 4 << 20

# Runs, at most, whose starts one ``np.flatnonzero`` of :func:`_profile_rows`
# finds, so that its result stays within 64 KiB.
_SLICE_RUNS = 8192


def _workspace_bytes(width: int) -> int:
    """Bytes one row takes in :func:`_profile_rows`' workspace, at most.

    The sorted copy, run mask and permuted mask take a byte per byte, and
    the run lengths and terms 8 bytes per run; a row has at most 256 runs.
    """
    return 3 * width + 16 * min(width, 256)


def _plogp_table(n: int) -> np.ndarray:
    """``p * log2(p)`` for ``p = c / n``, indexed by the count ``c`` (entry 0 is unused)."""
    p = np.arange(n + 1) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        return p * np.log2(p)


def _profile_rows(
    rows: np.ndarray,
    plogp: np.ndarray,
    entropies: np.ndarray,
    constants: np.ndarray,
    workspace: np.ndarray,
) -> None:
    """Write the entropy and constant byte (-1: none) of each row of ``rows``.

    Every intermediate of the batch's size lives in ``workspace``, a
    uint8 array of at least ``len(rows) * _workspace_bytes(rows.shape[1])``
    bytes.

    A sorted row's run lengths are its nonzero byte counts in ascending
    byte order, the order ``counts[counts > 0]`` has.  Rows are summed in
    groups with equal ``k`` (distinct bytes) as C-contiguous ``(rows, k)``
    arrays, so numpy adds each row's terms with the same pairwise
    summation as a 1-D ``sum`` of those ``k`` terms.
    """
    count, width = rows.shape
    runs = count * min(width, 256)
    # The 8-byte arrays first, so each view starts aligned.
    run_lengths = workspace[:8 * runs].view(np.intp)
    terms = workspace[8 * runs:16 * runs].view(np.float64)
    arrays = workspace[16 * runs:16 * runs + 3 * rows.size].reshape(3, count, width)
    ordered, new_run, permuted = arrays[0], arrays[1].view(bool), arrays[2].view(bool)
    np.copyto(ordered, rows)
    ordered.sort(axis=1, kind="stable")
    flat, marks = ordered.ravel(), new_run.ravel()
    np.not_equal(flat[1:], flat[:-1], out=marks[1:])
    marks[::width] = True
    distinct = new_run.sum(axis=1, dtype=np.uint16)  # k <= 256
    # Take the rows' runs in ascending k order, so each group is one slice.
    order = np.argsort(distinct, kind="stable")
    # mode="raise" would write into a buffer of its own first.
    np.take(new_run, order, axis=0, out=permuted, mode="clip")
    # A slice of whole rows starts a run and ends one, so its run lengths
    # follow from its own run starts.
    total = 0
    step = max(1, _SLICE_RUNS // min(width, 256))
    for first in range(0, count, step):
        piece = permuted[first:first + step]
        starts = np.flatnonzero(piece)
        lengths = run_lengths[total:total + len(starts)]
        np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
        lengths[-1] = piece.size - starts[-1]
        total += len(starts)
        del starts  # before the next slice's are allocated
    terms = np.take(plogp, run_lengths[:total], out=terms[:total], mode="clip")

    widths = distinct[order]
    edges = [0, *(np.flatnonzero(np.diff(widths)) + 1).tolist(), count]
    sums = np.empty(count)
    at = 0
    for a, b in zip(edges, edges[1:]):
        width = int(widths[a])
        group = terms[at:at + (b - a) * width].reshape(b - a, width)
        group.sum(axis=1, out=sums[a:b])
        at += group.size
    entropies[order] = np.minimum(-sums + 0.0, 8.0)
    # An int16 -1: a Python -1 would leave the result uint8 and wrap to 255.
    constants[:] = np.where(distinct == 1, ordered[:, 0], np.int16(-1))


def segment_sections(
    profile: SectionProfile,
    high_threshold: float = DEFAULT_HIGH_THRESHOLD,
    empty_byte: int = DEFAULT_EMPTY_BYTE,
) -> SectionProfile:
    """Label blocks and merge equal neighbours into maximal sections.

    A block is ``empty`` when it is one repeated byte equal to
    ``empty_byte`` (the erased-flash convention), ``high`` when its
    entropy reaches ``high_threshold``, otherwise ``low``.  The returned
    profile's sections tile [0, length) without gaps or overlap.
    """
    entropies, constants, size = profile.entropies, profile.constant_bytes, profile.block_size
    codes = (entropies >= high_threshold).astype(np.int8)
    codes[(constants == empty_byte) & (constants >= 0)] = 2  # -1 is no byte
    bounds = [0, *(np.flatnonzero(np.diff(codes)) + 1).tolist(), len(codes)]
    sections = [
        Section(
            start=a * size,
            end=min(b * size, profile.length),
            label=_LABELS[code],
            # Left to right, as Python's sum did before 3.12; np.sum is pairwise.
            mean_entropy=float(np.add.accumulate(entropies[a:b])[-1]) / (b - a),
        )
        for a, b, code in zip(bounds, bounds[1:], codes[bounds[:-1]].tolist())
    ]
    return dataclasses.replace(profile, sections=sections)


@dataclass
class DumpReport:
    """Combined magic + section view of one dump.

    ``profile`` is the block entropy profile the sections came from.
    """

    length: int
    block_size: int
    high_threshold: float
    sections: list[Section]
    hits: list[MagicHit]
    profile: SectionProfile | None = field(default=None, repr=False)

    @property
    def instances(self) -> list[MinifsSummary]:
        return [s.minifs for s in self.sections if s.minifs is not None]

    def to_machine(self) -> str:
        """Stable line-oriented key=value rendering."""
        lines = [
            f"length={self.length}",
            f"block_size={self.block_size}",
            f"threshold={self.high_threshold:.6f}",
            f"sections={len(self.sections)}",
        ]
        for i, s in enumerate(self.sections):
            lines.append(f"section.{i}.start={s.start}")
            lines.append(f"section.{i}.end={s.end}")
            lines.append(f"section.{i}.label={s.label}")
            lines.append(f"section.{i}.mean_entropy={s.mean_entropy:.6f}")
            if s.minifs is not None:
                m = s.minifs
                lines.append(f"section.{i}.minifs.base={m.base}")
                lines.append(f"section.{i}.minifs.files={m.file_count}")
                lines.append(f"section.{i}.minifs.names={m.name_table_size}")
                lines.append(f"section.{i}.minifs.chunks={m.chunk_count}")
                lines.append(f"section.{i}.minifs.version={m.version.value}")
        lines.append(f"hits={len(self.hits)}")
        for i, h in enumerate(self.hits):
            lines.append(f"hit.{i}.offset={h.offset}")
            lines.append(f"hit.{i}.version={h.version_hint.value}")
        return "\n".join(lines) + "\n"


def dump_report(
    dump: structs.Dump,
    *,
    block_size: int = DEFAULT_BLOCK_SIZE,
    high_threshold: float = DEFAULT_HIGH_THRESHOLD,
    empty_byte: int = DEFAULT_EMPTY_BYTE,
) -> DumpReport:
    """Scan a dump (``bytes`` or a read-only ``mmap``): entropy sections plus magic hits.

    A section containing a hit that parses and validates cleanly gets
    that instance's summary attached.  Never raises on odd input; an
    empty dump yields an empty report.
    """
    if len(dump) == 0:
        return DumpReport(
            length=0,
            block_size=block_size,
            high_threshold=high_threshold,
            sections=[],
            hits=[],
        )
    profile = segment_sections(
        entropy_profile(dump, block_size), high_threshold, empty_byte
    )
    hits = find_magic(dump)
    sections = profile.sections
    starts = [section.start for section in sections]
    for hit in hits:
        if hit.summary is None or hit.summary.violations:
            continue
        # Sections tile [0, length), so the last one starting at or before
        # the hit holds it.
        section = sections[bisect.bisect_right(starts, hit.offset) - 1]
        if section.minifs is None:
            section.minifs = hit.summary
    return DumpReport(
        length=len(dump),
        block_size=block_size,
        high_threshold=high_threshold,
        sections=sections,
        hits=hits,
        profile=profile,
    )
