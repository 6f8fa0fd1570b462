"""Array tables, array validation and lookup by path key agree with the
reference reader in ``helpers`` on random, often damaged, images."""

from dataclasses import astuple

from hypothesis import given, settings, strategies as st

from minifskit import MiniFsHeader, compress_chunk, open_view, read_file
from minifskit.codec import DEFAULT_OUTPUT_LIMIT, STREAM_HEADER_SIZE
from minifskit.errors import MiniFsError
from minifskit.structs import ChunkRecord, FileRecord
from helpers import (
    name_at, ref_index, ref_parse_file_table, ref_paths, ref_select, ref_validate_layout)

CONTENTS = [bytes([0x41 + k]) * (24 + 8 * k) for k in range(3)]
BLOBS = [compress_chunk(content) for content in CONTENTS]

# Pool strings that join, and ones that do not: dot and empty components,
# absolute paths, a non-printable byte and non-ASCII UTF-8.
GOOD = [b"", b"a", b"b.txt", b"dir", b"dir/sub", b"~ ~"]
BAD = [b"..", b".", b"a//b", b"/abs", b"dir/", b"x\x01y", b"caf\xc3\xa9"]
TEXT_WORDS = [word.decode("latin-1") for word in GOOD + BAD] + ["café", "a/../b", "dir/b.txt"]


def mostly(common, *rare):
    """``common`` in about seven draws of eight, else one of ``rare``."""
    return st.integers(0, 7).flatmap(lambda k: st.one_of(*rare) if k == 0 else common)


@st.composite
def images(draw) -> bytes:
    """An instance whose pool repeats strings at different offsets, may end
    unterminated, and whose records name string starts, mid-string offsets
    and offsets outside the pool.  Chunk records sit on each edge that
    validation checks: a compressed size at the stream header's size and
    one below, a decompressed size at the decoder limit and one above, and
    chunk data ending at the image's end or one byte past it."""
    starts, pool = [], b""
    for word in draw(st.lists(mostly(st.sampled_from(GOOD), st.sampled_from(BAD)),
                              min_size=1, max_size=8)):
        starts.append(len(pool))
        pool += word + b"\x00"
    if draw(st.booleans()):
        pool = pool[:-1]
    offset = mostly(st.sampled_from(starts), st.integers(0, len(pool) + 2), st.just(0xFFFF_FFFF))
    span = mostly(st.integers(0, 24), st.just(0xFFFF_FFFF))
    count = draw(mostly(st.integers(1, 10), st.integers(11, 64)))
    records = draw(st.lists(st.builds(FileRecord, offset, offset, st.integers(0, 3), span, span),
                            min_size=count, max_size=count))
    chunks, data = [], b""
    for k in range(records[-1].chunk_index + 1):
        blob, size = BLOBS[k % 3], len(CONTENTS[k % 3])
        stored = draw(mostly(st.just(len(blob)), st.sampled_from(
            [STREAM_HEADER_SIZE - 1, STREAM_HEADER_SIZE])))
        declared = draw(mostly(st.just(size), st.sampled_from(
            [0, size + 5, DEFAULT_OUTPUT_LIMIT, DEFAULT_OUTPUT_LIMIT + 1])))
        chunks.append(ChunkRecord(len(data), stored, declared))
        data += blob[:stored]
    header = MiniFsHeader(file_count=len(records), name_table_size=len(pool))
    image = (header.encode() + pool + b"".join(r.encode() for r in records)
             + b"".join(c.encode() for c in chunks) + data)
    return image[:len(image) - draw(mostly(st.just(0), st.sampled_from([1, 7])))]


selectors = st.lists(st.one_of(
    st.text(max_size=8),
    st.sampled_from(TEXT_WORDS),
    st.lists(st.sampled_from(TEXT_WORDS), min_size=2, max_size=3).map("/".join),
), max_size=6)


def outcome(read):
    try:
        return bytes(read())
    except MiniFsError as exc:
        return type(exc), str(exc)


def joined(paths):
    """Paths, with each naming error, raised or kept as a view keeps it, as its type and message."""
    return [(type(p), str(p)) if isinstance(p, MiniFsError) else p for p in paths]


def unchecked_joins(names, records):
    """Each record's strings joined without the path rule: selectors that
    only the rule keeps from matching (``a/``, ``a/.``, ``../x``, ``a//b/x``),
    and, behind a ``/``, ones that only the split at the last ``/`` does."""
    for rec in records:
        try:
            directory, name = name_at(names, rec.path_offset), name_at(names, rec.name_offset)
        except MiniFsError:
            continue
        yield f"{directory}/{name}" if directory else name


@settings(max_examples=300, deadline=None)
@given(image=images(), extra=selectors, lookups_first=st.booleans())
def test_open_list_and_read_agree_with_reference(image, extra, lookups_first):
    view = open_view(image, force=True)
    layout = view.layout
    records = ref_parse_file_table(image[layout.files_start:layout.chunk_table_start],
                                   view.header.file_count)
    assert [tuple(rec) for rec in view.files] == [astuple(rec) for rec in records]
    names = view.names
    assert view.violations == ref_validate_layout(layout, names, records, view.chunks, len(image))

    paths = ref_paths(names, records)
    by_path = ref_index(paths)
    if not lookups_first:  # join every path before the first lookup
        assert joined(view._paths) == joined(paths)
    joins = list(unchecked_joins(names, records))
    for selector in [*joins, *("/" + join for join in joins), *extra]:
        assert outcome(lambda: read_file(view, selector)) == outcome(
            lambda: read_file(view, ref_select(by_path, selector))), selector
    assert joined(view._paths) == joined(paths)
