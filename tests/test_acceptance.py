"""Acceptance suite: one test per criterion, printed pass lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` runs them as ordinary tests.  Every expected value
is either an observed-format constant or computed by an oracle living in
this file, never by the code path under test.
"""

import contextlib
import io
import random
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minifskit import (
    FixtureSpec,
    MiniFsHeader,
    PackOptions,
    Version,
    check_config_word,
    compress_chunk,
    decompress_chunk,
    dump_report,
    entropy_profile,
    extract_all,
    find_magic,
    list_files,
    make_fixture,
    open_view,
    pack,
    read_file,
    segment_sections,
)
from minifskit.structs import (
    ChunkRecord,
    FileRecord,
    join_paths,
    parse_instance,
)
from minifskit.cli import EXIT_INVALID, main
from minifskit.errors import MiniFsError, SizeMismatch, UnknownConfigWord
from helpers import build_three_file_image, observed_instance, read_tree, write_tree


def ok(number: int, detail: str) -> None:
    print(f"\nACCEPTANCE {number:02d} PASS — {detail}")


def test_criterion_01_header_decoding():
    header = parse_instance(observed_instance())[0]
    assert header.file_count == 335
    assert header.name_table_size == 4804
    ok(1, "header 0x14F/0x12C4 decodes to 335 files, 4804-byte name table")


def test_criterion_02_layout_arithmetic():
    image = observed_instance()
    layout = parse_instance(image)[1]
    assert len(image) == 12040
    assert layout.names_start == 32
    assert layout.files_start == 4836
    assert layout.chunk_table_start == 11536
    assert layout.data_start == 12040
    ok(2, "region starts 32 / 4836 / 11536 / 12040")


def test_criterion_03_record_decoding():
    _, layout, _, files, chunks = parse_instance(observed_instance())
    assert files[0] == FileRecord(0, 7, 0, 0, 395008)
    assert chunks[0] == ChunkRecord(0, 195953, 395008)
    assert files[-1].chunk_index == 0x29
    assert layout.chunk_count == len(chunks) == 42
    ok(3, "file record (0,7,0,0,395008), chunk record (0,195953,395008), 0x29 -> 42 chunks")


def test_criterion_04_name_join():
    assert join_paths(b"fw/mtk\x00base.css\x00", [FileRecord(0, 7, 0, 0, 0)]) == ["fw/mtk/base.css"]
    ok(4, 'pool offsets (0,7) join to "fw/mtk/base.css"')


def test_criterion_05_config_word(tmp_path, capsys):
    image = pack(
        [(f"dir/file{i}.bin", bytes([i]) * 300) for i in range(6)],
        PackOptions(max_chunk_decompressed=700),
    )
    view = open_view(image)
    assert len(view.chunks) >= 2
    for i in range(len(view.chunks)):
        compressed, _ = view.compressed_chunk(i)
        assert compressed[:4] == b"\x5d\x00\x00\x80"
        assert check_config_word(compressed) is Version.V2

    assert check_config_word(b"\x5a\x00\x00\x80rest") is Version.V1_LEGACY
    with pytest.raises(UnknownConfigWord):
        check_config_word(b"\xfd7zXZ\x00")

    # And the verify command flags a chunk rewritten with the legacy word.
    flipped = bytearray(image)
    flipped[view.layout.data_start] = 0x5A
    bad = tmp_path / "legacy-word.img"
    bad.write_bytes(bytes(flipped))
    assert main(["verify", str(bad)]) == EXIT_INVALID
    assert "chunk 0: fail" in capsys.readouterr().out
    ok(5, f"all {len(view.chunks)} packed chunks begin 5D000080; 5A000080 -> v1; "
          f"other -> unknown; verify flags the rewritten chunk")


def _random_tree(rng: random.Random, tree_index: int):
    """Entry list for one tree: <= 50 files, <= 64 KiB each, depth <= 4."""
    dirs = [""]
    for _ in range(rng.randint(0, 6)):
        parent = rng.choice(dirs)
        segment = f"d{rng.randint(0, 9)}"
        child = f"{parent}/{segment}".strip("/")
        if child.count("/") <= 2:       # at most 3 directory levels
            dirs.append(child)
    count = rng.choice((0, 1, 2) + tuple(range(3, 51)))
    if tree_index == 0:
        count = 50
    entries = []
    for i in range(count):
        directory = rng.choice(dirs)
        name = f"f{i:03d}.{rng.choice(('bin', 'txt', 'css', 'js', 'dat'))}"
        path = f"{directory}/{name}".strip("/")
        roll = rng.random()
        if tree_index == 0 and i == 0:
            size = 65536                # hit the size bound at least once
        elif roll < 0.15:
            size = 0
        elif roll < 0.85:
            size = rng.randint(1, 2048)
        else:
            size = rng.randint(2048, 65536)
        if roll < 0.5:
            content = rng.randbytes(size)
        else:
            content = (b"pattern %d " % i) * (size // 10 + 1)
            content = content[:size]
        entries.append((path, content))
    return entries


def test_criterion_06_tree_roundtrip_property(tmp_path):
    rng = random.Random(20260810)
    started = time.monotonic()
    trees = 200
    for t in range(trees):
        src = tmp_path / f"src{t}"
        src.mkdir()
        write_tree(src, _random_tree(rng, t))
        image = pack(src)
        out = tmp_path / f"out{t}"
        report = extract_all(open_view(image), out)
        assert report.failed == 0
        assert read_tree(out) == read_tree(src)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    ok(6, f"extract(pack(T)) == T for {trees} random trees in {elapsed:.1f}s")


def test_criterion_07_codec_roundtrip_property():
    rng = random.Random(97)
    started = time.monotonic()
    sequences = 500
    size_hit_max = False
    for i in range(sequences):
        roll = rng.random()
        if i == 0:
            size = 1 << 20              # the bound itself
        elif roll < 0.6:
            size = rng.randint(0, 4096)
        elif roll < 0.9:
            size = rng.randint(4096, 65536)
        else:
            size = rng.randint(65536, 1 << 20)
        size_hit_max = size_hit_max or size == 1 << 20
        mode = rng.random()
        if mode < 0.4:
            data = rng.randbytes(size)
        elif mode < 0.8:
            unit = rng.randbytes(rng.randint(1, 64))
            data = (unit * (size // max(len(unit), 1) + 1))[:size]
        else:
            data = (b"key%d=value%d\n" % (i, i)) * (size // 12 + 1)
            data = data[:size]

        chunk = compress_chunk(data)
        assert decompress_chunk(chunk, len(data)) == data
        if data and i % 7 == 0:
            with pytest.raises(SizeMismatch):
                decompress_chunk(chunk, len(data) - 1)
    elapsed = time.monotonic() - started
    assert size_hit_max
    assert elapsed < 60.0
    ok(7, f"decompress(compress(d)) == d for {sequences} sequences in {elapsed:.1f}s; "
          f"short expectations raise SizeMismatch")


def _numpy_substring_oracle(dump: bytes, needle: bytes = b"MINIFS") -> list[int]:
    """Byte-by-byte sliding comparison, vectorized; independent of find()."""
    a = np.frombuffer(dump, dtype=np.uint8)
    span = len(a) - len(needle) + 1
    if span <= 0:
        return []
    mask = np.ones(span, dtype=bool)
    for i, ch in enumerate(needle):
        mask &= a[i:span + i] == ch
    return np.flatnonzero(mask).tolist()


def test_criterion_08_scanner_oracle_equivalence():
    rng = np.random.default_rng(4242)
    planted_images = [
        pack([("a.txt", b"alpha " * 40)]),
        pack([("d/b.bin", bytes(range(256)) * 3), ("d/c.css", b"c{}" * 99)]),
        pack([("deep/tree/x.js", b"var x;" * 120)]),
    ]
    started = time.monotonic()
    dumps = 100
    for d in range(dumps):
        size = 4 * 1024 * 1024 if d == 0 else int(rng.integers(64 * 1024, 1 << 20))
        dump = bytearray(rng.integers(0, 256, size, dtype=np.uint8).tobytes())
        planted = []
        for image in planted_images[: int(rng.integers(0, 4))]:
            for _ in range(20):             # find a non-overlapping spot
                at = int(rng.integers(0, size - len(image)))
                if all(at + len(image) <= s or at >= e for s, e in planted):
                    dump[at:at + len(image)] = image
                    planted.append((at, at + len(image)))
                    break
        dump = bytes(dump)

        hits = find_magic(dump)
        assert [h.offset for h in hits] == _numpy_substring_oracle(dump)
        by_offset = {h.offset: h for h in hits}
        for start, _ in planted:
            assert by_offset[start].version_hint is Version.V2
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    ok(8, f"find_magic == substring oracle over {dumps} dumps in {elapsed:.1f}s; "
          f"planted images hinted v2")


def test_criterion_09_entropy_checks():
    assert entropy_profile(b"\x42" * 1024, 1024).entropies.tolist() == [0.0]
    assert entropy_profile(b"\xff" * 1024, 1024).entropies.tolist() == [0.0]

    alternating = entropy_profile(bytes([0x00, 0xFF]) * 512, 1024).entropies[0]
    assert alternating == pytest.approx(1.0, abs=1e-9)

    rng = random.Random(555)
    blob = rng.randbytes(16 * 4096)
    for e in entropy_profile(blob, 4096).entropies:
        assert 7.9 <= e <= 8.0

    for shape in ("minimal", "multi-chunk", "five-region"):
        dump, _ = make_fixture(FixtureSpec(seed=9, shape=shape))
        profile = segment_sections(entropy_profile(dump))
        sections = profile.sections
        assert sections[0].start == 0
        assert sections[-1].end == len(dump)
        for left, right in zip(sections, sections[1:]):
            assert left.end == right.start
    ok(9, "constant -> 0.0, alternating -> 1.0, random 4KiB in [7.9, 8.0], sections tile")


def test_criterion_10_traversal_safety(tmp_path):
    # Hand-assemble an image whose single file is named "../evil" — the
    # packer refuses to build one, which is rather the point.
    content = b"owned"
    chunk = compress_chunk(content)
    pool = b"\x00../evil\x00"
    header = MiniFsHeader(file_count=1, name_table_size=len(pool))
    record = FileRecord(0, 1, 0, 0, len(content))
    chunk_rec = ChunkRecord(0, len(chunk), len(content))
    image = header.encode() + pool + record.encode() + chunk_rec.encode() + chunk

    out_dir = tmp_path / "nest" / "out"
    out_dir.mkdir(parents=True)
    before = {p for p in tmp_path.rglob("*")}
    report = extract_all(open_view(image), out_dir)
    assert [r.status for r in report.results] == ["failed"]
    assert report.results[0].error.startswith("UnsafePath: ")
    after = {p for p in tmp_path.rglob("*")}
    assert after == before                      # nothing new anywhere
    assert list(out_dir.iterdir()) == []        # and the out dir stayed empty
    for written in after:
        assert written.resolve().is_relative_to(tmp_path)
    assert not (tmp_path / "nest" / "evil").exists()
    ok(10, '"../evil" fails with UnsafePath; no file written outside the output directory')


def test_criterion_11_fault_tolerance(tmp_path):
    dump, manifest = make_fixture(FixtureSpec(seed=3, shape="multi-chunk"))
    assert manifest.chunk_count >= 3

    pristine = tmp_path / "pristine"
    extract_all(open_view(dump), pristine)
    truth = read_tree(pristine)

    view = open_view(dump)
    target_chunk = 1
    in_target = {e.path for e in list_files(view) if e.chunk_index == target_chunk}
    assert in_target and len(in_target) < len(view.files)

    corrupted = bytearray(dump)
    rec = view.chunks[target_chunk]
    corrupted[view.layout.data_start + rec.data_offset + 25] ^= 0xFF
    damaged_view = open_view(bytes(corrupted))

    out = tmp_path / "damaged"
    report = extract_all(damaged_view, out)
    failed = {r.path for r in report.results if r.status == "failed"}
    assert failed == in_target
    survivors = read_tree(out)
    assert set(survivors) == set(truth) - in_target
    for path, content in survivors.items():
        assert content == truth[path]
    ok(11, f"one flipped byte fails exactly chunk {target_chunk}'s files "
           f"({sorted(failed)}); all others byte-correct")


FUZZ_IMAGES = [
    build_three_file_image(),
    pack([]),
    make_fixture(FixtureSpec(seed=1, shape="minimal"))[0],
    make_fixture(FixtureSpec(seed=1, shape="multi-chunk"))[0],
]


@st.composite
def mutated_dumps(draw) -> bytes:
    """A packed image after 1-4 byte flips, truncations and splices."""
    data = bytearray(draw(st.sampled_from(FUZZ_IMAGES)))
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("flip", "truncate", "splice")))
        if kind == "flip" and data:
            at = draw(st.integers(0, len(data) - 1))
            data[at] ^= draw(st.integers(1, 255))
        elif kind == "truncate":
            del data[draw(st.integers(0, len(data))):]
        elif kind == "splice":
            donor = draw(st.sampled_from(FUZZ_IMAGES + [b"\xff" * 256]))
            start = draw(st.integers(0, len(donor)))
            piece = donor[start:draw(st.integers(start, len(donor)))]
            at = draw(st.integers(0, len(data)))
            data[at:draw(st.integers(at, len(data)))] = piece
    return bytes(data)


# Every kind of violation open_view can report (the README lists them).
VIOLATION_KINDS = {"name-offset", "bad-name", "chunk-index", "file-span",
                   "chunk-size", "chunk-bounds", "chunk-inference"}


def attempt(fn, *args, **kwargs):
    """Call ``fn``; a MiniFsError is an allowed outcome, anything else propagates."""
    try:
        return fn(*args, **kwargs)
    except MiniFsError:
        return None


def run_cli(argv: list[str]) -> int:
    stdout, stderr = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        return main(argv)


def test_criterion_12_mutation_fuzz():
    seen = {"dumps": 0, "views": 0, "reads": 0}

    @settings(derandomize=True, deadline=None, max_examples=120, database=None)
    @given(dump=mutated_dumps(), force=st.booleans())
    def check(dump, force):
        seen["dumps"] += 1
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            dump_report(dump)
            base = dump.find(b"MINIFS")
            while base >= 0:
                view = attempt(open_view, dump, base, force=True)
                if view is not None:
                    seen["views"] += 1
                    assert {v.kind for v in view.violations} <= VIOLATION_KINDS
                    for i, path in enumerate(view._paths):
                        seen["reads"] += 1
                        attempt(read_file, view, i)
                        if isinstance(path, str):
                            attempt(read_file, view, path)
                    attempt(extract_all, view, work / f"lib-{base}")
                base = dump.find(b"MINIFS", base + 1)

            image = work / "dump.bin"
            image.write_bytes(dump)
            flags = ["--force"] if force else []
            for argv in (["verify", str(image)], ["info", str(image)],
                         ["cat", str(image), "--index", "0"], ["cat", str(image), "boot.bin"],
                         ["extract", str(image), str(work / "cli")]):
                assert run_cli(argv + flags) in (0, 3, 4, 5), argv

    check()
    ok(12, f"{seen['dumps']} mutated images, {seen['views']} views, {seen['reads']} records: "
           "only MiniFsError raised, every command exited 0/3/4/5")
