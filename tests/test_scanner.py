"""Entropy profiling, section segmentation and magic search."""

import dataclasses
import itertools
import logging
import math
import operator
import random
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from minifskit import (
    Version,
    dump_report,
    entropy_profile,
    find_magic,
    segment_sections,
)
from minifskit import codec, scanner, structs
from minifskit.cli import main
from minifskit.errors import EmptyInput, MiniFsError
from minifskit.extractor import open_view
from minifskit.scanner import iter_views
from helpers import build_three_file_image


def entropy_oracle(block: bytes) -> float:
    """Textbook frequency/log2 computation, independent of the library path."""
    counts = Counter(block)
    return -sum(
        (n / len(block)) * math.log2(n / len(block)) for n in counts.values()
    )


def entropy_reference(dump: bytes, block_size: int) -> tuple[list[float], list[int | None]]:
    """One block at a time: the floats ``entropy_profile`` must reproduce exactly.

    Returns the entropies and the constant bytes.  Each block's nonzero
    byte frequencies, in ascending byte order, go through ``p * log2(p)``
    and one 1-D ``sum``.
    """
    entropies: list[float] = []
    constants: list[int | None] = []
    view = memoryview(dump)
    for start in range(0, len(dump), block_size):
        block = view[start:start + block_size]
        counts = np.bincount(np.frombuffer(block, dtype=np.uint8), minlength=256)
        p = counts[counts > 0] / len(block)
        entropies.append(min(float(-(p * np.log2(p)).sum()) + 0.0, 8.0))
        constants.append(block[0] if counts[block[0]] == len(block) else None)
    return entropies, constants


def sections_reference(dump: bytes, block_size: int, high_threshold: float, empty_byte: int,
                       ) -> list[tuple[int, int, str, str]]:
    """Per-block labels merged with ``groupby``: (start, end, label, ``float.hex`` of the mean).

    Each mean is a left fold of the run's entropies, the order the
    builtin ``sum`` used before Python 3.12, divided by the run length.
    """
    entropies, constants = entropy_reference(dump, block_size)
    labels = ["empty" if c == empty_byte else "high" if e >= high_threshold else "low"
              for e, c in zip(entropies, constants)]
    sections, at = [], 0
    for label, run in itertools.groupby(zip(labels, entropies), key=operator.itemgetter(0)):
        run = [e for _, e in run]
        end = min((at + len(run)) * block_size, len(dump))
        sections.append((at * block_size, end, label, float.hex(reduce(operator.add, run) / len(run))))
        at += len(run)
    return sections


def assert_profile_matches_reference(dump: bytes, block_size: int) -> None:
    entropies, constants = entropy_reference(dump, block_size)
    profile = entropy_profile(dump, block_size)
    # float.hex also tells -0.0 from 0.0, which print differently.
    assert list(map(float.hex, profile.entropies.tolist())) == list(map(float.hex, entropies))
    assert profile.constant_bytes.tolist() == [-1 if c is None else c for c in constants]


def assert_sections_match_reference(dump: bytes, block_size: int, threshold: float,
                                    empty_byte: int) -> None:
    profile = segment_sections(entropy_profile(dump, block_size), threshold, empty_byte)
    assert [(s.start, s.end, s.label, float.hex(s.mean_entropy)) for s in profile.sections] \
        == sections_reference(dump, block_size, threshold, empty_byte)
    assert all(type(s.start) is type(s.end) is int and type(s.mean_entropy) is float
               for s in profile.sections)


@contextmanager
def spans(span_bytes: int, cpus: int, budget: int = scanner._BATCH_BUDGET,
          slice_runs: int = scanner._SLICE_RUNS):
    """``entropy_profile`` with spans of ``span_bytes``, a workspace budget of ``budget``
    bytes and ``np.flatnonzero`` slices of ``slice_runs`` runs on ``cpus`` CPUs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scanner, "_SPAN_BYTES", span_bytes)
        patch.setattr(scanner, "_BATCH_BUDGET", budget)
        patch.setattr(scanner, "_SLICE_RUNS", slice_runs)
        patch.setattr(codec, "_available_cpus", lambda: cpus)
        yield


def mixed_dump(seed: int, tail: int) -> bytes:
    """Random, erased (0xFF) and text bytes, about 52 KB, ending in ``tail`` random bytes."""
    rng = random.Random(seed)
    return (rng.randbytes(20_000) + b"\xff" * 9_000 + b"<p>router firmware text</p>\n" * 700
            + rng.randbytes(3_000) + bytes(1_000) + rng.randbytes(tail))


@st.composite
def profiled_dumps(draw) -> tuple[bytes, int]:
    """Whole blocks plus an optional partial tail, each over its own alphabet.

    Alphabets of 1 to 256 byte values put the distinct-byte count of a
    block on both sides of numpy's 128-element pairwise-summation block,
    and a few alphabet sizes shared by many blocks make equal counts.
    """
    block_size = draw(st.sampled_from([16, 64, 256, 1024]))
    sizes = draw(st.lists(st.integers(1, 256), min_size=1, max_size=4))
    blocks = draw(st.integers(0, 12))
    tail = draw(st.integers(0 if blocks else 1, block_size - 1))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dump = bytearray()
    for length in [block_size] * blocks + [tail]:
        alphabet = rng.sample(range(256), rng.choice(sizes))
        weights = [rng.expovariate(1.0) for _ in alphabet]
        dump += bytes(rng.choices(alphabet, weights, k=length))
    return bytes(dump), block_size


def naive_find(dump: bytes, needle: bytes = b"MINIFS") -> list[int]:
    """Byte-by-byte substring scan used as the search oracle."""
    return [i for i in range(len(dump) - len(needle) + 1) if dump[i:i + len(needle)] == needle]


class TestEntropyProfile:
    def test_constant_blocks_are_zero(self):
        profile = entropy_profile(b"\xff" * 4096, 1024)
        assert profile.entropies.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_two_equiprobable_symbols(self):
        profile = entropy_profile(bytes([0x00, 0xFF]) * 512, 1024)
        assert profile.entropies.tolist() == [1.0]

    def test_uniform_random_blocks_near_eight(self):
        rng = random.Random(1234)
        dump = bytes(rng.randrange(256) for _ in range(65536))
        profile = entropy_profile(dump, 4096)
        assert len(profile.entropies) == 16
        for start, e in zip(range(0, 65536, 4096), profile.entropies):
            assert 7.9 <= e <= 8.0
            assert e == pytest.approx(entropy_oracle(dump[start:start + 4096]), abs=1e-9)

    def test_partial_final_block_uses_actual_length(self):
        dump = b"\x00" * 1024 + bytes([0, 255]) * 256  # 512-byte tail
        profile = entropy_profile(dump, 1024)
        assert profile.entropies.tolist() == [0.0, 1.0]
        assert profile.length == 1536

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            entropy_profile(b"", 1024)

    def test_block_size_must_be_power_of_two(self):
        for bad in (0, 8, 100, 1000):
            with pytest.raises(ValueError):
                entropy_profile(b"x" * 64, bad)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(profiled_dumps())
    def test_bit_identical_to_per_block_reference(self, case):
        assert_profile_matches_reference(*case)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(profiled_dumps(), st.integers(1, 5), st.integers(1, 3), st.sampled_from([1, 4]),
           st.integers(1, 600))
    def test_spans_bit_identical_to_per_block_reference(self, case, span_blocks, batch_blocks,
                                                         cpus, slice_runs):
        # Spans of a few blocks, with batches that end inside a span or at its
        # end, and run-start slices that end inside a batch or at its end.
        dump, block_size = case
        with spans(span_blocks * block_size, cpus,
                   batch_blocks * scanner._workspace_bytes(block_size), slice_runs):
            assert_profile_matches_reference(dump, block_size)

    @pytest.mark.parametrize("cpus", [1, 4])
    @pytest.mark.parametrize("block_size", [16, 1024])
    @pytest.mark.parametrize("tail", [0, 1, 700])
    def test_4_kib_spans_bit_identical_to_per_block_reference(self, block_size, cpus, tail):
        dump = mixed_dump(block_size, tail)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads interleave between nearly every bytecode
        try:
            with spans(4096, cpus):
                assert_profile_matches_reference(dump, block_size)
                for threshold, empty_byte in ((7.5, 0xFF), (3.0, 0x00), (1.0, -1)):
                    assert_sections_match_reference(dump, block_size, threshold, empty_byte)
        finally:
            sys.setswitchinterval(interval)

    def test_a_dump_under_two_spans_starts_no_pool(self, monkeypatch):
        started = []
        monkeypatch.setattr(codec, "ThreadPoolExecutor",
                            lambda **kwargs: started.append(kwargs) or ThreadPoolExecutor(**kwargs))
        asked = []
        monkeypatch.setattr(codec, "_available_cpus", lambda: asked.append(8) or 8)
        one_span = random.Random(5).randbytes(scanner._SPAN_BYTES)
        entropy_profile(one_span + bytes(1023), 1024)  # the partial tail is no span
        entropy_profile(one_span, 16)
        assert started == asked == []  # nor reads the affinity set or a cgroup file
        assert_profile_matches_reference(one_span[:-1024] + mixed_dump(5, 700), 1024)
        assert started == [{"max_workers": 2}]
        monkeypatch.setattr(codec, "_available_cpus", lambda: 1)
        entropy_profile(one_span * 3, 1024)
        assert started == [{"max_workers": 2}]

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_each_span_reuses_one_workspace(self, monkeypatch, cpus):
        # 52 full blocks in spans of 8 and a 700-byte tail; batches of 3
        # blocks on the calling thread, 6 on a pool thread.
        calls = []
        kernel = scanner._profile_rows

        def spy(rows, plogp, entropies, constants, workspace):
            calls.append((rows.__array_interface__["data"][0], rows.shape[1], workspace))
            kernel(rows, plogp, entropies, constants, workspace)

        monkeypatch.setattr(scanner, "_profile_rows", spy)
        dump = mixed_dump(7, 700)
        data = np.frombuffer(dump, dtype=np.uint8).__array_interface__["data"][0]
        with spans(8 * 1024, cpus, 3 * scanner._workspace_bytes(1024)):
            assert_profile_matches_reference(dump, 1024)
        assert len(calls) == (6 * 3 + 2 if cpus == 1 else 6 * 2 + 1) + 1
        by_span = {}
        for at, width, workspace in calls:
            key = "tail" if width < 1024 else (at - data) // 1024 // 8
            by_span.setdefault(key, []).append(workspace)
        assert len(by_span) == 7 + 1
        assert all(len({id(w) for w in spaces}) == 1 for spaces in by_span.values())
        workspaces = {id(spaces[0]) for spaces in by_span.values()}
        # One thread allocates once per call; a pool thread once per span.
        assert len(workspaces) == (1 if cpus == 1 else 8)

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_workspace_memory_at_1024_byte_blocks(self, cpus):
        # 4 MiB of random blocks in eight spans.  On top of the profile's 10
        # bytes per block, the calling thread holds one workspace and each
        # pool thread one more, twice the budget when a pool runs, and a
        # thread measuring a batch also holds one np.flatnonzero result (8
        # bytes per run, at most 8,192 runs: 64 KiB) and a few KiB of small
        # arrays.
        dump = random.Random(4).randbytes(4 << 20)
        blocks = len(dump) // 1024
        with spans(len(dump) // 8, cpus):
            tracemalloc.start()
            try:
                entropy_profile(dump, 1024)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        workspaces = scanner._BATCH_BUDGET if cpus == 1 else (1 + cpus) * 2 * scanner._BATCH_BUDGET
        assert peak <= 10 * blocks + workspaces + cpus * 96 * 1024

    def test_logs_its_block_span_and_thread_counts(self, tmp_path, capsys, caplog):
        path = tmp_path / "flash.bin"
        path.write_bytes(mixed_dump(6, 700))
        argv = ["scan", str(path), "--format", "machine"]
        for cpus, threads in ((1, 1), (4, 4)):
            with spans(4096, cpus):
                code = main(argv)
                quiet = capsys.readouterr()
                caplog.clear()
                with caplog.at_level(logging.DEBUG, logger="minifskit.scanner"):
                    assert main(argv) == code
            assert capsys.readouterr() == quiet
            assert [r.getMessage() for r in caplog.records if "profiling" in r.getMessage()] == [
                f"profiling 52 full blocks of 1024 bytes in 13 spans on {threads} threads, "
                "53 blocks per batch in a workspace of 379904 bytes per thread"]
        # A batch fills the budget, 864 KiB on the calling thread and twice
        # that on a pool thread, at 304 workspace bytes per 16-byte block and
        # 7,168 per 1024-byte block, but holds no more blocks than the dump; a
        # block over the budget is a batch of its own, and one over the dump
        # is measured over the dump's length.
        dump = random.Random(6).randbytes(2 << 20) + mixed_dump(6, 700)
        for block_size, cpus, per_batch, width in ((16, 1, 2910, 16), (1024, 1, 123, 1024),
                                                   (1024, 2, 246, 1024), (65536, 1, 4, 65536),
                                                   (1 << 20, 1, 1, 1 << 20),
                                                   (4 << 20, 1, 1, len(dump))):
            caplog.clear()
            with spans(64 * 1024, cpus), caplog.at_level(logging.DEBUG,
                                                          logger="minifskit.scanner"):
                entropy_profile(dump, block_size)
            workspace = per_batch * (3 * width + 16 * min(width, 256))
            assert caplog.records[-1].getMessage().endswith(
                f" on {cpus} threads, {per_batch} blocks per batch in a workspace of "
                f"{workspace} bytes per thread")
            assert workspace <= scanner._BATCH_BUDGET * (1 if cpus == 1 else 2) or per_batch == 1

    def test_exact_threshold_block_is_high(self):
        # 128 values x4 and 64 values x8: exactly 4 + 3.5 bits per byte.
        block = bytes(range(128)) * 4 + bytes(range(128, 192)) * 8
        dump = block + block[:100]
        profile = entropy_profile(dump, 1024)
        entropies, constants = entropy_reference(dump, 1024)
        assert profile.entropies.tolist() == entropies
        assert profile.constant_bytes.tolist() == [-1 if c is None else c for c in constants]
        assert profile.entropies[0] == 7.5
        assert segment_sections(profile).sections[0].label == "high"

    def test_block_size_beyond_the_dump(self):
        profile = entropy_profile(b"ab" * 8, 1 << 40)
        assert (profile.entropies.tolist(), profile.constant_bytes.tolist()) == ([1.0], [-1])
        assert entropy_reference(b"ab" * 8, 1 << 40) == ([1.0], [None])

    def test_fields_are_float64_and_int16_arrays(self):
        profile = entropy_profile(b"\xff" * 32 + bytes(range(32)), 16)
        assert (profile.entropies.dtype, profile.constant_bytes.dtype) == (np.float64, np.int16)
        assert len(profile.entropies) == len(profile.constant_bytes) == 4
        assert profile.constant_bytes.tolist() == [0xFF, 0xFF, -1, -1]

    @given(st.binary(min_size=1, max_size=2048))
    def test_bounds(self, data):
        for e in entropy_profile(data, 256).entropies:
            assert 0.0 <= e <= 8.0

    @given(st.binary(min_size=16, max_size=256), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, block, rnd):
        shuffled = bytearray(block)
        rnd.shuffle(shuffled)
        original = entropy_profile(block, 256).entropies
        permuted = entropy_profile(bytes(shuffled), 256).entropies
        assert original == pytest.approx(permuted, abs=1e-12)


class TestSegmentSections:
    def test_merges_equal_neighbours(self):
        rng = random.Random(7)
        noise = bytes(rng.randrange(256) for _ in range(2048))
        dump = b"\xff" * 1024 + noise + b"\xff" * 1024
        profile = segment_sections(entropy_profile(dump, 1024))
        assert [s.label for s in profile.sections] == ["empty", "high", "empty"]
        assert [(s.start, s.end) for s in profile.sections] == [
            (0, 1024), (1024, 3072), (3072, 4096)]

    def test_all_random_is_one_high_section(self):
        rng = random.Random(8)
        dump = bytes(rng.randrange(256) for _ in range(8192))
        profile = segment_sections(entropy_profile(dump, 1024))
        assert [s.label for s in profile.sections] == ["high"]

    def test_all_erased_is_one_empty_section(self):
        profile = segment_sections(entropy_profile(b"\xff" * 8192, 1024))
        assert [s.label for s in profile.sections] == ["empty"]

    def test_constant_non_empty_byte_is_low(self):
        # Zero-filled padding has zero entropy too, but is not erased flash.
        profile = segment_sections(entropy_profile(b"\x00" * 2048, 1024))
        assert [s.label for s in profile.sections] == ["low"]

    def test_empty_byte_override(self):
        profile = segment_sections(entropy_profile(b"\x00" * 2048, 1024), empty_byte=0x00)
        assert [s.label for s in profile.sections] == ["empty"]

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(profiled_dumps(), st.sampled_from([7.5, 3.0, 1.0]), st.integers(-1, 255))
    @example(case=(random.Random(3).randbytes(1 << 16), 16), threshold=7.5, empty_byte=0xFF)
    @example(case=(b"\x00" * 64 + bytes(range(64)), 16), threshold=7.5, empty_byte=-1)
    def test_sections_match_per_block_reference(self, case, threshold, empty_byte):
        # The first example is one run of 4,096 blocks, long enough for a
        # pairwise or compensated sum to differ from the left fold.
        assert_sections_match_reference(*case, threshold, empty_byte)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(profiled_dumps(), st.sampled_from([7.5, 3.0, 1.0]), st.integers(-1, 255),
           st.integers(1, 5), st.sampled_from([1, 4]))
    @example(case=(random.Random(3).randbytes(1 << 16), 16), threshold=7.5, empty_byte=0xFF,
             span_blocks=256, cpus=4)
    def test_spans_sections_match_per_block_reference(self, case, threshold, empty_byte,
                                                      span_blocks, cpus):
        dump, block_size = case
        with spans(span_blocks * block_size, cpus):
            assert_sections_match_reference(dump, block_size, threshold, empty_byte)

    def test_profile_and_sections_memory_per_block(self):
        dump = random.Random(4).randbytes(4 << 20)
        blocks = len(dump) // 16
        tracemalloc.start()
        try:
            profile = entropy_profile(dump, 16)
            profile_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            segment_sections(profile)
            sections_peak = tracemalloc.get_traced_memory()[1]  # the profile included
        finally:
            tracemalloc.stop()
        assert profile_peak <= 16 * blocks
        assert sections_peak <= 32 * blocks
        # Eight spans on four threads: on top of the profile's 10 bytes per
        # block, the calling thread and the four pool threads hold one 1.7 MiB
        # workspace each, within four times 28 bytes per byte of 128 KiB.
        with spans(len(dump) // 8, 4):
            tracemalloc.start()
            try:
                entropy_profile(dump, 16)
                threaded_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert threaded_peak <= 10 * blocks + 4 * 28 * (128 * 1024)

    @given(st.binary(min_size=1, max_size=4096))
    def test_sections_tile_the_dump(self, data):
        profile = segment_sections(entropy_profile(data, 256))
        sections = profile.sections
        assert sections[0].start == 0
        assert sections[-1].end == len(data)
        for left, right in zip(sections, sections[1:]):
            assert left.end == right.start
            assert left.label != right.label


def find_offsets(dump: bytes) -> list[int]:
    """Every ``MINIFS`` offset by a ``bytes.find`` loop, the search oracle."""
    offsets = []
    at = dump.find(structs.MAGIC)
    while at >= 0:
        offsets.append(at)
        at = dump.find(structs.MAGIC, at + 1)
    return offsets


def pass_record(size: int, windows: int, *, header: int = 0, tables: int = 0, screened: int = 0,
                opened: int = 0, over: int = 0) -> str:
    """The debug record that one :func:`iter_views` pass logs."""
    return (f"searched {size} bytes in {windows} windows: "
            f"{header + tables + screened + opened + over} MINIFS hits, {header} refused from "
            f"their header words, {tables} refused on reading their tables, {screened} screened "
            f"out, {opened} opened, {over} over budget")


# Magics that overlap a false start: a repeated M, a repeated MI, an MINI, a MIN,
# an INIF.
_OVERLAPS = [b"MINIFS", b"MMINIFS", b"MIMINIFS", b"MINIMINIFS", b"MINIFSMINIFS", b"MINIFMINIFS",
             b"MINMINIFS", b"MINIFINIFS"]


_TOKENS = [b"M", b"I", b"MI", b"NI", b"IN", b"IF", b"FS", b"MINI", b"INIF", b"NIFS", b"MINIF"]


@st.composite
def magic_search_dumps(draw) -> bytes:
    """Dumps of 0 to 48 bytes, or about one or two search windows.

    The filler is random, or a repeated run of ``M``, ``I``, ``MI``,
    ``NI``, ``IN``, ``IF``, ``FS``, ``MINI``, ``INIF``, ``NIFS`` and
    ``MINIF`` tokens, dense in the magic's 16-bit words, at either
    parity, and in magics that span two tokens.  Magics and overlapping
    near-magics are planted at any offset, even or odd, and at 6 bytes
    before to 1 byte after each window edge.
    """
    edges = draw(st.integers(0, 2))
    size = edges * scanner._WINDOW + draw(st.integers(-8 if edges else 0, 48))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        dump = bytearray(rng.randbytes(size))
    else:
        run = b"".join(rng.choices(_TOKENS, k=rng.randint(1, 9)))
        dump = bytearray((run * (size // len(run) + 1))[:size])
    near_edges = st.tuples(st.integers(1, 2), st.integers(-6, 1))
    anywhere = st.integers(0, max(0, size - 1))
    for at, planted in draw(st.lists(st.tuples(
            st.one_of(near_edges.map(lambda t: t[0] * scanner._WINDOW + t[1]), anywhere),
            st.sampled_from(_OVERLAPS)), max_size=5)):
        if at + len(planted) <= size:
            dump[at:at + len(planted)] = planted
    return bytes(dump)


class TestFindMagic:
    def test_planted_image_found_with_version(self):
        image = build_three_file_image()
        dump = b"\x00" * 4096 + image
        hits = find_magic(dump)
        assert [h.offset for h in hits] == [4096]
        assert hits[0].version_hint is Version.V2

    def test_absent(self):
        assert find_magic(b"\x12\x34" * 1024) == []

    def test_text_mention_is_unknown(self):
        dump = b"<html><body>the MINIFS file system</body></html>"
        hits = find_magic(dump)
        assert len(hits) == 1
        assert hits[0].version_hint is Version.UNKNOWN

    def test_back_to_back_magics_all_reported(self):
        dump = b"MINIFSMINIFS"
        assert [h.offset for h in find_magic(dump)] == [0, 6]

    @settings(max_examples=30, deadline=None)
    @given(
        filler=st.binary(min_size=0, max_size=2000),
        positions=st.lists(st.integers(min_value=0, max_value=2000), max_size=3),
    )
    def test_matches_naive_oracle(self, filler, positions):
        dump = bytearray(filler)
        for pos in positions:
            if pos + 6 <= len(dump):
                dump[pos:pos + 6] = b"MINIFS"
        dump = bytes(dump)
        assert [h.offset for h in find_magic(dump)] == naive_find(dump)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(magic_search_dumps())
    @example(b"")
    @example(b"MINIF")
    @example(b"MINIFS")
    @example(b"MMINIFS")
    @example(b"MINIFSM")
    @example(b"NI" * (scanner._WINDOW // 2) + b"MINIFS")
    @example(b"I" + b"NI" * (scanner._WINDOW // 2) + b"MINIFS")
    def test_search_matches_a_find_loop(self, dump):
        assert [at for at, _, _ in iter_views(dump)] == find_offsets(dump)

    # Every window's marks narrowed by every word, and none narrowed.
    @pytest.mark.parametrize("sparse", [-1, 1 << 20])
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(magic_search_dumps())
    def test_search_matches_a_find_loop_at_any_sparse_limit(self, sparse, dump):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scanner, "_SPARSE", sparse)
            assert [at for at, _, _ in iter_views(dump)] == find_offsets(dump)

    @pytest.mark.parametrize("filler", [None, b"NI", b"MINIF"])
    def test_search_memory_stays_under_1_mib(self, filler):
        # Three windows and a partial one of random bytes or of a repeated
        # near-magic, without a hit: the mark rows and every temporary of
        # a window, narrowed by every word or not, stay under the 1 MiB a
        # fresh mapping would cost.
        size = 3 * scanner._WINDOW + 1000
        dump = random.Random(1).randbytes(size) if filler is None else (filler * size)[:size]
        tracemalloc.start()
        try:
            assert list(iter_views(dump)) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def views_by_find_loop(dump: bytes) -> list:
    """The reference search: a ``bytes.find`` loop that opens every hit in force mode."""
    views = []
    at = dump.find(structs.MAGIC)
    while at >= 0:
        try:
            view = open_view(dump, at, force=True)
        except MiniFsError:
            view = None
        views.append((at, view))
        at = dump.find(structs.MAGIC, at + 1)
    return views


def view_keys(views) -> list:
    return [
        (at, view is None, None if view is None else (view.header, view.violations))
        for at, view in views
    ]


def assert_matches_find_loop(dump: bytes) -> list:
    """Check :func:`iter_views` and :func:`find_magic` against the find loop, hit by hit.

    Opened hits compare equal.  A screened hit must be unclean in the
    oracle, with the same layout; any other hit must not parse.  Forced,
    every hit that parses is opened.  Returns what :func:`iter_views` yields.
    """
    views = list(iter_views(dump))
    oracle = views_by_find_loop(dump)
    assert [at for at, _, _ in views] == [at for at, _ in oracle]
    summaries = []
    for (at, layout, view), (_, expected) in zip(views, oracle):
        if view is not None:
            assert view_keys([(at, view)]) == view_keys([(at, expected)])
            assert layout == view.layout
            summaries.append(summary_of(expected))
        elif layout is not None:
            assert layout == expected.layout and expected.violations
            summaries.append(dataclasses.replace(summary_of(expected), violations=1))
        else:
            assert expected is None
            summaries.append(None)
    hits = find_magic(dump)
    assert [hit.summary for hit in hits] == summaries
    assert [hit.version_hint for hit in hits] == [
        Version.UNKNOWN if view is None else view.version for _, view in oracle]
    forced = [(at, view) for at, _, view in iter_views(dump, force=True)]
    assert view_keys(forced) == view_keys(oracle)
    return views


def summary_of(view) -> scanner.MinifsSummary:
    return scanner.MinifsSummary(
        base=view.base, file_count=view.header.file_count,
        name_table_size=view.header.name_table_size, chunk_count=len(view.chunks),
        version=view.version, violations=len(view.violations),
    )


_WORDS = st.one_of(
    st.integers(0, 8),
    st.integers(0xFFFF_FFF0, 0xFFFF_FFFF),
    st.integers(0, 0xFFFF_FFFF),
)


@st.composite
def hit_dumps(draw) -> bytes:
    """Filler with headers planted anywhere, back to back, or cut off at the end.

    Some headers' tables are sized to end exactly at the dump's end, or
    one byte past it; one may be a real image.
    """
    dump = bytearray(draw(st.binary(max_size=400)))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(dump)))
        dump[at:at] = build_three_file_image()
    previous = None
    for _ in range(draw(st.integers(0, 5))):
        if len(dump) < len(structs.MAGIC):
            break
        last = len(dump) - len(structs.MAGIC)
        at = draw(st.one_of(
            st.integers(0, last),
            st.integers(max(0, len(dump) - 31), last),
            st.just(min(last, previous + len(structs.MAGIC)) if previous is not None else 0),
        ))
        file_count = draw(_WORDS)
        end = draw(st.sampled_from(["any", "exact", "one-past"]))
        tables = at + structs.HEADER_SIZE + structs.FILE_RECORD_SIZE * file_count
        name_table_size = {"exact": len(dump), "one-past": len(dump) + 1}.get(end, 0) - tables
        if not 0 <= name_table_size <= 0xFFFF_FFFF:
            name_table_size = draw(_WORDS)
        header = (structs.MAGIC + draw(st.binary(min_size=14, max_size=14))
                  + file_count.to_bytes(4, "big") + bytes(4)
                  + name_table_size.to_bytes(4, "big"))[:len(dump) - at]
        dump[at:at + len(header)] = header
        previous = at
    return bytes(dump)


class TestIterViews:
    @settings(max_examples=300, deadline=None)
    @given(hit_dumps())
    @example(bytes(64) + structs.MAGIC + bytes(26))  # a whole header that ends the dump
    @example(bytes(64) + structs.MAGIC + bytes(25))
    @example(bytes(64) + structs.MAGIC[:5])
    def test_same_views_as_a_find_loop(self, dump):
        assert_matches_find_loop(dump)

    @pytest.mark.parametrize("planted", [(-6, 0), (-5,), (-3, 3), (-1,)])
    def test_magic_across_the_window_edge(self, planted):
        # Hits that end at, straddle or start at a window edge 1 MiB or
        # more into the dump, with tables that fit, and a clean image after
        # them.
        edge = -(-(1 << 20) // scanner._WINDOW) * scanner._WINDOW
        dump = bytearray(edge + 4096)
        for at in planted:
            dump[edge + at:edge + at + 6] = structs.MAGIC
        image = build_three_file_image()
        dump[edge + 64:edge + 64 + len(image)] = image
        dump = bytes(dump)
        views = assert_matches_find_loop(dump)
        assert [at for at, _, _ in views] == [edge + at for at in planted] + [edge + 64]
        assert views[-1][2].violations == []

    def test_each_refused_hit_logs_its_reason(self, caplog):
        dump = bytearray(b"\xff" * 512)
        dump[0:32] = structs.MAGIC + bytes(26)  # fits: an empty file table
        dump[100:132] = structs.MAGIC + bytes(26)
        dump[100 + 0x14:100 + 0x18] = (1).to_bytes(4, "big")
        dump[132:152] = bytes(8) + (0xFFFF).to_bytes(4, "big") + bytes(8)  # chunk 65535
        dump[200:206] = structs.MAGIC  # FF words: tables far past the dump
        dump[500:506] = structs.MAGIC  # header cut off
        dump = bytes(dump)
        with caplog.at_level(logging.DEBUG, logger="minifskit.scanner"):
            views = list(iter_views(dump))
        assert [(at, view is None) for at, _, view in views] == [
            (0, False), (100, True), (200, True), (500, True),
        ]
        assert [r.levelno for r in caplog.records] == [logging.DEBUG] * 4
        assert [r.getMessage() for r in caplog.records] == [
            "MINIFS hit at 100 refused: chunk table extends past the 512-byte dump",
            f"MINIFS hit at 200 refused: declared tables end at "
            f"{200 + 32 + 0xFFFF_FFFF + 20 * 0xFFFF_FFFF}, past the 512-byte dump",
            "MINIFS hit at 500 refused: the 512-byte dump ends inside its header",
            pass_record(512, 1, header=2, tables=1, opened=1),
        ]

    def test_debug_logging_leaves_scan_output_identical(self, tmp_path, capsys, caplog):
        image = build_three_file_image()
        dump = (b"\xff" * 64 + b"MINIFS" + b"\xff" * 58 + image
                + b"<p>MINIFS</p>" + bytes(64) + b"MINIFS")
        path = tmp_path / "flash.bin"
        path.write_bytes(dump)
        argv = ["scan", str(path), "--format", "machine"]
        assert main(argv) == 0
        quiet = capsys.readouterr()
        with caplog.at_level(logging.DEBUG, logger="minifskit.scanner"):
            assert main(argv) == 0
        assert capsys.readouterr() == quiet
        assert "hit.0.offset=64\nhit.0.version=unknown\n" in quiet.out
        assert f"hit.3.offset={len(dump) - 6}\nhit.3.version=unknown\n" in quiet.out
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            f"profiling 0 full blocks of 1024 bytes in 0 spans on 1 threads, 1 blocks per "
            f"batch in a workspace of {3 * len(dump) + 16 * 256} bytes per thread",
            "MINIFS hit at 64 refused", f"MINIFS hit at {len(dump) - 6} refused",
            f"searched {len(dump)} bytes in 1 windows",
        ]
        assert caplog.records[-1].getMessage() == pass_record(len(dump), 1, header=2, opened=2)


_THREE_FILES = build_three_file_image()


@st.composite
def word_mutations(draw) -> bytes:
    """The three-file image with one 4-byte word replaced, mostly in its tables."""
    image = bytearray(_THREE_FILES)
    tables_end = open_view(_THREE_FILES).layout.data_start + 4
    at = draw(st.one_of(st.integers(0, tables_end - 4), st.integers(0, len(image) - 4)))
    image[at:at + 4] = draw(_WORDS).to_bytes(4, "big")
    return bytes(image)


class TestScreen:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(hit_dumps(), word_mutations()))
    def test_screens_out_only_unclean_hits(self, dump):
        for at, view in views_by_find_loop(dump):
            if at + structs.HEADER_SIZE > len(dump):
                continue
            try:
                layout, violation = structs.screen_instance(dump, at)
            except MiniFsError as exc:
                assert view is None
                with pytest.raises(type(exc)) as raised:
                    open_view(dump, at, force=True)
                assert str(raised.value) == str(exc)
                continue
            assert view is not None and layout == view.layout
            # A screened hit's violation is one the full validation reports.
            assert violation is None or violation in view.violations
            assert view.violations or violation is None

    def test_each_fact_screens(self):
        layout = open_view(_THREE_FILES).layout
        last = layout.chunk_table_start - structs.FILE_RECORD_SIZE
        for at, word, kind in [
            (layout.files_start, 0xFFFF, "name-offset"),  # first record's path
            (last + 4, 0xFFFF, "name-offset"),  # last record's name
            (layout.files_start + 8, 7, "chunk-index"),  # first record's chunk
            (layout.chunk_table_start + 4, 12, "chunk-size"),
            (layout.chunk_table_start + 8, 100 << 20, "chunk-size"),
            (layout.chunk_table_start, 1 << 20, "chunk-bounds"),
        ]:
            image = bytearray(_THREE_FILES)
            image[at:at + 4] = word.to_bytes(4, "big")
            violation = structs.screen_instance(bytes(image), 0)[1]
            assert violation.kind == kind
            assert violation in open_view(bytes(image), force=True).violations
        assert structs.screen_instance(_THREE_FILES, 0) == (layout, None)

    def test_pass_record_counts_screened_hits(self, caplog):
        image = bytearray(_THREE_FILES)
        at = open_view(_THREE_FILES).layout.files_start
        image[at:at + 4] = (0xFFFF).to_bytes(4, "big")  # first record's path: outside the pool
        dump = bytes(image) + _THREE_FILES
        for force, counts in ((False, dict(screened=1, opened=1)), (True, dict(opened=2))):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="minifskit.scanner"):
                views = list(iter_views(dump, force=force))
            assert [at for at, _, _ in views] == [0, len(image)]
            assert caplog.records[-1].getMessage() == pass_record(len(dump), 1, **counts)

    def test_record_budget_bounds_hits_that_pass_the_screen(self, monkeypatch, caplog):
        # A header every 4 KiB, each with a 1-20 byte name pool and a file
        # table that ends where one chunk record and its 13 bytes of data
        # end the dump: every hit passes the O(1) checks, though the file
        # tables overlap.
        tail = structs.ChunkRecord(0, 13, 0).encode() + bytes(13)
        dump = bytearray(64 * 4096)
        for base in range(0, len(dump) - 4096 + 1, 4096):
            file_count, pool = divmod(len(dump) - len(tail) - base - 33, structs.FILE_RECORD_SIZE)
            dump[base:base + 32] = structs.MiniFsHeader(file_count, pool + 1).encode()
        dump[-len(tail):] = tail
        dump = bytes(dump)
        budget = len(dump) // structs.FILE_RECORD_SIZE + 1024
        offsets = [at for at, _ in views_by_find_loop(dump)]
        assert len(offsets) >= 64
        assert all(structs.screen_instance(dump, at)[1] is None for at in offsets)
        records = []
        real = structs.parse_instance

        def counting(data, base=0):
            parsed = real(data, base)
            records.append(len(parsed[3]))
            return parsed

        monkeypatch.setattr(structs, "parse_instance", counting)
        for force in (False, True):
            records.clear()
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="minifskit.scanner"):
                views = list(iter_views(dump, force=force))
            assert [at for at, _, _ in views] == offsets
            assert sum(records) <= budget
            assert views[0][2] is not None  # the largest hit fits a budget on its own
            refused = [at for at, layout, view in views if layout is None]
            assert refused and all(view is None for _, layout, view in views if layout is None)
            *logged, last = caplog.records
            assert [r.getMessage().split(":")[0] for r in logged] == [
                f"MINIFS hit at {at} not opened" for at in refused]
            assert all("budget" in r.getMessage() for r in logged)
            assert last.getMessage() == pass_record(
                len(dump), 1, opened=len(offsets) - len(refused), over=len(refused))
            opened = [view for _, _, view in views if view is not None]
            assert sum(len(view.files) for view in opened) == sum(records)


class TestDumpReport:
    def test_parses_each_hit_once(self, monkeypatch):
        dump = (b"\xff" * 64 + b"MINIFS" + b"\xff" * 58 + build_three_file_image()
                + b"<p>MINIFS</p>" + bytes(64))
        calls = []
        real = structs.parse_instance

        def counting(data, base=0):
            calls.append(base)
            return real(data, base)

        monkeypatch.setattr(structs, "parse_instance", counting)
        report = dump_report(dump)
        assert len(report.hits) == 3
        # The first hit's FF words declare tables past the dump, so it is
        # refused from its header words without being parsed.
        assert len(calls) == 2
        assert report.hits[0].offset == 64
        assert report.hits[0].version_hint is Version.UNKNOWN
        assert report.hits[0].summary is None
        assert [m.base for m in report.instances] == [128]

    def test_five_region_dump(self):
        # padding | high-entropy blob | image | padding | config text
        rng = random.Random(99)
        image = build_three_file_image()
        image_region = image + b"\xff" * (2048 - len(image) % 1024 if len(image) % 1024 else 0)
        regions = [
            b"\xff" * 4096,
            bytes(rng.randrange(256) for _ in range(4096)),
            image_region,
            b"\xff" * 4096,
            b"wlan0.channel=6\nwlan0.power=20\n" * 66,
        ]
        dump = b"".join(regions)
        report = dump_report(dump)
        labels = [s.label for s in report.sections]
        assert labels == ["empty", "high", "low", "empty", "low"]
        assert report.sections[2].minifs is not None
        assert report.sections[2].minifs.base == 8192
        assert report.sections[2].minifs.version is Version.V2
        assert [s.minifs is None for s in report.sections] == [True, True, False, True, True]

    def test_bare_image(self):
        report = dump_report(build_three_file_image())
        assert len(report.sections) == 1
        assert report.sections[0].minifs is not None
        assert report.instances[0].file_count == 3

    def test_pure_text_has_no_annotation(self):
        report = dump_report(b"set option value\n" * 300)
        assert all(s.minifs is None for s in report.sections)
        assert all(s.label == "low" for s in report.sections)
        assert report.instances == []

    def test_empty_dump(self):
        report = dump_report(b"")
        assert report.sections == []
        assert report.hits == []

    def test_machine_rendering_is_stable(self):
        dump = b"\xff" * 2048 + build_three_file_image()
        assert dump_report(dump).to_machine() == dump_report(dump).to_machine()

    def test_hits_attach_like_a_linear_search(self):
        # Image, random bytes, erased flash, repeated: some sections hold
        # several clean hits, and only the first of them is attached.
        rng = random.Random(5)
        image = build_three_file_image()
        dump = b"".join(image + rng.randbytes(1024) + b"\xff" * 1024 for _ in range(40))
        report = dump_report(dump)
        expected = [None] * len(report.sections)
        for hit in report.hits:
            if hit.summary is None or hit.summary.violations:
                continue
            for i, section in enumerate(report.sections):
                if section.start <= hit.offset < section.end and expected[i] is None:
                    expected[i] = hit.summary
                    break
        assert [s.minifs for s in report.sections] == expected
        assert 0 < len(report.instances) < len(report.hits) == 40

    def test_unparseable_hit_reported_but_not_annotated(self):
        dump = b"\x00" * 512 + b"MINIFS then nothing sensible" + b"\x00" * 512
        report = dump_report(dump)
        assert len(report.hits) == 1
        assert report.instances == []
