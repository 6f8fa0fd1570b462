"""Name pool construction, chunk planning and image emission."""

import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from minifskit import (
    PackOptions,
    extract_all,
    list_files,
    open_view,
    pack,
    read_file,
)
from minifskit import codec, packer
from minifskit.fixtures import SHAPES, FixtureSpec, make_fixture
from minifskit.errors import (
    FileTooLarge,
    MiniFsError,
    NamePoolTooLarge,
    NonAsciiName,
    UnsafePath,
)
from minifskit.packer import build_name_pool, plan_chunks
from minifskit.structs import FileRecord, join_paths
from helpers import THREE_FILE_ENTRIES, join_one, name_at, read_tree, region_layout, write_tree


class TestBuildNamePool:
    def test_shared_directory(self):
        pool, offsets = build_name_pool([("fw/mtk", "base.css"), ("fw/mtk", "app.js")])
        assert pool == b"fw/mtk\x00base.css\x00app.js\x00"
        assert offsets == [(0, 7), (0, 16)]

    def test_root_entry(self):
        pool, offsets = build_name_pool([("", "root.bin")])
        assert pool == b"\x00root.bin\x00"
        assert offsets == [(0, 1)]
        assert name_at(pool, 0) == ""

    def test_duplicate_entries_share_offsets(self):
        pool, offsets = build_name_pool([("d", "f.txt"), ("d", "f.txt")])
        assert offsets[0] == offsets[1]
        assert pool == b"d\x00f.txt\x00"

    def test_string_shared_between_dir_and_name(self):
        pool, offsets = build_name_pool([("etc", "etc")])
        assert pool == b"etc\x00"
        assert offsets == [(0, 0)]

    def test_offsets_resolve_back(self):
        entries = [("a/b", "x.css"), ("a/b", "y.js"), ("", "z"), ("c", "x.css")]
        pool, offsets = build_name_pool(entries)
        for (directory, name), (path_off, name_off) in zip(entries, offsets):
            assert name_at(pool, path_off) == directory
            assert name_at(pool, name_off) == name

    def test_non_ascii_rejected(self):
        with pytest.raises(NonAsciiName):
            build_name_pool([("dir", "nam\xe9")])

    def test_separator_in_name_rejected(self):
        with pytest.raises(UnsafePath):
            build_name_pool([("dir", "a/b")])

    def test_pool_size_limit(self):
        with pytest.raises(NamePoolTooLarge):
            build_name_pool([("dirname", "filename")], limit=10)

    @pytest.mark.parametrize("pair", [("a", ".."), ("/abs", "x"), ("a", ""), ("a", "."),
                                      ("a//b", "x"), ("a/", "x"), (".", "x"), ("a/./b", "x")])
    def test_pairs_the_reader_refuses(self, pair):
        with pytest.raises(UnsafePath):
            build_name_pool([pair])


def accepts(fn, *args) -> bool:
    try:
        fn(*args)
    except MiniFsError:
        return False
    return True


def reader_accepts(directory: str, name: str) -> bool:
    """Whether ``join_paths`` joins the pair from a pool holding both strings."""
    pool = b"".join(text.encode("latin-1") + b"\x00" for text in (directory, name))
    return isinstance(join_paths(pool, [FileRecord(0, len(directory) + 1, 0, 0, 0)])[0], str)


# "\x01" is a control byte and "\xe9" a non-ASCII character; neither is NUL,
# so each survives as one string in a hand-built pool.
path_text = st.text(alphabet=["a", ".", "/", "\x01", "\xe9"], max_size=6)


class TestOnePathRule:
    """Reading and packing accept exactly the same (directory, name) pairs."""

    @given(directory=path_text, name=path_text)
    def test_name_pool_agrees_with_full_path(self, directory, name):
        assert accepts(build_name_pool, [(directory, name)]) == reader_accepts(directory, name)

    @given(path=path_text)
    def test_pack_agrees(self, path):
        directory, _, name = path.rpartition("/")
        expected = not path.startswith("/") and reader_accepts(directory, name)
        assert accepts(pack, [(path, b"")]) == expected


# 15 components of 255 bytes and one of 55: with a 200-byte name, a joined path of 4,096 bytes.
LONG_DIRECTORY = "/".join(["d" * 255] * 15 + ["d" * 55])


class TestLengthRule:
    """Names and joined paths that Linux could not create are refused alike
    by reading and packing, with their length and not their text."""

    @pytest.mark.parametrize("directory, name, refusal", [
        ("", "n" * 255, None),
        ("", "n" * 256, "file name of 256 bytes is longer than NAME_MAX (255)"),
        ("d" * 255, "n", None),
        ("a/" + "d" * 256, "n", "directory component of 256 bytes is longer than NAME_MAX (255)"),
        (LONG_DIRECTORY, "n" * 200, None),
        (LONG_DIRECTORY, "n" * 201, "joined path of 4097 bytes is longer than PATH_MAX (4096)"),
        # Lengths come first: this directory's ".." is not reached.
        ("../" + LONG_DIRECTORY[3:], "n" * 201, "joined path of 4097 bytes is longer than PATH_MAX (4096)"),
    ])
    def test_reading_and_packing_agree(self, directory, name, refusal, tmp_path):
        path = f"{directory}/{name}" if directory else name
        for call in (lambda: join_one(f"{directory}\0{name}\0".encode(),
                                      FileRecord(0, len(directory) + 1, 0, 0, 0)),
                     lambda: build_name_pool([(directory, name)]),
                     lambda: pack([(path, b"")])):
            if refusal is None:
                call()
            else:
                with pytest.raises(UnsafePath) as raised:
                    call()
                assert str(raised.value) == refusal
        if refusal is None:  # and extraction writes what packing took, under any output directory
            view = open_view(pack([(path, b"x")]))
            assert read_file(view, path) == b"x"
            assert extract_all(view, tmp_path / "out").written == 1


class TestOneCheckPerString:
    def test_pack_checks_each_distinct_string_once(self, monkeypatch):
        checked = {"directory": [], "name": []}
        for half in ("directory", "name"):
            real = getattr(packer, f"check_{half}")

            def counting(text, half=half, real=real):
                checked[half].append(text)
                return real(text)

            monkeypatch.setattr(packer, f"check_{half}", counting)
        entries = [(f"www/{d}/file{i}.css", b"x") for d in ("css", "js") for i in range(100)]
        assert len(open_view(pack(entries)).files) == 200
        assert checked["directory"] == ["www/css", "www/js"]
        assert sorted(checked["name"]) == sorted(f"file{i}.css" for i in range(100))


def packed_tables(sizes, cap):
    """Per file record of ``pack`` (entries in order): its chunk and offset; then each chunk's declared size."""
    entries = [(f"f{i:03}", bytes(size)) for i, size in enumerate(sizes)]
    view = open_view(pack(entries, PackOptions(max_chunk_decompressed=cap, sort_entries=False)))
    assert view.violations == []
    return ([(r.chunk_index, r.offset_in_chunk) for r in view.files],
            [c.decompressed_size for c in view.chunks])


class TestPlanChunks:
    def test_first_fit(self):
        assert plan_chunks([100, 100, 100], 250) == [range(0, 2), range(2, 3)]
        assert packed_tables([100, 100, 100], 250) == ([(0, 0), (0, 100), (1, 0)], [200, 100])
        assert plan_chunks([100, 150, 1], 250) == [range(0, 2), range(2, 3)]  # a chunk may fill the cap

    def test_single_file_at_cap(self):
        assert plan_chunks([395008], 395008) == [range(0, 1)]
        assert packed_tables([395008], 395008) == ([(0, 0)], [395008])

    def test_cap_above_the_decoder_limit(self):
        # The reader refuses a chunk that declares more than 64 MiB.
        with pytest.raises(ValueError):
            plan_chunks([1], codec.DEFAULT_OUTPUT_LIMIT + 1)
        assert plan_chunks([1], codec.DEFAULT_OUTPUT_LIMIT) == [range(0, 1)]
        assert packed_tables([1], codec.DEFAULT_OUTPUT_LIMIT) == ([(0, 0)], [1])

    def test_file_over_cap(self):
        with pytest.raises(FileTooLarge):
            plan_chunks([251], 250)

    def test_no_entries(self):
        assert plan_chunks([], 1024) == []

    def test_zero_size_files(self):
        assert plan_chunks([0, 0, 0], 16) == [range(0, 3)]
        assert packed_tables([0, 0, 0], 16) == ([(0, 0)] * 3, [0])

    @settings(deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=999), max_size=40))
    def test_sizes_are_conserved(self, sizes):
        chunks = plan_chunks(sizes, 1000)
        assert [i for chunk in chunks for i in chunk] == list(range(len(sizes)))
        assert sum(packed_tables(sizes, 1000)[1]) == sum(sizes)

    @settings(deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=999), min_size=1, max_size=40))
    def test_entries_tile_their_chunks(self, sizes):
        chunks = plan_chunks(sizes, 1000)
        assert chunks[-1][-1] == len(sizes) - 1  # last entry in last chunk
        records, chunk_sizes = packed_tables(sizes, 1000)
        assert [chunk for chunk, _ in records] == [ci for ci, chunk in enumerate(chunks) for _ in chunk]
        for ci, chunk in enumerate(chunks):
            cursor = 0
            for i in chunk:
                assert records[i] == (ci, cursor)
                cursor += sizes[i]
            assert cursor == chunk_sizes[ci]
            assert cursor <= 1000


class TestPackMemory:
    def test_holds_only_the_chunks_in_flight(self, monkeypatch):
        # 256 files of 16 KiB in 16 chunks of 256 KiB, compressed one at a time.
        monkeypatch.setattr(codec, "_available_cpus", lambda: 1)
        chunk = 256 << 10
        entries = [(f"d/f{i:03}", bytes([i]) * (16 << 10)) for i in range(256)]
        first = b"".join(content for _, content in entries[:16])
        tracemalloc.start()
        try:
            codec.compress_chunk(first)
            encoder = tracemalloc.get_traced_memory()[1]
            del first
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            image = pack(entries, PackOptions(max_chunk_decompressed=chunk))
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert len(open_view(image).chunks) == 16
        assert peak < 2 * chunk + encoder


class TestPack:
    def test_emitted_image_validates_clean(self, three_file_image):
        view = open_view(three_file_image)
        assert view.violations == []

    def test_layout_matches_region_arithmetic(self, three_file_image):
        view = open_view(three_file_image)
        assert view.layout == region_layout(view.header, len(view.chunks))

    def test_empty_tree_is_bare_header(self):
        image = pack([])
        assert len(image) == 32
        assert image[:6] == b"MINIFS"
        assert image[0x14:0x18] == b"\x00\x00\x00\x00"
        assert image[0x1C:0x20] == b"\x00\x00\x00\x00"

    def test_last_record_rule(self):
        image = pack(
            [(f"f{i}.bin", bytes(64)) for i in range(9)],
            PackOptions(max_chunk_decompressed=128),
        )
        view = open_view(image)
        assert view.files[-1].chunk_index + 1 == len(view.chunks)

    def test_mimic_vendor_header_word(self):
        entries = sorted(THREE_FILE_ENTRIES)
        image = pack(entries, PackOptions(mimic_vendor=True))
        view = open_view(image)
        assert view.header.unknown_b == len(entries[0][1])

    def test_header_word_overrides(self):
        image = pack([("a.txt", b"hi")],
                     PackOptions(unknown_a=0xDEADBEEF, unknown_b=0xCAFEF00D))
        view = open_view(image)
        assert view.header.unknown_a == 0xDEADBEEF
        assert view.header.unknown_b == 0xCAFEF00D

    def test_sorted_vs_input_order(self):
        entries = [("z.txt", b"z"), ("a.txt", b"a")]
        sorted_view = open_view(pack(entries))
        kept_view = open_view(pack(entries, PackOptions(sort_entries=False)))
        assert [e.path for e in list_files(sorted_view)] == ["a.txt", "z.txt"]
        assert [e.path for e in list_files(kept_view)] == ["z.txt", "a.txt"]

    def test_directory_tree_equals_in_memory(self, tmp_path):
        write_tree(tmp_path, THREE_FILE_ENTRIES)
        assert pack(tmp_path) == pack(THREE_FILE_ENTRIES)

    def test_deterministic(self):
        assert pack(THREE_FILE_ENTRIES) == pack(THREE_FILE_ENTRIES)

    def test_parallel_compression_identical(self, monkeypatch):
        entries = [(f"f{i}.bin", bytes([i]) * 300) for i in range(8)]
        opts = PackOptions(max_chunk_decompressed=700)
        images = []
        for cpus in (1, 4):
            monkeypatch.setattr(codec, "_available_cpus", lambda: cpus)
            images.append(pack(entries, opts))
        assert images[0] == images[1]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_default_jobs_equal_one(self, shape, seed, monkeypatch):
        dump, manifest = make_fixture(FixtureSpec(seed=seed, shape=shape))
        view = open_view(dump, manifest.magic_offset)
        tree = [(e.path, read_file(view, e.index)) for e in list_files(view)]
        # The default cap, and one file per chunk.
        for cap in (PackOptions.max_chunk_decompressed, max(len(content) for _, content in tree)):
            monkeypatch.setattr(codec, "_available_cpus", lambda: 1)
            serial = pack(tree, PackOptions(max_chunk_decompressed=cap))
            for cpus in (1, 2, 8):
                monkeypatch.setattr(codec, "_available_cpus", lambda: cpus)
                assert pack(tree, PackOptions(max_chunk_decompressed=cap)) == serial

    def test_unsafe_entries_rejected(self):
        for path in ("/abs.txt", "../up.txt", "a/../b.txt", "a//b.txt", "dir/", "a/.", "."):
            with pytest.raises(UnsafePath):
                pack([(path, b"x")])


small_trees = st.dictionaries(
    keys=st.text(alphabet="abcd/", min_size=1, max_size=12).filter(
        lambda p: not p.startswith("/") and not p.endswith("/") and "//" not in p
        and ".." not in p.split("/")
    ),
    values=st.binary(max_size=2048),
    max_size=12,
)


def exists_on_disk(entries) -> bool:
    """Whether no path is also a directory of another ("a" and "a/b/c")."""
    return not {p[:i] for p in entries for i, c in enumerate(p) if c == "/"} & set(entries)


class TestRoundTrip:
    def test_tree_level(self, tmp_path):
        source = tmp_path / "source"
        write_tree(source, THREE_FILE_ENTRIES)
        image = pack(source)
        out = tmp_path / "out"
        extract_all(open_view(image), out)
        assert read_tree(out) == read_tree(source)

    def test_image_level_semi_roundtrip(self, tmp_path, three_file_image):
        # Repacking an extraction keeps the file list; bytes may differ.
        out = tmp_path / "out"
        extract_all(open_view(three_file_image), out)
        repacked = pack(out)
        original = open_view(three_file_image)
        again = open_view(repacked)
        assert [(e.path, e.file_size) for e in list_files(original)] == \
               [(e.path, e.file_size) for e in list_files(again)]

    @settings(max_examples=25, deadline=None)
    @given(entries=small_trees)
    def test_roundtrip_property(self, entries):
        items = sorted(entries.items())
        # A path may collide with a directory prefix of another ("a" vs
        # "a/b"); those trees cannot exist on disk, skip them.
        paths = set(entries)
        prefixes = {p.rsplit("/", 1)[0] for p in paths if "/" in p}
        if paths & prefixes or any(p.rsplit("/", 1)[-1] == ".." for p in paths):
            return
        image = pack(items, PackOptions(max_chunk_decompressed=4096))
        view = open_view(image)
        assert view.violations == []
        assert {e.path: read_file(view, e.index) for e in list_files(view)} == entries

    @settings(max_examples=25, deadline=None)
    @given(
        entries=small_trees,
        options=st.builds(
            PackOptions,
            max_chunk_decompressed=st.sampled_from([2048, 3000, 4096, PackOptions.max_chunk_decompressed]),
            mimic_vendor=st.booleans(),
            unknown_a=st.integers(0, 0xFFFF_FFFF),
            unknown_b=st.none() | st.integers(0, 0xFFFF_FFFF),
        ),
    )
    def test_pack_of_its_extraction_is_the_same_image(self, entries, options):
        if not exists_on_disk(entries):
            return
        image = pack(sorted(entries.items()), options)
        with tempfile.TemporaryDirectory() as out:
            assert extract_all(open_view(image), out).written == len(entries)
            assert pack(out, options) == image
