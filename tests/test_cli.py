"""End-to-end command tests: arguments, output formats, exit codes."""

import hashlib
import logging
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from minifskit.cli import (
    EXIT_INVALID,
    EXIT_IO,
    EXIT_NOT_FOUND,
    EXIT_NO_MINIFS,
    EXIT_OK,
    build_parser,
    main,
)
from minifskit import cli, codec
from minifskit.extractor import open_view, read_file
from minifskit.fixtures import SHAPES, FixtureSpec, make_fixture
from minifskit.structs import CHUNK_RECORD_SIZE, FILE_RECORD_SIZE
from minifskit.scanner import entropy_profile
from helpers import (
    THREE_FILE_ENTRIES,
    build_three_file_image,
    overlapping_hit_dump,
    read_tree,
    write_tree,
)
from test_scanner import entropy_reference


@pytest.fixture
def image_path(tmp_path):
    path = tmp_path / "fs.img"
    path.write_bytes(build_three_file_image())
    return str(path)


@pytest.fixture
def dump_path(tmp_path):
    dump = b"\xff" * 4096 + build_three_file_image() + b"\xff" * 4096
    path = tmp_path / "flash.bin"
    path.write_bytes(dump)
    return str(path)


class TestScan:
    def test_finds_embedded_instance(self, dump_path, capsys):
        assert main(["scan", dump_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "minifs @0x1000" in out
        assert "magic hits: 0x1000" in out

    def test_no_instance_exits_3(self, tmp_path, capsys):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"nothing to see here " * 100)
        assert main(["scan", str(path)]) == EXIT_NO_MINIFS

    def test_empty_file_exits_3(self, tmp_path, capsys):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert main(["scan", str(path)]) == EXIT_NO_MINIFS
        assert "no sections" in capsys.readouterr().out

    def test_entropy_csv_flag(self, dump_path, capsys):
        assert main(["scan", dump_path, "--entropy-csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        first = lines[0].split("\t")
        assert first[0] == "0"
        assert 0.0 <= float(first[1]) <= 8.0

    def test_machine_output_is_stable(self, dump_path, capsys):
        main(["scan", dump_path, "--format", "machine"])
        first = capsys.readouterr().out
        main(["scan", dump_path, "--format", "machine"])
        second = capsys.readouterr().out
        assert first == second
        assert "section.0.label=empty" in first

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["scan", str(tmp_path / "absent.bin")]) == EXIT_IO

    def test_block_size_flag(self, dump_path, capsys):
        main(["scan", dump_path, "--format", "machine", "--block-size", "0x800"])
        assert "block_size=2048" in capsys.readouterr().out


@pytest.mark.parametrize("argv, rule", [
    (["scan", "{dump}", "--block-size", "1000"], "a power of two >= 16"),
    (["entropy", "{dump}", "--block-size", "3"], "a power of two >= 16"),
    (["pack", "{tree}", "{out}", "--cap", "0"], "a chunk cap 1..67108864"),
    (["pack", "{tree}", "{out}", "--unknown-a", "0x1ffffffff"], "an unsigned 32-bit value"),
    (["pack", "{tree}", "{out}", "--unknown-b", "-1"], "an unsigned 32-bit value"),
    # extract and pack have no --jobs: their thread count follows the available CPUs.
    (["pack", "{tree}", "{out}", "--jobs", "1"], None),
    (["pack", "{tree}", "{out}", "--jobs=1"], None),
    (["extract", "{dump}", "{out}", "--jobs", "1"], None),
    (["extract", "{dump}", "{out}", "--jobs=1"], None),
    (["scan", "{dump}", "--empty-byte", "300"], "a byte value 0..255"),
    (["scan", "{dump}", "--empty-byte", "-1"], "a byte value 0..255"),
    # The decoder refuses a chunk above 64 MiB, so pack never writes one.
    (["pack", "{tree}", "{out}", "--cap", "0x4000001"], "a chunk cap 1..67108864"),
    (["pack", "{tree}", "{out}", "--cap=67108865"], "a chunk cap 1..67108864"),
])
def test_bad_numeric_flag_is_a_usage_error(argv, rule, dump_path, tmp_path, capsys):
    write_tree(tmp_path / "tree", THREE_FILE_ENTRIES)
    out = tmp_path / "out.img"
    names = {"dump": dump_path, "tree": str(tmp_path / "tree"), "out": str(out)}
    with pytest.raises(SystemExit) as exited:
        main([arg.format(**names) for arg in argv])
    assert exited.value.code == EXIT_IO
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert "Traceback" not in err
    if rule is None:
        expected = f"minifs: error: unrecognized arguments: {' '.join(argv[3:])}"
    else:
        flag, value = argv[-1].split("=") if "=" in argv[-1] else argv[-2:]
        expected = f"minifs {argv[0]}: error: argument {flag}: {value!r} is not {rule}"
    assert [line for line in err.splitlines() if "error:" in line] == [expected]
    assert not out.exists()


def test_one_parser_serves_every_call(image_path, capsys, monkeypatch):
    """A usage error, a command and --version in one process match fresh processes, on one build."""
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps at the terminal width
    cli._parser.cache_clear()
    runs = [["ls", image_path, "--index", "x"], ["ls", image_path, "--format", "machine"], ["--version"]]
    in_process = []
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on usage errors and after --version
            code = exc.code
        in_process.append((code, *capsys.readouterr()))
    assert builds == [1]
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])))
    fresh = [subprocess.run([sys.executable, "-m", "minifskit.cli", *argv],
                            capture_output=True, text=True, env=env, timeout=60)
             for argv in runs]
    assert in_process == [(r.returncode, r.stdout, r.stderr) for r in fresh]
    assert [code for code, *_ in in_process] == [EXIT_IO, EXIT_OK, EXIT_OK]


class TestEntropy:
    def test_table(self, dump_path, capsys):
        assert main(["entropy", dump_path, "--block-size", "4096"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # 4096 + ~700 + 4096 bytes -> 3 blocks
        offsets = [int(line.split("\t")[0]) for line in lines]
        assert offsets == [0, 4096, 8192]

    def test_table_text_matches_per_block_reference(self, tmp_path, capsys):
        dump, _ = make_fixture(FixtureSpec(seed=1, shape="five-region"))
        path = tmp_path / "fixture.bin"
        path.write_bytes(dump)
        entropies, _ = entropy_reference(dump, 1024)
        expected = "".join(f"{i * 1024}\t{e:.6f}\n" for i, e in enumerate(entropies))
        assert main(["entropy", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == expected
        assert main(["scan", str(path), "--entropy-csv"]) == EXIT_OK
        assert capsys.readouterr().out == expected

    def test_block_size_beyond_the_file(self, tmp_path, capsys):
        path = tmp_path / "small.bin"
        path.write_bytes(b"ab" * 8)
        assert main(["entropy", str(path), "--block-size", "0x10000000000"]) == EXIT_OK
        assert capsys.readouterr().out == "0\t1.000000\n"

    def test_table_is_written_in_bounded_batches(self, tmp_path, monkeypatch):
        dump = random.Random(6).randbytes(4 << 20)
        blocks = len(dump) // 16
        path, table = tmp_path / "random.bin", tmp_path / "table.txt"
        path.write_bytes(dump)
        with open(table, "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            tracemalloc.start()
            try:
                assert main(["entropy", str(path), "--block-size", "16"]) == EXIT_OK
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # The profile's arrays take 10 bytes per block; one batch of rows a few MiB.
        assert peak <= 12 * blocks + (6 << 20)
        entropies = entropy_profile(dump, 16).entropies.tolist()
        assert table.read_text() == "".join(f"{i * 16}\t{e:.6f}\n" for i, e in enumerate(entropies))


class TestInfo:
    def test_human(self, image_path, capsys):
        assert main(["info", image_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "files: 3" in out
        assert "chunks: 2" in out
        assert "unknown word @0x10: 0x00000000" in out

    def test_machine(self, image_path, capsys):
        main(["info", image_path, "--format", "machine"])
        out = capsys.readouterr().out
        assert "files=3" in out
        assert "version=v2" in out
        assert "violations=0" in out

    @pytest.mark.parametrize("damage", ["truncated", "short-chunk"])
    def test_version_agrees_with_scan(self, tmp_path, capsys, damage):
        from minifskit import open_view
        image = bytearray(build_three_file_image())
        layout = open_view(bytes(image)).layout
        if damage == "truncated":
            del image[layout.data_start + 10:]  # chunk 0 runs past the dump
        else:
            at = layout.chunk_table_start + 4
            image[at:at + 4] = (2).to_bytes(4, "big")  # chunk 0 holds 2 bytes
        path = tmp_path / "damaged.img"
        path.write_bytes(bytes(image))
        main(["scan", str(path), "--format", "machine"])
        assert "hit.0.version=v2" in capsys.readouterr().out
        assert main(["info", str(path), "--force", "--format", "machine"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "version=v2" in out
        assert "violations=0" not in out

    def test_large_file_count_reported(self, tmp_path, capsys):
        # Same file count as the real router image this format came from.
        from minifskit import pack
        image = pack([(f"w/f{i:03d}.js", b"x") for i in range(335)])
        path = tmp_path / "large.img"
        path.write_bytes(image)
        assert main(["info", str(path)]) == EXIT_OK
        assert "files: 335" in capsys.readouterr().out


class TestLs:
    def test_rows(self, image_path, capsys):
        assert main(["ls", image_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "fw/mtk/base.css" in out
        assert "boot.bin" in out

    def test_empty_fs(self, tmp_path, capsys):
        from minifskit import pack
        path = tmp_path / "empty.img"
        path.write_bytes(pack([]))
        assert main(["ls", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == ""


class TestCat:
    def test_streams_exact_bytes(self, image_path, capsys):
        assert main(["cat", image_path, "fw/mtk/app.js"]) == EXIT_OK
        got = capsys.readouterr().out.encode()
        expected = dict(THREE_FILE_ENTRIES)["fw/mtk/app.js"]
        assert hashlib.sha256(got).hexdigest() == hashlib.sha256(expected).hexdigest()

    def test_by_index(self, image_path, capsys):
        assert main(["cat", image_path, "--index", "0"]) == EXIT_OK
        assert capsys.readouterr().out.encode() == dict(THREE_FILE_ENTRIES)["boot.bin"]

    def test_hex_index(self, image_path, capsys):
        assert main(["cat", image_path, "--index", "0x1"]) == EXIT_OK
        assert capsys.readouterr().out.encode() == dict(THREE_FILE_ENTRIES)["fw/mtk/app.js"]

    def test_not_found_exits_4(self, image_path):
        assert main(["cat", image_path, "no/such/file"]) == EXIT_NOT_FOUND

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_path_read_ignores_other_bad_names(self, tmp_path, capsys, force):
        from minifskit import pack
        image = pack([("dd/bad.txt", b"x"), ("ok.txt", b"hello")])
        assert image.count(b"dd\x00") == 1
        path = tmp_path / "bad-neighbour.img"
        path.write_bytes(image.replace(b"dd\x00", b"..\x00"))  # record 0's directory
        assert main(["cat", str(path), "ok.txt", *force]) == EXIT_OK
        assert capsys.readouterr().out == "hello"
        assert main(["ls", str(path), *force]) == EXIT_INVALID
        assert "UnsafePath: file record 0: " in capsys.readouterr().err

    def test_selector_required(self, image_path):
        assert main(["cat", image_path]) == EXIT_IO


class TestEmptyDirectoryComponent:
    """An image whose record 0 has the directory string ``a//b``."""

    @pytest.fixture
    def path(self, tmp_path):
        from minifskit import pack
        image = pack([("aa/b/bad.txt", b"x"), ("ok.txt", b"hello")])
        assert image.count(b"aa/b\x00") == 1
        path = tmp_path / "empty-component.img"
        path.write_bytes(image.replace(b"aa/b\x00", b"a//b\x00"))
        return str(path)

    def test_ls_names_the_record(self, path, capsys):
        assert main(["ls", path]) == EXIT_INVALID
        assert capsys.readouterr().err == (
            "error: UnsafePath: file record 0: directory path 'a//b' has an empty component\n"
        )

    def test_extract_force_fails_only_that_record(self, path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        argv = ["extract", path, str(out_dir), "--force", "--format", "machine"]
        assert main(argv) == EXIT_INVALID
        out = capsys.readouterr().out
        assert "file.0.status=failed" in out
        assert "file.1.status=ok" in out
        assert read_tree(out_dir) == {"ok.txt": b"hello"}

    def test_cat_other_path(self, path, capsys):
        assert main(["cat", path, "ok.txt"]) == EXIT_OK
        assert capsys.readouterr().out == "hello"

    def test_cat_by_index(self, path, capsys):
        assert main(["cat", path, "--index", "0"]) == EXIT_OK
        assert capsys.readouterr().out == "x"
        assert main(["cat", path, "a//b/bad.txt"]) == EXIT_NOT_FOUND


class TestExtract:
    def test_materializes_tree(self, image_path, tmp_path, capsys):
        out_dir = tmp_path / "rootfs"
        assert main(["extract", image_path, str(out_dir)]) == EXIT_OK
        assert read_tree(out_dir) == dict(THREE_FILE_ENTRIES)
        assert "extracted 3/3 files" in capsys.readouterr().out

    def test_machine_report(self, image_path, tmp_path, capsys):
        out_dir = tmp_path / "rootfs"
        main(["extract", image_path, str(out_dir), "--format", "machine"])
        out = capsys.readouterr().out
        assert "written=3" in out
        assert "failed=0" in out
        assert "file.0.status=ok" in out


class TestVerify:
    def test_clean_image(self, image_path, capsys):
        assert main(["verify", image_path]) == EXIT_OK
        assert "verify: OK" in capsys.readouterr().out

    def test_flipped_config_word_flags_chunk(self, tmp_path, capsys):
        from minifskit import open_view
        image = bytearray(build_three_file_image())
        view = open_view(bytes(image))
        image[view.layout.data_start] = 0x5A  # v2 word -> legacy v1 word
        path = tmp_path / "bad.img"
        path.write_bytes(bytes(image))
        assert main(["verify", str(path)]) == EXIT_INVALID
        out = capsys.readouterr().out
        assert "chunk 0: fail" in out
        assert "chunk 1: ok" in out

    def test_machine_format(self, image_path, capsys):
        main(["verify", image_path, "--format", "machine"])
        out = capsys.readouterr().out
        assert "chunk.0.status=ok" in out
        assert "result=ok" in out


def _damaged_multi_chunk(damage: str) -> bytes:
    image = bytearray(make_fixture(FixtureSpec(seed=1, shape="multi-chunk"))[0])
    view = open_view(bytes(image))
    assert len(view.chunks) == 3
    if damage == "config-word":
        image[view.layout.data_start] ^= 0x01  # 5D -> 5C: no known configuration word
    elif damage == "truncated":
        last = view.chunks[-1]
        del image[view.layout.data_start + last.data_offset + last.compressed_size // 2:]
    else:  # "overrun": chunk 1 decodes past a declared size 10 bytes short
        at = view.layout.chunk_table_start + CHUNK_RECORD_SIZE + 8
        image[at:at + 4] = (view.chunks[1].decompressed_size - 10).to_bytes(4, "big")
    return bytes(image)


class TestDecodeJobs:
    """verify and extract print and write the same bytes whatever the thread count."""

    DAMAGES = {"config-word": "chunk.0.error=UnknownConfigWord: ",
               "truncated": "chunk.2.error=TruncatedImage: ",
               "overrun": "chunk.1.error=SizeMismatch: "}

    @pytest.mark.parametrize("name", [*SHAPES, *DAMAGES])
    def test_outputs_do_not_depend_on_jobs(self, name, tmp_path, capsys, monkeypatch):
        if name in SHAPES:
            dump = make_fixture(FixtureSpec(seed=1, shape=name))[0]
        else:
            dump = _damaged_multi_chunk(name)
        path = tmp_path / "dump.bin"
        path.write_bytes(dump)
        outcomes = []
        for tag, cpus in [("one", 1), ("two", 2), ("default", None)]:
            out = tmp_path / tag
            with monkeypatch.context() as patch:
                if cpus is not None:  # both decode on every CPU the process may use
                    patch.setattr(codec, "_available_cpus", lambda: cpus)
                verify = main(["verify", str(path), "--force", "--format", "machine"])
                verified = capsys.readouterr().out
                extract = main(["extract", str(path), str(out), "--force", "--format", "machine"])
                extracted = capsys.readouterr().out.replace(str(out), "<out>")
            outcomes.append((verify, verified, extract, extracted, read_tree(out)))
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
        verify, verified, extract, extracted, _ = outcomes[0]
        chunks = int(verified.split("chunks=")[1].split()[0])
        assert [line.split(".")[1] for line in verified.splitlines()
                if line.startswith("chunk.") and ".status=" in line] == [str(i) for i in range(chunks)]
        if name in SHAPES:
            assert (verify, extract) == (EXIT_OK, EXIT_OK)
            assert "result=ok" in verified and "failed=0" in extracted
        else:
            assert (verify, extract) == (EXIT_INVALID, EXIT_INVALID)
            assert verified.count(".error=") == 1 and self.DAMAGES[name] in verified
            error_type = self.DAMAGES[name].split("=")[1]
            assert f".error={error_type}" in extracted


class TestCatBeforeDamage:
    """cat of a file that ends before its chunk's damage prints its bytes; one past the damage fails as before."""

    def test_overrun(self, tmp_path, capsysbinary):
        clean = make_fixture(FixtureSpec(seed=1, shape="multi-chunk"))[0]
        spans = [(rec.offset_in_chunk, rec.file_size) for rec in open_view(clean).files if rec.chunk_index == 1]
        assert spans == [(0, 800), (800, 700)]  # records 2 and 3; chunk 1 now declares 1490 bytes
        path = tmp_path / "overrun.bin"
        path.write_bytes(_damaged_multi_chunk("overrun"))
        assert main(["cat", str(path), "--force", "--index", "2"]) == EXIT_OK
        assert capsysbinary.readouterr().out == read_file(open_view(clean), 2)
        assert main(["cat", str(path), "--force", "--index", "3"]) == EXIT_INVALID
        assert capsysbinary.readouterr() == (
            b"", b"error: SizeMismatch: stream decodes past the expected 1490 bytes\n")


class TestPackCommand:
    def test_pack_verify_extract_cycle(self, tmp_path, capsys):
        source = tmp_path / "tree"
        write_tree(source, THREE_FILE_ENTRIES)
        image = tmp_path / "packed.img"
        assert main(["pack", str(source), str(image)]) == EXIT_OK
        assert main(["verify", str(image)]) == EXIT_OK

        out_dir = tmp_path / "extracted"
        assert main(["extract", str(image), str(out_dir)]) == EXIT_OK
        assert read_tree(out_dir) == read_tree(source)

    def test_double_roundtrip_identical_trees(self, image_path, tmp_path):
        first = tmp_path / "first"
        assert main(["extract", image_path, str(first)]) == EXIT_OK
        repacked = tmp_path / "repacked.img"
        assert main(["pack", str(first), str(repacked)]) == EXIT_OK
        second = tmp_path / "second"
        assert main(["extract", str(repacked), str(second)]) == EXIT_OK
        assert read_tree(first) == read_tree(second)

    @pytest.mark.parametrize("entry", ["a/.", "."])
    def test_dot_name_writes_nothing(self, tmp_path, capsys, monkeypatch, entry):
        from minifskit import packer
        monkeypatch.setattr(packer, "_collect_tree", lambda tree: [(entry, b"x")])
        image = tmp_path / "out.img"
        assert main(["pack", str(tmp_path), str(image)]) == EXIT_INVALID
        assert capsys.readouterr().err == "error: UnsafePath: file name is '.'\n"
        assert not image.exists()

    def test_header_word_options(self, tmp_path, capsys):
        source = tmp_path / "tree"
        write_tree(source, [("a.txt", b"hello")])
        image = tmp_path / "img"
        assert main(["pack", str(source), str(image),
                     "--unknown-a", "0x1234", "--mimic-vendor"]) == EXIT_OK
        main(["info", str(image), "--format", "machine"])
        out = capsys.readouterr().out
        assert "unknown_a=0x00001234" in out
        assert "unknown_b=0x00000005" in out  # first file size, 5 bytes


class TestBaseSelection:
    def test_auto_detect_embedded(self, dump_path, capsys):
        assert main(["ls", dump_path]) == EXIT_OK
        assert "boot.bin" in capsys.readouterr().out

    def test_explicit_base(self, dump_path, capsys):
        assert main(["ls", dump_path, "--base", "0x1000"]) == EXIT_OK
        assert "boot.bin" in capsys.readouterr().out

    def test_wrong_base_fails(self, dump_path):
        assert main(["ls", dump_path, "--base", "0"]) == EXIT_INVALID

    def test_multiple_instances_need_explicit_base(self, tmp_path, capsys):
        image = build_three_file_image()
        dump = image + b"\xff" * 128 + image
        path = tmp_path / "two.bin"
        path.write_bytes(dump)
        assert main(["ls", str(path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "0x0" in err and hex(len(image) + 128) in err
        assert main(["ls", str(path), "--base", "0"]) == EXIT_OK

    def test_no_instance(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"\x00" * 256)
        assert main(["info", str(path)]) == EXIT_INVALID


    def test_auto_detect_parses_each_hit_once(self, tmp_path, monkeypatch, capsys):
        from minifskit import open_view, structs
        image = build_three_file_image()
        damaged = bytearray(image)
        at = open_view(image).layout.chunk_table_start + 8
        damaged[at:at + 4] = (100 << 20).to_bytes(4, "big")  # parses, fails validation
        dump = bytes(damaged) + b"\xff" * 250 + image + bytes(damaged)
        path = tmp_path / "decoys.bin"
        path.write_bytes(dump)
        calls = {"parse_instance": 0, "validate_layout": 0, "_strings": 0}
        for name in calls:
            real = getattr(structs, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(structs, name, counting)
        assert main(["cat", str(path), "boot.bin"]) == EXIT_OK
        assert capsys.readouterr().out.encode() == dict(THREE_FILE_ENTRIES)["boot.bin"]
        assert dump.count(b"MINIFS") == 3
        # Chunk 0's declared size screens the damaged hits out unparsed.  The
        # pool's strings are scanned once, for the lookup: validation reads a
        # pool of printable strings without finding each one's end.
        assert calls == {"parse_instance": 1, "validate_layout": 1, "_strings": 1}
        # --force opens every hit that parses, each once, and finds three candidates.
        assert main(["cat", str(path), "boot.bin", "--force"]) == EXIT_INVALID
        assert "multiple MiniFS instances found" in capsys.readouterr().err
        assert calls == {"parse_instance": 4, "validate_layout": 4, "_strings": 1}

    def test_each_unclean_hit_passed_over_logs_why(self, tmp_path, capsys, caplog):
        from minifskit import open_view
        image = build_three_file_image()
        layout = open_view(image).layout
        screened = bytearray(image)
        at = layout.chunk_table_start + 8
        screened[at:at + 4] = (100 << 20).to_bytes(4, "big")  # chunk 0's size: screened out
        screened = bytes(screened)
        opened = bytearray(image)
        at = layout.files_start + FILE_RECORD_SIZE + 4
        opened[at:at + 4] = (0xFFFF).to_bytes(4, "big")  # record 1's name: opened, unclean
        opened = bytes(opened)
        dump = screened + b"\xff" * 250 + image + opened
        path = tmp_path / "decoys.bin"
        path.write_bytes(dump)
        argv = ["info", str(path), "--format", "machine"]
        assert main(argv) == EXIT_OK
        quiet = capsys.readouterr()
        with caplog.at_level(logging.DEBUG, logger="minifskit"):
            assert main(argv) == EXIT_OK
        assert capsys.readouterr() == quiet
        assert "base=" + str(len(screened) + 250) in quiet.out
        violations = open_view(opened, force=True).violations
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("minifskit.scanner", logging.DEBUG,
             "MINIFS hit at 0 screened out: chunk-size: [0] decompressed size 104857600 "
             "above the 67108864-byte decoder limit"),
            ("minifskit.cli", logging.DEBUG,
             f"MINIFS hit at {len(dump) - len(opened)} passed over: "
             f"{len(violations)} violations, first: {violations[0]}"),
            ("minifskit.scanner", logging.DEBUG,
             f"searched {len(dump)} bytes in 1 windows: 3 MINIFS hits, 0 refused from their "
             f"header words, 0 refused on reading their tables, 1 screened out, 2 opened, "
             f"0 over budget"),
        ]
        assert str(violations[0]).startswith("name-offset: [1] name offset 65535 outside")


class TestOverlappingHits:
    """A header every 4 KiB, each with a file table running to the end of the dump."""

    @pytest.mark.parametrize("kib", [64, 256, 1024])
    def test_records_parsed_grow_linearly(self, kib, tmp_path, monkeypatch, capsys):
        from minifskit import structs
        dump = overlapping_hit_dump(kib << 10)
        path = tmp_path / "overlapping.bin"
        path.write_bytes(dump)
        records = []
        real = structs.parse_instance

        def counting(data, base=0):
            parsed = real(data, base)
            records.append(len(parsed[3]))
            return parsed

        monkeypatch.setattr(structs, "parse_instance", counting)
        for argv, code in [
            (["info", str(path)], EXIT_INVALID),
            (["cat", str(path), "--index", "0"], EXIT_INVALID),
            (["scan", str(path), "--format", "machine"], EXIT_NO_MINIFS),
            (["info", str(path), "--force"], EXIT_INVALID),  # several candidates
        ]:
            records.clear()
            assert main(argv) == code
            # Without --force every hit is screened out; forced, the budget holds.
            assert sum(records) <= (0 if "--force" not in argv else len(dump) // 20 + 1024)
        assert capsys.readouterr().out.count("hit.") == 2 * (kib // 4)


def _damaged_three_file(damage: str) -> bytes:
    image = bytearray(build_three_file_image())
    layout = open_view(bytes(image)).layout
    if damage == "chunk-size":  # chunk 0 declares 100 MiB
        at, value = layout.chunk_table_start + 8, 100 << 20
    elif damage == "chunk-index":  # record 0 (boot.bin) names chunk 7 of 2
        at, value = layout.files_start + 8, 7
    else:  # "file-span": record 2 (base.css, all 400 bytes of chunk 1) claims 500
        at, value = layout.files_start + 2 * FILE_RECORD_SIZE + 16, 500
    image[at:at + 4] = value.to_bytes(4, "big")
    return bytes(image)


class TestOversizedChunkRecord:
    @pytest.fixture
    def oversized_path(self, tmp_path):
        path = tmp_path / "oversized.img"
        path.write_bytes(_damaged_three_file("chunk-size"))
        return str(path)

    def test_verify_reports_chunk_size_violation(self, oversized_path, capsys):
        assert main(["verify", oversized_path]) == EXIT_INVALID
        assert main(["verify", oversized_path, "--base", "0"]) == EXIT_INVALID
        assert "table violation: chunk-size: [0]" in capsys.readouterr().out

    def test_verify_force_fails_only_that_chunk(self, oversized_path, capsys):
        assert main(["verify", oversized_path, "--force", "--format", "machine"]) == EXIT_INVALID
        out = capsys.readouterr().out
        assert "chunk.0.error=ChunkTooLarge: " in out
        assert "chunk.1.status=ok" in out

    def test_cat_exits_5(self, oversized_path, capsys):
        assert main(["cat", oversized_path, "boot.bin"]) == EXIT_INVALID
        assert main(["cat", oversized_path, "boot.bin", "--force"]) == EXIT_INVALID
        assert "ChunkTooLarge" in capsys.readouterr().err
        assert main(["cat", oversized_path, "fw/mtk/base.css", "--force"]) == EXIT_OK


class TestForcedDamage:
    """--force opens damaged tables; verify still reports what it went past."""

    @pytest.mark.parametrize("damage", ["chunk-size", "chunk-index", "file-span"])
    def test_verify_lists_violations_and_exits_5(self, damage, tmp_path, capsys):
        path = tmp_path / "damaged.img"
        path.write_bytes(_damaged_three_file(damage))
        for flags in (["--force"], ["--base", "0"]):
            assert main(["verify", str(path), *flags, "--format", "machine"]) == EXIT_INVALID
            lines = capsys.readouterr().out.splitlines()
            violations = [line for line in lines if line.startswith("violation.")]
            assert violations[0].startswith(f"violation.0={damage}: ")
            assert lines[:len(violations)] == violations
            assert all("=" in line for line in lines)
            assert lines[-1] == "result=fail"
            assert any(line.startswith("chunk.") for line in lines) == ("--force" in flags)
        assert main(["verify", str(path), "--force"]) == EXIT_INVALID
        out = capsys.readouterr().out
        assert out.startswith(f"table violation: {damage}: ") and "verify: FAIL" in out

    def test_cat_of_record_past_chunk_table_exits_5(self, tmp_path, capsys):
        path = tmp_path / "damaged.img"
        path.write_bytes(_damaged_three_file("chunk-index"))
        assert main(["cat", str(path), "--force", "--index", "0"]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: TruncatedTable: ")
        assert main(["cat", str(path), "--force", "--index", "1"]) == EXIT_OK


class TestForceMode:
    @pytest.fixture
    def damaged_path(self, tmp_path):
        # Truncate into the chunk data: tables fine, bounds violated.
        from minifskit import open_view
        image = build_three_file_image()
        cut = open_view(image).layout.data_start + 3
        path = tmp_path / "damaged.img"
        path.write_bytes(image[:cut])
        return str(path)

    def test_validation_failure_without_force(self, damaged_path):
        assert main(["ls", damaged_path, "--base", "0"]) == EXIT_INVALID

    def test_force_lists_anyway(self, damaged_path, capsys):
        assert main(["ls", damaged_path, "--base", "0", "--force"]) == EXIT_OK
        assert "boot.bin" in capsys.readouterr().out


class TestFixtureCommand:
    def test_writes_dump_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "fixture.bin"
        assert main(["fixture", "--shape", "five-region", "--seed", "7",
                     "--out", str(out)]) == EXIT_OK
        manifest = (tmp_path / "fixture.bin.manifest").read_text()
        assert "shape=five-region" in manifest
        assert "magic_offset=8192" in manifest
        assert main(["scan", str(out)]) == EXIT_OK
