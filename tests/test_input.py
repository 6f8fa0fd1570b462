"""How dumps reach the library: mapped files, pipes and empty files.

The command line maps a regular, non-empty input file read-only and
reads anything else (pipes, devices, empty files) into ``bytes``.  Both
must give the same output, and the library must treat a read-only
``mmap`` exactly as it treats ``bytes``.
"""

import mmap
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from minifskit import extract_all, open_view, read_file
from minifskit.cli import EXIT_INVALID, EXIT_IO, EXIT_NO_MINIFS, main
from minifskit.errors import MiniFsError
from minifskit.fixtures import SHAPES, FixtureSpec, make_fixture
from minifskit.scanner import dump_report, iter_views
from helpers import build_three_file_image, read_tree

SRC = Path(__file__).resolve().parents[1] / "src"


def damaged_dump() -> bytes:
    """A decoy that fails validation, then an instance with one corrupt chunk."""
    image = build_three_file_image()
    view = open_view(image)
    decoy = bytearray(image)
    at = view.layout.chunk_table_start + 8
    decoy[at:at + 4] = (100 << 20).to_bytes(4, "big")  # chunk 0 declares 100 MiB
    corrupt = bytearray(image)
    corrupt[view.layout.data_start + view.chunks[1].data_offset + 20] ^= 0xFF
    return b"\xff" * 4096 + bytes(decoy) + b"\xff" * 250 + bytes(corrupt) + b"\xff" * 4096


DUMPS = {f"{shape}-{seed}": make_fixture(FixtureSpec(seed=seed, shape=shape))[0]
         for shape in SHAPES for seed in (1, 2)}
DUMPS["damaged"] = damaged_dump()

COMMANDS = {
    "scan": ["scan", "{dump}", "--format", "machine"],
    "scan-human": ["scan", "{dump}"],
    "entropy": ["entropy", "{dump}"],
    "info": ["info", "{dump}", "--format", "machine"],
    "ls": ["ls", "{dump}", "--format", "machine"],
    "cat": ["cat", "{dump}", "--index", "0"],
    "extract": ["extract", "{dump}", "{out}", "--format", "machine"],
    "verify": ["verify", "{dump}", "--format", "machine"],
}


def run(argv, dump, out, capsysbinary):
    """Exit code, stdout and stderr of ``minifs argv``, the output directory masked."""
    code = main([arg.format(dump=dump, out=out) for arg in argv])
    captured = capsysbinary.readouterr()
    mask = str(Path(out).resolve()).encode()
    return code, captured.out.replace(mask, b"<out>"), captured.err.replace(mask, b"<out>")


def run_through_fifo(argv, data, tmp_path, capsysbinary):
    """``run`` with the dump fed through a FIFO, which cannot be mapped."""
    fifo = tmp_path / "dump.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as handle:
            handle.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return run(argv, str(fifo), tmp_path / "fifo-out", capsysbinary)
    finally:
        writer.join(timeout=30)
        assert not writer.is_alive()
        fifo.unlink()


needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")


@needs_fifo
@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", DUMPS)
def test_mapped_file_and_pipe_give_identical_output(name, command, tmp_path, capsysbinary):
    data = DUMPS[name]
    path = tmp_path / "dump.bin"
    path.write_bytes(data)
    argv = COMMANDS[command]
    mapped = run(argv, str(path), tmp_path / "file-out", capsysbinary)
    piped = run_through_fifo(argv, data, tmp_path, capsysbinary)
    assert piped == mapped
    if command == "extract":
        assert read_tree(tmp_path / "fifo-out") == read_tree(tmp_path / "file-out")


def test_dev_stdin_pipe_matches_file(tmp_path):
    """A real pipe on ``/dev/stdin``, as in ``cat dump | minifs verify /dev/stdin``."""
    if not os.path.exists("/dev/stdin"):
        pytest.skip("no /dev/stdin on this platform")
    path = tmp_path / "dump.bin"
    path.write_bytes(DUMPS["damaged"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(SRC), os.environ.get("PYTHONPATH")])))

    def minifs(image, stdin):
        return subprocess.run(
            [sys.executable, "-m", "minifskit.cli", "verify", image, "--format", "machine"],
            stdin=stdin, capture_output=True, env=env, timeout=60,
        )

    from_file = minifs(str(path), subprocess.DEVNULL)
    with open(path, "rb") as source:
        feeder = subprocess.Popen(["cat"], stdin=source, stdout=subprocess.PIPE)
        from_pipe = minifs("/dev/stdin", feeder.stdout)
        feeder.stdout.close()
        feeder.wait(timeout=60)
    assert from_file.returncode == EXIT_INVALID  # chunk 1 is corrupt
    assert b"chunk.1.status=fail" in from_file.stdout
    assert (from_pipe.returncode, from_pipe.stdout, from_pipe.stderr) == (
        from_file.returncode, from_file.stdout, from_file.stderr)


EMPTY_EXIT_CODES = {
    "scan": EXIT_NO_MINIFS, "scan-human": EXIT_NO_MINIFS, "entropy": EXIT_IO,
    "info": EXIT_INVALID, "ls": EXIT_INVALID, "cat": EXIT_INVALID,
    "extract": EXIT_INVALID, "verify": EXIT_INVALID,
}


@pytest.mark.parametrize("command", COMMANDS)
def test_empty_file_keeps_its_exit_code(command, tmp_path, capsysbinary):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    result = run(COMMANDS[command], str(path), tmp_path / "out", capsysbinary)
    assert result[0] == EMPTY_EXIT_CODES[command]
    if hasattr(os, "mkfifo"):
        assert run_through_fifo(COMMANDS[command], b"", tmp_path, capsysbinary) == result


def mapped(data: bytes, path: Path) -> mmap.mmap:
    """Write ``data`` to ``path`` and return a read-only map of it."""
    path.write_bytes(data)
    with open(path, "rb") as handle:
        return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type and message of the MiniFsError it raised."""
    try:
        return fn(*args, **kwargs)
    except MiniFsError as exc:
        return type(exc), str(exc)


def view_facts(view):
    if view is None:
        return None
    return view.header, view.layout, view.files, view.chunks, view.violations, view.version


@pytest.mark.parametrize("name", DUMPS)
def test_library_treats_mmap_like_bytes(name, tmp_path):
    data = DUMPS[name]
    mm = mapped(data, tmp_path / "dump.bin")
    views = list(iter_views(data))
    assert [(at, layout, view_facts(v)) for at, layout, v in iter_views(mm)] == [
        (at, layout, view_facts(v)) for at, layout, v in views]
    assert dump_report(mm).to_machine() == dump_report(data).to_machine()
    for base, _, _ in views:
        assert outcome(lambda d: view_facts(open_view(d, base)), mm) == outcome(
            lambda d: view_facts(open_view(d, base)), data)
        from_map, from_bytes = open_view(mm, base, force=True), open_view(data, base, force=True)
        for index in range(len(from_bytes.files)):
            assert outcome(read_file, from_map, index) == outcome(read_file, from_bytes, index)
        reports = [extract_all(view, tmp_path / f"{side}-{base}")
                   for side, view in (("map", from_map), ("bytes", from_bytes))]
        machine = [r.to_machine().replace(r.out_dir, "<out>") for r in reports]
        assert machine[0] == machine[1]
        assert read_tree(tmp_path / f"map-{base}") == read_tree(tmp_path / f"bytes-{base}")


def test_cat_never_copies_the_dump(tmp_path, capsysbinary):
    image = make_fixture(FixtureSpec(seed=1, shape="minimal"))[0]
    size = 16 << 20
    path = tmp_path / "padded.bin"
    path.write_bytes(image + b"\xff" * (size - len(image)))
    tracemalloc.start()
    try:
        assert main(["cat", str(path), "--index", "0"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsysbinary.readouterr().out == read_file(open_view(image), 0)
    assert peak < size // 4
