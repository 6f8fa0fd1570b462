"""Command-line front-end.

Subcommands map 1:1 onto the library: ``scan`` and ``entropy`` wrap the
scanner, ``info``/``ls``/``cat``/``extract``/``verify`` the extractor,
``pack`` the packer.  Exit codes are part of the interface:

    0  success
    2  I/O problem (unreadable input, unwritable output, bad usage)
    3  scan found no clean MiniFS instance
    4  a file selector matched nothing (or was ambiguous)
    5  structural validation failed (or no/ambiguous instance to open)

``--format machine`` emits stable line-oriented key=value text with no
timestamps, so identical inputs produce byte-identical reports.

A regular, non-empty input file is mapped read-only, never copied; if
another process truncates it while a command runs, the command dies
with SIGBUS.  Pipes, devices and empty files are read instead.
"""

from __future__ import annotations

import argparse
import functools
import logging
import mmap
import os
import stat
import sys

from . import __version__
from .codec import DEFAULT_OUTPUT_LIMIT
from .errors import (
    AmbiguousPath,
    EmptyInput,
    MiniFsError,
    NotFound,
    ValidationFailed,
)
from .extractor import MiniFsView, _decode_chunks, extract_all, list_files, open_view, read_file
from .fixtures import SHAPES, FixtureSpec, make_fixture
from .packer import PackOptions, pack
from .scanner import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_EMPTY_BYTE,
    DEFAULT_HIGH_THRESHOLD,
    dump_report,
    entropy_profile,
    iter_views,
)
from .structs import Dump

EXIT_OK = 0
EXIT_IO = 2
EXIT_NO_MINIFS = 3
EXIT_NOT_FOUND = 4
EXIT_INVALID = 5

_TABLE_BATCH_ROWS = 32 * 1024  # rows per write of the entropy table; about 2 MiB of strings

_log = logging.getLogger(__name__)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _int_type(rule: str, ok=lambda value: True):
    """An argparse type: an integer, any base prefix allowed, that satisfies ``ok``."""
    def parse(text: str) -> int:
        try:
            value = int(text, 0)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
    return parse


_int_arg = _int_type("an integer")
_block_size_arg = _int_type("a power of two >= 16", lambda v: v >= 16 and not v & (v - 1))
_cap_arg = _int_type(f"a chunk cap 1..{DEFAULT_OUTPUT_LIMIT}", lambda v: 0 < v <= DEFAULT_OUTPUT_LIMIT)
_u32_arg = _int_type("an unsigned 32-bit value", lambda v: 0 <= v <= 0xFFFF_FFFF)
_byte_arg = _int_type("a byte value 0..255", lambda v: 0 <= v <= 0xFF)


def _read_input(path: str) -> Dump:
    """The dump at ``path``: a read-only map of a regular non-empty file, else its bytes.

    The map is released when the last reference to it goes; it is not
    closed here, because numpy arrays over it may still export its
    buffer.  Pipes, devices, procfs files (``st_size`` 0), empty files
    and file systems that refuse ``mmap`` are read into memory.
    """
    with open(path, "rb") as handle:
        info = os.fstat(handle.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size > 0:
            try:
                return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            except (OSError, ValueError):  # ValueError: emptied since the fstat
                pass
        return handle.read()


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _resolve_view(dump: Dump, args) -> MiniFsView:
    """Open the instance selected by --base, or keep the one view auto-detection finds.

    Each hit passed over for its violations logs one debug record; hits
    that yield no view log theirs in :func:`iter_views`.
    """
    force = getattr(args, "force", False)
    if args.base is not None:
        return open_view(dump, args.base, force=force)
    chosen, offsets = None, []
    for offset, _, view in iter_views(dump, force=force):
        if view is None:
            continue
        if view.violations and not force:
            _log.debug("MINIFS hit at %d passed over: %d violations, first: %s",
                       offset, len(view.violations), view.violations[0])
            continue
        if chosen is None:
            chosen = view
        offsets.append(offset)
    if chosen is None:
        raise CliError(EXIT_INVALID, "no parseable MiniFS instance found; pass --base")
    if len(offsets) > 1:
        listed = ", ".join(f"0x{off:x}" for off in offsets)
        raise CliError(
            EXIT_INVALID,
            f"multiple MiniFS instances found (at {listed}); pick one with --base",
        )
    return chosen


# --- commands -----------------------------------------------------------------

def cmd_scan(args) -> int:
    dump = _read_input(args.dump)
    report = dump_report(
        dump,
        block_size=args.block_size,
        high_threshold=args.threshold,
        empty_byte=args.empty_byte,
    )
    if args.entropy_csv:
        _emit_entropy_table(report.profile)
    elif args.format == "machine":
        _emit(report.to_machine())
    else:
        _print_scan_report(report)
    return EXIT_OK if report.instances else EXIT_NO_MINIFS


def _print_scan_report(report) -> None:
    if not report.sections:
        _emit("no sections (empty input)")
        return
    _emit(
        f"dump: {report.length} bytes, block {report.block_size}, "
        f"threshold {report.high_threshold:.2f} bits/byte"
    )
    for s in report.sections:
        line = f"  [0x{s.start:08x}..0x{s.end:08x}) {s.label:<6} mean entropy {s.mean_entropy:5.2f}"
        if s.minifs is not None:
            m = s.minifs
            line += (
                f"  minifs @0x{m.base:x}: {m.file_count} files, "
                f"{m.chunk_count} chunks, {m.version.value}"
            )
        _emit(line)
    if report.hits:
        hits = ", ".join(f"0x{h.offset:x} ({h.version_hint.value})" for h in report.hits)
        _emit(f"magic hits: {hits}")
    else:
        _emit("magic hits: none")


def _emit_entropy_table(profile) -> None:
    if profile is None:
        return
    step = profile.block_size
    for first in range(0, len(profile.entropies), _TABLE_BATCH_ROWS):
        batch = profile.entropies[first:first + _TABLE_BATCH_ROWS].tolist()
        sys.stdout.write("".join(f"{i * step}\t{e:.6f}\n" for i, e in enumerate(batch, first)))


def cmd_entropy(args) -> int:
    dump = _read_input(args.dump)
    try:
        profile = entropy_profile(dump, args.block_size)
    except EmptyInput as exc:
        raise CliError(EXIT_IO, str(exc))
    _emit_entropy_table(profile)
    return EXIT_OK


def cmd_info(args) -> int:
    view = _resolve_view(_read_input(args.image), args)
    header, layout, version = view.header, view.layout, view.version
    if args.format == "machine":
        lines = [
            f"base={layout.base}",
            f"files={header.file_count}",
            f"names={header.name_table_size}",
            f"chunks={layout.chunk_count}",
            f"unknown_a=0x{header.unknown_a:08x}",
            f"unknown_b=0x{header.unknown_b:08x}",
            f"reserved=0x{header.reserved.hex()}",
            f"names_start={layout.names_start}",
            f"files_start={layout.files_start}",
            f"chunk_table_start={layout.chunk_table_start}",
            f"data_start={layout.data_start}",
            f"version={version.value}",
            f"violations={len(view.violations)}",
        ]
        _emit("\n".join(lines))
    else:
        _emit(f"MiniFS at 0x{layout.base:x} ({version.value})")
        _emit(f"  files: {header.file_count}, name table: {header.name_table_size} bytes, "
              f"chunks: {layout.chunk_count}")
        _emit(f"  unknown word @0x10: 0x{header.unknown_a:08x}")
        _emit(f"  unknown word @0x18: 0x{header.unknown_b:08x}")
        _emit(f"  reserved bytes @0x06: {header.reserved.hex()}")
        _emit(f"  regions: names @0x{layout.names_start:x}, files @0x{layout.files_start:x}, "
              f"chunk table @0x{layout.chunk_table_start:x}, data @0x{layout.data_start:x}")
        for v in view.violations:
            _emit(f"  violation: {v}")
    return EXIT_OK


def cmd_ls(args) -> int:
    view = _resolve_view(_read_input(args.image), args)
    entries = list_files(view)
    if args.format == "machine":
        lines = [f"files={len(entries)}"]
        for e in entries:
            lines.append(f"file.{e.index}.path={e.path}")
            lines.append(f"file.{e.index}.size={e.file_size}")
            lines.append(f"file.{e.index}.chunk={e.chunk_index}")
        _emit("\n".join(lines))
    else:
        for e in entries:
            _emit(f"{e.index:5d}  {e.file_size:9d}  chunk {e.chunk_index:3d}  {e.path}")
    return EXIT_OK


def cmd_cat(args) -> int:
    if args.index is not None and args.path is not None:
        raise CliError(EXIT_IO, "cat takes a path or --index, not both")
    selector = args.index if args.index is not None else args.path
    if selector is None:
        raise CliError(EXIT_IO, "cat needs a path or --index")
    view = _resolve_view(_read_input(args.image), args)
    content = read_file(view, selector)
    sys.stdout.buffer.write(content)
    sys.stdout.buffer.flush()
    return EXIT_OK


def cmd_extract(args) -> int:
    view = _resolve_view(_read_input(args.image), args)
    report = extract_all(view, args.out_dir)
    if args.format == "machine":
        _emit(report.to_machine())
    else:
        _emit(f"extracted {report.written}/{len(report.results)} files "
              f"({report.total_bytes} bytes, {report.chunk_count} chunks) to {report.out_dir}")
        for r in report.results:
            if r.status != "ok":
                _emit(f"  failed [{r.index}] {r.path}: {r.error}")
        for w in report.warnings:
            _emit(f"  warning: {w}")
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(report.categories.items()))
        if summary:
            _emit(f"  file types: {summary}")
    return EXIT_OK if report.failed == 0 else EXIT_INVALID


def cmd_pack(args) -> int:
    options = PackOptions(
        max_chunk_decompressed=args.cap,
        sort_entries=not args.keep_order,
        mimic_vendor=args.mimic_vendor,
        unknown_a=args.unknown_a,
        unknown_b=args.unknown_b,
    )
    image = pack(args.tree, options)
    with open(args.out_image, "wb") as handle:
        handle.write(image)
    view = open_view(image)
    if args.format == "machine":
        _emit(f"image={args.out_image}\nbytes={len(image)}\n"
              f"files={view.header.file_count}\nchunks={view.layout.chunk_count}")
    else:
        _emit(f"packed {view.header.file_count} files into {view.layout.chunk_count} chunks "
              f"-> {args.out_image} ({len(image)} bytes)")
    return EXIT_OK


def cmd_verify(args) -> int:
    dump = _read_input(args.image)
    try:
        view = _resolve_view(dump, args)
        violations = view.violations
    except ValidationFailed as exc:
        view, violations = None, exc.violations
    machine = args.format == "machine"
    lines = [f"violation.{i}={v}" if machine else f"table violation: {v}"
             for i, v in enumerate(violations)]
    if view is None:
        lines.append("result=fail" if machine else "verify: FAIL (structural validation)")
        _emit("\n".join(lines))
        return EXIT_INVALID

    failures = 0
    decoded = _decode_chunks(view, range(len(view.chunks)))
    for data, (i, rec) in zip(decoded, enumerate(view.chunks)):
        if isinstance(data, MiniFsError):
            failures += 1
            status, detail = "fail", f"{type(data).__name__}: {data}"
        else:
            status, detail = "ok", f"{rec.compressed_size} -> {rec.decompressed_size} bytes"
        if machine:
            lines.append(f"chunk.{i}.status={status}")
            if status != "ok":
                lines.append(f"chunk.{i}.error={detail}")
        else:
            lines.append(f"chunk {i}: {status} ({detail})")
    ok = failures == 0 and not violations
    if machine:
        lines.append(f"chunks={len(view.chunks)}")
        lines.append(f"failed={failures}")
        lines.append(f"result={'ok' if ok else 'fail'}")
    else:
        lines.append(
            f"verify: {'OK' if ok else 'FAIL'} "
            f"({len(view.chunks) - failures}/{len(view.chunks)} chunks good)"
        )
    _emit("\n".join(lines))
    return EXIT_OK if ok else EXIT_INVALID


def cmd_fixture(args) -> int:
    dump, manifest = make_fixture(FixtureSpec(seed=args.seed, shape=args.shape))
    with open(args.out, "wb") as handle:
        handle.write(dump)
    manifest_path = args.manifest or (args.out + ".manifest")
    with open(manifest_path, "w", encoding="ascii") as handle:
        handle.write(manifest.to_machine())
    _emit(f"wrote {args.out} ({len(dump)} bytes) and {manifest_path}")
    return EXIT_OK


# --- argument wiring ----------------------------------------------------------

def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("human", "machine"), default="human",
                   help="output style (machine = stable key=value lines)")


def _add_base(p: argparse.ArgumentParser) -> None:
    p.add_argument("--base", type=_int_arg, default=None,
                   help="byte offset of the MiniFS magic (default: auto-detect)")
    p.add_argument("--force", action="store_true",
                   help="continue despite validation violations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minifs",
        description="Locate, inspect, extract and rebuild MiniFS v2 file systems "
                    "in router flash dumps.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(
        dest="command",
        metavar="{scan,info,ls,cat,extract,pack,verify,entropy}",
    )

    p = sub.add_parser("scan", help="entropy sections + MiniFS magic hits of a dump")
    p.add_argument("dump", help="raw flash dump")
    p.add_argument("--block-size", type=_block_size_arg, default=DEFAULT_BLOCK_SIZE,
                   help=f"entropy block size, a power of two >= 16 (default {DEFAULT_BLOCK_SIZE})")
    p.add_argument("--threshold", type=float, default=DEFAULT_HIGH_THRESHOLD,
                   help="bits/byte above which a block counts as high entropy")
    p.add_argument("--empty-byte", type=_byte_arg, default=DEFAULT_EMPTY_BYTE,
                   help="byte value of erased flash (default 0xFF)")
    p.add_argument("--entropy-csv", action="store_true",
                   help="emit an offset/entropy table instead of the report")
    _add_format(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("entropy", help="per-block entropy table for plotting")
    p.add_argument("dump")
    p.add_argument("--block-size", type=_block_size_arg, default=DEFAULT_BLOCK_SIZE)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("info", help="decoded header and layout of an instance")
    p.add_argument("image")
    _add_base(p)
    _add_format(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("ls", help="list files (index, size, chunk, path)")
    p.add_argument("image")
    _add_base(p)
    _add_format(p)
    p.set_defaults(func=cmd_ls)

    p = sub.add_parser("cat", help="write one file's bytes to stdout")
    p.add_argument("image")
    p.add_argument("path", nargs="?", default=None, help="exact joined path")
    p.add_argument("--index", type=_int_arg, default=None, help="file table index")
    _add_base(p)
    p.set_defaults(func=cmd_cat)

    p = sub.add_parser("extract", help="materialize the whole tree on disk")
    p.add_argument("image")
    p.add_argument("out_dir")
    _add_base(p)
    _add_format(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("pack", help="build an image from a directory tree")
    p.add_argument("tree")
    p.add_argument("out_image")
    p.add_argument("--cap", type=_cap_arg, default=PackOptions.max_chunk_decompressed,
                   help="max decompressed bytes per chunk")
    p.add_argument("--keep-order", action="store_true",
                   help="keep directory-walk order instead of sorting by path")
    p.add_argument("--mimic-vendor", action="store_true",
                   help="write the first file's size into the unknown header word @0x18")
    p.add_argument("--unknown-a", type=_u32_arg, default=0,
                   help="hex override for the header word @0x10")
    p.add_argument("--unknown-b", type=_u32_arg, default=None,
                   help="hex override for the header word @0x18")
    _add_format(p)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("verify", help="validate tables and decompress every chunk")
    p.add_argument("image")
    _add_base(p)
    _add_format(p)
    p.set_defaults(func=cmd_verify)

    # Developer command for regenerating test dumps; not advertised.
    p = sub.add_parser("fixture")
    p.add_argument("--shape", choices=SHAPES, required=True)
    p.add_argument("--seed", type=_int_arg, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_fixture)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return EXIT_IO
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (NotFound, AmbiguousPath) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MiniFsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
