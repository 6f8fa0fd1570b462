"""Shows that each correctness check of the benchmark catches a wrong output.

    python3 perfbench/selftest.py

Builds a small carve dump (2 MiB, 257 magic hits, one 13-file
instance), runs the real commands on it, and confirms that every check
passes on the real outputs and fails on a deliberately wrong one: a
flipped byte in an extracted file, a missing extracted file, a scan hit
count off by one, a scan whose sections leave a gap, a packed image
with one chunk byte changed, and a ``cat`` output with one byte
changed.  Exits 0 when every check behaves.
"""

from __future__ import annotations

import re
import shutil
import struct
import sys
from pathlib import Path

import checks
from emitter import build_carve
from worker import Runner

WORK = Path(__file__).resolve().parent / "selftest-work"


def flip(data: bytes, at: int) -> bytes:
    return data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:]


def main() -> int:
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir(parents=True)
    dump, record = build_carve(seed=7, scale=1)
    dump_path = WORK / "dump.bin"
    dump_path.write_bytes(dump)
    runner = Runner(None)
    outcomes = []

    def expect(what: str, errors: list[str], should_fail: bool) -> None:
        ok = bool(errors) == should_fail
        outcomes.append(ok)
        verdict = ("fails, as it should" if should_fail else "passes") if ok else "WRONG"
        detail = f"  ({errors[0]})" if errors else ""
        print(f"{what:<52} {verdict}{detail}")

    scan, _ = runner.cli("scan", ["scan", str(dump_path), "--format", "machine"])
    text = scan.decode()
    expect("scan report", checks.check_scan(text, record), False)
    off_by_one = re.sub(r"^hits=(\d+)$", lambda m: f"hits={int(m[1]) + 1}", text, flags=re.M)
    expect("scan report with the hit count off by one", checks.check_scan(off_by_one, record), True)
    gap = re.sub(r"^section\.0\.end=(\d+)$", lambda m: f"section.0.end={int(m[1]) - 1024}", text,
                 flags=re.M)
    expect("scan report with a gap after its first section", checks.check_scan(gap, record), True)

    verify, _ = runner.cli("verify", ["verify", str(dump_path), "--format", "machine"])
    expect("verify report", checks.check_verify(verify.decode(), record), False)

    path, digest = record["files"][0]
    cat, _ = runner.cli("cat", ["cat", str(dump_path), path])
    expect("cat output", checks.check_digest(cat, digest, path), False)
    expect("cat output with one byte changed", checks.check_digest(flip(cat, 0), digest, path), True)

    tree = WORK / "tree"
    runner.cli("extract", ["extract", str(dump_path), str(tree), "--format", "machine"])
    expect("extracted tree", checks.check_tree(tree, record), False)
    victim = tree / record["files"][-1][0]
    original = victim.read_bytes()
    victim.write_bytes(flip(original, len(original) // 2))
    expect("extracted tree with a flipped byte in one file", checks.check_tree(tree, record), True)
    victim.unlink()
    expect("extracted tree with one file missing", checks.check_tree(tree, record), True)
    victim.write_bytes(original)

    image_path = WORK / "packed.img"
    runner.cli("pack", ["pack", str(tree), str(image_path), "--format", "machine"])
    image = image_path.read_bytes()
    expect("packed image", checks.check_packed(image, record), False)
    _, files, _, pool = struct.unpack_from(">IIII", image, 16)
    chunk_table = 32 + pool + 20 * files
    chunk_count = struct.unpack_from(">I", image, chunk_table - 20 + 8)[0] + 1
    offset, size, _ = struct.unpack_from(">III", image, chunk_table)
    broken = flip(image, chunk_table + 12 * chunk_count + offset + size // 2)
    expect("packed image with one chunk byte changed", checks.check_packed(broken, record), True)

    expect("no command failed", runner.errors, False)
    shutil.rmtree(WORK)
    return 0 if all(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
