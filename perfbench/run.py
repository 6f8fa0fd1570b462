"""Benchmark of the ``minifs`` commands on seeded workloads.

    python3 perfbench/run.py --workload carve|webui|blobs --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed (``emitter.py``), then runs
the read side and the pack side in two fresh processes (``worker.py``),
checks every output, and prints one JSON line as the last line of
stdout: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the commands run under the span tracer and the
metrics are the per-layer ones, and the spans are written to
``perfbench/traces/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Inputs, one directory per workload, rewritten in place by every run.
WORK = HERE / "work"
# Outputs, one directory per run.  No extraction tree is ever deleted:
# on this kind of disk, deleting a few thousand small files makes file
# creation two to four times slower for seconds to tens of seconds, and
# that would land in the timed extractions of the next run (see
# README.md, "Noise").  Packed images, a few large files, are deleted
# after their check; deleting those did not slow file creation.
RUNS = WORK / "runs"
TRACES = HERE / "traces"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import speed  # noqa: E402
from emitter import BUILDERS  # noqa: E402

SETUP_REPEATS = 3
# Share of --seconds given to the read side; the pack side gets the rest.
READ_SHARE = {"carve": 0.7, "webui": 0.45, "blobs": 0.55}
CHILD_TIMEOUT_S = 150


def _write_in_place(path: Path, data: bytes) -> None:
    # Rewrite the same blocks instead of truncating: a truncate-and-rewrite
    # makes ext4 flush the file on close, which is disk time, not set-up.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _build_and_write(workload: str, seed: int, inputs: Path) -> dict:
    dump, record = BUILDERS[workload](seed)
    _write_in_place(inputs / "dump.bin", dump)
    _write_in_place(inputs / "record.json", json.dumps(record).encode())
    return record


def setup(workload: str, seed: int, inputs: Path) -> tuple[dict, list[list[float]]]:
    """Build the inputs SETUP_REPEATS times; return the record and the timings."""
    inputs.mkdir(parents=True, exist_ok=True)
    timings = []
    for _ in range(SETUP_REPEATS):
        record, timing = speed.timed(lambda: _build_and_write(workload, seed, inputs))
        timings.append(timing)
    return record, timings


def _child(role: str, budget: float, trace: int, workload: str, inputs: Path, out: Path,
           *extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MINIFS_BLOCK_SIZE"}
    env["PYTHONHASHSEED"] = "0"
    # A fixed mmap threshold stops glibc from moving LZMA's large buffers
    # onto the heap after the first free, which made peak memory depend
    # on how many rounds ran.
    env["MALLOC_MMAP_THRESHOLD_"] = str(1 << 20)
    argv = [sys.executable, str(HERE / "worker.py"), role, "--work", str(inputs), "--out", str(out),
            "--budget", f"{budget:.3f}", "--trace", str(trace), *extra]
    if trace:
        argv += ["--trace-out", str(TRACES / f"{workload}-{role}.npz")]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{role} worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def typical(rounds: list[dict], key: str) -> float | list[float]:
    """Median over the rounds; for per-call lists, the median per position.

    Times are taken at the reference speed: wall time times the speed
    measured around the call.
    """
    def value(timing: list[float]) -> float:
        seconds, speed = timing
        return seconds * speed

    samples = [r[key] for r in rounds]
    if isinstance(samples[0][0], list):
        return [statistics.median(map(value, calls)) for calls in zip(*samples)]
    return statistics.median(map(value, samples))


def end_to_end(record: dict, setup_times: list[list[float]], read: dict, pack: dict,
               image_bytes: int) -> dict:
    rounds = read["rounds"]
    values = {
        "setup_s": (typical([{"setup": t} for t in setup_times], "setup"), "s"),
        "scan_mb_s": (record["length"] / typical(rounds, "scan") / 1e6, "MB/s"),
        "verify_mb_s": (record["tree_bytes"] / typical(rounds, "verify") / 1e6, "MB/s"),
        "extract_files_s": (len(record["files"]) / typical(rounds, "extract"), "1/s"),
        "cat_p50_ms": (statistics.median(typical(rounds, "cat")) * 1e3, "ms"),
        "read_files_s": (len(record["read_paths"]) / sum(typical(rounds, "read")), "1/s"),
        "pack_mb_s": (record["tree_bytes"] / typical(pack["rounds"], "pack") / 1e6, "MB/s"),
        "pack_ratio": (image_bytes / record["tree_bytes"], "ratio"),
        "read_peak_rss_mb": (read["peak_rss_mb"], "MB"),
        "pack_peak_rss_mb": (pack["peak_rss_mb"], "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer(read: dict, pack: dict) -> dict:
    units = {"_s": "s", "_ms": "ms", "_mb": "MB", "_share": "ratio"}
    layers = dict(read["layers"])
    for name, value in pack["layers"].items():
        # Module self time per workload round: one read round plus one pack.
        layers[name] = layers.get(name, 0.0) + value if name.endswith(".self_s") else value
    out = {}
    for name, value in sorted(layers.items()):
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        if ".main_self_s." in name:
            unit = "s"
        out[name] = {"value": value, "unit": unit}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "minifskit" / "__init__.py").is_file():
        print(f"error: no toolkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    inputs = WORK / args.workload
    out = RUNS / f"{args.workload}-{args.seed}-{time.time_ns()}"
    out.mkdir(parents=True)
    record, setup_times = setup(args.workload, args.seed, inputs)
    read_budget = args.seconds * READ_SHARE[args.workload]
    read = _child("read", read_budget, args.trace, args.workload, inputs, out)
    tree = read["rounds"][-1]["tree"]
    try:
        pack = _child("pack", args.seconds - read_budget, args.trace, args.workload, inputs, out,
                      "--tree", tree)
        errors = read["errors"] + pack["errors"]
        images = {}
        for r in pack["rounds"]:
            if not Path(r["image"]).is_file():
                errors.append(f"pack wrote no {Path(r['image']).name}")
                continue
            image = Path(r["image"]).read_bytes()
            images.setdefault(hashlib.sha256(image).digest(), image)
        for image in images.values():
            errors += checks.check_packed(image, record)
    finally:
        for image in out.glob("*.img"):
            image.unlink()
    if len(images) > 1:
        errors.append(f"pack wrote {len(images)} different images from one tree")
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"last-{args.workload}-{args.trace}.json").write_text(
        json.dumps({"seed": args.seed, "setup_s": setup_times, "read": read, "pack": pack}))
    metrics = (per_layer(read, pack) if args.trace
               else end_to_end(record, setup_times, read, pack, len(next(iter(images.values()), b""))))
    print(json.dumps({
        "correct": not errors,
        "attempted": read["attempted"] + pack["attempted"],
        "failed": read["failed"] + pack["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
