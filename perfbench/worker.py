"""One measuring process of the benchmark: the read side or the pack side.

    python3 perfbench/worker.py read --work DIR --out DIR --budget S --trace 0|1
    python3 perfbench/worker.py pack --work DIR --out DIR --budget S --trace 0|1 --tree DIR

The read side loops over rounds of ``minifs scan``, ``verify``,
``extract``, a fixed set of ``cat`` calls and a batch of library
``read_file`` calls; the pack side loops over ``minifs pack`` of the
tree that ``extract`` wrote.  Commands run in-process through
``cli.main``, one at a time, each starting when the previous returned.
Every output is checked against the generator's record outside the
timed spans.  The two sides run in separate processes so that each
reports its own peak resident memory.  The last stdout line is a JSON
object with the timings, the check failures and, with ``--trace 1``,
the per-layer metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import minifskit  # noqa: E402
from minifskit import cli  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
from tracer import MODULES, Tracer, install  # noqa: E402


class Runner:
    """Runs commands and library calls, timing them and collecting failures.

    Every timing is a pair [seconds, speed]: the wall time and the
    machine's speed relative to the reference, from probes right before
    and after the operation (``speed.py``).
    """

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else _NoSpan()

    def timed(self, kind: str, fn):
        """Run ``fn``; return its result (None if it raised) and timing.

        An exception is a failed operation, not a crash of the run.
        """
        self.attempted += 1

        def traced():
            with self.span(f"bench.{kind}"):
                try:
                    return fn()
                except (Exception, SystemExit) as exc:  # argparse exits on a bad argv
                    self.failed += 1
                    self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
                    return None

        return speed.timed(traced)

    def cli(self, kind: str, argv: list[str]) -> tuple[bytes, list[float]]:
        """Run ``minifs <argv>``; return its stdout and timing."""
        buffer = io.BytesIO()
        stdout = io.TextIOWrapper(buffer, encoding="utf-8", newline="\n", write_through=True)

        def run() -> int | None:
            saved, sys.stdout = sys.stdout, stdout
            try:
                return cli.main(argv)
            finally:
                stdout.flush()
                sys.stdout = saved

        failed = self.failed
        code, timing = self.timed(kind, run)
        if code != 0 and self.failed == failed:
            self.failed += 1
            self.errors.append(f"minifs {argv[0]} exited {code}")
        return buffer.getvalue(), timing

    def check(self, errors: list[str]) -> None:
        self.errors.extend(errors)


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _load(work: Path) -> tuple[str, dict]:
    return str(work / "dump.bin"), json.loads((work / "record.json").read_text())


def read_side(work: Path, out_dir: Path, budget: float, tracer: Tracer | None) -> dict:
    dump, record = _load(work)
    digests = dict(record["files"])

    def one_round(runner: Runner, tag: str, cat_paths, read_paths) -> dict:
        times = {"cat": [], "read": []}
        tree = out_dir / f"extract-{tag}"
        out, times["extract"] = runner.cli("extract", ["extract", dump, str(tree), "--format", "machine"])
        runner.check(checks.check_extract_report(out.decode(), record))
        runner.check(checks.check_tree(tree, record))
        out, times["scan"] = runner.cli("scan", ["scan", dump, "--format", "machine"])
        runner.check(checks.check_scan(out.decode(), record))
        out, times["verify"] = runner.cli("verify", ["verify", dump, "--format", "machine"])
        runner.check(checks.check_verify(out.decode(), record))
        for path in cat_paths:
            out, timing = runner.cli("cat", ["cat", dump, path])
            times["cat"].append(timing)
            runner.check(checks.check_digest(out, digests[path], f"cat {path}"))
        view, _ = runner.timed("read_open",
                               lambda: minifskit.open_view(Path(dump).read_bytes(), record["base"]))
        for path in read_paths:
            content, timing = runner.timed("read", lambda: minifskit.read_file(view, path))
            times["read"].append(timing)
            if content is not None:
                runner.check(checks.check_digest(content, digests[path], f"read_file {path}"))
        return times | {"tree": str(tree)}

    # Warm-up: every command once, untimed and untraced.
    one_round(Runner(None), "warm", record["cat_paths"][:1], record["read_paths"][:4])
    runner = Runner(tracer)
    if tracer:
        install(tracer)
    rounds, marks = [], []
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < budget:
        marks.append(len(tracer.start) if tracer else 0)
        rounds.append(one_round(runner, str(len(rounds)), record["cat_paths"], record["read_paths"]))
    marks.append(len(tracer.start) if tracer else 0)
    if tracer:
        # `scan --entropy-csv` runs once, outside the rounds, for its count.
        out, _ = runner.cli("scan_csv", ["scan", dump, "--entropy-csv"])
        rows, blocks = out.count(b"\n"), -(-record["length"] // 1024)
        if rows != blocks:
            runner.errors.append(f"scan --entropy-csv printed {rows} rows, expected {blocks}")
    result = {"rounds": rounds, "attempted": runner.attempted, "failed": runner.failed,
              "errors": runner.errors}
    if tracer:
        result["layers"] = read_layers(tracer, marks)
        print(Spans(tracer, marks).breakdown(), file=sys.stderr)
    return result


def pack_side(out_dir: Path, budget: float, tracer: Tracer | None, tree: str) -> dict:
    warm = out_dir / "warm-tree"
    for name in ("a.css", "b/c.js", "b/d.bin"):
        (warm / name).parent.mkdir(parents=True, exist_ok=True)
        (warm / name).write_bytes(name.encode() * 64)
    Runner(None).cli("pack", ["pack", str(warm), str(out_dir / "warm.img"), "--format", "machine"])
    runner = Runner(tracer)
    if tracer:
        install(tracer)
    rounds, marks = [], []
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < budget:
        marks.append(len(tracer.start) if tracer else 0)
        image = out_dir / f"packed-{len(rounds)}.img"
        out, timing = runner.cli("pack", ["pack", tree, str(image), "--format", "machine"])
        chunks = int(checks.machine_fields(out.decode()).get("chunks", 0))
        rounds.append({"pack": timing, "image": str(image), "chunks": chunks})
    result = {"rounds": rounds, "attempted": runner.attempted, "failed": runner.failed,
              "errors": runner.errors}
    if tracer:
        marks.append(len(tracer.start))
        result["layers"] = pack_layers(tracer, marks)
        # Chunks written, as `pack` reports them.
        result["layers"]["packer.chunks"] = statistics.median(r["chunks"] for r in rounds)
        print(Spans(tracer, marks).breakdown(), file=sys.stderr)
    return result


# --- per-layer metrics from the spans ------------------------------------------------

class Spans:
    """Queries over the recorded spans, grouped by round and by command."""

    def __init__(self, tracer: Tracer, marks: list[int]) -> None:
        self.tracer = tracer
        self.a = tracer.arrays()
        self.ids = {name: i for i, name in enumerate(tracer.names)}
        self.marks = marks
        module_of = np.array([MODULES.index(n.split(".")[0]) if n.split(".")[0] in MODULES else -1
                              for n in tracer.names] + [-1])
        self.module = module_of[self.a["name"]]
        self.root_name = self.a["name"][self.a["root"]]

    def _name(self, name: str):
        return self.a["name"] == self.ids.get(name, -2)

    def _in_round(self, r: int):
        index = np.arange(len(self.a["name"]))
        return (index >= self.marks[r]) & (index < self.marks[r + 1])

    def rounds(self) -> range:
        return range(len(self.marks) - 1)

    def per_round(self, mask, field: str = "self") -> float:
        """Median over rounds of the summed ``field`` of the masked spans."""
        return statistics.median(float(self.a[field][mask & self._in_round(r)].sum())
                                 for r in self.rounds())

    def module_self(self, module: str) -> float:
        return self.per_round(self.module == MODULES.index(module))

    def per_command(self, command: str, mask, field: str = "self") -> float:
        """Median over calls of ``command`` of the summed ``field`` inside each call."""
        roots = np.flatnonzero(self._name(f"bench.{command}") & (self.a["parent"] < 0))
        sums = np.bincount(self.a["root"][mask], weights=self.a[field][mask],
                           minlength=len(self.a["name"]))
        return float(statistics.median(sums[roots])) if len(roots) else 0.0

    def calls_per(self, command: str, name: str) -> float:
        roots = self._name(f"bench.{command}") & (self.a["parent"] < 0)
        return float((self._name(name) & (self.root_name == self.ids[f"bench.{command}"])).sum()
                     / max(int(roots.sum()), 1))

    def counter_per(self, command: str, counter: str) -> float:
        roots = self._name(f"bench.{command}") & (self.a["parent"] < 0)
        root_id = self.ids[f"bench.{command}"]
        total = sum(amount for span, name, amount in self.tracer.counts
                    if name == counter and span >= 0
                    and self.a["name"][self.a["root"][span]] == root_id)
        return total / max(int(roots.sum()), 1)

    def calls_per_round(self, name: str) -> float:
        return statistics.median(int((self._name(name) & self._in_round(r)).sum())
                                 for r in self.rounds())

    def counter_per_round(self, counter: str) -> float:
        def in_round(span: int, r: int) -> bool:
            return self.marks[r] <= span < self.marks[r + 1]
        return statistics.median(sum(amount for span, name, amount in self.tracer.counts
                                     if name == counter and in_round(span, r))
                                 for r in self.rounds())

    def call_median(self, name: str, field: str, under: str | None = None) -> float:
        mask = self._name(name)
        if under is not None:
            mask &= self.root_name == self.ids[f"bench.{under}"]
        values = self.a[field][mask]
        return float(statistics.median(values.tolist())) if len(values) else 0.0

    def breakdown(self) -> str:
        """Per command: calls, median traced wall, median self time per module."""
        lines = [f"{'command':<10}{'calls':>6}{'wall_ms':>10}  self_ms per module (bench = harness)"]
        for kind in sorted({n for n in self.tracer.names if n.startswith("bench.")}):
            roots = np.flatnonzero(self._name(kind) & (self.a["parent"] < 0))
            if not len(roots):
                continue
            parts = []
            for m, module in enumerate(("bench",) + MODULES):
                mask = self.module == m - 1
                sums = np.bincount(self.a["root"][mask], weights=self.a["self"][mask],
                                   minlength=len(self.a["name"]))[roots]
                if sums.any():
                    parts.append(f"{module}={1e3 * statistics.median(sums.tolist()):.3f}")
            wall = 1e3 * statistics.median(self.a["duration"][roots].tolist())
            lines.append(f"{kind[6:]:<10}{len(roots):>6}{wall:>10.3f}  {' '.join(parts)}")
        return "\n".join(lines)

    def bench_share(self) -> float:
        roots = self.a["parent"] < 0
        bench = self.module < 0
        return float(self.a["self"][bench].sum() / self.a["duration"][roots].sum())


def read_layers(tracer: Tracer, marks: list[int]) -> dict:
    s = Spans(tracer, marks)
    name = s._name
    layers = {f"{m}.self_s": s.module_self(m) for m in MODULES if m != "packer"}
    cli_mask = s.module == MODULES.index("cli")
    for command in ("scan", "verify", "extract", "cat"):
        layers[f"cli.main_self_s.{command}"] = s.per_command(command, cli_mask)
    layers |= {
        "cli.open_view_calls_per_cat": s.calls_per("cat", "extractor.open_view"),
        "scanner.entropy_profile_s": s.per_command("scan", name("scanner.entropy_profile"), "duration"),
        "scanner.find_magic_s": s.per_command("scan", name("scanner.find_magic"), "duration"),
        "scanner.dump_report_self_s": s.per_command("scan", name("scanner.dump_report")),
        "scanner.magic_hits": s.counter_per("scan", "scanner.magic_hits"),
        "scanner.valid_instances": s.counter_per("scan", "scanner.valid_instances"),
        "scanner.entropy_profile_calls_per_csv_scan": s.calls_per("scan_csv", "scanner.entropy_profile"),
        "structs.parse_header_calls_per_scan": s.calls_per("scan", "structs.parse_header"),
        "structs.parse_header_calls_per_cat": s.calls_per("cat", "structs.parse_header"),
        "structs.parse_tables_s": s.per_round(name("structs.parse_file_table")
                                              | name("structs.parse_chunk_table"), "duration"),
        "structs.validate_layout_s": s.per_round(name("structs.validate_layout"), "duration"),
        "structs.full_path_calls_per_read": s.calls_per("read", "structs.full_path"),
        "structs.full_path_s": s.per_round(name("structs.full_path"), "duration"),
        "codec.decompress_s": s.per_round(name("codec.decompress_chunk"), "duration"),
        "codec.decompress_calls": s.calls_per_round("codec.decompress_chunk"),
        "codec.decompress_calls_per_verify": s.calls_per("verify", "codec.decompress_chunk"),
        "codec.decompressed_mb": s.counter_per_round("codec.decompressed_bytes") / 1e6,
        "extractor.open_view_ms": 1e3 * s.call_median("extractor.open_view", "duration", "read_open"),
        "extractor.list_files_ms": 1e3 * s.call_median("extractor.list_files", "duration"),
        "extractor.read_file_self_ms": 1e3 * s.call_median("extractor.read_file", "self", "read"),
        "extractor.extract_all_self_s": s.per_command("extract", name("extractor.extract_all")),
        "extractor.classify_files_s": s.per_command("extract", name("extractor.classify_files"),
                                                    "duration"),
        "extractor.file_rereads_per_extract": s.counter_per("extract", "extractor.file_rereads"),
        "bench.read_self_share": s.bench_share(),
    }
    return layers


def pack_layers(tracer: Tracer, marks: list[int]) -> dict:
    s = Spans(tracer, marks)
    name = s._name
    layers = {f"{m}.self_s": s.module_self(m) for m in MODULES}
    return layers | {
        "cli.main_self_s.pack": s.per_command("pack", s.module == MODULES.index("cli")),
        "codec.compress_s": s.per_round(name("codec.compress_chunk"), "duration"),
        "codec.compress_calls": s.calls_per("pack", "codec.compress_chunk"),
        "packer.pack_self_s": s.per_command("pack", name("packer.pack")),
        "packer.plan_chunks_ms": 1e3 * s.per_command("pack", name("packer.plan_chunks"), "duration"),
        "packer.build_name_pool_ms": 1e3 * s.per_command("pack", name("packer.build_name_pool"),
                                                         "duration"),
        "bench.pack_self_share": s.bench_share(),
    }


def peak_rss_kib() -> int:
    """Peak resident memory of this process since it started.

    ``ru_maxrss`` would keep the parent's peak across fork and exec, so
    the high-water mark of this process's own address space is read
    from /proc where it exists.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("read", "pack"))
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tree")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args()
    tracer = Tracer() if args.trace else None
    if args.role == "read":
        result = read_side(args.work, args.out, args.budget, tracer)
    else:
        result = pack_side(args.out, args.budget, tracer, args.tree)
    result["peak_rss_mb"] = peak_rss_kib() / 1024
    if tracer and args.trace_out:
        tracer.write(args.trace_out)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
