"""Two sets of benchmark runs back to back, each metric's spread against its bound.

    python3 perfbench/spread.py

Runs the command of BENCHMARK.json ten times per workload and set, each
run with another seed (seeds 1-10, then 101-110), and prints for every
end-to-end metric of every workload the median and the spread of each
set (distance between the first and third quartile as a share of the
median), and how far the second set's median moved from the first's.
A metric passes when both spreads and the move, either way, stay within
its bound.  It also compares the share of failed operations between the
two sets.  Raw results go to ``perfbench/results/``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
RUNS = 10


def one_run(bench: dict, workload: str, seed: int) -> dict:
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result |= {"workload": workload, "seed": seed, "wall_s": wall}
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    RESULTS.mkdir(parents=True, exist_ok=True)
    log = RESULTS / time.strftime("spread-%Y%m%d-%H%M%S.jsonl")

    runs: dict[tuple[int, str], list[dict]] = {}
    with log.open("w") as out:
        for s in range(2):
            for workload in workloads:
                for i in range(RUNS):
                    result = one_run(bench, workload, 100 * s + i + 1)
                    result["set"] = s
                    out.write(json.dumps(result) + "\n")
                    out.flush()
                    runs.setdefault((s, workload), []).append(result)
                    print(f"set {s} {workload} seed {result['seed']}: correct={result['correct']} "
                          f"attempted={result['attempted']} failed={result['failed']} "
                          f"wall={result['wall_s']:.1f}s", file=sys.stderr)

    all_ok = True
    for workload in workloads:
        first, second = runs[(0, workload)], runs[(1, workload)]
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for rs in (first, second)]
        correct = all(r["correct"] for r in first + second)
        print(f"\n{workload}: correct={correct} failed shares={shares}")
        all_ok &= correct and shares[0] == shares[1]
        print(f"  {'metric':<18}{'bound':>7}  median0 spread0  median1 spread1   shift  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in first]
            b = [r["metrics"][name]["value"] for r in second]
            spreads = (spread(a), spread(b))
            shift = (statistics.median(b) - statistics.median(a)) / statistics.median(a)
            if metric["better"] == "higher":
                shift = -shift  # positive shift: the second set is worse
            ok = abs(shift) <= bound and max(spreads) <= bound
            all_ok &= ok
            verdict = "ok" if ok else "OUT OF BOUND"
            if ok and max(spreads) > bound / 3:
                verdict = "ok, spread above a third of the bound"
            print(f"  {name:<18}{bound:>7.2f}  {statistics.median(a):>7.4g} {spreads[0]:>7.2%}  "
                  f"{statistics.median(b):>7.4g} {spreads[1]:>7.2%}  {shift:>+6.2%}  {verdict}")
    print(f"\nraw results: {log.relative_to(ROOT)}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
