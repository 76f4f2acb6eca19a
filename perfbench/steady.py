"""Check that the benchmark is steady: repeated runs, quartiles, an A/A test.

Usage, from the root of the repository::

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --runs 5 --workloads contention_mix

Each set runs every workload ``--runs`` times, one seed per run, rotating
the workload order from run to run.  For every end-to-end metric it prints
the median, the quartiles and the spread ``(q3 - q1) / median`` against the
metric's bound from ``BENCHMARK.json``.  With ``--sets 2`` it then compares
the two sets' medians (A/A): on the same code, no metric may look worse
than its bound.  Each run records host facts (``nproc``, Python and numpy
versions, git sha, load average at start and end) so that a drifting set
can be diagnosed.  ``--write-reference`` stores the runs' output digests in
``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {entry["name"]: entry["bound"] for entry in SPEC["end_to_end"]}
BETTER = {entry["name"]: entry["better"] for entry in SPEC["end_to_end"]}


def git_sha() -> str | None:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return completed.stdout.strip()


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in a fresh interpreter; its result plus digest and host lines."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {completed.returncode}:\n"
                           f"{completed.stderr[-2000:]}")
    run = {"workload": workload, "seed": seed, "elapsed_s": time.time() - started,
           "result": json.loads(lines[-1])}
    for line in lines:
        if line.startswith("digest "):
            _, key, value, _, match = line.split()
            run["digest"] = {"key": key, "value": value, "reference": match}
        elif line.startswith("host "):
            run["host"] = json.loads(line[len("host "):])
    return run


def run_set(workloads: list[str], runs: int) -> list[dict]:
    """``runs`` runs of each workload with seeds 1..runs, rotating the workload order."""
    results = []
    for index in range(runs):
        shift = index % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            run = run_once(workload, index + 1, SPEC["run_seconds"])
            result = run["result"]
            print(f"  {workload:<16} seed {run['seed']:<4} {run['elapsed_s']:6.1f}s "
                  f"correct={result['correct']} failed={result['failed']}/{result['attempted']} "
                  f"digest={run.get('digest', {}).get('reference')}", flush=True)
            results.append(run)
    return results


def summarise(results: list[dict]) -> dict:
    """Per workload and metric: values, median, quartiles and spread."""
    summary: dict[str, dict] = {}
    for run in results:
        for name, entry in run["result"]["metrics"].items():
            summary.setdefault(run["workload"], {}).setdefault(name, []).append(entry["value"])
    table: dict[str, dict] = {}
    for workload, metrics in summary.items():
        for name, values in metrics.items():
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (
                values[0], values[0], values[0])
            table.setdefault(workload, {})[name] = {
                "values": values,
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
            }
    return table


def print_table(table: dict) -> bool:
    steady = True
    for workload, metrics in table.items():
        print(f"{workload}")
        for name, row in metrics.items():
            bound = BOUNDS[name]
            ok = name == "setup_s" or row["spread"] <= bound
            steady &= ok
            flag = "ok" if row["spread"] <= bound / 3 else ("within bound" if ok else "TOO NOISY")
            print(f"  {name:<14} median {row['median']:12.5g}  q1 {row['q1']:12.5g}  "
                  f"q3 {row['q3']:12.5g}  spread {row['spread']:6.1%} / bound {bound:.0%}  {flag}")
    return steady


def compare(first: dict, second: dict) -> bool:
    """A/A: the second set's median may not be worse than the first's by more than the bound."""
    agree = True
    print("A/A comparison (second set vs first)")
    for workload, metrics in first.items():
        for name, row in metrics.items():
            other = second[workload][name]["median"]
            change = (other - row["median"]) / row["median"] if row["median"] else 0.0
            worse = change if BETTER[name] == "lower" else -change
            ok = worse <= BOUNDS[name]
            agree &= ok
            print(f"  {workload:<16} {name:<14} {row['median']:12.5g} -> {other:12.5g} "
                  f"({change:+6.1%}, bound {BOUNDS[name]:.0%}) {'ok' if ok else 'WORSE'}")
    return agree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    host = {"git_sha": git_sha()}
    sets = []
    for set_index in range(args.sets):
        print(f"set {set_index + 1}: {args.runs} runs x {args.workloads}", flush=True)
        results = run_set(args.workloads, args.runs)
        sets.append(results)
    tables = [summarise(results) for results in sets]
    steady = all([print_table(table) for table in tables])
    agree = compare(tables[0], tables[1]) if len(tables) == 2 else True
    runs = [run for results in sets for run in results]
    correct = all(run["result"]["correct"] for run in runs)
    out = ROOT / ".perfbench" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"host": host, "sets": sets, "tables": tables}, indent=1))
    print(f"runs written to {out}")
    if args.write_reference:
        if not correct:
            print("not writing the reference: some runs failed")
            return 1
        path = HERE / "reference.json"
        reference = json.loads(path.read_text()) if path.is_file() else {}
        reference.update({run["digest"]["key"]: run["digest"]["value"] for run in runs})
        path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"{len(reference)} reference digests in {path}")
    mismatched = [run for run in runs if run.get("digest", {}).get("reference") == "MISMATCH"]
    digests: dict[str, set] = {}
    for run in runs:
        digests.setdefault(run["digest"]["key"], set()).add(run["digest"]["value"])
    unrepeatable = sorted(key for key, values in digests.items() if len(values) > 1)
    print(f"correct={correct} steady={steady} agree={agree} "
          f"reference mismatches={len(mismatched)} digests differing between sets={unrepeatable}")
    return 0 if correct and steady and agree and not mismatched and not unrepeatable else 1


if __name__ == "__main__":
    sys.exit(main())
