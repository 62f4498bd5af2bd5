"""Self-checks of the benchmark itself.

    python3 perfbench/check.py repeat --workload cli-session --seed 3
    python3 perfbench/check.py spread --workload cli-session --seeds 1-10

`repeat` runs a workload twice at one seed, untraced then traced, and fails
if any exact count (BENCHMARK.json cannot hold them; see README.md) differs.
`spread` runs one seed after another and prints, for every end-to-end
metric, the median and the distance between the first and third quartile
as a share of the median; it fails if a spread other than `setup_s`'s
exceeds the metric's bound.  Runs are sequential so they do not disturb
each other's timing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run.py process; returns its last-line result and its saved detail."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        return result, json.load(fh)


def spread(values: list[float]) -> tuple[float, float]:
    """(median, IQR / median) as `statistics.quantiles(values, n=4)` gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def cmd_repeat(args) -> int:
    first, a = run_once(args.workload, args.seed, args.seconds, 0)
    second, b = run_once(args.workload, args.seed, args.seconds, 1)
    ok = a["exact_counts"] == b["exact_counts"] and first["correct"] and second["correct"]
    print(json.dumps({"untraced": a["exact_counts"], "traced": b["exact_counts"]}, indent=1))
    if b.get("overhead"):
        print("tracing overhead " + json.dumps(b["overhead"]))
    print("exact counts repeat" if ok else "MISMATCH or incorrect run")
    return 0 if ok else 1


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_spread(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in parse_seeds(args.seeds):
        result, _ = run_once(args.workload, seed, args.seconds, 0)
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect run {result}")
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
    ok = True
    for name, vals in values.items():
        med, share = spread(vals)
        over = name != "setup_s" and share > bounds[name]
        ok = ok and not over
        verdict = "OVER BOUND" if over else ("ok" if share < bounds[name] / 3 else "under bound")
        print(f"{name:<12} median {med:.5g}  spread {share:.4f}  bound {bounds[name]}  {verdict}")
    print(json.dumps({"workload": args.workload, "values": values}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("repeat", help="exact counts must repeat at one seed")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_repeat)
    p = sub.add_parser("spread", help="quartile spread of end-to-end metrics over seeds")
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.set_defaults(func=cmd_spread)
    for p in sub.choices.values():
        p.add_argument("--workload", required=True)
        p.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
