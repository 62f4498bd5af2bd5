"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload kgc-enroll --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the package is imported from `src/`.
The run sets up the KGC (`setup_s`), then drives a closed loop from one
single-threaded client until it has spent `--seconds` of operation time
and completed at least `MIN_OPS` operations.  Outputs are checked between
operations, outside the timed interval.  With `--trace 0` the last line
holds the end-to-end metrics of BENCHMARK.json; with `--trace 1` it holds
the per-layer metrics.  Everything else (per-kind latencies, exact counts,
environment, tracing overhead) is printed above it and saved under
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# p90 needs ten samples beyond it; exact counts cover set-up plus these
MIN_OPS = 100
LEVEL = "80"


def percentile(samples: list[float], pct: int) -> float:
    """Inclusive-method percentile, as `statistics.quantiles(n=100)` gives it."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def reportable(n: int, pct: int) -> bool:
    """A percentile is reported only with at least ten samples beyond it."""
    return n * (100 - pct) >= 1000


def latency_summary(samples: list[float]) -> dict[str, float]:
    """p50 and p90 in ms of those samples whose count allows them."""
    out = {}
    for pct in (50, 90):
        if samples and reportable(len(samples), pct):
            out[f"p{pct}_ms"] = percentile(samples, pct) * 1000
    return out


def build(name: str, seed: int, workdir: str):
    from mpnike import params

    import workloads

    level = params.security_level(LEVEL)
    if name == "kgc-enroll":
        return workloads.KgcEnroll(seed, level)
    primes = workloads.load_fixture()
    if name == "broadcast-overlap":
        return workloads.BroadcastOverlap(seed, level, primes)
    if name == "cli-session":
        return workloads.CliSession(seed, level, primes, workdir)
    raise ValueError(f"unknown workload {name!r}")


def measure(wl, rec, seconds: float) -> dict:
    """Set up, then run operations until `seconds` of them and MIN_OPS are done."""
    setup_times = []
    for i in range(wl.setups):
        t0 = time.perf_counter()
        wl.setup(i)
        setup_times.append(time.perf_counter() - t0)
    with rec.paused():
        setup_failures = wl.setup_failures()

    samples: dict[str, list[float]] = defaultdict(list)
    attempted = failed = 0
    busy = 0.0
    exact = None
    gen = wl.ops()
    with rec.paused():
        op = next(gen)
    while True:
        rec.op_id = attempted
        t0 = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, exc
        dt = time.perf_counter() - t0
        rec.op_id = None
        attempted += 1
        busy += dt
        with rec.paused():
            if error is None:
                try:
                    ok = bool(op.check(result))
                except Exception as exc:  # a check that cannot complete is a failure
                    ok, error = False, exc
            else:
                ok = False
            # a failed operation keeps its latency sample, so the percentiles
            # always rest on every attempted operation
            samples[op.kind].append(dt)
            if not ok:
                failed += 1
                if failed <= 3:
                    print(f"failed {op.kind} operation #{attempted}", file=sys.stderr)
                    if error is not None:
                        traceback.print_exception(error, file=sys.stderr)
            if attempted == MIN_OPS:
                exact = rec.exact_counts()
            if busy >= seconds and attempted >= MIN_OPS:
                break
            op = gen.send(result if ok else None)
    gen.close()
    every = [dt for kind in samples.values() for dt in kind]
    return {
        "setup_times": setup_times,
        "setup_failures": setup_failures,
        "attempted": attempted,
        "failed": failed,
        "busy_s": busy,
        "samples": samples,
        "every": every,
        "exact_counts": exact,
    }


def environment() -> dict:
    import cryptography

    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def end_to_end(m: dict) -> dict[str, float]:
    lat = latency_summary(m["every"])
    return {
        "setup_s": statistics.median(m["setup_times"]),
        "ops_per_s": (m["attempted"] - m["failed"]) / m["busy_s"],
        "op_p50_ms": lat["p50_ms"],
        "op_p90_ms": lat["p90_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import mpnike

        import recorder
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(mpnike.__file__).startswith(src + os.sep):
        print(f"perfbench: imported mpnike from {mpnike.__file__}, not {src}", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT)
    rec = recorder.Recorder(spans=bool(args.trace))
    try:
        wl = build(args.workload, args.seed, workdir)
        with rec.install():
            m = measure(wl, rec, args.seconds)
    except workloads.SetupFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(m)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "setup_times_s": m["setup_times"],
        "setup_failures": m["setup_failures"],
        "attempted": m["attempted"],
        "failed": m["failed"],
        "failed_ratio": m["failed"] / m["attempted"],
        "end_to_end": e2e,
        "latency": {
            kind: dict(samples=len(dts), **latency_summary(dts))
            for kind, dts in sorted(m["samples"].items())
        },
        "exact_counts": m["exact_counts"],
    }
    if args.trace:
        layers = rec.layer_metrics()
        layers["traced.ops_per_s"] = e2e["ops_per_s"]
        layers["traced.setup_s"] = e2e["setup_s"]
        detail["layers"] = {x["name"]: layers.get(x["name"], 0) for x in spec["per_layer"]}
        detail["overhead"] = _overhead(os.path.join(OUT, f"{tag}-trace0.json"), e2e)
        rec.write_spans(os.path.join(OUT, f"{tag}-spans.jsonl"))
        chosen, units = detail["layers"], {x["name"]: x["unit"] for x in spec["per_layer"]}
    else:
        chosen, units = e2e, {x["name"]: x["unit"] for x in spec["end_to_end"]}
    with open(os.path.join(OUT, f"{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    _print_report(detail, e2e)
    correct = m["failed"] == 0 and m["setup_failures"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": m["attempted"],
                "failed": m["failed"],
                "metrics": {k: {"value": chosen[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


def _overhead(untraced_path: str, traced: dict) -> dict | None:
    """Traced minus untraced, as a share of untraced, when an untraced result exists."""
    try:
        with open(untraced_path, encoding="utf-8") as fh:
            base = json.load(fh)["end_to_end"]
    except (OSError, ValueError, KeyError):
        return None
    return {k: traced[k] / base[k] - 1 for k in ("ops_per_s", "setup_s")}


def _print_report(detail: dict, e2e: dict):
    print(f"workload {detail['workload']}  seed {detail['seed']}  trace {detail['trace']}")
    print("env " + "  ".join(f"{k} {v}" for k, v in detail["env"].items()))
    for name, value in e2e.items():
        print(f"  {name:<14} {value:.6g}")
    print(f"  failed_ratio   {detail['failed_ratio']:.6g}  ({detail['failed']}/{detail['attempted']})")
    for kind, lat in detail["latency"].items():
        shown = "  ".join(f"{k} {v:.4g}" for k, v in lat.items() if k != "samples")
        print(f"  {kind:<8} n={lat['samples']:<6} {shown}")
    print("exact " + json.dumps(detail["exact_counts"]))
    if detail["trace"]:
        for name, value in detail["layers"].items():
            print(f"  {name:<34} {value:.6g}")
        oh = detail["overhead"]
        if oh is None:
            print("tracing overhead: run --trace 0 at this seed first to compare")
        else:
            print(
                f"tracing overhead: ops_per_s {oh['ops_per_s']:+.1%}, setup_s {oh['setup_s']:+.1%}"
            )


if __name__ == "__main__":
    sys.exit(main())
