"""Benchmark for fuzzymaps: one workload per call, from the repository root.

    python3 perfbench/run.py --workload paper_cli --seed 1 --seconds 25 --trace 0

Workloads: paper_cli, synthetic_runs, census (README.md in
this directory says why each exists).  With ``--trace 0`` the end-to-end
metrics are printed; with ``--trace 1`` the per-layer metrics from the span
wrappers, and the tracing overhead.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each workload runs in fresh child processes (``child.py``) with BLAS
threads pinned to 1 and ``src`` on the path.  Set-up is timed in three
processes and the median reported; the middle one goes on to measure.
The other two run each operation of the mix once without checks, and
give the peak resident memory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
DIGESTS = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 1
SETUP_PROCESSES = 3
TIME_LIMIT_S = 170.0
WORKLOADS = ("paper_cli", "synthetic_runs", "census")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond.

    Returns (value, percentile, samples beyond it).  With ten samples or
    fewer no percentile qualifies, and the maximum is returned with the
    number of samples beyond it, 0.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(setups: list[dict], res: dict) -> tuple[dict, dict]:
    """Metrics with their units, and notes printed beside some of them.

    ``setups`` are the results of the set-up processes, the measuring one
    included; only the others report an unchecked peak memory.
    """
    lat = res["latencies_s"]
    value, pct, beyond = tail(lat)
    rss = [s["peak_rss_kb"] / 1024.0 for s in setups if "peak_rss_kb" in s]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "patterns_per_s": (res["patterns"] / res["plain_s"], "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1000.0 * value, "ms"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "patterns_per_s": f"{res['patterns']} patterns in {res['plain_s']:.2f} s "
                          "of operations",
        "latency_tail_ms": f"p{pct:.2f}, {beyond} of {len(lat)} samples beyond",
        "peak_rss_mb": f"each operation once, unchecked; the checked measuring "
                       f"process peaked at {res['peak_rss_kb'] / 1024.0:.1f} MB",
    }
    return metrics, notes


def _child(args: argparse.Namespace, role: str, deadline: float) -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.path.abspath("src"),
    )
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role,
    ]
    if args.trace:
        cmd += ["--spans-out", os.path.join(OUT_DIR, f"spans_{args.workload}.json")]
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{role} process for {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _digest_ok(args, res: dict) -> tuple[bool, str]:
    if args.seed != DEFAULT_SEED:
        return True, "not recorded for this seed"
    with open(DIGESTS, encoding="utf-8") as fh:
        want = json.load(fh).get(args.workload)
    if res["digest"] == want:
        return True, "matches the recorded digest"
    return False, f"digest {res['digest']} differs from recorded {want}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "fuzzymaps", "__init__.py")):
        sys.stderr.write("run from the root of a fuzzymaps checkout (no src/fuzzymaps here)\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S

    # set-up-only processes before and after the measuring one spread the
    # set-up samples over the whole run, so one burst of host speed cannot
    # decide their median
    before = (SETUP_PROCESSES - 1) // 2
    after = SETUP_PROCESSES - 1 - before
    setups = []
    if not args.trace:
        setups += [_child(args, "setup", deadline) for _ in range(before)]
    res = _child(args, "measure", deadline)
    setups.append({"setup_s": res["setup_s"]})
    if not args.trace:
        setups += [_child(args, "setup", deadline) for _ in range(after)]
    digest_ok, digest_note = _digest_ok(args, res)

    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} operations in {res['rounds']} rounds of {res['ops_per_round']}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in res["machine"].items()))
    for note in res["failures"]:
        print(f"FAILED: {note}")
    print(f"output digest: {digest_note}")
    if args.trace:
        from spans import UNOBTAINABLE_WHEN_ZERO, unit_of

        metrics = {name: (value, unit_of(name)) for name, value in res["per_layer"].items()}
        notes = {k: f"unobtainable: {v}" for k, v in UNOBTAINABLE_WHEN_ZERO.items()
                 if res["per_layer"][k] == 0}
        notes["trace.overhead_pct"] = "traced against untraced runs of the same operations"
        print(f"per set-up plus one round of the mix; {res['spans']} spans")
    else:
        metrics, notes = end_to_end(setups, res)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<30} {value:>14.6g} {unit}{note}")
    print(f"  {'failed_fraction':<30} {failed / attempted:>14.6g} fraction"
          f"  ({failed} of {attempted})")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": res["machine"], "rounds": res["rounds"],
        "failed_fraction": failed / attempted, "digest": res["digest"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    }
    path = os.path.join(OUT_DIR, f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({
        "correct": failed == 0 and digest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
