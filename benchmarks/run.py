#!/usr/bin/env python3
"""End-to-end benchmark of the nvalue command line, with per-module tracing.

One run:
    python3 benchmarks/run.py --workload tables --seed 1 --seconds 26 --trace 0

A run repeats whole rounds of the workload (workloads.py) for ``--seconds``,
at least three.  Each round is a fresh interpreter (worker.py) that imports
``nvalue.cli`` and calls ``nvalue.cli.main`` in-process for each operation,
one after the other: a closed loop with one client, with the program's
caches cold as in a fresh CLI invocation.  The run reports medians over its
rounds, which keeps a slow phase of the machine from moving the result.
Times are given at the reference speed: each round also times a fixed
computation that uses no nvalue code, in slices between its operations,
and its times are scaled by REFERENCE_S over the slices' mean, because the
machine's speed drifts by a third within minutes (see README.md).  An
operation stopped at its time limit counts as failed, and its time, which
is the limit's, is left out of ``wall_s`` and printed on stderr.
The run and its rounds are pinned to one CPU: on a shared two-CPU machine
the scan pool's two threads otherwise run up to 1.6 times slower or faster
depending on whether the other CPU is busy (see README.md).
Outputs are checked here against computations made apart from nvalue
(checks.py).  The last stdout line is one JSON object: ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-module metrics of spans.py.

Steadiness:
    python3 benchmarks/run.py --steady

runs two sets of ten runs of every workload, each run with its own seed, and
prints, per workload and metric, the median, the quartiles, the spread
(q3 - q1) / median and the gap between the sets' medians, against the
bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from workloads import WORKLOADS  # noqa: E402  (HERE is sys.path[0])

MIN_ROUNDS = 3
REFERENCE_S = 0.25       # worker.reference_seconds() at the reference speed
RUN_LIMIT_S = 170        # a run that takes longer stops with an error
STEADY_SETS = 2
STEADY_RUNS = 10         # runs per set and workload

_workers: set[subprocess.Popen] = set()


@dataclass
class Round:
    setup_s: float           # spawn to "ready": nvalue.cli imported
    seconds: float           # spawn to exit
    ops: list[dict]          # rc, out, seconds, stopped, note per operation
    reference_s: float       # mean worker.reference_seconds() in this round
    metrics: dict | None     # per-module metrics, when traced
    imports: tuple[float, float] | None


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(numpy + scipy import seconds, remaining nvalue.cli import seconds)
    from the ``-X importtime`` report, up to ``nvalue.cli`` imported."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, int(cumulative), name.strip()))
        if depth == 0 and name.strip() == "nvalue.cli":
            break
    numeric = total = 0
    ancestors: list[str] = []
    for depth, cumulative, name in reversed(entries):   # parents come first
        del ancestors[depth:]
        root = name.split(".")[0]
        if root in ("numpy", "scipy") and not {"numpy", "scipy"} & set(ancestors):
            numeric += cumulative
        if depth == 0 and name == "nvalue.cli":
            total = cumulative
        ancestors.append(root)
    return numeric / 1e6, (total - numeric) / 1e6


def _kill(proc: subprocess.Popen) -> None:
    """End a worker and the children it forked (its own process group)."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def _on_alarm(signum, frame):
    print(f"run.py: run exceeded {RUN_LIMIT_S} s", file=sys.stderr, flush=True)
    for proc in list(_workers):
        _kill(proc)
    os._exit(3)


def run_round(workload: str, seed: int, trace: bool, deadline: float) -> Round:
    cmd = [sys.executable] + (["-X", "importtime"] if trace else [])
    cmd += [str(HERE / "worker.py"), workload, str(seed), str(int(trace))]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("NVALUE_THREADS", None)            # the program runs at its default
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE if trace else None,
                            bufsize=0, start_new_session=True)
    _workers.add(proc)
    try:
        ready = proc.stdout.readline()         # unbuffered: reads just this line
        setup = time.perf_counter() - start
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        _kill(proc)
        _workers.discard(proc)
    seconds = time.perf_counter() - start
    err = (err or b"").decode()
    if trace:
        sys.stderr.write("".join(line + "\n" for line in err.splitlines()
                                 if not line.startswith("import time:")))
    if ready != b"ready\n" or proc.returncode:
        raise SystemExit(f"run.py: round of {workload} failed (exit {proc.returncode})")
    data = json.loads(out.decode().strip().splitlines()[-1])
    return Round(setup, seconds, data["ops"], data["reference_s"], data["metrics"],
                 parse_importtime(err) if trace else None)


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "nvalue" / "cli.py").is_file():
        raise SystemExit(f"run.py: no nvalue sources under {SRC}")
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})   # inherited by rounds
    ops = WORKLOADS[workload](random.Random(seed), seed)
    start = time.perf_counter()
    rounds: list[Round] = []
    while len(rounds) < MIN_ROUNDS or \
            time.perf_counter() - start + rounds[-1].seconds <= seconds:
        rounds.append(run_round(workload, seed, trace, start + RUN_LIMIT_S - 5))
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    # every round runs the same operations; an output seen before is not
    # checked again
    failed, errors, checked = 0, [], {}
    for rnd in rounds:
        for i, (op, result) in enumerate(zip(ops, rnd.ops)):
            if result["rc"] != 0:
                failed += 1
            elif checked.get(i) != result["out"]:
                errors += op.check(result["out"])
                checked[i] = result["out"]
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    walls = [sum(r["seconds"] for r in rnd.ops if not r["stopped"]) for rnd in rounds]
    limits = [sum(r["seconds"] for r in rnd.ops if r["stopped"]) for rnd in rounds]
    scales = [REFERENCE_S / rnd.reference_s for rnd in rounds]
    scaled_walls = [w * scale for w, scale in zip(walls, scales)]
    print(f"{workload} seed={seed} trace={int(trace)}: {len(rounds)} rounds; "
          f"wall {' '.join(f'{w:.3f}' for w in walls)} s; "
          f"stopped at limits {' '.join(f'{t:.3f}' for t in limits)} s; "
          f"reference {' '.join(f'{r.reference_s:.3f}' for r in rounds)} s; "
          f"{failed}/{len(ops) * len(rounds)} failed; {len(errors)} check errors",
          file=sys.stderr, flush=True)

    if trace:
        metrics = {name: (statistics.median(r.metrics[name][0] for r in rounds), unit)
                   for name, (_, unit) in rounds[0].metrics.items()}
        metrics["setup.numeric_import_s"] = (
            statistics.median(r.imports[0] for r in rounds), "s")
        metrics["setup.nvalue_import_s"] = (
            statistics.median(r.imports[1] for r in rounds), "s")
    else:
        metrics = {"wall_s": (statistics.median(scaled_walls), "s"),
                   "setup_s": (statistics.median(r.setup_s * scale
                                                 for r, scale in zip(rounds, scales)), "s"),
                   "peak_rss_mb": (rss_mb, "MB")}
    signal.alarm(0)
    return {"correct": not errors, "attempted": len(ops) * len(rounds), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


# -- steadiness -------------------------------------------------------------------

def steady(seconds: int) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results: dict[tuple[int, str], list[dict]] = {}
    for s in range(STEADY_SETS):
        for r in range(STEADY_RUNS):
            for w in WORKLOADS:
                seed = 1000 * (s + 1) + r
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=400)
                if proc.returncode:
                    raise SystemExit(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
                data = json.loads(proc.stdout.strip().splitlines()[-1])
                results.setdefault((s, w), []).append(data)
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in data["metrics"].items())
                print(f"set {s} run {r} {w} seed={seed}: {vals} "
                      f"failed={data['failed']}/{data['attempted']} "
                      f"correct={data['correct']}", file=sys.stderr, flush=True)

    summary = []
    print(f"{'workload':8} {'metric':12} {'set':>3} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'gap':>7} {'bound':>6} failed")
    for w in WORKLOADS:
        first = {}
        for s in range(STEADY_SETS):
            rows = results[(s, w)]
            share = sum(d["failed"] for d in rows) / sum(d["attempted"] for d in rows)
            correct = all(d["correct"] for d in rows)
            for name, bound in bounds.items():
                values = [d["metrics"][name]["value"] for d in rows]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                first.setdefault(name, med)
                gap = (med - first[name]) / first[name]
                flag = ""
                if spread > bound:
                    flag += " SPREAD>BOUND"
                elif spread > bound / 3:
                    flag += " spread>bound/3"
                if abs(gap) > bound:
                    flag += " GAP>BOUND"
                print(f"{w:8} {name:12} {s:>3} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                      f"{spread:7.3f} {gap:+7.3f} {bound:6.2f} "
                      f"{share:.4f}{'' if correct else ' INCORRECT'}{flag}")
                summary.append({"workload": w, "metric": name, "set": s,
                                "median": med, "q1": q1, "q3": q3, "spread": spread,
                                "gap": gap, "bound": bound, "failed_share": share,
                                "correct": correct, "values": values})
    out = HERE / "results" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"written {out.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None,
                    help="how long a run repeats rounds (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", action="store_true",
                    help="run two sets of ten runs per workload and report their spread")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.steady:
        steady(args.seconds)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
