"""One round of a workload, in a fresh interpreter started by run.py.

    PYTHONPATH=src python3 benchmarks/worker.py WORKLOAD SEED TRACE

It first imports ``nvalue.cli`` and prints ``ready``, so the time to that
line is what every CLI invocation pays before work starts.  It then calls
``nvalue.cli.main`` in-process for each operation of the round, one after
the other, and prints one JSON line: each operation's exit code, output and
seconds, the time of a fixed reference computation run in slices between
the operations, and with TRACE=1 the per-module metrics of spans.py.  The
caches of the program start cold in every round, as in a fresh CLI
invocation.
"""

import sys

import nvalue.cli as cli  # first: the parent times the interpreter up to here

sys.stdout.write("ready\n")
sys.stdout.flush()

import cmath  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import select  # noqa: E402
import signal  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

TERM_GRACE_S = 1.0       # time a stopped child has to report before it is killed
REFERENCE_UNITS = 120    # reference work per round, split into slices between operations
UNITS_PER_REFERENCE = 60


def reference_seconds(units: int) -> float:
    """Time of ``units`` units of fixed pure-Python work that uses no nvalue
    code, per UNITS_PER_REFERENCE units: big-integer products summed into a
    dict (the pattern of sparse polynomial multiplication) and complex powers
    (that of the numeric product).  That is about 0.25 s.  run.py scales the
    round's times by the mean of the slices run between its operations, so
    that a change in the machine's speed between rounds and runs cancels
    out."""
    start = time.perf_counter()
    terms = [(i, 3 ** (150 + 11 * i)) for i in range(48)]
    acc: dict[int, int] = {}
    z = 0j
    for _ in range(units):
        for i, a in terms:
            for j, b in terms:
                acc[i + j] = acc.get(i + j, 0) + a * b
        for k in range(4_000):
            z += (0.5 + cmath.exp(1j * k / 7)) ** 16
    return (time.perf_counter() - start) * UNITS_PER_REFERENCE / units


def run_in_process(op: Op) -> dict:
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op.argv)
        note = ""
    except Exception:
        rc, note = None, traceback.format_exc()
    return {"rc": rc, "out": buf.getvalue(), "seconds": time.perf_counter() - start,
            "stopped": False, "note": note}


def _write_all(fd: int, data: bytes) -> None:
    while data:
        data = data[os.write(fd, data):]


def _child(op: Op, fd: int, tracer: Tracer | None) -> None:
    """Body of the forked child; reports through ``fd`` and never returns.
    It times ``cli.main`` itself, so that the cost of the fork is not counted
    as the operation's."""
    def report(rc, out, seconds, stopped):
        stats = None
        if tracer is not None:
            if stopped:
                tracer.close_open_spans()
            stats = tracer.export()
        _write_all(fd, json.dumps({"rc": rc, "out": out, "seconds": seconds,
                                   "stopped": stopped, "stats": stats}).encode())
        os._exit(0)

    try:
        signal.signal(signal.SIGTERM, lambda *_: report(None, "", None, True))
        if tracer is not None:
            tracer.reset()
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op.argv)
        seconds = time.perf_counter() - start
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        report(rc, buf.getvalue(), seconds, False)
    except BaseException:
        traceback.print_exc()
    os._exit(70)


def run_forked(op: Op, tracer: Tracer | None) -> dict:
    """Run ``op`` in a forked child, stopped (SIGTERM, then SIGKILL) at its
    limit.  A scan runs on the program's pool threads, where a timer signal
    in this process could not stop it; ending the child does.  The seconds
    returned are the child's own for ``cli.main``, or for a stopped
    operation the time until it ended."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child(op, wfd, tracer)
    os.close(wfd)
    chunks, deadline, stopping = [], start + op.limit, False
    try:
        while True:
            wait = deadline - time.perf_counter()
            if wait <= 0:
                if stopping:
                    os.kill(pid, signal.SIGKILL)
                    break
                os.kill(pid, signal.SIGTERM)
                stopping, deadline = True, deadline + TERM_GRACE_S
                continue
            if select.select([rfd], [], [], wait)[0]:
                data = os.read(rfd, 1 << 16)
                if not data:
                    break
                chunks.append(data)
    finally:
        os.waitpid(pid, 0)
        os.close(rfd)
    seconds = time.perf_counter() - start
    try:
        payload = json.loads(b"".join(chunks))
    except ValueError:
        return {"rc": None, "out": "", "seconds": seconds, "stopped": False,
                "note": "child ended without a report"}
    if tracer is not None and payload["stats"]:
        tracer.merge(payload["stats"])
    if payload["stopped"]:
        return {"rc": None, "out": "", "seconds": seconds, "stopped": True,
                "note": f"stopped at the {op.limit:g} s limit"}
    return {"rc": payload["rc"], "out": payload["out"], "seconds": payload["seconds"],
            "stopped": False, "note": ""}


def main(workload: str, seed: int, trace: bool) -> None:
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"worker.py: imported nvalue from {cli.__file__}, not {src}")
    ops = WORKLOADS[workload](random.Random(seed), seed)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    units = max(1, REFERENCE_UNITS // (len(ops) + 1))
    references = [reference_seconds(units)]
    results = []
    gc.collect()
    for op in ops:
        if op.limit is None:
            gc.collect()
            result = run_in_process(op)
        else:                  # a fork leaves this process's heap as it was
            result = run_forked(op, tracer)
        references.append(reference_seconds(units))
        results.append(result)
        note = result["note"].strip().splitlines()[-1] if result["note"] else ""
        print(f"  {' '.join(op.argv)}: rc={result['rc']} {result['seconds']:.3f} s {note}",
              file=sys.stderr, flush=True)
    metrics = tracer.metrics() if tracer else None
    print(json.dumps({"ops": results, "reference_s": sum(references) / len(references),
                      "metrics": metrics}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
