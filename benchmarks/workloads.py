"""The operations of one round of each workload, with their checks.

A round is fixed work; the seed sets the order of its operations, the
integer points its checks evaluate at, and the seed of the axiom sweep.
It never sets which n run, so every seed does the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

import checks

# Each round is 1-4 s of work on one CPU; axioms has 500 samples so that a
# run holds enough rounds.  Factoring is trial division: n <= 11 and n = 13
# take well under 0.1 s, n = 12 about 29 s and n = 14 more than 60 s, so a
# 0.5 s limit separates them on any speed phase of the machine.  The
# operations that finish take about 0.2 s in all, so a factors round runs
# them FACTOR_REPEATS times, each time in a fresh fork with the caches cold,
# so that their time outweighs its noise.
TABLE_NS = (37, 40)
SCAN_MAX_N = 26
FACTOR_NS = (7, 8, 9, 10, 11, 13)
FACTOR_STOPPED_NS = (12, 14)
FACTOR_SCAN_MAX_N = 11
FACTOR_LIMIT_S = 0.5
FACTOR_REPEATS = 5
AXIOM_N = 16
AXIOM_SAMPLES = 500


@dataclass
class Op:
    argv: list[str]
    check: object                 # output text -> list of errors
    limit: float | None = None    # seconds; run in a child stopped at the limit


def tables(rng: random.Random, seed: int) -> list[Op]:
    """pn --basis e --format json, then newton, for each large n."""
    ns = list(TABLE_NS)
    rng.shuffle(ns)
    ops = []
    for n in ns:
        points = checks.sample_points(rng, 2)
        ops.append(Op(["pn", "--n", str(n), "--basis", "e", "--format", "json"],
                      partial(checks.check_pn_json, n, points=points)))
        ops.append(Op(["newton", "--n", str(n), "--format", "json"],
                      partial(checks.check_newton_json, n)))
    return ops


def scans(rng: random.Random, seed: int) -> list[Op]:
    """The prime-power and even-nonzero scans over one --max-n."""
    kinds = ["prime-power", "even-nonzero"]
    rng.shuffle(kinds)
    points = {n: checks.sample_points(rng, 1) for n in range(2, SCAN_MAX_N + 1)}
    return [Op(["scan", "--kind", kind, "--max-n", str(SCAN_MAX_N), "--format", "json"],
               partial(checks.check_scan_json, kind, SCAN_MAX_N, points_by_n=points))
            for kind in kinds]


def factors(rng: random.Random, seed: int) -> list[Op]:
    """Factored text tables on both sides of the trial-division fault; the
    operations below it run FACTOR_REPEATS times, those above it once."""
    def pn_text(n):
        return Op(["pn", "--n", str(n)],
                  partial(checks.check_pn_text, n, points=checks.sample_points(rng, 2)),
                  FACTOR_LIMIT_S)
    finishing = [pn_text(n) for n in FACTOR_NS]
    points = {n: checks.sample_points(rng, 1) for n in range(1, FACTOR_SCAN_MAX_N + 1)}
    finishing.append(Op(["scan", "--kind", "factors", "--max-n", str(FACTOR_SCAN_MAX_N)],
                        partial(checks.check_scan_factors_text, FACTOR_SCAN_MAX_N,
                                points_by_n=points),
                        FACTOR_LIMIT_S))
    ops = finishing * FACTOR_REPEATS + [pn_text(n) for n in FACTOR_STOPPED_NS]
    rng.shuffle(ops)
    return ops


def axioms(rng: random.Random, seed: int) -> list[Op]:
    """One seeded numeric sweep of the group axioms."""
    return [Op(["axioms", "--n", str(AXIOM_N), "--samples", str(AXIOM_SAMPLES),
                "--seed", str(seed)],
               partial(checks.check_axioms_text, AXIOM_N, AXIOM_SAMPLES, seed))]


WORKLOADS = {"tables": tables, "scans": scans, "factors": factors, "axioms": axioms}
