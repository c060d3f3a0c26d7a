"""Per-module spans and counts, recorded from outside the nvalue package.

``Tracer.install`` replaces the public functions named in ``SPANS`` (and the
``Polynomial`` methods in ``METHODS``) with wrappers, wherever a module of
the package holds a reference to them: as a module attribute, through
``from .x import f``, or as a value in a module-level dict such as the
CLI's scan table.  A wrapper times its call on a per-thread span stack
with the thread's CPU clock, so time a thread spends waiting (for the scan
pool, or for the interpreter lock) is not counted as busy; a span's self
time is its busy time minus that of the spans it caused on its thread.
Nothing inside the package changes, and without ``install`` nothing here
runs.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter, defaultdict

# span name -> (module, attribute)
SPANS = {
    "cli.main": ("nvalue.cli", "main"),
    "construct.build_pn": ("nvalue.construct", "build_pn"),
    "symdecomp.decompose": ("nvalue.symdecomp", "decompose"),
    "newton.newton_polytope": ("nvalue.newton", "newton_polytope"),
    "conjectures.scan_prime_power": ("nvalue.conjectures", "scan_prime_power"),
    "conjectures.scan_even_nonzero": ("nvalue.conjectures", "scan_even_nonzero"),
    "conjectures.factor_report": ("nvalue.conjectures", "factor_report"),
    "conjectures.factorize": ("nvalue.conjectures", "factorize"),
    "mvgroup.mul_n": ("nvalue.mvgroup", "mul_n"),
    "mvgroup.eq_multiset": ("nvalue.mvgroup", "eq_multiset"),
    "mvgroup.pn_roots": ("nvalue.mvgroup", "pn_roots"),
    "mvgroup.check_associativity": ("nvalue.mvgroup", "check_associativity"),
    "mvgroup.roots_match_pn": ("nvalue.mvgroup", "roots_match_pn"),
}

# span name -> Polynomial methods; a subtraction is one span and its
# inner addition another
METHODS = {
    "polyring.mul": ("__mul__", "__rmul__"),
    "polyring.add": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "polyring.eval_complex": ("eval_complex",),
}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.RLock()
        self._stacks: list[tuple[int, list]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.distinct: defaultdict = defaultdict(set)
        self.maxima: Counter = Counter()
        self.sums: Counter = Counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._stacks.append((threading.get_ident(), stack))
        return stack

    def _record(self, name: str, duration: float, child: float) -> None:
        with self._lock:
            self.calls[name] += 1
            self.self_s[name] += duration - child

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(tracer, args)
            stack = tracer._stack()
            frame = [name, time.thread_time(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.thread_time() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += duration
                tracer._record(name, duration, frame[2])
            if on_result is not None:
                on_result(tracer, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def close_open_spans(self) -> None:
        """Record every span still open, as if it ended now (used when an
        operation is stopped at its time limit)."""
        for ident, stack in list(self._stacks):
            if not stack:       # an ended thread's stack is always empty
                continue
            try:
                now = time.clock_gettime(time.pthread_getcpuclockid(ident))
            except (OSError, ProcessLookupError):
                continue
            child = 0.0
            while stack:
                name, start, inner = stack.pop()
                duration = now - start
                self._record(name, duration, inner + child)
                child = duration

    def install(self) -> None:
        """Wrap every traced function in every loaded nvalue module."""
        modules = [m for name, m in sys.modules.items()
                   if name == "nvalue" or name.startswith("nvalue.")]
        for span, (mod_name, attr) in SPANS.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self.wrap(span, original, ON_CALL.get(span), ON_RESULT.get(span))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
        poly = sys.modules["nvalue.polyring"].Polynomial
        for span, names in METHODS.items():
            for attr in names:
                setattr(poly, attr, self.wrap(span, getattr(poly, attr)))

    # -- transport between processes ---------------------------------------

    def export(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "distinct": {k: sorted(v) for k, v in self.distinct.items()},
                "maxima": dict(self.maxima), "sums": dict(self.sums)}

    def merge(self, data: dict) -> None:
        self.calls.update(data["calls"])
        for k, v in data["self_s"].items():
            self.self_s[k] += v
        for k, v in data["distinct"].items():
            self.distinct[k].update(v)
        for k, v in data["maxima"].items():
            self.maxima[k] = max(self.maxima[k], v)
        self.sums.update(data["sums"])

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-module metric, as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for span in list(SPANS) + list(METHODS):
            out[f"{span}.calls"] = (self.calls[span], "count")
            out[f"{span}.self_s"] = (self.self_s[span], "s")
        out["construct.pn_terms"] = (self.sums["construct.pn_terms"], "count")
        out["construct.max_coeff_bits"] = (self.maxima["construct.max_coeff_bits"], "bits")
        for span in ("symdecomp.decompose", "conjectures.factorize"):
            calls = self.calls[span]
            ratio = len(self.distinct[span]) / calls if calls else 0.0
            out[f"{span}.distinct_ratio"] = (ratio, "ratio")
        out["conjectures.factorize.max_input_bits"] = (
            self.maxima["conjectures.factorize.max_input_bits"], "bits")
        return out


def _observe_build_pn(tracer: Tracer, poly) -> None:
    coeffs = [c for _, c in poly.sorted_terms()]
    with tracer._lock:
        tracer.sums["construct.pn_terms"] += len(coeffs)
        bits = max((abs(int(c)).bit_length() for c in coeffs), default=0)
        tracer.maxima["construct.max_coeff_bits"] = max(
            tracer.maxima["construct.max_coeff_bits"], bits)


def _observe_decompose(tracer: Tracer, table) -> None:
    with tracer._lock:
        tracer.distinct["symdecomp.decompose"].add(table.n)


def _observe_factorize(tracer: Tracer, args) -> None:
    # on entry, so that a call stopped at the time limit still counts
    m = args[0]
    with tracer._lock:
        tracer.distinct["conjectures.factorize"].add(m)
        key = "conjectures.factorize.max_input_bits"
        tracer.maxima[key] = max(tracer.maxima[key], m.bit_length())


ON_CALL = {"conjectures.factorize": _observe_factorize}
ON_RESULT = {"construct.build_pn": _observe_build_pn,
             "symdecomp.decompose": _observe_decompose}
