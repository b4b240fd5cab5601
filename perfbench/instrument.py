"""Counters and spans around lrwkit's entry points, installed from outside.

Both probes replace an entry point at every binding that refers to it: the
defining module, every module that imported it by name (``schur`` imports
``_ballot_fillings`` and ``lr_coefficient``; ``fermionic`` and ``looproot``
import ``cartan_matrix``) and the package namespace. Only the worker process
of a counted or traced pass installs them; untimed passes run unpatched.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable

# Entry points that get a span in a traced pass, by layer (= module name).
# Generators (partitions_of, subpartitions, ...) are left out: a span would
# close before the work is done.
SPANNED = {
    "tableaux": ("_ballot_fillings", "_lr_count", "lr_coefficient", "enumerate_lr_tableaux"),
    "schur": (
        "mult", "_mult_basis", "skew_schur_expand", "skew", "omega",
        "jacobi_trudi", "_h_product", "h_monomial_to_schur",
    ),
    "classical": (
        "_domino_class_sum", "branch_schur", "_universal_in_schur", "to_schur",
        "_branch_expansion", "stable_tensor_expansion", "family_decomposition",
        "tensor_product_two_ways",
    ),
    "fermionic": (
        "fermionic_decomp", "fermionic_multiplicity", "_config_sum", "_node_factor",
        "vacancy", "alpha_coords",
    ),
    "lie": (
        "cartan_matrix", "adjacency", "root_coords_of_weight_vector",
        "integer_root_coords", "weight_of_root_vector",
    ),
    "looproot": ("positive_roots", "beta_roots", "commute_check", "cone_membership", "type_a_support"),
    "closed_forms": ("closed_form_rectangle", "closed_form_three_row", "closed_form_heights24"),
    "verify": ("run_verify_suite",),
    "cli": ("main",),
}

LAYERS = tuple(SPANNED)


def _size(result) -> int:
    return len(result)


def _nonzero(result) -> int:
    return 1 if result else 0


# Counted entry points: (module, function) -> (calls metric, optional
# (metric, measure) summed over results).
COUNTED = {
    ("tableaux", "_ballot_fillings"): ("tableaux.ballot_fillings.calls", ("tableaux.fillings_returned", _size)),
    ("schur", "mult"): ("schur.mult.calls", None),
    ("fermionic", "_config_sum"): ("fermionic.config_sum.calls", ("fermionic.config_sum.nonzero", _nonzero)),
    ("fermionic", "_node_factor"): ("fermionic.node_factor.calls", None),
    ("fermionic", "vacancy"): ("fermionic.vacancy.calls", None),
    ("lie", "root_coords_of_weight_vector"): ("lie.root_coords.calls", None),
    ("looproot", "commute_check"): ("looproot.commute_check.calls", None),
    ("looproot", "cone_membership"): ("looproot.cone_membership.calls", ("looproot.cone.solutions", _size)),
}


def lrwkit_modules() -> dict[str, object]:
    """Loaded lrwkit modules by short name ('' for the package itself)."""
    return {
        name.partition(".")[2]: mod
        for name, mod in list(sys.modules.items())
        if name == "lrwkit" or name.startswith("lrwkit.")
    }


def find_caches() -> dict[str, object]:
    """Every distinct lru_cache in the package, named module.function."""
    found: dict[int, tuple[str, object]] = {}
    for mod in lrwkit_modules().values():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_info", None)) and hasattr(value, "__wrapped__"):
                inner = value.__wrapped__
                name = inner.__module__.rpartition(".")[2] + "." + inner.__name__
                found.setdefault(id(value), (name, value))
    return dict(sorted(found.values(), key=lambda kv: kv[0]))


def rebind(replacements: dict[int, object]) -> None:
    """Point every module-level binding of a replaced object at its replacement."""
    for mod in lrwkit_modules().values():
        for attr, value in list(vars(mod).items()):
            new = replacements.get(id(value))
            if new is not None:
                setattr(mod, attr, new)


class CacheTally:
    """Cache statistics summed over passes that clear the caches in between."""

    def __init__(self, caches: dict[str, object]):
        self.caches = caches
        self.hits: dict[str, int] = defaultdict(int)
        self.misses: dict[str, int] = defaultdict(int)
        self.entries: dict[str, int] = defaultdict(int)

    def collect_and_clear(self) -> None:
        for name, cache in self.caches.items():
            info = cache.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses
            self.entries[name] += info.currsize
            cache.cache_clear()


class Counters:
    """Plain integer counters at the COUNTED entry points and Partition.__new__."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)

    def install(self) -> None:
        mods = lrwkit_modules()
        counts = self.counts
        replacements: dict[int, object] = {}
        for (module, func), (calls, extra) in COUNTED.items():
            original = getattr(mods[module], func, None)
            if original is None:
                continue
            replacements[id(original)] = _counting(original, counts, calls, extra)
        rebind(replacements)
        partition = mods["partitions"].Partition
        original_new = partition.__new__

        def counted_new(cls, *args, **kwargs):
            counts["partitions.partition_new.calls"] += 1
            return original_new(cls, *args, **kwargs)

        partition.__new__ = staticmethod(counted_new)


def _counting(fn: Callable, counts: dict, calls: str, extra) -> Callable:
    if extra is None:
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)
    else:
        metric, measure = extra

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            result = fn(*args, **kwargs)
            counts[metric] += measure(result)
            return result
    return wrapper


class Tracer:
    """Spans (name, start, end, parent) around the SPANNED entry points.

    Spans are aggregated in memory per (name, parent name) edge as a call
    count, inclusive seconds and self seconds (inclusive minus the time
    covered by child spans), which is what the per-layer metrics need and
    keeps memory flat over millions of calls.
    """

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start, child seconds]
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])

    def install(self) -> None:
        mods = lrwkit_modules()
        replacements: dict[int, object] = {}
        for layer, funcs in SPANNED.items():
            for func in funcs:
                original = getattr(mods.get(layer), func, None)
                if original is None:  # renamed or removed; run.EXPECTED_SPANS reports it
                    continue
                replacements[id(original)] = self.wrap(f"{layer}.{func}", original)
        rebind(replacements)
        verify = mods["verify"]
        verify._CHECKS = tuple((level, self.wrap_check(fn)) for level, fn in verify._CHECKS)

    def _close(self, frame: list, parent: str) -> None:
        duration = time.perf_counter() - frame[1]
        edge = self.edges[(frame[0], parent)]
        edge[0] += 1
        edge[1] += duration
        edge[2] += duration - frame[2]
        if self.stack:
            self.stack[-1][2] += duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack = self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                self._close(frame, parent)

        return wrapper

    def wrap_check(self, fn: Callable) -> Callable:
        """Span around one verify check, named after the check it reports."""
        stack = self.stack

        def wrapper():
            parent = stack[-1][0] if stack else ""
            frame = ["verify.check", time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn()
                frame[0] = "verify.check." + result.name
                return result
            finally:
                stack.pop()
                self._close(frame, parent)

        return wrapper

    def table(self) -> list[list]:
        """[name, parent, calls, inclusive_s, self_s] rows, by name."""
        return [[n, p, *v] for (n, p), v in sorted(self.edges.items())]
