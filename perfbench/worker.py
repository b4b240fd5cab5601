"""One pass of a workload in a fresh interpreter, so every lru_cache starts empty.

Reads a job from stdin: {"root", "mode", "queries", "deadline_s"} and writes
one JSON object to stdout. Modes:

plain    run the queries, time each one; no instrumentation
count    the same with instrument.Counters installed, plus cache statistics
trace    the same with instrument.Tracer spans installed
session  cli-session only: run each query as a fresh ``python -m lrwkit.cli``
         subprocess with the deadline; this mode never imports lrwkit

For cli-session the plain/count/trace modes replay the argv in-process through
``cli.main``, clearing every cache before each command, and skip the
known-unbounded inputs (their partial work would not repeat exactly).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import sys
import time

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches
import instrument  # noqa: E402
from proc import child_env, run_child  # noqa: E402


def run_session(root: str, queries: list, deadline: float) -> dict:
    env = child_env(root)
    records, times = [], []
    for _, argv, _kind in queries:
        out = run_child(
            [sys.executable, "-m", "lrwkit.cli", *argv], env=env, cwd=root, timeout=deadline
        )
        end = time.perf_counter()
        times.append([end - out.seconds, end])
        records.append(
            {
                "code": out.code,
                "stdout": out.stdout.decode(errors="replace"),
                "stderr": out.stderr.decode(errors="replace")[-400:],
                "maxrss_kb": out.maxrss_kb,
            }
        )
    return {"times": times, "outputs": records}


def own_peak_rss_kb() -> int | None:
    """This process's own peak RSS (VmHWM).

    ru_maxrss is not used here: after exec it still carries the parent's
    resident size at fork time, which would leak the parent's memory into
    the worker's figure.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def import_lrwkit(root: str):
    src = os.path.realpath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import lrwkit
    import lrwkit.cli  # the package does not import its CLI module

    if not os.path.realpath(lrwkit.__file__).startswith(src + os.sep):
        raise SystemExit(f"lrwkit imported from {lrwkit.__file__}, not from {src}")
    return lrwkit


def _expansion(e) -> list:
    return [[list(p), c] for p, c in sorted(e.terms.items())]


def build_calls(lrw, queries: list) -> list:
    """One zero-argument callable per query.

    Arguments are built here, before timing; each callable looks its entry
    point up on the module at call time so installed probes are used.
    """
    P, S, C, F = lrw.Partition, lrw.schur, lrw.classical, lrw.fermionic
    calls = []
    for q in queries:
        op = q[0]
        if op == "mult":
            a, b = S.schur_basis(q[1]), S.schur_basis(q[2])
            calls.append(lambda a=a, b=b: S.mult(a, b))
        elif op == "skew":
            lam, nu = P(q[1]), P(q[2])
            calls.append(lambda lam=lam, nu=nu: S.skew_schur_expand(lam, nu))
        elif op == "jt":
            lam, nu = P(q[1]), P(q[2])
            calls.append(lambda lam=lam, nu=nu: S.h_monomial_to_schur(S.jacobi_trudi(lam, nu)))
        elif op == "stable":
            mu, nu = P(q[1]), P(q[2])
            calls.append(lambda mu=mu, nu=nu, f=q[3]: C.stable_tensor_expansion(mu, nu, f))
        elif op == "famdec":
            lam = P(q[1])
            calls.append(lambda lam=lam, f=q[2]: C.family_decomposition(lam, f))
        elif op == "branch":
            lam = P(q[1])
            calls.append(lambda lam=lam, f=q[2]: C.branch_schur(lam, f))
        elif op == "t2w":
            mu, nu = P(q[1]), P(q[2])
            calls.append(lambda mu=mu, nu=nu, f=q[3]: C.tensor_product_two_ways(mu, nu, f))
        elif op == "fdecomp":
            spec = lrw.LieSpec(q[1], q[2])
            calls.append(lambda spec=spec, fac=[(q[3], q[4])]: F.fermionic_decomp(spec, fac))
        elif op == "fmult":
            spec = lrw.LieSpec(q[1], q[2])
            weight = lrw.DominantWeight(tuple(q[5]), q[2])
            calls.append(
                lambda spec=spec, fac=[(q[3], q[4])], w=weight: F.fermionic_multiplicity(spec, fac, w)
            )
        else:
            raise ValueError(f"unknown query op {op!r}")
    return calls


def serialize(op: str, result) -> object:
    if op in ("mult", "skew", "jt", "stable", "famdec", "branch"):
        return _expansion(result)
    if op == "t2w":
        return [_expansion(result[0]), _expansion(result[1])]
    if op == "fdecomp":
        return sorted([list(w.coeffs), m] for w, m in result.items())
    return result


class Deadline(Exception):
    pass


def _alarm(signum, frame):
    raise Deadline


def run_replay(lrw, queries: list, deadline: float, tally) -> dict:
    cli = lrw.cli
    signal.signal(signal.SIGALRM, _alarm)
    times, outputs = [], []
    for _, argv, kind in queries:
        if kind == "unbounded":
            continue
        tally.collect_and_clear()
        buf = io.StringIO()
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Deadline:
            code = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        times.append([start, time.perf_counter()])
        outputs.append({"argv": argv, "code": code, "stdout": buf.getvalue()})
    tally.collect_and_clear()
    return {"times": times, "outputs": outputs}


def run_library(lrw, queries: list) -> dict:
    calls = build_calls(lrw, queries)
    results = [None] * len(calls)
    times = [None] * len(calls)
    clock = time.perf_counter
    for i, call in enumerate(calls):
        start = clock()
        results[i] = call()
        times[i] = [start, clock()]
    return {"times": times, "outputs": [serialize(q[0], r) for q, r in zip(queries, results)]}


def main() -> int:
    job = json.load(sys.stdin)
    root, mode, queries = job["root"], job["mode"], job["queries"]
    if mode == "session":
        result = run_session(root, queries, job["deadline_s"])
    else:
        lrw = import_lrwkit(root)
        tally = instrument.CacheTally(instrument.find_caches())
        counters = tracer = None
        if mode == "count":
            counters = instrument.Counters()
            counters.install()
        elif mode == "trace":
            tracer = instrument.Tracer()
            tracer.install()
        if queries and queries[0][0] == "cli":
            result = run_replay(lrw, queries, job["deadline_s"], tally)
        else:
            result = run_library(lrw, queries)
            tally.collect_and_clear()
        result["caches"] = {
            name: [tally.hits[name], tally.misses[name], tally.entries[name]] for name in tally.caches
        }
        if counters is not None:
            result["counters"] = dict(counters.counts)
        if tracer is not None:
            result["spans"] = tracer.table()
    result["peak_rss_kb"] = own_peak_rss_kb()
    json.dump(result, sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
