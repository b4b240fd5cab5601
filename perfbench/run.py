"""lrwkit benchmark: one workload, one seed, cold caches in every pass.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lr-ring --seed 1 --seconds 10 --trace 0

The parent generates the workload's queries from the seed (perfbench/
workloads.py) before any timing and hands only those inputs to a fresh worker
interpreter per pass (perfbench/worker.py), so each pass starts with every
lru_cache empty. The parent only waits while a pass runs.

--trace 0  end-to-end metrics: passes repeat until --seconds is used up (at
           least one); timings are medians over passes or over all queries.
--trace 1  per-layer metrics: one plain pass, one counted pass and one traced
           pass (perfbench/instrument.py); cli-session also runs one
           subprocess session for its exit codes.

Outputs are checked by independent routes (perfbench/oracles.py) after the
timed passes. Every metric is printed as ``name value unit``; a result file
goes to perfbench/results/, and the last stdout line is one JSON object with
the metrics declared in BENCHMARK.json for the chosen --trace.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches
import oracles  # noqa: E402
import workloads  # noqa: E402
from instrument import LAYERS  # noqa: E402
from proc import child_env, run_child  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_SPAWNS = 9
MAX_PASSES = 40
BUDGET_S = 170.0  # the whole run must end well within 180 s

# Spans that each workload must record at least once in a traced pass.
EXPECTED_SPANS = {
    "lr-ring": (
        "schur.mult", "schur._mult_basis", "tableaux.lr_coefficient", "tableaux._lr_count",
        "tableaux._ballot_fillings", "schur.skew_schur_expand", "schur.jacobi_trudi",
        "schur.h_monomial_to_schur", "schur._h_product",
    ),
    "stable-classical": (
        "classical.stable_tensor_expansion", "classical._universal_in_schur",
        "classical.branch_schur", "classical._domino_class_sum", "classical._branch_expansion",
        "classical.family_decomposition", "classical.tensor_product_two_ways",
        "schur.mult", "schur._mult_basis", "schur.skew_schur_expand", "tableaux._ballot_fillings",
    ),
    "fermionic": (
        "fermionic.fermionic_decomp", "fermionic.fermionic_multiplicity", "fermionic._config_sum",
        "fermionic._node_factor", "fermionic.vacancy", "fermionic.alpha_coords",
        "lie.cartan_matrix", "lie.root_coords_of_weight_vector",
    ),
    "cli-session": (
        "cli.main", "verify.run_verify_suite", "looproot.commute_check", "looproot.cone_membership",
        "looproot.beta_roots", "looproot.positive_roots", "closed_forms.closed_form_rectangle",
        "fermionic.fermionic_decomp", "classical.family_decomposition", "schur.mult",
        "tableaux._ballot_fillings", "lie.cartan_matrix", "lie.integer_root_coords",
    ),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n queries beyond it."""
    return max(p for p in range(1, 100) if n - math.ceil(p * n / 100) >= 10)


def nearest_rank(sorted_values: list[float], p: float) -> float:
    return sorted_values[max(math.ceil(p * len(sorted_values) / 100) - 1, 0)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    files = sorted((root / "src").rglob("*.py")) + sorted(HERE.glob("*.py")) + [root / "BENCHMARK.json"]
    for path in files:
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


class Runner:
    def __init__(self, root: Path, seconds: float):
        self.root = root
        self.seconds = seconds
        self.start = time.perf_counter()
        self.env = child_env(str(root))

    def remaining(self) -> float:
        left = BUDGET_S - (time.perf_counter() - self.start)
        if left <= 1:
            raise BenchError("time budget exhausted")
        return left

    def setup_times(self) -> list[float]:
        """Seconds for a fresh interpreter to finish ``import lrwkit``.

        The first spawn is a warm-up that also writes the bytecode cache; it
        is not counted.
        """
        argv = [sys.executable, "-c", "import lrwkit"]
        times = []
        for i in range(SETUP_SPAWNS + 1):
            out = run_child(argv, env=self.env, cwd=str(self.root), timeout=self.remaining())
            if out.code != 0:
                raise BenchError(f"import lrwkit failed: {out.stderr.decode(errors='replace')[-400:]}")
            if i:
                times.append(out.seconds)
        return times

    def worker(self, mode: str, queries: list) -> dict:
        job = {"root": str(self.root), "mode": mode, "queries": queries,
               "deadline_s": workloads.CLI_DEADLINE_S}
        out = run_child(
            [sys.executable, str(HERE / "worker.py")],
            stdin=json.dumps(job).encode(),
            env=self.env,
            cwd=str(self.root),
            timeout=self.remaining(),
        )
        if out.code != 0:
            raise BenchError(f"{mode} worker failed: {out.stderr.decode(errors='replace')[-800:]}")
        result = json.loads(out.stdout)
        result["maxrss_kb"] = out.maxrss_kb
        times = result["times"]
        result["wall_s"] = times[-1][1] - times[0][0] if times else 0.0
        return result

    def timed_passes(self, mode: str, queries: list) -> list[dict]:
        """Passes until the next one would end nearer after --seconds than before."""
        passes = []
        begin = time.perf_counter()
        while True:
            passes.append(self.worker(mode, queries))
            elapsed = time.perf_counter() - begin
            if len(passes) >= MAX_PASSES or elapsed + elapsed / len(passes) / 2 > self.seconds:
                return passes


def layer_metrics(counted: dict, traced: dict, plain_wall: float) -> dict:
    counts = counted.get("counters", {})
    caches = counted["caches"]

    def hit_ratio(name: str) -> float:
        hits, misses, _ = caches.get(name, (0, 0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    def cache_field(name: str, k: int) -> int:
        return caches.get(name, (0, 0, 0))[k]

    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    checks: dict[str, float] = {}
    for name, _parent, _calls, inclusive, self_s in traced["spans"]:
        layer = name.partition(".")[0]
        m[f"{layer}.self_s"] = m.get(f"{layer}.self_s", 0.0) + self_s
        if name.startswith("verify.check."):
            checks[name + ".s"] = checks.get(name + ".s", 0.0) + inclusive
    m.update(checks)
    m["trace.overhead_ratio"] = traced["wall_s"] / plain_wall if plain_wall else 0.0
    m["cache.count"] = len(caches)
    m["partitions.partition_new.calls"] = counts.get("partitions.partition_new.calls", 0)
    m["tableaux.ballot_fillings.calls"] = counts.get("tableaux.ballot_fillings.calls", 0)
    m["tableaux.fillings_returned"] = counts.get("tableaux.fillings_returned", 0)
    m["tableaux.lr_count.hit_ratio"] = hit_ratio("tableaux._lr_count")
    m["schur.mult.calls"] = counts.get("schur.mult.calls", 0)
    m["schur.mult_basis.hit_ratio"] = hit_ratio("schur._mult_basis")
    m["schur.mult_basis.misses"] = cache_field("schur._mult_basis", 1)
    m["schur.skew_schur_expand.hit_ratio"] = hit_ratio("schur.skew_schur_expand")
    m["schur.h_product.hit_ratio"] = hit_ratio("schur._h_product")
    m["classical.stable_tensor_expansion.calls"] = (
        cache_field("classical.stable_tensor_expansion", 0) + cache_field("classical.stable_tensor_expansion", 1)
    )
    m["classical.universal_in_schur.misses"] = cache_field("classical._universal_in_schur", 1)
    m["classical.domino_class_sum.misses"] = cache_field("classical._domino_class_sum", 1)
    m["classical.cache_entries"] = sum(v[2] for k, v in caches.items() if k.startswith("classical."))
    calls = counts.get("fermionic.config_sum.calls", 0)
    m["fermionic.config_sum.calls"] = calls
    m["fermionic.config_sum.useful_ratio"] = counts.get("fermionic.config_sum.nonzero", 0) / calls if calls else 0.0
    m["fermionic.node_factor.calls"] = counts.get("fermionic.node_factor.calls", 0)
    m["fermionic.vacancy.calls"] = counts.get("fermionic.vacancy.calls", 0)
    m["lie.cartan_matrix.hit_ratio"] = hit_ratio("lie.cartan_matrix")
    m["lie.root_coords.calls"] = counts.get("lie.root_coords.calls", 0)
    m["looproot.commute_check.calls"] = counts.get("looproot.commute_check.calls", 0)
    m["looproot.cone_membership.calls"] = counts.get("looproot.cone_membership.calls", 0)
    m["looproot.cone.solutions"] = counts.get("looproot.cone.solutions", 0)
    return m


def predictions(workload: str, m: dict) -> list[tuple[str, bool]]:
    """The per-layer predictions this benchmark was designed around."""
    total = sum(m[f"{layer}.self_s"] for layer in LAYERS) or 1.0
    if workload == "lr-ring":
        return [
            ("tableaux+schur self time is over half of traced time",
             (m["tableaux.self_s"] + m["schur.self_s"]) / total > 0.5),
            ("classical and fermionic record no work",
             m["classical.self_s"] == 0 and m["fermionic.self_s"] == 0
             and m["classical.stable_tensor_expansion.calls"] == 0 and m["fermionic.config_sum.calls"] == 0),
        ]
    if workload == "fermionic":
        return [("fermionic self time is over half of traced time", m["fermionic.self_s"] / total > 0.5),
                ("no tableau work", m["tableaux.ballot_fillings.calls"] == 0)]
    if workload == "stable-classical":
        return [("classical records work", m["classical.self_s"] > 0 and m["classical.universal_in_schur.misses"] > 0)]
    return [("cli and looproot record work", m["cli.self_s"] > 0 and m["looproot.self_s"] > 0)]


def score(workload: str, queries: list, passes: list[dict], lrw) -> tuple[list, int]:
    """Failures (pass, query index, reason) and attempts over checked passes.

    The first pass is checked by the oracles; every later pass must repeat
    its outputs exactly.
    """
    first = passes[0]["outputs"]
    verdicts = oracles.check(workload, queries, first, lrw)

    def result(out):  # a CLI run's rusage and stderr may differ between passes
        return (out["code"], out["stdout"]) if workload == "cli-session" else out

    failures = []
    for k, p in enumerate(passes):
        for i, out in enumerate(p["outputs"]):
            if k and result(out) != result(first[i]):
                failures.append((f"pass {k}", i, "output differs from the first pass"))
            elif verdicts[i] is not None:
                failures.append((f"pass {k}", i, verdicts[i]))
    return failures, len(passes) * len(queries)


def known_unbounded(queries: list, failures: list) -> bool:
    """True when every failure is a known-unbounded CLI input passing its deadline."""
    return all(queries[i][0] == "cli" and queries[i][2] == "unbounded" and why == "passed the deadline"
               for _, i, why in failures)


def end_to_end(cli: bool, queries: list, passes: list[dict], setup: list[float]) -> dict:
    m: dict[str, tuple[float, str]] = {}

    def put(name: str, values: list[float], unit: str) -> None:
        q1, med, q3 = quartiles(values)
        m[name] = (med, unit)
        m[name + ".q1"], m[name + ".q3"], m[name + ".n"] = (q1, unit), (q3, unit), (len(values), "count")

    put("wall_s", [p["wall_s"] for p in passes], "s")
    latencies = sorted((t1 - t0) * 1e3 for p in passes for t0, t1 in p["times"])
    put("query_p50_ms", latencies, "ms")
    tail_p = tail_percentile(len(queries))
    m["query_tail_ms"] = (nearest_rank(latencies, tail_p), "ms")
    m["query_tail_ms.percentile"] = (tail_p, "pct")
    if cli:  # the largest CLI process that finished within its deadline
        rss = [max(o["maxrss_kb"] for o in p["outputs"] if o["code"] is not None) for p in passes]
    else:
        rss = [p["peak_rss_kb"] or p["maxrss_kb"] for p in passes]
    put("peak_rss_mb", [kb / 1024 for kb in rss], "MB")
    put("setup_s", setup, "s")
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd().resolve()
    try:
        return run(root, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def run(root: Path, args: argparse.Namespace) -> int:
    if not (root / "src" / "lrwkit" / "__init__.py").is_file():
        raise BenchError(f"no lrwkit source under {root / 'src'}; run from the root of a checkout")
    bench = json.loads((root / "BENCHMARK.json").read_text())
    queries = workloads.generate(args.workload, args.seed)
    runner = Runner(root, args.seconds)
    cli = args.workload == "cli-session"

    if args.trace == 0:
        setup = runner.setup_times()
        scored = runner.timed_passes("session" if cli else "plain", queries)
    else:
        scored = [runner.worker("session", queries)] if cli else []
        plain, counted, traced = (runner.worker(mode, queries) for mode in ("plain", "count", "trace"))
        scored = scored or [plain]

    # ---- checks, after every timed pass has ended
    sys.path.insert(0, str(root / "src"))
    import lrwkit  # noqa: E402

    failures, attempted = score(args.workload, queries, scored, lrwkit)
    correct = known_unbounded(queries, failures)
    missing: list[str] = []
    if args.trace == 1:
        # Counters, spans and in-process replays must not change any output.
        # The replays of cli-session skip the known-unbounded inputs.
        replayed = [i for i, q in enumerate(queries) if not (cli and q[2] == "unbounded")]
        first = scored[0]["outputs"]
        for label, p in (("plain", plain), ("count", counted), ("trace", traced)):
            if p is scored[0]:
                continue
            for i, out in zip(replayed, p["outputs"]):
                attempted += 1
                if (out["stdout"] if cli else out) != (first[i]["stdout"] if cli else first[i]):
                    failures.append((label, i, "output differs from the checked pass"))
                    correct = False
        recorded = {row[0] for row in traced["spans"]}
        missing = [name for name in EXPECTED_SPANS[args.workload] if name not in recorded]
        correct = correct and not missing
    error_rate = len(failures) / attempted

    # ---- metrics
    if args.trace == 0:
        metrics = end_to_end(cli, queries, scored, setup)
        metrics["error_rate"] = (error_rate, "ratio")
        declared = bench["end_to_end"]
    else:
        layer = layer_metrics(counted, traced, plain["wall_s"])
        expected_exit = {"ok": {0}, "refuse": {3}, "unbounded": {0, 3}}
        layer["cli.exit_unexpected"] = sum(
            1 for q, o in zip(queries, scored[0]["outputs"]) if o["code"] not in expected_exit[q[2]]
        ) if cli else 0
        layer["error_rate"] = error_rate
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = {name: (layer.get(name, 0), units.get(name, "")) for name in sorted(set(layer) | set(units))}
        declared = bench["per_layer"]
        for name in missing:
            print(f"missing span {name}")
        for text, holds in predictions(args.workload, layer):
            print(f"prediction {'holds' if holds else 'FAILS'}: {text}")

    for i, why in sorted({(i, why) for _, i, why in failures}):
        print(f"failed query {i}: {why}: {json.dumps(queries[i])}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "inputs_sha256": hashlib.sha256(workloads.canonical_bytes(queries)).hexdigest(),
        "queries_per_pass": len(queries),
        "passes": len(scored),
        "cli_deadline_s": workloads.CLI_DEADLINE_S,
        "correct": correct,
        "attempted": attempted,
        "failures": [list(f) for f in failures],
        "missing_spans": missing,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "pass_walls_s": [p["wall_s"] for p in scored],
    }
    if args.trace == 0:
        result["setup_times_s"] = setup
    else:
        result.update(spans=traced["spans"], counters=counted.get("counters", {}), caches=counted["caches"])
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")
    print(f"result_file {out_file.relative_to(root)}")
    print(f"bench.elapsed_s {time.perf_counter() - runner.start:.3f} s")

    final = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
