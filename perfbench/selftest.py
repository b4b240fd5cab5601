"""Self-tests of the benchmark itself; run from the root of a checkout:

    python3 perfbench/selftest.py

1. One seed always yields byte-identical inputs, also in a fresh interpreter
   with another hash seed; another seed yields other inputs.
2. Every check catches a corrupted output: a copy of a real pass with one
   result changed raises error_rate above 0 on every workload.
3. BENCHMARK.json agrees with the code: the tail percentile and the deadline
   written in each workload's ``why``, and one per-layer metric per verify
   check.
4. A traced run of every workload records each expected span at least once,
   is correct, and the per-layer predictions hold.

Exits 0 when every test passes.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import run  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd().resolve()
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def test_inputs_repeat() -> None:
    for name in workloads.WORKLOADS:
        a = workloads.canonical_bytes(workloads.generate(name, 7))
        b = workloads.canonical_bytes(workloads.generate(name, 7))
        code = (
            "import sys; sys.path.insert(0, 'perfbench'); import workloads; "
            f"sys.stdout.buffer.write(workloads.canonical_bytes(workloads.generate({name!r}, 7)))"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        c = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, cwd=ROOT).stdout
        other = workloads.canonical_bytes(workloads.generate(name, 8))
        expect(a == b == c, f"{name}: seed 7 gives byte-identical inputs across processes")
        expect(a != other, f"{name}: seed 8 gives other inputs")


def _corrupt(workload: str, outputs: list) -> list:
    """A copy of the outputs with the first checkable result changed."""
    bad = copy.deepcopy(outputs)
    for i, out in enumerate(bad):
        if workload == "cli-session":
            lines = out["stdout"].splitlines()
            payload = json.loads(lines[0]) if out["code"] == 0 and len(lines) == 1 else {}
            key = next((k for k in ("result", "coefficient", "terms", "solutions", "multiplicity") if k in payload), None)
            if key is not None:
                payload[key] = "corrupted"
                out["stdout"] = json.dumps(payload) + "\n"
                return bad
        elif isinstance(out, int):
            bad[i] = out + 1
            return bad
        elif out and isinstance(out[0], list) and len(out[0]) == 2 and isinstance(out[0][1], int):
            out[0][1] += 1
            return bad
        elif out and isinstance(out[0], list):  # tensor_product_two_ways: [lhs, rhs]
            out[0].append([[99], 1])
            return bad
    raise AssertionError(f"nothing to corrupt in {workload}")


def test_corruption_is_caught() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import lrwkit

    runner = run.Runner(ROOT, 0)
    for name in workloads.WORKLOADS:
        queries = workloads.generate(name, 3)
        if name == "cli-session":
            queries = [q for q in queries if q[2] != "unbounded" and q[1][0] != "verify"]
        passed = runner.worker("session" if name == "cli-session" else "plain", queries)
        failures, attempted = run.score(name, queries, [passed], lrwkit)
        expect(not failures, f"{name}: a real pass has error_rate 0")
        bad = dict(passed, outputs=_corrupt(name, passed["outputs"]))
        failures, attempted = run.score(name, queries, [passed, bad], lrwkit)
        expect(len(failures) / attempted > 0, f"{name}: a corrupted copy raises error_rate above 0")
        failures, attempted = run.score(name, queries, [bad], lrwkit)
        expect(len(failures) / attempted > 0, f"{name}: a corrupted first pass fails its oracle")


def test_benchmark_json() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in bench["per_layer"]}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    for name in workloads.WORKLOADS:
        p = run.tail_percentile(len(workloads.generate(name, 1)))
        expect(f"tail=p{p} " in why[name] + " ", f"{name}: BENCHMARK.json records tail percentile p{p}")
    deadline = f"deadline {workloads.CLI_DEADLINE_S:g} s"
    expect(deadline in why["cli-session"], f"cli-session: BENCHMARK.json records the {deadline}")
    sys.path.insert(0, str(ROOT / "src"))
    from lrwkit import verify

    checks = {f"verify.check.{c.name}.s" for c in verify.run_verify_suite("full").checks}
    expect(checks == {n for n in names if n.startswith("verify.check.")}, "one per-layer metric per verify check")


def test_traced_runs() -> None:
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1",
             "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = out.stdout.splitlines()
        result = json.loads(lines[-1]) if out.returncode == 0 and lines else {}
        expect(bool(result.get("correct")), f"{name}: traced run is correct")
        expect(not any(line.startswith("missing span") for line in lines),
               f"{name}: every expected span is recorded")
        expect(not any(line.startswith("prediction FAILS") for line in lines),
               f"{name}: the per-layer predictions hold")


def main() -> int:
    test_inputs_repeat()
    test_benchmark_json()
    test_corruption_is_caught()
    test_traced_runs()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
