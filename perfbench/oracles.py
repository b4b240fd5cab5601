"""Output checks, each by a route independent of the function under test.

``check(workload, queries, outputs, lrw)`` returns one entry per query: None
when the output passes, else a short reason. It runs in the benchmark's
parent process after every timed pass has ended.

lr-ring           mult: hook-length identity sum_l c_l f^l = C(n,|mu|) f^mu f^nu,
                  with every key a partition of n containing mu and nu;
                  skew: the Jacobi-Trudi route; jt: the ballot-tableau route
stable-classical  sp == o, grading, top degree equal to lr_coefficient and
                  complete by the hook identity; family_decomposition and
                  branch_schur by omega-duality against the other family on
                  the conjugate; tensor_product_two_ways: lhs == rhs
fermionic         the domino-class family decomposition of the rectangle
cli-session       exit code, then the parsed JSON against the in-process
                  library (or this module's own arithmetic for partitions)
"""

from __future__ import annotations

import json
from math import comb, factorial

from workloads import conjugate, fits, weight_coeffs


def syt_count(p: list[int]) -> int:
    """Standard Young tableaux of shape p, by the hook-length formula."""
    cols = conjugate(p)
    hooks = 1
    for i, row in enumerate(p):
        for j in range(row):
            hooks *= row - j + cols[j] - i - 1
    return factorial(sum(p)) // hooks


def _hook_identity(mu: list[int], nu: list[int], terms: list) -> str | None:
    n = sum(mu) + sum(nu)
    for lam, c in terms:
        if c <= 0 or sum(lam) != n or not fits(lam, mu) or not fits(lam, nu):
            return f"bad term {lam}: {c}"
    lhs = sum(c * syt_count(lam) for lam, c in terms)
    if lhs != comb(n, sum(mu)) * syt_count(mu) * syt_count(nu):
        return "hook-length identity fails"
    return None


def _expansion(e) -> list:
    return [[list(p), c] for p, c in sorted(e.terms.items())]


def _conjugated(terms: list) -> list:
    return sorted([conjugate(p), c] for p, c in terms)


def _lr_ring(queries, outputs, lrw) -> list:
    P, S = lrw.Partition, lrw.schur
    verdicts = []
    for q, out in zip(queries, outputs):
        if q[0] == "mult":
            verdicts.append(_hook_identity(q[1], q[2], out))
        elif q[0] == "skew":
            want = _expansion(S.h_monomial_to_schur(S.jacobi_trudi(P(q[1]), P(q[2]))))
            verdicts.append(None if out == want else "differs from Jacobi-Trudi route")
        else:
            want = _expansion(S.skew_schur_expand(P(q[1]), P(q[2])))
            verdicts.append(None if out == want else "differs from ballot-tableau route")
    return verdicts


def _stable_classical(queries, outputs, lrw) -> list:
    P = lrw.Partition
    by_key = {(q[0], tuple(q[1]), tuple(q[2]) if q[0] in ("stable", "t2w") else None, q[-1]): out
              for q, out in zip(queries, outputs)}
    verdicts = []
    for q, out in zip(queries, outputs):
        op = q[0]
        if op == "stable":
            mu, nu, fam = q[1], q[2], q[3]
            other = by_key.get(("stable", tuple(mu), tuple(nu), "o" if fam == "sp" else "sp"))
            if other != out:
                verdicts.append("sp and o disagree")
                continue
            bad = None
            top = []
            for lam, d in out:
                deficit = sum(mu) + sum(nu) - sum(lam)
                if d <= 0 or deficit < 0 or deficit % 2:
                    bad = f"grading fails at {lam}"
                    break
                if deficit == 0:
                    top.append([lam, d])
                    if d != lrw.lr_coefficient(P(lam), P(mu), P(nu)):
                        bad = f"top degree differs from lr_coefficient at {lam}"
                        break
            verdicts.append(bad or _hook_identity(mu, nu, top))
        elif op in ("famdec", "branch"):
            lam, fam = q[1], q[2]
            dual = by_key.get((op, tuple(conjugate(lam)), None, "o" if fam == "sp" else "sp"))
            if dual is None or _conjugated(dual) != out:
                verdicts.append("omega-duality fails")
            elif [lam, 1] not in out:
                verdicts.append("top term is not 1")
            else:
                verdicts.append(None)
        else:  # t2w
            verdicts.append(None if out[0] == out[1] else "tensor rule sides differ")
    return verdicts


_FAMILY_TAG = {"B": "o", "C": "sp", "D": "o"}


def _partition_of_weight(coeffs: list[int]) -> list[int]:
    parts = [sum(coeffs[k:]) for k in range(len(coeffs))]
    return [p for p in parts if p]


def _fermionic(queries, outputs, lrw) -> list:
    verdicts = []
    for q, out in zip(queries, outputs):
        family, rank, m, ell = q[1], q[2], q[3], q[4]
        decomp = lrw.classical.family_decomposition(lrw.Partition([m] * ell), _FAMILY_TAG[family])
        if q[0] == "fdecomp":
            want = sorted([weight_coeffs(list(mu), rank), k] for mu, k in decomp.terms.items())
            verdicts.append(None if out == want else "differs from domino decomposition")
        else:
            want = decomp.multiplicity(lrw.Partition(_partition_of_weight(q[5])))
            verdicts.append(None if out == want else f"multiplicity {out}, domino route {want}")
    return verdicts


def _parse(arg: str) -> list[int]:
    return [] if arg in ("", "-") else [int(t) for t in arg.split(",")]


def _jsonable(value) -> object:
    return json.loads(json.dumps(value))


def _split_argv(argv: list[str]) -> tuple[dict, list]:
    """Options ('--k v' or '--k=v', each a list of its values) and positionals."""
    opts: dict[str, list[str]] = {}
    pos: list[str] = []
    items = iter(argv)
    for a in items:
        if a.startswith("--"):
            key, eq, value = a.partition("=")
            opts.setdefault(key, []).append(value if eq else next(items))
        else:
            pos.append(a)
    return opts, pos


def _cli_expected(argv: list[str], lrw) -> dict:
    """The fields of the CLI payload that carry results, from the library."""
    P, S, C = lrw.Partition, lrw.schur, lrw.classical
    opts, pos = _split_argv(argv)
    opt = {k: v[-1] for k, v in opts.items()}
    verb = pos[0]
    if verb == "part":
        op, arg = pos[1], pos[2]
        if op == "conjugate":
            return {"result": conjugate(_parse(arg))}
        if op == "size":
            return {"result": sum(_parse(arg))}
        if op == "contains":
            return {"result": fits(_parse(arg), _parse(pos[3]))}
        if op == "toweight":
            return {"result": weight_coeffs(_parse(arg), int(pos[3]))}
        coeffs = [int(t) for t in arg.partition("@")[0].split(",")]
        return {"result": _partition_of_weight(coeffs)}
    if verb == "schur":
        op, a = pos[1], P(_parse(pos[2]))
        if op == "mult":
            return {"result": S.mult(S.schur_basis(a), S.schur_basis(_parse(pos[3]))).to_jsonable()}
        if op == "skew":
            return {"result": S.skew_schur_expand(a, P(_parse(pos[3]))).to_jsonable()}
        inner = P(_parse(pos[3])) if len(pos) > 3 else P()
        hexp = S.jacobi_trudi(a, inner)
        return {"h_expansion": hexp.to_jsonable(), "schur": S.h_monomial_to_schur(hexp).to_jsonable()}
    if verb == "lr":
        return {"coefficient": lrw.lr_coefficient(*(P(_parse(a)) for a in pos[1:4]))}
    if verb == "branch":
        return {"result": C.branch_schur(P(_parse(pos[1])), opt["--target"]).to_jsonable()}
    if verb == "dcoef":
        exp = C.stable_tensor_expansion(P(_parse(pos[1])), P(_parse(pos[2])), opt.get("--family", "sp"))
        if "--lam" in opt:
            return {"coefficient": exp.coefficient(P(_parse(opt["--lam"])))}
        return {"result": exp.to_jsonable()}
    if verb == "wdecomp":
        return _jsonable(C.family_decomposition(P(_parse(pos[1])), opt["--family"]).to_jsonable())
    if verb == "wtensor":
        lhs, rhs = C.tensor_product_two_ways(P(_parse(pos[1])), P(_parse(pos[2])), opt["--family"])
        return {"lhs": lhs.to_jsonable(), "rhs": rhs.to_jsonable(), "equal": lhs == rhs}
    if verb == "fermionic":
        spec = lrw.LieSpec(pos[1], int(pos[2]))
        factors = [tuple(int(t) for t in f.split(",")) for f in opts["--factor"]]
        if "--weight" in opt:
            coeffs, _, rank = opt["--weight"].partition("@rank=")
            w = lrw.DominantWeight(tuple(int(t) for t in coeffs.split(",")), int(rank))
            return {"multiplicity": lrw.fermionic_multiplicity(spec, factors, w)}
        decomp = lrw.fermionic_decomp(spec, factors)
        return {"terms": [{"weight": list(w.coeffs), "mult": k}
                          for w, k in sorted(decomp.items(), key=lambda kv: kv[0].coeffs, reverse=True)]}
    if verb == "roots":
        op, spec = pos[1], lrw.LieSpec(pos[2], int(pos[3]))
        if op == "beta":
            return _jsonable(lrw.beta_roots(spec).to_jsonable())
        if op == "commute":
            return _jsonable(lrw.commute_check(spec))
        if "--alpha" in opt:
            coords = tuple(int(t) for t in opt["--alpha"].split(","))
        else:
            coords = lrw.integer_root_coords(spec, tuple(int(t) for t in opt["--weight"].split(",")))
            if coords is None:
                return {"solutions": []}
        sols = lrw.cone_membership(lrw.RootLatticeElement(coords, spec.rank), spec)
        return {"solutions": [list(s) for s in sols]}
    raise ValueError(f"no oracle for {argv}")


def _verify_lines(level: str, lrw) -> list:
    report = lrw.run_verify_suite(level)
    lines = [c.to_jsonable() for c in report.checks]
    lines.append({"summary": {"level": level, "total": len(report.checks),
                              "passed": report.passed, "failed": report.failed}})
    return lines


def _unbounded_ok(argv: list[str], payload: dict, lrw) -> bool:
    """Cheap checks for the unbounded inputs, should one ever finish in time."""
    if argv[:2] == ["roots", "commute"]:
        return payload.get("ok") is True
    if argv[:2] == ["roots", "cone"]:
        spec = lrw.LieSpec(argv[2], int(argv[3]))
        betas = [r.coords for r in lrw.beta_roots(spec).roots]
        alpha = payload.get("alpha")
        return all(
            [sum(s[k] * b[i] for k, b in enumerate(betas)) for i in range(spec.rank)] == alpha
            for s in payload.get("solutions", [])
        )
    opts, pos = _split_argv(argv)
    spec = lrw.LieSpec(pos[1], int(pos[2]))
    m, node = (int(t) for t in opts["--factor"][0].split(","))
    decomp = lrw.classical.family_decomposition(lrw.Partition([m] * node), _FAMILY_TAG[spec.family])
    want = sorted([weight_coeffs(list(mu), spec.rank), k] for mu, k in decomp.terms.items())
    return sorted([t["weight"], t["mult"]] for t in payload.get("terms", [])) == want


def cli_verdict(argv: list[str], kind: str, code, stdout: str, lrw) -> str | None:
    if code is None:
        return "passed the deadline"
    if kind == "refuse" or (kind == "unbounded" and code == 3):
        return None if code == 3 else f"exit {code}, expected 3"
    if code != 0:
        return f"exit {code}, expected 0"
    try:
        lines = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except json.JSONDecodeError:
        return "output is not JSON lines"
    if argv[0] == "verify":
        return None if lines == _verify_lines(argv[2], lrw) else "verify report differs"
    if len(lines) != 1:
        return f"{len(lines)} output lines, expected 1"
    if kind == "unbounded":
        return None if _unbounded_ok(argv, lines[0], lrw) else "wrong answer"
    want = _cli_expected(argv, lrw)
    wrong = [k for k, v in want.items() if lines[0].get(k) != v]
    return f"fields differ: {wrong}" if wrong else None


def _cli_session(queries, outputs, lrw) -> list:
    return [
        cli_verdict(q[1], q[2], out["code"], out["stdout"], lrw) for q, out in zip(queries, outputs)
    ]


_CHECKS = {
    "lr-ring": _lr_ring,
    "stable-classical": _stable_classical,
    "fermionic": _fermionic,
    "cli-session": _cli_session,
}


def check(workload: str, queries: list, outputs: list, lrw) -> list:
    return _CHECKS[workload](queries, outputs, lrw)
