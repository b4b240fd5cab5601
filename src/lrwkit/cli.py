"""Command-line surface: JSON-lines output, TSV tables, and the verify suite.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 resource cap
exceeded. The two global options are the only settings: ``--max-boxes``
(default 10) and ``--format`` (json or tsv). Enumeration-heavy commands refuse
inputs larger than the box cap instead of hanging; ``roots commute`` refuses
ranks whose pairs of distinguished roots exceed COMMUTE_MAX_PAIRS, ``roots
beta`` ranks whose roots have more than BETA_MAX_COORDS coordinates in all,
and ``roots cone`` answers whose solutions times labels pass that same budget,
as do a weight's rank (``part toweight`` and any ``@rank=``) and ``part
conjugate``'s box count, checked before anything of that length is built.

Each command returns its JSON lines and ``_write`` alone prints them; a TSV
row is a flat view of the JSON payload, read off it. A reader that closes
stdout early ends the output without changing the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice
from typing import Callable, Sequence

from . import classical, fermionic, looproot, schur, verify
from .lie import LieSpec, integer_root_coords
from .partitions import (
    DominantWeight,
    Partition,
    RootLatticeElement,
    conjugate,
    contains,
    partition_from_weight,
    size,
    weight_from_partition,
)
from .tableaux import lr_coefficient

DEFAULT_MAX_BOXES = 10
# The commutation check scans every ordered pair of distinguished roots. Near
# this many pairs it takes about 2 s (rank 79 of D, 77 of C).
COMMUTE_MAX_PAIRS = 9_000_000
# ``roots beta`` prints rank coordinates per distinguished root, rank^3/2 in all.
# Near this many it takes about 2 s (rank 150 of B, C and D). ``roots cone``
# spends the same budget on solutions times labels, and the ``part`` verbs on a
# weight's rank (also any ``@rank=``) or a partition's boxes.
BETA_MAX_COORDS = 1_700_000

# A command's answer: its JSON lines, the function that reads its TSV rows off
# them, and the step that runs once they are written and returns the exit code.
Answer = tuple[list[dict], Callable[..., list[list]], Callable[[], int] | None]


class ResourceCapExceeded(Exception):
    """Raised when an input would push enumeration past a resource cap."""


class UsageError(Exception):
    """Raised for malformed values inside otherwise well-formed arguments."""


def parse_partition(text: str) -> Partition:
    """Comma-separated decreasing integers; '' or '-' is the empty partition."""
    text = text.strip()
    if text in ("", "-"):
        return Partition()
    try:
        parts = [int(tok) for tok in text.split(",")]
        return Partition(parts)
    except ValueError as exc:
        raise UsageError(f"bad partition {text!r}: {exc}") from exc


def parse_weight(text: str) -> DominantWeight:
    """Coefficient list with explicit rank, e.g. '1,2,1@rank=3'."""
    try:
        coeff_part, _, rank_part = text.partition("@")
        if not rank_part.startswith("rank="):
            raise ValueError("expected '<coeffs>@rank=<n>'")
        rank = int(rank_part[len("rank="):])
        _check_limit(rank, BETA_MAX_COORDS, "coordinates", "weight has")
        coeffs = tuple(int(tok) for tok in coeff_part.split(",")) if coeff_part.strip() else ()
        return DominantWeight(coeffs + (0,) * (rank - len(coeffs)), rank)
    except ValueError as exc:
        raise UsageError(f"bad weight {text!r}: {exc}") from exc


def parse_int_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad integer vector {text!r}: {exc}") from exc


def parse_factor(text: str) -> tuple[int, int]:
    try:
        m_tok, l_tok = text.split(",")
        return int(m_tok), int(l_tok)
    except ValueError as exc:
        raise UsageError(f"bad factor {text!r} (expected 'm,node'): {exc}") from exc


def _family_tag(text: str) -> str:
    lowered = text.lower()
    if lowered in ("sp", "symplectic"):
        return "sp"
    if lowered in ("o", "orthogonal"):
        return "o"
    raise UsageError(f"family must be sp or o, got {text!r}")


def _check_cap(boxes: int, cap: int, what: str) -> None:
    if boxes > cap:
        raise ResourceCapExceeded(
            f"{what} needs {boxes} boxes, over the cap of {cap}; "
            f"raise --max-boxes to allow it"
        )


def _check_limit(amount: int, limit: int, unit: str, what: str) -> None:
    if amount > limit:
        raise ResourceCapExceeded(f"{what} {amount:,} {unit}, over the limit of {limit:,} {unit}")


def _cell(value: object) -> str:
    """A TSV cell: a list as comma-separated entries (``-`` if empty), a bool as in JSON."""
    if isinstance(value, list):
        return ",".join(map(str, value)) or "-"
    return json.dumps(value) if isinstance(value, bool) else str(value)


def _expansion_rows(terms: list[dict], prefix: str = "") -> list[list]:
    return [[prefix + _cell(t["partition"]), t["coeff"]] for t in terms]


def _result_rows(j: dict) -> list[list]:
    return _expansion_rows(j["result"])


def _write(fmt: str, lines: list[dict], rows: Callable[..., list[list]]) -> None:
    """Print an answer: its JSON lines, or the TSV rows read off them.

    The only writer of stdout. If the reader closes it early, the output ends
    there and fd 1 points at os.devnull, so the interpreter's exit flush stays
    quiet; the caller keeps its exit code.
    """
    if fmt == "tsv":
        text = ("\t".join(map(_cell, row)) for row in rows(*lines))
    else:
        text = (json.dumps(line, separators=(",", ":")) for line in lines)
    try:
        for line in text:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# ------------------------------------------------------------------- handlers


def _cmd_part(args: argparse.Namespace) -> Answer:
    op = args.part_op
    if op == "contains":
        outer = parse_partition(args.partition)
        inner = parse_partition(args.inner)
        payload = {"op": op, "outer": list(outer), "inner": list(inner),
                   "result": contains(outer, inner)}
    elif op == "fromweight":
        w = parse_weight(args.weight)
        payload = {"op": op, "weight": list(w.coeffs), "rank": w.rank,
                   "result": list(partition_from_weight(w))}
    else:
        p = parse_partition(args.partition)
        payload = {"op": op, "partition": list(p)}
        if op == "conjugate":
            _check_limit(size(p), BETA_MAX_COORDS, "boxes", "partition has")
            payload["result"] = list(conjugate(p))
        elif op == "size":
            payload["result"] = size(p)
        else:  # toweight
            _check_limit(args.rank, BETA_MAX_COORDS, "coordinates", "weight has")
            payload.update(rank=args.rank, result=list(weight_from_partition(p, args.rank).coeffs))
    return [payload], lambda j: [[j["result"]]], None


def _cmd_schur(args: argparse.Namespace) -> Answer:
    cap = args.max_boxes
    if args.schur_op == "mult":
        a = parse_partition(args.a)
        b = parse_partition(args.b)
        _check_cap(size(a) + size(b), cap, "product")
        result = schur.mult(schur.schur_basis(a), schur.schur_basis(b))
        payload = {"op": "mult", "a": list(a), "b": list(b),
                   "result": result.to_jsonable()}
        return [payload], _result_rows, None
    lam = parse_partition(args.a)
    if args.schur_op == "skew":
        nu = parse_partition(args.b)
        _check_cap(size(lam), cap, "skew expansion")
        result = schur.skew_schur_expand(lam, nu)
        payload = {"op": "skew", "outer": list(lam), "inner": list(nu),
                   "result": result.to_jsonable()}
        return [payload], _result_rows, None
    nu = parse_partition(args.b) if args.b is not None else Partition()
    _check_cap(size(lam), cap, "determinant expansion")
    hexp = schur.jacobi_trudi(lam, nu)
    sexp = schur.h_monomial_to_schur(hexp)
    payload = {"op": "jt", "outer": list(lam), "inner": list(nu),
               "h_expansion": hexp.to_jsonable(), "schur": sexp.to_jsonable()}
    return [payload], lambda j: (
        _expansion_rows(j["h_expansion"], "h:") + _expansion_rows(j["schur"], "s:")
    ), None


def _cmd_lr(args: argparse.Namespace) -> Answer:
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    nu = parse_partition(args.nu)
    _check_cap(size(lam), args.max_boxes, "coefficient")
    c = lr_coefficient(lam, mu, nu)
    payload = {"lam": list(lam), "mu": list(mu), "nu": list(nu), "coefficient": c}
    return [payload], lambda j: [[j["coefficient"]]], None


def _cmd_branch(args: argparse.Namespace) -> Answer:
    lam = parse_partition(args.lam)
    target = _family_tag(args.target)
    _check_cap(size(lam), args.max_boxes, "restriction")
    result = classical.branch_schur(lam, target)
    payload = {"lam": list(lam), "target": target, "result": result.to_jsonable()}
    return [payload], _result_rows, None


def _cmd_dcoef(args: argparse.Namespace) -> Answer:
    mu = parse_partition(args.mu)
    nu = parse_partition(args.nu)
    family = _family_tag(args.family)
    _check_cap(size(mu) + size(nu), args.max_boxes, "tensor expansion")
    expansion = classical.stable_tensor_expansion(mu, nu, family)
    if args.lam is not None:
        lam = parse_partition(args.lam)
        payload = {"mu": list(mu), "nu": list(nu), "lam": list(lam),
                   "family": family, "coefficient": expansion.coefficient(lam)}
        return [payload], lambda j: [[j["coefficient"]]], None
    payload = {"mu": list(mu), "nu": list(nu), "family": family,
               "result": expansion.to_jsonable()}
    return [payload], _result_rows, None


def _cmd_wdecomp(args: argparse.Namespace) -> Answer:
    lam = parse_partition(args.lam)
    family = _family_tag(args.family)
    _check_cap(size(lam), args.max_boxes, "decomposition")
    payload = classical.family_decomposition(lam, family).to_jsonable()
    return [payload], lambda j: [[t["partition"], t["mult"]] for t in j["terms"]], None


def _cmd_wtensor(args: argparse.Namespace) -> Answer:
    mu = parse_partition(args.mu)
    nu = parse_partition(args.nu)
    family = _family_tag(args.family)
    _check_cap(size(mu) + size(nu), args.max_boxes, "tensor check")
    lhs, rhs = classical.tensor_product_two_ways(mu, nu, family)
    payload = {"mu": list(mu), "nu": list(nu), "family": family,
               "lhs": lhs.to_jsonable(), "rhs": rhs.to_jsonable(), "equal": lhs == rhs}
    return [payload], lambda j: (
        [["equal", j["equal"]]]
        + _expansion_rows(j["lhs"], "lhs:")
        + _expansion_rows(j["rhs"], "rhs:")
    ), None


def _cmd_fermionic(args: argparse.Namespace) -> Answer:
    spec = LieSpec(args.family.upper(), args.rank)
    factors = [parse_factor(f) for f in args.factor]
    boxes = sum(m * node for m, node in factors)
    _check_cap(boxes, args.max_boxes, "factor list")
    payload = {"family": spec.family, "rank": spec.rank, "factors": [list(f) for f in factors]}
    if args.weight is not None:
        lam = parse_weight(args.weight)
        mult = fermionic.fermionic_multiplicity(spec, factors, lam)
        payload.update(weight=list(lam.coeffs), multiplicity=mult)
        return [payload], lambda j: [[j["weight"], j["multiplicity"]]], None
    decomp = fermionic.fermionic_decomp(spec, factors)
    ordered = sorted(decomp.items(), key=lambda kv: kv[0].coeffs, reverse=True)
    payload["terms"] = [{"weight": list(w.coeffs), "mult": m} for w, m in ordered]
    return [payload], lambda j: [[t["weight"], t["mult"]] for t in j["terms"]], None


def _cmd_roots(args: argparse.Namespace) -> Answer:
    spec = LieSpec(args.family.upper(), args.rank)
    where = f"{spec.family} {spec.rank}"
    if args.roots_op == "beta":
        coords = looproot.beta_count(spec) * spec.rank
        _check_limit(coords, BETA_MAX_COORDS, "coordinates", f"distinguished roots at {where} have")
        payload = looproot.beta_roots(spec).to_jsonable()
        return [payload], lambda j: [
            [r["label"], r["alpha"]] for r in j["roots"]
        ] or [["(none)"]], None
    if args.roots_op == "commute":
        pairs = looproot.beta_count(spec) ** 2
        _check_limit(pairs, COMMUTE_MAX_PAIRS, "pairs", f"commutation check at {where} scans")
        skip = ("family", "rank", "l_max")  # then beta_count, each violation count, ok
        return [looproot.commute_check(spec)], lambda j: [
            [k, len(v) if isinstance(v, list) else v] for k, v in j.items() if k not in skip
        ], None
    if args.alpha is not None:  # RootLatticeElement checks the length
        coords = parse_int_vector(args.alpha)
    else:
        wvec = parse_int_vector(args.weight)
        if len(wvec) != spec.rank:
            raise UsageError(f"expected {spec.rank} coefficients, got {len(wvec)}")
        coords = integer_root_coords(spec, wvec)
        if coords is None:
            payload = {"family": spec.family, "rank": spec.rank, "weight": list(wvec),
                       "solutions": [], "note": "not in the root lattice"}
            return [payload], lambda j: [["solutions", len(j["solutions"])]], None
    diff = RootLatticeElement(coords, spec.rank)
    # the answer shares the ``roots beta`` budget: solutions times labels
    labels = looproot.beta_count(spec)
    _check_limit(labels, BETA_MAX_COORDS, "coordinates", f"one cone solution at {where} has")
    walk = looproot._cone_walk(diff, spec)
    sols = list(islice(walk, BETA_MAX_COORDS // max(labels, 1) + 1))
    what = f"cone solutions at {where} have at least"
    _check_limit(len(sols) * labels, BETA_MAX_COORDS, "coordinates", what)
    payload = {"family": spec.family, "rank": spec.rank, "alpha": list(coords),
               "solutions": [list(s) for s in sols]}
    return [payload], lambda j: [[s] for s in j["solutions"]] or [["(none)"]], None


def _cmd_verify(args: argparse.Namespace) -> Answer:
    report = verify.run_verify_suite(args.level)
    summary = {"level": report.level, **report.to_jsonable()["summary"]}
    lines = [check.to_jsonable() for check in report.checks] + [{"summary": summary}]

    def rows(*out: dict) -> list[list]:
        total = "{passed}/{total}".format(**out[-1]["summary"])
        return [[c["name"], c["status"]] for c in out[:-1]] + [["summary", total]]

    def finish() -> int:
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(report.to_json())
                    fh.write("\n")
            except OSError as exc:
                raise UsageError(f"cannot write report {args.out!r}: {exc}") from exc
        return 0 if report.ok else 1

    return lines, rows, finish


# ---------------------------------------------------------------- arg parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrwkit",
        description=(
            "Exact computations with Schur functions, classical universal "
            "characters, fermionic multiplicities, and root combinatorics."
        ),
    )
    parser.add_argument(
        "--max-boxes",
        type=int,
        default=DEFAULT_MAX_BOXES,
        help=f"cap on enumeration size in boxes (default {DEFAULT_MAX_BOXES})",
    )
    parser.add_argument("--format", choices=("json", "tsv"), default="json", help="output format")
    sub = parser.add_subparsers(dest="command", required=True)

    part = sub.add_parser("part", help="partition and weight utilities")
    part_sub = part.add_subparsers(dest="part_op", required=True)
    for op in ("conjugate", "size"):
        sp = part_sub.add_parser(op)
        sp.add_argument("partition")
    sp = part_sub.add_parser("contains")
    sp.add_argument("partition", help="outer partition")
    sp.add_argument("inner")
    sp = part_sub.add_parser("toweight")
    sp.add_argument("partition")
    sp.add_argument("rank", type=int)
    sp = part_sub.add_parser("fromweight")
    sp.add_argument("weight", help="e.g. 1,2,1@rank=3")
    part.set_defaults(handler=_cmd_part)

    schur_p = sub.add_parser("schur", help="ring operations in the Schur basis")
    schur_sub = schur_p.add_subparsers(dest="schur_op", required=True)
    sp = schur_sub.add_parser("mult")
    sp.add_argument("a")
    sp.add_argument("b")
    sp = schur_sub.add_parser("skew")
    sp.add_argument("a", help="outer partition")
    sp.add_argument("b", help="inner partition")
    sp = schur_sub.add_parser("jt")
    sp.add_argument("a", help="outer partition")
    sp.add_argument("b", nargs="?", default=None, help="optional inner partition")
    schur_p.set_defaults(handler=_cmd_schur)

    lr = sub.add_parser("lr", help="Littlewood-Richardson coefficient")
    lr.add_argument("lam")
    lr.add_argument("mu")
    lr.add_argument("nu")
    lr.set_defaults(handler=_cmd_lr)

    branch = sub.add_parser("branch", help="restrict a Schur function")
    branch.add_argument("lam")
    branch.add_argument("--target", required=True, help="sp or o")
    branch.set_defaults(handler=_cmd_branch)

    dcoef = sub.add_parser("dcoef", help="stable tensor multiplicities")
    dcoef.add_argument("mu")
    dcoef.add_argument("nu")
    dcoef.add_argument("--lam", default=None, help="report one coefficient")
    dcoef.add_argument("--family", default="sp", help="sp or o (same answer)")
    dcoef.set_defaults(handler=_cmd_dcoef)

    wdecomp = sub.add_parser("wdecomp", help="tensor-closed family decomposition")
    wdecomp.add_argument("lam")
    wdecomp.add_argument("--family", required=True, help="sp or o")
    wdecomp.set_defaults(handler=_cmd_wdecomp)

    wtensor = sub.add_parser("wtensor", help="both sides of the family tensor rule")
    wtensor.add_argument("mu")
    wtensor.add_argument("nu")
    wtensor.add_argument("--family", required=True, help="sp or o")
    wtensor.set_defaults(handler=_cmd_wtensor)

    ferm = sub.add_parser("fermionic", help="fermionic multiplicities")
    ferm.add_argument("family", choices=("A", "B", "C", "D", "a", "b", "c", "d"))
    ferm.add_argument("rank", type=int)
    ferm.add_argument(
        "--factor", action="append", required=True, help="tensor factor 'm,node'; repeatable"
    )
    ferm.add_argument("--weight", default=None, help="report one multiplicity")
    ferm.set_defaults(handler=_cmd_fermionic)

    roots = sub.add_parser("roots", help="root-system queries")
    roots_sub = roots.add_subparsers(dest="roots_op", required=True)
    for op in ("beta", "commute", "cone"):
        sp = roots_sub.add_parser(op)
        sp.add_argument("family", choices=("B", "C", "D", "b", "c", "d"))
        sp.add_argument("rank", type=int)
    target = sp.add_mutually_exclusive_group(required=True)  # the last, cone's
    target.add_argument("--alpha", default=None, help="difference in root coordinates")
    target.add_argument("--weight", default=None, help="difference in weight coordinates")
    roots.set_defaults(handler=_cmd_roots)

    ver = sub.add_parser("verify", help="run the cross-check suite")
    ver.add_argument("--level", choices=("quick", "full"), default="quick")
    ver.add_argument("--out", default=None, help="also write the report to a file")
    ver.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.max_boxes < 0:
            raise UsageError(f"max_boxes must be nonnegative, got {args.max_boxes}")
        lines, rows, finish = args.handler(args)
        _write(args.format, lines, rows)
        return finish() if finish else 0
    except ResourceCapExceeded as exc:
        print(f"lrwkit: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print(
            "lrwkit: input nests deeper than Python's recursion limit "
            f"({sys.getrecursionlimit()}); try a smaller rank or size",
            file=sys.stderr,
        )
        return 3
    except (UsageError, ValueError) as exc:
        print(f"lrwkit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
