"""Named cross-checks: worked examples at the quick level, sweeps at full.

Every check compares two independently computed values and reports a
pass/fail line; the report is deterministic and JSON-serializable.
"""

from __future__ import annotations

import json
from typing import Callable

from . import classical, closed_forms, fermionic, looproot, schur, tableaux
from .lie import MIN_RANK, LieSpec, integer_root_coords, weight_of_root_vector
from .partitions import (
    DominantWeight,
    Partition,
    RootLatticeElement,
    _value_type,
    conjugate,
    contains,
    partition_from_weight,
    partitions_of,
    partitions_up_to,
    size,
    subpartitions,
    weight_from_partition,
)

QUICK = "quick"
FULL = "full"


class CheckResult(_value_type("CheckResult", "name passed expected actual")):
    __slots__ = ()

    def to_jsonable(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.passed else "fail",
            "expected": self.expected,
            "actual": self.actual,
        }


class VerifyReport(_value_type("VerifyReport", "level checks")):
    __slots__ = ()

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_jsonable(self) -> dict:
        return {
            "level": self.level,
            "checks": [c.to_jsonable() for c in self.checks],
            "summary": {
                "total": len(self.checks),
                "passed": self.passed,
                "failed": self.failed,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, separators=(",", ":"))


def _result(name: str, expected: object, actual: object) -> CheckResult:
    return CheckResult(name, expected == actual, repr(expected), repr(actual))


def orthogonal_stable_product(mu: Partition, nu: Partition) -> schur.Expansion:
    """Oracle of `classical.stable_tensor_expansion`: the orthogonal characters' route."""
    chars = [classical._universal_in_schur(p, "o") for p in (mu, nu)]
    return classical._branch_expansion(schur.mult(*chars), "o")


def _terms(decomp: classical.FamilyDecomposition) -> list[tuple[tuple[int, ...], int]]:
    return sorted((tuple(k), v) for k, v in decomp.terms.items())


# ---------------------------------------------------------------- quick checks


def _check_weight_dictionary() -> CheckResult:
    w = DominantWeight((1, 2, 1), 3)
    p = partition_from_weight(w)
    back = weight_from_partition(p, 3)
    return _result("weight-dictionary", ((4, 3, 1), (1, 2, 1)), (tuple(p), back.coeffs))


def _check_tableau_counts() -> CheckResult:
    lam = Partition([3, 2, 1])
    counts = tuple(
        len(tableaux.enumerate_lr_tableaux(tableaux.SkewShape(lam, nu)))
        for nu in ((), (1, 1), (2, 2))
    )
    return _result("tableau-counts-321", (1, 3, 2), counts)


def _check_first_tableau_word() -> CheckResult:
    lam = Partition([3, 2, 1])
    t = tableaux.enumerate_lr_tableaux(tableaux.SkewShape(lam, ()))[0]
    word = tableaux.reverse_row_word(t)
    return _result(
        "reverse-row-word",
        ((1, 1, 1, 2, 2, 3), True, (3, 2, 1)),
        (word, tableaux.is_ballot(word), tuple(tableaux.content(t))),
    )


def _check_six_components() -> CheckResult:
    got = _terms(classical.family_decomposition(Partition([3, 2, 1]), "o"))
    want = [
        ((1, 1), 1),
        ((2,), 1),
        ((2, 1, 1), 1),
        ((2, 2), 1),
        ((3, 1), 1),
        ((3, 2, 1), 1),
    ]
    return _result("six-components", want, got)


def _check_gl_square() -> CheckResult:
    prod = schur.mult(schur.schur_basis([1]), schur.schur_basis([1]))
    viah = schur.h_monomial_to_schur(
        schur.Expansion({Partition([1, 1]): 1}, schur.H_MONOMIAL)
    )
    want = {Partition([2]): 1, Partition([1, 1]): 1}
    return _result("gl-square", (want, want), (dict(prod.terms), dict(viah.terms)))


def _check_classical_square() -> CheckResult:
    one = Partition([1])
    via_sp = dict(classical.stable_tensor_expansion(one, one, "sp").terms)
    via_o = dict(orthogonal_stable_product(one, one).terms)
    want = {Partition([2]): 1, Partition([1, 1]): 1, Partition(): 1}
    return _result("classical-square", (want, want), (via_sp, via_o))


def _check_omega() -> CheckResult:
    got = tuple(
        tuple(next(iter(schur.omega(schur.schur_basis([k])).terms))) for k in range(1, 5)
    )
    want = tuple(tuple([1] * k) for k in range(1, 5))
    return _result("omega-row-to-column", want, got)


def _check_domino_classes() -> CheckResult:
    cases = (Partition([1, 1]), Partition([2, 2]), Partition())
    got = tuple(
        (classical.even_column_heights(p), classical.even_row_lengths(p)) for p in cases
    )
    return _result("domino-classes", ((True, False), (True, True), (True, True)), got)


def _check_heights24_multiplicity() -> CheckResult:
    lam = Partition([2, 2, 1, 1])
    decomp = classical.family_decomposition(lam, "o")
    total = 0
    for nu in subpartitions(lam):
        if classical.even_column_heights(nu):
            total += len(
                tableaux.enumerate_lr_tableaux(tableaux.SkewShape(lam, nu))
            )
    return _result(
        "heights24-multiplicity-two",
        (2, 7),
        (decomp.multiplicity(Partition([1, 1])), total),
    )


def _check_three_row_closed_form() -> CheckResult:
    got = _terms(closed_forms.closed_form_three_row(1, 1, 1))
    want = _terms(classical.family_decomposition(Partition([3, 2, 1]), "o"))
    return _result("three-row-closed-form", want, got)


def _rectangle_mismatches(sides: range) -> list[tuple[int, int, str]]:
    return [
        (m, ell, fam)
        for m in sides
        for ell in sides
        for fam in ("sp", "o")
        if closed_forms.closed_form_rectangle(m, ell, fam).terms
        != classical.family_decomposition(Partition([m] * ell), fam).terms
    ]


def _check_rectangle_closed_form_small() -> CheckResult:
    return _result("rectangle-closed-form-small", [], _rectangle_mismatches(range(1, 3)))


def _check_beta_weights_d5() -> CheckResult:
    spec = LieSpec("D", 5)
    bset = looproot.beta_roots(spec)
    got = {
        label: weight_of_root_vector(spec, root.coords)
        for label, root in zip(bset.labels, bset.roots)
    }
    want = {
        (1, 2): (0, 1, 0, 0, 0),
        (1, 3): (1, -1, 1, 0, 0),
        (2, 3): (-1, 0, 1, 0, 0),
    }
    return _result("beta-weights-d5", want, got)


def _check_beta_count_stability() -> CheckResult:
    pairs = [
        (
            len(looproot.beta_roots(LieSpec("B", m)).roots),
            len(looproot.beta_roots(LieSpec("D", m + 1)).roots),
        )
        for m in range(3, 9)
    ]
    return _result("beta-count-stability", [(a, a) for a, _ in pairs], pairs)


def _commute_violation_total(ranks: range) -> int:
    total = 0
    for family in ("B", "C", "D"):
        for rank in [r for r in ranks if r >= MIN_RANK[family]]:
            report = looproot.commute_check(LieSpec(family, rank))
            total += (
                len(report["pair_sum_violations"])
                + len(report["pair_sum_minus_simple_violations"])
                + len(report["lowering_violations"])
            )
    return total


def _check_commute_quick() -> CheckResult:
    return _result("commute-lemma-ranks-3-5", 0, _commute_violation_total(range(3, 6)))


def _fermionic_as_dict(spec: LieSpec, factors: list) -> dict:
    return {
        tuple(w.coeffs): m for w, m in fermionic.fermionic_decomp(spec, factors).items()
    }


def _check_fermionic_spots() -> CheckResult:
    got = (
        _fermionic_as_dict(LieSpec("B", 3), [(1, 2)]),
        _fermionic_as_dict(LieSpec("C", 3), [(2, 1)]),
        _fermionic_as_dict(LieSpec("B", 3), [(1, 1)]),
        _fermionic_as_dict(LieSpec("A", 2), [(1, 1), (1, 2)]),
    )
    want = (
        {(0, 1, 0): 1, (0, 0, 0): 1},
        {(2, 0, 0): 1, (0, 0, 0): 1},
        {(1, 0, 0): 1},
        {(1, 1): 1, (0, 0): 1},
    )
    return _result("fermionic-spot-checks", want, got)


# ----------------------------------------------------------------- full sweeps


def _check_commute_full() -> CheckResult:
    return _result("commute-lemma-ranks-3-8", 0, _commute_violation_total(range(3, 9)))


def _check_containment_suite() -> CheckResult:
    bad = 0
    for lam in partitions_up_to(8):
        for family in ("sp", "o"):
            decomp = classical.family_decomposition(lam, family)
            in_class = (
                classical.even_row_lengths(lam)
                if family == "sp"
                else classical.even_column_heights(lam)
            )
            trivial = decomp.multiplicity(Partition())
            if trivial != (1 if in_class else 0):
                bad += 1
            if any(not contains(lam, mu) for mu in decomp.terms):
                bad += 1
            if decomp.multiplicity(lam) != 1:
                bad += 1
            if any(
                mu != lam and size(mu) >= size(lam) for mu in decomp.terms
            ):
                bad += 1
    return _result("containment-and-trivial-suite", 0, bad)


def _check_tensor_rule() -> CheckResult:
    bad = []
    for total in range(7):
        for k in range(total + 1):
            for mu in partitions_of(k):
                for nu in partitions_of(total - k):
                    for family in ("sp", "o"):
                        lhs, rhs = classical.tensor_product_two_ways(mu, nu, family)
                        if lhs != rhs:
                            bad.append((tuple(mu), tuple(nu), family))
    return _result("tensor-rule-up-to-6", [], bad)


def _check_stable_coefficients() -> CheckResult:
    bad = []
    parts4 = [p for p in partitions_up_to(4)]
    for mu in parts4:
        for nu in parts4:
            via_sp = classical.stable_tensor_expansion(mu, nu, "sp").terms
            via_o = orthogonal_stable_product(mu, nu).terms
            # Top degree is the LR coefficient, read here from the skew of lam
            # by mu: the listing search, independent of lr_coefficient's count.
            for lam in partitions_of(size(mu) + size(nu)):
                if via_sp.get(lam, 0) != schur.skew_schur_expand(lam, mu).coefficient(nu):
                    bad.append(("top-degree", tuple(mu), tuple(nu), tuple(lam)))
            if via_sp != via_o:
                bad.append(("sp-vs-o", tuple(mu), tuple(nu)))
                continue
            for lam, d in via_sp.items():
                deficit = size(mu) + size(nu) - size(lam)
                if d < 0 or deficit < 0 or deficit % 2:
                    bad.append(("grading", tuple(mu), tuple(nu), tuple(lam)))
    return _result("stable-coefficient-suite", [], bad)


def _check_lr_oracle() -> CheckResult:
    bad = []
    for total in range(7):
        nvars = max(total, 1)
        # every s_lam(x_1..x_nvars) that the products of this degree read, once
        polys = {
            lam: schur.schur_polynomial(lam, nvars)
            for j in range(total + 1)
            for lam in partitions_of(j)
        }
        for k in range(total + 1):
            for mu in partitions_of(k):
                for nu in partitions_of(total - k):
                    lhs = schur.poly_mult(polys[mu], polys[nu])
                    rhs: dict = {}
                    for lam, c in schur.mult(
                        schur.schur_basis(mu), schur.schur_basis(nu)
                    ).terms.items():
                        schur.poly_add_scaled(rhs, polys[lam], c)
                    if lhs != rhs:
                        bad.append((tuple(mu), tuple(nu)))
    return _result("lr-monomial-oracle-up-to-6", [], bad)


def _check_jacobi_trudi_roundtrip() -> CheckResult:
    bad = []
    for lam in partitions_up_to(7):
        for nu in subpartitions(lam):
            via_det = schur.h_monomial_to_schur(schur.jacobi_trudi(lam, nu))
            via_tab = schur.skew_schur_expand(lam, nu)
            if via_det != via_tab:
                bad.append((tuple(lam), tuple(nu)))
    return _result("jacobi-trudi-roundtrip-up-to-7", [], bad)


def _check_closed_form_sweeps() -> CheckResult:
    bad = [("rect", *case) for case in _rectangle_mismatches(range(1, 5))]
    for a in range(4):
        for b in range(4):
            for c in range(4):
                top = Partition([a + b + c, b + c, c])
                if (
                    closed_forms.closed_form_three_row(a, b, c).terms
                    != classical.family_decomposition(top, "o").terms
                ):
                    bad.append(("three-row", a, b, c))
    for a in range(4):
        for b in range(4):
            top = Partition([a + b, a + b, b, b])
            if (
                closed_forms.closed_form_heights24(a, b).terms
                != classical.family_decomposition(top, "o").terms
            ):
                bad.append(("heights24", a, b))
    return _result("closed-form-sweeps", [], bad)


def _fermionic_rectangle_cases() -> list[tuple[str, int, int, int, str]]:
    cases = []
    for family, fam_tag in classical.UNIVERSAL_FAMILY.items():
        for m in range(1, 4):
            for ell in range(1, 4):
                rank = classical.min_stable_rank(Partition([m] * ell), family)
                cases.append((family, rank, m, ell, fam_tag))
    return cases


def fermionic_rectangle_agreement(
    cases: list[tuple[str, int, int, int, str]] | None = None,
) -> list:
    """Mismatches between the fermionic formula and the family decomposition."""
    bad = []
    for family, rank, m, ell, fam_tag in cases or _fermionic_rectangle_cases():
        spec = LieSpec(family, rank)
        predicted = fermionic.fermionic_decomp(spec, [(m, ell)])
        expected = {
            weight_from_partition(mu, rank): mult
            for mu, mult in classical.family_decomposition(
                Partition([m] * ell), fam_tag
            ).terms.items()
        }
        if predicted != expected:
            bad.append((family, rank, m, ell))
    return bad


def _check_fermionic_rectangles() -> CheckResult:
    return _result("fermionic-rectangle-agreement", [], fermionic_rectangle_agreement())


def _check_fermionic_type_a() -> CheckResult:
    bad = []
    for rank in (2, 3):
        spec = LieSpec("A", rank)
        for ell in range(1, rank + 1):
            for m in range(1, 4):
                coeffs = [0] * rank
                coeffs[ell - 1] = m
                want = {DominantWeight(tuple(coeffs), rank): 1}
                if fermionic.fermionic_decomp(spec, [(m, ell)]) != want:
                    bad.append((rank, m, ell))
    return _result("fermionic-type-a-irreducible", [], bad)


def _root_difference(spec: LieSpec, lam: Partition, mu: Partition) -> tuple[int, ...] | None:
    """Simple-root coordinates of the weight of lam minus that of mu, if integral."""
    lam_w = weight_from_partition(lam, spec.rank).coeffs
    mu_w = weight_from_partition(mu, spec.rank).coeffs
    return integer_root_coords(spec, tuple(x - y for x, y in zip(lam_w, mu_w)))


def _cone_reachable(spec: LieSpec, lam: Partition, mu: Partition) -> list:
    coords = _root_difference(spec, lam, mu)
    if coords is None:
        return []
    return looproot.cone_membership(RootLatticeElement(coords, spec.rank), spec)


_CONE_BRIDGE_LIMIT = 2  # the largest a, b, c of the three-row family swept


def cone_bridge_failures() -> list:
    """Decomposition components missing a cone witness, over the worked families."""
    bad = []
    spec5 = LieSpec("D", 5)
    amounts = range(_CONE_BRIDGE_LIMIT + 1)
    for a in amounts:
        for b in amounts:
            for c in amounts:
                lam = Partition([a + b + c, b + c, c])
                for mu in classical.family_decomposition(lam, "o").terms:
                    sols = _cone_reachable(spec5, lam, mu)
                    if not any(
                        r1 <= b and r2 <= a and r2 + r3 <= c for r1, r2, r3 in sols
                    ):
                        bad.append(("three-row", (a, b, c), tuple(mu)))
    for m in (1, 2):
        for ell in (1, 2, 3):
            lam = Partition([m] * ell)
            for mu in classical.family_decomposition(lam, "o").terms:
                if not _cone_reachable(spec5, lam, mu):
                    bad.append(("rectangle", (m, ell), tuple(mu)))
    spec6 = LieSpec("D", 6)
    for a in (0, 1):
        for b in (0, 1):
            lam = Partition([a + b, a + b, b, b])
            for mu in classical.family_decomposition(lam, "o").terms:
                if not _cone_reachable(spec6, lam, mu):
                    bad.append(("heights24", (a, b), tuple(mu)))
    return bad


def _check_cone_bridge() -> CheckResult:
    return _result("cone-bridge-d5", [], cone_bridge_failures())


_TYPE_A_BRIDGE_BOXES = 6  # the largest partition swept by the type-A bridge


def type_a_vanishing_failures() -> list:
    """Type-A differences that nevertheless carry a nonzero multiplicity."""
    bad = []
    rank = 6
    for family, fam_tag in classical.UNIVERSAL_FAMILY.items():
        spec = LieSpec(family, rank)
        for lam in partitions_up_to(_TYPE_A_BRIDGE_BOXES):
            if classical.min_stable_rank(lam, family) > rank:
                continue
            decomp = classical.family_decomposition(lam, fam_tag)
            for mu in partitions_up_to(size(lam)):
                if mu == lam or classical.min_stable_rank(mu, family) > rank:
                    continue
                coords = _root_difference(spec, lam, mu)
                if coords is None or any(x < 0 for x in coords) or not any(coords):
                    continue
                eta = RootLatticeElement(coords, rank)
                if looproot.type_a_support(eta, spec) and decomp.multiplicity(mu):
                    bad.append((family, tuple(lam), tuple(mu)))
    return bad


def _check_type_a_vanishing() -> CheckResult:
    return _result("type-a-vanishing-bridge", [], type_a_vanishing_failures())


def _check_partition_properties() -> CheckResult:
    bad = 0
    for p in partitions_up_to(12):
        if conjugate(conjugate(p)) != p:
            bad += 1
    for p in partitions_up_to(8):
        for rank in (len(p), len(p) + 2):
            if rank == 0:
                continue
            if partition_from_weight(weight_from_partition(p, rank)) != p:
                bad += 1
    return _result("partition-properties", 0, bad)


_CHECKS: tuple[tuple[str, Callable[[], CheckResult]], ...] = (
    (QUICK, _check_weight_dictionary),
    (QUICK, _check_tableau_counts),
    (QUICK, _check_first_tableau_word),
    (QUICK, _check_six_components),
    (QUICK, _check_gl_square),
    (QUICK, _check_classical_square),
    (QUICK, _check_omega),
    (QUICK, _check_domino_classes),
    (QUICK, _check_heights24_multiplicity),
    (QUICK, _check_three_row_closed_form),
    (QUICK, _check_rectangle_closed_form_small),
    (QUICK, _check_beta_weights_d5),
    (QUICK, _check_beta_count_stability),
    (QUICK, _check_commute_quick),
    (QUICK, _check_fermionic_spots),
    (FULL, _check_partition_properties),
    (FULL, _check_commute_full),
    (FULL, _check_containment_suite),
    (FULL, _check_stable_coefficients),
    (FULL, _check_tensor_rule),
    (FULL, _check_lr_oracle),
    (FULL, _check_jacobi_trudi_roundtrip),
    (FULL, _check_closed_form_sweeps),
    (FULL, _check_fermionic_type_a),
    (FULL, _check_fermionic_rectangles),
    (FULL, _check_cone_bridge),
    (FULL, _check_type_a_vanishing),
)


def run_verify_suite(level: str = QUICK) -> VerifyReport:
    """Run the named checks for the level; full includes everything."""
    if level not in (QUICK, FULL):
        raise ValueError(f"level must be 'quick' or 'full': {level!r}")
    selected = [fn for lvl, fn in _CHECKS if level == FULL or lvl == QUICK]
    return VerifyReport(level, tuple(fn() for fn in selected))
