"""The mutant table: each row is a named fault that named tests must catch.

Usage, from the root of a checkout:

    python3 tests/mutants.py

For each row the script copies src/, tests/ and demos/ to a temporary
directory, replaces the row's ``old`` snippet (which must occur exactly once
in its file) with ``new`` there, and runs only the row's tests on that copy.
The row is killed when every named test fails; a test id names every
parametrized case under it, and fails when any of them fails. Before the
rows, the same tests run once on an unchanged copy and must all pass, so a
kill is the mutation's doing. The working tree is never edited. The exit
status is 1 when a row survives or cannot be applied.

A row marked ``equivalent`` changes no answer, only an internal set; a test
that spells that set out is what kills it.

pytest does not collect this file (it has no ``test_`` prefix).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "demos")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/lrwkit
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: bool = False


ROUND_TRIPS = (
    "tests/test_classical.py::TestToSchur::test_round_trip_exhaustive",
    "tests/test_classical.py::TestToSchur::test_branch_then_invert_exhaustive",
)

MUTANTS = (
    Mutant(
        "fermionic-step-binomial-reads-p",
        "fermionic.py",
        "comb(p[i] // gamma[i] + m, m)",
        "comb(p[i] + m, m)",
        (
            "tests/test_fermionic.py::test_pruned_scan_matches_full_box",
            "tests/test_fermionic.py::test_two_factor_decomp_matches_family_products",
        ),
    ),
    Mutant(
        "skew-key-splits-rows-sharing-one-column",
        "schur.py",
        "if rows and hi <= rows[-2]:",
        "if rows and hi <= rows[-2] + 1:",
        (
            "tests/test_schur.py::TestSkewKey::test_expansion_matches_the_diagrams_own_listing",
            "tests/test_schur.py::TestSkew::test_expand_matches_grouped_tableaux",
        ),
    ),
    Mutant(
        "weyl-cap-one-too-high",
        "schur.py",
        "weyl[i]), least - 1, -1)",
        "weyl[i] + 1), least - 1, -1)",
        ("tests/test_schur.py::TestMult::test_candidates_are_the_bounded_partitions",),
        equivalent=True,
    ),
    Mutant(
        "stable-product-not-branched-back",
        "classical.py",
        "return _branch_expansion(prod, SYMPLECTIC)",
        "return Expansion(prod, SYMPLECTIC)",
        (
            "tests/test_classical.py::TestStableTensor::test_square_of_vector",
            "tests/test_classical.py::test_grading",
        ),
    ),
    Mutant(
        "restriction-by-the-other-domino-class",
        "classical.py",
        "columns = target == SYMPLECTIC",
        "columns = target != SYMPLECTIC",
        ROUND_TRIPS,
    ),
    Mutant(
        "littlewood-sign-dropped",
        "classical.py",
        "alpha: -1 if size(alpha) % 4 == 2 else 1",
        "alpha: 1",
        ROUND_TRIPS,
    ),
    Mutant(
        "littlewood-shift-swapped",
        "classical.py",
        "shift = 1 if basis == SYMPLECTIC else -1",
        "shift = -1 if basis == SYMPLECTIC else 1",
        ROUND_TRIPS,
    ),
)


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for sub in COPIED:
        shutil.copytree(ROOT / sub, dest / sub, ignore=ignore)


def failed_tests(tree: Path, tests: tuple[str, ...]) -> set[str]:
    """The named test ids that fail when run on tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    outcomes = [(line + " ").split(" ", 2)[:2] for line in proc.stdout.splitlines()]
    seen = {nodeid for word, nodeid in outcomes if word in ("PASSED", "FAILED", "ERROR")}
    bad = {nodeid for word, nodeid in outcomes if word in ("FAILED", "ERROR")}

    def under(test: str, nodeids: set[str]) -> bool:
        return any(n == test or n.startswith(test + "[") for n in nodeids)

    missing = [t for t in tests if not under(t, seen)]
    if missing:
        raise SystemExit(f"no such test: {', '.join(missing)}\n{proc.stdout[-2000:]}")
    return {t for t in tests if under(t, bad)}


def apply(tree: Path, mutant: Mutant) -> None:
    path = tree / "src" / "lrwkit" / mutant.path
    text = path.read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: the old snippet occurs {count} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="lrwkit-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        every_test = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        broken = failed_tests(clean, every_test)
        if broken:
            print("these tests fail with no mutation:", *sorted(broken), sep="\n  ")
            return 1
        survivors = 0
        for k, mutant in enumerate(MUTANTS):
            tree = Path(tmp) / f"row{k}"
            copy_tree(tree)
            apply(tree, mutant)
            alive = set(mutant.tests) - failed_tests(tree, mutant.tests)
            note = " (equivalent on outputs)" if mutant.equivalent else ""
            if alive:
                survivors += 1
                print(f"SURVIVED {mutant.name}{note}; passing:", *sorted(alive), sep="\n  ")
            else:
                print(f"killed   {mutant.name}{note} by {', '.join(mutant.tests)}")
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
