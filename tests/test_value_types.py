"""The value types share one contract: validated, read-only tuples of their fields."""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import lrwkit
from lrwkit.fermionic import FactorList, fermionic_decomp
from lrwkit.lie import LieSpec
from lrwkit.looproot import BetaSet
from lrwkit.partitions import DominantWeight, Partition, RootLatticeElement
from lrwkit.tableaux import SkewShape, SkewTableau, enumerate_lr_tableaux
from lrwkit.verify import CheckResult, VerifyReport

SHAPE = SkewShape(Partition([3, 1]), Partition([1]))
CHECK = CheckResult("x", True, "1", "1")

# One instance per type: its fields by keyword, in order, and its repr.
SAMPLES = {
    "LieSpec": (LieSpec, dict(family="B", rank=3), "LieSpec(family='B', rank=3)"),
    "DominantWeight": (
        DominantWeight,
        dict(coeffs=(0, 1, 0), rank=3),
        "DominantWeight(coeffs=(0, 1, 0), rank=3)",
    ),
    "RootLatticeElement": (
        RootLatticeElement,
        dict(coords=(1, -1, 0), rank=3),
        "RootLatticeElement(coords=(1, -1, 0), rank=3)",
    ),
    "FactorList": (
        FactorList,
        dict(factors=((2, 1), (1, 3))),
        "FactorList(factors=((2, 1), (1, 3)))",
    ),
    "SkewShape": (
        SkewShape,
        dict(outer=Partition([3, 1]), inner=Partition([1])),
        "SkewShape(outer=Partition([3, 1]), inner=Partition([1]))",
    ),
    "SkewTableau": (
        SkewTableau,
        dict(shape=SHAPE, entries=((1, 1), (2,))),
        "SkewTableau(shape=SkewShape(outer=Partition([3, 1]), inner=Partition([1])),"
        " entries=((1, 1), (2,)))",
    ),
    "BetaSet": (
        BetaSet,
        dict(
            spec=LieSpec("B", 3),
            labels=((1, 2),),
            roots=(RootLatticeElement((1, 2, 2), 3),),
            l_max=2,
        ),
        "BetaSet(spec=LieSpec(family='B', rank=3), labels=((1, 2),),"
        " roots=(RootLatticeElement(coords=(1, 2, 2), rank=3),), l_max=2)",
    ),
    "CheckResult": (
        CheckResult,
        dict(name="x", passed=True, expected="1", actual="1"),
        "CheckResult(name='x', passed=True, expected='1', actual='1')",
    ),
    "VerifyReport": (
        VerifyReport,
        dict(level="quick", checks=(CHECK,)),
        "VerifyReport(level='quick', checks=(CheckResult(name='x', passed=True,"
        " expected='1', actual='1'),))",
    ),
}


@pytest.fixture(params=sorted(SAMPLES))
def sample(request):
    cls, fields, text = SAMPLES[request.param]
    return cls, fields, text, cls(**fields)


def test_keyword_construction(sample):
    cls, fields, _, x = sample
    assert x == cls(*fields.values())
    assert {name: getattr(x, name) for name in fields} == fields


def test_repr(sample):
    _, _, text, x = sample
    assert repr(x) == text


def test_equal_to_and_hashed_as_field_tuple(sample):
    _, fields, _, x = sample
    assert x == tuple(fields.values())
    assert hash(x) == hash(tuple(x))


def test_read_only(sample):
    _, fields, _, x = sample
    with pytest.raises(AttributeError):
        setattr(x, next(iter(fields)), None)
    with pytest.raises(AttributeError):
        x.extra = 1


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: LieSpec("Z", 3), "family must be one of ('A', 'B', 'C', 'D'), got 'Z'"),
        (lambda: LieSpec("D", 3), "rank 3 too small for type D (need >= 4)"),
        (lambda: DominantWeight((0,), 0), "rank must be positive: 0"),
        (lambda: DominantWeight((1, 0), 3), "expected 3 coefficients, got 2"),
        (lambda: DominantWeight((1, -1, 0), 3), "coefficients must be nonnegative: (1, -1, 0)"),
        (lambda: RootLatticeElement((1, -1), 3), "expected 3 coordinates, got 2"),
        (lambda: FactorList([]), "factor list must be nonempty"),
        (lambda: FactorList([(0, 1)]), "factor multiplicity must be positive: 0"),
        (lambda: FactorList([(1, 0)]), "node index must be positive: 0"),
        (
            lambda: SkewShape(Partition([1]), Partition([2])),
            "inner [2] does not fit inside outer [1]",
        ),
        (lambda: SkewTableau(SHAPE, ((1, 1),)), "expected 2 rows of entries, got 1"),
        (lambda: SkewTableau(SHAPE, ((1,), (2,))), "row 0 must have 2 entries, got 1"),
        (lambda: SkewTableau(SHAPE, ((0, 1), (2,))), "entries must be positive: row 0 = (0, 1)"),
        (lambda: SkewTableau(SHAPE, ((2, 1), (2,))), "row 0 is not weakly increasing: (2, 1)"),
        (
            lambda: SkewTableau(SkewShape(Partition([2, 2]), Partition()), ((1, 2), (1, 3))),
            "column 0 is not strictly increasing between rows 0 and 1",
        ),
        # _make and _replace build through the constructor, so they validate too
        pytest.param(
            lambda: LieSpec._make(("Z", 0)),
            "family must be one of ('A', 'B', 'C', 'D'), got 'Z'",
            id="LieSpec._make",
        ),
        pytest.param(
            lambda: DominantWeight((1, 0), 2)._replace(rank=5),
            "expected 5 coefficients, got 2",
            id="DominantWeight._replace",
        ),
        pytest.param(
            lambda: SkewShape._make(([1, 3], [])),
            "parts must be weakly decreasing: [1, 3]",
            id="SkewShape._make",
        ),
    ],
)
def test_validation_message(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda bad: Partition([bad, 1]), id="Partition"),
        pytest.param(lambda bad: DominantWeight((bad, 0, 0), 3), id="DominantWeight"),
        pytest.param(lambda bad: RootLatticeElement((bad, 0), 2), id="RootLatticeElement"),
        pytest.param(lambda bad: FactorList([(bad, 2)]), id="FactorList"),
        pytest.param(lambda bad: SkewTableau(SHAPE, ((1, bad), (2,))), id="SkewTableau"),
        pytest.param(lambda bad: LieSpec("B", bad), id="LieSpec"),
    ],
)
@pytest.mark.parametrize("bad", [2.7, 3.0, "2", Fraction(5, 2)], ids=repr)
def test_non_integer_raises_type_error(build, bad):
    with pytest.raises(TypeError):
        build(bad)


def test_make_and_replace_round_trip(sample):
    cls, fields, _, x = sample
    assert type(cls._make(x)) is cls and cls._make(x) == x
    assert x._replace(**fields) == x


def test_factor_list_returns_an_instance_passed_to_it():
    factors = FactorList([(1, 2)])
    assert FactorList(factors) is factors
    assert fermionic_decomp(LieSpec("B", 3), factors) == fermionic_decomp(LieSpec("B", 3), [(1, 2)])


def test_fermionic_decomp_refuses_fractional_multiplicity():
    with pytest.raises(TypeError):
        fermionic_decomp(LieSpec("B", 3), [(1.5, 2)])


def test_skew_shape_parts_are_partitions():
    with pytest.raises(ValueError, match="weakly decreasing"):
        SkewShape([1, 3], [])
    shape = SkewShape([3, 1], [1])
    assert shape.outer == Partition([3, 1]) and type(shape.inner) is Partition
    assert hash(shape) == hash(SHAPE)
    assert len(enumerate_lr_tableaux(shape)) == 2


def test_cli_import_skips_dataclasses_and_inspect():
    # pytest has loaded both already, so only a fresh interpreter can tell.
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(lrwkit.__file__).parents[1]))
    code = "import sys, lrwkit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
