"""The value classes built on ``value.Value`` against their dataclass twins.

Each twin below is the ``@dataclass`` declaration that the class replaced:
its fields, defaults, ``field`` options and ``__post_init__`` checks (and
``RootDatum``'s own ``__hash__``); other methods are left out.  For random
arguments, valid or not, each class and its twin must agree on what they
build or raise, ``==`` and ``!=`` (also between objects that differ in one
field and across classes), ``hash`` or its ``TypeError``, ``repr``,
refusing assignment and deletion, ``replace`` and the pickle and copy
round trips.  The IndexFamily twin refuses a coefficient that is not an
integer, where the dataclass truncated it, and a Weyl element whose length
is not the rank.  A last check keeps the store-only constructors out of the
package.
"""

import ast
import copy
import dataclasses
import importlib
import math
import pickle
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping

import pytest
from hypothesis import given, settings, strategies as st

import diracindex
from diracindex import asymptotics, dirac, fixtures, groups, polynomials, springer, suites, weylaction
from diracindex.errors import DimensionMismatch, IllegalParams, NonIntegralCoefficient, ZeroForm
from diracindex.groups import Family, build_root_datum, int_form
from diracindex.series import TruncatedSeries
from diracindex.springer import Partition, check_partition
from diracindex.value import Value

# ---------------------------------------------------------------- twins


@dataclass(frozen=True)
class GroupId:
    family: Family
    p: int
    q: int = 0

    def __post_init__(self):
        p, q = self.p, self.q
        fam = self.family
        ok = {
            Family.SU: p >= 1 and q >= 1,
            Family.SO_EVEN_ODD: p >= 1 and q >= 0,
            Family.SP_R: p >= 1 and q == 0,
            Family.SP_PQ: p >= 1 and q >= 1,
            Family.SO_EVEN_EVEN: p >= 1 and q >= 1,
            Family.SO_STAR: p >= 1 and q == 0,
        }[fam]
        if not ok:
            raise IllegalParams(f"illegal parameters ({p},{q}) for {fam.value}")


@dataclass(frozen=True)
class Block:
    kind: str
    start: int
    size: int


@dataclass(frozen=True)
class RootDatum:
    group: groups.GroupId
    rank: int
    pos_roots: tuple
    rho_g: tuple
    rho_k: tuple
    ambient: groups.Block
    compact_blocks: tuple
    lattice: Callable[[int, tuple[int, ...]], bool]

    def __hash__(self) -> int:
        return hash(self.group)


@dataclass(frozen=True)
class WeylElement:
    perm: tuple[int, ...]
    signs: tuple[int, ...]


@dataclass(frozen=True)
class LinearForm:
    coeffs: tuple
    _ints: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _scale: tuple[int, int] = field(init=False, compare=False, repr=False)
    _pivot: int = field(init=False, compare=False, repr=False)
    _lead: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        den = math.lcm(*(c.denominator for c in coeffs))
        ints = [c.numerator * (den // c.denominator) for c in coeffs]
        g = math.gcd(*ints)
        if not g:
            raise ZeroForm("linear form is identically zero")
        j = next(i for i, k in enumerate(ints) if k)
        if ints[j] < 0:
            g = -g
        prim = tuple(k // g for k in ints)
        stored = {"_ints": prim, "_scale": (g, den), "_pivot": j, "_lead": prim[j]}
        for name, value in {"coeffs": coeffs, **stored}.items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SpinWeights:
    plus: object
    minus: object


@dataclass(frozen=True)
class IndexFamily:
    datum: groups.RootDatum
    base: tuple
    coeffs: Mapping[groups.WeylElement, int]

    def __post_init__(self):
        for w, a in self.coeffs.items():
            if Fraction(a).denominator != 1:
                raise NonIntegralCoefficient(f"coefficient {a} of {w} is not an integer")
            if len(w.perm) != self.datum.rank:
                raise DimensionMismatch("Weyl element length must equal the rank")
        object.__setattr__(
            self,
            "coeffs",
            {w: int(a) for w, a in self.coeffs.items() if int(a) != 0},
        )
        if len(self.base) != self.datum.rank:
            raise DimensionMismatch("base length must equal the rank")


@dataclass(frozen=True)
class LaurentSeries:
    low: int
    series: TruncatedSeries


@dataclass(frozen=True)
class LimitReport:
    d: int
    value: Fraction | None
    expected: Fraction | None
    match: bool
    underflow: bool = False


@dataclass(frozen=True)
class Bipartition:
    alpha: Partition
    beta: Partition

    def __post_init__(self):
        object.__setattr__(self, "alpha", check_partition(self.alpha) if self.alpha else ())
        object.__setattr__(self, "beta", check_partition(self.beta) if self.beta else ())


@dataclass(frozen=True)
class Symbol:
    top: tuple[int, ...]
    bottom: tuple[int, ...]
    kind: str

    def __post_init__(self):
        if self.kind not in ("B", "C", "D"):
            raise ValueError(f"symbol kind must be B, C or D, not {self.kind!r}")
        for row in (self.top, self.bottom):
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                raise ValueError(f"symbol row {row} is not strictly increasing")
            if row and row[0] < 0:
                raise ValueError("symbol entries must be nonnegative")
        expected = len(self.bottom) + (0 if self.kind == "D" else 1)
        if len(self.top) != expected:
            raise ValueError(
                f"type {self.kind} symbol needs |top| = |bottom|"
                + ("" if self.kind == "D" else " + 1")
            )


@dataclass(frozen=True)
class SpringerRow:
    group: groups.GroupId
    label: object
    is_springer: bool
    partition: Partition | None
    orbit_dim: int | None
    two_orbits: bool = False


@dataclass(frozen=True)
class SuiteCase:
    id: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    cases: list = field(default_factory=list)


@dataclass(frozen=True)
class PolySpan:
    arity: int
    width: int
    rows: Mapping[int, dict]


@dataclass(frozen=True)
class SL2Fixture:
    base_parameter: int
    q_values: dict[str, int]
    s_matrix: tuple
    decomposition: tuple[int, int]
    multiplicities: dict[str, tuple[int, int]]
    conjecture_coeffs: tuple[int, int]
    ps_index_constants: dict[str, tuple[int, int]]
    gk_dims: dict[str, int]


# ------------------------------------------------------------ arguments

small = st.integers(-1, 3)
ints = st.lists(small, max_size=3).map(tuple)
rationals = st.fractions(min_value=-2, max_value=2, max_denominator=3)
maybe = st.none() | small
text = st.sampled_from(["", "a", "b"])
flag = st.booleans()

DATA = [
    build_root_datum(g)
    for g in (groups.GroupId.su(1, 1), groups.GroupId.su(2, 1), groups.GroupId.sp_r(2),
              groups.GroupId.so_star(4), groups.GroupId.sp_pq(1, 1))
]
GROUPS = [d.group for d in DATA]
WEYL = [groups.WeylElement(p, s) for p in ((0, 1), (1, 0)) for s in ((1, 1), (-1, 1))]
WEYL_3 = groups.WeylElement.identity(3)


def datum_field(name):
    return st.sampled_from(DATA).map(lambda d: getattr(d, name))


def series():
    return st.lists(rationals, min_size=1, max_size=3).map(TruncatedSeries)


def str_dict(values):
    return st.dictionaries(st.sampled_from("FDP"), values, max_size=2)


# (new class, twin, strategy of positional arguments, number of trailing defaults)
CLASSES = [
    (groups.GroupId, GroupId, st.tuples(st.sampled_from(Family), small, small), 1),
    (groups.Block, Block, st.tuples(st.sampled_from("ABCD"), small, small), 0),
    (groups.RootDatum, RootDatum, st.tuples(
        *(datum_field(n) for n in groups.RootDatum._fields[:-1]),
        st.sampled_from([groups._lattice_integral, groups._lattice_integral_differences]),
    ), 0),
    (groups.WeylElement, WeylElement, st.tuples(ints, ints), 0),
    (polynomials.LinearForm, LinearForm, st.tuples(st.lists(small | rationals, max_size=3)), 0),
    (dirac.SpinWeights, SpinWeights, st.tuples(ints, ints), 0),
    (dirac.IndexFamily, IndexFamily, st.tuples(
        st.sampled_from(DATA[:3]),
        st.lists(rationals, min_size=1, max_size=3).map(tuple),
        st.dictionaries(st.sampled_from(WEYL), small | rationals, max_size=3),
    ), 0),
    (asymptotics.LaurentSeries, LaurentSeries, st.tuples(small, series()), 0),
    (asymptotics.LimitReport, LimitReport,
     st.tuples(small, st.none() | rationals, st.none() | rationals, flag, flag), 1),
    (springer.Bipartition, Bipartition, st.tuples(ints, st.lists(small, max_size=3)), 0),
    (springer.Symbol, Symbol, st.tuples(ints, ints, st.sampled_from("ABCD")), 0),
    (springer.SpringerRow, SpringerRow, st.tuples(
        st.sampled_from(GROUPS),
        ints | st.builds(springer.Bipartition, st.just((2, 1)), st.sampled_from([(), (1,)])),
        flag,
        st.none() | ints,
        maybe,
        flag,
    ), 1),
    (suites.SuiteCase, SuiteCase, st.tuples(text, flag, text), 1),
    (suites.SuiteReport, SuiteReport, st.tuples(
        text, st.lists(st.builds(suites.SuiteCase, text, flag), max_size=2)
    ), 1),
    (weylaction.PolySpan, PolySpan, st.tuples(
        small, small,
        st.dictionaries(small, st.dictionaries(small, small, max_size=2), max_size=2)
        | st.just(MappingProxyType({1: {1: 1}})),
    ), 0),
    (fixtures.SL2Fixture, SL2Fixture, st.tuples(
        small, str_dict(small), st.just(((1, 0, 0, 0),)) | st.just(()), st.tuples(small, small),
        str_dict(st.tuples(small, small)), st.tuples(small, small),
        str_dict(st.tuples(small, small)), str_dict(small),
    ), 0),
]
IDS = [new.__name__ for new, *_ in CLASSES]
FROZEN = [case for case in CLASSES if case[0] is not suites.SuiteReport]
FROZEN_IDS = [new.__name__ for new, *_ in FROZEN]


def outcome(cls, *args, **kwargs):
    """The object built, or the type and text of the exception raised."""
    try:
        return cls(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the twin must raise the same
        return type(exc), str(exc)


def build(new, twin, args):
    """(new object, twin object) from the same arguments, or None when both
    refuse them alike."""
    a, b = outcome(new, *args), outcome(twin, *args)
    if isinstance(a, tuple) or isinstance(b, tuple):
        assert a == b
        return None
    return a, b


def hash_outcome(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


def test_twins_are_the_classes_replaced():
    assert len(CLASSES) == 16
    for new, twin, _, _ in CLASSES:
        assert issubclass(new, Value) and not dataclasses.is_dataclass(new)
        assert new.__name__ == twin.__name__
        init_fields = [f.name for f in dataclasses.fields(twin) if f.init]
        assert list(new._fields) == init_fields
        # only the classes with cached properties keep a __dict__
        assert ("__dict__" in vars(new)) == (new in (groups.RootDatum, dirac.IndexFamily))


@pytest.mark.parametrize("new,twin,args_st,defaults", CLASSES, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_build_and_refuse_alike(new, twin, args_st, defaults, data):
    """Same objects or same errors, positionally, by keyword and with the
    trailing defaults left out; this covers the checks of GroupId, Symbol,
    Bipartition, LinearForm and IndexFamily."""
    args = data.draw(args_st)
    pair = build(new, twin, args)
    if pair is not None:
        assert repr(pair[0]) == repr(pair[1])
    by_name = dict(zip(new._fields, args))
    a, b = outcome(new, **by_name), outcome(twin, **by_name)
    assert repr(a) == repr(b)
    for k in range(1, defaults + 1):
        a, b = outcome(new, *args[:-k]), outcome(twin, *args[:-k])
        assert repr(a) == repr(b)


@pytest.mark.parametrize("new,twin,args_st,defaults", CLASSES, ids=IDS)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_wrong_argument_lists_refused_alike(new, twin, args_st, defaults, data):
    """A missing field, an extra positional argument, an unknown keyword and
    a field given twice each raise TypeError, as from the twin; the messages
    differ."""
    args = data.draw(args_st)
    fields = new._fields
    required = len(fields) - defaults
    wrong = [
        (args[:required - 1], {}),
        ((), dict(zip(fields[1:], args[1:]))),
        (args + (0,), {}),
        (args, {"extra": 0}),
        (args, {fields[0]: args[0]}),
    ]
    for pos, kw in wrong:
        for cls in (new, twin):
            with pytest.raises(TypeError):
                cls(*pos, **kw)


@pytest.mark.parametrize("new,twin,args_st,defaults", CLASSES, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_eq_and_hash_alike(new, twin, args_st, defaults, data):
    a, b = data.draw(args_st), data.draw(args_st)
    first = build(new, twin, a)
    if first is None:
        return
    x, tx = first
    assert (x == x) is (tx == tx) is True
    assert hash_outcome(x) == hash_outcome(tx)
    # b, and a with each one field taken from b, so a field left out of
    # equality shows
    for c in [b] + [a[:i] + b[i:i + 1] + a[i + 1:] for i in range(len(a))]:
        second = build(new, twin, c)
        if second is None:
            continue
        y, ty = second
        assert (x == y) is (tx == ty)
        assert (x != y) is (tx != ty)
        assert hash_outcome(y) == hash_outcome(ty)
        if x == y and not isinstance(hash_outcome(x), str):
            assert hash(x) == hash(y)
    # never equal to the twin, to the field tuple or to another class
    other = groups.Block("A", 0, 1) if new is not groups.Block else groups.WeylElement((), ())
    for stranger in (tx, a, other):
        assert (x == stranger) is False and (x != stranger) is True
    assert x.__eq__(tx) is NotImplemented


@pytest.mark.parametrize("new,twin,args_st,defaults", FROZEN, ids=FROZEN_IDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_assignment_and_deletion_refused_alike(new, twin, args_st, defaults, data):
    pair = build(new, twin, data.draw(args_st))
    if pair is None:
        return
    for name in new._fields + ("extra",):
        for obj in pair:
            with pytest.raises(AttributeError) as caught:
                setattr(obj, name, 0)
            assert str(caught.value) == f"cannot assign to field {name!r}"
            with pytest.raises(AttributeError) as caught:
                delattr(obj, name)
            assert str(caught.value) == f"cannot delete field {name!r}"
    assert repr(pair[0]) == repr(pair[1])


def test_suite_report_stays_mutable_and_unhashable():
    x, tx = suites.SuiteReport("s"), SuiteReport("s")
    assert x.cases == [] and x.cases is not suites.SuiteReport("s").cases
    for obj in (x, tx):
        obj.suite = "t"
        del obj.cases
        obj.cases = []
        with pytest.raises(TypeError, match="unhashable type: 'SuiteReport'"):
            hash(obj)
    assert repr(x) == repr(tx) == "SuiteReport(suite='t', cases=[])"


@pytest.mark.parametrize("new,twin,args_st,defaults", CLASSES, ids=IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_replace_alike(new, twin, args_st, defaults, data):
    a, c = data.draw(args_st), data.draw(args_st)
    pair = build(new, twin, a)
    if pair is None:
        return
    names = data.draw(st.sets(st.sampled_from(new._fields)))
    changes = {n: v for n, v in zip(new._fields, c) if n in names}
    got = outcome(pair[0].replace, **changes)
    want = outcome(dataclasses.replace, pair[1], **changes)
    assert repr(got) == repr(want)
    if not isinstance(got, tuple):
        assert type(got) is new
    with pytest.raises(TypeError):
        pair[0].replace(extra=0)


ROUND_TRIPS = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("trip", ROUND_TRIPS, ids=list(ROUND_TRIPS))
@pytest.mark.parametrize("new,twin,args_st,defaults", CLASSES, ids=IDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_round_trips_alike(trip, new, twin, args_st, defaults, data):
    pair = build(new, twin, data.draw(args_st))
    if pair is None:
        return
    back = [outcome(ROUND_TRIPS[trip], obj) for obj in pair]
    if isinstance(back[0], tuple) or isinstance(back[1], tuple):
        assert back[0] == back[1]  # a mappingproxy field pickles in neither
        return
    for obj, got in zip(pair, back):
        assert type(got) is type(obj)
    assert (back[0] == pair[0]) is (back[1] == pair[1])
    assert hash_outcome(back[0]) == hash_outcome(back[1])
    if "object at" not in repr(pair[0]):
        assert repr(back[0]) == repr(back[1]) == repr(pair[0])


def test_round_trip_keeps_cached_properties_working():
    datum = build_root_datum(groups.GroupId.sp_r(3))
    assert datum.positive_roots
    back = pickle.loads(pickle.dumps(datum))
    assert back == datum and back is not datum and back.lattice is datum.lattice
    assert back.positive_roots == datum.positive_roots
    fam = dirac.IndexFamily(datum, (Fraction(3), Fraction(2), Fraction(1)), {WEYL_3: 1})
    assert copy.deepcopy(fam).base_form == fam.base_form == int_form(fam.base)



def is_store_only(init: ast.FunctionDef) -> bool:
    """Whether a constructor does nothing but object.__setattr__(self, ...),
    which Value.__init__ does for every class."""
    body = init.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # a docstring
    return bool(body) and all(
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and ast.unparse(stmt.value.func) == "object.__setattr__"
        and ast.unparse(stmt.value.args[0]) == "self"
        for stmt in body
    )


def test_store_only_check_tells_the_cases_apart():
    def init(source):
        return ast.parse(source).body[0]

    assert is_store_only(init(
        'def __init__(self, a):\n    "Doc."\n    object.__setattr__(self, "a", a)'
    ))
    assert not is_store_only(init("def __init__(self, a):\n    super().__init__(a)"))
    assert not is_store_only(init(
        'def __init__(self, a):\n    check(a)\n    object.__setattr__(self, "a", a)'
    ))


def test_no_value_class_keeps_a_store_only_constructor():
    found = []
    for path in sorted(Path(diracindex.__file__).parent.glob("[a-z]*.py")):
        module = importlib.import_module(f"diracindex.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            cls = getattr(module, node.name, None) if isinstance(node, ast.ClassDef) else None
            if not (isinstance(cls, type) and issubclass(cls, Value)):
                continue
            init = next((f for f in node.body if getattr(f, "name", "") == "__init__"), None)
            if init is not None and is_store_only(init):
                found.append(f"{path.stem}.{node.name}")
    assert found == []
