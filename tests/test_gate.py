"""The input gate against its two-pass reference (tests/gate_reference.py).

Every point enters the library once, through `spaces.canonical_point`, in
`Configuration.of` or `ConvexBody.of`.  On a seeded fuzz set of points,
bodies and configurations in E^1, E^2, H^2, H^3, H^5 and the conftest tree,
the gate must return what the reference returns, keep the caller's object
where the reference keeps it, or raise the reference's error type with its
message.  The items the reference let through bare, or took silently
(str, None and out-of-range masses, items that are not pairs), are refused
by name, below.
"""

import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import gate_reference as ref
from conftest import TREE_EDGES, TREE_LEAVES
from test_bits import NO_SMOOTHING, bodies, corpus
from horocenter import GeometryError, Space
from horocenter import spaces as sp
from horocenter.barycenter import (
    Configuration,
    WeightedPoint,
    center_of_mass,
    leave_one_out_step,
    replace_mass,
    replace_point,
)
from horocenter.horosphere import ConvexBody, first_horosphere, select
from horocenter.trees import TreeError, TreePoint

SPACES = {
    "E1": Space.euclidean(1),
    "E2": Space.euclidean(2),
    "H2": Space.hyperbolic(2),
    "H3": Space.hyperbolic(3),
    "H5": Space.hyperbolic(5),
    "tree": Space.tree_space(TREE_EDGES, TREE_LEAVES),
}


class Real(float):
    """A caller's own float type."""


class Coords(tuple):
    """A caller's own tuple type."""


class EdgeId(str):
    """A caller's own str type."""


class Placed(TreePoint):
    """A caller's own TreePoint type."""

    __slots__ = ()


def _entry_variants(c: float):
    yield from (np.float64(c), Real(c), int(round(c)), bool(round(c)))
    yield from (math.nan, math.inf, -math.inf)


def _far(space: Space, spatial):
    """A sheet point over the spatial coordinates, built past _lift's check."""
    return (math.hypot(1.0, *spatial), *spatial)


def _vector_inputs(space: Space, seed: int):
    rng = sp.sub_rng(seed, space.dim)
    bases = [sp.basepoint(space)] + [sp.draw_point(space, rng, s) for s in (0.5, 2.0, 8.0)]
    if space.kind == sp.HYPERBOLIC:
        unit = (1.0,) + (0.0,) * (space.dim - 1)
        bases += [_far(space, [math.sinh(r) * u for u in unit]) for r in (30.0, 300.0)]
        # x0^2 = 1e308 still fits; 2.25e308 overflows, so its tolerance does
        bases += [_far(space, (c,) + unit[1:]) for c in (1e154, 1.5e154)]
    for base in bases:
        yield base
        yield list(base)
        yield Coords(base)
        yield base[:-1]
        yield base + (0.5,)
        for convert in (np.float64, Real, lambda c: int(round(c))):
            yield tuple(map(convert, base))
        for k, c in enumerate(base):
            for bad in _entry_variants(c):
                yield base[:k] + (bad,) + base[k + 1 :]
        if space.kind == sp.HYPERBOLIC:
            x0, rest = base[0], base[1:]
            for head in (-x0, 0.0, -0.0, math.nan):
                yield (head,) + rest
            # <x,x> + 1 moves by about 2 rel x0^2, against a tolerance of
            # 1e-9 x0^2: off the sheet, just off it, just on it, on it
            for rel in (1e-8, 6e-10, 4e-10, 1e-10):
                yield (x0 * (1.0 + rel),) + rest
                yield (x0 * (1.0 - rel),) + rest


def _tree_inputs(space: Space, seed: int):
    rng = random.Random(seed)
    for edge in space.tree.edges:
        length = edge.length
        offsets = [0.0, -0.0, length, length / 2.0, rng.uniform(0.0, length)]
        offsets += [a + d for a in (0.0, length) for d in (1e-13, -1e-13, 1e-11, -1e-11)]
        offsets += [-0.5, length + 0.5, math.nan, math.inf, -math.inf]  # past either end
        offsets += [np.float64(length / 3), Real(length / 3), Fraction(1, 3), 1, True]
        for off in offsets:
            yield TreePoint(edge.eid, off)
        third = length / 3.0
        yield TreePoint(EdgeId(edge.eid), third)
        yield Placed(edge.eid, third)
        yield TreePoint(f"{edge.v}-{edge.u}", third)  # the edge read backwards is unknown
    yield TreePoint("X-Y", 0.5)
    yield ("A-B", 0.5)


def _inputs(space: Space, seed: int):
    if space.kind == sp.TREE:
        return list(_tree_inputs(space, seed))
    return list(_vector_inputs(space, seed))


def _outcome(call, *args):
    """What a gate does with args: its value as reprs and types, or the
    type and message of what it raises (whatever it is: a bare error must
    stay bare)."""
    try:
        value = call(*args)
    except Exception as exc:  # noqa: BLE001 - the type itself is compared
        return "raises", type(exc), str(exc)
    return "returns", repr(value), _types(value, args[0])


def _types(value, space):
    """The types of value and of its fields.  The field that `.of` stores
    carries the mark of the space it was checked in, and reads as tuple."""
    if isinstance(value, TreePoint):
        return type(value), type(value.edge), type(value.offset)
    if isinstance(value, (Configuration, ConvexBody)) and type(value[0]) is not tuple:
        assert type(value[0]) is sp._checked_tuple(space, value._fields[0])
        return type(value), tuple
    if isinstance(value, tuple):
        return (type(value),) + tuple(map(type, value))
    return type(value)


def _kept(stored, given):
    """For each stored point, the index of the given point that it is, or None."""
    return [next((i for i, g in enumerate(given) if s is g), None) for s in stored]


# np.float64 entries of far points overflow in the sheet check, as they do
# in the reference, and numpy says so
numpy_overflow = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)


@numpy_overflow
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", list(SPACES))
def test_canonical_point_matches_the_reference(name, seed):
    space = SPACES[name]
    inputs = _inputs(space, seed)
    assert len(inputs) >= 40
    outcomes = set()
    for p in inputs:
        want = _outcome(ref.canonical_point, space, p)
        assert _outcome(sp.canonical_point, space, p) == want, p
        outcomes.add(want[0] if want[0] == "returns" else want[2].split(":")[0][:24])
        if want[0] == "returns":
            kept = ref.canonical_point(space, p) is p
            assert (sp.canonical_point(space, p) is p) == kept, p
    assert "returns" in outcomes and len(outcomes) >= 4  # accepts and refuses in several ways


MASSES = [1.0, 2.5, 1e308, 5e-324, np.float64(2.0), Real(3.0), 2, True]
BAD_MASSES = [0.0, -0.0, -1.0, -2, math.nan, math.inf, -math.inf]


@numpy_overflow
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", list(SPACES))
def test_aggregates_match_the_reference(name, seed):
    """Bodies and configurations of 0 to 5 fuzzed points, repeats
    included, with masses of several types, every tenth one refused, as
    pairs, lists and WeightedPoints."""
    space = SPACES[name]
    inputs, rng = _inputs(space, seed), random.Random(seed)
    # mostly accepted points, so that whole aggregates pass too
    accepted = [p for p in inputs if _outcome(ref.canonical_point, space, p)[0] == "returns"]
    for _ in range(300):
        pool = accepted if rng.random() < 0.7 else inputs
        points = rng.choices(pool, k=rng.randint(0, 5))
        body = _outcome(ref.body_of, space, points)
        assert _outcome(ConvexBody.of, space, points) == body, points
        if body[0] == "returns":
            assert _kept(ConvexBody.of(space, points).generators, points) == _kept(
                ref.body_of(space, points).generators, points
            )
        masses = [rng.choice(BAD_MASSES if rng.random() < 0.1 else MASSES) for _ in points]
        form = rng.choice([tuple, list, lambda pm: WeightedPoint(*pm)])
        items = [form(pm) for pm in zip(points, masses)]
        config = _outcome(ref.configuration_of, space, items)
        assert _outcome(Configuration.of, space, items) == config, items
        if config[0] == "returns":
            assert _kept(Configuration.of(space, items).points, points) == _kept(
                ref.configuration_of(space, items).points, points
            )


@pytest.mark.parametrize(
    "item, message",
    [
        (((0.0, 0.0), 10**400), r"points\[1\]\.mass: must be positive and finite, got an out-of-range int"),
        (WeightedPoint((0.0, 0.0), -(10**400)), r"points\[1\]\.mass: must be positive and finite, got an out-of-range int"),
        (((0.0, 0.0), None), r"points\[1\]\.mass: must be a real number, got NoneType"),
        (WeightedPoint((0.0, 0.0), None), r"points\[1\]\.mass: must be a real number, got NoneType"),
        (((0.0, 0.0), "2.5"), r"points\[1\]\.mass: must be a real number, got str"),
        (WeightedPoint((0.0, 0.0), "2.5"), r"points\[1\]\.mass: must be a real number, got str"),
        (((0.0, 0.0), b"2.5"), r"points\[1\]\.mass: must be a real number, got bytes"),
        (((0.0, 0.0), 1j), r"points\[1\]\.mass: must be a real number, got complex"),
        (((0.0, 0.0),), r"points\[1\]: expected a \(point, mass\) pair or a WeightedPoint, got tuple"),
        (((0.0, 0.0), 1.0, 1.0), r"points\[1\]: expected a \(point, mass\) pair or a WeightedPoint, got tuple"),
        (5, r"points\[1\]: expected a \(point, mass\) pair or a WeightedPoint, got int"),
        (None, r"points\[1\]: expected a \(point, mass\) pair or a WeightedPoint, got NoneType"),
        # reads as 0.0: refused with the mass as given
        (WeightedPoint((0.0, 0.0), Decimal("1e-400")), r"points\[1\]\.mass: must be positive and finite, got 1E-400"),
    ],
)
def test_configuration_names_every_bad_item(euclid2, item, message):
    """Each of these raised a bare OverflowError, TypeError or ValueError,
    or was taken (a str mass, a Decimal mass that reads as 0.0)."""
    with pytest.raises(GeometryError, match=f"^{message}$"):
        Configuration.of(euclid2, [((1.0, 0.0), 1.0), item])


def test_a_mass_is_stored_as_the_float_it_reads_as(euclid2):
    items = [((0.0, 0.0), 2), WeightedPoint((1.0, 0.0), Fraction(1, 2)), [(2.0, 0.0), Real(3.0)]]
    masses = [item.mass for item in Configuration.of(euclid2, items).items]
    assert masses == [2.0, 0.5, 3.0] and {type(m) for m in masses} == {float}


@pytest.mark.parametrize(
    "point, message",
    [
        (TreePoint(["A-B"], 1.0), r"unknown edge \['A-B'\]"),
        (TreePoint("A-B", "1.0"), r"offset on edge A-B must be a number, got '1\.0'"),
        (TreePoint("A-B", None), r"offset on edge A-B must be a number, got None"),
        (TreePoint("A-B", 10**400), r"non-finite offset on edge A-B"),
    ],
    ids=["unhashable-edge", "str-offset", "none-offset", "int-offset-past-floats"],
)
def test_a_bad_tree_point_is_named_in_bodies_and_configurations(point, message):
    """Each of these raised a bare TypeError or OverflowError, with no
    points[i] or generators[i] to name it."""
    space = SPACES["tree"]
    good = TreePoint("A-B", 1.0)
    with pytest.raises(TreeError, match=rf"^generators\[1\]: {message}$"):
        ConvexBody.of(space, [good, point])
    with pytest.raises(TreeError, match=rf"^points\[1\]: {message}$"):
        Configuration.of(space, [(good, 1.0), (point, 1.0)])


def test_a_subclass_without_slots_of_its_own_prints_its_fields():
    """A caller's TreePoint type declares no slots; its repr names the
    fields it inherits, not an empty list."""
    assert repr(Placed("A-B", 1.0)) == "Placed(edge='A-B', offset=1.0)"


# -- each point once ---------------------------------------------------------
# The bodies and configurations below are the .of-built corpora of
# test_bits.py.  A door reads a record that .of built in its space as it
# is, and any other record through .of's loop, so each point passes the
# rule once, where the record is built or at the door.


def _same(calls, points):
    return len(calls) == len(points) and all(c is p for c, p in zip(calls, points))


def test_select_checks_each_generator_once(rule_calls):
    """On an .of body a singleton or a lone contact calls the rule on
    nothing, and a tie's or the projected body's center calls it once on
    each point of its unit configuration.  A raw-built body adds one call
    per generator, at select's door, in order."""
    lone = 0
    for space, body, xi in bodies():
        contact = first_horosphere(space, body, xi)[1]
        rule_calls.clear()
        picked = select(space, body, xi, NO_SMOOTHING)
        marked = list(rule_calls)
        if len(contact) == 1 and picked is contact[0]:
            assert marked == [], body
            lone += 1
        else:
            assert len(marked) in (len(contact), len(body)), body
        raw = ConvexBody(tuple(body.generators))
        rule_calls.clear()
        assert repr(select(space, raw, xi, NO_SMOOTHING)) == repr(picked)
        assert _same(rule_calls[: len(body)], body.generators)
        assert len(rule_calls) == len(body) + len(marked)
    assert lone >= 150


@pytest.mark.parametrize("door", [center_of_mass, leave_one_out_step])
def test_the_recursion_checks_each_item_once(rule_calls, door):
    """center_of_mass and leave_one_out_step call the rule on no point of
    an .of configuration, and once on each point of a raw-built one."""
    for space, config in corpus():
        if door is leave_one_out_step and len(config) < 3:
            continue
        rule_calls.clear()
        door(space, config)
        assert rule_calls == [], config
        raw = Configuration(tuple(config.items))
        door(space, raw)
        assert _same(rule_calls, raw.points), config


def test_what_the_library_builds_past_of_is_read_again(rule_calls):
    """leave_one_out_step, replace_point and replace_mass return
    configurations that no rule has seen whole, so they are left unmarked
    and the recursion's door reads every point of them."""
    space = SPACES["H2"]
    config = next(c for s, c in corpus() if s == space and len(c) == 4)
    built = [
        leave_one_out_step(space, config),
        replace_point(config, 1, config.points[0]),
        replace_mass(config, 1, 2.5),
    ]
    for other in built:
        assert type(other.items) is tuple
        rule_calls.clear()
        center_of_mass(space, other)
        assert _same(rule_calls, other.points)


@pytest.mark.parametrize(
    "mass, message",
    [
        ("2.5", r"points\[1\]\.mass: must be a real number, got str"),
        (None, r"points\[1\]\.mass: must be a real number, got NoneType"),
        (10**400, r"points\[1\]\.mass: must be positive and finite, got an out-of-range int"),
        (-1.0, r"points\[1\]\.mass: must be positive and finite, got -1\.0"),
    ],
    ids=["str", "none", "out-of-range-int", "negative"],
)
def test_replace_mass_stores_the_mass_for_the_door_to_refuse(euclid2, mass, message):
    """replace_mass took "2.5" as 2.5 and raised a bare TypeError on None
    and OverflowError on 10**400; it stores the mass as given, and the
    recursion's door refuses it as Configuration.of does."""
    config = Configuration.of(euclid2, [((0.0, 0.0), 1.0), ((1.0, 0.0), 1.0)])
    replaced = replace_mass(config, 1, mass)
    assert replaced.items[1].mass is mass
    with pytest.raises(GeometryError, match=f"^{message}$"):
        center_of_mass(euclid2, replaced)


def test_select_reads_a_raw_body_as_convex_body_of_builds_it(euclid2):
    """A repeated generator of a raw-built body counted twice in the E^2
    center of the projected generators, (0, 1/3) here; at the door it is
    merged, as ConvexBody.of merges it."""
    gens = ((0.0, 0.0), (0.0, 0.0), (0.0, 1.0))
    xi = sp.IdealPoint.direction((1.0, 0.0))
    assert select(euclid2, ConvexBody(gens), xi) == select(euclid2, ConvexBody.of(euclid2, gens), xi)
    assert select(euclid2, ConvexBody(gens), xi) == (0.0, 0.5)
