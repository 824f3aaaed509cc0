"""The library's seeded stream against numpy's default_rng, draw by draw.

``spaces.sub_rng`` reproduces numpy's SeedSequence + PCG64 stream and its
scalar random, integers, uniform and normal draws without importing
numpy, so every seeded artifact keeps its bytes.  These tests need numpy
as the reference and skip without it.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from horocenter import spaces as sp
from horocenter import stream

np = pytest.importorskip("numpy")

MASK = 2**63 - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
SEEDS = [0, 1, 2**31 - 1, 2**63 - 1] + [random.Random(1).getrandbits(63) for _ in range(6)]
INDICES = [0, 999, 2**63 - 1] + [random.Random(2).getrandbits(63) for _ in range(3)]


def reference(seed, index):
    return np.random.default_rng([seed & MASK, index & MASK])


def draw(rng, op, arg):
    if op == "random":
        return float(rng.random())
    if op == "integers":
        return int(rng.integers(arg))
    if op == "uniform":
        return float(rng.uniform(*arg))
    return float(rng.normal())


def bits(x):
    """x with its sign, so -0.0 and 0.0 differ."""
    return (x, math.copysign(1.0, x)) if isinstance(x, float) else x


@pytest.mark.parametrize("seed", SEEDS)
def test_sub_rng_draws_what_default_rng_draws(seed):
    plan = random.Random(seed & 0xFFFF)
    for index in INDICES:
        ops = []
        for _ in range(80):
            op = plan.choice(["random", "integers", "uniform", "normal"])
            arg = {
                # 2^31 + 1 and 3 * 2^30 reject about half and a quarter of
                # the 32-bit words Lemire's method reads
                "integers": plan.choice([1, 2, 7, 2**31, 2**31 + 1, 3 * 2**30]),
                "uniform": (plan.uniform(-3.0, 0.0), plan.uniform(0.5, 4.0)),
            }.get(op)
            ops.append((op, arg))
        mine, theirs = sp.sub_rng(seed, index), reference(seed, index)
        got = [bits(draw(mine, op, arg)) for op, arg in ops]
        assert got == [bits(draw(theirs, op, arg)) for op, arg in ops], (seed, index)


class CountingStream(stream.Stream):
    """A stream that counts the uniforms its normal draws use: only the
    ziggurat's wedge and tail paths draw one."""

    def __init__(self, seed, index):
        super().__init__(seed, index)
        self.uniforms = 0

    def random(self):
        self.uniforms += 1
        return super().random()


def test_normal_matches_numpy_through_the_wedge_and_the_tail():
    tail = wedge = 0
    for index in range(4):
        mine, theirs = CountingStream(5, index), reference(5, index)
        for k in range(6000):
            if k % 7 == 0:  # interleave, so a slow path's extra words shift what follows
                assert mine.random() == theirs.random()
            before = mine.uniforms
            x = mine.normal()
            assert bits(x) == bits(float(theirs.normal())), (index, k)
            if mine.uniforms > before:
                if abs(x) > stream._ZIG_R:
                    tail += 1
                else:
                    wedge += 1
    assert tail > 0 and wedge > 0, (tail, wedge)


def forced(r):
    """numpy's PCG64 and the library's stream, each set so that its next
    64-bit output is the word r: with inc = 1 the next state is r, and
    XSL-RR maps a state below 2^64 to itself."""
    state = (r - 1) * pow(PCG_MULT, -1, 2**128) % 2**128
    theirs = np.random.default_rng(0)
    theirs.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": 1},
        "has_uint32": 0,
        "uinteger": 0,
    }
    mine = stream.Stream(0, 0)
    mine._state, mine._inc = state, 1
    return mine, theirs


def word(idx, rabs, negative=0):
    """The 64-bit word the ziggurat reads as strip idx, a sign and rabs."""
    return rabs << 9 | negative << 8 | idx


def draw_from(r):
    """Each side's normal draw from the word r, and its state after."""
    mine, theirs = forced(r)
    x, y = mine.normal(), float(theirs.normal())
    return (bits(x), mine._state), (bits(y), theirs.bit_generator.state["state"]["state"])


def test_ziggurat_strip_widths_read_back_from_numpy():
    # rabs = 1 returns wi[idx] itself: at once where ki[idx] > 1, through
    # the wedge (where exp(-x^2/2) = 1) for the one strip with ki = 0
    for idx in range(256):
        mine, theirs = forced(word(idx, 1))
        assert float(theirs.normal()) == stream._WI[idx] == mine.normal(), idx


def test_ziggurat_fast_path_bounds_read_back_from_numpy():
    # ki[idx] is the least rabs whose draw takes more than one 64-bit word
    def single_step(idx, rabs):
        theirs = forced(word(idx, rabs))[1]
        theirs.normal()
        return theirs.bit_generator.state["state"]["state"] == word(idx, rabs)

    for idx in range(256):
        lo, hi = 0, 2**52  # single_step holds below ki[idx] and fails from it
        while lo < hi:
            mid = (lo + hi) // 2
            if single_step(idx, mid):
                lo = mid + 1
            else:
                hi = mid
        assert lo == stream._KI[idx], idx


def test_ziggurat_slow_paths_match_numpy_word_by_word():
    # words at and past each strip's fast-path bound take the wedge test
    # (idx > 0) or the tail (idx = 0), and a zero magnitude with the sign
    # bit set draws 0.0, not -0.0; each side must return the same value
    # after reading the same number of words
    plan = random.Random(9)
    for idx in range(256):
        ki = stream._KI[idx]
        for rabs in [ki, 0] + [plan.randrange(ki, 2**52) for _ in range(12)]:
            for negative in (0, 1):
                r = word(idx, rabs, negative)
                mine, theirs = draw_from(r)
                assert mine == theirs, (idx, rabs, negative)


def test_integers_refuses_a_range_it_cannot_draw():
    for n in (0, -3, 2**32 + 1):
        with pytest.raises(ValueError, match="1 <= n <= 2\\*\\*32"):
            sp.sub_rng(0).integers(n)


def fma_chain(g):
    """s = fma(c, c, s) over g, each step rounded once from exact fractions."""
    s = 0.0
    for c in g:
        s = float(Fraction(s) + Fraction(c) ** 2)
    return s


# zero, or large enough that no square or its rounding error underflows,
# as every normal draw is
ENTRIES = st.one_of(st.just(0.0), st.floats(1e-30, 1e6), st.floats(-1e6, -1e-30))


@given(st.lists(ENTRIES, min_size=1, max_size=40))
def test_norm_is_the_exactly_rounded_fma_chain(g):
    assert sp._fma_norm2(g) == fma_chain(g)

