"""The kernel's own exponential, ``expneg(t) = e^-t``, and the pair pass of
the compiled logistic gradient that runs it.

``expneg`` is checked against e^-t computed exactly (``decimal``, 40
digits), and both it and ``Kernel.grad`` against a numpy transcription in
this file: the same float64 operations in the same order, compared as
bits.  On a host with AVX-512 the library's gradient runs its 8-lane
build, elsewhere the portable one; both must give the transcription's bits.
"""

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest

from cesaro_lmc import _kernel
from cesaro_lmc.rng import stream

LN2_64 = math.log(2.0) / 64.0


def _tables():
    """FRAC and TAIL of ``_kernel.c`` from exact arithmetic: hi_j is 2^(j/64)
    rounded to a double, FRAC[j] its fraction bits, and TAIL[j] the nearest
    integer to 2^62 (2^(j/64) - hi_j) / hi_j."""
    frac, tail = [], []
    with localcontext() as ctx:
        ctx.prec = 60
        for j in range(64):
            exact = (Decimal(2).ln() * j / 64).exp()
            hi = float(exact)
            frac.append(int(np.float64(hi).view(np.uint64)) & ((1 << 52) - 1))
            tail.append(int(((exact - Decimal(hi)) / Decimal(hi) * 2**62).to_integral_value()))
    return np.array(frac, dtype=np.uint64), np.array(tail, dtype=np.float64)


FRAC, TAIL = _tables()
SHIFT, INV_LN2_64 = float.fromhex("0x1.8p52"), float.fromhex("0x1.71547652b82fep+6")
LN2_64_HI = float.fromhex("0x1.62e42ff000000p-7")
LN2_64_LO = float.fromhex("-0x1.718432a1b0e26p-41")
C2, C3, C4, C5 = map(float.fromhex, ["0x1.ffffffffff511p-2", "0x1.5555555555236p-3",
                                     "0x1.55556ba388635p-5", "0x1.11111dd009952p-7"])


def expneg(t):
    """``expneg`` of ``_kernel.c``, operation by operation, on float64 arrays."""
    t = np.asarray(t, dtype=np.float64)
    x = -np.where(750.0 < t, 750.0, t)
    kd = x * INV_LN2_64 + SHIFT
    ki = kd.view(np.uint64)
    j = (ki & np.uint64(63)).astype(np.intp)
    sbits = FRAC[j] + (((ki >> np.uint64(6)) + np.uint64(2045)) << np.uint64(52))
    kd = kd - SHIFT
    r = x - kd * LN2_64_HI - kd * LN2_64_LO
    r2 = r * r
    tmp = TAIL[j] * 2.0**-62 + r + r2 * (C2 + r * C3) + r2 * r2 * (C4 + r * C5)
    scale = sbits.view(np.float64)
    return (scale + scale * tmp) * 2.0**-1022


def grad(term, x):
    """``Kernel.grad`` of ``term`` at the points ``x`` (n, d): the quadratic,
    then each pair's z_v, e_v and s_v, added to the gradient in pair order."""
    rows, cplus, cminus, mu, center = term
    g = mu * (x - center)
    for a, cp, cm in zip(rows, cplus, cminus):
        z = x[:, 0] * a[0]
        for k in range(1, len(a)):
            z = z + x[:, k] * a[k]
        e = expneg(np.abs(z))
        s = (cm * np.where(z >= 0.0, 1.0, e) - cp * np.where(z <= 0.0, 1.0, e)) / (1.0 + e)
        g = g + s[:, None] * a
    return g


def lib_expneg(lib, t):
    t = np.ascontiguousarray(t, dtype=np.float64)
    out = np.empty_like(t)
    lib.lmc_expneg(t.size, t.ctypes.data, out.ctypes.data)
    return out


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def test_tables_are_2_to_the_j_over_64():
    """The tables in the source are the ones exact arithmetic gives."""
    with open(_kernel._SOURCE) as fh:
        source = fh.read()

    def table(name):
        body = re.search(name + r"\[64\] = \{(.*?)\};", source, re.S).group(1)
        return [int(v, 0) for v in body.replace(",", " ").split()]

    assert table("FRAC") == FRAC.tolist()
    assert table("TAIL") == TAIL.astype(int).tolist()


def test_expneg_is_faithfully_rounded(built_lib):
    """Every result is one of the two doubles around the exact e^-t, across
    [0, 745.2], at the reduction's nodes k ln2/64, into and past the
    subnormals; inf gives 0 and NaN gives NaN."""
    rng = stream(91)
    t = np.concatenate([
        rng.uniform(0.0, 1.0, 6000), rng.uniform(0.0, 40.0, 6000), rng.uniform(0.0, 745.2, 8000),
        np.arange(0, 11700, 3) * LN2_64,
        [0.0, 5e-324, 2.0**-30, 708.39, 709.0, 744.4, 745.13, 745.14],
    ])
    assert t.size >= 20000
    y = lib_expneg(built_lib, t)
    below, above = np.nextafter(y, -np.inf), np.nextafter(y, np.inf)
    with localcontext() as ctx:
        ctx.prec = 40
        missed = [(ti, yi) for ti, yi, lo, hi in zip(t.tolist(), y.tolist(), below.tolist(),
                                                      above.tolist())
                  if not Decimal(lo) < (-Decimal(ti)).exp() < Decimal(hi)]
    assert missed == []
    assert y[-1] == 0.0 and 0.0 < y[-2] < 1e-323  # 745.14 rounds to 0, 745.13 does not
    special = lib_expneg(built_lib, [np.inf, np.nan, 1e300])
    assert special[0] == 0.0 and np.isnan(special[1]) and special[2] == 0.0


def test_expneg_is_the_transcription_bit_for_bit(built_lib):
    rng = stream(92)
    t = np.concatenate([rng.uniform(0.0, 50.0, 6000), rng.uniform(700.0, 760.0, 6000),
                        [0.0, 5e-324, np.inf, 1e300]])
    mine = lib_expneg(built_lib, t)
    assert bits(mine).tolist() == bits(expneg(t)).tolist()


def _term(pairs, rng):
    rows = rng.standard_normal((pairs, 2))
    cplus, cminus = rng.uniform(0.0, 3.0, (2, pairs))
    cplus[::4] = 0.0  # pairs with one row only
    return rows, cplus, cminus, 1.5, np.zeros(2)


@pytest.mark.parametrize("pairs, scale", [(50, 3.0), (3, 3.0), (50, 600.0)],
                         ids=["50-pairs", "3-pairs", "subnormal-tail"])
def test_pass_is_the_transcription_bit_for_bit(built_lib, pairs, scale):
    """The gradient of a 50-pair term, of a 3-pair one (the lanes left after
    the vector blocks), and of the 50-pair term at points whose |z| reach
    e^-|z|'s subnormal tail and its zero."""
    rng = stream(93 + pairs)
    term = _term(pairs, rng)
    x = rng.standard_normal((10000, 2)) * scale
    if scale > 100.0:
        z = np.abs(x @ term[0].T)
        assert np.sum((708.0 < z) & (z < 745.0)) > 1000 and np.sum(z > 745.2) > 1000
    mine = _kernel.Kernel(built_lib, term, 2).grad(x)
    assert bits(mine).tolist() == bits(grad(term, x)).tolist()
