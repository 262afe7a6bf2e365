"""The kernel's own exponential, ``expneg(t) = e^-t``, and logarithm,
``log1p01(u) = log(1 + u)`` on [0, 1], and the pair passes of the compiled
logistic gradient and value that run them.

``expneg`` and ``log1p01`` are checked against the exact function
(``decimal``, 40 digits), and they, ``Kernel.grad`` and ``Kernel.value``
against a numpy transcription in this file: the same float64 operations in
the same order, compared as bits.  On a host with AVX-512 the library's
passes run their 8-lane builds, elsewhere the portable ones; both must give
the transcription's bits.
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


def _log_tables():
    """LOG_HI, LOG_LO and INV_F of ``_kernel.c`` from exact arithmetic:
    LOG_HI[j] is log(1 + j/16) rounded to a double, LOG_LO[j] the rest rounded,
    and INV_F[j] 1 / (1 + j/16) rounded."""
    hi, lo = [], []
    with localcontext() as ctx:
        ctx.prec = 60
        for j in range(17):
            exact = (1 + Decimal(j) / 16).ln()
            hi.append(float(exact))
            lo.append(float(exact - Decimal(hi[-1])))
    return np.array(hi), np.array(lo), np.array([float(1 / (1 + Decimal(j) / 16))
                                                 for j in range(17)])


FRAC, TAIL = _tables()
LOG_HI, LOG_LO, INV_F = _log_tables()
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


Q = list(map(float.fromhex, [
    "-0x1.0000000000000p-1", "0x1.555555555551dp-2", "-0x1.fffffffffff98p-3",
    "0x1.9999999b0cd8ep-3", "-0x1.55555556a9a6cp-3", "0x1.249234acd7c28p-3",
    "-0x1.ffffda799f956p-4", "0x1.c7f261257b2c7p-4", "-0x1.9a5db5d89db2bp-4"]))


def log1p(u):
    """``log1p01`` of ``_kernel.c``, operation by operation, on float64 arrays."""
    u = np.asarray(u, dtype=np.float64)
    y = 1.0 + u
    a = y - 1.0
    c = u - a
    jd = a * 16.0 + SHIFT
    j = np.minimum(jd.view(np.uint64) & np.uint64(31), np.uint64(16)).astype(np.intp)
    jd = jd - SHIFT
    f, F = a - jd * 0.0625, 1.0 + jd * 0.0625
    r1 = ((f * INV_F[j]).view(np.uint64) & ~np.uint64(0xff)).view(np.float64)
    r2 = ((f - r1 * F) + c) * INV_F[j]
    r = r1 + r2
    rr = r * r
    r4 = rr * rr
    q = (Q[0] + r * Q[1]) + rr * (Q[2] + r * Q[3]) + r4 * ((Q[4] + r * Q[5])
                                                          + rr * (Q[6] + r * Q[7]) + r4 * Q[8])
    s = LOG_HI[j] + r1
    return s + ((((LOG_HI[j] - s) + r1) + LOG_LO[j]) + r2 + rr * q)


def _z(a, x):
    """z = <a, x> at the points x (n, d), the coordinate products added in order."""
    z = x[:, 0] * a[0]
    for k in range(1, len(a)):
        z = z + x[:, k] * a[k]
    return z


def value(term, x):
    """``Kernel.value`` of ``term`` at the points ``x`` (n, d): each pair's two
    terms added in pair order, skipping a zero weight, then the quadratic."""
    rows, cplus, cminus, mu, center = term
    w = np.zeros(len(x))
    for a, cp, cm in zip(rows, cplus, cminus):
        z = _z(a, x)
        l = log1p(expneg(np.abs(z)))
        if cp != 0.0:
            w = w + cp * (np.where(z < 0.0, -z, 0.0) + l)
        if cm != 0.0:
            w = w + cm * (np.where(z > 0.0, z, 0.0) + l)
    if mu != 0.0:
        sq = np.zeros(len(x))
        for k in range(x.shape[1]):
            r = x[:, k] - center[k]
            with np.errstate(over="ignore"):
                sq = sq + r * r
        w = w + 0.5 * mu * sq
    return w


def grad(term, x):
    """``Kernel.grad`` of ``term`` at the points ``x`` (n, d): the quadratic,
    then each pair's z_v, e_v and s_v, added to the gradient in pair order."""
    rows, cplus, cminus, mu, center = term
    g = mu * (x - center)
    for a, cp, cm in zip(rows, cplus, cminus):
        z = _z(a, x)
        e = expneg(np.abs(z))
        s = (cm * np.where(z >= 0.0, 1.0, e) - cp * np.where(z <= 0.0, 1.0, e)) / (1.0 + e)
        g = g + s[:, None] * a
    return g


def lib_expneg(lib, t):
    t = np.ascontiguousarray(t, dtype=np.float64)
    out = np.empty_like(t)
    lib.lmc_expneg(t.size, t.ctypes.data, out.ctypes.data)
    return out


def lib_log1p(lib, u):
    u = np.ascontiguousarray(u, dtype=np.float64)
    out = np.empty_like(u)
    lib.lmc_log1p(u.size, u.ctypes.data, out.ctypes.data)
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


def test_log_tables_are_log_of_1_plus_j_over_16():
    """The log tables, the reciprocals of F and the polynomial in the source are
    the ones exact arithmetic and this file give."""
    with open(_kernel._SOURCE) as fh:
        source = fh.read()

    def table(name, size):
        body = re.search(name + r"\[%d\] = \{(.*?)\};" % size, source, re.S).group(1)
        return [float.fromhex(v) for v in body.replace(",", " ").split()]

    assert table("LOG_HI", 17) == LOG_HI.tolist() and table("LOG_LO", 17) == LOG_LO.tolist()
    assert table("INV_F", 17) == INV_F.tolist() == (1.0 / (1.0 + np.arange(17) / 16)).tolist()
    assert table("Q", 9) == Q


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


def _log1p_points(lib):
    """Points of [0, 1]: uniform, log-uniform down to 2^-1074, around the
    table's nodes j/16 and around 1 - 2^-53, where 1 + u rounds to 2; the
    values expneg reaches on [0, 745.2]; and 0, 5e-324, 2^-30, 2^-53, 0.5, 1."""
    rng = stream(94)
    nodes = np.arange(17) / 16.0
    return np.concatenate([
        rng.uniform(0.0, 1.0, 6000), 2.0 ** -rng.uniform(0.0, 1074.0, 4000),
        np.clip(np.repeat(nodes, 150) + rng.uniform(-1e-3, 1e-3, 17 * 150), 0.0, 1.0),
        1.0 - rng.integers(0, 64, 200) * 2.0**-54,
        lib_expneg(lib, rng.uniform(0.0, 745.2, 8000)),
        [0.0, 5e-324, 2.0**-30, 2.0**-53, 0.5, 1.0],
    ])


def test_log1p_is_faithfully_rounded(built_lib):
    """Every result is one of the two doubles around the exact log(1 + u)."""
    u = _log1p_points(built_lib)
    assert u.size >= 20000 and u.min() == 0.0 and u.max() == 1.0
    y = lib_log1p(built_lib, u)
    below, above = np.nextafter(y, -np.inf), np.nextafter(y, np.inf)
    with localcontext() as ctx:
        ctx.prec = 40

        def exact(v):  # below 1e-10, 1 + v would round in 40 digits: the series
            d = Decimal(v)
            return (1 + d).ln() if v > 1e-10 else d - d * d / 2 + d * d * d / 3

        missed = [(ui, yi) for ui, yi, lo, hi in zip(u.tolist(), y.tolist(), below.tolist(),
                                                      above.tolist())
                  if not Decimal(lo) < exact(ui) < Decimal(hi)]
    assert missed == []
    assert y[-6] == 0.0 and y[-5] == 5e-324 and y[-1] == math.log(2.0)


def test_log1p_is_the_transcription_bit_for_bit(built_lib):
    u = np.concatenate([_log1p_points(built_lib), [np.nan]])
    mine, ref = lib_log1p(built_lib, u), log1p(u)
    assert np.isnan(mine[-1]) and np.isnan(ref[-1])
    assert bits(mine[:-1]).tolist() == bits(ref[:-1]).tolist()


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


@pytest.mark.parametrize("pairs", [50, 3, 130])
def test_value_pass_is_the_transcription_bit_for_bit(built_lib, pairs):
    """The value of a 50-pair term, of a 3-pair one, and of a 130-pair one,
    which takes three passes, with one row of each fourth pair weighted 0, at
    points whose |z| stay small, pass 745 and reach infinity."""
    rng = stream(95 + pairs)
    term = _term(pairs, rng)
    x = np.concatenate([rng.standard_normal((6000, 2)) * 3.0,
                        rng.standard_normal((3000, 2)) * 600.0,
                        [[np.inf, 0.0], [0.0, -np.inf], [1e300, 1e300]]])
    z = np.abs(x @ term[0].T)
    assert np.sum(z > 745.2) > 1000 and np.isinf(z).sum() > 0
    mine = _kernel.Kernel(built_lib, term, 2).value(x)
    assert bits(mine).tolist() == bits(value(term, x)).tolist()
