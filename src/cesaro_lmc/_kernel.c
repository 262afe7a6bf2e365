/* Compiled potentials and the one chain loop.
 *
 * A potential here (lmc_pot) is one term,
 *
 *     sum_v c+_v log(1 + e^-z_v) + c-_v log(1 + e^z_v) + (mu/2) |x - center|^2,
 *
 * z_v = <a_v, x>, over sign pairs: the distinct row a_v with weight c+_v
 * and its negation -a_v with weight c-_v share z_v and e = e^-|z_v|, so a
 * pair costs one exp (and one log1p for the value), whichever of its rows
 * occur.  A logistic potential or posterior is such a term with center 0,
 * its ridge (and prior) in mu; a Gaussian one, (rho/2) |x - mean|^2, is the
 * term with no pairs, mu = rho and center = mean.
 *
 * lmc_value, lmc_grad and lmc_hess_vec evaluate a batch of points one point
 * at a time, so a point's result does not depend on its batch.  lmc_step
 * steps chains with the same gradient code, through the same IEEE
 * operations, in the same order, as the numpy driver (sampler._drive): the
 * Kahan Cesaro update, the Euler step, then the divergence test.  Noise
 * comes from the replicate's lmc_stream: this file's copy of numpy's
 * Philox4x64-10 generator, whose state is a row of a plain array.  A normal
 * (normal()) runs the first test of numpy's ziggurat inline, on tables that
 * lmc_init reads from numpy's own random_standard_normal, and hands every
 * draw that test does not accept back to that function, the code
 * Generator.standard_normal runs.  So the chain draws numpy's variates
 * without a numpy Generator or a noise block.  _kernel.py checks the
 * normals against numpy when it loads the library.
 *
 * A pair's exponential is expneg(t) = e^-t and its log(1 + e^-|z|) is
 * log1p01(expneg(|z|)), both from IEEE operations alone, so no logistic
 * bit depends on the host's libm.  pairs_grad takes all z_v, then the
 * weights s_v, then the ordered sum; value_point all z_v, then the terms
 * t+_v and t-_v, then the ordered sum.  On x86-64 under GCC or clang, with
 * a CPU that has AVX-512 (lmc_init looks), the weights and the terms run 8
 * pairs per register (weights_avx512, terms_avx512) in a pass of at least
 * GRAD_LANES or VALUE_LANES pairs, and lmc_step steps each group of 8 live
 * replicates of a term with pairs, if it holds at least 4, one replicate
 * per lane (step_lanes); every other pass, group, Gaussian term and host
 * runs the scalar loop.  A lane runs the scalar operations in their order,
 * so no bit depends on the path.  ns per replicate-step of M replicates,
 * scalar body -> lanes forced on, one thread, 2-vCPU Sapphire Rapids (a
 * Gaussian, d = 2, M = 2000: 17.7 -> 18.7), and ns per point-pair of
 * lmc_value, scalar -> lanes:
 *
 *   pairs   M = 1        M = 2        M = 4        M = 8        value
 *   50      267 -> 800   267 -> 400   266 -> 196   267 -> 106   21.8 -> 7.3
 *   3       83 -> 95     83 -> 52     83 -> 32     83 -> 25     (scalar) 24
 *
 * Build with -ffp-contract=off: a fused multiply-add would round once
 * where numpy rounds twice.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && (__GNUC__ >= 7 || __clang_major__ >= 5)
#include <immintrin.h>  /* and the target attribute, for weights_avx512 and step_lanes */
#define LMC_AVX512 1
#endif

#include "numpy/random/bitgen.h"

/* from numpy/random/lib/libnpyrandom.a (distributions.h needs Python.h) */
extern double random_standard_normal(bitgen_t *bitgen_state);

#define DIVERGE_LIMIT 1e12

/* numpy's philox_state (numpy/random/src/philox/philox.h) in 16 words, two
 * cache lines: the stream keyed by a seed k has key {k, 0}, counter 0 and
 * an empty buffer (pos 4), the state of Philox(key=k).  _kernel.streams
 * builds these rows. */
typedef struct {
    uint64_t ctr[4], key[2];
    uint64_t buf[4], pos;
    uint64_t pad[5];
} lmc_stream;

/* Philox4x64-10 (Salmon et al., SC'11) of the counter, as numpy computes it */
static void philox_block(lmc_stream *s)
{
    uint64_t c0 = s->ctr[0], c1 = s->ctr[1], c2 = s->ctr[2], c3 = s->ctr[3];
    uint64_t k0 = s->key[0], k1 = s->key[1];
#pragma GCC unroll 10  /* as numpy unrolls its rounds: rolled, a draw took 1.36x as long */
    for (int r = 0; r < 10; r++) {
        if (r > 0) {
            k0 += 0x9E3779B97F4A7C15ULL;
            k1 += 0xBB67AE8584CAA73BULL;
        }
        unsigned __int128 p0 = (unsigned __int128)0xD2E7470EE14C6C93ULL * c0;
        unsigned __int128 p1 = (unsigned __int128)0xCA5A826395121157ULL * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
    }
    s->buf[0] = c0;
    s->buf[1] = c1;
    s->buf[2] = c2;
    s->buf[3] = c3;
}

static inline uint64_t next64(lmc_stream *s)
{
    if (s->pos < 4)
        return s->buf[s->pos++];
    /* the counter is incremented, with carry, before each block */
    for (int j = 0; j < 4; j++)
        if (++s->ctr[j] != 0)
            break;
    philox_block(s);
    s->pos = 1;
    return s->buf[0];
}

static uint64_t bitgen_next64(void *s) { return next64(s); }
/* numpy's normals never draw 32 bits; a numpy that did would fail the self-check */
static uint32_t bitgen_next32(void *s) { return (uint32_t)next64(s); }
static double bitgen_next_double(void *s) { return (next64(s) >> 11) * (1.0 / 9007199254740992.0); }

/* The first test of numpy's ziggurat (Marsaglia & Tsang, J. Stat. Softw.
 * 5(8), 2000), which accepts about 98.5% of draws: for a word r, row
 * idx = r & 0xff and rabs = bits 9-60 of r, numpy returns rabs * wi[idx],
 * negated when bit 8 is set, whenever rabs < ki[idx].  lmc_init fills the
 * tables; while ki is zero, every draw goes to numpy. */
static uint64_t ki[256];
static double wi[256];

/* A bitgen_t whose first word is `first` and every later word 0, with
 * next_double 0.5, counting its calls.  Word 0 is row 0 at rabs 0, which
 * numpy returns at once or takes to the tail, and the tail accepts at once
 * on next_double 0.5, so every probe ends. */
typedef struct {
    uint64_t first, calls;
} probe_state;

static uint64_t probe_next64(void *st)
{
    probe_state *p = st;
    return p->calls++ ? 0 : p->first;
}

static uint32_t probe_next32(void *st) { return (uint32_t)probe_next64(st); }

static double probe_next_double(void *st) { return ((probe_state *)st)->calls++, 0.5; }

/* numpy's normal for the word idx | rabs << 9; *at_once says whether it
 * returned on that word alone */
static double probe(uint64_t idx, uint64_t rabs, int *at_once)
{
    probe_state p = {idx | rabs << 9, 0};
    bitgen_t gen = {&p, probe_next64, probe_next32, probe_next_double, probe_next64};
    double x = random_standard_normal(&gen);
    *at_once = p.calls == 1;
    return x;
}

/* One standard normal from s, with the bits of numpy's
 * random_standard_normal on a bitgen_t bound to s. */
static inline double normal(lmc_stream *s)
{
    uint64_t r = next64(s), idx = r & 0xff, rabs = (r >> 9) & 0xFFFFFFFFFFFFFULL;
    if (rabs < ki[idx]) {
        /* rabs < 2^52 converts exactly as a signed integer */
        double x = (double)(int64_t)rabs * wi[idx];
        uint64_t bits;
        memcpy(&bits, &x, sizeof bits);
        /* bit 8 into the sign bit, without a branch: the bits of numpy's -x,
         * -0.0 included; a branch on a random bit mispredicts half the time */
        bits ^= (r & 0x100) << 55;
        memcpy(&x, &bits, sizeof x);
        return x;
    }
    /* hand the word back (exact at any position: after a fresh block pos
     * returns to 0 with buf[0] kept), so numpy draws it again and runs its
     * wedge and tail */
    s->pos--;
    /* a bitgen_t drawing from s, as numpy's Philox binds its state */
    bitgen_t gen = {s, bitgen_next64, bitgen_next32, bitgen_next_double, bitgen_next64};
    return random_standard_normal(&gen);
}

typedef struct {
    int64_t d, pairs;
    const double *rows, *cplus, *cminus;  /* (pairs, d), (pairs,), (pairs,) */
    double mu;
    const double *center;                 /* (d,) */
} lmc_pot;

/* the coordinate products added in order */
static double dot(const double *a, const double *x, int64_t d)
{
    double z = a[0] * x[0];
    for (int64_t j = 1; j < d; j++)
        z += a[j] * x[j];
    return z;
}

/* 2^(j/64) = hi_j (1 + TAIL[j] 2^-62) within 2^-63, from exact arithmetic:
 * FRAC[j] holds the 52 fraction bits of hi_j, 2^(j/64) rounded to a double */
static const uint64_t FRAC[64] = {
    0x0000000000000, 0x02c9a3e778061, 0x059b0d3158574, 0x0874518759bc8, 0x0b5586cf9890f,
    0x0e3ec32d3d1a2, 0x11301d0125b51, 0x1429aaea92de0, 0x172b83c7d517b, 0x1a35beb6fcb75,
    0x1d4873168b9aa, 0x2063b88628cd6, 0x2387a6e756238, 0x26b4565e27cdd, 0x29e9df51fdee1,
    0x2d285a6e4030b, 0x306fe0a31b715, 0x33c08b26416ff, 0x371a7373aa9cb, 0x3a7db34e59ff7,
    0x3dea64c123422, 0x4160a21f72e2a, 0x44e086061892d, 0x486a2b5c13cd0, 0x4bfdad5362a27,
    0x4f9b2769d2ca7, 0x5342b569d4f82, 0x56f4736b527da, 0x5ab07dd485429, 0x5e76f15ad2148,
    0x6247eb03a5585, 0x6623882552225, 0x6a09e667f3bcd, 0x6dfb23c651a2f, 0x71f75e8ec5f74,
    0x75feb564267c9, 0x7a11473eb0187, 0x7e2f336cf4e62, 0x82589994cce13, 0x868d99b4492ed,
    0x8ace5422aa0db, 0x8f1ae99157736, 0x93737b0cdc5e5, 0x97d829fde4e50, 0x9c49182a3f090,
    0xa0c667b5de565, 0xa5503b23e255d, 0xa9e6b5579fdbf, 0xae89f995ad3ad, 0xb33a2b84f15fb,
    0xb7f76f2fb5e47, 0xbcc1e904bc1d2, 0xc199bdd85529c, 0xc67f12e57d14b, 0xcb720dcef9069,
    0xd072d4a07897c, 0xd5818dcfba487, 0xda9e603db3285, 0xdfc97337b9b5f, 0xe502ee78b3ff6,
    0xea4afa2a490da, 0xefa1bee615a27, 0xf50765b6e4540, 0xfa7c1819e90d8,
};
static const int32_t TAIL[64] = {
    0, -70, 231, 34, 378, 8, -341, -285, -129, 220, 431, 211, 361, 130, 152, 218,
    154, 255, -293, -71, 173, -25, 10, 62, 90, -253, -99, 307, 262, 323, -226, -317,
    -315, -39, -96, -177, -109, 44, -311, -333, 238, 112, -30, -292, 71, -190, -284, 163,
    225, -22, -50, 84, 78, 167, 47, -253, 83, 243, -151, 83, -256, 246, 211, 94,
};

#define EXPNEG_MAX 750.0                  /* e^-t rounds to 0 from t = 745.14 */
#define SHIFT 0x1.8p52                    /* x + SHIFT: x rounded, in the low bits */
#define INV_LN2_64 0x1.71547652b82fep+6   /* 64 / ln 2 */
#define LN2_64_HI 0x1.62e42ff000000p-7   /* ln 2 / 64 in 32 bits, so k LN2_64_HI is exact */
#define LN2_64_LO -0x1.718432a1b0e26p-41  /* ln 2 / 64 - LN2_64_HI */
/* e^r = 1 + r + r^2 (C2 + r C3) + r^4 (C4 + r C5) within 4.7e-18 for |r| <= 1.01 ln2/128,
 * by Chebyshev interpolation of (e^r - 1 - r) / r^2 */
#define C2 0x1.ffffffffff511p-2
#define C3 0x1.5555555555236p-3
#define C4 0x1.55556ba388635p-5
#define C5 0x1.11111dd009952p-7

/* e^-t for t >= 0, faithfully rounded, 0 from t = 745.14 and for inf, NaN
 * for NaN.  Cody and Waite's reduction: x = -t = (64 m + j) ln2/64 + r with
 * |r| <= ln2/128, so e^x = 2^m hi_j (1 + tail_j) e^r.  2^(m + 1022) hi_j is
 * written as bits and the result scaled by 2^-1022 last, so a subnormal one
 * is rounded once more rather than lost. */
static inline double expneg(double t)
{
    double x = -(EXPNEG_MAX < t ? EXPNEG_MAX : t), kd = x * INV_LN2_64 + SHIFT, scale;
    uint64_t ki;
    memcpy(&ki, &kd, sizeof ki);  /* SHIFT's bits + 64 m + j; they fall off the top below */
    uint64_t sbits = FRAC[ki & 63] + (((ki >> 6) + 2045) << 52);  /* exponent m + 1022 */
    kd -= SHIFT;
    double r = x - kd * LN2_64_HI - kd * LN2_64_LO, r2 = r * r;
    double tmp = TAIL[ki & 63] * 0x1p-62 + r + r2 * (C2 + r * C3) + r2 * r2 * (C4 + r * C5);
    memcpy(&scale, &sbits, sizeof scale);
    return (scale + scale * tmp) * 0x1p-1022;
}

/* log(1 + j/16) = LOG_HI[j] + LOG_LO[j] within 2^-106, and INV_F[j] = 1 / (1 + j/16)
 * rounded, from exact arithmetic; 17 entries, so the 8-lane build reads them from
 * registers (the first 16 by permutes) rather than by gathers */
static const double LOG_HI[17] = {
    0.0, 0x1.f0a30c01162a6p-5, 0x1.e27076e2af2e6p-4, 0x1.5ff3070a793d4p-3,
    0x1.c8ff7c79a9a22p-3, 0x1.1675cababa60ep-2, 0x1.4618bc21c5ec2p-2, 0x1.739d7f6bbd007p-2,
    0x1.9f323ecbf984cp-2, 0x1.c8ff7c79a9a22p-2, 0x1.f128f5faf06edp-2, 0x1.0be72e4252a83p-1,
    0x1.1e85f5e7040d0p-1, 0x1.307d7334f10bep-1, 0x1.41d8fe84672aep-1, 0x1.52a2d265bc5abp-1,
    0x1.62e42fefa39efp-1,
};
static const double LOG_LO[17] = {
    0.0, 0x1.85f325c5bbacdp-59, -0x1.61578001e0162p-60, -0x1.bc60efafc6f6ep-58,
    -0x1.4f689f8434012p-57, 0x1.ce63eab883717p-61, 0x1.f42decdeccf1dp-56, -0x1.8c76ceb014b04p-56,
    -0x1.a92e513217f5cp-59, -0x1.4f689f8434012p-56, -0x1.328df13bb38c3p-56, -0x1.259da11330801p-55,
    0x1.ef62cd2f9f1e3p-56, 0x1.fb590a1f566dap-57, 0x1.9192f30bd1806p-55, -0x1.1883750ea4d0ap-57,
    0x1.abc9e3b39803fp-56,
};
static const double INV_F[17] = {
    0x1.0000000000000p+0, 0x1.e1e1e1e1e1e1ep-1, 0x1.c71c71c71c71cp-1, 0x1.af286bca1af28p-1,
    0x1.999999999999ap-1, 0x1.8618618618618p-1, 0x1.745d1745d1746p-1, 0x1.642c8590b2164p-1,
    0x1.5555555555555p-1, 0x1.47ae147ae147bp-1, 0x1.3b13b13b13b14p-1, 0x1.2f684bda12f68p-1,
    0x1.2492492492492p-1, 0x1.1a7b9611a7b96p-1, 0x1.1111111111111p-1, 0x1.0842108421084p-1,
    0x1.0000000000000p-1,
};

/* log(1 + r) = r + r^2 q(r) within 2^-56 r^2 for |r| <= 1.01/32, q of degree 8 by
 * Chebyshev interpolation of (log(1 + r) - r) / r^2 */
static const double Q[9] = {
    -0x1.0000000000000p-1, 0x1.555555555551dp-2, -0x1.fffffffffff98p-3, 0x1.9999999b0cd8ep-3,
    -0x1.55555556a9a6cp-3, 0x1.249234acd7c28p-3, -0x1.ffffda799f956p-4, 0x1.c7f261257b2c7p-4,
    -0x1.9a5db5d89db2bp-4,
};
#define CHOP ~(uint64_t)0xff  /* keeps 45 of 53 bits: then r1 F is exact */

/* log(1 + u) for u in [0, 1], the range of expneg, faithfully rounded, NaN for NaN.
 * Tang's table-driven reduction (ACM TOMS 16(4), 1990): 1 + u = y + c exactly, c the
 * rounding error of y = 1 + u, and y = F + f with F = 1 + j/16 nearest y, so
 * log(1 + u) = log F + log(1 + r) with r = (f + c) / F = r1 + r2: r1 is f / F chopped
 * to 45 bits, so that f - r1 F is exact, and r2 the rest.  log F + r1 is summed
 * exactly (Fast2Sum: log F > |r1| or log F = 0), and the rest, small, added last. */
static inline double log1p01(double u)
{
    double y = 1.0 + u, a = y - 1.0, c = u - a, jd = a * 16.0 + SHIFT, r1;
    uint64_t j, bits;
    memcpy(&j, &jd, sizeof j);
    j &= 31;
    j = j < 16 ? j : 16;  /* j <= 16 but for NaN */
    jd -= SHIFT;
    double f = a - jd * 0.0625, F = 1.0 + jd * 0.0625;
    r1 = f * INV_F[j];
    memcpy(&bits, &r1, sizeof bits);
    bits &= CHOP;
    memcpy(&r1, &bits, sizeof r1);
    double r2 = ((f - r1 * F) + c) * INV_F[j], r = r1 + r2, rr = r * r, r4 = rr * rr;
    double q = (Q[0] + r * Q[1]) + rr * (Q[2] + r * Q[3])
               + r4 * ((Q[4] + r * Q[5]) + rr * (Q[6] + r * Q[7]) + r4 * Q[8]);
    double s = LOG_HI[j] + r1;
    return s + ((((LOG_HI[j] - s) + r1) + LOG_LO[j]) + r2 + rr * q);
}

/* s[v] = z_v -> s_v = c- sigma(z) - c+ sigma(-z) for the n pairs from v0,
 * sigma(z) = (z >= 0 ? 1 : e) / (1 + e) with e = e^-|z| */
static void weights_portable(const lmc_pot *p, int64_t v0, int64_t n, double *s)
{
    for (int64_t v = 0; v < n; v++) {
        double z = s[v], e = expneg(fabs(z));
        s[v] = (p->cminus[v0 + v] * (z >= 0.0 ? 1.0 : e)
                - p->cplus[v0 + v] * (z <= 0.0 ? 1.0 : e)) / (1.0 + e);
    }
}

/* s[v] = z_v -> s[v] = t+_v = c+ (max(-z, 0) + l) and t[v] = t-_v = c- (max(z, 0) + l) for
 * the n pairs from v0, l = log(1 + e^-|z|) */
static void terms_portable(const lmc_pot *p, int64_t v0, int64_t n, double *s, double *t)
{
    for (int64_t v = 0; v < n; v++) {
        double z = s[v], l = log1p01(expneg(fabs(z)));
        s[v] = p->cplus[v0 + v] * ((z < 0.0 ? -z : 0.0) + l);
        t[v] = p->cminus[v0 + v] * ((z > 0.0 ? z : 0.0) + l);
    }
}

static void (*weights)(const lmc_pot *, int64_t, int64_t, double *) = weights_portable;
static void (*terms)(const lmc_pot *, int64_t, int64_t, double *, double *) = terms_portable;
#define PASS 64  /* the most pairs of one pass */
/* the fewest pairs of a pass that takes weights or terms: a shorter one runs the portable
 * loop, which is faster there (ns per point-pair, portable -> 8 lanes, one thread, 2-vCPU
 * Sapphire Rapids: grad 3 pairs 9.8 -> 26, 12 pairs 8.4 -> 8.9, 16 pairs 8.6 -> 7.5;
 * value 3 pairs 24 -> 33, 5 pairs 23 -> 21) */
#define GRAD_LANES 16
#define VALUE_LANES 5

#ifdef LMC_AVX512
typedef double v8d __attribute__((vector_size(64)));
typedef uint64_t v8u __attribute__((vector_size(64)));
#define AVX512 __attribute__((target("avx512f,avx512dq")))

/* expneg in 8 lanes, each running its operations in their order, so with its bits */
AVX512 static inline v8d expneg8(v8d t)
{
    v8d x = -_mm512_min_pd(_mm512_set1_pd(EXPNEG_MAX), t), kd = x * INV_LN2_64 + SHIFT;
    v8u ki = (v8u)kd, j = ki & 63;
    v8u sbits = (v8u)_mm512_i64gather_epi64((__m512i)j, FRAC, 8) + (((ki >> 6) + 2045) << 52);
    kd -= SHIFT;
    v8d r = x - kd * LN2_64_HI - kd * LN2_64_LO, r2 = r * r;
    v8d tmp = _mm512_cvtepi32_pd(_mm512_i64gather_epi32((__m512i)j, TAIL, 4)) * 0x1p-62 + r
              + r2 * (C2 + r * C3) + r2 * r2 * (C4 + r * C5);
    return ((v8d)sbits + (v8d)sbits * tmp) * 0x1p-1022;
}

/* the weights of 8 pairs at z, as weights_portable takes them */
AVX512 static inline v8d weight8(v8d z, v8d cplus, v8d cminus)
{
    const v8d one = _mm512_set1_pd(1.0), zero = _mm512_setzero_pd(), e = expneg8(_mm512_abs_pd(z));
    v8d up = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(z, zero, _CMP_GE_OQ), e, one);
    v8d down = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(z, zero, _CMP_LE_OQ), e, one);
    return (cminus * up - cplus * down) / (one + e);
}

/* weights_portable, 8 pairs at a time */
AVX512 static void weights_avx512(const lmc_pot *p, int64_t v0, int64_t n, double *s)
{
    for (int64_t v = 0; v < n; v += 8) {
        __mmask8 lanes = (__mmask8)(n - v >= 8 ? 0xff : (1u << (n - v)) - 1);
        _mm512_mask_storeu_pd(s + v, lanes, weight8(_mm512_maskz_loadu_pd(lanes, s + v),
                              _mm512_maskz_loadu_pd(lanes, p->cplus + v0 + v),
                              _mm512_maskz_loadu_pd(lanes, p->cminus + v0 + v)));
    }
}

/* the entries j of a 17-entry table: the first 16 by a permute, the last by a blend */
AVX512 static inline v8d table8(const double *t, v8u j)
{
    v8d first = _mm512_permutex2var_pd(_mm512_loadu_pd(t), (__m512i)j, _mm512_loadu_pd(t + 8));
    __mmask8 last = _mm512_cmpeq_epu64_mask((__m512i)j, _mm512_set1_epi64(16));
    return _mm512_mask_blend_pd(last, first, _mm512_set1_pd(t[16]));
}

/* log1p01 in 8 lanes, each running its operations in their order, so with its bits */
AVX512 static inline v8d log1p8(v8d u)
{
    const v8d one = _mm512_set1_pd(1.0);
    v8d y = one + u, a = y - one, c = u - a, jd = a * 16.0 + SHIFT;
    v8u j = (v8u)_mm512_min_epu64((__m512i)((v8u)jd & 31), _mm512_set1_epi64(16));
    jd -= SHIFT;
    v8d f = a - jd * 0.0625, F = one + jd * 0.0625, inv = table8(INV_F, j), hi = table8(LOG_HI, j);
    v8d r1 = (v8d)((v8u)(f * inv) & CHOP);
    v8d r2 = ((f - r1 * F) + c) * inv, r = r1 + r2, rr = r * r, r4 = rr * rr;
    v8d q = (Q[0] + r * Q[1]) + rr * (Q[2] + r * Q[3])
            + r4 * ((Q[4] + r * Q[5]) + rr * (Q[6] + r * Q[7]) + r4 * Q[8]);
    v8d s = hi + r1;
    return s + ((((hi - s) + r1) + table8(LOG_LO, j)) + r2 + rr * q);
}

/* terms_portable, 8 pairs at a time */
AVX512 static void terms_avx512(const lmc_pot *p, int64_t v0, int64_t n, double *s, double *t)
{
    const v8d zero = _mm512_setzero_pd();
    for (int64_t v = 0; v < n; v += 8) {
        __mmask8 lanes = (__mmask8)(n - v >= 8 ? 0xff : (1u << (n - v)) - 1);
        v8d z = _mm512_maskz_loadu_pd(lanes, s + v), l = log1p8(expneg8(_mm512_abs_pd(z)));
        /* max_pd returns its second operand, 0, for NaN and for two zeros, as the ternaries do */
        _mm512_mask_storeu_pd(s + v, lanes, _mm512_maskz_loadu_pd(lanes, p->cplus + v0 + v)
                                            * (_mm512_max_pd(-z, zero) + l));
        _mm512_mask_storeu_pd(t + v, lanes, _mm512_maskz_loadu_pd(lanes, p->cminus + v0 + v)
                                            * (_mm512_max_pd(z, zero) + l));
    }
}

/* lmc_step's scalar body on its live replicates idx[0..n), n <= 8, lane k
 * stepping replicate idx[k] through the same operations in the same order
 * (each g[j] adds the pairs in pair order).  A diverged lane leaves the
 * live mask.  X is lmc_step's work: x, ces, comp and g, d vectors each. */
AVX512 static void step_lanes(const lmc_pot *p, const int64_t *idx, int n, lmc_stream *streams,
                              double h, double sqrt2h, int64_t step0, int64_t todo, double *x,
                              double *ces, double *comp, int64_t *diverged, double *states,
                              int64_t states_stride, v8d *X)
{
    const int64_t d = p->d;
    v8d *S = X + d, *C = S + d, *G = C + d, w[PASS];
    __mmask8 live = (__mmask8)((1u << n) - 1);
    for (int k = 0; k < 8; k++)  /* a lane past n runs a copy of lane 0 and is never read */
        for (int64_t j = 0, r = idx[k < n ? k : 0] * d; j < d; j++)
            X[j][k] = x[r + j], S[j][k] = ces[r + j], C[j][k] = comp[r + j];
    for (int64_t step = step0; step < step0 + todo && live; step++) {
        for (int64_t j = 0; j < d; j++) {
            v8d t1 = X[j] - C[j], t2 = S[j] + t1;
            C[j] = (t2 - S[j]) - t1;
            S[j] = t2;
        }
        for (int k = 0; k < n && states; k++)
            for (int64_t j = 0; j < d && live >> k & 1; j++)
                states[idx[k] * states_stride + (step - step0) * d + j] = X[j][k];
        for (int64_t j = 0; j < d; j++)
            G[j] = p->mu * (X[j] - p->center[j]);
        for (int64_t v0 = 0; v0 < p->pairs; v0 += PASS) {
            const int64_t np = p->pairs - v0 < PASS ? p->pairs - v0 : PASS;
            const double *a = p->rows + v0 * d;
            for (int64_t v = 0; v < np; v++) {
                v8d z = a[v * d] * X[0];
                for (int64_t j = 1; j < d; j++)
                    z += a[v * d + j] * X[j];
                w[v] = weight8(z, _mm512_set1_pd(p->cplus[v0 + v]),
                               _mm512_set1_pd(p->cminus[v0 + v]));
            }
            for (int64_t j = 0; j < d; j++)  /* each g[j] still adds the pairs in order */
                for (int64_t v = 0; v < np; v++)
                    G[j] += w[v] * a[v * d + j];
        }
        __mmask8 ok = 0xff;
        for (int64_t j = 0; j < d; j++) {
            v8d noise = _mm512_setzero_pd();
            for (int k = 0; k < n; k++)
                if (live >> k & 1)
                    noise[k] = normal(streams + idx[k]);
            X[j] = (X[j] - G[j] * h) + noise * sqrt2h;
            ok &= _mm512_cmp_pd_mask(_mm512_abs_pd(X[j]), _mm512_set1_pd(DIVERGE_LIMIT), _CMP_LT_OQ);
        }
        for (int k = 0; k < n; k++)
            if (live >> k & 1 && !(ok >> k & 1)) {
                live &= (__mmask8)~(1u << k);
                diverged[idx[k]] = step;
                for (int64_t j = 0, r = idx[k] * d; j < d; j++)
                    comp[r + j] = C[j][k], ces[r + j] = x[r + j] = NAN;
            }
    }
    for (int k = 0; k < n; k++)
        for (int64_t j = 0, r = idx[k] * d; j < d && live >> k & 1; j++)
            x[r + j] = X[j][k], ces[r + j] = S[j][k], comp[r + j] = C[j][k];
}
#endif

/* g += the pairs' gradients at x, PASS pairs at a time: every z_v, then the
 * weights, then the ordered sum g += s_v a_v in pair order */
static void pairs_grad(const lmc_pot *p, const double *x, double *g)
{
    const int64_t d = p->d;
    double s[PASS];
    for (int64_t v0 = 0; v0 < p->pairs; v0 += PASS) {
        const int64_t n = p->pairs - v0 < PASS ? p->pairs - v0 : PASS;
        const double *a = p->rows + v0 * d;
        for (int64_t v = 0; v < n; v++)
            s[v] = dot(a + v * d, x, d);
        (n >= GRAD_LANES ? weights : weights_portable)(p, v0, n, s);
        for (int64_t v = 0; v < n; v++)
            for (int64_t j = 0; j < d; j++)
                g[j] += s[v] * a[v * d + j];
    }
}

static void grad_point(const lmc_pot *p, const double *x, double *g)
{
    const int64_t d = p->d;
    /* the quadratic first: a Gaussian's gradient is then numpy's rho * (x - mean) */
    for (int64_t j = 0; j < d; j++)
        g[j] = p->mu * (x[j] - p->center[j]);
    if (p->pairs)
        pairs_grad(p, x, g);
}

static double value_point(const lmc_pot *p, const double *x)
{
    const int64_t d = p->d;
    double w = 0.0, sq = 0.0, s[PASS], t[PASS];
    /* PASS pairs at a time: every z_v, then the terms, then the ordered sum in pair order */
    for (int64_t v0 = 0; v0 < p->pairs; v0 += PASS) {
        const int64_t n = p->pairs - v0 < PASS ? p->pairs - v0 : PASS;
        for (int64_t v = 0; v < n; v++)
            s[v] = dot(p->rows + (v0 + v) * d, x, d);
        (n >= VALUE_LANES ? terms : terms_portable)(p, v0, n, s, t);
        /* a zero weight adds nothing, also where z or |x - center|^2 is infinite */
        for (int64_t v = 0; v < n; v++) {
            if (p->cplus[v0 + v] != 0.0)
                w += s[v];
            if (p->cminus[v0 + v] != 0.0)
                w += t[v];
        }
    }
    if (p->mu != 0.0) {
        for (int64_t j = 0; j < d; j++) {
            double r = x[j] - p->center[j];
            sq += r * r;
        }
        w += 0.5 * p->mu * sq;
    }
    return w;
}

static void hess_vec_point(const lmc_pot *p, const double *x, const double *u, double *out)
{
    const int64_t d = p->d;
    for (int64_t j = 0; j < d; j++)
        out[j] = 0.0;
    for (int64_t v = 0; v < p->pairs; v++) {
        const double *a = p->rows + v * d;
        double e = expneg(fabs(dot(a, x, d)));
        /* both rows of a pair have curvature sigma(z) sigma(-z) = e / (1 + e)^2 */
        double s = (p->cplus[v] + p->cminus[v]) * (e / ((1.0 + e) * (1.0 + e))) * dot(a, u, d);
        for (int64_t j = 0; j < d; j++)
            out[j] += s * a[j];
    }
    for (int64_t j = 0; j < d; j++)
        out[j] += p->mu * u[j];
}

/* Fill ki and wi from numpy's random_standard_normal, not from copied
 * constants: ki[idx] is the least rabs numpy does not return at once (a
 * binary search over [0, 2^52]), wi[idx] numpy's value at rabs 1, needed
 * only where ki[idx] > 1, and pick the builds of the weights and terms.
 * Returns the rows with a positive bound (255 with numpy's tables, whose
 * ki[1] is 0).
 * _kernel._open calls it once per handle, before any other function. */
int64_t lmc_init(void)
{
    int64_t rows = 0;
    for (uint64_t idx = 0; idx < 256; idx++) {
        uint64_t lo = 0, hi = 1ULL << 52;
        int at_once;
        while (lo < hi) {
            uint64_t mid = lo + (hi - lo) / 2;
            probe(idx, mid, &at_once);
            if (at_once)
                lo = mid + 1;
            else
                hi = mid;
        }
        ki[idx] = lo;
        wi[idx] = lo > 1 ? probe(idx, 1, &at_once) : 0.0;
        rows += lo > 0;
    }
#ifdef LMC_AVX512
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq"))
        weights = weights_avx512, terms = terms_avx512;
#endif
    return rows;
}

/* n points x (n, d) -> out (n,) */
void lmc_value(const lmc_pot *p, int64_t n, const double *x, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = value_point(p, x + i * p->d);
}

/* n points x (n, d) -> out (n, d) */
void lmc_grad(const lmc_pot *p, int64_t n, const double *x, double *out)
{
    for (int64_t i = 0; i < n; i++)
        grad_point(p, x + i * p->d, out + i * p->d);
}

/* n points x (n, d) and directions u (n, d) -> out (n, d) */
void lmc_hess_vec(const lmc_pot *p, int64_t n, const double *x, const double *u, double *out)
{
    for (int64_t i = 0; i < n; i++)
        hess_vec_point(p, x + i * p->d, u + i * p->d, out + i * p->d);
}

/* out[i] = expneg(t[i]) for i < n */
void lmc_expneg(int64_t n, const double *t, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = expneg(t[i]);
}

/* out[i] = log(1 + u[i]) for i < n, u[i] in [0, 1] (the scalar log1p01) */
void lmc_log1p(int64_t n, const double *u, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = log1p01(u[i]);
}

/* n standard normals from one stream, as Generator.standard_normal(n) */
void lmc_normals(lmc_stream *s, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = normal(s);
}

/* Steps step0 .. step0 + todo - 1 of m replicates.  x, ces, comp are
 * (m, d); diverged is (m,), -1 while alive, and a replicate with
 * diverged >= 0 is skipped.  On divergence a replicate's step is recorded
 * and its ces and x become NaN.  When states is not NULL, replicate i
 * writes the state before each step to the rows starting at
 * states + i * states_stride; rows after its divergence are left as they
 * were.  Replicate i draws from streams[i].  A replicate touches only its
 * own rows and stream, so the caller (_kernel.Kernel.step) steps disjoint
 * replicate ranges in concurrent calls without moving a bit.  work is the
 * caller's buffer of 32 d doubles on a 64-byte line, one per concurrent
 * call. */
void lmc_step(const lmc_pot *p, lmc_stream *streams, int64_t m, double h, double sqrt2h,
              int64_t step0, int64_t todo, double *x, double *ces, double *comp,
              int64_t *diverged, double *states, int64_t states_stride, double *work)
{
    const int64_t d = p->d;
    for (int64_t i = 0; i < m;) {
        int64_t idx[8], n = 0;
        for (; i < m && n < 8; i++)
            if (diverged[i] < 0)
                idx[n++] = i;
#ifdef LMC_AVX512
        if (weights == weights_avx512 && p->pairs && n >= 4) {  /* the CPU has AVX-512 */
            step_lanes(p, idx, n, streams, h, sqrt2h, step0, todo, x, ces, comp, diverged,
                       states, states_stride, (v8d *)work);
            continue;
        }
#endif
        for (int k = 0; k < n; k++) {
            const int64_t r = idx[k];
            double *xi = x + r * d, *si = ces + r * d, *ci = comp + r * d, *g = work;
            double *row = states ? states + r * states_stride : NULL;
            for (int64_t step = step0; step < step0 + todo; step++) {
                /* Cesaro includes the current (pre-step) state */
                for (int64_t j = 0; j < d; j++) {
                    double t1 = xi[j] - ci[j], t2 = si[j] + t1;
                    ci[j] = (t2 - si[j]) - t1;
                    si[j] = t2;
                }
                if (row) {
                    memcpy(row, xi, (size_t)d * sizeof(double));
                    row += d;
                }
                grad_point(p, xi, g);
                for (int64_t j = 0; j < d; j++) {
                    double y = xi[j] - g[j] * h;
                    xi[j] = y + normal(streams + r) * sqrt2h;
                }
                /* NaN and inf fail the comparison */
                int bad = 0;
                for (int64_t j = 0; j < d; j++)
                    bad |= !(fabs(xi[j]) < DIVERGE_LIMIT);
                if (bad) {
                    diverged[r] = step;
                    for (int64_t j = 0; j < d; j++)
                        si[j] = xi[j] = NAN;
                    break;
                }
            }
        }
    }
}
