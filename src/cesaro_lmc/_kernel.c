/* Compiled potentials and the one chain loop.
 *
 * A potential here (lmc_pot) is one term: a logistic term or a Gaussian
 * term.  The logistic term is
 *
 *     sum_v c+_v log(1 + e^-z_v) + c-_v log(1 + e^z_v) + (mu/2) |x|^2,
 *
 * z_v = <a_v, x>, over sign pairs: the distinct row a_v with weight c+_v
 * and its negation -a_v with weight c-_v share z_v and e = e^-|z_v|, so a
 * pair costs one exp (and one log1p for the value), whichever of its rows
 * occur.  A logistic posterior is one such term, its prior in mu.  The
 * Gaussian term is (rho/2) |x - mean|^2, with gradient rho * (x - mean).
 *
 * lmc_value, lmc_grad and lmc_hess_vec evaluate a batch of points one point
 * at a time, so a point's result does not depend on its batch.  lmc_step
 * steps chains with the same gradient code, through the same IEEE
 * operations, in the same order, as the numpy driver (sampler._drive): the
 * Kahan Cesaro update, K Euler substeps, then the divergence test.  Noise
 * comes from numpy's own random_standard_normal on the replicate's Philox
 * bitgen_t, the code Generator.standard_normal runs, so the chain draws the
 * same variates without a noise block.
 *
 * Build with -ffp-contract=off: a fused multiply-add would round once
 * where numpy rounds twice.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#include "numpy/random/bitgen.h"

/* from numpy/random/lib/libnpyrandom.a (distributions.h needs Python.h) */
extern double random_standard_normal(bitgen_t *bitgen_state);

#define DIVERGE_LIMIT 1e12

typedef struct {
    int64_t d;
    int64_t pairs;                        /* logistic term */
    const double *rows, *cplus, *cminus;  /* (pairs, d), (pairs,), (pairs,) */
    double mu;
    const double *mean;                   /* Gaussian term; NULL for a logistic one */
    double rho;
} lmc_pot;

/* the coordinate products added in order */
static double dot(const double *a, const double *x, int64_t d)
{
    double z = a[0] * x[0];
    for (int64_t j = 1; j < d; j++)
        z += a[j] * x[j];
    return z;
}

static void grad_point(const lmc_pot *p, const double *x, double *g)
{
    const int64_t d = p->d;
    if (p->mean) {
        for (int64_t j = 0; j < d; j++)
            g[j] = p->rho * (x[j] - p->mean[j]);
        return;
    }
    for (int64_t j = 0; j < d; j++)
        g[j] = 0.0;
    for (int64_t v = 0; v < p->pairs; v++) {
        const double *a = p->rows + v * d;
        double z = dot(a, x, d), e = exp(-fabs(z));
        /* c- sigma(z) - c+ sigma(-z), sigma(z) = (z >= 0 ? 1 : e) / (1 + e) */
        double s = (p->cminus[v] * (z >= 0.0 ? 1.0 : e)
                    - p->cplus[v] * (z <= 0.0 ? 1.0 : e)) / (1.0 + e);
        for (int64_t j = 0; j < d; j++)
            g[j] += s * a[j];
    }
    for (int64_t j = 0; j < d; j++)
        g[j] += p->mu * x[j];
}

static double value_point(const lmc_pot *p, const double *x)
{
    const int64_t d = p->d;
    double w = 0.0, sq = 0.0;
    if (p->mean) {
        for (int64_t j = 0; j < d; j++)
            sq += (x[j] - p->mean[j]) * (x[j] - p->mean[j]);
        return 0.5 * p->rho * sq;
    }
    for (int64_t v = 0; v < p->pairs; v++) {
        double z = dot(p->rows + v * d, x, d), l = log1p(exp(-fabs(z)));
        /* a zero weight adds nothing, also where z or |x|^2 is infinite */
        if (p->cplus[v] != 0.0)
            w += p->cplus[v] * (fmax(-z, 0.0) + l);
        if (p->cminus[v] != 0.0)
            w += p->cminus[v] * (fmax(z, 0.0) + l);
    }
    if (p->mu != 0.0) {
        for (int64_t j = 0; j < d; j++)
            sq += x[j] * x[j];
        w += 0.5 * p->mu * sq;
    }
    return w;
}

static void hess_vec_point(const lmc_pot *p, const double *x, const double *u, double *out)
{
    const int64_t d = p->d;
    if (p->mean) {
        for (int64_t j = 0; j < d; j++)
            out[j] = p->rho * u[j];
        return;
    }
    for (int64_t j = 0; j < d; j++)
        out[j] = 0.0;
    for (int64_t v = 0; v < p->pairs; v++) {
        const double *a = p->rows + v * d;
        double e = exp(-fabs(dot(a, x, d)));
        /* both rows of a pair have curvature sigma(z) sigma(-z) = e / (1 + e)^2 */
        double s = (p->cplus[v] + p->cminus[v]) * (e / ((1.0 + e) * (1.0 + e))) * dot(a, u, d);
        for (int64_t j = 0; j < d; j++)
            out[j] += s * a[j];
    }
    for (int64_t j = 0; j < d; j++)
        out[j] += p->mu * u[j];
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

/* n standard normals from one generator, as Generator.standard_normal(n) */
void lmc_normals(bitgen_t *gen, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = random_standard_normal(gen);
}

/* Coarse steps step0 .. step0 + todo - 1 of m replicates, one replicate at a
 * time.  x, ces, comp are (m, d); diverged is (m,), -1 while alive, and a
 * replicate with diverged >= 0 is skipped.  On divergence a replicate's
 * step is recorded and its ces and x become NaN.  When states is not NULL,
 * replicate i writes the state before each substep to the rows starting at
 * states + i * states_stride; rows after its divergence are left as they
 * were.  A replicate touches only its own rows and generator, so the caller
 * (_kernel.Kernel.step) steps disjoint replicate ranges in concurrent calls
 * without moving a bit.  g is the caller's gradient buffer of d doubles, one
 * per concurrent call. */
void lmc_step(const lmc_pot *p, bitgen_t **gens, int64_t m, double h, double sqrt2h,
              int64_t k_sub, int64_t step0, int64_t todo, double *x, double *ces,
              double *comp, int64_t *diverged, double *states, int64_t states_stride,
              double *g)
{
    const int64_t d = p->d;
    for (int64_t i = 0; i < m; i++) {
        if (diverged[i] >= 0)
            continue;
        bitgen_t *gen = gens[i];
        double *xi = x + i * d, *si = ces + i * d, *ci = comp + i * d;
        double *row = states ? states + i * states_stride : NULL;
        for (int64_t step = step0; step < step0 + todo; step++) {
            /* Cesaro includes the current (pre-step) state */
            for (int64_t j = 0; j < d; j++) {
                double t1 = xi[j] - ci[j];
                double t2 = si[j] + t1;
                ci[j] = (t2 - si[j]) - t1;
                si[j] = t2;
            }
            for (int64_t s = 0; s < k_sub; s++) {
                if (row) {
                    memcpy(row, xi, (size_t)d * sizeof(double));
                    row += d;
                }
                grad_point(p, xi, g);
                for (int64_t j = 0; j < d; j++) {
                    double y = xi[j] - g[j] * h;
                    xi[j] = y + random_standard_normal(gen) * sqrt2h;
                }
            }
            /* NaN and inf fail the comparison */
            int bad = 0;
            for (int64_t j = 0; j < d; j++)
                bad |= !(fabs(xi[j]) < DIVERGE_LIMIT);
            if (bad) {
                diverged[i] = step;
                for (int64_t j = 0; j < d; j++)
                    si[j] = xi[j] = NAN;
                break;
            }
        }
    }
}
