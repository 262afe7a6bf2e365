/* Compiled chain loop for the Gaussian location potential.
 *
 * Steps each replicate through the same IEEE operations, in the same
 * order, as the numpy driver (sampler._drive) with the gradient
 * rho * (x - mean): the Kahan Cesaro update, K Euler substeps, then the
 * divergence test.  Noise comes from numpy's own random_standard_normal on
 * the replicate's Philox bitgen_t, the code Generator.standard_normal
 * runs, so the chain draws the same variates without a noise block.
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
 * were. */
void lmc_gaussian(bitgen_t **gens, int64_t m, int64_t d, double rho, const double *mean,
                  double h, double sqrt2h, int64_t k_sub, int64_t step0, int64_t todo,
                  double *x, double *ces, double *comp, int64_t *diverged,
                  double *states, int64_t states_stride)
{
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
                for (int64_t j = 0; j < d; j++) {
                    double hg = (rho * (xi[j] - mean[j])) * h;
                    double sz = random_standard_normal(gen) * sqrt2h;
                    double y = xi[j] - hg;
                    xi[j] = y + sz;
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
