/* Progressive-filling max-min allocator: C hot loop.
 *
 * Bit-for-bit the same arithmetic as the full-width NumPy progressive
 * filling kept as the test oracle in tests/oracles.py (see DESIGN.md
 * section 8 for the equivalence argument):
 *
 *   - every floating-point operation here is the identical IEEE-754
 *     double operation the NumPy reference applies elementwise, in the
 *     same per-element sequence;
 *   - the only reductions are minimums, which are order-independent at
 *     the bit level, so loop order cannot perturb any intermediate;
 *   - all still-active flows share one accumulated water `level` (the
 *     fold ((0 + inc_1) + inc_2) + ... is exactly what the reference's
 *     rates[active] += inc performs elementwise), so a flow's final
 *     rate is the level at its freeze round.
 *
 * Compile with strict FP semantics only: no -ffast-math, and
 * -ffp-contract=off so no FMA contraction changes rounding.  The
 * loader (repro/sim/ckernel.py) passes those flags; the engine falls
 * back to the pure-NumPy fast path when no C toolchain is available.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Assign max-min fair rates to m flows across 2*n_nodes NIC channels
 * (tx slots 0..n-1, rx slots n..2n-1).  Writes every element of
 * out_rates.  Returns 0 on success, -1 on allocation failure (caller
 * falls back to the NumPy path).
 */
int64_t repro_assign_rates(int64_t n_nodes, int64_t m,
                           const int64_t *src, const int64_t *dst,
                           const double *caps, double nic_bw,
                           double bisection_bw, int64_t has_core,
                           double *out_rates)
{
    int64_t nn2 = 2 * n_nodes;
    double *heads = malloc((size_t)nn2 * sizeof(double));
    int64_t *cnt = malloc((size_t)nn2 * sizeof(int64_t));
    int64_t *s = malloc((size_t)m * sizeof(int64_t));
    int64_t *d = malloc((size_t)m * sizeof(int64_t));
    int64_t *idx = malloc((size_t)m * sizeof(int64_t));
    double *c = malloc((size_t)m * sizeof(double));
    double *ctol = malloc((size_t)m * sizeof(double));
    char *fin = malloc((size_t)m);
    int64_t i, ch, mc, w;
    double nic_tol, level, core_head, core_ref;

    if (!heads || !cnt || !s || !d || !idx || !c || !ctol || !fin) {
        free(heads); free(cnt); free(s); free(d);
        free(idx); free(c); free(ctol); free(fin);
        return -1;
    }

    for (ch = 0; ch < nn2; ch++)
        heads[ch] = nic_bw;
    for (i = 0; i < m; i++) {
        s[i] = src[i];
        d[i] = n_nodes + dst[i];
        idx[i] = i;
        c[i] = caps[i];
        fin[i] = (char)isfinite(caps[i]);
        /* Matches np.where(finite, 1e-7 * caps + 1e-12, 0.0). */
        ctol[i] = fin[i] ? 1e-7 * caps[i] + 1e-12 : 0.0;
    }
    nic_tol = 1e-7 * nic_bw;
    level = 0.0;
    core_head = bisection_bw;
    /* Matches 1e-7 * (bisection_bw or 1.0): Python `or` treats 0.0 as
     * falsy. */
    core_ref = 1e-7 * (bisection_bw != 0.0 ? bisection_bw : 1.0);
    mc = m;

    while (mc > 0) {
        double inc = INFINITY, mm = INFINITY;
        int core_exhausted;
        int64_t frozen_any = 0;

        memset(cnt, 0, (size_t)nn2 * sizeof(int64_t));
        for (i = 0; i < mc; i++) {
            cnt[s[i]]++;
            cnt[d[i]]++;
        }
        /* Water-level increment: min head/cnt over used channels, the
         * core share, and the smallest remaining cap margin. */
        for (ch = 0; ch < nn2; ch++) {
            if (cnt[ch] > 0) {
                double q = heads[ch] / (double)cnt[ch];
                if (q < inc)
                    inc = q;
            }
        }
        if (has_core) {
            double t = core_head / (double)mc;
            if (t < inc)
                inc = t;
        }
        for (i = 0; i < mc; i++) {
            double mg = c[i] - level;
            if (mg < mm)
                mm = mg;
        }
        if (mm < inc)
            inc = mm;
        if (!isfinite(inc) || inc < 0.0)
            inc = 0.0;
        level += inc;
        for (ch = 0; ch < nn2; ch++)
            heads[ch] -= inc * (double)cnt[ch];
        if (has_core)
            core_head -= inc * (double)mc;
        core_exhausted = has_core && core_head <= core_ref;

        /* Freeze flows that hit their cap or a saturated channel, and
         * compact the survivors in place (write cursor w). */
        w = 0;
        for (i = 0; i < mc; i++) {
            int fr;
            if (core_exhausted) {
                fr = 1;
            } else {
                fr = (fin[i] && c[i] - level <= ctol[i])
                    || heads[s[i]] <= nic_tol
                    || heads[d[i]] <= nic_tol;
            }
            if (fr) {
                out_rates[idx[i]] = level;
                frozen_any = 1;
            } else {
                s[w] = s[i];
                d[w] = d[i];
                idx[w] = idx[i];
                c[w] = c[i];
                ctol[w] = ctol[i];
                fin[w] = fin[i];
                w++;
            }
        }
        if (!frozen_any)
            break; /* no progress possible: freeze the rest as-is */
        mc = w;
    }
    /* Flows still active at exit keep the final water level. */
    for (i = 0; i < mc; i++)
        out_rates[idx[i]] = level;

    free(heads); free(cnt); free(s); free(d);
    free(idx); free(c); free(ctol); free(fin);
    return 0;
}
