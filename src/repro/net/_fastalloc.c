/* Fabric reallocation: one native pass per flow event.
 *
 * Endpoint compression, progressive-filling max-min allocation and the
 * completion horizon, fused.  Bit-for-bit the same arithmetic as the
 * NumPy fallback (Fabric._assign_rates_numpy + FlowTable.horizon) and
 * the full-width progressive filling kept as the test oracle in
 * tests/oracles.py (see DESIGN.md section 8 for the equivalence
 * argument):
 *
 *   - every floating-point operation here is the identical IEEE-754
 *     double operation the NumPy reference applies elementwise, in the
 *     same per-element sequence;
 *   - the only reductions are minimums, which are order-independent at
 *     the bit level, so neither loop order nor channel numbering can
 *     perturb any intermediate;
 *   - all still-active flows share one accumulated water `level` (the
 *     fold ((0 + inc_1) + inc_2) + ... is exactly what the reference's
 *     rates[active] += inc performs elementwise), so a flow's final
 *     rate is the level at its freeze round;
 *   - a channel that carries no unfrozen flow is an exact no-op in the
 *     reference (its head only ever loses inc * 0 and its quotient
 *     drops out of the min), so each round visits only the channels
 *     that still carry one, and the channel set is compressed to the
 *     NIC directions that carry any flow at all.
 *
 * Compile with strict FP semantics only: no -ffast-math, and
 * -ffp-contract=off so no FMA contraction changes rounding.  The
 * loader (repro/sim/ckernel.py) passes those flags; the fabric falls
 * back to the NumPy path when no C toolchain is available.
 */

#include <math.h>
#include <stdint.h>

/* Assign max-min fair rates to the m flows of a fabric with n_nodes
 * nodes and return the time until the earliest completion (+inf when
 * no flow has a positive rate).
 *
 * src/dst/caps/remaining are the flow table's columns; every element
 * of `rate` is written.  NIC channel keys are tx = node and
 * rx = n_nodes + node.  Caller-owned scratch, reused across calls:
 *
 *   chmap  2 * n_nodes int64, every entry -1 on entry (and on return);
 *   iscr   7 * m int64;
 *   dscr   2 * m double.
 */
double repro_fabric_allocate(int64_t m, const int64_t *src,
                             const int64_t *dst, const double *caps,
                             const double *remaining, double *rate,
                             int64_t n_nodes, double nic_bw,
                             double bisection_bw, int64_t has_core,
                             int64_t *chmap, int64_t *iscr, double *dscr)
{
    int64_t *s = iscr;              /* compressed tx channel per flow */
    int64_t *d = iscr + m;          /* compressed rx channel per flow */
    int64_t *idx = iscr + 2 * m;    /* table row of each unfrozen flow */
    int64_t *cnt = iscr + 3 * m;    /* unfrozen flows per channel */
    int64_t *act = iscr + 5 * m;    /* channels with cnt > 0 */
    double *heads = dscr;           /* remaining capacity per channel */
    int64_t i, j, k, w, n_ch = 0, n_act, mc = m;
    int has_caps = 0;
    double nic_tol = 1e-7 * nic_bw;
    double level = 0.0, core_head = bisection_bw;
    double core_ref = 1e-7 * bisection_bw;
    double horizon = INFINITY;

    /* Number each channel in order of first use. */
    for (i = 0; i < m; i++) {
        int64_t key = src[i];
        if (chmap[key] < 0) {
            chmap[key] = n_ch;
            heads[n_ch] = nic_bw;
            cnt[n_ch++] = 0;
        }
        s[i] = chmap[key];
        key = n_nodes + dst[i];
        if (chmap[key] < 0) {
            chmap[key] = n_ch;
            heads[n_ch] = nic_bw;
            cnt[n_ch++] = 0;
        }
        d[i] = chmap[key];
        cnt[s[i]]++;
        cnt[d[i]]++;
        idx[i] = i;
        if (isfinite(caps[i]))
            has_caps = 1;
    }
    for (i = 0; i < m; i++) {
        chmap[src[i]] = -1;
        chmap[n_nodes + dst[i]] = -1;
    }
    for (k = 0; k < n_ch; k++)
        act[k] = k;
    n_act = n_ch;

    while (mc > 0) {
        double inc = INFINITY;
        int core_exhausted, frozen_any = 0;

        /* Water-level increment: min head/cnt over used channels, the
         * core share, and the smallest remaining cap margin. */
        for (j = 0; j < n_act; j++) {
            double q = heads[act[j]] / (double)cnt[act[j]];
            if (q < inc)
                inc = q;
        }
        if (has_core) {
            double t = core_head / (double)mc;
            if (t < inc)
                inc = t;
        }
        if (has_caps) {
            for (i = 0; i < mc; i++) {
                double mg = caps[idx[i]] - level;
                if (mg < inc)
                    inc = mg;
            }
        }
        if (!isfinite(inc) || inc < 0.0)
            inc = 0.0;
        level += inc;
        for (j = 0; j < n_act; j++)
            heads[act[j]] -= inc * (double)cnt[act[j]];
        if (has_core)
            core_head -= inc * (double)mc;
        core_exhausted = has_core && core_head <= core_ref;

        /* Freeze flows that hit their cap or a saturated channel, and
         * compact the survivors in place (write cursor w). */
        w = 0;
        for (i = 0; i < mc; i++) {
            double c = caps[idx[i]];
            if (core_exhausted
                    || (isfinite(c) && c - level <= 1e-7 * c + 1e-12)
                    || heads[s[i]] <= nic_tol
                    || heads[d[i]] <= nic_tol) {
                rate[idx[i]] = level;
                cnt[s[i]]--;
                cnt[d[i]]--;
                frozen_any = 1;
            } else {
                s[w] = s[i];
                d[w] = d[i];
                idx[w] = idx[i];
                w++;
            }
        }
        if (!frozen_any)
            break; /* no progress possible: freeze the rest as-is */
        mc = w;
        w = 0;
        for (j = 0; j < n_act; j++)
            if (cnt[act[j]] > 0)
                act[w++] = act[j];
        n_act = w;
    }
    /* Flows still active at exit keep the final water level. */
    for (i = 0; i < mc; i++)
        rate[idx[i]] = level;

    for (i = 0; i < m; i++) {
        if (rate[i] > 0.0) {
            double h = remaining[i] / rate[i];
            if (h < horizon)
                horizon = h;
        }
    }
    return horizon;
}
