/*
 * Native kernels for the two sample-rate loops of the reproduction and
 * for the halfband CSD search of a design miss.
 *
 * All three kernels are bit-exact ports of Python gold models that the
 * test suite compares them against:
 *
 *   ef_simulate   FastErrorFeedbackSimulator's scalar loop
 *                 (repro/dsm/modulator.py), four rows in lockstep;
 *   cic_decimate  HogenauerDecimator's vectorized engine from cleared
 *                 state (repro/filters/hogenauer.py), one row after another;
 *   csd_search    the trials of SaramakiHalfbandDesigner's CSD search
 *                 (repro/filters/halfband.py) up to the first one that
 *                 reaches the full stopband grid.
 *
 * The loader compiles this file with -ffp-contract=off and without
 * -ffast-math: every floating-point expression below must round exactly
 * like the Python expression it mirrors, so no multiply-add may be fused
 * and no operation reassociated.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* Rows the modulator kernel runs in lockstep. */
#define EF_LANES 4

/*
 * lanes rows of the error-feedback delta-sigma loop with the filter
 * 1 - NTF in transposed direct form II, in lockstep: each sample of every
 * lane runs the scalar loop's expressions in its order, so a lane's bits
 * do not depend on its neighbours; interleaving only lets the lanes'
 * divide/round/update chains overlap.  u, output, quantizer_input and
 * codes start at the first of lanes rows of length n; output and
 * quantizer_input may be NULL, and are then not written.  states holds
 * lanes * order doubles (lane l's filter at states + l * order).
 *
 * Returns 0, or 1 as soon as the quantizer input of any lane leaves the
 * finite range; the code of a non-finite input is never computed.
 */
static inline __attribute__((always_inline)) int
ef_rows(const double *u, int64_t n, int64_t lanes, int64_t order,
        const double *num, const double *den, double full_scale,
        double step, double top_code, double limit, double *states,
        double *output, double *quantizer_input, int64_t *codes,
        unsigned char *stable)
{
    int unstable[EF_LANES] = {0};
    for (int64_t k = 0; k < lanes * order; ++k)
        states[k] = 0.0;
    for (int64_t i = 0; i < n; ++i) {
        double feedback[EF_LANES], y[EF_LANES], scaled[EF_LANES];
        int finite = 1;
#pragma GCC unroll 4
        for (int64_t l = 0; l < lanes; ++l) {
            feedback[l] = states[l * order];
            y[l] = u[l * n + i] - feedback[l];
            scaled[l] = (y[l] + full_scale) / step;
            finite &= isfinite(scaled[l]);
        }
        if (!finite)
            return 1;
#pragma GCC unroll 4
        for (int64_t l = 0; l < lanes; ++l) {
            double *s = states + l * order;
            double code = nearbyint(scaled[l]);  /* round half to even */
            if (code < 0.0)
                code = 0.0;
            else if (code > top_code)
                code = top_code;
            double v = code * step - full_scale;
            double e = v - y[l];
#pragma GCC unroll 8
            for (int64_t j = 0; j < order - 1; ++j)
                s[j] = num[j + 1] * e + s[j + 1] - den[j + 1] * feedback[l];
            s[order - 1] = num[order] * e - den[order] * feedback[l];
            if (output) {
                output[l * n + i] = v;
                quantizer_input[l * n + i] = y[l];
            }
            codes[l * n + i] = (int64_t)code;
            if (y[l] > limit || y[l] < -limit)
                unstable[l] = 1;
        }
    }
    for (int64_t l = 0; l < lanes; ++l)
        stable[l] = (unsigned char)!unstable[l];
    return 0;
}

/*
 * ef_rows over lanes rows starting at row b: EF_LANES rows for orders up
 * to 8, else one.  The lockstep groups are specialized per order so the
 * filter states live in CPU registers.  A single row (a batch's remainder
 * or a batch of one) runs the generic loop in states, scratch space for
 * order doubles: it has no lanes to overlap, and a specialization is
 * barely faster there but lengthens the build.
 */
static int ef_group(const double *u, int64_t b, int64_t lanes, int64_t n,
                    const double *num, const double *den, int64_t order,
                    double full_scale, double step, double top_code,
                    double limit, double *states, double *output,
                    double *quantizer_input, int64_t *codes,
                    unsigned char *stable)
{
    u += b * n;
    codes += b * n;
    stable += b;
    if (output) {
        output += b * n;
        quantizer_input += b * n;
    }
    if (lanes == EF_LANES) {
        switch (order) {
#define EF_FIXED_ORDER(K)                                                    \
        case K: {                                                            \
            double fixed[EF_LANES * K];                                      \
            return ef_rows(u, n, EF_LANES, K, num, den, full_scale, step,    \
                           top_code, limit, fixed, output, quantizer_input,  \
                           codes, stable);                                   \
        }
        EF_FIXED_ORDER(1) EF_FIXED_ORDER(2) EF_FIXED_ORDER(3)
        EF_FIXED_ORDER(4) EF_FIXED_ORDER(5) EF_FIXED_ORDER(6)
        EF_FIXED_ORDER(7) EF_FIXED_ORDER(8)
#undef EF_FIXED_ORDER
        }
    }
    return ef_rows(u, n, 1, order, num, den, full_scale, step, top_code,
                   limit, states, output, quantizer_input, codes, stable);
}

/*
 * FastErrorFeedbackSimulator's scalar loop over (batch, n) row-major rows,
 * EF_LANES rows at a time for orders up to 8 and the remaining rows one
 * at a time.  num and den hold order + 1 coefficients (num[0] == 0);
 * states is scratch space for order doubles.  codes and stable are always
 * written; output and quantizer_input only when they are not NULL.
 *
 * Returns -1 on success, or the index of the first row, in row order,
 * whose quantizer input left the finite range (the Python loop raises
 * OverflowError there).  A lockstep group that fails is rerun one row at
 * a time, because a later lane may diverge earlier in time than an
 * earlier row does.
 */
int64_t ef_simulate(const double *u, int64_t batch, int64_t n,
                    const double *num, const double *den, int64_t order,
                    double full_scale, double step, double top_code,
                    double limit, double *states, double *output,
                    double *quantizer_input, int64_t *codes,
                    unsigned char *stable)
{
    for (int64_t b = 0; b < batch;) {
        int64_t lanes = order <= 8 && batch - b >= EF_LANES ? EF_LANES : 1;
        if (ef_group(u, b, lanes, n, num, den, order, full_scale, step,
                     top_code, limit, states, output, quantizer_input, codes,
                     stable)) {
            for (int64_t row = b; row < b + lanes; ++row)
                if (ef_group(u, row, 1, n, num, den, order, full_scale, step,
                             top_code, limit, states, output,
                             quantizer_input, codes, stable))
                    return row;
        }
        b += lanes;
    }
    return -1;
}

/*
 * One row of the Sinc^order decimate-by-m Hogenauer structure from cleared
 * registers: order wrap-around uint64 integrators fed x - offset, every
 * m-th sample kept, order combs, then a two's-complement wrap to width bits.
 */
static inline __attribute__((always_inline)) void
cic_row(const int64_t *x, uint64_t offset, int64_t n_out, int64_t order,
        int64_t m, int64_t width, uint64_t *integrators, uint64_t *combs,
        int64_t *out)
{
    const uint64_t mask = ((uint64_t)1 << width) - 1;
    const uint64_t sign = (uint64_t)1 << (width - 1);
    const int64_t modulus = (int64_t)1 << width;
    for (int64_t k = 0; k < order; ++k)
        integrators[k] = combs[k] = 0;
    for (int64_t j = 0; j < n_out; ++j) {
        uint64_t value = 0;
        for (int64_t p = 0; p < m; ++p) {
            value = (uint64_t)*x++ - offset;
#pragma GCC unroll 8
            for (int64_t k = 0; k < order; ++k) {
                integrators[k] += value;
                value = integrators[k];
            }
        }
#pragma GCC unroll 8
        for (int64_t k = 0; k < order; ++k) {
            uint64_t difference = value - combs[k];
            combs[k] = value;
            value = difference;
        }
        value &= mask;
        out[j] = value >= sign ? (int64_t)value - modulus : (int64_t)value;
    }
}

/*
 * cic_row over (batch, n) int64 rows into (batch, n / m) words, width <= 62,
 * subtracting offset from every sample (modulo 2^64) as it is read.
 * Orders up to 8 are specialized so their registers live in CPU registers;
 * larger orders use registers, scratch space for 2 * order words.
 */
void cic_decimate(const int64_t *x, uint64_t offset, int64_t batch, int64_t n,
                  int64_t order, int64_t m, int64_t width,
                  uint64_t *registers, int64_t *out)
{
    const int64_t n_out = n / m;
    for (int64_t b = 0; b < batch; ++b) {
        const int64_t *x_row = x + b * n;
        int64_t *out_row = out + b * n_out;
        switch (order) {
#define CIC_FIXED_ORDER(K)                                                   \
        case K: {                                                            \
            uint64_t fixed[2 * K];                                           \
            cic_row(x_row, offset, n_out, K, m, width, fixed,                \
                    fixed + K, out_row);                                     \
            break;                                                           \
        }
        CIC_FIXED_ORDER(1) CIC_FIXED_ORDER(2) CIC_FIXED_ORDER(3)
        CIC_FIXED_ORDER(4) CIC_FIXED_ORDER(5) CIC_FIXED_ORDER(6)
        CIC_FIXED_ORDER(7) CIC_FIXED_ORDER(8)
#undef CIC_FIXED_ORDER
        default:
            cic_row(x_row, offset, n_out, order, m, width,
                    registers, registers + order, out_row);
        }
    }
}

/*
 * to_csd(value, bits, max_nonzero).value (repro/fixedpoint/csd.py):
 * round value * 2^bits half to even, recode the integer in non-adjacent
 * form, keep the max_nonzero most significant digits (all of them when
 * max_nonzero < 0) and sum them most significant first, as the Python
 * sum does.  Writes the value to *out and returns 0, or returns 1 when
 * bits is outside 0..1023, the rounded value is not a finite integer
 * below 2^62 in magnitude or the kept digits do not sum exactly in a
 * double.
 */
static int csd_value(double value, int64_t bits, int64_t max_nonzero,
                     double *out)
{
    if (bits < 0 || bits > 1023)
        return 1;
    double scaled = nearbyint(value * ldexp(1.0, (int)bits));
    if (!(fabs(scaled) < 0x1p62))
        return 1;
    double sign = scaled < 0.0 ? -1.0 : 1.0;
    uint64_t n = (uint64_t)fabs(scaled);
    int64_t weights[64];
    double signs[64];
    int64_t count = 0;
    for (int64_t weight = 0; n != 0; ++weight, n >>= 1) {
        if (n & 1) {
            weights[count] = weight;
            signs[count++] = n & 2 ? -sign : sign;
            if (n & 2)
                n += 1;
            else
                n -= 1;
        }
    }
    int64_t first = max_nonzero >= 0 && count > max_nonzero
        ? count - max_nonzero : 0;
    /* Beyond 53 bits of span (or below the normal range) the sum rounds,
     * and Python's sum rounds differently from version to version. */
    if (count > first && (weights[count - 1] - weights[first] > 52
                          || weights[first] - bits < -1022))
        return 1;
    double total = 0.0;
    for (int64_t k = count - 1; k >= first; --k)
        total += signs[k] * ldexp(1.0, (int)(weights[k] - bits));
    *out = total;
    return 0;
}

/*
 * |1/2 + sum_i f1[i] * F2^(2i+1)| at grid column c of basis, the rows
 * cos((2j+1)w) of n_points columns: _cascade_response in
 * repro/filters/halfband.py, one column, in numpy's operation order.
 */
static inline double cascade_magnitude(const double *f1, int64_t n1,
                                       const double *f2, int64_t n2,
                                       const double *basis, int64_t n_points,
                                       int64_t c)
{
    double f2_resp = 0.0;
    for (int64_t j = 0; j < n2; ++j)
        f2_resp += (2.0 * f2[j]) * basis[j * n_points + c];
    double h = 0.5;
    double f2_sq = f2_resp * f2_resp;
    double power = f2_resp;
    h += f1[0] * power;
    for (int64_t i = 1; i < n1; ++i) {
        power = power * f2_sq;
        h += f1[i] * power;
    }
    return fabs(h);
}

/* Two doubles: vector arithmetic is elementwise, each lane rounds like
 * the scalar expression. */
typedef double f64x2 __attribute__((vector_size(2 * sizeof(double))));

/*
 * cascade_magnitude at every column, two columns at a time: each lane
 * accumulates its sub-filter response over j in numpy's order.
 */
static void cascade_magnitudes(const double *f1, int64_t n1, const double *f2,
                               int64_t n2, const double *basis,
                               int64_t n_points, double *out)
{
    int64_t pairs = n_points / 2;
    for (int64_t p = 0; p < pairs; ++p) {
        f64x2 f2_resp = {0.0, 0.0};
        for (int64_t j = 0; j < n2; ++j) {
            f64x2 column;
            memcpy(&column, basis + j * n_points + 2 * p, sizeof column);
            f2_resp += (2.0 * f2[j]) * column;
        }
        f64x2 h = {0.5, 0.5};
        f64x2 f2_sq = f2_resp * f2_resp;
        f64x2 power = f2_resp;
        h += f1[0] * power;
        for (int64_t i = 1; i < n1; ++i) {
            power = power * f2_sq;
            h += f1[i] * power;
        }
        out[2 * p] = fabs(h[0]);
        out[2 * p + 1] = fabs(h[1]);
    }
    if (n_points % 2)
        out[n_points - 1] = cascade_magnitude(f1, n1, f2, n2, basis, n_points,
                                              n_points - 1);
}

/*
 * The halfband CSD search's fast-forward (SaramakiHalfbandDesigner in
 * repro/filters/halfband.py).  current holds the n1 + n2 quantized
 * coefficients, f1 then f2; trial t moves coefficient move_index[t] by
 * move_step[t] and re-quantizes it.  From trial start on, skips every
 * trial that re-quantizes onto the current value or whose magnitude at
 * one of the n_probe probe columns is >= threshold, and stops at the
 * first other trial: its magnitude on the whole grid is written to
 * magnitude.  trial holds n1 + n2 doubles of scratch space.
 *
 * Returns the index of that trial, stop when every trial up to stop is
 * skipped, or -1 when a value cannot be quantized here (csd_value).
 */
int64_t csd_search(const double *current, int64_t n1, int64_t n2,
                   const int64_t *move_index, const double *move_step,
                   int64_t start, int64_t stop, int64_t bits,
                   int64_t max_nonzero, const double *basis,
                   int64_t n_points, const int64_t *probe, int64_t n_probe,
                   double threshold, double *magnitude, double *trial)
{
    for (int64_t k = 0; k < n1 + n2; ++k)
        trial[k] = current[k];
    for (int64_t t = start; t < stop; ++t) {
        int64_t k = move_index[t];
        double moved;
        if (csd_value(current[k] + move_step[t], bits, max_nonzero, &moved))
            return -1;
        if (moved == current[k])
            continue;
        trial[k] = moved;
        int rejected = 0;
        for (int64_t p = 0; p < n_probe && !rejected; ++p)
            rejected = cascade_magnitude(trial, n1, trial + n1, n2, basis,
                                         n_points, probe[p]) >= threshold;
        if (!rejected) {
            cascade_magnitudes(trial, n1, trial + n1, n2, basis, n_points,
                               magnitude);
            return t;
        }
        trial[k] = current[k];
    }
    return stop;
}
