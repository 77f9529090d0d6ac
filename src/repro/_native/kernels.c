/*
 * Native kernels for the two sample-rate loops of the reproduction.
 *
 * Both kernels are bit-exact ports of Python gold models that the test
 * suite compares them against:
 *
 *   ef_simulate   FastErrorFeedbackSimulator's scalar loop
 *                 (repro/dsm/modulator.py), four rows in lockstep;
 *   cic_decimate  HogenauerDecimator's vectorized engine from cleared
 *                 state (repro/filters/hogenauer.py), one row after another.
 *
 * The loader compiles this file with -ffp-contract=off and without
 * -ffast-math: every floating-point expression below must round exactly
 * like the Python expression it mirrors, so no multiply-add may be fused
 * and no operation reassociated.
 */

#include <math.h>
#include <stdint.h>

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
