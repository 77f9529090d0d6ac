/*
 * Native kernels for the two sample-rate loops of the reproduction.
 *
 * Both kernels are bit-exact ports of Python gold models that the test
 * suite compares them against:
 *
 *   ef_simulate   FastErrorFeedbackSimulator's scalar loop
 *                 (repro/dsm/modulator.py), one row after another;
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

/*
 * Error-feedback delta-sigma loop with the filter 1 - NTF in transposed
 * direct form II.  u, output, quantizer_input and codes are (batch, n)
 * row-major; num and den hold order + 1 coefficients (num[0] == 0);
 * states is scratch space for order doubles.
 *
 * Returns -1 on success, or the index of the first row whose quantizer
 * input left the finite range (the Python loop raises OverflowError there).
 */
int64_t ef_simulate(const double *u, int64_t batch, int64_t n,
                    const double *num, const double *den, int64_t order,
                    double full_scale, double step, double top_code,
                    double limit, double *states, double *output,
                    double *quantizer_input, int64_t *codes,
                    unsigned char *stable)
{
    for (int64_t b = 0; b < batch; ++b) {
        const double *u_row = u + b * n;
        double *out_row = output + b * n;
        double *y_row = quantizer_input + b * n;
        int64_t *code_row = codes + b * n;
        int unstable = 0;
        for (int64_t j = 0; j < order; ++j)
            states[j] = 0.0;
        for (int64_t i = 0; i < n; ++i) {
            double feedback = states[0];
            double y = u_row[i] - feedback;
            double scaled = (y + full_scale) / step;
            if (!isfinite(scaled))
                return b;
            double code = nearbyint(scaled);  /* round half to even */
            if (code < 0.0)
                code = 0.0;
            else if (code > top_code)
                code = top_code;
            double v = code * step - full_scale;
            double e = v - y;
            for (int64_t j = 0; j < order - 1; ++j)
                states[j] = num[j + 1] * e + states[j + 1]
                            - den[j + 1] * feedback;
            states[order - 1] = num[order] * e - den[order] * feedback;
            out_row[i] = v;
            y_row[i] = y;
            code_row[i] = (int64_t)code;
            if (y > limit || y < -limit)
                unstable = 1;
        }
        stable[b] = (unsigned char)!unstable;
    }
    return -1;
}

/*
 * One row of the Sinc^order decimate-by-m Hogenauer structure from cleared
 * registers: order wrap-around uint64 integrators, every m-th sample kept,
 * order combs, then a two's-complement wrap to width bits.
 */
static inline __attribute__((always_inline)) void
cic_row(const int64_t *x, int64_t n_out, int64_t order, int64_t m,
        int64_t width, uint64_t *integrators, uint64_t *combs, int64_t *out)
{
    const uint64_t mask = ((uint64_t)1 << width) - 1;
    const uint64_t sign = (uint64_t)1 << (width - 1);
    const int64_t modulus = (int64_t)1 << width;
    for (int64_t k = 0; k < order; ++k)
        integrators[k] = combs[k] = 0;
    for (int64_t j = 0; j < n_out; ++j) {
        uint64_t value = 0;
        for (int64_t p = 0; p < m; ++p) {
            value = (uint64_t)*x++;
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
 * cic_row over (batch, n) int64 rows into (batch, n / m) words, width <= 62.
 * Orders up to 8 are specialized so their registers live in CPU registers;
 * larger orders use registers, scratch space for 2 * order words.
 */
void cic_decimate(const int64_t *x, int64_t batch, int64_t n, int64_t order,
                  int64_t m, int64_t width, uint64_t *registers,
                  int64_t *out)
{
    const int64_t n_out = n / m;
    for (int64_t b = 0; b < batch; ++b) {
        const int64_t *x_row = x + b * n;
        int64_t *out_row = out + b * n_out;
        switch (order) {
#define CIC_FIXED_ORDER(K)                                                   \
        case K: {                                                            \
            uint64_t fixed[2 * K];                                           \
            cic_row(x_row, n_out, K, m, width, fixed, fixed + K, out_row);   \
            break;                                                           \
        }
        CIC_FIXED_ORDER(1) CIC_FIXED_ORDER(2) CIC_FIXED_ORDER(3)
        CIC_FIXED_ORDER(4) CIC_FIXED_ORDER(5) CIC_FIXED_ORDER(6)
        CIC_FIXED_ORDER(7) CIC_FIXED_ORDER(8)
#undef CIC_FIXED_ORDER
        default:
            cic_row(x_row, n_out, order, m, width, registers,
                    registers + order, out_row);
        }
    }
}
