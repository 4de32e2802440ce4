/* The SIMD micro-kernel behind Tensor.Into.matmul's blocked path.

   Computes x(r, c) = sum over l of p(r, l) * q(l, c) for r in [r0, r1)
   and c in [c0, c1), where p(r, l) = P[r*pr + l*pl], q(l, c) =
   Q[l*qs + c] (unit stride along c), and stores x(r, c) at
   out[r*sr + c*sc]. 4x4 tiles keep eight 2-lane accumulators; edges run
   the same chain one element at a time.

   Each vector lane is one output element: it accumulates (p * q) + acc
   over ascending l from +0, exactly the scalar chain, so the result does
   not depend on the vector width. The GCC/Clang vector extension compiles
   to SSE2 on x86-64 and to NEON on arm64 with no -m flag; the library is
   built with -ffp-contract=off so no multiply-add is fused. The caller
   only takes this path when no operand NaN can reach an add (tensor.ml),
   so the compiler's freedom to commute the add cannot change a NaN
   payload. */

#include <caml/mlvalues.h>

typedef double v2 __attribute__((vector_size(16)));
typedef double v2u __attribute__((vector_size(16), aligned(8)));

static double dot(const double *p, intnat pl, const double *q, intnat qs,
                  intnat k)
{
  double acc = 0.0;
  for (intnat l = 0; l < k; l++) acc = p[l * pl] * q[l * qs] + acc;
  return acc;
}

value echo_gemm(value vp, value vq, value vout, intnat k, intnat pr,
                intnat pl, intnat qs, intnat r0, intnat r1, intnat c0,
                intnat c1, intnat sr, intnat sc)
{
  const double *P = (const double *)vp, *Q = (const double *)vq;
  double *out = (double *)vout;
  intnat r = r0;
  for (; r + 4 <= r1; r += 4) {
    intnat c = c0;
    for (; c + 4 <= c1; c += 4) {
      v2 acc[4][2] = {{{0.0, 0.0}}};
      for (intnat l = 0; l < k; l++) {
        const double *p = P + r * pr + l * pl, *q = Q + l * qs + c;
        v2 y0 = *(const v2u *)q, y1 = *(const v2u *)(q + 2);
        for (int i = 0; i < 4; i++) {
          v2 x = {p[i * pr], p[i * pr]};
          acc[i][0] = x * y0 + acc[i][0];
          acc[i][1] = x * y1 + acc[i][1];
        }
      }
      for (int i = 0; i < 4; i++)
        for (int j = 0; j < 4; j++)
          out[(r + i) * sr + (c + j) * sc] = acc[i][j / 2][j % 2];
    }
    for (; c < c1; c++)
      for (int i = 0; i < 4; i++)
        out[(r + i) * sr + c * sc] = dot(P + (r + i) * pr, pl, Q + c, qs, k);
  }
  for (; r < r1; r++)
    for (intnat c = c0; c < c1; c++)
      out[r * sr + c * sc] = dot(P + r * pr, pl, Q + c, qs, k);
  return Val_unit;
}

value echo_gemm_byte(value *argv, int argc)
{
  (void)argc;
  return echo_gemm(argv[0], argv[1], argv[2], Long_val(argv[3]),
                   Long_val(argv[4]), Long_val(argv[5]), Long_val(argv[6]),
                   Long_val(argv[7]), Long_val(argv[8]), Long_val(argv[9]),
                   Long_val(argv[10]), Long_val(argv[11]), Long_val(argv[12]));
}
