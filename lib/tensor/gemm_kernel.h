/* One build of the GEMM micro-kernel, included once per build by
   kernel_stubs.c, which defines before each inclusion:

     LANES   doubles per vector (2 or 4); tiles are 4 x (2 * LANES)
     BUILD   the build's name; the kernel is gemm_<BUILD>, and every
             helper is prefixed with that name
     TARGET  the function attribute that selects the instruction set

   KERNEL(P, Q, out, k, pr, pl, qs, r0, r1, c0, c1, sr, sc) stores
   x(r, c) = sum over l of P[r*pr + l*pl] * Q[l*qs + c] at out[r*sr + c*sc]
   for r in [r0, r1), c in [c0, c1), and returns whether it stored a NaN.
   Each vector lane is one output element and accumulates (p * q) + acc
   over ascending l from +0: rows are covered by 4-, 2- and 1-row tiles,
   columns by 2-vector and 1-vector tiles, and the last LANES - 1 columns
   at most by the same chain one element at a time. */

#define GEMM_CAT_(a, b) a##b
#define GEMM_CAT(a, b) GEMM_CAT_(a, b)
#define KERNEL GEMM_CAT(gemm_, BUILD)
#define GEMM_V GEMM_CAT(KERNEL, _v)
#define GEMM_VU GEMM_CAT(KERNEL, _vu)
#define GEMM_DOT GEMM_CAT(KERNEL, _dot)
#define GEMM_TILE GEMM_CAT(KERNEL, _tile)
#define GEMM_ROWS GEMM_CAT(KERNEL, _rows)

typedef double GEMM_V __attribute__((vector_size(8 * LANES)));
typedef double GEMM_VU __attribute__((vector_size(8 * LANES), aligned(8)));

TARGET static double GEMM_DOT(const double *p, intnat pl, const double *q,
                              intnat qs, intnat k)
{
  double acc = 0.0;
  for (intnat l = 0; l < k; l++) acc = p[l * pl] * q[l * qs] + acc;
  return acc;
}

/* Rows [r, r + R) x columns [c, c + NV * LANES); R and NV are constants
   at every call site, so the loops unroll and acc stays in registers. */
TARGET static inline __attribute__((always_inline)) int
GEMM_TILE(const double *P, const double *Q, double *out, intnat k,
          intnat pr, intnat pl, intnat qs, intnat r, intnat c, intnat sr,
          intnat sc, const int R, const int NV)
{
  GEMM_V acc[4][2] = {{{0.0}}};
  for (intnat l = 0; l < k; l++) {
    const double *p = P + r * pr + l * pl, *q = Q + l * qs + c;
    GEMM_V y[2];
    for (int v = 0; v < NV; v++) y[v] = *(const GEMM_VU *)(q + v * LANES);
    for (int i = 0; i < R; i++) {
      double s = p[i * pr];
#if LANES == 2
      GEMM_V x = {s, s};
#else
      GEMM_V x = {s, s, s, s};
#endif
      for (int v = 0; v < NV; v++) acc[i][v] = x * y[v] + acc[i][v];
    }
  }
  int nan = 0;
  for (int i = 0; i < R; i++)
    for (int v = 0; v < NV; v++) {
      double *o = out + (r + i) * sr + (c + v * LANES) * sc;
      if (sc == 1)
        *(GEMM_VU *)o = acc[i][v];
      else
        for (int j = 0; j < LANES; j++) o[j * sc] = acc[i][v][j];
      for (int j = 0; j < LANES; j++) nan |= acc[i][v][j] != acc[i][v][j];
    }
  return nan;
}

/* Rows [r, r + R) across every column. */
TARGET static inline __attribute__((always_inline)) int
GEMM_ROWS(const double *P, const double *Q, double *out, intnat k,
          intnat pr, intnat pl, intnat qs, intnat r, intnat c0, intnat c1,
          intnat sr, intnat sc, const int R)
{
  int nan = 0;
  intnat c = c0;
  for (; c + 2 * LANES <= c1; c += 2 * LANES)
    nan |= GEMM_TILE(P, Q, out, k, pr, pl, qs, r, c, sr, sc, R, 2);
  if (c + LANES <= c1) {
    nan |= GEMM_TILE(P, Q, out, k, pr, pl, qs, r, c, sr, sc, R, 1);
    c += LANES;
  }
  for (; c < c1; c++)
    for (int i = 0; i < R; i++) {
      double x = GEMM_DOT(P + (r + i) * pr, pl, Q + c, qs, k);
      out[(r + i) * sr + c * sc] = x;
      nan |= x != x;
    }
  return nan;
}

TARGET static int KERNEL(const double *P, const double *Q, double *out,
                         intnat k, intnat pr, intnat pl, intnat qs,
                         intnat r0, intnat r1, intnat c0, intnat c1,
                         intnat sr, intnat sc)
{
  int nan = 0;
  intnat r = r0;
  for (; r + 4 <= r1; r += 4)
    nan |= GEMM_ROWS(P, Q, out, k, pr, pl, qs, r, c0, c1, sr, sc, 4);
  if (r + 2 <= r1) {
    nan |= GEMM_ROWS(P, Q, out, k, pr, pl, qs, r, c0, c1, sr, sc, 2);
    r += 2;
  }
  if (r < r1) nan |= GEMM_ROWS(P, Q, out, k, pr, pl, qs, r, c0, c1, sr, sc, 1);
  return nan;
}

#undef GEMM_V
#undef GEMM_VU
#undef GEMM_DOT
#undef GEMM_TILE
#undef GEMM_ROWS
#undef KERNEL
