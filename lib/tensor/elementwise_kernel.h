/* One build of the elementwise kernels, included once per build by
   kernel_stubs.c after gemm_kernel.h, under the same macros:

     LANES   doubles per vector (2 or 4)
     BUILD   the build's name; every function is suffixed with it
     TARGET  the function attribute that selects the instruction set

   EW_STEP(op, c, a, o, d, n) stores d[i] = a[i] op o[i] (binary ops) or
   op(a[i]) with constant c (unary ops) for i in [0, n);
   EW_REDUCE(s, out, d, inner, lo, hi) sums an [outer x d x inner] tensor
   over its middle axis for outer blocks [lo, hi).

   Every element is computed as the OCaml scalar expression it replaces
   (written beside each op), with no fused multiply-add. Two things keep
   the bits equal to that expression:

   - Loads and stores are explicit vector accesses in index order, one
     vector at a time, so d may equal a or o (in-place transfers): each
     lane is read before it is written.
   - The C compiler may commute a vector add or multiply, and where both
     operands are NaN the hardware keeps the first operand's payload. So a
     binary result is resolved lane by lane before the store: where the
     OCaml expression's first operand is a NaN, the result is that NaN,
     quieted (EW_FIRST). Where only the other operand is a NaN, or neither
     is, the result does not depend on operand order. */

#define EW_CAT_(a, b) a##b
#define EW_CAT(a, b) EW_CAT_(a, b)
#define EW_V EW_CAT(ew_v_, BUILD)
#define EW_VU EW_CAT(ew_vu_, BUILD)
#define EW_VI EW_CAT(ew_vi_, BUILD)
#define EW_FIRST EW_CAT(ew_first_, BUILD)
#define EW_SPLAT EW_CAT(ew_splat_, BUILD)
#define EW_STEP EW_CAT(ew_step_, BUILD)
#define EW_REDUCE EW_CAT(ew_reduce_, BUILD)

typedef double EW_V __attribute__((vector_size(8 * LANES)));
typedef double EW_VU __attribute__((vector_size(8 * LANES), aligned(8)));
typedef long long EW_VI __attribute__((vector_size(8 * LANES)));

#define EW_LOAD(p) (*(const EW_VU *)(p))
#define EW_STORE(p, v) (*(EW_VU *)(p) = (v))

TARGET static inline __attribute__((always_inline)) EW_V EW_SPLAT(double s)
{
#if LANES == 2
  EW_V v = {s, s};
#else
  EW_V v = {s, s, s, s};
#endif
  return v;
}

/* r, except in the lanes where x is a NaN: there x, quieted. */
TARGET static inline __attribute__((always_inline)) EW_V EW_FIRST(EW_V x,
                                                                  EW_V r)
{
  EW_VI nan = (EW_VI)(x != x);
  EW_VI quiet = (EW_VI)x | EW_QUIET;
  return (EW_V)((nan & quiet) | (~nan & (EW_VI)r));
}

/* d[i] = EXPR over [0, n): VEXPR on whole vectors, then SEXPR on the
   scalars of the tail, with x = a[i..] (and y = o[i..] in EW_MAP2). */
#define EW_MAP1(VEXPR, SEXPR)                                              \
  do {                                                                     \
    for (; i + LANES <= n; i += LANES) {                                   \
      EW_V x = EW_LOAD(a + i);                                             \
      EW_STORE(d + i, (VEXPR));                                            \
    }                                                                      \
    for (; i < n; i++) {                                                   \
      double x = a[i];                                                     \
      d[i] = (SEXPR);                                                      \
    }                                                                      \
  } while (0)

#define EW_MAP2(VEXPR, SEXPR)                                              \
  do {                                                                     \
    for (; i + LANES <= n; i += LANES) {                                   \
      EW_V x = EW_LOAD(a + i), y = EW_LOAD(o + i);                         \
      EW_STORE(d + i, (VEXPR));                                            \
    }                                                                      \
    for (; i < n; i++) {                                                   \
      double x = a[i], y = o[i];                                           \
      d[i] = (SEXPR);                                                      \
    }                                                                      \
  } while (0)

/* d[i] = F(a[i]) by a libm call per element (no vector form exists that
   gives libm's bits). */
#define EW_CALL(F)                                                         \
  do {                                                                     \
    for (; i < n; i++) d[i] = F(a[i]);                                     \
  } while (0)

TARGET static void EW_STEP(int op, double c, const double *a,
                           const double *o, double *d, intnat n)
{
  intnat i = 0;
  EW_V cv = EW_SPLAT(c);
  EW_V one = EW_SPLAT(1.0), zero = EW_SPLAT(0.0);
  switch (op) {
  case EW_NEG: /* -.x */
    EW_MAP1(-x, -x);
    break;
  case EW_SCALE: /* c *. x */
    EW_MAP1(EW_FIRST(cv, cv * x), ew_first(c, c * x));
    break;
  case EW_ADD_SCALAR: /* c +. x */
    EW_MAP1(EW_FIRST(cv, cv + x), ew_first(c, c + x));
    break;
  case EW_POW: /* Float.pow x c */
    for (; i < n; i++) d[i] = pow(a[i], c);
    break;
  case EW_SIGMOID: /* 1.0 /. (1.0 +. exp (-.x)) */
    EW_CALL(ew_sigmoid);
    break;
  case EW_TANH:
    EW_CALL(tanh);
    break;
  case EW_RELU: /* if x > 0.0 then x else 0.0 */
    EW_MAP1((EW_V)((EW_VI)x & (EW_VI)(x > zero)), x > 0.0 ? x : 0.0);
    break;
  case EW_EXP:
    EW_CALL(exp);
    break;
  case EW_LOG:
    EW_CALL(log);
    break;
  case EW_SQRT: /* correctly rounded: the same bits as sqrtsd */
    EW_CALL(sqrt);
    break;
  case EW_SQ: /* x *. x */
    EW_MAP1(x * x, x * x);
    break;
  case EW_RECIP: /* 1.0 /. x */
    EW_MAP1(one / x, 1.0 / x);
    break;
  case EW_SIGN: /* if x > 0.0 then 1.0 else if x < 0.0 then -1.0 else 0.0 */
    EW_MAP1((EW_V)(((EW_VI)one & (EW_VI)(x > zero)) |
                  ((EW_VI)(-one) & (EW_VI)(x < zero))),
           x > 0.0 ? 1.0 : x < 0.0 ? -1.0 : 0.0);
    break;
  case EW_ADD: /* x +. y */
    EW_MAP2(EW_FIRST(x, x + y), ew_first(x, x + y));
    break;
  case EW_SUB: /* x -. y */
    EW_MAP2(EW_FIRST(x, x - y), ew_first(x, x - y));
    break;
  case EW_MUL: /* x *. y */
    EW_MAP2(EW_FIRST(x, x * y), ew_first(x, x * y));
    break;
  case EW_DIV: /* x /. y */
    EW_MAP2(EW_FIRST(x, x / y), ew_first(x, x / y));
    break;
  }
}

/* out[o*inner + k] = (((+0 +. s[o,0,k]) +. s[o,1,k]) ...) +. s[o,d-1,k]
   for o in [lo, hi): one register accumulator per output element, added to
   in ascending a, the accumulator first. A row of width 1 is one scalar
   chain; wider rows run 4-vector, 1-vector and scalar column blocks. */
TARGET static void EW_REDUCE(const double *s, double *out, intnat d,
                             intnat inner, intnat lo, intnat hi)
{
  for (intnat o = lo; o < hi; o++) {
    const double *src = s + o * d * inner;
    double *dst = out + o * inner;
    intnat k = 0;
    for (; k + 4 * LANES <= inner; k += 4 * LANES) {
      EW_V acc[4] = {{0.0}};
      for (intnat a = 0; a < d; a++)
        for (int v = 0; v < 4; v++) {
          EW_V x = EW_LOAD(src + a * inner + k + v * LANES);
          acc[v] = EW_FIRST(acc[v], acc[v] + x);
        }
      for (int v = 0; v < 4; v++) EW_STORE(dst + k + v * LANES, acc[v]);
    }
    for (; k + LANES <= inner; k += LANES) {
      EW_V acc = {0.0};
      for (intnat a = 0; a < d; a++)
        acc = EW_FIRST(acc, acc + EW_LOAD(src + a * inner + k));
      EW_STORE(dst + k, acc);
    }
    for (; k < inner; k++) {
      double acc = 0.0;
      for (intnat a = 0; a < d; a++)
        acc = ew_first(acc, acc + src[a * inner + k]);
      dst[k] = acc;
    }
  }
}

#undef EW_V
#undef EW_VU
#undef EW_VI
#undef EW_FIRST
#undef EW_SPLAT
#undef EW_STEP
#undef EW_REDUCE
#undef EW_LOAD
#undef EW_STORE
#undef EW_MAP1
#undef EW_MAP2
#undef EW_CALL
