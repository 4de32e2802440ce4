/* The C kernels behind Tensor: the SIMD micro-kernel of every
   Tensor.Into.matmul (gemm_kernel.h), the SIMD elementwise, fused-chain
   and reduction kernels (elementwise_kernel.h), and the strided block
   copy of the slicing kernels.

   The SIMD bodies are written once and built twice:

   - portable: 2-lane vectors (4x4 GEMM tiles). The GCC/Clang vector
     extension compiles it to SSE2 on x86-64 and to NEON on arm64 with no
     -m flag.
   - avx2 (x86-64 GCC/Clang only): 4-lane vectors (4x8 GEMM tiles),
     compiled under target("avx2"). FMA is never enabled.

   Each vector lane is one output element and computes exactly the scalar
   chain of the OCaml expression it replaces, so the result does not
   depend on the vector width. The library is built with
   -ffp-contract=off, so no multiply-add is fused in either build. The C
   compiler may commute an add or a multiply, which changes a result only
   where two NaN payloads meet. The GEMM therefore reports whether it
   stored any NaN, and the caller recomputes those elements by the
   reference chain (tensor.ml); the elementwise kernels resolve such lanes
   in-register before the store (elementwise_kernel.h). Transcendental
   steps call the same libm exp, tanh, log and pow as OCaml, one element at
   a time.

   echo_kernels_select picks the build once, from Tensor's module
   initialisation, before any domain can run a kernel; the hot path only
   reads the chosen table. */

#include <math.h>
#include <string.h>

#include <caml/alloc.h>
#include <caml/mlvalues.h>

/* Elementwise opcodes: the op argument of ew_step_<BUILD>. */
enum {
  EW_NEG,
  EW_SCALE,
  EW_ADD_SCALAR,
  EW_POW,
  EW_SIGMOID,
  EW_TANH,
  EW_RELU,
  EW_EXP,
  EW_LOG,
  EW_SQRT,
  EW_SQ,
  EW_RECIP,
  EW_SIGN,
  EW_ADD,
  EW_SUB,
  EW_MUL,
  EW_DIV
};

/* The bit that makes a NaN quiet. */
#define EW_QUIET 0x0008000000000000LL

/* r, unless x is a NaN: then x, quieted (see elementwise_kernel.h). */
static inline double ew_first(double x, double r)
{
  if (x != x) {
    long long bits;
    memcpy(&bits, &x, sizeof bits);
    bits |= EW_QUIET;
    memcpy(&x, &bits, sizeof x);
    return x;
  }
  return r;
}

static inline double ew_sigmoid(double x) { return 1.0 / (1.0 + exp(-x)); }

#define LANES 2
#define BUILD portable
#define TARGET
#include "gemm_kernel.h"
#include "elementwise_kernel.h"
#undef LANES
#undef BUILD
#undef TARGET

#if defined(__aarch64__)
#define PORTABLE_ISA "neon"
#elif defined(__x86_64__)
#define PORTABLE_ISA "sse2"
#else
#define PORTABLE_ISA "generic"
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HAVE_AVX2 1
#define LANES 4
#define BUILD avx2
#define TARGET __attribute__((target("avx2")))
#include "gemm_kernel.h"
#include "elementwise_kernel.h"
#undef LANES
#undef BUILD
#undef TARGET
#endif

typedef struct {
  const char *isa;
  int (*gemm)(const double *, const double *, double *, intnat, intnat,
              intnat, intnat, intnat, intnat, intnat, intnat, intnat, intnat);
  void (*step)(int, double, const double *, const double *, double *,
               intnat);
  void (*reduce)(const double *, double *, intnat, intnat, intnat, intnat);
} kernels;

static const kernels kernels_portable = {PORTABLE_ISA, gemm_portable,
                                         ew_step_portable, ew_reduce_portable};
#ifdef HAVE_AVX2
static const kernels kernels_avx2 = {"avx2", gemm_avx2, ew_step_avx2,
                                     ew_reduce_avx2};
#endif

static const kernels *impl = &kernels_portable;

/* Selects the best build the CPU supports, or the portable one when
   [portable] is true (a test-only override). */
value echo_kernels_select(value portable)
{
  impl = &kernels_portable;
#ifdef HAVE_AVX2
  __builtin_cpu_init();
  if (!Bool_val(portable) && __builtin_cpu_supports("avx2"))
    impl = &kernels_avx2;
#endif
  return Val_unit;
}

value echo_kernels_isa(value unit)
{
  (void)unit;
  return caml_copy_string(impl->isa);
}

/* {1 GEMM}

   Every array argument comes with the element offset at which its
   operand starts: a Tensor.t is a view into a backing array that may hold
   other tensors too (the executor's slab). */

value echo_gemm(value vp, intnat po, value vq, intnat qo, value vout,
                intnat oo, intnat k, intnat pr, intnat pl, intnat qs,
                intnat r0, intnat r1, intnat c0, intnat c1, intnat sr,
                intnat sc)
{
  return Val_bool(impl->gemm((const double *)vp + po, (const double *)vq + qo,
                             (double *)vout + oo, k, pr, pl, qs, r0, r1, c0,
                             c1, sr, sc));
}

value echo_gemm_byte(value *argv, int argc)
{
  (void)argc;
  return echo_gemm(argv[0], Long_val(argv[1]), argv[2], Long_val(argv[3]),
                   argv[4], Long_val(argv[5]), Long_val(argv[6]),
                   Long_val(argv[7]), Long_val(argv[8]), Long_val(argv[9]),
                   Long_val(argv[10]), Long_val(argv[11]), Long_val(argv[12]),
                   Long_val(argv[13]), Long_val(argv[14]),
                   Long_val(argv[15]));
}

/* {1 Elementwise}

   Tensor.fused_step is decoded from its OCaml representation. Its
   constant constructors, in declaration order, are the immediates 0..9;
   its constructors with an argument are blocks tagged 0..7 in declaration
   order, the first three carrying a boxed float constant and the rest an
   operand index. tensor.ml declares the type in exactly the order of
   these tables. A Tensor.t is the record { shape; data; off }: a view of
   its data array (field 1) from element off (field 2, an OCaml int). */

static const int ew_constant_ops[] = {EW_NEG,  EW_SIGMOID, EW_TANH, EW_RELU,
                                      EW_EXP,  EW_LOG,     EW_SQRT, EW_SQ,
                                      EW_RECIP, EW_SIGN};
static const int ew_block_ops[] = {EW_SCALE, EW_ADD_SCALAR, EW_POW, EW_ADD,
                                   EW_SUB,   EW_MUL,        EW_DIV, EW_SCALE};
#define EW_TAG_FIRST_OPERAND 3 /* F_add: the first step that reads one */
#define EW_TAG_SCALE_BY 7

#define TENSOR_DATA(t) ((double *)Field((t), 1) + Long_val(Field((t), 2)))

static int ew_op(value step)
{
  return Is_long(step) ? ew_constant_ops[Long_val(step)]
                       : ew_block_ops[Tag_val(step)];
}

static int ew_reads_operand(value step)
{
  return Is_block(step) && Tag_val(step) >= EW_TAG_FIRST_OPERAND;
}

static double ew_constant(value step)
{
  return Is_block(step) && !ew_reads_operand(step)
             ? Double_val(Field(step, 0))
             : 0.0;
}

/* d[i] = step x[i] (unary steps) or x[i] step y[i] (binary steps, whose
   operand index is ignored) for i in [lo, hi) of the three tensors'
   views. */
value echo_ew_map(value step, value x, value y, value d, intnat lo,
                  intnat hi)
{
  impl->step(ew_op(step), ew_constant(step), TENSOR_DATA(x) + lo,
             ew_reads_operand(step) ? TENSOR_DATA(y) + lo : NULL,
             TENSOR_DATA(d) + lo, hi - lo);
  return Val_unit;
}

value echo_ew_map_byte(value *argv, int argc)
{
  (void)argc;
  return echo_ew_map(argv[0], argv[1], argv[2], argv[3], Long_val(argv[4]),
                     Long_val(argv[5]));
}

/* The fused chain over elements [lo, hi), in blocks that fit in L1: per
   block, the first step reads the seed (operand 0), each step writes the
   running values into [buf] and the last one writes [dst]. Each element
   sees the chain's operations in order, as if run unfused; [dst] may be
   any operand, since a block's elements of every operand are read before
   its elements of [dst] are written. */
#define EW_BLOCK 256

value echo_ew_chain(value steps, value operands, value vdst, intnat lo,
                    intnat hi)
{
  intnat k = Wosize_val(steps);
  const double *seed = TENSOR_DATA(Field(operands, 0));
  double *dst = TENSOR_DATA(vdst);
  double buf[EW_BLOCK];
  for (intnat b = lo; b < hi; b += EW_BLOCK) {
    intnat n = hi - b < EW_BLOCK ? hi - b : EW_BLOCK;
    const double *in = seed + b;
    if (k == 0) memmove(dst + b, in, n * sizeof(double));
    for (intnat st = 0; st < k; st++) {
      value step = Field(steps, st);
      double c = ew_constant(step);
      const double *o = NULL;
      if (ew_reads_operand(step)) {
        const double *od = TENSOR_DATA(Field(operands, Long_val(Field(step, 0))));
        if (Tag_val(step) == EW_TAG_SCALE_BY)
          c = od[0];
        else
          o = od + b;
      }
      double *out = st == k - 1 ? dst + b : buf;
      impl->step(ew_op(step), c, in, o, out, n);
      in = out;
    }
  }
  return Val_unit;
}

value echo_ew_chain_byte(value steps, value operands, value vdst, value lo,
                         value hi)
{
  return echo_ew_chain(steps, operands, vdst, Long_val(lo), Long_val(hi));
}

/* d[i*cols + j] = m[i*cols + j] +. b[j] for rows i in [lo, hi) of the
   tensors' views. */
value echo_ew_add_bias(value m, value b, value d, intnat cols, intnat lo,
                       intnat hi)
{
  for (intnat i = lo; i < hi; i++)
    impl->step(EW_ADD, 0.0, TENSOR_DATA(m) + i * cols, TENSOR_DATA(b),
               TENSOR_DATA(d) + i * cols, cols);
  return Val_unit;
}

value echo_ew_add_bias_byte(value *argv, int argc)
{
  (void)argc;
  return echo_ew_add_bias(argv[0], argv[1], argv[2], Long_val(argv[3]),
                          Long_val(argv[4]), Long_val(argv[5]));
}

value echo_reduce_sum(value s, value out, intnat d, intnat inner, intnat lo,
                      intnat hi)
{
  impl->reduce(TENSOR_DATA(s), TENSOR_DATA(out), d, inner, lo, hi);
  return Val_unit;
}

value echo_reduce_sum_byte(value *argv, int argc)
{
  (void)argc;
  return echo_reduce_sum(argv[0], argv[1], Long_val(argv[2]),
                         Long_val(argv[3]), Long_val(argv[4]),
                         Long_val(argv[5]));
}

/* {1 Element access}

   One element of a tensor's view, unboxed: Tensor.unsafe_get1. */

double echo_tensor_get(value t, intnat i) { return TENSOR_DATA(t)[i]; }

value echo_tensor_get_byte(value t, value i)
{
  return caml_copy_double(echo_tensor_get(t, Long_val(i)));
}

/* {1 Strided block copy}

   For o in [0, outer) and a in [0, n), copies [width] doubles from
   src[soff + o*so + a*sa] to dst[doff + o*dso + a*dsa]. A float copy moves
   bits, so no build selection is needed. */
value echo_copy_blocks(value vsrc, intnat soff, intnat so, intnat sa,
                       value vdst, intnat doff, intnat dso, intnat dsa,
                       intnat outer, intnat n, intnat width)
{
  const double *s = (const double *)vsrc + soff;
  double *d = (double *)vdst + doff;
  for (intnat o = 0; o < outer; o++)
    for (intnat a = 0; a < n; a++) {
      const double *p = s + o * so + a * sa;
      double *q = d + o * dso + a * dsa;
      if (width == 1)
        *q = *p;
      else
        memmove(q, p, width * sizeof(double));
    }
  return Val_unit;
}

value echo_copy_blocks_byte(value *argv, int argc)
{
  (void)argc;
  return echo_copy_blocks(argv[0], Long_val(argv[1]), Long_val(argv[2]),
                          Long_val(argv[3]), argv[4], Long_val(argv[5]),
                          Long_val(argv[6]), Long_val(argv[7]),
                          Long_val(argv[8]), Long_val(argv[9]),
                          Long_val(argv[10]));
}
