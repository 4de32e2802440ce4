/* The SIMD micro-kernel behind every Tensor.Into.matmul.

   The kernel body is written once (gemm_kernel.h) and built twice:

   - portable: 2-lane vectors in 4x4 tiles. The GCC/Clang vector
     extension compiles it to SSE2 on x86-64 and to NEON on arm64 with no
     -m flag.
   - avx2 (x86-64 GCC/Clang only): 4-lane vectors in 4x8 tiles, compiled
     under target("avx2"). FMA is never enabled.

   Each vector lane is one output element: it accumulates (p * q) + acc
   over ascending l from +0, exactly the scalar chain, so the result does
   not depend on the vector width. The library is built with
   -ffp-contract=off, so no multiply-add is fused in either build. The C
   compiler may commute an add, which changes a result only where two NaN
   payloads meet; the kernel therefore reports whether it stored any NaN,
   and the caller recomputes those elements by the reference chain
   (tensor.ml).

   echo_gemm_select picks the build once, from Tensor's module
   initialisation, before any domain can run a matmul; the hot path only
   reads the chosen pointer. */

#include <caml/alloc.h>
#include <caml/mlvalues.h>

#define LANES 2
#define KERNEL gemm_portable
#define TARGET
#include "gemm_kernel.h"

#if defined(__aarch64__)
#define GEMM_PORTABLE_ISA "neon"
#elif defined(__x86_64__)
#define GEMM_PORTABLE_ISA "sse2"
#else
#define GEMM_PORTABLE_ISA "generic"
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GEMM_HAVE_AVX2 1
#define LANES 4
#define KERNEL gemm_avx2
#define TARGET __attribute__((target("avx2")))
#include "gemm_kernel.h"
#endif

typedef int (*gemm_fn)(const double *, const double *, double *, intnat,
                       intnat, intnat, intnat, intnat, intnat, intnat,
                       intnat, intnat, intnat);

static gemm_fn gemm_impl = gemm_portable;
static const char *gemm_isa = GEMM_PORTABLE_ISA;

/* Selects the best build the CPU supports, or the portable one when
   [portable] is true (a test-only override). */
value echo_gemm_select(value portable)
{
  gemm_impl = gemm_portable;
  gemm_isa = GEMM_PORTABLE_ISA;
#ifdef GEMM_HAVE_AVX2
  __builtin_cpu_init();
  if (!Bool_val(portable) && __builtin_cpu_supports("avx2")) {
    gemm_impl = gemm_avx2;
    gemm_isa = "avx2";
  }
#endif
  return Val_unit;
}

value echo_gemm_isa(value unit)
{
  (void)unit;
  return caml_copy_string(gemm_isa);
}

value echo_gemm(value vp, value vq, value vout, intnat k, intnat pr,
                intnat pl, intnat qs, intnat r0, intnat r1, intnat c0,
                intnat c1, intnat sr, intnat sc)
{
  return Val_bool(gemm_impl((const double *)vp, (const double *)vq,
                            (double *)vout, k, pr, pl, qs, r0, r1, c0, c1,
                            sr, sc));
}

value echo_gemm_byte(value *argv, int argc)
{
  (void)argc;
  return echo_gemm(argv[0], argv[1], argv[2], Long_val(argv[3]),
                   Long_val(argv[4]), Long_val(argv[5]), Long_val(argv[6]),
                   Long_val(argv[7]), Long_val(argv[8]), Long_val(argv[9]),
                   Long_val(argv[10]), Long_val(argv[11]), Long_val(argv[12]));
}
