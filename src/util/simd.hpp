#pragma once

// MR_TARGET_CLONES: per-function runtime SIMD dispatch for hot kernels (the
// SpatialIndex candidate scan and the GEMM tiles of ml::Matrix).
//
// On x86-64 ELF with GCC, the annotated function is compiled twice — a
// baseline SSE2 body and an AVX2 body — and the dynamic loader picks one
// per host at startup (ifunc), so a single binary runs everywhere and uses
// 4-wide double lanes where the CPU has them.
//
// Bit-exactness: the clone list deliberately enables *only* AVX2, never
// FMA. Every operation the kernels use (mul, add, sub, div, sqrt, min,
// max, compare/blend) is IEEE-754 correctly rounded per lane, so the AVX2
// body produces bit-identical results to the baseline body — widening the
// vectors never changes the answer, and the bit-identity contracts in
// DESIGN.md §10.1 and §17.2 hold under either clone. Enabling FMA would
// break this (contraction skips the intermediate rounding); do not add it.
//
// MR_AVX2_TARGET: for a kernel whose AVX2 body is a different body (a wider
// lane type, not the same source recompiled), the attribute that compiles
// that one function for AVX2 — again without FMA. The caller picks the body
// at run time with __builtin_cpu_supports("avx2") and otherwise runs its
// default body (the assignment solver's fused column pass, DESIGN.md §5).
// It is undefined wherever MR_TARGET_CLONES is empty, and such builds
// compile the AVX2 body out.
//
// ThreadSanitizer builds get the default body only: the ifunc resolver
// runs during relocation, before the TSan runtime is up, and crashes the
// process at startup. MR_AVX2_TARGET follows the same rule, so a TSan run
// exercises the default bodies.
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_THREAD__)
#define MR_TARGET_CLONES __attribute__((target_clones("default", "avx2")))
#define MR_AVX2_TARGET __attribute__((target("avx2")))
#else
#define MR_TARGET_CLONES
#endif
