// Mixed-precision policy for the device hot path.
//
// The pipeline is bandwidth-bound end to end (SpMV in the IRLM loop, the
// k-means distance GEMM, and the PCIe/D2D links all move scalar arrays), so
// narrowing *storage* while keeping fp64 *accumulation* trades a bounded
// operator perturbation for roughly halved (fp32) or quartered (bf16)
// traffic — the standard mixed-precision eigensolver recipe (DESIGN.md
// §13).  This header defines:
//
//   * Precision — the storage width of a scalar array on the device or on
//     a link (fp64 / fp32 / bf16-emulated),
//   * exactly-rounded narrowing helpers (round-to-nearest-even, NaN and
//     Inf preserved) shared by every staging site so single-device and
//     sharded runs quantize identically (the bitwise determinism contract
//     across device counts extends to every precision),
//   * PrecisionPolicy — the per-run policy: a base rung, optional
//     per-stage overrides (spmv values / Lanczos basis staging / k-means /
//     similarity), an `auto` flag that starts at fp32 and falls back to
//     fp64 through the degradation ladder when the fp64 refinement
//     residual stalls, and the kernel-fusion knob.
//
// bf16 is *emulated*: scalars are stored as the top 16 bits of an IEEE-754
// binary32 (1 sign + 8 exponent + 7 mantissa bits), rounded to nearest
// even, which is bit-compatible with bfloat16 hardware formats.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/types.h"

namespace fastsc {

/// Storage width of a device-resident or link-staged scalar array.
enum class Precision : std::uint8_t {
  kFp64 = 0,  ///< IEEE binary64 (the baseline; bitwise-identical to PR 8)
  kFp32 = 1,  ///< IEEE binary32 storage, fp64 accumulation
  kBf16 = 2,  ///< emulated bfloat16 storage (see header), fp64 accumulation
};

[[nodiscard]] constexpr usize bytes_per_scalar(Precision p) noexcept {
  return p == Precision::kFp64 ? 8 : p == Precision::kFp32 ? 4 : 2;
}

[[nodiscard]] const char* precision_name(Precision p) noexcept;

/// Parse "fp64" / "fp32" / "bf16".  Returns false (leaving `out` untouched)
/// on anything else — "auto" is a *policy*, not a precision; parse it with
/// parse_precision_policy.
[[nodiscard]] bool parse_precision(std::string_view s, Precision& out);

// --- exactly-rounded conversions -------------------------------------------
//
// All narrowing is round-to-nearest-even.  NaN narrows to NaN (the quiet
// bit is forced so a signalling payload cannot be truncated to Inf), ±Inf
// narrows to ±Inf, and values beyond the target range overflow to ±Inf.
// Both directions are monotone on non-NaN inputs, which the property tests
// assert.

/// float -> emulated bf16 (top 16 bits, RNE).
[[nodiscard]] std::uint16_t bf16_from_float(float f) noexcept;

/// emulated bf16 -> float (exact: zero-extend the mantissa).
[[nodiscard]] float float_from_bf16(std::uint16_t b) noexcept;

/// double -> float with RNE and Inf on overflow (avoids the UB of a raw
/// static_cast for out-of-range finite doubles).
[[nodiscard]] float float_from_real(real v) noexcept;

/// Round a double through the given storage precision and back.  This is
/// *the* quantization every staging site uses: `kFp64` is the identity, so
/// one code path serves all rungs.
[[nodiscard]] real quantize(real v, Precision p) noexcept;

/// Pack `n` doubles into `dst` at width `p` (dst must hold
/// n * bytes_per_scalar(p) bytes).  fp64 packs bit-exact copies.
void pack_scalars(const real* src, usize n, Precision p,
                  unsigned char* dst) noexcept;

/// Unpack `n` scalars of width `p` from `src` into doubles (widening is
/// exact for every rung).
void unpack_scalars(const unsigned char* src, usize n, Precision p,
                    real* dst) noexcept;

// --- typed vector views -----------------------------------------------------
//
// A staged vector lives in device memory as raw bytes at some storage width;
// kernels read/write it through these views, widening to fp64 on load and
// rounding (RNE) on store.  The fp64 case is a plain pointer access, so code
// written against the views is bitwise identical to the pre-precision
// kernels when everything resolves to fp64.

/// Read-only view of `n` scalars stored at width `prec`.
struct ConstVecView {
  const void* data = nullptr;
  Precision prec = Precision::kFp64;

  ConstVecView() = default;
  ConstVecView(const void* d, Precision p) noexcept : data(d), prec(p) {}
  /*implicit*/ ConstVecView(const real* d) noexcept
      : data(d), prec(Precision::kFp64) {}

  [[nodiscard]] real load(usize i) const noexcept {
    switch (prec) {
      case Precision::kFp64:
        return static_cast<const real*>(data)[i];
      case Precision::kFp32:
        return static_cast<real>(static_cast<const float*>(data)[i]);
      case Precision::kBf16:
        return static_cast<real>(
            float_from_bf16(static_cast<const std::uint16_t*>(data)[i]));
    }
    return 0;
  }
};

/// Mutable view; stores quantize through the storage width.
struct VecView {
  void* data = nullptr;
  Precision prec = Precision::kFp64;

  VecView() = default;
  VecView(void* d, Precision p) noexcept : data(d), prec(p) {}
  /*implicit*/ VecView(real* d) noexcept : data(d), prec(Precision::kFp64) {}

  [[nodiscard]] real load(usize i) const noexcept {
    return ConstVecView(data, prec).load(i);
  }

  void store(usize i, real v) const noexcept {
    switch (prec) {
      case Precision::kFp64:
        static_cast<real*>(data)[i] = v;
        return;
      case Precision::kFp32:
        static_cast<float*>(data)[i] = float_from_real(v);
        return;
      case Precision::kBf16:
        static_cast<std::uint16_t*>(data)[i] =
            bf16_from_float(float_from_real(v));
        return;
    }
  }

  /*implicit*/ operator ConstVecView() const noexcept {
    return ConstVecView(data, prec);
  }
};

// --- policy -----------------------------------------------------------------

/// Tri-state for the kernel-fusion knob: kAuto fuses exactly when the SpMV
/// stage runs below fp64 (where the removed passes pay for the changed
/// rounding), kOn/kOff force it.
enum class FuseKernels : std::uint8_t { kAuto = 0, kOn = 1, kOff = 2 };

/// Stages a precision override can target.
enum class PrecisionStage : std::uint8_t {
  kSpmv = 0,        ///< device CSR value arrays
  kBasis = 1,       ///< Lanczos vector staging (PCIe x/y, D2D halo)
  kKmeans = 2,      ///< embedding points + centroid replicas on device
  kSimilarity = 3,  ///< similarity build scratch (graph.* kernels)
};

/// Per-run mixed-precision policy.  Resolution order for a stage:
/// explicit per-stage override first, then the base rung.  `auto_ladder`
/// runs the solve at the resolved rungs and re-runs at full fp64 (through
/// the PR 3 degradation ladder, action "precision-fallback") when the fp64
/// refinement residual exceeds `refine_residual_limit`.
struct PrecisionPolicy {
  Precision base = Precision::kFp64;
  bool auto_ladder = false;

  /// Per-stage overrides; kUnset inherits `base`.  Stored as one byte per
  /// stage so the struct stays trivially copyable for fingerprinting.
  static constexpr std::uint8_t kUnset = 0xff;
  std::uint8_t spmv = kUnset;
  std::uint8_t basis = kUnset;
  std::uint8_t kmeans = kUnset;
  std::uint8_t similarity = kUnset;

  FuseKernels fuse = FuseKernels::kAuto;

  /// Max acceptable post-refinement residual max_i ||A v_i - lambda_i v_i||
  /// before the auto rung degrades to fp64 (operator norm is <= 1 for the
  /// normalized similarity matrix, so this is also a relative bound).
  real refine_residual_limit = 1e-6;

  /// fp64 Rayleigh-Ritz refinement rounds at solve end (0 disables; only
  /// meaningful when some resolved stage is below fp64).
  index_t refine_rounds = 1;

  void set_stage(PrecisionStage s, Precision p) noexcept;
  [[nodiscard]] Precision resolve(PrecisionStage s) const noexcept;

  /// True when every resolved stage is fp64 and fusion is not forced on —
  /// i.e. the run is bitwise-identical to the pre-precision pipeline.
  [[nodiscard]] bool all_fp64() const noexcept;

  /// Whether the fused D^{-1/2}-epilogue SpMV and the degree sweep over the
  /// similarity matrix (graph::similarity_degrees) are active under this
  /// policy.
  [[nodiscard]] bool fused() const noexcept;

  /// The policy with every stage forced to fp64 (the ladder's bottom rung;
  /// keeps the fusion knob as-is only when explicitly forced on).
  [[nodiscard]] PrecisionPolicy fp64_fallback() const noexcept;
};

/// Parse a policy spec: "fp64" | "fp32" | "bf16" | "auto" (auto = fp32 base
/// with the fallback rung armed), optionally followed by comma-separated
/// stage overrides "stage=prec" with stage in {spmv,basis,kmeans,
/// similarity} — e.g. "fp32,kmeans=fp64".  Returns false on syntax errors.
[[nodiscard]] bool parse_precision_policy(std::string_view s,
                                          PrecisionPolicy& out);

/// Human-readable one-liner ("fp32 (auto)" / "fp32, kmeans=fp64").
[[nodiscard]] std::string precision_policy_name(const PrecisionPolicy& p);

}  // namespace fastsc
