// Mixed-precision ladder tests (DESIGN.md §13).
//
// Three layers, mirroring the contract the ladder makes:
//   1. Conversion properties — the narrowing helpers are exactly rounded
//      (RNE), monotone on non-NaN inputs, preserve NaN/Inf, and round-trip
//      representable values bit-for-bit through pack/unpack.
//   2. Fusion — the fused D^{-1/2}-epilogue SpMV is *bitwise* equal to the
//      scale / spmv / scale 3-launch sequence in fp64 (plain and
//      nnz-balanced kernels), so turning fusion on at fp64 changes nothing.
//   3. Differential — on the four paper-shaped datasets the fp32 rung
//      produces ARI-identical labels and eigenvalues within 1e-6 of fp64
//      (bf16 within 1e-3), every rung is byte-identical across device
//      counts {1,2,4}, and the auto ladder falls back to fp64 through the
//      degradation machinery when the refinement residual is made
//      unsatisfiable.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/precision.h"
#include "common/rng.h"
#include "core/spectral.h"
#include "data/powerlaw.h"
#include "data/sbm.h"
#include "data/social.h"
#include "device/device.h"
#include "graph/components.h"
#include "metrics/external.h"
#include "sparse/convert.h"
#include "sparse/spmv.h"

namespace fastsc {
namespace {

using core::Backend;
using core::SpectralConfig;
using core::SpectralResult;
using sparse::Csr;

// ---------------------------------------------------------------------------
// 1. Conversion properties.

std::vector<real> random_reals(usize n, std::uint64_t seed, real scale) {
  Rng rng(seed);
  std::vector<real> v(n);
  for (real& x : v) x = (rng.uniform() * 2.0 - 1.0) * scale;
  return v;
}

TEST(PrecisionConvert, Fp64QuantizeIsBitwiseIdentity) {
  for (real v : random_reals(1000, 1, 1e12)) {
    const real q = quantize(v, Precision::kFp64);
    EXPECT_EQ(std::memcmp(&q, &v, sizeof(real)), 0);
  }
  // Denormals and signed zero survive the identity too.
  for (real v : {std::numeric_limits<real>::denorm_min(), -0.0, 0.0,
                 std::numeric_limits<real>::max()}) {
    const real q = quantize(v, Precision::kFp64);
    EXPECT_EQ(std::memcmp(&q, &v, sizeof(real)), 0);
  }
}

TEST(PrecisionConvert, RepresentableValuesRoundTripExactly) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    // A value that is already fp32-representable must be a fixed point of
    // fp32 quantization…
    const float f = static_cast<float>((rng.uniform() * 2.0 - 1.0) * 1e6);
    EXPECT_EQ(quantize(static_cast<real>(f), Precision::kFp32),
              static_cast<real>(f));
    // …and one already bf16-representable a fixed point of bf16.
    const float b = float_from_bf16(bf16_from_float(f));
    EXPECT_EQ(quantize(static_cast<real>(b), Precision::kBf16),
              static_cast<real>(b));
    EXPECT_EQ(float_from_bf16(bf16_from_float(b)), b);
  }
}

class PrecisionRung : public ::testing::TestWithParam<Precision> {};

TEST_P(PrecisionRung, NarrowingIsMonotone) {
  const Precision p = GetParam();
  std::vector<real> v = random_reals(2000, 3, 1e8);
  std::sort(v.begin(), v.end());
  real prev = quantize(v.front(), p);
  for (usize i = 1; i < v.size(); ++i) {
    const real q = quantize(v[i], p);
    EXPECT_LE(prev, q) << "rounding must be monotone at "
                       << precision_name(p);
    prev = q;
  }
}

TEST_P(PrecisionRung, NanAndInfPreserved) {
  const Precision p = GetParam();
  EXPECT_TRUE(std::isnan(quantize(std::numeric_limits<real>::quiet_NaN(), p)));
  EXPECT_EQ(quantize(std::numeric_limits<real>::infinity(), p),
            std::numeric_limits<real>::infinity());
  EXPECT_EQ(quantize(-std::numeric_limits<real>::infinity(), p),
            -std::numeric_limits<real>::infinity());
  // Finite values beyond the rung's range overflow to Inf, keeping the sign.
  if (p != Precision::kFp64) {
    EXPECT_EQ(quantize(1e308, p), std::numeric_limits<real>::infinity());
    EXPECT_EQ(quantize(-1e308, p), -std::numeric_limits<real>::infinity());
  }
  // Signed zero survives every rung.
  const real nz = quantize(-0.0, p);
  EXPECT_EQ(nz, 0.0);
  EXPECT_TRUE(std::signbit(nz));
}

TEST_P(PrecisionRung, PackUnpackMatchesQuantize) {
  const Precision p = GetParam();
  const std::vector<real> v = random_reals(513, 4, 1e5);
  std::vector<unsigned char> bytes(v.size() * bytes_per_scalar(p));
  pack_scalars(v.data(), v.size(), p, bytes.data());
  std::vector<real> back(v.size());
  unpack_scalars(bytes.data(), v.size(), p, back.data());
  for (usize i = 0; i < v.size(); ++i) {
    const real want = quantize(v[i], p);
    EXPECT_EQ(std::memcmp(&back[i], &want, sizeof(real)), 0)
        << "entry " << i << " at " << precision_name(p);
  }
}

TEST_P(PrecisionRung, VecViewStoreLoadMatchesQuantize) {
  const Precision p = GetParam();
  const std::vector<real> v = random_reals(257, 5, 1e3);
  std::vector<unsigned char> bytes(v.size() * bytes_per_scalar(p));
  const VecView view(bytes.data(), p);
  for (usize i = 0; i < v.size(); ++i) view.store(i, v[i]);
  for (usize i = 0; i < v.size(); ++i) {
    EXPECT_EQ(view.load(i), quantize(v[i], p)) << "entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Rungs, PrecisionRung,
                         ::testing::Values(Precision::kFp64, Precision::kFp32,
                                           Precision::kBf16),
                         [](const auto& info) {
                           return std::string(precision_name(info.param));
                         });

TEST(PrecisionPolicyApi, ParseAndResolve) {
  PrecisionPolicy p;
  ASSERT_TRUE(parse_precision_policy("fp32,kmeans=fp64", p));
  EXPECT_EQ(p.base, Precision::kFp32);
  EXPECT_EQ(p.resolve(PrecisionStage::kSpmv), Precision::kFp32);
  EXPECT_EQ(p.resolve(PrecisionStage::kKmeans), Precision::kFp64);
  EXPECT_FALSE(p.all_fp64());
  EXPECT_TRUE(p.fused());  // kAuto fuses when spmv is narrow
  ASSERT_TRUE(parse_precision_policy("auto", p));
  EXPECT_TRUE(p.auto_ladder);
  EXPECT_EQ(p.base, Precision::kFp32);
  EXPECT_TRUE(p.fp64_fallback().all_fp64());
  ASSERT_TRUE(parse_precision_policy("fp64", p));
  EXPECT_TRUE(p.all_fp64());
  EXPECT_FALSE(p.fused());
  EXPECT_FALSE(parse_precision_policy("fp16", p));
  EXPECT_FALSE(parse_precision_policy("fp32,spmv=", p));
}

// ---------------------------------------------------------------------------
// 2. Fused D^{-1/2}-epilogue SpMV vs the 3-launch sequence, bitwise in fp64.

TEST(PrecisionFusion, FusedEpilogueBitwiseEqualsThreeLaunchFp64) {
  const data::PowerlawGraph g =
      data::make_powerlaw({.n = 900, .avg_degree = 9.0, .seed = 17});
  const Csr a = sparse::coo_to_csr(g.w);
  const usize n = static_cast<usize>(a.rows);
  const std::vector<real> x = random_reals(n, 11, 1.0);
  std::vector<real> s = random_reals(n, 12, 1.0);
  for (real& v : s) v = std::abs(v) + 0.5;  // a plausible D^{-1/2}

  // Reference: scale x, csrmv, scale y — the exact multiplies the fused
  // kernel performs, in the same order, so fp64 equality must be bitwise.
  std::vector<real> xs(n);
  for (usize i = 0; i < n; ++i) xs[i] = s[i] * x[i];

  device::DeviceContext ctx(1);
  sparse::DeviceCsr da(ctx, a);
  device::DeviceBuffer<real> dxs(ctx, std::span<const real>(xs));
  device::DeviceBuffer<real> dy(ctx, n);
  sparse::device_csrmv(ctx, da, dxs.data(), dy.data());
  std::vector<real> want = dy.to_host();
  for (usize i = 0; i < n; ++i) want[i] *= s[i];

  device::DeviceBuffer<real> dx(ctx, std::span<const real>(x));
  device::DeviceBuffer<real> ds(ctx, std::span<const real>(s));
  device::DeviceBuffer<real> dyf(ctx, n);
  sparse::device_csrmv_mp(ctx, da, ConstVecView(dx.data()),
                          VecView(dyf.data()), 1.0, 0.0, ds.data());
  const std::vector<real> got = dyf.to_host();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(real)), 0)
      << "fused plain csrmv is not bitwise equal to scale/spmv/scale";
}

TEST(PrecisionFusion, MpKernelAtFp64MatchesPlainKernelBitwise) {
  // With everything fp64 and no fused scale the _mp kernel must be the
  // pre-precision kernel, bit for bit.
  const data::PowerlawGraph g =
      data::make_powerlaw({.n = 500, .avg_degree = 7.0, .seed = 23});
  const Csr a = sparse::coo_to_csr(g.w);
  const usize n = static_cast<usize>(a.rows);
  const std::vector<real> x = random_reals(n, 31, 1.0);
  device::DeviceContext ctx(1);
  sparse::DeviceCsr da(ctx, a);
  device::DeviceBuffer<real> dx(ctx, std::span<const real>(x));
  device::DeviceBuffer<real> dy(ctx, n), dy2(ctx, n);
  sparse::device_csrmv(ctx, da, dx.data(), dy.data());
  sparse::device_csrmv_mp(ctx, da, ConstVecView(dx.data()),
                          VecView(dy2.data()));
  const std::vector<real> want = dy.to_host(), got = dy2.to_host();
  EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(real)), 0);
}

// ---------------------------------------------------------------------------
// 3. Differential: precision rungs vs the fp64 baseline, and device-count
//    invariance at every rung, on the four paper-shaped datasets.

struct Dataset {
  const char* name;
  sparse::Coo w;
  index_t k;
};

std::vector<Dataset> paper_datasets() {
  std::vector<Dataset> out;
  {
    const data::SbmGraph g =
        data::make_social_graph(data::fb_like_params(1200, 5, 42));
    out.push_back({"fb-like", g.w, 5});
  }
  {
    const data::SbmGraph g =
        data::make_social_graph(data::dblp_like_params(1500, 6, 42));
    out.push_back({"dblp-like", g.w, 6});
  }
  {
    data::SbmParams p;
    p.block_sizes = data::equal_blocks(1024, 4);
    p.p_in = 0.25;
    p.p_out = 0.01;
    p.seed = 11;
    out.push_back({"sbm", data::make_sbm(p).w, 4});
  }
  {
    const data::PowerlawGraph g =
        data::make_powerlaw({.n = 1100, .avg_degree = 8.0, .seed = 7});
    out.push_back({"powerlaw", g.w, 4});
  }
  // The generators leave a few isolated vertices; the normalized Laplacian
  // needs positive degrees, so cluster the giant component like the benches.
  for (Dataset& d : out) {
    std::vector<index_t> old_of_new;
    d.w = graph::largest_component(d.w, old_of_new);
  }
  return out;
}

SpectralConfig pipeline_config(index_t k, index_t num_devices) {
  SpectralConfig cfg;
  cfg.num_clusters = k;
  cfg.backend = Backend::kDevice;
  cfg.num_devices = num_devices;
  cfg.seed = 42;
  return cfg;
}

TEST(PrecisionDifferential, NarrowRungsMatchFp64OnPaperDatasets) {
  for (const Dataset& d : paper_datasets()) {
    SCOPED_TRACE(d.name);
    const SpectralResult base =
        core::spectral_cluster_graph(d.w, pipeline_config(d.k, 1));
    ASSERT_EQ(base.labels.size(), static_cast<usize>(d.w.rows));
    EXPECT_EQ(base.refine_residual, 0.0) << "fp64 baseline must not refine";

    struct Rung {
      const char* spec;
      real eig_tol;
      real ari_min;
    };
    // fp32 must reproduce the fp64 partition exactly (ARI floor 1.0 is an
    // equality: ARI <= 1).  bf16's 8-bit mantissa legitimately flips a
    // handful of points sitting on cluster boundaries, so it only has to
    // stay essentially identical.
    for (const Rung r : {Rung{"fp32", 1e-6, 1.0}, Rung{"bf16", 1e-3, 0.99}}) {
      SCOPED_TRACE(r.spec);
      SpectralConfig cfg = pipeline_config(d.k, 1);
      ASSERT_TRUE(parse_precision_policy(r.spec, cfg.precision));
      const SpectralResult narrow = core::spectral_cluster_graph(d.w, cfg);
      // Labels: ARI-identical partitions (up to the bf16 boundary caveat).
      ASSERT_EQ(narrow.labels.size(), base.labels.size());
      EXPECT_GE(metrics::adjusted_rand_index(narrow.labels, base.labels),
                r.ari_min)
          << "narrow-rung labels are not the same partition";
      // Eigenvalues agree to the rung tolerance after fp64 refinement.
      ASSERT_EQ(narrow.eigenvalues.size(), base.eigenvalues.size());
      for (usize i = 0; i < base.eigenvalues.size(); ++i) {
        EXPECT_NEAR(narrow.eigenvalues[i], base.eigenvalues[i], r.eig_tol)
            << "eigenvalue " << i;
      }
      // The refinement actually ran and left a small residual.
      EXPECT_GT(narrow.refine_residual, 0.0);
      EXPECT_LT(narrow.refine_residual, r.eig_tol * 10);
      EXPECT_EQ(narrow.precision_used.base, cfg.precision.base);
      // The narrow rung really moved fewer value bytes: CSR demotion
      // released the fp64 copy, so H2D traffic can only have shrunk.
      EXPECT_LE(narrow.device_counters.bytes_h2d,
                base.device_counters.bytes_h2d);
    }
  }
}

class PrecisionDeviceCount
    : public ::testing::TestWithParam<const char*> {};

TEST_P(PrecisionDeviceCount, LabelsByteIdenticalAcrossDeviceCounts) {
  // The bitwise determinism contract extends to every rung: quantization
  // happens at the same points in the single-device and sharded paths, so
  // labels must memcmp-equal for num_devices in {1, 2, 4}.
  const char* spec = GetParam();
  for (const Dataset& d : paper_datasets()) {
    SCOPED_TRACE(std::string(d.name) + " " + spec);
    SpectralConfig cfg = pipeline_config(d.k, 1);
    ASSERT_TRUE(parse_precision_policy(spec, cfg.precision));
    const SpectralResult base = core::spectral_cluster_graph(d.w, cfg);
    for (const index_t nd : {2, 4}) {
      SCOPED_TRACE("num_devices=" + std::to_string(nd));
      cfg.num_devices = nd;
      const SpectralResult sharded = core::spectral_cluster_graph(d.w, cfg);
      ASSERT_EQ(sharded.labels.size(), base.labels.size());
      EXPECT_EQ(std::memcmp(sharded.labels.data(), base.labels.data(),
                            base.labels.size() * sizeof(index_t)),
                0);
      ASSERT_EQ(sharded.eigenvalues.size(), base.eigenvalues.size());
      for (usize i = 0; i < base.eigenvalues.size(); ++i) {
        EXPECT_NEAR(sharded.eigenvalues[i], base.eigenvalues[i], 1e-8);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rungs, PrecisionDeviceCount,
                         ::testing::Values("fp32", "bf16"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(PrecisionLadder, AutoFallsBackToFp64WhenResidualUnsatisfiable) {
  const data::SbmGraph g =
      data::make_social_graph(data::fb_like_params(600, 3, 1));
  std::vector<index_t> old_of_new;
  const sparse::Coo w = graph::largest_component(g.w, old_of_new);

  SpectralConfig fp64_cfg = pipeline_config(3, 1);
  const SpectralResult want = core::spectral_cluster_graph(w, fp64_cfg);

  SpectralConfig cfg = pipeline_config(3, 1);
  ASSERT_TRUE(parse_precision_policy("auto", cfg.precision));
  // No finite refinement residual can satisfy a zero limit, so the ladder
  // must degrade to the fp64 rung — whose labels are byte-identical to the
  // plain fp64 run.
  cfg.precision.refine_residual_limit = 0.0;
  const SpectralResult got = core::spectral_cluster_graph(w, cfg);
  EXPECT_TRUE(got.precision_used.all_fp64());
  ASSERT_TRUE(got.degradation.degraded);
  bool saw_fallback = false;
  for (const auto& e : got.degradation.events) {
    if (e.action == "precision-fallback") saw_fallback = true;
  }
  EXPECT_TRUE(saw_fallback) << "no precision-fallback degradation recorded";
  ASSERT_EQ(got.labels.size(), want.labels.size());
  EXPECT_EQ(std::memcmp(got.labels.data(), want.labels.data(),
                        want.labels.size() * sizeof(index_t)),
            0);
  for (usize i = 0; i < want.eigenvalues.size(); ++i) {
    EXPECT_EQ(got.eigenvalues[i], want.eigenvalues[i]);
  }

  // Sharded path takes the same ladder.
  cfg.num_devices = 4;
  const SpectralResult sharded = core::spectral_cluster_graph(w, cfg);
  EXPECT_TRUE(sharded.precision_used.all_fp64());
  ASSERT_EQ(sharded.labels.size(), want.labels.size());
  EXPECT_EQ(std::memcmp(sharded.labels.data(), want.labels.data(),
                        want.labels.size() * sizeof(index_t)),
            0);
}

TEST(PrecisionLadder, Fp64PolicyIsBitwiseIdenticalToDefault) {
  // An explicit all-fp64 policy must not perturb anything: same labels,
  // same eigenvalues, bit for bit (the views compile to plain loads).
  const data::PowerlawGraph g =
      data::make_powerlaw({.n = 800, .avg_degree = 8.0, .seed = 7});
  std::vector<index_t> old_of_new;
  const sparse::Coo w = graph::largest_component(g.w, old_of_new);
  const SpectralResult a =
      core::spectral_cluster_graph(w, pipeline_config(4, 1));
  SpectralConfig cfg = pipeline_config(4, 1);
  ASSERT_TRUE(parse_precision_policy("fp64", cfg.precision));
  const SpectralResult b = core::spectral_cluster_graph(w, cfg);
  ASSERT_EQ(a.labels.size(), b.labels.size());
  EXPECT_EQ(std::memcmp(a.labels.data(), b.labels.data(),
                        a.labels.size() * sizeof(index_t)),
            0);
  ASSERT_EQ(a.embedding.size(), b.embedding.size());
  EXPECT_EQ(std::memcmp(a.embedding.data(), b.embedding.data(),
                        a.embedding.size() * sizeof(real)),
            0);
}

}  // namespace
}  // namespace fastsc
