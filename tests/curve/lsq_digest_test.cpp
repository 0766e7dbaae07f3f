// Pinned digests of the least-squares path over a seeded corpus: the LSQ
// predictor's bootstrap samples, CurveEnsemble::initial_theta (the MCMC
// walkers' center) and a small MCMC predict. The expected values were
// recorded from the scalar reference implementation (objectives through
// ParametricModel::eval, one curve evaluation per bootstrap sample); the
// shared-kernel fitter and the bootstrap table must reproduce them bit for
// bit (DESIGN.md §11). They were recorded with GCC 12 and glibc 2.36 on
// x86-64; a libm whose pow/exp/log round differently moves them, and the fix
// is then to re-record them from the reference implementation on that
// platform, not to loosen the check.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "curve/ensemble.hpp"
#include "curve/parametric_models.hpp"
#include "curve/predictor.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hyperdrive::curve {
namespace {

constexpr std::uint64_t kBasis = 1469598103934665603ULL;

/// FNV-1a over the bit patterns of xs (spelled out here so the digests do
/// not depend on the code under test).
std::uint64_t fnv(std::uint64_t h, std::span<const double> xs) {
  for (const double x : xs) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// Corpus curve `seed`: a noisy saturating rise with a seed-dependent
/// asymptote, rate and noise level, clipped to [0.01, 0.99].
std::vector<double> corpus_history(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed * 104729 + 7);
  const double asymptote = rng.uniform(0.3, 0.95);
  const double rate = rng.uniform(0.02, 0.4);
  const double noise = rng.uniform(0.002, 0.03);
  std::vector<double> ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i + 1);
    const double y = asymptote * (1.0 - std::exp(-rate * x)) + rng.normal(0.0, noise);
    ys[i] = std::min(0.99, std::max(0.01, y));
  }
  return ys;
}

/// Every history length 2..120, each with one of the future widths 1, 44 and
/// 96 (epochs n+1..n+width, horizon n+width).
template <class Fn>
void for_each_request(Fn&& fn) {
  constexpr std::size_t kWidths[] = {1, 44, 96};
  for (std::size_t n = 2; n <= 120; ++n) {
    const std::size_t width = kWidths[n % 3];
    std::vector<double> future(width);
    for (std::size_t e = 0; e < width; ++e) future[e] = static_cast<double>(n + 1 + e);
    fn(corpus_history(n, n), future, static_cast<double>(n + width));
  }
}

std::uint64_t lsq_samples_digest(const std::vector<std::string>& names) {
  PredictorConfig config;
  config.model_names = names;
  const auto predictor = make_lsq_predictor(config);
  std::uint64_t h = kBasis;
  for_each_request([&](const std::vector<double>& history, const std::vector<double>& future,
                       double horizon) {
    h = fnv(h, predictor->predict(history, future, horizon).samples());
  });
  return h;
}

std::uint64_t initial_theta_digest(const std::vector<std::string>& names) {
  std::uint64_t h = kBasis;
  for_each_request([&](const std::vector<double>& history, const std::vector<double>&,
                       double horizon) {
    const CurveEnsemble ensemble(make_models(names), horizon);
    h = fnv(h, ensemble.initial_theta(history));
  });
  return h;
}

const std::vector<std::string> kSubset = {"pow3", "weibull", "janoschek"};

TEST(LsqDigestTest, SamplesAllFamilies) {
  EXPECT_EQ(lsq_samples_digest(all_model_names()), 0xafb7c110009c3df8ULL);
}

TEST(LsqDigestTest, SamplesThreeFamilySubset) {
  EXPECT_EQ(lsq_samples_digest(kSubset), 0x8c69ca08f2f61900ULL);
}

TEST(LsqDigestTest, SamplesEachSingleFamily) {
  const std::vector<std::uint64_t> expected = {
      0xc215248d48c5f1b4ULL, 0xd6948774ed3aaddaULL, 0xc1a8cb35c5c5d0a6ULL,
      0xdae497b5304555bdULL, 0x8ae64b1e80238666ULL, 0x6e68f6a6d073a24bULL,
      0x46c7bd0f13a1c4c2ULL, 0x3572929551d863b9ULL, 0x2eeff404e22f04a0ULL,
      0x592be83fe9d63697ULL, 0xc033031e1ae801deULL};
  ASSERT_EQ(all_model_names().size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(lsq_samples_digest({all_model_names()[k]}), expected[k])
        << all_model_names()[k];
  }
}

TEST(LsqDigestTest, InitialThetaAllFamiliesSubsetAndSingles) {
  EXPECT_EQ(initial_theta_digest(all_model_names()), 0xf71ff28a16946094ULL);
  EXPECT_EQ(initial_theta_digest(kSubset), 0x39f91f2389e7c461ULL);
  const std::vector<std::uint64_t> expected = {
      0xad48208b6780c285ULL, 0x37aa419a345cfe19ULL, 0xce64148df793a439ULL,
      0x6cf6c6357d444f9eULL, 0x19b0ede2de7e6db3ULL, 0x849f6f4ebe947f80ULL,
      0x29211245060e66feULL, 0x1b331d43173cfa88ULL, 0x513da069bae0c6c1ULL,
      0x7ab14a2ffa0a550cULL, 0xe720f5d020237181ULL};
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(initial_theta_digest({all_model_names()[k]}), expected[k])
        << all_model_names()[k];
  }
}

TEST(LsqDigestTest, SmallMcmcPredict) {
  PredictorConfig config;
  config.model_names = kSubset;
  config.mcmc.nwalkers = 32;  // >= 2 * dim (dim 15)
  config.mcmc.nsamples = 40;
  config.mcmc.burn_in = 20;
  config.mcmc.thin = 2;
  const auto predictor = make_mcmc_predictor(config);
  std::uint64_t h = kBasis;
  for (const std::size_t n : {5u, 30u, 90u}) {
    std::vector<double> future(44);
    for (std::size_t e = 0; e < future.size(); ++e) future[e] = static_cast<double>(n + 1 + e);
    const auto prediction = predictor->predict(corpus_history(n + 1000, n), future, 140.0);
    h = fnv(h, prediction.samples());
  }
  EXPECT_EQ(h, 0x18793dcfff39dc40ULL);
}

TEST(LsqDigestTest, ConcurrentPredictsMatchSerial) {
  // The fitter and the bootstrap table keep thread_local scratch; threads
  // sharing one predictor, each walking the requests in its own order (so
  // every thread's tables see different shapes), must neither race (the
  // TSan job's filter includes Lsq) nor change a byte. Plain threads fan
  // their fits out to idle cores (util::fan_out); parallel_for workers, as
  // in a sweep, fit inline. Both arms must match the serial samples.
  const auto predictor = make_lsq_predictor(PredictorConfig{});
  struct Request {
    std::vector<double> history, future;
  };
  std::vector<Request> requests;
  for (const std::size_t n : {3u, 17u, 30u, 64u, 120u}) {
    Request r{corpus_history(n, n), std::vector<double>(n % 2 == 0 ? 96 : 44)};
    for (std::size_t e = 0; e < r.future.size(); ++e) r.future[e] = static_cast<double>(n + 1 + e);
    requests.push_back(std::move(r));
  }
  std::vector<std::uint64_t> serial;
  for (const auto& r : requests) {
    serial.push_back(fnv(kBasis, predictor->predict(r.history, r.future, 240.0).samples()));
  }
  constexpr std::size_t kThreads = 4;
  using Digests = std::vector<std::vector<std::uint64_t>>;
  const auto walk = [&](std::size_t t, Digests& out) {
    for (std::size_t j = 0; j < requests.size(); ++j) {
      const std::size_t i = (j + t) % requests.size();
      const auto& r = requests[i];
      out[t][i] = fnv(kBasis, predictor->predict(r.history, r.future, 240.0).samples());
    }
  };
  Digests threaded(kThreads, std::vector<std::uint64_t>(requests.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) threads.emplace_back([&, t] { walk(t, threaded); });
  for (auto& th : threads) th.join();
  Digests workers(kThreads, std::vector<std::uint64_t>(requests.size()));
  util::parallel_for(kThreads, kThreads, [&](std::size_t t) { walk(t, workers); });
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(threaded[t], serial) << "thread " << t;
    EXPECT_EQ(workers[t], serial) << "parallel_for worker " << t;
  }
}

/// A family with no table kernel: y = c - a / x.
class ReciprocalModel final : public ParametricModel {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "reciprocal"; }
  [[nodiscard]] std::size_t num_params() const noexcept override { return 2; }
  [[nodiscard]] const std::vector<ParamBounds>& bounds() const noexcept override {
    static const std::vector<ParamBounds> box = {{0.0, 1.5}, {0.0, 2.0}};
    return box;
  }
  [[nodiscard]] double eval(double x, std::span<const double> t) const noexcept override {
    return t[0] - t[1] / x;
  }
  [[nodiscard]] std::vector<double> initial_guess(std::span<const double>) const override {
    return {0.5, 0.5};
  }
};

TEST(LsqDigestTest, CustomModelFitsThroughInitialTheta) {
  // Exact data from the custom family: the fit must recover its parameters
  // through the model's own eval (no kernel exists for it), next to a
  // built-in family that takes the kernel path in the same ensemble.
  std::vector<double> ys(25);
  for (std::size_t i = 0; i < ys.size(); ++i) ys[i] = 0.8 - 0.6 / static_cast<double>(i + 1);
  auto models = make_models({"pow3"});
  models.insert(models.begin(), std::make_unique<ReciprocalModel>());
  const CurveEnsemble ensemble(std::move(models), 60.0);
  const auto theta = ensemble.initial_theta(ys);
  EXPECT_NEAR(theta[0], 0.8, 1e-3);
  EXPECT_NEAR(theta[1], 0.6, 1e-3);
  EXPECT_EQ(fnv(kBasis, theta), 0x43394c8e4108f3d6ULL);
}

}  // namespace
}  // namespace hyperdrive::curve
