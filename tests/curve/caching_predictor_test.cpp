#include "curve/caching_predictor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "cluster/cluster.hpp"
#include "core/policies/pop_policy.hpp"
#include "obs/sink.hpp"
#include "support/timeline.hpp"
#include "workload/cifar_model.hpp"
#include "workload/trace.hpp"

namespace hyperdrive::curve {
namespace {

/// A predictor that counts invocations and returns a deterministic flat
/// posterior derived from the request.
class CountingPredictor final : public CurvePredictor {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "counting"; }

  [[nodiscard]] CurvePrediction predict(std::span<const double> history,
                                        std::span<const double> future_epochs,
                                        double /*horizon*/) const override {
    ++calls;
    std::vector<double> samples(4 * future_epochs.size(), history.back());
    return CurvePrediction(std::vector<double>(future_epochs.begin(), future_epochs.end()),
                           std::move(samples), 4);
  }

  mutable int calls = 0;
};

TEST(CachingPredictorTest, ValidatesConstruction) {
  EXPECT_THROW(CachingPredictor(nullptr, CachingOptions{4}), std::invalid_argument);
  EXPECT_THROW(CachingPredictor(std::make_shared<CountingPredictor>(), CachingOptions{0}),
               std::invalid_argument);
}

TEST(CachingPredictorTest, RepeatedRequestsHitTheCache) {
  auto inner = std::make_shared<CountingPredictor>();
  CachingPredictor cached(inner, CachingOptions{8});
  const std::vector<double> history = {0.1, 0.2, 0.3};
  const std::vector<double> future = {10.0, 20.0};

  const auto a = cached.predict(history, future, 120.0);
  const auto b = cached.predict(history, future, 120.0);
  EXPECT_EQ(inner->calls, 1);
  EXPECT_EQ(cached.hits(), 1u);
  EXPECT_EQ(cached.misses(), 1u);
  EXPECT_EQ(a.mean_at(0), b.mean_at(0));
}

TEST(CachingPredictorTest, DifferentRequestsMiss) {
  auto inner = std::make_shared<CountingPredictor>();
  CachingPredictor cached(inner, CachingOptions{8});
  const std::vector<double> history = {0.1, 0.2, 0.3};
  (void)cached.predict(history, std::vector<double>{10.0}, 120.0);
  (void)cached.predict(history, std::vector<double>{11.0}, 120.0);  // future differs
  (void)cached.predict(history, std::vector<double>{10.0}, 100.0);  // horizon differs
  (void)cached.predict(std::vector<double>{0.1, 0.2}, std::vector<double>{10.0},
                       120.0);  // history differs
  EXPECT_EQ(inner->calls, 4);
  EXPECT_EQ(cached.hits(), 0u);
}

TEST(CachingPredictorTest, LruEvictsOldestEntry) {
  auto inner = std::make_shared<CountingPredictor>();
  CachingPredictor cached(inner, CachingOptions{2});
  const std::vector<double> h1 = {0.1}, h2 = {0.2}, h3 = {0.3};
  const std::vector<double> future = {5.0};
  (void)cached.predict(h1, future, 120.0);  // miss (h1 cached)
  (void)cached.predict(h2, future, 120.0);  // miss (h2 cached)
  (void)cached.predict(h1, future, 120.0);  // hit, promotes h1
  (void)cached.predict(h3, future, 120.0);  // miss, evicts h2 (LRU)
  (void)cached.predict(h1, future, 120.0);  // hit
  (void)cached.predict(h2, future, 120.0);  // miss (was evicted)
  EXPECT_EQ(inner->calls, 4);
  EXPECT_EQ(cached.hits(), 2u);
  EXPECT_EQ(cached.size(), 2u);
}

/// Thread-safe variant of CountingPredictor for the concurrency hammer.
class AtomicCountingPredictor final : public CurvePredictor {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "atomic-counting"; }

  [[nodiscard]] CurvePrediction predict(std::span<const double> history,
                                        std::span<const double> future_epochs,
                                        double /*horizon*/) const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    std::vector<double> samples(4 * future_epochs.size(), history.back());
    return CurvePrediction(std::vector<double>(future_epochs.begin(), future_epochs.end()),
                           std::move(samples), 4);
  }

  mutable std::atomic<int> calls{0};
};

// N threads hammer one shared instance with overlapping keys. Run under
// TSan in CI (sweep cells share a CachingPredictor across worker threads
// whenever their policies are built from one PolicyContext::predictor, so
// this must be data-race free, not just crash-free).
TEST(CachingPredictorTest, ConcurrentHammerStaysConsistent) {
  auto inner = std::make_shared<AtomicCountingPredictor>();
  CachingPredictor cached(inner, CachingOptions{16});

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 200;
  const std::vector<double> future = {5.0};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cached, &future, t] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        // 32 distinct keys against a 16-entry cache: constant hit/miss/evict
        // churn from every thread.
        const std::vector<double> history = {0.1 + 0.01 * ((t * 7 + i) % 32)};
        const auto prediction = cached.predict(history, future, 120.0);
        // The cached posterior must always be the one for *this* key.
        ASSERT_DOUBLE_EQ(prediction.mean_at(0), history.back());
      }
    });
  }
  for (auto& w : workers) w.join();

  // Every request either hit the cache or went to the inner predictor.
  EXPECT_EQ(cached.hits() + cached.misses(),
            static_cast<std::size_t>(kThreads) * kCallsPerThread);
  // The inner predictor ran at most once per miss (double-insert races may
  // compute a value twice but never corrupt the counters past misses).
  EXPECT_LE(static_cast<std::size_t>(inner->calls.load()), cached.misses());
  EXPECT_LE(cached.size(), 16u);
}

TEST(CachingPredictorTest, WrapHelperSharesSemantics) {
  // The shape core::make_predictor hands out: the decorator behind the base
  // interface.
  auto inner = std::make_shared<CountingPredictor>();
  const std::shared_ptr<const CurvePredictor> cached =
      std::make_shared<CachingPredictor>(inner, CachingOptions{4});
  const std::vector<double> history = {0.5};
  (void)cached->predict(history, std::vector<double>{3.0}, 10.0);
  (void)cached->predict(history, std::vector<double>{3.0}, 10.0);
  EXPECT_EQ(inner->calls, 1);
}

// ---------------------------------------------------------------------------
// Warm-start mode (CachingOptions::warm_start, DESIGN.md §11)
// ---------------------------------------------------------------------------

/// A warm-startable predictor that records whether (and from which prefix)
/// each fit was seeded. Exported warm states are tagged with the history
/// length they were fitted on, so tests can assert exactly which stored
/// posterior seeded a later fit.
class RecordingWarmPredictor final : public CurvePredictor, public WarmStartPredictor {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "recording-warm"; }

  [[nodiscard]] CurvePrediction predict(std::span<const double> history,
                                        std::span<const double> future_epochs,
                                        double horizon) const override {
    return predict_warm(history, future_epochs, horizon, nullptr, nullptr);
  }

  [[nodiscard]] CurvePrediction predict_warm(std::span<const double> history,
                                             std::span<const double> future_epochs,
                                             double /*horizon*/,
                                             const WarmPosterior* warm,
                                             WarmPosterior* out) const override {
    ++fits;
    seeded_from.push_back(warm != nullptr && !warm->empty()
                              ? static_cast<long>(warm->walkers.front())
                              : -1L);
    if (out != nullptr) {
      out->dim = 2;
      out->walkers = {static_cast<double>(history.size()), 0.0};
    }
    std::vector<double> samples(4 * future_epochs.size(), history.back());
    return CurvePrediction(std::vector<double>(future_epochs.begin(), future_epochs.end()),
                           std::move(samples), 4);
  }

  mutable int fits = 0;
  /// Per fit: history length of the seeding posterior, or -1 for cold.
  mutable std::vector<long> seeded_from;
};

TEST(WarmStartTest, GrownPrefixIsSeededFromStoredPosterior) {
  auto inner = std::make_shared<RecordingWarmPredictor>();
  CachingOptions options;
  options.warm_start = true;
  CachingPredictor cached(inner, options);
  const std::vector<double> future = {50.0};

  const std::vector<double> h3 = {0.1, 0.2, 0.3};
  std::vector<double> h5 = h3;
  h5.insert(h5.end(), {0.35, 0.4});

  (void)cached.predict(h3, future, 120.0);  // cold: nothing stored yet
  (void)cached.predict(h5, future, 120.0);  // grown prefix of the same curve
  ASSERT_EQ(inner->seeded_from.size(), 2u);
  EXPECT_EQ(inner->seeded_from[0], -1);  // cold
  EXPECT_EQ(inner->seeded_from[1], 3);   // seeded from the 3-epoch fit
  EXPECT_EQ(cached.warm_hits(), 1u);
  EXPECT_EQ(cached.warm_size(), 2u);  // both fits exported their state
}

TEST(WarmStartTest, LongestStoredPrefixWins) {
  auto inner = std::make_shared<RecordingWarmPredictor>();
  CachingOptions options;
  options.warm_start = true;
  CachingPredictor cached(inner, options);
  const std::vector<double> future = {50.0};

  std::vector<double> history = {0.1, 0.2};
  (void)cached.predict(history, future, 120.0);
  history.insert(history.end(), {0.3, 0.4});
  (void)cached.predict(history, future, 120.0);
  history.insert(history.end(), {0.5, 0.6});
  (void)cached.predict(history, future, 120.0);
  ASSERT_EQ(inner->seeded_from.size(), 3u);
  EXPECT_EQ(inner->seeded_from[2], 4);  // the 4-epoch state, not the 2-epoch one
}

TEST(WarmStartTest, OnByDefaultAndColdForNonPrefixHistories) {
  auto inner = std::make_shared<RecordingWarmPredictor>();
  // Default options (capacity aside): warm seeding engages for a
  // warm-startable inner — the 30-seed property test below is what licenses
  // this default.
  CachingPredictor defaulted(inner, CachingOptions{8});
  const std::vector<double> future = {50.0};
  (void)defaulted.predict(std::vector<double>{0.1, 0.2}, future, 120.0);
  (void)defaulted.predict(std::vector<double>{0.1, 0.2, 0.3}, future, 120.0);
  EXPECT_EQ(inner->seeded_from, (std::vector<long>{-1, 2}));
  EXPECT_EQ(defaulted.warm_hits(), 1u);

  // Opting out still yields a plain cache.
  inner->seeded_from.clear();
  CachingOptions off;
  off.warm_start = false;
  CachingPredictor plain(inner, off);
  (void)plain.predict(std::vector<double>{0.1, 0.2}, future, 120.0);
  (void)plain.predict(std::vector<double>{0.1, 0.2, 0.3}, future, 120.0);
  EXPECT_EQ(inner->seeded_from, (std::vector<long>{-1, -1}));
  EXPECT_EQ(plain.warm_hits(), 0u);
  EXPECT_EQ(plain.warm_size(), 0u);

  // Warm mode, but a history that is not a grown prefix of anything stored
  // (different first epoch) must fit cold.
  inner->seeded_from.clear();
  CachingOptions options;
  options.warm_start = true;
  CachingPredictor cached(inner, options);
  (void)cached.predict(std::vector<double>{0.1, 0.2}, future, 120.0);
  (void)cached.predict(std::vector<double>{0.15, 0.2, 0.3}, future, 120.0);
  EXPECT_EQ(inner->seeded_from, (std::vector<long>{-1, -1}));
}

TEST(WarmStartTest, PlainPredictorUnderWarmModeIsSafe) {
  // warm_start against a non-warm-startable inner silently degrades to a
  // plain cache (dynamic_cast gate).
  auto inner = std::make_shared<CountingPredictor>();
  CachingOptions options;
  options.warm_start = true;
  CachingPredictor cached(inner, options);
  const std::vector<double> future = {5.0};
  (void)cached.predict(std::vector<double>{0.1}, future, 120.0);
  (void)cached.predict(std::vector<double>{0.1, 0.2}, future, 120.0);
  EXPECT_EQ(inner->calls, 2);
  EXPECT_EQ(cached.warm_hits(), 0u);
  EXPECT_EQ(cached.warm_size(), 0u);
}

// ---------------------------------------------------------------------------
// The config-default gate (ISSUE 6): across 30 seeds, warm-posterior reuse
// must yield the same kill/keep decisions and a byte-identical golden
// timeline as cold start on the fig07 CIFAR workload. Warm posteriors are NOT
// bit-identical to cold ones (different walker initialization); the property
// is that POP's *decisions* — and hence the deterministic cluster trace —
// do not change.
// ---------------------------------------------------------------------------

struct Fig07Cell {
  std::vector<std::string> timeline;
  std::vector<std::size_t> epochs_completed;  ///< per job: the kill/keep outcome
  std::size_t warm_hits = 0;
};

Fig07Cell run_fig07_cell(std::uint64_t seed, bool warm_start) {
  // Full 120-epoch fig07 curves, curated the way the warm-start contract
  // demands (DESIGN.md §11): the property "warm and cold chains take the
  // same kill/keep decisions" holds for decisive configs — a clear winner
  // (reaches the target early) plus clear losers (flat well below it). A
  // mid-quality config whose P(reach) hovers at the prune threshold gets a
  // fresh coin flip at every boundary from either chain's sampling noise;
  // such configs are exactly what fig07's suitable_trace curation avoids.
  workload::CifarWorkloadModel model;
  const auto pool = workload::generate_trace(model, 120, /*seed=*/9000 + seed);
  workload::Trace trace = pool;
  trace.jobs.clear();
  for (const auto& job : pool.jobs) {  // one early winner
    const auto reached = job.curve.first_epoch_reaching(pool.target_performance);
    if (reached > 0 && reached <= 80) {
      trace.jobs.push_back(job);
      break;
    }
  }
  if (trace.jobs.empty()) {  // surfaces as a test failure via gtest
    throw std::runtime_error("pool seed has no early winner");
  }
  for (const auto& job : pool.jobs) {  // four clear losers
    if (trace.jobs.size() >= 5) break;
    if (job.curve.best_perf() <= 0.45) trace.jobs.push_back(job);
  }

  PredictorConfig config;
  config.model_names = {"pow3", "weibull", "janoschek"};
  // Enough samples that warm and cold chains agree on every threshold
  // decision: the gate property is empirical, and thin posteriors sit jobs
  // right on POP's prune threshold.
  config.mcmc.nwalkers = 32;
  config.mcmc.nsamples = 800;
  config.mcmc.burn_in = 200;
  config.mcmc.thin = 5;
  config.seed = 0xCAFE ^ seed;
  CachingOptions options;
  options.capacity = 64;
  options.warm_start = warm_start;
  auto cached = std::make_shared<CachingPredictor>(make_mcmc_predictor(config), options);

  core::PopConfig pop;
  pop.predictor = cached;
  pop.tmax = util::SimTime::hours(48);
  // Decide every 20 epochs: enough history per decision that the posterior
  // is decisive for the curated winner/loser split above.
  pop.boundary = 20;
  // The gate property is about kill/keep decisions. Opportunistic rotation
  // is a scheduling *preference* derived from promising-set membership,
  // which rounds S * p at 0.5 — a knife-edge any sampler's noise (warm or
  // cold vs a second cold run with another seed) can land either side of.
  // DESIGN.md §11 scopes the warm-start determinism contract accordingly.
  pop.rotate_opportunistic = false;
  core::PopPolicy policy(std::move(pop));

  obs::RecordingSink sink;
  cluster::ClusterOptions copts;
  copts.machines = 2;
  copts.seed = seed;
  copts.obs.sink = &sink;
  const auto result = cluster::run_cluster_experiment(trace, policy, copts);

  Fig07Cell out;
  out.timeline = timeline(sink);
  for (const auto& js : result.job_stats) out.epochs_completed.push_back(js.epochs_completed);
  out.warm_hits = cached->warm_hits();
  return out;
}

TEST(WarmStartPropertyTest, SameDecisionsAndGoldenTraceAcross30Seeds) {
  std::size_t total_warm_hits = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto cold = run_fig07_cell(seed, /*warm_start=*/false);
    const auto warm = run_fig07_cell(seed, /*warm_start=*/true);
    ASSERT_FALSE(cold.timeline.empty()) << "seed " << seed;
    EXPECT_EQ(cold.epochs_completed, warm.epochs_completed) << "seed " << seed;
    const bool timelines_equal = cold.timeline == warm.timeline;
    EXPECT_TRUE(timelines_equal) << "seed " << seed;
    if (!timelines_equal) {  // surface the first divergence, not a truncated dump
      const std::size_t n = std::min(cold.timeline.size(), warm.timeline.size());
      for (std::size_t i = 0; i < n; ++i) {
        if (cold.timeline[i] != warm.timeline[i]) {
          ADD_FAILURE() << "seed " << seed << " line " << i << ":\n  cold: "
                        << cold.timeline[i] << "\n  warm: " << warm.timeline[i];
          break;
        }
      }
    }
    EXPECT_EQ(cold.warm_hits, 0u) << "seed " << seed;
    total_warm_hits += warm.warm_hits;
  }
  // The property is vacuous unless warm seeding actually engaged.
  EXPECT_GT(total_warm_hits, 0u);
}

}  // namespace
}  // namespace hyperdrive::curve
