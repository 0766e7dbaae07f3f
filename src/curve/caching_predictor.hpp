// CachingPredictor — a memoizing decorator around any CurvePredictor.
//
// The Node Agents (§5.2) keep per-job curve histories locally and only
// recompute a prediction when the job's history has grown past a new
// evaluation boundary. Since policies may consult the predictor repeatedly
// for the same (history, horizon) — e.g. POP's classification runs on every
// active job's boundary — memoizing the posterior avoids redundant MCMC/LSQ
// work. Predictors are deterministic per (config, history), so caching is
// semantics-preserving.
//
// Warm-start mode (CachingOptions::warm_start, off by default): when the
// inner predictor implements WarmStartPredictor, the decorator also keeps an
// LRU of final posterior walker states keyed by history. A miss for a grown
// prefix of a previously fitted curve seeds the new fit's walkers from the
// stored posterior instead of the cold LSQ+jitter start, skipping the
// per-family Nelder–Mead fits (DESIGN.md §11 documents the determinism
// contract: same kill/keep decisions, not byte-identical posteriors).
//
// Thread safety: a single instance may be shared across threads (e.g. sweep
// cells hammering one predictor). The LRU state and hit/miss counters are
// guarded by an internal mutex; the inner predictor runs outside the lock,
// so concurrent misses do not serialize on the expensive LSQ/MCMC work.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "curve/predictor.hpp"

namespace hyperdrive::curve {

struct CachingOptions {
  /// LRU capacity for memoized predictions.
  std::size_t capacity = 256;
  /// Seed MCMC fits from the previous posterior of the same curve. Only
  /// takes effect when the inner predictor implements WarmStartPredictor;
  /// otherwise silently behaves like a plain cache. On by default since the
  /// 30-seed decision-invariance gate (WarmStartPropertyTest) pinned that
  /// warm seeding changes no scheduling decision and no golden trace; see
  /// DESIGN.md §11 for the knife-edge rotation caveat before relying on it
  /// in new knife-edge-sensitive comparisons.
  bool warm_start = true;
  /// LRU capacity for stored warm posterior states.
  std::size_t warm_capacity = 512;
};

class CachingPredictor final : public CurvePredictor {
 public:
  /// Wraps `inner` with an LRU cache of `options.capacity` predictions (and,
  /// in warm-start mode, `options.warm_capacity` posterior states).
  CachingPredictor(std::shared_ptr<const CurvePredictor> inner, CachingOptions options);

  [[nodiscard]] std::string_view name() const noexcept override { return "caching"; }

  [[nodiscard]] CurvePrediction predict(std::span<const double> history,
                                        std::span<const double> future_epochs,
                                        double horizon) const override;

  [[nodiscard]] std::size_t hits() const noexcept;
  [[nodiscard]] std::size_t misses() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept;
  /// Number of fits that were seeded from a stored warm posterior.
  [[nodiscard]] std::size_t warm_hits() const noexcept;
  /// Number of warm posterior states currently stored.
  [[nodiscard]] std::size_t warm_size() const noexcept;

 private:
  struct Entry {
    std::uint64_t key;
    CurvePrediction prediction;
  };
  struct WarmEntry {
    std::uint64_t key;
    WarmPosterior state;
  };

  std::shared_ptr<const CurvePredictor> inner_;
  const WarmStartPredictor* warm_inner_ = nullptr;  ///< inner_, if warm-startable
  CachingOptions options_;
  // LRU: most-recent at the front; map points into the list. All members
  // below are guarded by mutex_ (predict() is const but mutates).
  mutable std::mutex mutex_;
  mutable std::list<Entry> lru_;
  mutable std::unordered_map<std::uint64_t, std::list<Entry>::iterator> cache_;
  mutable std::list<WarmEntry> warm_lru_;
  mutable std::unordered_map<std::uint64_t, std::list<WarmEntry>::iterator> warm_cache_;
  mutable std::size_t hits_ = 0;
  mutable std::size_t misses_ = 0;
  mutable std::size_t warm_hits_ = 0;
};

}  // namespace hyperdrive::curve
