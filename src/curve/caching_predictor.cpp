#include "curve/caching_predictor.hpp"

#include <stdexcept>

#include "util/hash.hpp"

namespace hyperdrive::curve {

using util::hash_doubles;
using util::kFnvBasis;

CachingPredictor::CachingPredictor(std::shared_ptr<const CurvePredictor> inner,
                                   CachingOptions options)
    : inner_(std::move(inner)), options_(options) {
  if (!inner_) throw std::invalid_argument("CachingPredictor needs an inner predictor");
  if (options_.capacity == 0) throw std::invalid_argument("cache capacity must be >= 1");
  if (options_.warm_start && options_.warm_capacity == 0) {
    throw std::invalid_argument("warm cache capacity must be >= 1");
  }
  if (options_.warm_start) {
    warm_inner_ = dynamic_cast<const WarmStartPredictor*>(inner_.get());
  }
}

CurvePrediction CachingPredictor::predict(std::span<const double> history,
                                          std::span<const double> future_epochs,
                                          double horizon) const {
  std::uint64_t key = kFnvBasis;
  key = hash_doubles(key, history);
  key = hash_doubles(key, future_epochs);
  key = hash_doubles(key, std::span<const double>(&horizon, 1));

  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);  // promote to front
      return it->second->prediction;
    }
    ++misses_;
  }

  // Compute outside the lock: concurrent misses on different keys must not
  // serialize on the inner LSQ/MCMC work (inner predictors are stateless).
  CurvePrediction prediction;
  if (warm_inner_ != nullptr) {
    // A job's history grows by appended epochs, so the posterior of this
    // curve's most recent fit is stored under a hash of a strict prefix.
    // Evaluation boundaries may skip epochs, so scan prefixes longest-first.
    WarmPosterior seed;
    bool have_seed = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t m = history.size(); m-- > 1 && !have_seed;) {
        const std::uint64_t wkey = hash_doubles(kFnvBasis, history.subspan(0, m));
        const auto it = warm_cache_.find(wkey);
        if (it != warm_cache_.end()) {
          seed = it->second->state;  // copy out; the fit runs outside the lock
          warm_lru_.splice(warm_lru_.begin(), warm_lru_, it->second);
          ++warm_hits_;
          have_seed = true;
        }
      }
    }
    WarmPosterior out;
    prediction = warm_inner_->predict_warm(history, future_epochs, horizon,
                                           have_seed ? &seed : nullptr, &out);
    if (!out.empty()) {
      const std::uint64_t wkey = hash_doubles(kFnvBasis, history);
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = warm_cache_.find(wkey);
      if (it != warm_cache_.end()) {
        it->second->state = std::move(out);
        warm_lru_.splice(warm_lru_.begin(), warm_lru_, it->second);
      } else {
        warm_lru_.push_front(WarmEntry{wkey, std::move(out)});
        warm_cache_[wkey] = warm_lru_.begin();
        if (warm_cache_.size() > options_.warm_capacity) {
          warm_cache_.erase(warm_lru_.back().key);
          warm_lru_.pop_back();
        }
      }
    }
  } else {
    prediction = inner_->predict(history, future_epochs, horizon);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  if (cache_.find(key) == cache_.end()) {  // another thread may have raced us
    lru_.push_front(Entry{key, prediction});
    cache_[key] = lru_.begin();
    if (cache_.size() > options_.capacity) {
      cache_.erase(lru_.back().key);
      lru_.pop_back();
    }
  }
  return prediction;
}

std::size_t CachingPredictor::hits() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t CachingPredictor::misses() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::size_t CachingPredictor::size() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return cache_.size();
}

std::size_t CachingPredictor::warm_hits() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return warm_hits_;
}

std::size_t CachingPredictor::warm_size() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return warm_cache_.size();
}

}  // namespace hyperdrive::curve
