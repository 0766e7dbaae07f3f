#include "curve/batch_evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace hyperdrive::curve {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kLog2Pi = 1.8378770664093453;

/// True when the sampler's acceptance test is provably false for every final
/// log-probability <= `bound`. Exact under IEEE rounding: the acceptance
/// expression is evaluated with the sampler's own operand order, and fl-add/
/// fl-sub are monotone in each operand, so ratio(cand_lp) <= ratio(bound)
/// whenever cand_lp <= bound. NaN ratios never prune (bound unknown).
bool rejected_at_or_below(const AcceptanceCutoff& cut, double bound) {
  const double ratio = cut.a_term + bound - cut.logp_cur;
  return !std::isnan(ratio) && !(cut.log_u < ratio);
}

/// One walker's parameter block in the struct-of-arrays transpose:
/// parameter d sits `stride` doubles after parameter d-1.
struct Column {
  const double* first;
  std::size_t stride;
  double operator[](std::size_t d) const noexcept { return first[d * stride]; }
};
}  // namespace

void BatchEvaluator::reset(const CurveEnsemble& ensemble) {
  dim_ = ensemble.dim();
  weight_offset_ = ensemble.weight_offset();
  horizon_ = ensemble.horizon();
  const std::size_t nfam = ensemble.num_models();
  families_.clear();
  families_.reserve(nfam);
  bounds_lo_.resize(weight_offset_);
  bounds_hi_.resize(weight_offset_);
  for (std::size_t k = 0; k < nfam; ++k) {
    const auto& model = ensemble.model(k);
    const auto kind = family_of(model.name());
    if (!kind) {
      throw std::invalid_argument("BatchEvaluator: unfusable model family: " +
                                  std::string(model.name()));
    }
    const Slot slot{*kind, ensemble.param_offset(k)};
    families_.push_back(slot);
    const auto& box = model.bounds();
    for (std::size_t d = 0; d < box.size(); ++d) {
      bounds_lo_[slot.offset + d] = box[d].lo;
      bounds_hi_[slot.offset + d] = box[d].hi;
    }
  }
  wn_.resize(nfam);
  hoist_.resize(nfam);
}

void BatchEvaluator::bind(std::span<const double> ys) {
  if (dim_ == 0) throw std::logic_error("BatchEvaluator: bind() before reset()");
  ys_.assign(ys.begin(), ys.end());
  const std::size_t n = ys_.size();
  points_.resize(n + 1);
  for (std::size_t i = 0; i < n; ++i) points_[i] = EpochPoint::at(static_cast<double>(i + 1));
  points_[n] = EpochPoint::at(horizon_);
}

double BatchEvaluator::eval_slot(std::size_t idx, std::span<const double> theta)
    const noexcept {
  const EpochPoint& point = points_[idx];
  double y = 0.0;
  for (std::size_t k = 0; k < families_.size(); ++k) {
    if (theta[weight_offset_ + k] <= 0.0) continue;
    const double* t = theta.data() + families_[k].offset;
    const double fk = visit_family(families_[k].kind, [&](auto tag) {
      return family_eval<decltype(tag)::value>(point, t, hoist_[k]);
    });
    if (!std::isfinite(fk)) return std::nan("");
    y += wn_[k] * fk;
  }
  return y;
}

double BatchEvaluator::log_prob(std::span<const double> theta) {
  return log_prob_impl(theta, nullptr);
}

double BatchEvaluator::log_prob_cutoff(std::span<const double> theta,
                                       const AcceptanceCutoff& cutoff) {
  return log_prob_impl(theta, &cutoff);
}

double BatchEvaluator::log_prob_impl(std::span<const double> theta,
                                     const AcceptanceCutoff* cutoff) {
  if (theta.size() != dim_) return kNegInf;
  for (std::size_t j = 0; j < weight_offset_; ++j) {
    const double v = theta[j];
    if (v < bounds_lo_[j] || v > bounds_hi_[j]) return kNegInf;
  }
  const std::size_t nfam = families_.size();
  double weight_total = 0.0;
  for (std::size_t k = 0; k < nfam; ++k) {
    const double w = theta[weight_offset_ + k];
    if (w < 0.0 || w > 1.0) return kNegInf;
    weight_total += w;
  }
  if (weight_total <= 1e-12) return kNegInf;
  const double log_sigma = theta[dim_ - 1];
  if (log_sigma < kPriorLogSigmaLo || log_sigma > kPriorLogSigmaHi) return kNegInf;

  // Early-rejection bound: every likelihood term is
  //   -0.5 * (r^2 * inv_var + kLog2Pi) - log_sigma  <=  t_max
  // with t_max below, because r^2 * inv_var >= 0 and each fl-op is monotone.
  // Folding t_max through the same accumulation the loop performs gives an
  // exact float upper bound on the final log-prob; if even that bound cannot
  // pass the published acceptance draw, the candidate is rejected without
  // evaluating a single curve point. The same fold prunes mid-loop below.
  const std::size_t n_epochs = ys_.size();
  const double t_max =
      cutoff != nullptr ? -0.5 * kLog2Pi - log_sigma
                        : std::numeric_limits<double>::quiet_NaN();
  if (cutoff != nullptr) {
    double bound = 0.0;
    for (std::size_t j = 0; j < n_epochs; ++j) bound += t_max;
    if (rejected_at_or_below(*cutoff, bound)) return kNegInf;
  }

  // Normalized mixture weights over the active (w > 0) components — the
  // same division eval() performs per epoch, hoisted out of the loop.
  double wsum = 0.0;
  for (std::size_t k = 0; k < nfam; ++k) {
    const double w = theta[weight_offset_ + k];
    if (w > 0.0) wsum += w;
  }
  if (wsum <= 0.0) return kNegInf;  // eval() would be NaN at every epoch
  for (std::size_t k = 0; k < nfam; ++k) {
    const double w = theta[weight_offset_ + k];
    // NaN weights stay NaN here: the reference eval() does not skip them
    // (NaN fails w <= 0), so they must poison the accumulated curve value.
    wn_[k] = w <= 0.0 ? 0.0 : w / wsum;
    hoist_[k] = 0.0;
    if (w > 0.0) {
      const double* t = theta.data() + families_[k].offset;
      hoist_[k] = visit_family(families_[k].kind, [&](auto tag) {
        return family_hoist<decltype(tag)::value>(t);
      });
    }
  }

  const double sigma = std::exp(log_sigma);
  const double inv_var = 1.0 / (sigma * sigma);
  const std::size_t n = ys_.size();
  double ll = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double f = eval_slot(i, theta);
    if (!std::isfinite(f) || f < kPriorYLo || f > kPriorYHi) return kNegInf;
    const double r = ys_[i] - f;
    ll += -0.5 * (r * r * inv_var + kLog2Pi) - log_sigma;
    if (cutoff != nullptr) {
      double bound = ll;
      for (std::size_t j = i + 1; j < n; ++j) bound += t_max;
      if (rejected_at_or_below(*cutoff, bound)) return kNegInf;
    }
  }
  const double f_end = eval_slot(n, theta);
  if (!std::isfinite(f_end) || f_end < kPriorYLo || f_end > kPriorYHi) return kNegInf;
  if (n > 0 && f_end < ys_.back() - kPriorMaxDecrease) return kNegInf;
  return ll;  // log_prior contributes exactly 0.0 inside the support
}

void BatchEvaluator::log_prob_batch(std::span<const double> thetas, std::size_t rows,
                                    std::span<double> out) {
  if (rows == 0) return;
  const std::size_t row_dim = thetas.size() / rows;
  if (row_dim != dim_) {
    for (std::size_t r = 0; r < rows; ++r) {
      out[r] = log_prob(thetas.subspan(r * row_dim, row_dim));
    }
    return;
  }
  const std::size_t nfam = families_.size();

  // Transpose into struct-of-arrays: parameter j of row r at soa_[j*rows+r],
  // so the per-family loops below stream contiguously across walkers.
  soa_.resize(dim_ * rows);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < dim_; ++j) {
      soa_[j * rows + r] = thetas[r * dim_ + j];
    }
  }

  live_.assign(rows, 1);
  ll_b_.assign(rows, 0.0);
  wn_b_.resize(nfam * rows);
  wact_b_.resize(nfam * rows);
  hoist_b_.resize(nfam * rows);
  inv_var_b_.resize(rows);
  log_sigma_b_.resize(rows);

  // Per-row support checks and hoists (bounds, weight box, sigma box,
  // normalized weights, per-family constants) — same order as log_prob.
  for (std::size_t r = 0; r < rows; ++r) {
    const double* th = thetas.data() + r * dim_;
    bool ok = true;
    for (std::size_t j = 0; j < weight_offset_; ++j) {
      const double v = th[j];
      if (v < bounds_lo_[j] || v > bounds_hi_[j]) {
        ok = false;
        break;
      }
    }
    double weight_total = 0.0;
    if (ok) {
      for (std::size_t k = 0; k < nfam; ++k) {
        const double w = th[weight_offset_ + k];
        if (w < 0.0 || w > 1.0) {
          ok = false;
          break;
        }
        weight_total += w;
      }
    }
    if (ok && weight_total <= 1e-12) ok = false;
    const double log_sigma = th[dim_ - 1];
    if (ok && (log_sigma < kPriorLogSigmaLo || log_sigma > kPriorLogSigmaHi)) {
      ok = false;
    }
    double wsum = 0.0;
    if (ok) {
      for (std::size_t k = 0; k < nfam; ++k) {
        const double w = th[weight_offset_ + k];
        if (w > 0.0) wsum += w;
      }
      if (wsum <= 0.0) ok = false;
    }
    if (!ok) {
      out[r] = kNegInf;
      live_[r] = 0;
      continue;
    }
    for (std::size_t k = 0; k < nfam; ++k) {
      const double w = th[weight_offset_ + k];
      const bool active = !(w <= 0.0);  // NaN weights stay active, see eval()
      wact_b_[k * rows + r] = active ? 1 : 0;
      wn_b_[k * rows + r] = active ? w / wsum : 0.0;
      double h = 0.0;
      if (w > 0.0) {
        const double* t = th + families_[k].offset;
        h = visit_family(families_[k].kind,
                         [&](auto tag) { return family_hoist<decltype(tag)::value>(t); });
      }
      hoist_b_[k * rows + r] = h;
    }
    log_sigma_b_[r] = log_sigma;
    const double sigma = std::exp(log_sigma);
    inv_var_b_[r] = 1.0 / (sigma * sigma);
  }

  // Fused epoch sweep: slot n is the horizon. Accumulating wn*fk in family
  // order per row reproduces eval()'s sum bit-for-bit; a non-finite component
  // poisons the row's accumulator, which the sanity check then rejects —
  // the same outcome as eval()'s early NaN return.
  const std::size_t n = ys_.size();
  acc_.resize(rows);
  for (std::size_t i = 0; i <= n; ++i) {
    const EpochPoint& point = points_[i];
    std::fill(acc_.begin(), acc_.end(), 0.0);
    for (std::size_t k = 0; k < nfam; ++k) {
      const Slot& slot = families_[k];
      const double* p = soa_.data() + slot.offset * rows;
      const double* wn = wn_b_.data() + k * rows;
      const unsigned char* wact = wact_b_.data() + k * rows;
      const double* hp = hoist_b_.data() + k * rows;
      visit_family(slot.kind, [&](auto tag) {
        for (std::size_t r = 0; r < rows; ++r) {
          if (!live_[r] || !wact[r]) continue;
          const Column t{p + r, rows};
          acc_[r] += wn[r] * family_eval<decltype(tag)::value>(point, t, hp[r]);
        }
      });
    }
    if (i < n) {
      for (std::size_t r = 0; r < rows; ++r) {
        if (!live_[r]) continue;
        const double f = acc_[r];
        if (!std::isfinite(f) || f < kPriorYLo || f > kPriorYHi) {
          out[r] = kNegInf;
          live_[r] = 0;
          continue;
        }
        const double res = ys_[i] - f;
        ll_b_[r] += -0.5 * (res * res * inv_var_b_[r] + kLog2Pi) - log_sigma_b_[r];
      }
    } else {
      for (std::size_t r = 0; r < rows; ++r) {
        if (!live_[r]) continue;
        const double f_end = acc_[r];
        if (!std::isfinite(f_end) || f_end < kPriorYLo || f_end > kPriorYHi ||
            (n > 0 && f_end < ys_.back() - kPriorMaxDecrease)) {
          out[r] = kNegInf;
          live_[r] = 0;
          continue;
        }
        out[r] = ll_b_[r];
      }
    }
  }
}

double BatchEvaluator::eval_curve(double x, std::span<const double> theta) const noexcept {
  double wsum = 0.0;
  for (std::size_t k = 0; k < families_.size(); ++k) {
    const double w = theta[weight_offset_ + k];
    if (w > 0.0) wsum += w;
  }
  if (wsum <= 0.0) return std::nan("");
  const EpochPoint point = EpochPoint::at(x);
  double y = 0.0;
  for (std::size_t k = 0; k < families_.size(); ++k) {
    const double w = theta[weight_offset_ + k];
    if (w <= 0.0) continue;
    const double* t = theta.data() + families_[k].offset;
    const double fk = visit_family(families_[k].kind, [&](auto tag) {
      constexpr Family kF = decltype(tag)::value;
      return family_eval<kF>(point, t, family_hoist<kF>(t));
    });
    if (!std::isfinite(fk)) return std::nan("");
    y += (w / wsum) * fk;
  }
  return y;
}

}  // namespace hyperdrive::curve
