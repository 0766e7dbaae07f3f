#include "curve/lsq_fit.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace hyperdrive::curve {

namespace {

using Params = std::array<double, kNelderMeadMaxDim>;

/// EpochPoint::at(i + 1) for i < n, from a per-thread table that only grows
/// (the constants depend on the epoch index alone). The span stays valid
/// until the calling thread asks for a longer prefix.
std::span<const EpochPoint> prefix_epochs(std::size_t n) {
  thread_local std::vector<EpochPoint> table;
  while (table.size() < n) {
    table.push_back(EpochPoint::at(static_cast<double>(table.size() + 1)));
  }
  return {table.data(), n};
}

/// Nelder–Mead over the clamped mean squared residual. `hoist(p)` returns
/// the per-parameter-vector constant, `eval(epoch, p, h)` the curve value.
template <class Hoist, class Eval>
FamilyFit fit_with(const std::vector<ParamBounds>& box, std::span<const double> ys,
                   std::span<const double> x0, const Hoist& hoist, const Eval& eval) {
  const std::size_t np = box.size();
  const auto epochs = prefix_epochs(ys.size());
  const double denom = static_cast<double>(std::max<std::size_t>(1, ys.size()));
  auto objective = [&](std::span<const double> raw) {
    Params p{};
    for (std::size_t d = 0; d < np; ++d) p[d] = std::clamp(raw[d], box[d].lo, box[d].hi);
    const double h = hoist(p);
    double mse = 0.0;
    for (std::size_t i = 0; i < ys.size(); ++i) {
      const double f = eval(epochs[i], p, h);
      if (!std::isfinite(f)) return std::numeric_limits<double>::infinity();
      const double r = ys[i] - f;
      mse += r * r;
    }
    return mse / denom;
  };
  const NelderMeadResult result = nelder_mead(objective, x0);
  FamilyFit fit;
  for (std::size_t d = 0; d < np; ++d) {
    fit.params[d] = std::clamp(result.x[d], box[d].lo, box[d].hi);
  }
  fit.mse = result.fx;
  return fit;
}

/// Fit `model` (whose table kernel is `kind`, or nullopt to evaluate through
/// the model) to ys.
FamilyFit fit_family(const ParametricModel& model, std::optional<Family> kind,
                     std::span<const double> ys) {
  const auto& box = model.bounds();
  if (box.size() > kNelderMeadMaxDim) {
    throw std::invalid_argument("fit_family: more parameters than kNelderMeadMaxDim");
  }
  const std::vector<double> x0 = model.initial_guess(ys);
  if (!kind) {
    const std::size_t np = box.size();
    return fit_with(
        box, ys, x0, [](const Params&) { return 0.0; },
        [&model, np](const EpochPoint& e, const Params& p, double) {
          return model.eval(e.x, std::span<const double>(p.data(), np));
        });
  }
  return visit_family(*kind, [&](auto tag) {
    constexpr Family kF = decltype(tag)::value;
    return fit_with(
        box, ys, x0, [](const Params& p) { return family_hoist<kF>(p); },
        [](const EpochPoint& e, const Params& p, double h) {
          return family_eval<kF>(e, p, h);
        });
  });
}

}  // namespace

void fit_families(std::span<const std::unique_ptr<ParametricModel>> models,
                  std::span<const double> ys, std::span<FamilyFit> fits) {
  if (fits.size() != models.size()) {
    throw std::invalid_argument("fit_families: one fit slot per model");
  }
  util::fan_out(models.size(), [&](std::size_t k) {
    fits[k] = fit_family(*models[k], family_of(models[k]->name()), ys);
  });
}

}  // namespace hyperdrive::curve
