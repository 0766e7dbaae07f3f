// Behaviour-transparent timing wrappers for the traced run. Each forwards
// every virtual call of the interface it wraps to the wrapped object inside a
// span, and adds nothing else, so a traced cell takes exactly the decisions
// of an untraced one (the sweep checks compare the two tables byte for byte).
#pragma once

#include <memory>
#include <utility>

#include "core/sap.hpp"
#include "curve/predictor.hpp"
#include "spans.hpp"

namespace perfbench {

/// Times CurvePredictor::predict as `layer`.
class TimedPredictor : public hyperdrive::curve::CurvePredictor {
 public:
  TimedPredictor(std::shared_ptr<const hyperdrive::curve::CurvePredictor> inner, Layer layer)
      : inner_(std::move(inner)), layer_(layer) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }

  [[nodiscard]] hyperdrive::curve::CurvePrediction predict(
      std::span<const double> history, std::span<const double> future_epochs,
      double horizon) const override {
    ScopedSpan span(layer_);
    return inner_->predict(history, future_epochs, horizon);
  }

 protected:
  std::shared_ptr<const hyperdrive::curve::CurvePredictor> inner_;
  Layer layer_;
};

/// As TimedPredictor for a warm-startable inner predictor: also forwards
/// predict_warm, so CachingPredictor's dynamic_cast still finds the
/// WarmStartPredictor interface and warm start stays on.
class TimedWarmPredictor final : public TimedPredictor,
                                 public hyperdrive::curve::WarmStartPredictor {
 public:
  TimedWarmPredictor(std::shared_ptr<const hyperdrive::curve::CurvePredictor> inner,
                     const hyperdrive::curve::WarmStartPredictor& warm, Layer layer)
      : TimedPredictor(std::move(inner), layer), warm_(warm) {}

  [[nodiscard]] hyperdrive::curve::CurvePrediction predict_warm(
      std::span<const double> history, std::span<const double> future_epochs,
      double horizon, const hyperdrive::curve::WarmPosterior* warm,
      hyperdrive::curve::WarmPosterior* out) const override {
    ScopedSpan span(layer_);
    return warm_.predict_warm(history, future_epochs, horizon, warm, out);
  }

 private:
  const hyperdrive::curve::WarmStartPredictor& warm_;  ///< *inner_, kept alive by it
};

/// Wrap `inner`, keeping its warm-start capability if it has one.
[[nodiscard]] inline std::shared_ptr<const hyperdrive::curve::CurvePredictor> timed(
    std::shared_ptr<const hyperdrive::curve::CurvePredictor> inner, Layer layer) {
  if (const auto* warm =
          dynamic_cast<const hyperdrive::curve::WarmStartPredictor*>(inner.get())) {
    return std::make_shared<TimedWarmPredictor>(std::move(inner), *warm, layer);
  }
  return std::make_shared<TimedPredictor>(std::move(inner), layer);
}

/// Times all five SchedulingPolicy up-calls as Layer::Upcall.
class TimedPolicy final : public hyperdrive::core::SchedulingPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<hyperdrive::core::SchedulingPolicy> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }

  void on_allocate(hyperdrive::core::SchedulerOps& ops) override {
    ScopedSpan span(Layer::Upcall);
    inner_->on_allocate(ops);
  }
  void on_application_stat(hyperdrive::core::SchedulerOps& ops,
                           const hyperdrive::core::JobEvent& event) override {
    ScopedSpan span(Layer::Upcall);
    inner_->on_application_stat(ops, event);
  }
  hyperdrive::core::JobDecision on_iteration_finish(
      hyperdrive::core::SchedulerOps& ops, const hyperdrive::core::JobEvent& event) override {
    ScopedSpan span(Layer::Upcall);
    return inner_->on_iteration_finish(ops, event);
  }
  void on_experiment_start(hyperdrive::core::SchedulerOps& ops) override {
    ScopedSpan span(Layer::Upcall);
    inner_->on_experiment_start(ops);
  }
  void on_capacity_change(hyperdrive::core::SchedulerOps& ops) override {
    ScopedSpan span(Layer::Upcall);
    inner_->on_capacity_change(ops);
  }

 private:
  std::unique_ptr<hyperdrive::core::SchedulingPolicy> inner_;
};

}  // namespace perfbench
