#include "core/policy_registry.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/experiment_runner.hpp"
#include "core/policies/asha_policy.hpp"
#include "core/policies/bandit_policy.hpp"
#include "core/policies/default_policy.hpp"
#include "core/policies/earlyterm_policy.hpp"
#include "core/policies/hyperband_policy.hpp"
#include "core/policies/pbt_policy.hpp"
#include "core/policies/pop_policy.hpp"

namespace hyperdrive::core {

// --- PolicyParams ----------------------------------------------------------

PolicyParams PolicyParams::parse(const std::vector<std::string>& tokens) {
  PolicyParams params;
  for (const auto& token : tokens) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
      throw std::invalid_argument("policy option '" + token +
                                  "' is not of the form key=value");
    params.set(token.substr(0, eq), token.substr(eq + 1));
  }
  return params;
}

PolicyParams PolicyParams::parse(const std::string& text) {
  std::istringstream stream(text);
  std::vector<std::string> tokens;
  std::string token;
  while (stream >> token) tokens.push_back(token);
  return parse(tokens);
}

void PolicyParams::set(std::string key, std::string value) {
  if (find(key) != nullptr)
    throw std::invalid_argument("duplicate policy option '" + key + "'");
  kv_.emplace_back(std::move(key), std::move(value));
}

std::string PolicyParams::to_string() const {
  std::string out;
  for (const auto& [key, value] : kv_) {
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

const std::string* PolicyParams::find(const std::string& key) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("policy option '" + key + "': expected " + expected +
                              ", got '" + value + "'");
}

}  // namespace

double PolicyParams::get_double(const std::string& key, double fallback) const {
  const auto* raw = find(key);
  if (raw == nullptr) return fallback;
  consumed_.push_back(key);
  try {
    std::size_t parsed = 0;
    const double value = std::stod(*raw, &parsed);
    if (parsed != raw->size()) bad_value(key, *raw, "a number");
    return value;
  } catch (const std::invalid_argument&) {
    bad_value(key, *raw, "a number");
  } catch (const std::out_of_range&) {
    bad_value(key, *raw, "a number");
  }
}

std::size_t PolicyParams::get_size(const std::string& key, std::size_t fallback) const {
  const auto* raw = find(key);
  if (raw == nullptr) return fallback;
  consumed_.push_back(key);
  if (!raw->empty() && raw->front() == '-')
    bad_value(key, *raw, "a non-negative integer");
  try {
    std::size_t parsed = 0;
    const auto value = std::stoull(*raw, &parsed);
    if (parsed != raw->size()) bad_value(key, *raw, "a non-negative integer");
    return static_cast<std::size_t>(value);
  } catch (const std::invalid_argument&) {
    bad_value(key, *raw, "a non-negative integer");
  } catch (const std::out_of_range&) {
    bad_value(key, *raw, "a non-negative integer");
  }
}

bool PolicyParams::get_bool(const std::string& key, bool fallback) const {
  const auto* raw = find(key);
  if (raw == nullptr) return fallback;
  consumed_.push_back(key);
  if (*raw == "true" || *raw == "on" || *raw == "1") return true;
  if (*raw == "false" || *raw == "off" || *raw == "0") return false;
  bad_value(key, *raw, "true|false");
}

std::string PolicyParams::get_string(const std::string& key, std::string fallback) const {
  const auto* raw = find(key);
  if (raw == nullptr) return fallback;
  consumed_.push_back(key);
  return *raw;
}

std::vector<std::string> PolicyParams::unconsumed() const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : kv_) {
    if (std::find(consumed_.begin(), consumed_.end(), key) == consumed_.end())
      unknown.push_back(key);
  }
  return unknown;
}

// --- Built-in factories ----------------------------------------------------

namespace {

/// The context's shared predictor, else a fresh make_default_predictor(seed)
/// per policy build.
std::shared_ptr<const curve::CurvePredictor> context_predictor(const PolicyContext& ctx) {
  if (ctx.predictor) return ctx.predictor;
  return make_default_predictor(ctx.seed);
}

std::unique_ptr<SchedulingPolicy> make_pop(const PolicyParams& p, const PolicyContext& ctx) {
  PopConfig c;
  c.tmax = ctx.tmax;
  c.target = p.get_double("target", c.target);
  c.boundary = p.get_size("boundary", c.boundary);
  c.kill_threshold = p.get_double("kill-threshold", c.kill_threshold);
  c.prune_confidence = p.get_double("prune-confidence", c.prune_confidence);
  c.slots_per_job = p.get_double("slots-per-job", c.slots_per_job);
  c.min_history = p.get_size("min-history", c.min_history);
  c.rotate_opportunistic = p.get_bool("rotate", c.rotate_opportunistic);
  c.static_threshold = p.get_double("static-threshold", c.static_threshold);
  c.use_kill_threshold = p.get_bool("kill-rule", c.use_kill_threshold);
  c.speed_aware = p.get_bool("speed-aware", c.speed_aware);
  c.degraded_speed = p.get_double("degraded-speed", c.degraded_speed);
  c.dynamic_target_increment =
      p.get_double("dynamic-target-increment", c.dynamic_target_increment);
  c.predictor = context_predictor(ctx);
  return std::make_unique<PopPolicy>(std::move(c));
}

std::unique_ptr<SchedulingPolicy> make_bandit(const PolicyParams& p,
                                              const PolicyContext& /*ctx*/) {
  BanditConfig c;
  c.epsilon = p.get_double("epsilon", c.epsilon);
  c.boundary = p.get_size("boundary", c.boundary);
  return std::make_unique<BanditPolicy>(c);
}

std::unique_ptr<SchedulingPolicy> make_earlyterm(const PolicyParams& p,
                                                 const PolicyContext& ctx) {
  EarlyTermConfig c;
  c.delta = p.get_double("delta", c.delta);
  c.boundary = p.get_size("boundary", c.boundary);
  c.min_history = p.get_size("min-history", c.min_history);
  c.predictor = context_predictor(ctx);
  return std::make_unique<EarlyTermPolicy>(std::move(c));
}

std::unique_ptr<SchedulingPolicy> make_default(const PolicyParams& /*p*/,
                                               const PolicyContext& /*ctx*/) {
  return std::make_unique<DefaultPolicy>();
}

std::unique_ptr<SchedulingPolicy> make_hyperband(const PolicyParams& p,
                                                 const PolicyContext& /*ctx*/) {
  HyperbandConfig c;
  c.min_rung = p.get_size("min-rung", c.min_rung);
  c.eta = p.get_double("eta", c.eta);
  c.num_brackets = p.get_size("brackets", c.num_brackets);
  c.min_rung_population = p.get_size("min-rung-population", c.min_rung_population);
  return std::make_unique<HyperbandPolicy>(c);
}

std::unique_ptr<SchedulingPolicy> make_asha(const PolicyParams& p,
                                            const PolicyContext& /*ctx*/) {
  AshaConfig c;
  c.min_rung = p.get_size("min-rung", c.min_rung);
  c.eta = p.get_double("eta", c.eta);
  c.min_rung_population = p.get_size("min-rung-population", c.min_rung_population);
  c.strict_promotion = p.get_bool("strict", c.strict_promotion);
  return std::make_unique<AshaPolicy>(c);
}

std::unique_ptr<SchedulingPolicy> make_pbt(const PolicyParams& p,
                                           const PolicyContext& ctx) {
  PbtConfig c;
  c.seed = ctx.seed;
  c.boundary = p.get_size("boundary", c.boundary);
  c.bottom_quantile = p.get_double("bottom", c.bottom_quantile);
  c.top_quantile = p.get_double("top", c.top_quantile);
  c.min_population = p.get_size("min-population", c.min_population);
  return std::make_unique<PbtPolicy>(c);
}

PolicyRegistry make_builtin_registry() {
  PolicyRegistry registry;
  registry.add("pop", "predictive POP scheduling (the paper's SAP, §3)", make_pop);
  registry.add("bandit", "TuPAQ-style action elimination (§5.3)", make_bandit);
  registry.add("earlyterm", "Domhan-style predictive termination (§5.3)",
               make_earlyterm);
  registry.add("default", "FIFO, run everything to completion", make_default);
  registry.add("hyperband", "successive halving, losers terminated at rungs",
               make_hyperband);
  registry.add("asha", "asynchronous successive halving, losers paused at rungs",
               make_asha);
  registry.add("pbt", "population based training: clone top-quartile weights, "
               "perturb hyperparameters", make_pbt);
  return registry;
}

}  // namespace

// --- PolicyRegistry --------------------------------------------------------

PolicyRegistry& PolicyRegistry::instance() {
  static PolicyRegistry registry = make_builtin_registry();
  return registry;
}

void PolicyRegistry::add(std::string name, std::string summary, Factory factory) {
  if (has(name)) throw std::invalid_argument("policy '" + name + "' already registered");
  entries_.push_back(Entry{std::move(name), std::move(summary), std::move(factory)});
}

bool PolicyRegistry::has(const std::string& name) const noexcept {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

std::vector<std::string> PolicyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) out.push_back(entry.name);
  return out;
}

std::string PolicyRegistry::name_list(char separator) const {
  std::string out;
  for (const auto& entry : entries_) {
    if (!out.empty()) out += separator;
    out += entry.name;
  }
  return out;
}

std::unique_ptr<SchedulingPolicy> PolicyRegistry::make(const std::string& name,
                                                       const PolicyParams& params,
                                                       const PolicyContext& ctx) const {
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [&](const Entry& e) { return e.name == name; });
  if (it == entries_.end())
    throw std::invalid_argument("unknown policy '" + name + "' (expected one of " +
                                name_list() + ")");
  auto policy = it->factory(params, ctx);
  const auto unknown = params.unconsumed();
  if (!unknown.empty()) {
    std::string joined;
    for (const auto& key : unknown) {
      if (!joined.empty()) joined += ", ";
      joined += '\'' + key + '\'';
    }
    throw std::invalid_argument("policy '" + name + "' does not accept option" +
                                (unknown.size() > 1 ? "s " : " ") + joined);
  }
  return policy;
}

std::unique_ptr<SchedulingPolicy> make_registry_policy(const std::string& name,
                                                       const PolicyParams& params,
                                                       const PolicyContext& ctx) {
  return PolicyRegistry::instance().make(name, params, ctx);
}

std::unique_ptr<SchedulingPolicy> make_standard_policy(const std::string& name,
                                                       std::uint64_t seed,
                                                       util::SimTime tmax) {
  PolicyContext ctx;
  ctx.seed = seed;
  ctx.tmax = tmax;
  return make_registry_policy(name, {}, ctx);
}

}  // namespace hyperdrive::core
