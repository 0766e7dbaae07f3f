// PolicyRegistry — the scheduling-policy zoo (DESIGN.md §13).
//
// Every SAP is registered under a stable name with a factory taking a typed
// key=value parameter bag (PolicyParams) and the ambient construction inputs
// (PolicyContext: seed, Tmax, optional shared predictor). All
// policy construction by name — CLI --policy, StudySpec policy lines, sweep
// axes, bench comparisons, checkpoint resume — goes through this one table,
// so help text, validation, and spec round-trips can never drift from the
// actual policy set.
//
// A built-in factory given an empty parameter bag builds the same policy as
// direct construction from the policy's default config struct, byte-for-byte:
// predictor-backed policies (pop, earlyterm) get the context's predictor or
// their own make_default_predictor(seed), and pop adopts the context's Tmax.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sap.hpp"
#include "curve/predictor.hpp"
#include "util/sim_time.hpp"

namespace hyperdrive::core {

/// Typed key=value parameter bag for policy construction. Insertion order is
/// preserved and to_string() re-emits the exact tokens parsed, so a policy
/// line in a spec file round-trips byte-identically. Getters mark their key
/// consumed; PolicyRegistry::make rejects any key the factory never asked
/// for, so typos fail loudly instead of silently running defaults.
class PolicyParams {
 public:
  PolicyParams() = default;

  /// Parse "key=value" tokens. Throws std::invalid_argument on a token
  /// without '=', an empty key, or a duplicate key.
  [[nodiscard]] static PolicyParams parse(const std::vector<std::string>& tokens);
  /// Split `text` on whitespace, then parse.
  [[nodiscard]] static PolicyParams parse(const std::string& text);

  void set(std::string key, std::string value);

  [[nodiscard]] bool empty() const noexcept { return kv_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return kv_.size(); }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& items()
      const noexcept {
    return kv_;
  }
  /// Canonical text form "k1=v1 k2=v2" in insertion order.
  [[nodiscard]] std::string to_string() const;

  // Typed getters (consume their key). Throw std::invalid_argument when the
  // value does not parse as the requested type.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] std::size_t get_size(const std::string& key, std::size_t fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  [[nodiscard]] std::string get_string(const std::string& key,
                                       std::string fallback) const;

  /// Keys present in the bag that no getter has consumed yet.
  [[nodiscard]] std::vector<std::string> unconsumed() const;

 private:
  [[nodiscard]] const std::string* find(const std::string& key) const;

  std::vector<std::pair<std::string, std::string>> kv_;
  /// Keys read by a getter. Mutable: consumption is bookkeeping, not state.
  mutable std::vector<std::string> consumed_;
};

/// Ambient inputs every policy factory receives alongside its parameters.
struct PolicyContext {
  /// Experiment seed: feeds the default predictor and seed-derived policy
  /// RNG streams (PBT's donor draws / explore streams).
  std::uint64_t seed = 1;
  /// The user's maximum experiment time (POP's Tmax).
  util::SimTime tmax = util::SimTime::hours(48);
  /// Predictor shared by predictor-backed policies; when unset, factories
  /// build make_default_predictor(seed) themselves.
  std::shared_ptr<const curve::CurvePredictor> predictor;
};

class PolicyRegistry {
 public:
  using Factory = std::function<std::unique_ptr<SchedulingPolicy>(
      const PolicyParams&, const PolicyContext&)>;

  struct Entry {
    std::string name;
    /// One-line help summary ("predictive POP scheduling (the paper's SAP)").
    std::string summary;
    Factory factory;
  };

  /// The process-wide registry, pre-populated with the built-in policies in
  /// help order: pop|bandit|earlyterm|default|hyperband|asha|pbt.
  [[nodiscard]] static PolicyRegistry& instance();

  /// Register a policy. Throws std::invalid_argument on a duplicate name.
  void add(std::string name, std::string summary, Factory factory);

  [[nodiscard]] bool has(const std::string& name) const noexcept;
  /// Registered names in registration order.
  [[nodiscard]] std::vector<std::string> names() const;
  /// "pop|bandit|earlyterm|..." — the CLI help form.
  [[nodiscard]] std::string name_list(char separator = '|') const;
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept { return entries_; }

  /// Build a fresh policy instance. Throws std::invalid_argument on an
  /// unknown name or a parameter key the policy does not accept.
  [[nodiscard]] std::unique_ptr<SchedulingPolicy> make(
      const std::string& name, const PolicyParams& params = {},
      const PolicyContext& ctx = {}) const;

 private:
  std::vector<Entry> entries_;
};

/// Shorthand for PolicyRegistry::instance().make(...).
[[nodiscard]] std::unique_ptr<SchedulingPolicy> make_registry_policy(
    const std::string& name, const PolicyParams& params = {},
    const PolicyContext& ctx = {});

/// The standard construction every sweep, bench and example uses: default
/// parameters, standard predictor from `seed`, POP horizon `tmax`.
[[nodiscard]] std::unique_ptr<SchedulingPolicy> make_standard_policy(
    const std::string& name, std::uint64_t seed,
    util::SimTime tmax = util::SimTime::hours(48));

}  // namespace hyperdrive::core
