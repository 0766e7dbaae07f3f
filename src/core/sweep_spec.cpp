#include "core/sweep_spec.hpp"

#include <stdexcept>

#include "util/rng.hpp"

namespace hyperdrive::core {

std::uint64_t derive_cell_seed(std::uint64_t base_seed,
                               const std::vector<std::size_t>& index) {
  std::uint64_t seed = base_seed;
  for (std::size_t axis = 0; axis < index.size(); ++axis) {
    // Mix the axis ordinal into the stream id so permuted indices diverge.
    seed = util::derive_seed(seed, (static_cast<std::uint64_t>(axis) << 32) |
                                       static_cast<std::uint64_t>(index[axis]));
  }
  return seed;
}

std::size_t SweepSpec::add_axis(std::string axis_name, std::vector<std::string> values) {
  if (values.empty()) throw std::invalid_argument("sweep axis needs at least one value");
  axes.push_back(SweepAxis{std::move(axis_name), std::move(values)});
  return axes.size() - 1;
}

std::size_t SweepSpec::add_repeat_axis(std::size_t repeats) {
  std::vector<std::string> values;
  values.reserve(repeats);
  for (std::size_t r = 0; r < repeats; ++r) values.push_back(std::to_string(r));
  return add_axis("repeat", std::move(values));
}

std::size_t SweepSpec::add_policy_axis(std::vector<std::string> names) {
  return add_axis("policy", std::move(names));
}

std::size_t SweepSpec::cells() const noexcept {
  if (axes.empty()) return 0;
  std::size_t n = 1;
  for (const auto& axis : axes) n *= axis.size();
  return n;
}

SweepCell SweepSpec::cell(std::size_t linear) const {
  if (linear >= cells()) throw std::out_of_range("sweep cell index out of range");
  SweepCell cell;
  cell.linear = linear;
  cell.index.resize(axes.size());
  // Row-major: the first axis varies slowest, the last fastest.
  for (std::size_t i = axes.size(); i-- > 0;) {
    cell.index[i] = linear % axes[i].size();
    linear /= axes[i].size();
  }
  cell.seed = derive_cell_seed(base_seed, cell.index);
  return cell;
}

}  // namespace hyperdrive::core
