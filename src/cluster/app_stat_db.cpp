#include "cluster/app_stat_db.hpp"

namespace hyperdrive::cluster {

const std::vector<AppStat> AppStatDb::kEmptyStats{};
const std::vector<double> AppStatDb::kEmptyPerf{};
const std::vector<ModelSnapshot> AppStatDb::kEmptySnapshots{};

bool AppStatDb::record_stat(const AppStat& stat) {
  if (stat.epoch == 0) return false;  // epochs are 1-based completion counts
  auto& epochs = by_epoch_[stat.job_id];
  if (!epochs.emplace(stat.epoch, stat.perf).second) return false;  // duplicate
  stats_[stat.job_id].push_back(stat);
  // Extend the contiguous prefix as far as the buffered epochs allow; a gap
  // (an out-of-order arrival whose predecessor is still in flight) holds the
  // history back until the missing epoch lands.
  auto& perf = perf_[stat.job_id];
  for (auto it = epochs.find(perf.size() + 1); it != epochs.end();
       it = epochs.find(perf.size() + 1)) {
    perf.push_back(it->second);
  }
  return true;
}

void AppStatDb::adopt_history(core::JobId target, core::JobId donor, std::size_t epochs) {
  stats_.erase(target);
  perf_.erase(target);
  by_epoch_.erase(target);
  snapshots_.erase(target);
  const auto it = stats_.find(donor);
  if (it == stats_.end()) return;
  for (const AppStat& stat : it->second) {
    if (stat.epoch > epochs) continue;
    AppStat copy = stat;
    copy.job_id = target;
    record_stat(copy);
  }
}

const std::vector<AppStat>& AppStatDb::stats(core::JobId job) const {
  const auto it = stats_.find(job);
  return it == stats_.end() ? kEmptyStats : it->second;
}

const std::vector<double>& AppStatDb::perf_history(core::JobId job) const {
  const auto it = perf_.find(job);
  return it == perf_.end() ? kEmptyPerf : it->second;
}

void AppStatDb::store_snapshot(ModelSnapshot snapshot) {
  snapshots_[snapshot.job_id].push_back(snapshot);
}

std::optional<ModelSnapshot> AppStatDb::latest_snapshot(core::JobId job) const {
  const auto it = snapshots_.find(job);
  if (it == snapshots_.end() || it->second.empty()) return std::nullopt;
  return it->second.back();
}

const std::vector<ModelSnapshot>& AppStatDb::snapshots(core::JobId job) const {
  const auto it = snapshots_.find(job);
  return it == snapshots_.end() ? kEmptySnapshots : it->second;
}

}  // namespace hyperdrive::cluster
