// AppStat Database (§4.2 ➂): stores model-generated application statistics
// (accuracy / reward, epoch durations) and the model-state snapshots that
// make suspend/resume across machines possible. Shared between the SAP, the
// Hyperparameter Generator and the training jobs.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "cluster/resource_manager.hpp"
#include "core/sap.hpp"
#include "util/sim_time.hpp"

namespace hyperdrive::cluster {

struct AppStat {
  core::JobId job_id = 0;
  std::size_t epoch = 0;
  double perf = 0.0;
  /// Optional secondary application metric (NaN when absent), §9.
  double secondary = std::numeric_limits<double>::quiet_NaN();
  util::SimTime epoch_duration = util::SimTime::zero();
  MachineId node = 0;
  util::SimTime reported_at = util::SimTime::zero();
};

struct ModelSnapshot {
  core::JobId job_id = 0;
  std::size_t epoch = 0;
  /// Modeled on-the-wire size (framework/CRIU image, §6.2.3/§6.3.2). The
  /// stored image below contains only the schedulable state and is usually
  /// much smaller.
  double size_bytes = 0.0;
  /// Serialized schedulable state (SnapshotCodec format) used to actually
  /// restore the job on resume.
  std::vector<std::uint8_t> image;
  util::SimTime stored_at = util::SimTime::zero();
};

class AppStatDb {
 public:
  /// Record one application stat. Stats are keyed by (job, epoch): a stat for
  /// an already-recorded epoch — a retransmitted/duplicated RPC, or an epoch
  /// re-trained after a crash rollback — is ignored and `false` is returned.
  /// Out-of-order arrivals are buffered; perf_history() only ever exposes the
  /// contiguous epoch prefix so the curve predictor never sees holes.
  bool record_stat(const AppStat& stat);
  [[nodiscard]] const std::vector<AppStat>& stats(core::JobId job) const;
  /// Performance values only, in contiguous epoch order (entry i = epoch
  /// i+1) — what the SAP consumes.
  [[nodiscard]] const std::vector<double>& perf_history(core::JobId job) const;

  /// Weight migration (PBT exploit, DESIGN.md §13): the target job's record
  /// is reset and replaced by the donor's stats up to and including `epochs`
  /// (job_id rewritten; re-recorded through record_stat so dedup/contiguity
  /// invariants hold). The target's stored snapshots are dropped — the clone
  /// gets exactly one fresh snapshot minted by the caller.
  void adopt_history(core::JobId target, core::JobId donor, std::size_t epochs);

  void store_snapshot(ModelSnapshot snapshot);
  [[nodiscard]] std::optional<ModelSnapshot> latest_snapshot(core::JobId job) const;
  /// Every stored snapshot of a job, oldest first. Recovery walks this list
  /// newest-to-oldest when the latest image fails to decode.
  [[nodiscard]] const std::vector<ModelSnapshot>& snapshots(core::JobId job) const;

 private:
  std::map<core::JobId, std::vector<AppStat>> stats_;
  std::map<core::JobId, std::vector<double>> perf_;
  /// Per-job epoch -> perf, the dedup/reorder buffer behind perf_.
  std::map<core::JobId, std::map<std::size_t, double>> by_epoch_;
  std::map<core::JobId, std::vector<ModelSnapshot>> snapshots_;
  static const std::vector<AppStat> kEmptyStats;
  static const std::vector<double> kEmptyPerf;
  static const std::vector<ModelSnapshot> kEmptySnapshots;
};

}  // namespace hyperdrive::cluster
