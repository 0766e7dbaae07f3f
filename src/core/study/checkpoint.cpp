#include "core/study/checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "cluster/fault_injector.hpp"
#include "util/atomic_file.hpp"
#include "util/bytes.hpp"

namespace hyperdrive::core {

namespace {

// 'HDCK' — distinct from the job-snapshot magic 'HDSS' so a checkpoint file
// fed to the snapshot decoder (or vice versa) reads as BadMagic, not garbage.
constexpr std::uint32_t kMagic = 0x4844434BU;
// v2: elastic-capacity fields (node catalog text + budget, DESIGN.md §15).
constexpr std::uint32_t kVersion = 2;

// Slots of options that became constants carry those constants, and the
// retired max_time and flag slots fixed values, so v2 frames keep their
// bytes; read_options reads and discards all of them.
void write_options(util::ByteWriter& w, const StudyManagerOptions& o) {
  w.u64(o.machines);
  std::ostringstream catalog;
  cluster::save_node_catalog(o.catalog, catalog);
  w.str(catalog.str());
  w.f64(o.budget_usd);
  w.u8(static_cast<std::uint8_t>(o.arbitration));
  w.f64(o.arbitration_interval.to_seconds());
  w.f64(util::SimTime::infinity().to_seconds());  // retired max_time: no hard stop
  w.u8(0);  // retired flag byte (the string event log)
  w.u64(o.seed);
  w.u64(kDeadlineBoostSlots);
  w.f64(kDeadlineConfidence);
  w.f64(o.epoch_jitter_sigma);
  w.f64(o.checkpoint_every.to_seconds());
  const cluster::HealthOptions& h = o.health;
  w.u8(h.enabled ? 1 : 0);
  w.f64(h.heartbeat_interval.to_seconds());
  w.u64(h.watchdog_intervals);
  w.f64(cluster::kSpeedEwmaAlpha);
  w.f64(SchedulerOps::kSlowHostSpeed);
  w.u64(h.quarantine_strikes);
  w.f64(h.probation_after.to_seconds());
  w.u64(h.reinstate_epochs);
  w.f64(cluster::kHangDeadlineFactor);
}

bool read_options(util::ByteReader& r, StudyManagerOptions& o) {
  std::uint64_t u = 0;
  std::uint8_t b = 0;
  double d = 0.0;
  if (!r.u64(u)) return false;
  o.machines = static_cast<std::size_t>(u);
  std::string catalog_text;
  if (!r.str(catalog_text)) return false;
  try {
    std::istringstream catalog(catalog_text);
    o.catalog = cluster::load_node_catalog(catalog);
  } catch (const std::invalid_argument&) {
    return false;
  }
  if (!r.f64(o.budget_usd)) return false;
  if (!r.u8(b)) return false;
  o.arbitration = static_cast<ArbitrationMode>(b);
  if (!r.f64(d)) return false;
  o.arbitration_interval = util::SimTime::seconds(d);
  if (!r.f64(d)) return false;  // retired max_time
  if (!r.u8(b)) return false;   // retired flag byte
  if (!r.u64(o.seed)) return false;
  if (!r.u64(u)) return false;  // kDeadlineBoostSlots
  if (!r.f64(d)) return false;  // kDeadlineConfidence
  if (!r.f64(o.epoch_jitter_sigma)) return false;
  if (!r.f64(d)) return false;
  o.checkpoint_every = util::SimTime::seconds(d);
  cluster::HealthOptions& h = o.health;
  if (!r.u8(b)) return false;
  h.enabled = b != 0;
  if (!r.f64(d)) return false;
  h.heartbeat_interval = util::SimTime::seconds(d);
  if (!r.u64(u)) return false;
  h.watchdog_intervals = static_cast<std::size_t>(u);
  if (!r.f64(d)) return false;  // kSpeedEwmaAlpha
  if (!r.f64(d)) return false;  // kSlowHostSpeed
  if (!r.u64(u)) return false;
  h.quarantine_strikes = static_cast<std::size_t>(u);
  if (!r.f64(d)) return false;
  h.probation_after = util::SimTime::seconds(d);
  if (!r.u64(u)) return false;
  h.reinstate_epochs = static_cast<std::size_t>(u);
  return r.f64(d);  // kHangDeadlineFactor
}

}  // namespace

std::vector<StudySpec> CoordinatorCheckpoint::specs() const {
  std::vector<StudySpec> out;
  out.reserve(spec_texts.size());
  for (const std::string& text : spec_texts) {
    std::istringstream in(text);
    out.push_back(load_study_spec(in));
  }
  return out;
}

cluster::FaultPlan CoordinatorCheckpoint::fault_plan() const {
  std::istringstream in(fault_plan_text);
  return cluster::load_fault_plan(in);
}

std::vector<std::uint8_t> encode_checkpoint(const CoordinatorCheckpoint& cp) {
  util::ByteWriter w;
  w.u32(kMagic);
  w.u32(kVersion);
  write_options(w, cp.options);
  w.u32(static_cast<std::uint32_t>(cp.spec_texts.size()));
  for (const std::string& text : cp.spec_texts) w.str(text);
  w.str(cp.fault_plan_text);
  w.u64(cp.sequence);
  w.f64(cp.tick.to_seconds());
  w.u64(cp.rebalances);
  w.u64(cp.crashes_taken);
  w.blob(cp.state);
  const std::uint32_t crc = cluster::crc32(w.bytes().data(), w.size());
  w.u32(crc);
  return std::move(w.bytes());
}

CheckpointDecodeResult decode_checkpoint(const std::vector<std::uint8_t>& image) {
  using cluster::SnapshotDecodeError;
  const auto fail = [](SnapshotDecodeError e) {
    CheckpointDecodeResult r;
    r.error = e;
    return r;
  };
  if (image.size() < 4) return fail(SnapshotDecodeError::Truncated);
  // Parse the structure bounded to the body (the trailing 4 bytes are the
  // CRC); check the checksum last so structural verdicts stay specific.
  const std::size_t body = image.size() - 4;
  util::ByteReader r(image.data(), body);
  std::uint32_t magic = 0;
  if (!r.u32(magic)) return fail(SnapshotDecodeError::Truncated);
  if (magic != kMagic) return fail(SnapshotDecodeError::BadMagic);
  std::uint32_t version = 0;
  if (!r.u32(version)) return fail(SnapshotDecodeError::Truncated);
  if (version != kVersion) return fail(SnapshotDecodeError::UnknownVersion);

  CoordinatorCheckpoint cp;
  if (!read_options(r, cp.options)) return fail(SnapshotDecodeError::Truncated);
  if (cp.options.arbitration != ArbitrationMode::StaticPartition &&
      cp.options.arbitration != ArbitrationMode::FairShare &&
      cp.options.arbitration != ArbitrationMode::DeadlineAware &&
      cp.options.arbitration != ArbitrationMode::Cost) {
    return fail(SnapshotDecodeError::Malformed);
  }
  std::uint32_t n_specs = 0;
  if (!r.u32(n_specs)) return fail(SnapshotDecodeError::Truncated);
  // Every spec text costs at least its 4-byte length prefix: a count beyond
  // remaining/4 is provably truncated — reject before reserve() allocates.
  if (n_specs > r.remaining() / 4) return fail(SnapshotDecodeError::Truncated);
  cp.spec_texts.reserve(n_specs);
  for (std::uint32_t i = 0; i < n_specs; ++i) {
    std::string text;
    if (!r.str(text)) return fail(SnapshotDecodeError::Truncated);
    cp.spec_texts.push_back(std::move(text));
  }
  if (!r.str(cp.fault_plan_text)) return fail(SnapshotDecodeError::Truncated);
  if (!r.u64(cp.sequence)) return fail(SnapshotDecodeError::Truncated);
  double tick = 0.0;
  if (!r.f64(tick)) return fail(SnapshotDecodeError::Truncated);
  cp.tick = util::SimTime::seconds(tick);
  if (!r.u64(cp.rebalances)) return fail(SnapshotDecodeError::Truncated);
  if (!r.u64(cp.crashes_taken)) return fail(SnapshotDecodeError::Truncated);
  if (!r.blob(cp.state)) return fail(SnapshotDecodeError::Truncated);
  if (r.pos() != body) return fail(SnapshotDecodeError::TrailingGarbage);

  std::uint32_t stored_crc = 0;
  util::ByteReader tail(image.data() + body, 4);
  tail.u32(stored_crc);
  if (cluster::crc32(image.data(), body) != stored_crc) {
    return fail(SnapshotDecodeError::BadChecksum);
  }
  CheckpointDecodeResult result;
  result.checkpoint = std::move(cp);
  return result;
}

CoordinatorCheckpoint make_checkpoint_inputs(const std::vector<StudySpec>& specs,
                                             const StudyManagerOptions& options) {
  CoordinatorCheckpoint cp;
  cp.options = options;
  // The callbacks / obs handles / resume bookkeeping in `options` are
  // process-local; the text codec below never writes them, so nulling is not
  // needed — but keep the rebalance floor fields out of the durable image by
  // resetting them (a frame describes the *run*, not one incarnation).
  cp.options.on_checkpoint = nullptr;
  cp.options.obs = obs::Scope{};
  cp.options.coordinator_crashes_to_skip = 0;
  cp.options.crash_floor = util::SimTime::zero();
  cp.spec_texts.reserve(specs.size());
  for (const StudySpec& spec : specs) {
    std::ostringstream os;
    save_study_spec(spec, os);
    cp.spec_texts.push_back(os.str());
  }
  std::ostringstream plan;
  cluster::save_fault_plan(options.fault_plan, plan);
  cp.fault_plan_text = plan.str();
  cp.options.fault_plan = cluster::FaultPlan{};  // travels as text instead
  return cp;
}

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

std::string CheckpointStore::path_for(std::uint64_t sequence) const {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%06llu.hdck",
                static_cast<unsigned long long>(sequence));
  return (std::filesystem::path(dir_) / name).string();
}

std::size_t CheckpointStore::write(const CoordinatorCheckpoint& cp) {
  const std::vector<std::uint8_t> image = encode_checkpoint(cp);
  // Readers see either the old frame or the new one, never a torn prefix —
  // the property the SIGKILL smoke test leans on.
  util::write_file_atomic(
      path_for(cp.sequence),
      std::string_view(reinterpret_cast<const char*>(image.data()), image.size()));
  return image.size();
}

std::vector<std::uint64_t> CheckpointStore::list() const {
  std::vector<std::uint64_t> seqs;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    // ckpt-NNNNNN.hdck (sequence may exceed six digits; parse whatever is
    // between the dash and the suffix). A ".hdck.tmp" write in flight is not
    // a frame.
    if (!name.starts_with("ckpt-") || !name.ends_with(".hdck")) continue;
    const std::string digits = name.substr(5, name.size() - 10);
    if (digits.empty() ||
        !std::all_of(digits.begin(), digits.end(), [](char c) { return c >= '0' && c <= '9'; })) {
      continue;
    }
    seqs.push_back(std::stoull(digits));
  }
  std::sort(seqs.rbegin(), seqs.rend());
  return seqs;
}

CheckpointDecodeResult CheckpointStore::load(std::uint64_t sequence) const {
  std::ifstream in(path_for(sequence), std::ios::binary);
  if (!in) {
    CheckpointDecodeResult r;
    r.error = cluster::SnapshotDecodeError::Truncated;
    return r;
  }
  std::vector<std::uint8_t> image((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return decode_checkpoint(image);
}

}  // namespace hyperdrive::core
