#include "cluster/fault_injector.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "cluster/messaging.hpp"
#include "util/spec_parser.hpp"

namespace hyperdrive::cluster {

namespace {
bool profile_any(const MessageFaultProfile& p) {
  return p.drop_prob > 0.0 || p.duplicate_prob > 0.0 || p.delay_prob > 0.0;
}
}  // namespace

bool FaultPlan::any() const noexcept {
  if (profile_any(default_message_faults)) return true;
  for (const auto& [type, profile] : message_faults) {
    if (profile_any(profile)) return true;
  }
  return !crashes.empty() || !spot_preemptions.empty() || any_gray() ||
         snapshot_upload_fail_prob > 0.0 || snapshot_corrupt_prob > 0.0;
}

bool FaultPlan::any_gray() const noexcept {
  return !slowdowns.empty() || !hangs.empty();
}

bool FaultPlan::any_coordinator() const noexcept { return !coordinator_crashes.empty(); }

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t run_seed)
    : plan_(std::move(plan)),
      rng_(util::derive_seed(plan_.seed ^ run_seed, 0xFA17)) {}

const MessageFaultProfile& FaultInjector::profile(MessageType type) const {
  const auto it = plan_.message_faults.find(type);
  return it == plan_.message_faults.end() ? plan_.default_message_faults : it->second;
}

bool FaultInjector::should_drop(MessageType type) {
  const auto& p = profile(type);
  if (p.drop_prob <= 0.0) return false;
  const bool drop = rng_.bernoulli(p.drop_prob);
  if (drop) ++stats_.messages_dropped;
  return drop;
}

bool FaultInjector::should_duplicate(MessageType type) {
  const auto& p = profile(type);
  if (p.duplicate_prob <= 0.0) return false;
  const bool dup = rng_.bernoulli(p.duplicate_prob);
  if (dup) ++stats_.messages_duplicated;
  return dup;
}

util::SimTime FaultInjector::extra_delay(MessageType type) {
  const auto& p = profile(type);
  if (p.delay_prob <= 0.0 || !rng_.bernoulli(p.delay_prob)) return util::SimTime::zero();
  ++stats_.messages_delayed;
  return util::SimTime::seconds(rng_.exponential(1.0 / p.delay_mean_s));
}

bool FaultInjector::should_fail_upload() {
  if (plan_.snapshot_upload_fail_prob <= 0.0) return false;
  const bool fail = rng_.bernoulli(plan_.snapshot_upload_fail_prob);
  if (fail) ++stats_.snapshot_uploads_failed;
  return fail;
}

bool FaultInjector::should_corrupt_snapshot() {
  if (plan_.snapshot_corrupt_prob <= 0.0) return false;
  const bool corrupt = rng_.bernoulli(plan_.snapshot_corrupt_prob);
  if (corrupt) ++stats_.snapshots_corrupted;
  return corrupt;
}

void FaultInjector::corrupt(std::vector<std::uint8_t>& image) {
  if (image.empty()) return;
  const auto byte = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(image.size()) - 1));
  const auto bit = static_cast<int>(rng_.uniform_int(0, 7));
  image[byte] ^= static_cast<std::uint8_t>(1u << bit);
}

double FaultInjector::slowdown_factor(MachineId machine, util::SimTime now) const {
  double factor = 1.0;
  for (const NodeSlowdownEvent& w : plan_.slowdowns) {
    if (w.machine != machine || w.factor == 1.0) continue;
    if (now < w.from || now >= w.until) continue;
    if (w.period > util::SimTime::zero()) {
      const double phase = std::fmod((now - w.from).to_seconds(), w.period.to_seconds());
      if (phase >= w.duty * w.period.to_seconds()) continue;
    }
    factor *= w.factor;
  }
  return factor;
}

bool FaultInjector::is_hung(MachineId machine, util::SimTime now) const {
  for (const HungJobEvent& h : plan_.hangs) {
    if (h.machine != machine) continue;
    if (now >= h.at && now < h.at + h.clear_after) return true;
  }
  return false;
}

util::SimTime FaultInjector::hang_stall(MachineId machine, util::SimTime start,
                                        util::SimTime duration) const {
  // Progress runs at rate 1 outside hang windows and 0 inside, so the epoch
  // completes at the earliest t with `duration` of un-hung time in [start, t).
  std::vector<const HungJobEvent*> windows;
  for (const HungJobEvent& h : plan_.hangs) {
    if (h.machine == machine) windows.push_back(&h);
  }
  if (windows.empty()) return util::SimTime::zero();
  std::sort(windows.begin(), windows.end(),
            [](const HungJobEvent* a, const HungJobEvent* b) { return a->at < b->at; });

  util::SimTime cursor = start;
  util::SimTime remaining = duration;
  for (const HungJobEvent* h : windows) {
    const util::SimTime end = h->at + h->clear_after;
    if (end <= cursor) continue;                 // window already past
    if (h->at >= cursor + remaining) break;      // epoch done before it opens
    if (h->at > cursor) remaining -= h->at - cursor;
    if (end == util::SimTime::infinity()) return util::SimTime::infinity();
    cursor = end;
  }
  const util::SimTime completion = cursor + remaining;
  return completion - (start + duration);
}

// --- fault-plan file format --------------------------------------------------
//
// One directive per line, '#' starts a comment, times in seconds with "inf"
// accepted where a duration may be unbounded. `*` as a message type names the
// default profile. See README.md "Fault-plan files".

namespace {

constexpr MessageType kDataTypes[] = {
    MessageType::StartJob,       MessageType::SuspendJob,
    MessageType::TerminateJob,   MessageType::ReportStat,
    MessageType::SnapshotUpload, MessageType::SnapshotDownload,
    MessageType::Ack,
};

MachineId machine_id(util::SpecParser& parser) {
  return static_cast<MachineId>(
      parser.integer("machine", std::numeric_limits<MachineId>::max()));
}

MessageType parse_message_type(const std::string& token, const util::SpecParser& parser) {
  for (MessageType type : kDataTypes) {
    if (token == to_string(type)) return type;
  }
  parser.fail("unknown message type '" + token + "'");
}

void write_profile(std::ostream& out, const std::string& type,
                   const MessageFaultProfile& p) {
  if (p.drop_prob > 0.0) out << "drop " << type << ' ' << p.drop_prob << '\n';
  if (p.duplicate_prob > 0.0) out << "dup " << type << ' ' << p.duplicate_prob << '\n';
  if (p.delay_prob > 0.0) {
    out << "delay " << type << ' ' << p.delay_prob << ' ' << p.delay_mean_s << '\n';
  }
}

}  // namespace

FaultPlan load_fault_plan(std::istream& in) {
  FaultPlan plan;
  util::SpecParser parser(in, "fault plan");
  while (parser.next_line()) {
    const std::string& directive = parser.directive();
    if (directive == "seed") {
      plan.seed = parser.integer("seed");
    } else if (directive == "drop" || directive == "dup" || directive == "delay") {
      const std::string type_token = parser.word("message type");
      MessageFaultProfile* profile =
          type_token == "*"
              ? &plan.default_message_faults
              : &plan.message_faults[parse_message_type(type_token, parser)];
      if (directive == "drop") {
        profile->drop_prob = parser.number("probability");
      } else if (directive == "dup") {
        profile->duplicate_prob = parser.number("probability");
      } else {
        profile->delay_prob = parser.number("probability");
        profile->delay_mean_s = parser.number("mean delay");
      }
    } else if (directive == "crash") {
      NodeCrashEvent crash;
      crash.machine = machine_id(parser);
      crash.at = util::SimTime::seconds(parser.number("crash time"));
      if (const auto restart = parser.optional_number("restart delay")) {
        crash.restart_after = util::SimTime::seconds(*restart);
      }
      plan.crashes.push_back(crash);
    } else if (directive == "slowdown") {
      NodeSlowdownEvent slow;
      slow.machine = machine_id(parser);
      slow.from = util::SimTime::seconds(parser.number("window start"));
      slow.until = util::SimTime::seconds(parser.number("window end"));
      slow.factor = parser.number("factor");
      if (const auto period = parser.optional_number("flap period")) {
        slow.period = util::SimTime::seconds(*period);
        slow.duty = parser.number("duty");
      }
      plan.slowdowns.push_back(slow);
    } else if (directive == "hang") {
      HungJobEvent hang;
      hang.machine = machine_id(parser);
      hang.at = util::SimTime::seconds(parser.number("hang time"));
      if (const auto clear = parser.optional_number("clear delay")) {
        hang.clear_after = util::SimTime::seconds(*clear);
      }
      plan.hangs.push_back(hang);
    } else if (directive == "spot-preemption") {
      SpotPreemptionEvent preemption;
      preemption.machine = machine_id(parser);
      preemption.at = util::SimTime::seconds(parser.number("warning time"));
      if (const auto warning = parser.optional_number("warning window")) {
        preemption.warning = util::SimTime::seconds(*warning);
      }
      plan.spot_preemptions.push_back(preemption);
    } else if (directive == "coordinator-crash") {
      CoordinatorCrashEvent crash;
      crash.at = util::SimTime::seconds(parser.number("crash time"));
      plan.coordinator_crashes.push_back(crash);
    } else if (directive == "snapshot-fail") {
      plan.snapshot_upload_fail_prob = parser.number("probability");
    } else if (directive == "snapshot-corrupt") {
      plan.snapshot_corrupt_prob = parser.number("probability");
    } else {
      parser.fail("unknown directive '" + directive + "'");
    }
    parser.finish_line();
  }
  return plan;
}

void save_fault_plan(const FaultPlan& plan, std::ostream& out) {
  const auto precision = out.precision(17);
  out << "# HyperDrive fault plan\n";
  if (plan.seed != 0) out << "seed " << plan.seed << '\n';
  write_profile(out, "*", plan.default_message_faults);
  for (const auto& [type, profile] : plan.message_faults) {
    write_profile(out, std::string(to_string(type)), profile);
  }
  for (const NodeCrashEvent& crash : plan.crashes) {
    out << "crash " << crash.machine << ' ' << crash.at.to_seconds();
    if (crash.restart_after != util::SimTime::infinity()) {
      out << ' ' << crash.restart_after.to_seconds();
    }
    out << '\n';
  }
  for (const NodeSlowdownEvent& slow : plan.slowdowns) {
    out << "slowdown " << slow.machine << ' ' << slow.from.to_seconds() << ' ';
    util::write_spec_time(out, slow.until);
    out << ' ' << slow.factor;
    if (slow.period > util::SimTime::zero()) {
      out << ' ' << slow.period.to_seconds() << ' ' << slow.duty;
    }
    out << '\n';
  }
  for (const HungJobEvent& hang : plan.hangs) {
    out << "hang " << hang.machine << ' ' << hang.at.to_seconds();
    if (hang.clear_after != util::SimTime::infinity()) {
      out << ' ' << hang.clear_after.to_seconds();
    }
    out << '\n';
  }
  for (const SpotPreemptionEvent& preemption : plan.spot_preemptions) {
    out << "spot-preemption " << preemption.machine << ' ' << preemption.at.to_seconds()
        << ' ' << preemption.warning.to_seconds() << '\n';
  }
  for (const CoordinatorCrashEvent& crash : plan.coordinator_crashes) {
    out << "coordinator-crash " << crash.at.to_seconds() << '\n';
  }
  if (plan.snapshot_upload_fail_prob > 0.0) {
    out << "snapshot-fail " << plan.snapshot_upload_fail_prob << '\n';
  }
  if (plan.snapshot_corrupt_prob > 0.0) {
    out << "snapshot-corrupt " << plan.snapshot_corrupt_prob << '\n';
  }
  out.precision(precision);
}

}  // namespace hyperdrive::cluster
