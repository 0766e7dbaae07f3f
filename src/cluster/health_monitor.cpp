#include "cluster/health_monitor.hpp"

#include <algorithm>
#include <stdexcept>

namespace hyperdrive::cluster {

std::string_view to_string(NodeHealth health) noexcept {
  switch (health) {
    case NodeHealth::Healthy: return "healthy";
    case NodeHealth::Suspect: return "suspect";
    case NodeHealth::Quarantined: return "quarantined";
    case NodeHealth::Probation: return "probation";
  }
  return "?";
}

HealthMonitor::HealthMonitor(std::size_t machines, HealthOptions options)
    : options_(options), nodes_(machines) {
  if (options_.enabled) {
    if (options_.heartbeat_interval <= util::SimTime::zero()) {
      throw std::invalid_argument("HealthOptions: heartbeat_interval must be > 0");
    }
    if (options_.watchdog_intervals == 0) {
      throw std::invalid_argument("HealthOptions: watchdog_intervals must be >= 1");
    }
  }
}

HealthMonitor::Node& HealthMonitor::node(MachineId machine) {
  return nodes_.at(static_cast<std::size_t>(machine));
}

const HealthMonitor::Node& HealthMonitor::node(MachineId machine) const {
  return nodes_.at(static_cast<std::size_t>(machine));
}

void HealthMonitor::note_heartbeat(const Heartbeat& beat, util::SimTime now) {
  Node& n = node(beat.machine);
  ++stats_.heartbeats_received;
  n.last_seen = now;
  if (n.state == NodeHealth::Suspect) {
    n.state = NodeHealth::Healthy;
    ++stats_.suspects_recovered;
  }
}

HealthMonitor::Transition HealthMonitor::note_epoch(MachineId machine,
                                                    util::SimTime expected,
                                                    util::SimTime observed,
                                                    util::SimTime now) {
  Node& n = node(machine);
  n.last_seen = now;  // a finished epoch proves the node is alive
  if (n.state == NodeHealth::Suspect) {
    n.state = NodeHealth::Healthy;
    ++stats_.suspects_recovered;
  }

  const double obs =
      observed > util::SimTime::zero()
          ? std::clamp(expected.to_seconds() / observed.to_seconds(), 0.0, 2.0)
          : 1.0;
  n.score = (1.0 - kSpeedEwmaAlpha) * n.score + kSpeedEwmaAlpha * obs;

  switch (n.state) {
    case NodeHealth::Healthy: {
      if (n.score < core::SchedulerOps::kSlowHostSpeed) {
        ++n.slow_strikes;
        ++stats_.slow_strikes;
        if (n.slow_strikes >= options_.quarantine_strikes) {
          force_quarantine(machine);
          return Transition::Quarantine;
        }
      } else {
        n.slow_strikes = 0;
      }
      return Transition::None;
    }
    case NodeHealth::Probation: {
      // Probation judges the raw per-epoch observation, not the EWMA: the
      // score still carries the pre-quarantine slowness, and a recovered
      // node must not be re-quarantined for its history.
      if (obs < core::SchedulerOps::kSlowHostSpeed) {
        force_quarantine(machine);
        return Transition::Quarantine;
      }
      if (++n.probation_good >= options_.reinstate_epochs) {
        n.state = NodeHealth::Healthy;
        n.score = 1.0;  // fresh start; the EWMA re-learns from here
        n.slow_strikes = 0;
        ++stats_.reinstatements;
        return Transition::Reinstate;
      }
      return Transition::None;
    }
    case NodeHealth::Suspect:       // handled above
    case NodeHealth::Quarantined:   // no jobs should run here
      return Transition::None;
  }
  return Transition::None;
}

HealthMonitor::WatchdogReport HealthMonitor::watchdog_scan(util::SimTime now) {
  WatchdogReport report;
  const util::SimTime suspect_after =
      options_.heartbeat_interval * static_cast<double>(options_.watchdog_intervals);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
    if (n.excluded || n.state == NodeHealth::Quarantined) continue;
    const util::SimTime silent = now - n.last_seen;
    if (n.state == NodeHealth::Suspect) {
      if (silent >= suspect_after * 2.0) {
        report.to_quarantine.push_back(static_cast<MachineId>(i));
      }
    } else if (silent >= suspect_after) {
      n.state = NodeHealth::Suspect;
      ++stats_.suspects_declared;
      report.newly_suspect.push_back(static_cast<MachineId>(i));
    }
  }
  return report;
}

void HealthMonitor::force_quarantine(MachineId machine) {
  Node& n = node(machine);
  if (n.state == NodeHealth::Quarantined) return;
  n.state = NodeHealth::Quarantined;
  n.slow_strikes = 0;
  n.probation_good = 0;
  ++stats_.quarantines;
}

void HealthMonitor::begin_probation(MachineId machine, util::SimTime now) {
  Node& n = node(machine);
  n.state = NodeHealth::Probation;
  n.probation_good = 0;
  n.last_seen = now;
  ++stats_.probations;
}

void HealthMonitor::set_excluded(MachineId machine, bool excluded, util::SimTime now) {
  Node& n = node(machine);
  if (n.excluded && !excluded) n.last_seen = now;  // restart is not silence
  n.excluded = excluded;
}

NodeHealth HealthMonitor::health(MachineId machine) const { return node(machine).state; }

double HealthMonitor::speed_score(MachineId machine) const { return node(machine).score; }

}  // namespace hyperdrive::cluster
