#include "core/study/coordinator.hpp"

#include <chrono>
#include <csignal>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "obs/sink.hpp"

namespace hyperdrive::core {

void preregister_checkpoint_metrics(obs::MetricsRegistry& registry) {
  // Must list, in order, exactly the metrics the recovery runtime touches —
  // registration order is write_csv emission order, which keeps --metrics-out
  // byte-deterministic under --jobs N (the same contract as
  // cluster::preregister_cluster_metrics).
  for (const char* name : {
           "checkpoint.bytes",
           "checkpoint.writes",
           "recovery.checkpoint_loads",
           "recovery.checkpoint_fallbacks",
           "recovery.cold_restarts",
           "recovery.coordinator_crashes",
           "recovery.replay_verifications",
       }) {
    (void)registry.counter(name);
  }
  // Wall-clock write latency; observed only on durable disk writes, so runs
  // without --checkpoint-out export it with zero observations (trend-only
  // metric, excluded from byte-identity comparisons across machines).
  (void)registry.histogram("checkpoint.write_ms", {0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0});
}

RecoverableRunResult run_recoverable_multi_study(const std::vector<StudySpec>& specs,
                                                 const StudyManagerOptions& options,
                                                 const CheckpointOptions& checkpoint,
                                                 const AdmitStudyFn& admit) {
  CoordinatorRecoveryStats stats;
  obs::MetricsRegistry* const metrics = options.obs.metrics;

  std::optional<CheckpointStore> store;
  if (!checkpoint.dir.empty()) store.emplace(checkpoint.dir);

  // The run's effective inputs. A fresh start takes them from the caller; a
  // resume takes them from the adopted frame (so `--resume-from` needs no
  // other flags and tampering with the command line cannot skew the replay).
  StudyManagerOptions base = options;
  base.checkpoint_every = checkpoint.every;
  std::vector<StudySpec> run_specs = specs;

  std::optional<CoordinatorCheckpoint> target;  // frame the next replay must reconverge to
  bool verified = false;          // replay proved byte-identical to `target`
  std::size_t taken = 0;          // plan crashes consumed by earlier incarnations
  std::set<std::uint64_t> poisoned;  // sequences rejected by the ladder
  std::optional<CoordinatorCheckpoint> latest;  // newest frame, in memory
  std::size_t disk_writes_this_process = 0;

  // Adopt a frame as the resume target and swap the run inputs to its record.
  const auto adopt = [&](CoordinatorCheckpoint&& frame) {
    base = frame.options;
    base.obs = options.obs;  // process-local handles stay the caller's
    base.fault_plan = frame.fault_plan();
    run_specs = frame.specs();
    target = std::move(frame);
    verified = false;
    ++stats.checkpoint_loads;
  };

  // Walk the durable frames newest-first past poisoned / undecodable ones.
  // Returns false when the ladder is exhausted (caller cold-restarts).
  const auto adopt_newest_valid = [&]() -> bool {
    if (!store) {
      if (latest && poisoned.count(latest->sequence) == 0) {
        adopt(CoordinatorCheckpoint(*latest));
        return true;
      }
      return false;
    }
    for (const std::uint64_t seq : store->list()) {
      if (poisoned.count(seq) != 0) continue;
      CheckpointDecodeResult decoded = store->load(seq);
      if (decoded.checkpoint) {
        adopt(std::move(*decoded.checkpoint));
        return true;
      }
      ++stats.checkpoint_fallbacks;
      poisoned.insert(seq);
    }
    return false;
  };

  const auto cold_restart = [&] {
    target.reset();
    verified = false;
    ++stats.cold_restarts;
  };

  if (checkpoint.resume) {
    if (!store) throw std::runtime_error("resume requested without a checkpoint directory");
    if (adopt_newest_valid()) {
      taken = target->crashes_taken;
    } else {
      cold_restart();
      if (run_specs.empty()) {
        throw std::runtime_error(
            "resume found no usable checkpoint in " + checkpoint.dir +
            " and no study specs were given for a cold restart");
      }
    }
  }

  // Every incarnation consumes at least one plan crash or one ladder rung, so
  // this bound is unreachable unless recovery stops making progress.
  const std::size_t max_attempts = base.fault_plan.coordinator_crashes.size() +
                                   (store ? store->list().size() : 0) + 10;

  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    // The inputs record written into every frame this incarnation produces.
    const CoordinatorCheckpoint inputs = make_checkpoint_inputs(run_specs, base);
    // The one persist step of periodic and final frames: frame the capture
    // with this incarnation's inputs, count it, and write it when durable.
    const auto persist = [&](ManagerCheckpoint&& cp) {
      CoordinatorCheckpoint frame = inputs;
      frame.sequence = cp.sequence;
      frame.tick = cp.tick;
      frame.rebalances = cp.rebalances;
      frame.crashes_taken = taken;
      frame.state = std::move(cp.state);
      ++stats.checkpoints_written;
      stats.checkpoint_bytes_last = frame.state.size();
      if (store) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::size_t bytes = store->write(frame);
        const auto t1 = std::chrono::steady_clock::now();
        stats.checkpoint_bytes_total += bytes;
        stats.checkpoint_bytes_last = bytes;
        if (metrics != nullptr) {
          metrics->counter("checkpoint.bytes").add(bytes);
          metrics->counter("checkpoint.writes").add(1);
          metrics
              ->histogram("checkpoint.write_ms", {0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0})
              .observe(std::chrono::duration<double, std::milli>(t1 - t0).count());
        }
      }
      return frame;
    };

    // Buffered only for a caller's sink, which receives it on success.
    obs::RecordingSink attempt_sink;
    StudyManagerOptions opt = base;
    opt.obs.sink = options.obs.sink != nullptr ? &attempt_sink : nullptr;
    opt.coordinator_crashes_to_skip = taken;
    opt.crash_floor = target ? target->tick : util::SimTime::zero();
    opt.on_checkpoint = [&](ManagerCheckpoint&& cp) -> bool {
      if (target && !verified && cp.sequence == target->sequence) {
        if (cp.tick != target->tick || cp.rebalances != target->rebalances ||
            cp.state != target->state) {
          return false;  // halt the replay; the ladder picks an older frame
        }
        verified = true;
        ++stats.replay_verifications;
      }
      latest = persist(std::move(cp));
      if (store && checkpoint.kill_after_checkpoints != 0 &&
          ++disk_writes_this_process == checkpoint.kill_after_checkpoints) {
        // CI crash-resume smoke: die exactly like a real coordinator crash,
        // with the frame just written as the newest durable state.
        std::raise(SIGKILL);
      }
      return true;
    };

    StudyManager manager(opt);
    for (const StudySpec& spec : run_specs) {
      if (admit) {
        admit(manager, spec);
      } else {
        manager.add_study(spec);
      }
    }
    MultiStudyResult result = manager.run();

    switch (manager.exit_status()) {
      case ManagerExit::Completed: {
        // Captured at most ONCE per completed incarnation: capture() embeds
        // the checkpoint sequence counter, so a second capture would yield
        // different bytes and could never re-verify on a later resume.
        std::optional<ManagerCheckpoint> fin;
        if ((target && !verified) || store) fin = manager.capture_checkpoint();
        if (target && !verified) {
          // The replay finished without reaching the target's sequence — the
          // target is the final on-demand frame of a completed run (resume
          // after the last study finished) or a frame past this run's actual
          // end. The final state must still reconverge byte-for-byte.
          if (fin->tick == target->tick && fin->rebalances == target->rebalances &&
              fin->state == target->state) {
            verified = true;
            ++stats.replay_verifications;
          } else {
            ++stats.checkpoint_fallbacks;
            poisoned.insert(target->sequence);
            if (!adopt_newest_valid()) cold_restart();
            break;  // next attempt
          }
        }
        // Final on-demand frame: lets a later process resume a finished run
        // (replays to the end, verifies, and returns the same artifacts).
        if (store) (void)persist(std::move(*fin));
        // Only the surviving incarnation's events reach the caller's sink —
        // its replay regenerates the complete deterministic stream, so trace
        // artifacts come out whole even after crashes and resumes.
        if (options.obs.sink != nullptr) {
          for (const obs::TraceEvent& event : attempt_sink.events) {
            options.obs.sink->on_event(event);
          }
        }
        // Zero counters stay unpublished, so a run that never checkpoints or
        // crashes leaves the registry exactly as its caller preregistered it.
        if (metrics != nullptr) {
          for (const auto& [name, count] : {
                   std::pair{"recovery.checkpoint_loads", stats.checkpoint_loads},
                   std::pair{"recovery.checkpoint_fallbacks", stats.checkpoint_fallbacks},
                   std::pair{"recovery.cold_restarts", stats.cold_restarts},
                   std::pair{"recovery.coordinator_crashes", stats.coordinator_crashes},
                   std::pair{"recovery.replay_verifications", stats.replay_verifications},
               }) {
            if (count != 0) metrics->counter(name).add(count);
          }
        }
        return RecoverableRunResult{std::move(result), stats};
      }
      case ManagerExit::Crashed: {
        ++taken;
        ++stats.coordinator_crashes;
        // Recover from the newest usable frame; with none, replay from zero.
        if (!adopt_newest_valid()) cold_restart();
        break;
      }
      case ManagerExit::Halted: {
        // The checkpoint sink vetoed at the target sequence: the replay's
        // re-captured state diverged from the durable frame. Poison it and
        // step down the ladder.
        ++stats.checkpoint_fallbacks;
        if (target) poisoned.insert(target->sequence);
        if (!adopt_newest_valid()) cold_restart();
        break;
      }
    }
  }
  throw std::runtime_error("coordinator recovery failed to make progress");
}

}  // namespace hyperdrive::core
