// The two checked file writers. Every artifact a program writes (sweep and
// study CSVs, timelines, metrics snapshots, fetched service artifacts) goes
// through write_file, so a write that fails or comes up short is an error
// that names the path, never a silent partial file. Coordinator checkpoints
// and the service journal go through write_file_atomic, so a reader — or a
// process restarted after a SIGKILL — sees either the old file or the
// complete new one, never a torn prefix.
#pragma once

#include <string>
#include <string_view>

namespace hyperdrive::util {

/// Write `bytes` to `path` (created or truncated), then close and check the
/// stream: a failed open, a short write (disk full, file-size limit) or a
/// failed close throws std::runtime_error "cannot write '<path>': <reason>".
/// A plain write, so `path` may be a device such as /dev/stdout.
void write_file(const std::string& path, std::string_view bytes);

/// write_file to `path` + ".tmp", then rename the tmp file over `path`
/// (atomic within a filesystem). On any failure the tmp file is removed,
/// `path` keeps its old contents, and std::runtime_error says which step
/// failed.
void write_file_atomic(const std::string& path, std::string_view bytes);

}  // namespace hyperdrive::util
