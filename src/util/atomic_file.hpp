// The one durable-write discipline: coordinator checkpoints and the service
// journal both write through write_file_atomic, so a reader — or a process
// restarted after a SIGKILL — sees either the old file or the complete new
// one, never a torn prefix.
#pragma once

#include <string>
#include <string_view>

namespace hyperdrive::util {

/// Write `bytes` to `path` + ".tmp", flush and check the stream, then rename
/// the tmp file over `path` (atomic within a filesystem). On any failure the
/// tmp file is removed, `path` keeps its old contents, and std::runtime_error
/// says which step failed.
void write_file_atomic(const std::string& path, std::string_view bytes);

}  // namespace hyperdrive::util
