// Service wire protocol (DESIGN.md §14) — the length-prefixed binary framing
// between hyperdrive_serve and its clients.
//
// A frame on the wire is a 4-byte little-endian payload length followed by
// the payload; the payload borrows the snapshot/HDCK codec discipline:
//
//   magic   u32  'HDRV'
//   version u32
//   type    u8   MsgType
//   body         (type-specific, see encode_message)
//   crc32   u32  over everything before it
//
// Hostile-input contract (the same one the snapshot and checkpoint codecs
// hold): every size field is validated against the bytes actually present
// BEFORE any allocation happens — an oversized length prefix poisons the
// connection without reserving a byte (FrameReader), an inner string length
// beyond the payload fails in ByteReader before assign, and a ListResult
// count is bounded by the remaining payload over the minimal entry size.
// Decode failures are classified with the shared
// cluster::SnapshotDecodeError taxonomy so tests and logs speak one
// vocabulary across all three framed formats.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/snapshot_codec.hpp"

namespace hyperdrive::svc {

inline constexpr std::uint32_t kProtocolMagic = 0x56524448;  // "HDRV" little-endian
inline constexpr std::uint32_t kProtocolVersion = 1;
/// Upper bound on one payload; a length prefix above this is rejected before
/// allocation. Generous: the largest legitimate frame is a timeline artifact.
inline constexpr std::uint32_t kMaxFrameBytes = 8u << 20;

enum class MsgType : std::uint8_t {
  // --- requests -------------------------------------------------------------
  Submit = 1,    ///< tenant + study-spec text
  Cancel = 2,    ///< submission id
  Status = 3,    ///< submission id
  List = 4,      ///< optional tenant filter
  Fetch = 5,     ///< submission id + ArtifactKind
  Metrics = 6,   ///< server metrics snapshot (CSV text)
  Shutdown = 7,  ///< ask the server to stop accepting and exit
  // --- responses ------------------------------------------------------------
  Submitted = 64,    ///< id + state (Running|Queued) + queue position
  Rejected = 65,     ///< admission said no; text = pinned reason string
  StatusInfo = 66,   ///< one StudyInfo
  ListResult = 67,   ///< StudyInfo per submission
  Artifact = 68,     ///< text = result/timeline CSV bytes
  MetricsText = 69,  ///< text = metrics CSV bytes
  Error = 70,        ///< text = diagnostic (unknown id, bad spec, ...)
  Ok = 71,           ///< Cancel/Shutdown acknowledgement
};

/// Submission lifecycle. One type serves the wire and the service: each
/// svc::Service submission record holds its state as this enum, and the
/// submission journal stores its to_string() name.
enum class StudyState : std::uint8_t {
  Queued = 0,
  Running = 1,
  Finished = 2,
  Cancelled = 3,
  Failed = 4,
};

[[nodiscard]] const char* to_string(StudyState state) noexcept;

enum class ArtifactKind : std::uint8_t {
  ResultCsv = 0,    ///< MultiStudyResult::save_csv bytes (one-study run)
  TimelineCsv = 1,  ///< obs timeline CSV of the study's event stream
};

/// One submission's status row (StatusInfo / ListResult entries).
struct StudyInfo {
  std::uint64_t id = 0;
  std::string tenant;
  std::string study_name;
  StudyState state = StudyState::Queued;
  /// Rejection/cancel/failure reason; empty otherwise.
  std::string detail;
  double best_perf = 0.0;
  bool reached_target = false;
  double time_to_target_s = 0.0;
  double total_time_s = 0.0;

  [[nodiscard]] bool operator==(const StudyInfo&) const = default;
};

/// One protocol message, requests and responses alike: a type tag plus the
/// union of all fields (unused ones stay at their defaults and occupy no
/// wire bytes — each type encodes exactly its own body).
struct Message {
  MsgType type = MsgType::Ok;
  std::uint64_t id = 0;          ///< Cancel/Status/Fetch/Submitted
  std::string tenant;            ///< Submit; List filter (empty = all)
  std::string text;              ///< Submit spec / Rejected reason / Artifact /
                                 ///< MetricsText / Error message
  StudyState state = StudyState::Queued;  ///< Submitted
  ArtifactKind artifact = ArtifactKind::ResultCsv;  ///< Fetch
  std::uint32_t position = 0;    ///< Submitted: queue position (0 = running)
  StudyInfo info;                ///< StatusInfo
  std::vector<StudyInfo> studies;  ///< ListResult

  [[nodiscard]] bool operator==(const Message&) const = default;
};

/// Serialize the payload (magic..crc, no length prefix).
[[nodiscard]] std::vector<std::uint8_t> encode_message(const Message& message);
/// Serialize a full wire frame: u32 payload length + payload.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Message& message);

/// Decode verdict: exactly one of {message, error} is set.
struct MessageDecodeResult {
  std::optional<Message> message;
  std::optional<cluster::SnapshotDecodeError> error;
};

[[nodiscard]] MessageDecodeResult decode_message(const std::uint8_t* data, std::size_t size);
[[nodiscard]] MessageDecodeResult decode_message(const std::vector<std::uint8_t>& payload);

/// Incremental frame splitter for one connection's byte stream. Buffers wire
/// bytes until whole payloads are available; the payload buffer is only
/// reserved after the length prefix passed the bound check, so a hostile
/// 4 GiB prefix costs nothing.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame_bytes = kMaxFrameBytes);

  /// Consume `size` wire bytes, appending every completed payload to `out`.
  /// Returns false when the stream declared an oversized frame — the
  /// connection is poisoned and must be dropped (no partial state survives).
  [[nodiscard]] bool feed(const std::uint8_t* data, std::size_t size,
                          std::vector<std::vector<std::uint8_t>>& out);

  /// Bytes of the frame currently being assembled (diagnostics/tests).
  [[nodiscard]] std::size_t pending() const noexcept { return buffer_.size(); }

 private:
  std::size_t max_frame_bytes_;
  bool poisoned_ = false;
  std::vector<std::uint8_t> buffer_;  ///< header-then-payload accumulator
  bool have_length_ = false;
  std::uint32_t payload_length_ = 0;
};

}  // namespace hyperdrive::svc
