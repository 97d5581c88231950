// casc::svc wire protocol: length-prefixed frames over a Unix-domain stream
// socket.
//
// Frame layout (little-endian):
//
//   [u32 payload_len] [u8 type] [payload_len bytes of payload]
//
// Payloads are line-oriented "key value" text — debuggable with socat, and
// parsed with the same Diagnostic machinery as .casc specs, so every
// malformed input gets a structured error reply instead of a server abort.
//
// Frame types and payloads:
//
//   kSubmit      client->server  job header lines, blank line, LoopSpec text:
//                                  tenant <name>        (required)
//                                  job <u64>            (required; unique per
//                                                        tenant for the
//                                                        server's lifetime)
//                                  weight <u32>         (optional, 1..1000)
//                                  helper none|prefetch|restructure (optional)
//                                  chunk <bytes>        (optional, 0 = server
//                                                        default)
//                                  chaos <u64 seed>     (optional: arm a
//                                                        seeded helper-site
//                                                        ChaosPlan on the run)
//   kResult      server->client  "key value" lines: job, tenant, shard,
//                                digest, rw_checksum, seconds, reused,
//                                degraded, helper_faults, chunks_reclaimed,
//                                demotion, batch
//   kError       server->client  "job <u64>" (0 = not attributable), then
//                                "rule <kebab-id>", then "message <text>".
//                                Rules mirror the cli-* diagnostic contract:
//                                svc-bad-frame, svc-frame-too-big,
//                                svc-bad-header, svc-missing-tenant,
//                                svc-missing-job, svc-bad-field,
//                                svc-empty-spec, svc-spec-invalid,
//                                svc-spec-unsupported (the spec is valid but
//                                needs a runtime capability the service
//                                lacks — e.g. a reduction operand awaiting
//                                privatization; the message names the
//                                operand, its analysis class, and the merge
//                                operator), svc-duplicate-job,
//                                svc-queue-full, svc-draining,
//                                svc-job-too-large, svc-job-failed
//   kStat        client->server  empty payload
//   kStatReply   server->client  "key value" counter lines (svc.*, tenant.*,
//                                shard.*)
//   kDrain       client->server  empty payload: stop admitting, finish queued
//                                jobs, then reply and shut down
//   kDrainAck    server->client  "completed <u64>"
//
// encode_*/parse_* are pure (no sockets) so the contract is unit-testable;
// read_frame/write_frame do blocking I/O on an fd and never throw — a torn
// or oversized frame is a status, not an exception.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "casc/common/diagnostic.hpp"
#include "casc/exec/bridge.hpp"

namespace casc::svc {

enum class FrameType : std::uint8_t {
  kSubmit = 1,
  kResult = 2,
  kError = 3,
  kStat = 4,
  kStatReply = 5,
  kDrain = 6,
  kDrainAck = 7,
};

/// Largest accepted payload (bounds spec size; an oversized submit draws an
/// svc-frame-too-big error reply).
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;  // 1 MiB

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Blocking frame I/O status.
enum class IoStatus : std::uint8_t {
  kOk,
  kEof,      ///< clean close before any byte of this frame
  kTorn,     ///< connection died mid-frame
  kTooBig,   ///< declared payload length exceeds kMaxFramePayload
  kBadType,  ///< unknown frame type byte
  kError,    ///< errno-level I/O failure
};

[[nodiscard]] const char* to_string(IoStatus status) noexcept;

/// Reads one frame.  On kTooBig/kBadType the prefix has been consumed but
/// the payload has not; the stream is not resynchronizable and the caller
/// should reply with an error frame and close.
[[nodiscard]] IoStatus read_frame(int fd, Frame& frame);

/// Writes one frame, looping over partial writes.  Uses MSG_NOSIGNAL so a
/// dead peer yields kError, not SIGPIPE.
[[nodiscard]] IoStatus write_frame(int fd, FrameType type,
                                   const std::string& payload);

// ---- submit ---------------------------------------------------------------

/// The exec bridge's helper mode; on the wire it is the strings "none",
/// "prefetch" and "restructure".
using HelperMode = exec::HelperMode;

[[nodiscard]] const char* to_string(HelperMode mode) noexcept;

struct SubmitRequest {
  std::string tenant;
  std::uint64_t job = 0;
  std::uint32_t weight = 1;
  HelperMode helper = HelperMode::kRestructure;
  std::uint64_t chunk_bytes = 0;  ///< 0 = server default
  std::optional<std::uint64_t> chaos_seed;
  std::string spec_text;
};

[[nodiscard]] std::string encode_submit(const SubmitRequest& req);

/// Parses a submit payload.  Returns false (and at least one error
/// diagnostic, rules svc-*) when the header is unusable; the spec text is
/// NOT parsed here — spec-level findings belong to the admission path.
[[nodiscard]] bool parse_submit(const std::string& payload, SubmitRequest& req,
                                common::DiagnosticList& diags);

// ---- result / error / stat ------------------------------------------------

struct ResultReply {
  std::uint64_t job = 0;
  std::string tenant;
  unsigned shard = 0;
  std::uint64_t digest = 0;
  std::uint64_t rw_checksum = 0;
  double seconds = 0.0;
  bool reused = false;    ///< MaterializedLoop came from the shard's pool
  bool degraded = false;  ///< fail-soft degradation during the run
  std::uint64_t helper_faults = 0;
  std::uint64_t chunks_reclaimed = 0;
  unsigned demotion = 0;
  std::uint64_t batch = 0;  ///< dispatch batch this job rode in
};

[[nodiscard]] std::string encode_result(const ResultReply& reply);
[[nodiscard]] bool parse_result(const std::string& payload, ResultReply& reply);

struct ErrorReply {
  std::uint64_t job = 0;  ///< 0 when the error is not attributable to a job
  std::string rule;
  std::string message;
};

[[nodiscard]] std::string encode_error(const ErrorReply& reply);
[[nodiscard]] bool parse_error(const std::string& payload, ErrorReply& reply);

/// Stat payloads are flat "key value" counter lines.
[[nodiscard]] std::string encode_stats(
    const std::vector<std::pair<std::string, std::uint64_t>>& counters);
[[nodiscard]] bool parse_stats(
    const std::string& payload,
    std::vector<std::pair<std::string, std::uint64_t>>& counters);

}  // namespace casc::svc
