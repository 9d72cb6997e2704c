#ifndef DKB_NET_WIRE_H_
#define DKB_NET_WIRE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/value.h"
#include "storage/codec.h"
#include "storage/schema.h"
#include "storage/tuple.h"
#include "storage/wal.h"
#include "testbed/options.h"

namespace dkb::net {

/// Protocol version carried by Hello. Bump on any incompatible change to
/// the frame format or a payload encoding.
///
/// v2: query options carry a trace context (trace_id, parent span id,
/// sampled flag), kResultSets payloads end with a span-tree section, and
/// kStats/kStatsOk exist. The frame format itself is unchanged, so a v1
/// peer still parses v2 frames; it is the payload encodings that moved,
/// which is why Hello's version check rejects the mismatch cleanly before
/// any other payload is interpreted.
///
/// v3: the strategy byte of query options lost the generic native engine,
/// so 2 now means native-tc (v2's native) and 3 is out of range. A v2 peer
/// gets the version-mismatch error instead of a strategy that silently
/// means something else.
constexpr uint32_t kProtocolVersion = 3;

/// Frame layout (all integers little-endian):
///
///   u32 len        bytes that FOLLOW the length field (type + request_id
///                  + payload); valid frames satisfy kFrameHeaderLen <= len
///   u8  type       MsgType
///   u32 request_id client-chosen; the response echoes it, which is what
///                  lets pipelined requests match their replies
///   payload        len - kFrameHeaderLen bytes, encoding per type
constexpr size_t kFrameHeaderLen = 5;  // type + request_id

/// Hard ceiling a peer may impose on `len`. The default server/client limit
/// (16 MiB) comfortably fits the paper workloads' largest fact batches.
constexpr uint32_t kDefaultMaxFrameLen = 16u * 1024 * 1024;

/// Message types. Requests have the high bit clear, responses set it; the
/// values are wire-stable (append only, never renumber). A mutation request
/// (MutationKind) carries the EncodeMutation payload of its WalRecordKind
/// (storage/wal.h).
enum class MsgType : uint8_t {
  // Requests (client -> server).
  kHello = 0x01,          // u32 protocol_version
  kConsult = 0x02,        // mutation
  kAddRule = 0x03,        // mutation
  kRetractRule = 0x04,    // mutation
  kDefineBase = 0x05,     // mutation
  kAddFacts = 0x06,       // mutation
  kPrepare = 0x07,        // query options, str goal
  kExecute = 0x08,        // u32 n, n x u32 statement_id
  kQuery = 0x09,          // query options, u32 n, n x str goal
  kSql = 0x0A,            // mutation
  kUpdateStored = 0x0B,   // mutation
  kClearWorkspace = 0x0C, // mutation
  kListRules = 0x0D,      // (empty)
  kCloseSession = 0x0E,   // (empty); server replies kOk then closes
  kStats = 0x0F,          // u8 sections bitmask; sessionless (no Hello
                          // needed), so monitors never pay for a COW session

  // Responses (server -> client).
  kHelloOk = 0x81,     // u32 protocol_version, u64 session_id
  kOk = 0x82,          // (empty)
  kResultSets = 0x83,  // u32 n, n x result set, trace section (see below)
  kPrepared = 0x84,    // u32 statement_id
  kRuleList = 0x85,    // u32 n, n x str
  kUpdated = 0x86,     // i64 rules_stored, i64 total_us
  kStatsOk = 0x87,     // u8 sections echo, requested sections in order
  kError = 0xFF,       // u16 ErrorCode, str message
};

/// True for the type values a client may send (the request half of MsgType).
bool IsRequestType(uint8_t type);

/// The WalRecordKind a mutation request carries; nullopt for the other
/// types.
std::optional<WalRecordKind> MutationKind(MsgType type);

/// The request type that carries a mutation of `kind`.
MsgType MutationRequest(WalRecordKind kind);

/// Human-readable name of a message type ("Query", "HelloOk", ...);
/// "Unknown" for values outside the enum. Used for sys.server row names
/// and log lines.
const char* MsgTypeName(MsgType type);

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kError;
  uint32_t request_id = 0;
  std::string payload;
};

/// Renders a complete frame (length prefix included) ready for the socket.
std::string EncodeFrame(MsgType type, uint32_t request_id,
                        std::string_view payload);

/// Incremental frame decoder: feed bytes as they arrive (in any split),
/// pull complete frames out. Framing violations (len below the header size
/// or above `max_frame_len`) are sticky errors — once the length prefix
/// cannot be trusted the stream has no recoverable frame boundary.
class FrameDecoder {
 public:
  explicit FrameDecoder(uint32_t max_frame_len = kDefaultMaxFrameLen)
      : max_frame_len_(max_frame_len) {}

  void Append(const char* data, size_t n) { buffer_.append(data, n); }

  enum class Next { kFrame, kNeedMore, kError };

  /// Which framing violation poisoned the stream (for the server's
  /// frame-cap vs malformed-frame rejection counters).
  enum class ErrorKind { kNone, kBelowHeader, kOverCap };

  /// Decodes the next complete frame into `out`. kNeedMore when the buffer
  /// holds only a partial frame; kError (with `error()` set) on a framing
  /// violation.
  Next Pop(Frame* out);

  const Status& error() const { return error_; }
  ErrorKind error_kind() const { return error_kind_; }

 private:
  uint32_t max_frame_len_;
  std::string buffer_;
  size_t pos_ = 0;  // consumed prefix of buffer_
  Status error_;
  ErrorKind error_kind_ = ErrorKind::kNone;
};

// ---------------------------------------------------------------------------
// Payload encoding. The byte codec itself lives in the storage layer
// (storage/codec.h) so the WAL and checkpoint formats share it without
// inverting the library DAG; the wire names are aliases.

using WireWriter = ::dkb::codec::Writer;
using WireReader = ::dkb::codec::Reader;

// ---------------------------------------------------------------------------
// Composite payloads shared by client and server.

/// Which QueryReport renderings a query response should carry, as
/// pre-rendered strings. Since protocol v2 the span tree itself also
/// crosses the wire (see the trace section of kResultSets), so remote
/// clients are no longer limited to these strings: they reassemble the
/// same hierarchical tree — server-side net.* spans included — that an
/// in-process caller gets, and render it locally.
enum ReportFormat : uint8_t {
  kReportNone = 0,
  kReportText = 1,
  kReportJson = 2,
  kReportChrome = 4,
};

/// The per-query knobs that cross the wire (QueryOptions minus local-only
/// concerns), the requested report renderings, and the trace context the
/// request runs under. A zero trace_id means the caller did not start a
/// distributed trace; `sampled` asks the server to build and return span
/// trees (collect_trace in the embedded options implies it).
struct WireQueryOptions {
  testbed::QueryOptions options;
  uint8_t report_formats = kReportNone;
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
  bool sampled = false;
};

void EncodeQueryOptions(WireWriter* w, const WireQueryOptions& opts);
bool DecodeQueryOptions(WireReader* r, WireQueryOptions* opts);

/// One query's answers plus the timing summary, in transport-neutral form.
/// (Defined here rather than in client.h so the codec does not depend on
/// the client library; dkb::Client re-exports it as QueryResultSet.)
struct WireResultSet {
  Schema schema;
  std::vector<Tuple> rows;
  int64_t rows_affected = 0;
  int64_t compile_us = 0;
  int64_t exec_us = 0;
  bool from_cache = false;
  std::string report_text;    // filled iff kReportText requested
  std::string report_json;    // filled iff kReportJson requested
  std::string report_chrome;  // filled iff kReportChrome requested
  /// The query's span tree as plain values, when tracing was on: the
  /// engine hierarchy for in-process queries, the same hierarchy under the
  /// server's net.* request spans for remote ones. shared_ptr (not a bare
  /// member) keeps WireResultSet cheap to copy through the client API.
  std::shared_ptr<const trace::SpanNode> trace;
};

void EncodeResultSet(WireWriter* w, const WireResultSet& rs);
bool DecodeResultSet(WireReader* r, WireResultSet* rs);

// ---------------------------------------------------------------------------
// Span trees on the wire (protocol v2).

/// Depth cap for decoded span trees; deeper payloads are malformed (real
/// traces are ~6 levels: request > query > execute > node > iteration).
constexpr int kMaxSpanDepth = 64;

void EncodeSpanNode(WireWriter* w, const trace::SpanNode& node);
bool DecodeSpanNode(WireReader* r, trace::SpanNode* node, int depth = 0);

/// The trace section closing every v2 kResultSets payload: u32 count
/// (0 or sets.size()) then per set a u8 presence flag + span tree. Written
/// after the result sets so the server's net.encode span can honestly
/// cover row encoding (only the tree serialization itself is excluded).
void EncodeTraceSection(WireWriter* w, const std::vector<WireResultSet>& sets);
/// Fills `trace` on each set. An empty remainder (v2 server with tracing
/// compiled out) decodes as "no traces" rather than an error.
bool DecodeTraceSection(WireReader* r, std::vector<WireResultSet>* sets);

// ---------------------------------------------------------------------------
// Stats (kStats / kStatsOk): the sessionless monitoring surface behind
// dkb_top and the CI metrics scrape.

/// Section bits for the kStats request; the reply echoes the bitmask and
/// carries the requested sections in this order.
constexpr uint8_t kStatsServer = 1;       // server + global metric samples
constexpr uint8_t kStatsConnections = 2;  // live connection registry
constexpr uint8_t kStatsPrometheus = 4;   // text exposition of the registry
constexpr uint8_t kStatsAll =
    kStatsServer | kStatsConnections | kStatsPrometheus;

/// One live connection as reported over the wire (mirrors
/// testbed::Testbed::ConnectionInfo without dragging the testbed facade
/// into the client's dependencies).
struct WireConnectionRow {
  int64_t connection_id = 0;
  std::string peer;
  int64_t session_id = 0;
  int64_t frames_received = 0;
  int64_t bytes_in = 0;
  int64_t bytes_out = 0;
  int64_t queries = 0;
  int64_t requests = 0;
  int64_t errors = 0;
  int64_t age_us = 0;
};

/// Decoded kStatsOk payload; only the sections named in `sections` are
/// filled.
struct StatsReply {
  uint8_t sections = 0;
  std::vector<metrics::MetricSample> server;
  std::vector<WireConnectionRow> connections;
  std::string prometheus;
};

std::string EncodeStatsRequest(uint8_t sections);
bool DecodeStatsRequest(std::string_view payload, uint8_t* sections);
void EncodeStatsReply(WireWriter* w, const StatsReply& reply);
bool DecodeStatsReply(WireReader* r, StatsReply* reply);

/// Error frames: u16 ErrorCode + message. Decode returns the round-tripped
/// Status (never OK — an OK code in an Error frame decodes as kInternal).
std::string EncodeErrorPayload(const Status& status);
Status DecodeErrorPayload(std::string_view payload);

}  // namespace dkb::net

#endif  // DKB_NET_WIRE_H_
