#ifndef DKB_NET_SERVER_H_
#define DKB_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/sync.h"
#include "net/wire.h"
#include "testbed/testbed.h"

namespace dkb::net {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = kernel-assigned; read the result from port()
  uint32_t max_frame_len = kDefaultMaxFrameLen;
  /// Network-layer slow-request threshold: any request whose arrival-to-
  /// response time exceeds this emits one structured line through the
  /// flight recorder's slow-query sink (stderr when none is set). < 0
  /// disables the log.
  int64_t slow_request_us = -1;
};

/// The dkb_server engine: a TCP accept loop (poll with a stop-flag
/// timeout) handing each connection to its own thread, which speaks the
/// length-prefixed protocol of net/wire.h and multiplexes onto one shared
/// Testbed.
///
/// Concurrency model per connection:
///   - Hello opens a COW Session (testbed/session.h); queries run against
///     that private snapshot, concurrently with every other connection.
///   - Mutating requests (Consult, AddRule, DefineBase, AddFacts, Sql,
///     UpdateStored, ClearWorkspace) go through the Testbed's writer-locked
///     entry points and bump the epoch, so other connections' snapshots
///     refresh on their next query.
///
/// Pipelining: a connection's frames are processed strictly in arrival
/// order and each produces exactly one response frame carrying the
/// request's id, so clients may keep many requests in flight and match
/// responses by request_id.
///
/// While started, the server installs its connection registry as the
/// testbed's sys.connections source and its request-lifecycle statistics
/// as the sys.server source.
///
/// Request lifecycle instrumentation (per request): queue (frame fully
/// received -> handling starts, i.e. pipeline backlog), decode (payload
/// parse), execute (engine work), encode (response rendering). Each phase
/// feeds a pow2 histogram here and in the global metrics registry
/// (dkb.server.*); sampled query requests additionally get a net.* span
/// tree wrapped around the engine's own spans and shipped back in the
/// response (wire.h, trace section).
class Server {
 public:
  Server() = default;
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the accept loop. `testbed` must outlive
  /// Stop().
  Status Start(testbed::Testbed* testbed,
               const ServerOptions& options = ServerOptions{});

  /// Stops accepting, shuts down every live connection, and waits for all
  /// connection threads to drain. Idempotent.
  void Stop();

  /// The bound port (resolves kernel-assigned port 0).
  uint16_t port() const { return port_; }

  /// Live connections, in the sys.connections row shape.
  std::vector<testbed::Testbed::ConnectionInfo> Connections() const
      DKB_EXCLUDES(conns_mu_);

  /// The sys.server rows: uptime, connection lifecycle counts, framing
  /// rejections, per-phase latency histograms, and per-MsgType request
  /// counts/latencies (only types seen so far), in the sys.metrics row
  /// shape.
  std::vector<metrics::MetricSample> StatsSnapshot() const
      DKB_EXCLUDES(conns_mu_);

 private:
  /// Registry entry for one live connection. Counters are atomics so the
  /// sys.connections provider reads them without stalling the connection.
  struct Connection {
    int fd = -1;
    int64_t id = 0;
    std::string peer;
    std::chrono::steady_clock::time_point accepted_at;
    std::atomic<int64_t> session_id{0};
    std::atomic<int64_t> frames_received{0};
    std::atomic<int64_t> bytes_in{0};
    std::atomic<int64_t> bytes_out{0};
    std::atomic<int64_t> queries{0};
    std::atomic<int64_t> requests{0};
    std::atomic<int64_t> errors{0};
  };

  /// Request-lifecycle statistics, updated with relaxed atomics from every
  /// connection thread and snapshotted by sys.server / kStats readers.
  /// Request types index the per-type arrays by their wire value
  /// (0x01..0x0F).
  struct Stats {
    static constexpr size_t kTypeSlots = 16;
    std::chrono::steady_clock::time_point started_at;
    std::atomic<int64_t> accepted{0};
    std::atomic<int64_t> errored{0};  // closed after >= 1 error
    std::atomic<int64_t> frame_cap_rejections{0};
    std::atomic<int64_t> malformed_frames{0};
    std::atomic<int64_t> bytes_in{0};
    std::atomic<int64_t> bytes_out{0};
    metrics::Counter requests[kTypeSlots];
    metrics::Histogram request_us[kTypeSlots];
    metrics::Histogram queue_us;
    metrics::Histogram decode_us;
    metrics::Histogram execute_us;
    metrics::Histogram encode_us;
  };

  /// Per-connection protocol state, owned by the connection's thread.
  struct ConnState;

  /// Timing context for one request: when its frame was fully received,
  /// how long it queued behind earlier pipelined requests, and the phase
  /// breakdown HandleRequest fills in on the paths that measure it
  /// (negative = not measured on this path).
  struct RequestContext {
    std::chrono::steady_clock::time_point arrival;
    int64_t queue_us = 0;
    int64_t decode_us = -1;
    int64_t execute_us = -1;
    int64_t encode_us = -1;

    /// Microseconds from frame arrival to now: the offset of "now" on the
    /// request's span timeline.
    int64_t SinceArrivalUs() const;
  };

  /// One goal of a kQuery/kExecute batch, normalized so both paths share
  /// RunQueries.
  struct QuerySpec {
    std::string goal;
    WireQueryOptions opts;
  };

  void AcceptLoop();
  void Serve(std::shared_ptr<Connection> conn);
  /// Dispatches one request frame, returning the encoded response frame.
  /// Sets *close_conn for CloseSession and fatal handshake errors.
  std::string HandleRequest(Connection* conn, ConnState* state,
                            const Frame& frame, RequestContext* rctx,
                            bool* close_conn);
  /// Shared execute+encode tail of kQuery/kExecute: runs each goal against
  /// the connection's session, wraps sampled queries' engine span trees in
  /// the request's net.* spans, encodes the kResultSets response (trace
  /// section included), and annotates the flight-recorder entries with the
  /// request/response frame sizes.
  std::string RunQueries(
      Connection* conn, ConnState* state, uint32_t request_id,
      std::vector<QuerySpec>& specs, RequestContext* rctx,
      size_t request_payload_bytes,
      const std::function<std::string(const Status&)>& error);
  /// A mutation request of `kind`: decodes the payload through the one
  /// mutation codec (a payload it rejects is a ProtocolError) and commits
  /// it. kSql answers with its result set, kUpdateStored with kUpdated, the
  /// other kinds with kOk.
  std::string HandleMutation(
      uint32_t request_id, WalRecordKind kind, std::string_view payload,
      RequestContext* rctx,
      const std::function<std::string(const Status&)>& error);
  /// The kStatsOk response for a sessionless (or in-session) Stats request.
  std::string BuildStatsReply(uint32_t request_id, uint8_t sections) const;
  bool SendAll(Connection* conn, std::string_view data);

  testbed::Testbed* testbed_ = nullptr;
  ServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread accept_thread_;

  mutable Mutex conns_mu_;
  std::map<int64_t, std::shared_ptr<Connection>> conns_
      DKB_GUARDED_BY(conns_mu_);
  std::atomic<int64_t> next_conn_id_{1};
  Stats stats_;

  /// Connection threads are detached; Stop() waits for this count to drain
  /// after shutting their sockets down.
  Mutex active_mu_;
  CondVar active_cv_;
  int active_threads_ DKB_GUARDED_BY(active_mu_) = 0;
};

}  // namespace dkb::net

#endif  // DKB_NET_SERVER_H_
