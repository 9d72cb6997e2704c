#ifndef DKB_CLIENT_REMOTE_CLIENT_H_
#define DKB_CLIENT_REMOTE_CLIENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "client/client.h"
#include "net/wire.h"

namespace dkb {

/// dkb::Client over a TCP connection to a dkb_server, speaking the
/// length-prefixed protocol of src/net/wire.h. One connection = one
/// server-side COW session.
///
/// The blocking Client methods are one round trip each. For pipelining —
/// the `dkb_bench net` hot path — use SendQueryBatch/ReceiveResultSets: any
/// number of batches may be in flight, and responses may be collected in
/// any order (frames for other request ids are parked until asked for).
///
/// Not thread-safe; open one RemoteClient per thread.
class RemoteClient : public Client {
 public:
  /// Connects to "host:port", performs the Hello handshake, and returns a
  /// ready client.
  static Result<std::unique_ptr<RemoteClient>> Connect(
      const std::string& host_port,
      uint32_t max_frame_len = net::kDefaultMaxFrameLen);

  ~RemoteClient() override;

  Status Consult(const std::string& program_text) override;
  Status AddRule(const std::string& rule_text) override;
  Status RetractRule(const std::string& rule_text) override;
  Status DefineBase(const std::string& pred,
                    const std::vector<DataType>& types) override;
  Status AddFacts(const std::string& pred,
                  const std::vector<Tuple>& rows) override;
  Result<QueryResultSet> Query(const std::string& goal_text,
                               const testbed::QueryOptions& options,
                               uint8_t report_formats) override;
  Result<std::vector<QueryResultSet>> QueryBatch(
      const std::vector<std::string>& goals,
      const testbed::QueryOptions& options, uint8_t report_formats) override;
  Result<StatementId> Prepare(const std::string& goal_text,
                              const testbed::QueryOptions& options) override;
  Result<std::vector<QueryResultSet>> Execute(
      const std::vector<StatementId>& statements) override;
  Result<QueryResultSet> ExecuteSql(const std::string& statement) override;
  Result<UpdateStoredStats> UpdateStoredDkb() override;
  Status ClearWorkspace() override;
  Result<std::vector<std::string>> ListRules() override;
  bool is_remote() const override { return true; }

  /// The server-side session id assigned at Hello (shows up in the
  /// server's sys.sessions / sys.connections / sys.query_log).
  int64_t session_id() const { return session_id_; }

  /// Fetches the server's live telemetry (kStats) over this connection.
  /// `sections` is an OR of net::kStatsServer / kStatsConnections /
  /// kStatsPrometheus.
  Result<net::StatsReply> FetchServerStats(
      uint8_t sections = net::kStatsAll);

  /// One-shot sessionless stats fetch: dials host:port, sends kStats
  /// without a Hello handshake (so the server never opens a COW session),
  /// and returns the reply. This is dkb_top's poll path.
  static Result<net::StatsReply> FetchStats(
      const std::string& host_port, uint8_t sections = net::kStatsAll,
      uint32_t max_frame_len = net::kDefaultMaxFrameLen);

  // -- Pipelining ----------------------------------------------------------

  /// Fires one Query frame (a whole batch of goals) without waiting for
  /// the response; returns the request id to collect with.
  Result<uint32_t> SendQueryBatch(const std::vector<std::string>& goals,
                                  const testbed::QueryOptions& options,
                                  uint8_t report_formats = net::kReportNone);

  /// Fires one Execute frame over prepared statements; returns the request
  /// id to collect with.
  Result<uint32_t> SendExecute(const std::vector<StatementId>& statements);

  /// Collects the response for an in-flight request id (in any order).
  Result<std::vector<QueryResultSet>> ReceiveResultSets(uint32_t request_id);

 private:
  explicit RemoteClient(int fd, uint32_t max_frame_len)
      : fd_(fd), decoder_(max_frame_len) {}

  /// Resolves "host:port" and returns a connected TCP socket (TCP_NODELAY
  /// set). Shared by Connect and the sessionless FetchStats.
  static Result<int> DialTcp(const std::string& host_port);

  /// Writes one request frame.
  Status SendFrame(net::MsgType type, uint32_t request_id,
                   std::string_view payload);
  /// Reads frames until the one for `request_id` arrives, parking frames
  /// for other in-flight requests. An Error frame resolves to its Status.
  Result<net::Frame> ReceiveFrame(uint32_t request_id);
  /// SendFrame + ReceiveFrame + expected-type check.
  Result<net::Frame> Call(net::MsgType type, std::string_view payload,
                          net::MsgType expected);
  /// Call with the mutation request of `m.kind` and m's encoding.
  Result<net::Frame> Commit(const Mutation& m,
                            net::MsgType expected = net::MsgType::kOk);

  /// Encodes a kQuery payload, stamping a fresh client-generated trace id
  /// and the sampling flag (on when the options ask for a trace) so the
  /// server knows to build and return the net.*-wrapped span tree.
  static std::string EncodeQueryPayload(
      const std::vector<std::string>& goals,
      const testbed::QueryOptions& options, uint8_t report_formats);
  static Result<std::vector<QueryResultSet>> DecodeResultSets(
      const net::Frame& frame);

  int fd_ = -1;
  net::FrameDecoder decoder_;
  uint32_t next_request_id_ = 1;
  int64_t session_id_ = 0;
  std::map<uint32_t, net::Frame> parked_;
};

}  // namespace dkb

#endif  // DKB_CLIENT_REMOTE_CLIENT_H_
