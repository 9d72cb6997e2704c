#include "client/remote_client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <system_error>
#include <utility>

namespace dkb {

using net::Frame;
using net::FrameDecoder;
using net::MsgType;
using net::WireReader;
using net::WireWriter;

namespace {

std::string ErrnoMessage(const char* what) {
  return std::string(what) + ": " +
         std::error_code(errno, std::generic_category()).message();
}

/// Process-unique trace ids: a splitmix64 walk over a counter seeded from
/// the pid, so ids from concurrently tracing clients rarely collide and a
/// zero id (= "no trace") is never produced.
uint64_t NextTraceId() {
  static std::atomic<uint64_t> counter{
      static_cast<uint64_t>(getpid()) << 32};
  uint64_t x = counter.fetch_add(0x9e3779b97f4a7c15ull,
                                 std::memory_order_relaxed) +
               0x9e3779b97f4a7c15ull;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x | 1;
}

}  // namespace

Result<int> RemoteClient::DialTcp(const std::string& host_port) {
  size_t colon = host_port.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == host_port.size()) {
    return Status::InvalidArgument("expected host:port, got \"" + host_port +
                                   "\"");
  }
  std::string host = host_port.substr(0, colon);
  std::string port = host_port.substr(colon + 1);

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  int rc = getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
  if (rc != 0) {
    // gai_strerror is on the clang-tidy mt-unsafe list; the numeric
    // EAI_* code is unambiguous enough for a connect failure.
    return Status::Unavailable("resolve " + host_port +
                               ": getaddrinfo error " + std::to_string(rc));
  }
  int fd = -1;
  Status last = Status::Unavailable("no addresses for " + host_port);
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::Unavailable(ErrnoMessage("socket"));
      continue;
    }
    if (connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last = Status::Unavailable(ErrnoMessage("connect"));
    close(fd);
    fd = -1;
  }
  freeaddrinfo(res);
  if (fd < 0) return last;
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Result<std::unique_ptr<RemoteClient>> RemoteClient::Connect(
    const std::string& host_port, uint32_t max_frame_len) {
  DKB_ASSIGN_OR_RETURN(int fd, DialTcp(host_port));
  std::unique_ptr<RemoteClient> client(new RemoteClient(fd, max_frame_len));
  WireWriter hello;
  hello.U32(net::kProtocolVersion);
  auto reply = client->Call(MsgType::kHello, hello.str(), MsgType::kHelloOk);
  if (!reply.ok()) return reply.status();
  WireReader r(reply->payload);
  uint32_t version = 0;
  uint64_t session_id = 0;
  if (!r.U32(&version) || !r.U64(&session_id) || !r.Done()) {
    return Status::ProtocolError("malformed HelloOk payload");
  }
  client->session_id_ = static_cast<int64_t>(session_id);
  return client;
}

RemoteClient::~RemoteClient() {
  if (fd_ >= 0) {
    // Best effort: tell the server we are leaving so it can drop the
    // session promptly; the close() is what actually matters. Sessionless
    // connections (FetchStats) never did the Hello handshake, so a
    // CloseSession would only count as a protocol error server-side.
    if (session_id_ != 0) {
      std::string frame =
          net::EncodeFrame(MsgType::kCloseSession, next_request_id_++, "");
      (void)send(fd_, frame.data(), frame.size(), MSG_NOSIGNAL);
    }
    close(fd_);
  }
}

Status RemoteClient::SendFrame(MsgType type, uint32_t request_id,
                               std::string_view payload) {
  if (fd_ < 0) return Status::Unavailable("connection closed");
  std::string frame = net::EncodeFrame(type, request_id, payload);
  size_t off = 0;
  while (off < frame.size()) {
    ssize_t n =
        send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(ErrnoMessage("send"));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<Frame> RemoteClient::ReceiveFrame(uint32_t request_id) {
  auto parked = parked_.find(request_id);
  if (parked != parked_.end()) {
    Frame frame = std::move(parked->second);
    parked_.erase(parked);
    if (frame.type == MsgType::kError) {
      return net::DecodeErrorPayload(frame.payload);
    }
    return frame;
  }

  char buf[64 * 1024];
  for (;;) {
    Frame frame;
    FrameDecoder::Next next = decoder_.Pop(&frame);
    if (next == FrameDecoder::Next::kError) return decoder_.error();
    if (next == FrameDecoder::Next::kFrame) {
      if (frame.request_id != request_id) {
        parked_[frame.request_id] = std::move(frame);
        continue;
      }
      if (frame.type == MsgType::kError) {
        return net::DecodeErrorPayload(frame.payload);
      }
      return frame;
    }
    ssize_t n = read(fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Status::Unavailable(ErrnoMessage("read"));
    if (n == 0) return Status::Unavailable("server closed the connection");
    decoder_.Append(buf, static_cast<size_t>(n));
  }
}

Result<Frame> RemoteClient::Call(MsgType type, std::string_view payload,
                                 MsgType expected) {
  uint32_t request_id = next_request_id_++;
  DKB_RETURN_IF_ERROR(SendFrame(type, request_id, payload));
  DKB_ASSIGN_OR_RETURN(Frame frame, ReceiveFrame(request_id));
  if (frame.type != expected) {
    return Status::ProtocolError(
        "unexpected response type " +
        std::to_string(static_cast<unsigned>(frame.type)));
  }
  return frame;
}

Result<Frame> RemoteClient::Commit(const Mutation& m, MsgType expected) {
  return Call(net::MutationRequest(m.kind), EncodeMutation(m), expected);
}

Status RemoteClient::Consult(const std::string& program_text) {
  return Commit({WalRecordKind::kConsult, program_text}).status();
}

Status RemoteClient::AddRule(const std::string& rule_text) {
  return Commit({WalRecordKind::kAddRule, rule_text}).status();
}

Status RemoteClient::RetractRule(const std::string& rule_text) {
  return Commit({WalRecordKind::kRetractRule, rule_text}).status();
}

Status RemoteClient::DefineBase(const std::string& pred,
                                const std::vector<DataType>& types) {
  return Commit({WalRecordKind::kDefineBase, pred, types}).status();
}

Status RemoteClient::AddFacts(const std::string& pred,
                              const std::vector<Tuple>& rows) {
  return Commit({WalRecordKind::kAddFacts, pred, {}, rows}).status();
}

std::string RemoteClient::EncodeQueryPayload(
    const std::vector<std::string>& goals,
    const testbed::QueryOptions& options, uint8_t report_formats) {
  WireWriter w;
  net::WireQueryOptions opts;
  opts.options = options;
  opts.report_formats = report_formats;
  // Sampling is driven by the caller's tracing intent: collect_trace or
  // EXPLAIN ANALYZE means "I want the span tree back", so start a
  // distributed trace and ask the server to build one.
  opts.sampled = options.collect_trace ||
                 options.explain == testbed::ExplainMode::kAnalyze;
  if (opts.sampled) opts.trace_id = NextTraceId();
  net::EncodeQueryOptions(&w, opts);
  w.U32(static_cast<uint32_t>(goals.size()));
  for (const std::string& goal : goals) w.Str(goal);
  return w.Take();
}

Result<std::vector<QueryResultSet>> RemoteClient::DecodeResultSets(
    const Frame& frame) {
  WireReader r(frame.payload);
  uint32_t n = 0;
  if (!r.U32(&n)) {
    return Status::ProtocolError("malformed ResultSets payload");
  }
  std::vector<QueryResultSet> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    QueryResultSet rs;
    if (!net::DecodeResultSet(&r, &rs)) {
      return Status::ProtocolError("malformed result set " +
                                   std::to_string(i));
    }
    out.push_back(std::move(rs));
  }
  if (!net::DecodeTraceSection(&r, &out)) {
    return Status::ProtocolError("malformed trace section");
  }
  if (!r.Done()) {
    return Status::ProtocolError("trailing bytes after result sets");
  }
  return out;
}

Result<QueryResultSet> RemoteClient::Query(
    const std::string& goal_text, const testbed::QueryOptions& options,
    uint8_t report_formats) {
  DKB_ASSIGN_OR_RETURN(
      std::vector<QueryResultSet> sets,
      QueryBatch({goal_text}, options, report_formats));
  if (sets.size() != 1) {
    return Status::ProtocolError("expected 1 result set, got " +
                                 std::to_string(sets.size()));
  }
  return std::move(sets[0]);
}

Result<std::vector<QueryResultSet>> RemoteClient::QueryBatch(
    const std::vector<std::string>& goals,
    const testbed::QueryOptions& options, uint8_t report_formats) {
  DKB_ASSIGN_OR_RETURN(uint32_t request_id,
                       SendQueryBatch(goals, options, report_formats));
  return ReceiveResultSets(request_id);
}

Result<uint32_t> RemoteClient::SendQueryBatch(
    const std::vector<std::string>& goals,
    const testbed::QueryOptions& options, uint8_t report_formats) {
  uint32_t request_id = next_request_id_++;
  DKB_RETURN_IF_ERROR(
      SendFrame(MsgType::kQuery, request_id,
                EncodeQueryPayload(goals, options, report_formats)));
  return request_id;
}

Result<uint32_t> RemoteClient::SendExecute(
    const std::vector<StatementId>& statements) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(statements.size()));
  for (StatementId stmt : statements) w.U32(stmt);
  uint32_t request_id = next_request_id_++;
  DKB_RETURN_IF_ERROR(SendFrame(MsgType::kExecute, request_id, w.str()));
  return request_id;
}

Result<std::vector<QueryResultSet>> RemoteClient::ReceiveResultSets(
    uint32_t request_id) {
  DKB_ASSIGN_OR_RETURN(Frame frame, ReceiveFrame(request_id));
  if (frame.type != MsgType::kResultSets) {
    return Status::ProtocolError(
        "unexpected response type " +
        std::to_string(static_cast<unsigned>(frame.type)));
  }
  return DecodeResultSets(frame);
}

Result<StatementId> RemoteClient::Prepare(
    const std::string& goal_text, const testbed::QueryOptions& options) {
  WireWriter w;
  net::WireQueryOptions opts;
  opts.options = options;
  // Execute runs under the options fixed at Prepare time, so the trace
  // context is stamped here: every Execute of this statement reuses it.
  opts.sampled = options.collect_trace ||
                 options.explain == testbed::ExplainMode::kAnalyze;
  if (opts.sampled) opts.trace_id = NextTraceId();
  net::EncodeQueryOptions(&w, opts);
  w.Str(goal_text);
  DKB_ASSIGN_OR_RETURN(Frame frame,
                       Call(MsgType::kPrepare, w.str(), MsgType::kPrepared));
  WireReader r(frame.payload);
  uint32_t stmt_id = 0;
  if (!r.U32(&stmt_id) || !r.Done()) {
    return Status::ProtocolError("malformed Prepared payload");
  }
  return stmt_id;
}

Result<std::vector<QueryResultSet>> RemoteClient::Execute(
    const std::vector<StatementId>& statements) {
  DKB_ASSIGN_OR_RETURN(uint32_t request_id, SendExecute(statements));
  return ReceiveResultSets(request_id);
}

Result<QueryResultSet> RemoteClient::ExecuteSql(const std::string& statement) {
  DKB_ASSIGN_OR_RETURN(
      Frame frame,
      Commit({WalRecordKind::kSql, statement}, MsgType::kResultSets));
  DKB_ASSIGN_OR_RETURN(std::vector<QueryResultSet> sets,
                       DecodeResultSets(frame));
  if (sets.size() != 1) {
    return Status::ProtocolError("expected 1 result set, got " +
                                 std::to_string(sets.size()));
  }
  return std::move(sets[0]);
}

Result<UpdateStoredStats> RemoteClient::UpdateStoredDkb() {
  DKB_ASSIGN_OR_RETURN(
      Frame frame, Commit({WalRecordKind::kUpdateStored}, MsgType::kUpdated));
  WireReader r(frame.payload);
  UpdateStoredStats stats;
  if (!r.I64(&stats.rules_stored) || !r.I64(&stats.total_us) || !r.Done()) {
    return Status::ProtocolError("malformed Updated payload");
  }
  return stats;
}

Status RemoteClient::ClearWorkspace() {
  return Commit({WalRecordKind::kClearWorkspace}).status();
}

Result<net::StatsReply> RemoteClient::FetchServerStats(uint8_t sections) {
  DKB_ASSIGN_OR_RETURN(Frame frame,
                       Call(MsgType::kStats,
                            net::EncodeStatsRequest(sections),
                            MsgType::kStatsOk));
  WireReader r(frame.payload);
  net::StatsReply reply;
  if (!net::DecodeStatsReply(&r, &reply)) {
    return Status::ProtocolError("malformed StatsOk payload");
  }
  return reply;
}

Result<net::StatsReply> RemoteClient::FetchStats(const std::string& host_port,
                                                 uint8_t sections,
                                                 uint32_t max_frame_len) {
  DKB_ASSIGN_OR_RETURN(int fd, DialTcp(host_port));
  // No Hello: kStats is the one sessionless request, so the poller never
  // costs the server a COW session (and the destructor, seeing no session
  // id, skips the CloseSession courtesy frame).
  std::unique_ptr<RemoteClient> client(new RemoteClient(fd, max_frame_len));
  return client->FetchServerStats(sections);
}

Result<std::vector<std::string>> RemoteClient::ListRules() {
  DKB_ASSIGN_OR_RETURN(Frame frame,
                       Call(MsgType::kListRules, "", MsgType::kRuleList));
  WireReader r(frame.payload);
  uint32_t n = 0;
  if (!r.U32(&n)) return Status::ProtocolError("malformed RuleList payload");
  std::vector<std::string> rules;
  rules.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string rule;
    if (!r.Str(&rule)) {
      return Status::ProtocolError("malformed RuleList payload");
    }
    rules.push_back(std::move(rule));
  }
  if (!r.Done()) return Status::ProtocolError("malformed RuleList payload");
  return rules;
}

}  // namespace dkb
