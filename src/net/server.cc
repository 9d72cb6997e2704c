#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <deque>
#include <system_error>
#include <utility>

#include "common/trace.h"
#include "datalog/parser.h"
#include "net/convert.h"
#include "testbed/session.h"

namespace dkb::net {

namespace {

constexpr int kListenBacklog = 256;  // connections queued before accept

std::string ErrnoMessage(const char* what) {
  return std::string(what) + ": " +
         std::error_code(errno, std::generic_category()).message();
}

std::string FormatPeer(const sockaddr_in& addr) {
  char buf[INET_ADDRSTRLEN] = {0};
  if (inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf)) == nullptr) {
    return "unknown";
  }
  return std::string(buf) + ":" + std::to_string(ntohs(addr.sin_port));
}

int64_t UsBetween(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

/// A value-tree span on the request timeline (offsets from frame arrival).
trace::SpanNode MakeSpan(std::string name, int64_t start_us, int64_t end_us) {
  trace::SpanNode node;
  node.name = std::move(name);
  node.start_us = start_us;
  node.end_us = end_us;
  node.tid = trace::TraceContext::CurrentThreadId();
  return node;
}

metrics::MetricSample HistogramSample(const std::string& name,
                                      const metrics::Histogram& h) {
  metrics::MetricSample s;
  s.name = name;
  s.kind = "histogram";
  s.value = h.count();
  s.sum = h.sum();
  s.max = h.max();
  s.p50 = h.ApproxQuantile(0.5);
  s.p99 = h.ApproxQuantile(0.99);
  return s;
}

metrics::MetricSample CounterSample(const std::string& name, int64_t value) {
  metrics::MetricSample s;
  s.name = name;
  s.kind = "counter";
  s.value = value;
  return s;
}

metrics::MetricSample GaugeSample(const std::string& name, int64_t value) {
  metrics::MetricSample s;
  s.name = name;
  s.kind = "gauge";
  s.value = value;
  return s;
}

/// One line for the network-layer slow-request log, mirroring the flight
/// recorder's slow-query record shape.
std::string FormatSlowRequest(int64_t conn_id, const std::string& peer,
                              MsgType type, int64_t total_us,
                              int64_t queue_us, size_t request_bytes,
                              size_t response_bytes, bool json) {
  if (json) {
    std::string out = "{\"slow_request\": true";
    out += ", \"connection_id\": " + std::to_string(conn_id);
    out += ", \"peer\": \"" + std::string(peer) + "\"";
    out += ", \"type\": \"" + std::string(MsgTypeName(type)) + "\"";
    out += ", \"total_us\": " + std::to_string(total_us);
    out += ", \"queue_us\": " + std::to_string(queue_us);
    out += ", \"bytes_received\": " + std::to_string(request_bytes);
    out += ", \"bytes_sent\": " + std::to_string(response_bytes) + "}";
    return out;
  }
  std::string out = "[dkb slow request]";
  out += " conn=" + std::to_string(conn_id);
  out += " peer=" + peer;
  out += std::string(" type=") + MsgTypeName(type);
  out += " total_us=" + std::to_string(total_us);
  out += " queue_us=" + std::to_string(queue_us);
  out += " bytes_received=" + std::to_string(request_bytes);
  out += " bytes_sent=" + std::to_string(response_bytes);
  return out;
}

}  // namespace

int64_t Server::RequestContext::SinceArrivalUs() const {
  return UsBetween(arrival, std::chrono::steady_clock::now());
}

/// Everything a connection accumulates beyond its registry counters: the
/// COW session opened by Hello and the prepared-statement table. Owned by
/// the connection's thread; never shared.
struct Server::ConnState {
  std::unique_ptr<testbed::Session> session;
  bool hello_done = false;

  struct PreparedStatement {
    std::string goal;
    testbed::QueryOptions options;
    uint8_t report_formats = kReportNone;
  };
  uint32_t next_statement_id = 1;
  std::map<uint32_t, PreparedStatement> prepared;
};

Server::~Server() { Stop(); }

Status Server::Start(testbed::Testbed* testbed, const ServerOptions& options) {
  if (started_) return Status::Internal("server already started");
  testbed_ = testbed;
  options_ = options;

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Unavailable(ErrnoMessage("socket"));
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = Status::Unavailable(ErrnoMessage("bind"));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (listen(listen_fd_, kListenBacklog) < 0) {
    Status status = Status::Unavailable(ErrnoMessage("listen"));
    close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = options_.port;
  }

  stop_.store(false, std::memory_order_release);
  started_ = true;
  stats_.started_at = std::chrono::steady_clock::now();
  testbed_->SetConnectionsSource([this]() { return Connections(); });
  testbed_->SetServerStatsSource([this]() { return StatsSnapshot(); });
  accept_thread_ = std::thread([this]() { AcceptLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  // Kick every live connection out of its blocking read; each thread then
  // unwinds, unregisters, and decrements the active count.
  {
    MutexLock lock(conns_mu_);
    for (auto& [id, conn] : conns_) shutdown(conn->fd, SHUT_RDWR);
  }
  {
    MutexLock lock(active_mu_);
    while (active_threads_ > 0) active_cv_.Wait(lock);
  }
  testbed_->SetConnectionsSource(nullptr);
  testbed_->SetServerStatsSource(nullptr);
  started_ = false;
}

std::vector<testbed::Testbed::ConnectionInfo> Server::Connections() const {
  const auto now = std::chrono::steady_clock::now();
  MutexLock lock(conns_mu_);
  std::vector<testbed::Testbed::ConnectionInfo> out;
  out.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) {
    testbed::Testbed::ConnectionInfo info;
    info.connection_id = conn->id;
    info.peer = conn->peer;
    info.session_id = conn->session_id.load(std::memory_order_relaxed);
    info.frames_received =
        conn->frames_received.load(std::memory_order_relaxed);
    info.bytes_in = conn->bytes_in.load(std::memory_order_relaxed);
    info.bytes_out = conn->bytes_out.load(std::memory_order_relaxed);
    info.queries = conn->queries.load(std::memory_order_relaxed);
    info.requests = conn->requests.load(std::memory_order_relaxed);
    info.errors = conn->errors.load(std::memory_order_relaxed);
    info.age_us = UsBetween(conn->accepted_at, now);
    out.push_back(std::move(info));
  }
  return out;
}

std::vector<metrics::MetricSample> Server::StatsSnapshot() const {
  const auto now = std::chrono::steady_clock::now();
  int64_t active = 0;
  {
    MutexLock lock(conns_mu_);
    active = static_cast<int64_t>(conns_.size());
  }
  auto relaxed = [](const std::atomic<int64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  std::vector<metrics::MetricSample> out;
  out.push_back(GaugeSample("uptime_us", UsBetween(stats_.started_at, now)));
  out.push_back(
      CounterSample("connections.accepted", relaxed(stats_.accepted)));
  out.push_back(GaugeSample("connections.active", active));
  out.push_back(
      CounterSample("connections.errored", relaxed(stats_.errored)));
  out.push_back(CounterSample("frame_cap_rejections",
                              relaxed(stats_.frame_cap_rejections)));
  out.push_back(
      CounterSample("malformed_frames", relaxed(stats_.malformed_frames)));
  out.push_back(CounterSample("bytes_in", relaxed(stats_.bytes_in)));
  out.push_back(CounterSample("bytes_out", relaxed(stats_.bytes_out)));
  out.push_back(HistogramSample("queue_us", stats_.queue_us));
  out.push_back(HistogramSample("decode_us", stats_.decode_us));
  out.push_back(HistogramSample("execute_us", stats_.execute_us));
  out.push_back(HistogramSample("encode_us", stats_.encode_us));
  for (size_t i = 0; i < Stats::kTypeSlots; ++i) {
    if (stats_.requests[i].value() == 0) continue;
    const char* name = MsgTypeName(static_cast<MsgType>(i));
    out.push_back(CounterSample(std::string("requests.") + name,
                                stats_.requests[i].value()));
    out.push_back(HistogramSample(std::string("request_us.") + name,
                                  stats_.request_us[i]));
  }
  return out;
}

void Server::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    int ready = poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready <= 0) continue;  // timeout (stop-flag check) or EINTR

    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    int fd = accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer),
                    &peer_len);
    if (fd < 0) continue;
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    conn->peer = FormatPeer(peer);
    conn->accepted_at = std::chrono::steady_clock::now();
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock lock(conns_mu_);
      conns_[conn->id] = conn;
    }
    {
      MutexLock lock(active_mu_);
      ++active_threads_;
    }
    std::thread([this, conn]() {
      Serve(conn);
      MutexLock lock(active_mu_);
      --active_threads_;
      active_cv_.NotifyAll();
    }).detach();
  }
}

bool Server::SendAll(Connection* conn, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = send(conn->fd, data.data() + off, data.size() - off,
                     MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  conn->bytes_out.fetch_add(static_cast<int64_t>(data.size()),
                            std::memory_order_relaxed);
  stats_.bytes_out.fetch_add(static_cast<int64_t>(data.size()),
                             std::memory_order_relaxed);
  return true;
}

void Server::Serve(std::shared_ptr<Connection> conn) {
  ConnState state;
  FrameDecoder decoder(options_.max_frame_len);
  std::vector<char> buf(64 * 1024);
  // Complete frames waiting behind the one being handled. Frames are
  // timestamped the moment they are fully received, so queue_us measures
  // real pipeline backlog (time parked here), not just loop overhead.
  struct PendingFrame {
    Frame frame;
    std::chrono::steady_clock::time_point arrival;
  };
  std::deque<PendingFrame> pending;
  bool open = true;

  // Hot-path handles into the global registry (lookup once per connection,
  // not per request).
  metrics::MetricsRegistry& global = metrics::GlobalMetrics();
  metrics::Counter& g_requests = global.counter("dkb.server.requests");
  metrics::Histogram& g_queue = global.histogram("dkb.server.queue_us");
  metrics::Histogram& g_decode = global.histogram("dkb.server.decode_us");
  metrics::Histogram& g_execute = global.histogram("dkb.server.execute_us");
  metrics::Histogram& g_encode = global.histogram("dkb.server.encode_us");
  metrics::Histogram& g_request = global.histogram("dkb.server.request_us");

  while (open && !stop_.load(std::memory_order_acquire)) {
    ssize_t n = read(conn->fd, buf.data(), buf.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error: peer is gone
    conn->bytes_in.fetch_add(n, std::memory_order_relaxed);
    stats_.bytes_in.fetch_add(n, std::memory_order_relaxed);
    decoder.Append(buf.data(), static_cast<size_t>(n));

    for (;;) {
      Frame frame;
      FrameDecoder::Next next = decoder.Pop(&frame);
      if (next == FrameDecoder::Next::kNeedMore) break;
      if (next == FrameDecoder::Next::kError) {
        // The length prefix can no longer be trusted; report and close.
        if (decoder.error_kind() == FrameDecoder::ErrorKind::kOverCap) {
          stats_.frame_cap_rejections.fetch_add(1,
                                                std::memory_order_relaxed);
        } else {
          stats_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
        }
        conn->errors.fetch_add(1, std::memory_order_relaxed);
        SendAll(conn.get(),
                EncodeFrame(MsgType::kError, 0,
                            EncodeErrorPayload(decoder.error())));
        open = false;
        break;
      }
      conn->frames_received.fetch_add(1, std::memory_order_relaxed);
      pending.push_back(
          PendingFrame{std::move(frame), std::chrono::steady_clock::now()});
    }

    while (open && !pending.empty()) {
      PendingFrame pf = std::move(pending.front());
      pending.pop_front();
      RequestContext rctx;
      rctx.arrival = pf.arrival;
      rctx.queue_us = rctx.SinceArrivalUs();
      conn->requests.fetch_add(1, std::memory_order_relaxed);
      g_requests.Add(1);
      stats_.queue_us.Observe(rctx.queue_us);
      g_queue.Observe(rctx.queue_us);

      bool close_conn = false;
      std::string response =
          HandleRequest(conn.get(), &state, pf.frame, &rctx, &close_conn);
      const bool is_error =
          response.size() > 4 &&
          static_cast<uint8_t>(response[4]) ==
              static_cast<uint8_t>(MsgType::kError);
      if (is_error) conn->errors.fetch_add(1, std::memory_order_relaxed);
      const bool sent = SendAll(conn.get(), response);
      const int64_t total_us = rctx.SinceArrivalUs();

      if (rctx.decode_us >= 0) {
        stats_.decode_us.Observe(rctx.decode_us);
        g_decode.Observe(rctx.decode_us);
      }
      if (rctx.execute_us >= 0) {
        stats_.execute_us.Observe(rctx.execute_us);
        g_execute.Observe(rctx.execute_us);
      }
      if (rctx.encode_us >= 0) {
        stats_.encode_us.Observe(rctx.encode_us);
        g_encode.Observe(rctx.encode_us);
      }
      g_request.Observe(total_us);
      const auto type_slot = static_cast<size_t>(pf.frame.type);
      if (type_slot < Stats::kTypeSlots) {
        stats_.requests[type_slot].Add(1);
        stats_.request_us[type_slot].Observe(total_us);
      }

      if (options_.slow_request_us >= 0 &&
          total_us > options_.slow_request_us) {
        const testbed::SlowQueryLogOptions slow =
            testbed_->recorder().slow_query_log();
        const std::string record = FormatSlowRequest(
            conn->id, conn->peer, pf.frame.type, total_us, rctx.queue_us,
            pf.frame.payload.size() + kFrameHeaderLen + 4, response.size(),
            slow.json);
        metrics::GlobalMetrics()
            .counter("dkb.server.slow_requests")
            .Add(1);
        if (slow.sink) {
          slow.sink(record);
        } else {
          std::fprintf(stderr, "%s\n", record.c_str());
        }
      }

      if (!sent || close_conn) open = false;
    }
  }

  if (conn->errors.load(std::memory_order_relaxed) > 0) {
    stats_.errored.fetch_add(1, std::memory_order_relaxed);
  }
  {
    MutexLock lock(conns_mu_);
    conns_.erase(conn->id);
  }
  close(conn->fd);
}

std::string Server::RunQueries(
    Connection* conn, ConnState* state, uint32_t request_id,
    std::vector<QuerySpec>& specs, RequestContext* rctx,
    size_t request_payload_bytes,
    const std::function<std::string(const Status&)>& error) {
  // Per-goal execution metadata kept alongside the result sets so the
  // encode loop below can build each goal's span tree.
  struct GoalMeta {
    bool sampled = false;
    bool has_engine = false;
    trace::SpanNode engine;
    int64_t query_id = 0;
    int64_t exec_start = 0;
    int64_t exec_end = 0;
  };
  std::vector<WireResultSet> sets;
  std::vector<GoalMeta> metas;
  sets.reserve(specs.size());
  metas.reserve(specs.size());

  for (QuerySpec& spec : specs) {
    GoalMeta meta;
    meta.sampled =
        spec.opts.sampled || spec.opts.options.collect_trace ||
        spec.opts.options.explain == testbed::ExplainMode::kAnalyze;
    testbed::QueryOptions qopts = spec.opts.options;
    // A sampled request turns on engine tracing even when the caller's
    // options alone would not have (the wire sampling flag is the
    // distributed-trace opt-in).
    if (meta.sampled) qopts.collect_trace = true;
    conn->queries.fetch_add(1, std::memory_order_relaxed);
    meta.exec_start = rctx->SinceArrivalUs();
    auto outcome = state->session->Query(spec.goal, qopts);
    if (!outcome.ok()) return error(outcome.status());
    meta.exec_end = rctx->SinceArrivalUs();
    meta.query_id = outcome->report.query_id;
    if (meta.sampled && outcome->report.trace != nullptr) {
      // Re-base the engine tree's offsets from its own epoch onto the
      // request timeline (frame arrival = 0) before grafting it under
      // net.execute.
      const int64_t base =
          UsBetween(rctx->arrival, outcome->report.trace->epoch());
      meta.engine =
          trace::SnapshotSpan(*outcome->report.trace->root(), base);
      meta.has_engine = true;
      // The conversion below would snapshot the tree a second time for
      // rs.trace, which is replaced by the wrapped net.* tree anyway; drop
      // the context first unless a pre-rendered report still needs it.
      if (spec.opts.report_formats == kReportNone) {
        outcome->report.trace.reset();
      }
    }
    // ResultSetFromOutcome attaches the raw engine tree (in-process
    // semantics); the wrapped net.* tree built below replaces it.
    sets.push_back(ResultSetFromOutcome(std::move(*outcome),
                                        spec.opts.report_formats));
    metas.push_back(std::move(meta));
  }
  int64_t exec_total = 0;
  for (const GoalMeta& meta : metas) {
    exec_total += meta.exec_end - meta.exec_start;
  }
  rctx->execute_us = exec_total;

  WireWriter w;
  w.U32(static_cast<uint32_t>(sets.size()));
  const int64_t encode_start = rctx->SinceArrivalUs();
  for (size_t i = 0; i < sets.size(); ++i) {
    const int64_t enc_start = rctx->SinceArrivalUs();
    EncodeResultSet(&w, sets[i]);
    const int64_t enc_end = rctx->SinceArrivalUs();
    GoalMeta& meta = metas[i];
    if (!meta.sampled) {
      sets[i].trace = nullptr;
      continue;
    }
    trace::SpanNode root = MakeSpan("net.request", 0, 0);
    root.tags.push_back({"request_id", std::to_string(request_id),
                         /*is_number=*/true});
    root.tags.push_back({"connection_id", std::to_string(conn->id),
                         /*is_number=*/true});
    if (specs[i].opts.trace_id != 0) {
      root.tags.push_back({"trace_id", std::to_string(specs[i].opts.trace_id),
                           /*is_number=*/true});
    }
    if (specs[i].opts.parent_span_id != 0) {
      root.tags.push_back(
          {"parent_span_id", std::to_string(specs[i].opts.parent_span_id),
           /*is_number=*/true});
    }
    root.children.push_back(MakeSpan("net.queue", 0, rctx->queue_us));
    root.children.push_back(MakeSpan(
        "net.decode", rctx->queue_us, rctx->queue_us + rctx->decode_us));
    trace::SpanNode exec =
        MakeSpan("net.execute", meta.exec_start, meta.exec_end);
    if (meta.has_engine) exec.children.push_back(std::move(meta.engine));
    root.children.push_back(std::move(exec));
    root.children.push_back(MakeSpan("net.encode", enc_start, enc_end));
    // The root closes here — everything after (trace serialization, the
    // send) cannot observe itself.
    root.end_us = rctx->SinceArrivalUs();
    sets[i].trace = std::make_shared<trace::SpanNode>(std::move(root));
  }
  rctx->encode_us = rctx->SinceArrivalUs() - encode_start;
  EncodeTraceSection(&w, sets);

  std::string response = EncodeFrame(MsgType::kResultSets, request_id,
                                     w.Take());
  const int64_t request_bytes =
      static_cast<int64_t>(request_payload_bytes + kFrameHeaderLen + 4);
  for (const GoalMeta& meta : metas) {
    testbed_->recorder().AnnotateBytes(
        meta.query_id, static_cast<int64_t>(response.size()), request_bytes);
  }
  return response;
}

std::string Server::BuildStatsReply(uint32_t request_id,
                                    uint8_t sections) const {
  StatsReply reply;
  reply.sections = sections;
  if ((sections & kStatsServer) != 0) reply.server = StatsSnapshot();
  if ((sections & kStatsConnections) != 0) {
    for (testbed::Testbed::ConnectionInfo& ci : Connections()) {
      WireConnectionRow row;
      row.connection_id = ci.connection_id;
      row.peer = std::move(ci.peer);
      row.session_id = ci.session_id;
      row.frames_received = ci.frames_received;
      row.bytes_in = ci.bytes_in;
      row.bytes_out = ci.bytes_out;
      row.queries = ci.queries;
      row.requests = ci.requests;
      row.errors = ci.errors;
      row.age_us = ci.age_us;
      reply.connections.push_back(std::move(row));
    }
  }
  if ((sections & kStatsPrometheus) != 0) {
    reply.prometheus = metrics::GlobalMetrics().RenderPrometheus();
  }
  WireWriter w;
  EncodeStatsReply(&w, reply);
  return EncodeFrame(MsgType::kStatsOk, request_id, w.Take());
}

std::string Server::HandleMutation(
    uint32_t request_id, WalRecordKind kind, std::string_view payload,
    RequestContext* rctx,
    const std::function<std::string(const Status&)>& error) {
  auto mutation = DecodeMutation(kind, payload);
  if (!mutation.ok()) {
    return error(Status::ProtocolError(mutation.status().message()));
  }
  const bool sql = kind == WalRecordKind::kSql;
  if (sql) rctx->decode_us = rctx->SinceArrivalUs() - rctx->queue_us;
  const int64_t exec_start = rctx->SinceArrivalUs();
  auto committed = testbed_->Commit(*mutation);
  if (!committed.ok()) return error(committed.status());
  if (kind == WalRecordKind::kUpdateStored) {
    WireWriter w;
    w.I64(committed->update.rules_stored);
    w.I64(committed->update.total_us());
    return EncodeFrame(MsgType::kUpdated, request_id, w.Take());
  }
  if (!sql) return EncodeFrame(MsgType::kOk, request_id, "");
  rctx->execute_us = rctx->SinceArrivalUs() - exec_start;
  WireResultSet rs;
  rs.schema = std::move(committed->result.schema);
  rs.rows = std::move(committed->result.rows);
  rs.rows_affected = committed->result.rows_affected;
  const int64_t encode_start = rctx->SinceArrivalUs();
  WireWriter w;
  w.U32(1);
  EncodeResultSet(&w, rs);
  rctx->encode_us = rctx->SinceArrivalUs() - encode_start;
  w.U32(0);  // trace section: SQL statements carry no span tree
  return EncodeFrame(MsgType::kResultSets, request_id, w.Take());
}

std::string Server::HandleRequest(Connection* conn, ConnState* state,
                                  const Frame& frame, RequestContext* rctx,
                                  bool* close_conn) {
  const uint32_t id = frame.request_id;
  auto error = [this, id](const Status& status) {
    if (status.code() == ErrorCode::kProtocolError) {
      stats_.malformed_frames.fetch_add(1, std::memory_order_relaxed);
    }
    return EncodeFrame(MsgType::kError, id, EncodeErrorPayload(status));
  };

  if (!IsRequestType(static_cast<uint8_t>(frame.type))) {
    return error(Status::ProtocolError(
        "unknown request type " +
        std::to_string(static_cast<unsigned>(frame.type))));
  }

  WireReader r(frame.payload);

  // Stats is sessionless: answered before (or without) Hello, so monitors
  // like dkb_top never open a COW session or change engine state.
  if (frame.type == MsgType::kStats) {
    uint8_t sections = 0;
    if (!DecodeStatsRequest(frame.payload, &sections)) {
      return error(Status::ProtocolError("malformed Stats payload"));
    }
    return BuildStatsReply(id, sections);
  }

  if (!state->hello_done) {
    if (frame.type != MsgType::kHello) {
      *close_conn = true;
      return error(Status::ProtocolError(
          "first frame on a connection must be Hello"));
    }
    uint32_t version = 0;
    if (!r.U32(&version) || !r.Done()) {
      *close_conn = true;
      return error(Status::ProtocolError("malformed Hello payload"));
    }
    if (version != kProtocolVersion) {
      *close_conn = true;
      return error(Status::ProtocolError(
          "protocol version mismatch: client " + std::to_string(version) +
          ", server " + std::to_string(kProtocolVersion)));
    }
    auto session = testbed_->OpenSession();
    if (!session.ok()) {
      *close_conn = true;
      return error(session.status());
    }
    state->session = std::move(*session);
    state->hello_done = true;
    conn->session_id.store(state->session->id(), std::memory_order_relaxed);
    WireWriter w;
    w.U32(kProtocolVersion);
    w.U64(static_cast<uint64_t>(state->session->id()));
    return EncodeFrame(MsgType::kHelloOk, id, w.Take());
  }

  if (std::optional<WalRecordKind> kind = MutationKind(frame.type)) {
    return HandleMutation(id, *kind, frame.payload, rctx, error);
  }

  switch (frame.type) {
    case MsgType::kHello:
      return error(Status::ProtocolError("duplicate Hello"));

    case MsgType::kPrepare: {
      WireQueryOptions opts;
      std::string goal;
      if (!DecodeQueryOptions(&r, &opts) || !r.Str(&goal) || !r.Done()) {
        return error(Status::ProtocolError("malformed Prepare payload"));
      }
      auto parsed = datalog::ParseQuery(goal);
      if (!parsed.ok()) return error(parsed.status());
      uint32_t stmt_id = state->next_statement_id++;
      state->prepared[stmt_id] = ConnState::PreparedStatement{
          goal, opts.options, opts.report_formats};
      WireWriter w;
      w.U32(stmt_id);
      return EncodeFrame(MsgType::kPrepared, id, w.Take());
    }

    case MsgType::kExecute: {
      uint32_t n = 0;
      if (!r.U32(&n) || n > r.remaining() / 4 + 1) {
        return error(Status::ProtocolError("malformed Execute payload"));
      }
      std::vector<uint32_t> stmts;
      stmts.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        uint32_t stmt_id = 0;
        if (!r.U32(&stmt_id)) {
          return error(Status::ProtocolError("malformed Execute payload"));
        }
        stmts.push_back(stmt_id);
      }
      if (!r.Done()) {
        return error(Status::ProtocolError("malformed Execute payload"));
      }
      rctx->decode_us = rctx->SinceArrivalUs() - rctx->queue_us;
      std::vector<QuerySpec> specs;
      specs.reserve(stmts.size());
      for (uint32_t stmt_id : stmts) {
        auto it = state->prepared.find(stmt_id);
        if (it == state->prepared.end()) {
          return error(Status::NotFound("no prepared statement with id " +
                                        std::to_string(stmt_id)));
        }
        // Prepared statements carry no per-execution trace context; an
        // Execute is traced only when its options asked for a trace at
        // Prepare time.
        WireQueryOptions opts;
        opts.options = it->second.options;
        opts.report_formats = it->second.report_formats;
        specs.push_back(QuerySpec{it->second.goal, opts});
      }
      return RunQueries(conn, state, id, specs, rctx,
                        frame.payload.size(), error);
    }

    case MsgType::kQuery: {
      WireQueryOptions opts;
      uint32_t n = 0;
      if (!DecodeQueryOptions(&r, &opts) || !r.U32(&n) ||
          n > r.remaining() / 4 + 1) {
        return error(Status::ProtocolError("malformed Query payload"));
      }
      std::vector<std::string> goals;
      goals.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        std::string goal;
        if (!r.Str(&goal)) {
          return error(Status::ProtocolError("malformed Query payload"));
        }
        goals.push_back(std::move(goal));
      }
      if (!r.Done()) {
        return error(Status::ProtocolError("malformed Query payload"));
      }
      rctx->decode_us = rctx->SinceArrivalUs() - rctx->queue_us;
      std::vector<QuerySpec> specs;
      specs.reserve(goals.size());
      for (std::string& goal : goals) {
        specs.push_back(QuerySpec{std::move(goal), opts});
      }
      return RunQueries(conn, state, id, specs, rctx,
                        frame.payload.size(), error);
    }

    case MsgType::kListRules: {
      if (!r.Done()) {
        return error(Status::ProtocolError("unexpected ListRules payload"));
      }
      std::vector<std::string> rules = testbed_->ListRuleTexts();
      WireWriter w;
      w.U32(static_cast<uint32_t>(rules.size()));
      for (const std::string& rule : rules) w.Str(rule);
      return EncodeFrame(MsgType::kRuleList, id, w.Take());
    }

    case MsgType::kCloseSession: {
      *close_conn = true;
      return EncodeFrame(MsgType::kOk, id, "");
    }

    default:
      return error(Status::ProtocolError("unhandled request type"));
  }
}

}  // namespace dkb::net
