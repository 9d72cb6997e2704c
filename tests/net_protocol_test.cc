// Wire-protocol tests: frame codec edge cases (partial reads, bad lengths,
// zero-length payloads, malformed type bytes), payload round trips, and a
// live Server driven both through RemoteClient and through a raw socket
// (for the violations a well-behaved client cannot produce).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "client/remote_client.h"
#include "gtest/gtest.h"
#include "net/server.h"
#include "net/wire.h"
#include "testbed/testbed.h"

namespace dkb::net {
namespace {

// ---------------------------------------------------------------------------
// Frame codec.

TEST(FrameDecoderTest, RoundTripsSingleFrame) {
  std::string bytes = EncodeFrame(MsgType::kConsult, 42, "payload");
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kConsult);
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_EQ(frame.payload, "payload");
  EXPECT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kNeedMore);
}

TEST(FrameDecoderTest, ReassemblesByteByByteDelivery) {
  // The cruellest packetization: every byte arrives alone, across two
  // back-to-back frames.
  std::string bytes = EncodeFrame(MsgType::kQuery, 7, "first") +
                      EncodeFrame(MsgType::kSql, 8, "second");
  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (char c : bytes) {
    decoder.Append(&c, 1);
    Frame frame;
    while (decoder.Pop(&frame) == FrameDecoder::Next::kFrame) {
      frames.push_back(frame);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].request_id, 7u);
  EXPECT_EQ(frames[0].payload, "first");
  EXPECT_EQ(frames[1].type, MsgType::kSql);
  EXPECT_EQ(frames[1].payload, "second");
}

TEST(FrameDecoderTest, ZeroLengthPayloadFrame) {
  std::string bytes = EncodeFrame(MsgType::kListRules, 3, "");
  // len counts only type + request_id.
  uint32_t len;
  std::memcpy(&len, bytes.data(), 4);
  EXPECT_EQ(len, kFrameHeaderLen);
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kListRules);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameDecoderTest, LengthBelowHeaderIsStickyError) {
  // len = 2 < kFrameHeaderLen: the length prefix cannot be trusted, so the
  // stream has no recoverable frame boundary.
  std::string bytes = {2, 0, 0, 0, 1, 1};
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kError);
  EXPECT_EQ(decoder.error().code(), ErrorCode::kProtocolError);
  // Sticky: even appending a valid frame cannot resynchronize.
  std::string good = EncodeFrame(MsgType::kListRules, 1, "");
  decoder.Append(good.data(), good.size());
  EXPECT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kError);
}

TEST(FrameDecoderTest, OversizedFrameIsError) {
  FrameDecoder decoder(/*max_frame_len=*/64);
  std::string bytes = EncodeFrame(MsgType::kConsult, 1, std::string(100, 'x'));
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(decoder.Pop(&frame), FrameDecoder::Next::kError);
  EXPECT_EQ(decoder.error().code(), ErrorCode::kProtocolError);
}

TEST(FrameDecoderTest, RequestTypeRange) {
  EXPECT_TRUE(IsRequestType(0x01));
  EXPECT_TRUE(IsRequestType(0x0E));
  EXPECT_TRUE(IsRequestType(0x0F));  // kStats (v2)
  EXPECT_FALSE(IsRequestType(0x00));
  EXPECT_FALSE(IsRequestType(0x10));
  EXPECT_FALSE(IsRequestType(0x81));
  EXPECT_FALSE(IsRequestType(0xFF));
}

// ---------------------------------------------------------------------------
// Payload codecs.

TEST(WireCodecTest, QueryOptionsRoundTrip) {
  WireQueryOptions in;
  in.options.use_magic = true;
  in.options.supplementary = true;
  in.options.strategy = lfp::LfpStrategy::kNaive;
  in.options.use_cache = true;
  in.options.WithParallelism(4);
  in.report_formats = kReportText | kReportChrome;
  WireWriter w;
  EncodeQueryOptions(&w, in);

  WireReader r(w.str());
  WireQueryOptions out;
  ASSERT_TRUE(DecodeQueryOptions(&r, &out));
  EXPECT_TRUE(r.Done());
  EXPECT_TRUE(out.options.use_magic);
  EXPECT_TRUE(out.options.supplementary);
  EXPECT_EQ(out.options.strategy, lfp::LfpStrategy::kNaive);
  EXPECT_TRUE(out.options.use_cache);
  EXPECT_EQ(out.options.EffectivePolicy().lfp_parallelism, 4);
  EXPECT_EQ(out.report_formats, kReportText | kReportChrome);
}

TEST(WireCodecTest, QueryOptionsRejectsBadStrategyByte) {
  WireWriter w;
  EncodeQueryOptions(&w, WireQueryOptions{});
  std::string bytes = w.Take();
  bytes[3] = static_cast<char>(200);  // strategy byte way out of range
  WireReader r(bytes);
  WireQueryOptions out;
  EXPECT_FALSE(DecodeQueryOptions(&r, &out));
}

TEST(WireCodecTest, ResultSetRoundTrip) {
  WireResultSet in;
  in.schema = Schema({{"name", DataType::kVarchar}, {"n", DataType::kInteger}});
  in.rows.push_back({Value::Interned("alpha"), Value(int64_t{7})});
  in.rows.push_back({Value(), Value(int64_t{-1})});  // null survives
  in.rows_affected = 2;
  in.compile_us = 123;
  in.exec_us = 456;
  in.from_cache = true;
  in.report_text = "plan: ...";
  WireWriter w;
  EncodeResultSet(&w, in);

  WireReader r(w.str());
  WireResultSet out;
  ASSERT_TRUE(DecodeResultSet(&r, &out));
  EXPECT_TRUE(r.Done());
  ASSERT_EQ(out.schema.num_columns(), 2u);
  EXPECT_EQ(out.schema.column(0).name, "name");
  EXPECT_EQ(out.schema.column(1).type, DataType::kInteger);
  ASSERT_EQ(out.rows.size(), 2u);
  EXPECT_EQ(out.rows[0][0].as_string(), "alpha");
  EXPECT_EQ(out.rows[0][1].as_int(), 7);
  EXPECT_TRUE(out.rows[1][0].is_null());
  EXPECT_EQ(out.compile_us, 123);
  EXPECT_EQ(out.exec_us, 456);
  EXPECT_TRUE(out.from_cache);
  EXPECT_EQ(out.report_text, "plan: ...");
  EXPECT_TRUE(out.report_json.empty());
}

TEST(WireCodecTest, TruncatedResultSetFailsCleanly) {
  WireResultSet in;
  in.schema = Schema({{"c", DataType::kVarchar}});
  in.rows.push_back({Value::Interned("v")});
  WireWriter w;
  EncodeResultSet(&w, in);
  std::string bytes = w.Take();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WireReader r(std::string_view(bytes).substr(0, cut));
    WireResultSet out;
    // Either the decode fails, or it succeeded on a prefix that did not
    // consume everything we cut — never a crash, never a bogus Done().
    if (DecodeResultSet(&r, &out)) EXPECT_FALSE(cut < bytes.size() && r.Done());
  }
}

TEST(WireCodecTest, ErrorPayloadRoundTrip) {
  Status in = Status::NotFound("no such rule");
  Status out = DecodeErrorPayload(EncodeErrorPayload(in));
  EXPECT_EQ(out.code(), ErrorCode::kNotFound);
  EXPECT_EQ(out.message(), "no such rule");
}

TEST(WireCodecTest, MalformedErrorPayloadIsProtocolError) {
  EXPECT_EQ(DecodeErrorPayload("x").code(), ErrorCode::kProtocolError);
  // An OK code inside an Error frame is a lying peer: degrade to internal.
  WireWriter w;
  w.U16(0);  // kOk
  w.Str("fine");
  EXPECT_EQ(DecodeErrorPayload(w.str()).code(), ErrorCode::kInternal);
}

// ---------------------------------------------------------------------------
// Trace and stats codecs (protocol v2).

void ExpectSameTree(const trace::SpanNode& a, const trace::SpanNode& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.start_us, b.start_us);
  EXPECT_EQ(a.end_us, b.end_us);
  EXPECT_EQ(a.tid, b.tid);
  ASSERT_EQ(a.tags.size(), b.tags.size()) << a.name;
  for (size_t i = 0; i < a.tags.size(); ++i) {
    EXPECT_EQ(a.tags[i].key, b.tags[i].key);
    EXPECT_EQ(a.tags[i].value, b.tags[i].value);
    EXPECT_EQ(a.tags[i].is_number, b.tags[i].is_number);
  }
  ASSERT_EQ(a.children.size(), b.children.size()) << a.name;
  for (size_t i = 0; i < a.children.size(); ++i) {
    ExpectSameTree(a.children[i], b.children[i]);
  }
}

trace::SpanNode MakeSampleTree() {
  trace::SpanNode root;
  root.name = "net.request";
  root.start_us = 0;
  root.end_us = 1500;
  root.tid = 7;
  root.tags = {{"request_id", "3", true}, {"peer", "127.0.0.1:9", false}};
  trace::SpanNode execute;
  execute.name = "net.execute";
  execute.start_us = 10;
  execute.end_us = 1400;
  trace::SpanNode engine;
  engine.name = "query:anc(a, X)";
  engine.start_us = 12;
  engine.end_us = 1390;
  engine.tags = {{"iter", "4", true}};
  execute.children.push_back(engine);
  root.children.push_back(std::move(execute));
  trace::SpanNode encode;
  encode.name = "net.encode";
  encode.start_us = 1400;
  encode.end_us = 1500;
  root.children.push_back(std::move(encode));
  return root;
}

TEST(WireCodecTest, SpanNodeRoundTrip) {
  trace::SpanNode in = MakeSampleTree();
  WireWriter w;
  EncodeSpanNode(&w, in);
  WireReader r(w.str());
  trace::SpanNode out;
  ASSERT_TRUE(DecodeSpanNode(&r, &out));
  EXPECT_TRUE(r.Done());
  ExpectSameTree(in, out);
  // Snapshot-equivalence: the decoded tree renders byte-identically, which
  // is what makes remote and local profiling output interchangeable.
  EXPECT_EQ(trace::RenderChromeTrace(in), trace::RenderChromeTrace(out));
  EXPECT_EQ(trace::RenderText(in), trace::RenderText(out));
}

TEST(WireCodecTest, TruncatedSpanNodeFailsCleanly) {
  WireWriter w;
  EncodeSpanNode(&w, MakeSampleTree());
  std::string bytes = w.Take();
  for (size_t len : {bytes.size() - 1, bytes.size() / 2, size_t{3}}) {
    WireReader r(std::string_view(bytes).substr(0, len));
    trace::SpanNode out;
    EXPECT_FALSE(DecodeSpanNode(&r, &out)) << "len=" << len;
  }
}

TEST(WireCodecTest, TraceSectionSkipsUnsampledSets) {
  std::vector<WireResultSet> sets(3);
  sets[1].trace = std::make_shared<trace::SpanNode>(MakeSampleTree());
  WireWriter w;
  EncodeTraceSection(&w, sets);

  std::vector<WireResultSet> out(3);
  WireReader r(w.str());
  ASSERT_TRUE(DecodeTraceSection(&r, &out));
  EXPECT_EQ(out[0].trace, nullptr);
  ASSERT_NE(out[1].trace, nullptr);
  EXPECT_EQ(out[2].trace, nullptr);
  ExpectSameTree(*sets[1].trace, *out[1].trace);
}

TEST(WireCodecTest, EmptyTraceSectionIsBackwardCompatible) {
  // A v2 response with no sampled queries and a v1-style response with no
  // trailing section at all both decode to "no traces".
  std::vector<WireResultSet> sets(2);
  WireWriter w;
  EncodeTraceSection(&w, sets);
  std::vector<WireResultSet> out(2);
  WireReader r(w.str());
  ASSERT_TRUE(DecodeTraceSection(&r, &out));
  EXPECT_EQ(out[0].trace, nullptr);

  WireReader empty("");
  std::vector<WireResultSet> out2(2);
  EXPECT_TRUE(DecodeTraceSection(&empty, &out2));
}

TEST(WireCodecTest, StatsRequestValidation) {
  uint8_t sections = 0;
  EXPECT_TRUE(DecodeStatsRequest(EncodeStatsRequest(kStatsAll), &sections));
  EXPECT_EQ(sections, kStatsAll);
  EXPECT_TRUE(DecodeStatsRequest(EncodeStatsRequest(kStatsServer), &sections));
  EXPECT_EQ(sections, kStatsServer);
  // Zero sections, unknown bits, and trailing bytes are all malformed.
  EXPECT_FALSE(DecodeStatsRequest(EncodeStatsRequest(0), &sections));
  EXPECT_FALSE(DecodeStatsRequest(EncodeStatsRequest(0xF8), &sections));
  EXPECT_FALSE(DecodeStatsRequest(std::string_view("\x01\x00", 2), &sections));
}

TEST(WireCodecTest, StatsReplyRoundTrip) {
  StatsReply in;
  in.sections = kStatsAll;
  metrics::MetricSample sample;
  sample.name = "dkb.server.uptime_us";
  sample.kind = "counter";
  sample.value = 123456;
  in.server.push_back(sample);
  WireConnectionRow conn;
  conn.connection_id = 42;
  conn.peer = "127.0.0.1:50000";
  conn.session_id = 7;
  conn.frames_received = 10;
  conn.bytes_in = 200;
  conn.bytes_out = 4000;
  conn.queries = 5;
  conn.requests = 9;
  conn.errors = 1;
  conn.age_us = 999;
  in.connections.push_back(conn);
  in.prometheus = "# TYPE dkb_server_uptime_us gauge\n";

  WireWriter w;
  EncodeStatsReply(&w, in);
  WireReader r(w.str());
  StatsReply out;
  ASSERT_TRUE(DecodeStatsReply(&r, &out));
  EXPECT_EQ(out.sections, kStatsAll);
  ASSERT_EQ(out.server.size(), 1u);
  EXPECT_EQ(out.server[0].name, "dkb.server.uptime_us");
  EXPECT_EQ(out.server[0].value, 123456);
  ASSERT_EQ(out.connections.size(), 1u);
  EXPECT_EQ(out.connections[0].connection_id, 42);
  EXPECT_EQ(out.connections[0].peer, "127.0.0.1:50000");
  EXPECT_EQ(out.connections[0].requests, 9);
  EXPECT_EQ(out.connections[0].errors, 1);
  EXPECT_EQ(out.connections[0].age_us, 999);
  EXPECT_EQ(out.prometheus, in.prometheus);
}

TEST(WireCodecTest, StatsReplyHonorsSectionMask) {
  StatsReply in;
  in.sections = kStatsPrometheus;
  in.prometheus = "# TYPE x gauge\nx 1\n";
  // Unrequested sections are not encoded even if populated.
  in.connections.resize(3);
  WireWriter w;
  EncodeStatsReply(&w, in);
  WireReader r(w.str());
  StatsReply out;
  ASSERT_TRUE(DecodeStatsReply(&r, &out));
  EXPECT_TRUE(r.Done());
  EXPECT_EQ(out.sections, kStatsPrometheus);
  EXPECT_TRUE(out.connections.empty());
  EXPECT_EQ(out.prometheus, in.prometheus);
}

// ---------------------------------------------------------------------------
// Live server. Raw-socket helpers for the violations RemoteClient refuses
// to produce.

class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                       sizeof(addr)) == 0;
    int one = 1;
    if (connected_) ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void Send(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                         MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<size_t>(n);
    }
  }

  void SendFrame(MsgType type, uint32_t request_id, std::string_view payload) {
    Send(EncodeFrame(type, request_id, payload));
  }

  /// Hello handshake; returns false if the server rejected it.
  bool Hello() {
    WireWriter w;
    w.U32(kProtocolVersion);
    SendFrame(MsgType::kHello, 1, w.str());
    Frame frame;
    return ReadFrame(&frame) && frame.type == MsgType::kHelloOk;
  }

  /// Blocking read of the next frame. False on EOF/decoder error.
  bool ReadFrame(Frame* out) {
    while (true) {
      switch (decoder_.Pop(out)) {
        case FrameDecoder::Next::kFrame:
          return true;
        case FrameDecoder::Next::kError:
          return false;
        case FrameDecoder::Next::kNeedMore:
          break;
      }
      char buf[4096];
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      decoder_.Append(buf, static_cast<size_t>(n));
    }
  }

  /// True once the server has closed its end (reads drain to EOF).
  bool ReadUntilEof() {
    char buf[4096];
    while (true) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  FrameDecoder decoder_;
};

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto tb = testbed::Testbed::Create();
    ASSERT_TRUE(tb.ok()) << tb.status().ToString();
    tb_ = std::move(*tb);
    ServerOptions options;
    options.max_frame_len = 1 << 20;  // 1 MiB: plenty, and testably small
    ASSERT_TRUE(server_.Start(tb_.get(), options).ok());
    target_ = "127.0.0.1:" + std::to_string(server_.port());
  }
  void TearDown() override { server_.Stop(); }

  std::unique_ptr<RemoteClient> Connect() {
    auto client = RemoteClient::Connect(target_);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  std::unique_ptr<testbed::Testbed> tb_;
  Server server_;
  std::string target_;
};

TEST_F(NetServerTest, RequestBeforeHelloIsRejected) {
  RawConn conn(server_.port());
  ASSERT_TRUE(conn.connected());
  conn.SendFrame(MsgType::kListRules, 9, "");
  Frame frame;
  ASSERT_TRUE(conn.ReadFrame(&frame));
  EXPECT_EQ(frame.type, MsgType::kError);
  EXPECT_EQ(frame.request_id, 9u);
  EXPECT_EQ(DecodeErrorPayload(frame.payload).code(),
            ErrorCode::kProtocolError);
  EXPECT_TRUE(conn.ReadUntilEof());  // handshake failure closes
}

TEST_F(NetServerTest, WrongProtocolVersionIsRejected) {
  RawConn conn(server_.port());
  ASSERT_TRUE(conn.connected());
  WireWriter w;
  w.U32(kProtocolVersion + 1);
  conn.SendFrame(MsgType::kHello, 1, w.str());
  Frame frame;
  ASSERT_TRUE(conn.ReadFrame(&frame));
  EXPECT_EQ(frame.type, MsgType::kError);
  EXPECT_TRUE(conn.ReadUntilEof());
}

TEST_F(NetServerTest, V1ClientGetsCleanVersionMismatchError) {
  // The v2 trace context and v3 strategy numbering ride inside existing
  // payloads, so a v1 or v2 Hello still parses; the version check is what
  // rejects it — with a real Error frame naming both versions, not a
  // slammed connection.
  for (uint32_t version : {1u, 2u}) {
    SCOPED_TRACE("v" + std::to_string(version));
    RawConn conn(server_.port());
    ASSERT_TRUE(conn.connected());
    WireWriter w;
    w.U32(version);
    conn.SendFrame(MsgType::kHello, 1, w.str());
    Frame frame;
    ASSERT_TRUE(conn.ReadFrame(&frame));
    EXPECT_EQ(frame.type, MsgType::kError);
    EXPECT_EQ(frame.request_id, 1u);
    Status status = DecodeErrorPayload(frame.payload);
    EXPECT_EQ(status.code(), ErrorCode::kProtocolError);
    EXPECT_NE(status.message().find("version"), std::string::npos)
        << status.ToString();
    EXPECT_TRUE(conn.ReadUntilEof());
  }
}

TEST_F(NetServerTest, StatsAnswersWithoutHello) {
  // kStats is the monitoring surface: no handshake, no session. dkb_top
  // and scrapers must be able to poll a server without perturbing it.
  RawConn conn(server_.port());
  ASSERT_TRUE(conn.connected());
  conn.SendFrame(MsgType::kStats, 5, EncodeStatsRequest(kStatsAll));
  Frame frame;
  ASSERT_TRUE(conn.ReadFrame(&frame));
  EXPECT_EQ(frame.type, MsgType::kStatsOk);
  EXPECT_EQ(frame.request_id, 5u);
  WireReader r(frame.payload);
  StatsReply reply;
  ASSERT_TRUE(DecodeStatsReply(&r, &reply));
  EXPECT_EQ(reply.sections, kStatsAll);
  // The server section always carries the lifecycle counters.
  bool saw_uptime = false;
  for (const metrics::MetricSample& s : reply.server) {
    if (s.name == "uptime_us") {
      EXPECT_GT(s.value, 0);
      saw_uptime = true;
    }
  }
  EXPECT_TRUE(saw_uptime);
  // This very connection is in the registry (sessionless, session_id 0).
  ASSERT_FALSE(reply.connections.empty());
  EXPECT_FALSE(reply.prometheus.empty());
  std::string prom_error;
  EXPECT_TRUE(metrics::ValidatePrometheusText(reply.prometheus, &prom_error))
      << prom_error;
}

TEST_F(NetServerTest, RemoteClientFetchesStatsSessionless) {
  auto stats = RemoteClient::FetchStats(target_, kStatsServer);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->sections, kStatsServer);
  EXPECT_FALSE(stats->server.empty());
  // No Hello was sent, so no COW session was ever opened.
  EXPECT_TRUE(tb_->SessionSnapshot().empty());
}

TEST_F(NetServerTest, UnknownTypeByteKeepsConnectionUsable) {
  RawConn conn(server_.port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Hello());
  // 0x70 is well-framed but names no request; the server must answer with
  // an Error frame (echoing the id) and keep serving.
  conn.SendFrame(static_cast<MsgType>(0x70), 5, "");
  Frame frame;
  ASSERT_TRUE(conn.ReadFrame(&frame));
  EXPECT_EQ(frame.type, MsgType::kError);
  EXPECT_EQ(frame.request_id, 5u);
  conn.SendFrame(MsgType::kListRules, 6, "");
  ASSERT_TRUE(conn.ReadFrame(&frame));
  EXPECT_EQ(frame.type, MsgType::kRuleList);
  EXPECT_EQ(frame.request_id, 6u);
}

TEST_F(NetServerTest, MalformedPayloadKeepsConnectionUsable) {
  RawConn conn(server_.port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Hello());
  // Well-framed, undecodable mutation payloads: garbage, a column type byte
  // that names no type, an empty column list, and a row count the payload
  // cannot hold.
  WireWriter bad_type;
  bad_type.Str("q");
  bad_type.U16(1);
  bad_type.U8(200);
  WireWriter no_columns;
  no_columns.Str("q");
  no_columns.U16(0);
  WireWriter too_many_rows;
  too_many_rows.Str("q");
  too_many_rows.U32(UINT32_MAX);
  const struct {
    MsgType type;
    std::string payload;
  } cases[] = {{MsgType::kDefineBase, "\x01garbage"},
               {MsgType::kDefineBase, bad_type.str()},
               {MsgType::kDefineBase, no_columns.str()},
               {MsgType::kAddFacts, too_many_rows.str()}};
  uint32_t id = 10;
  for (const auto& c : cases) {
    SCOPED_TRACE(id);
    conn.SendFrame(c.type, ++id, c.payload);
    Frame frame;
    ASSERT_TRUE(conn.ReadFrame(&frame));
    EXPECT_EQ(frame.type, MsgType::kError);
    EXPECT_EQ(frame.request_id, id);
    EXPECT_EQ(DecodeErrorPayload(frame.payload).code(),
              ErrorCode::kProtocolError);
    conn.SendFrame(MsgType::kListRules, ++id, "");
    ASSERT_TRUE(conn.ReadFrame(&frame));
    EXPECT_EQ(frame.type, MsgType::kRuleList);
  }
}

TEST_F(NetServerTest, FramingViolationGetsErrorFrameThenClose) {
  RawConn conn(server_.port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Hello());
  // A length prefix below the frame header: unrecoverable.
  std::string bad = {2, 0, 0, 0, 1, 1};
  conn.Send(bad);
  Frame frame;
  ASSERT_TRUE(conn.ReadFrame(&frame));
  EXPECT_EQ(frame.type, MsgType::kError);
  EXPECT_EQ(frame.request_id, 0u);  // no attributable request
  EXPECT_TRUE(conn.ReadUntilEof());
}

TEST_F(NetServerTest, OversizedFrameGetsErrorFrameThenClose) {
  RawConn conn(server_.port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(conn.Hello());
  // Announce a 2 MiB frame against the server's 1 MiB limit. The server
  // must reject on the prefix alone — we never send the body.
  uint32_t len = 2u << 20;
  char prefix[4];
  std::memcpy(prefix, &len, 4);
  conn.Send(std::string_view(prefix, 4));
  Frame frame;
  ASSERT_TRUE(conn.ReadFrame(&frame));
  EXPECT_EQ(frame.type, MsgType::kError);
  EXPECT_TRUE(conn.ReadUntilEof());
}

// A remote AddFacts with a short row, a long row, a value of the wrong type
// at row 5,001 or an unknown predicate gets an error reply, stores none of
// its rows, and the connection keeps serving.
TEST_F(NetServerTest, RejectedAddFactsKeepsConnectionServing) {
  auto client = Connect();
  ASSERT_TRUE(
      client->DefineBase("p", {DataType::kVarchar, DataType::kVarchar}).ok());
  struct Case {
    std::string name;
    std::string pred;
    Tuple bad;
    StatusCode code;
  };
  const Case cases[] = {
      {"short_row", "p", {Value("x")}, StatusCode::kInvalidArgument},
      {"long_row", "p", {Value("x"), Value("y"), Value("z")},
       StatusCode::kInvalidArgument},
      {"bad_type", "p", {Value("x"), Value(int64_t{7})},
       StatusCode::kTypeError},
      {"unknown_pred", "nope", {Value("x"), Value("y")},
       StatusCode::kNotFound}};
  int64_t stored = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<Tuple> rows;
    for (int i = 0; i < 5000; ++i) {
      rows.push_back({Value("r" + std::to_string(i)), Value("s")});
    }
    rows.push_back(c.bad);
    Status rejected = client->AddFacts(c.pred, rows);
    EXPECT_EQ(rejected.code(), c.code) << rejected.ToString();
    ASSERT_TRUE(client->AddFacts("p", {{Value(c.name), Value("ok")}}).ok());
    ++stored;
    auto count = client->ExecuteSql("SELECT COUNT(*) FROM edb_p");
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    ASSERT_EQ(count->rows.size(), 1u);
    EXPECT_EQ(count->rows[0][0].as_int(), stored);
  }
}

TEST_F(NetServerTest, RemoteClientFullSurface) {
  auto client = Connect();
  ASSERT_TRUE(client->Consult("anc(X,Y) :- par(X,Y).\n"
                              "anc(X,Y) :- par(X,Z), anc(Z,Y).\n"
                              "par(a,b). par(b,c).\n")
                  .ok());
  ASSERT_TRUE(client->AddRule("top(X) :- anc(X, c).").ok());

  auto rules = client->ListRules();
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(rules->size(), 3u);

  ASSERT_TRUE(client->RetractRule("top(X) :- anc(X, c).").ok());
  rules = client->ListRules();
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(rules->size(), 2u);

  ASSERT_TRUE(
      client->DefineBase("extra", {DataType::kVarchar, DataType::kVarchar})
          .ok());
  ASSERT_TRUE(
      client->AddFacts("extra", {{Value("x"), Value("y")}}).ok());

  auto rs = client->Query("anc(a, W)", {}, net::kReportNone);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 2u);
  EXPECT_GE(rs->compile_us, 0);

  auto batch =
      client->QueryBatch({"anc(a, W)", "anc(b, W)"}, {}, net::kReportNone);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 2u);
  EXPECT_EQ((*batch)[0].rows.size(), 2u);
  EXPECT_EQ((*batch)[1].rows.size(), 1u);

  auto stmt = client->Prepare("anc(a, W)", {});
  ASSERT_TRUE(stmt.ok());
  auto executed = client->Execute({*stmt, *stmt});
  ASSERT_TRUE(executed.ok());
  ASSERT_EQ(executed->size(), 2u);
  EXPECT_EQ((*executed)[0].rows.size(), 2u);

  auto update = client->UpdateStoredDkb();
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->rules_stored, 2);

  ASSERT_TRUE(client->ClearWorkspace().ok());
  rules = client->ListRules();
  ASSERT_TRUE(rules.ok());
  EXPECT_TRUE(rules->empty());

  // Errors round-trip as typed Statuses, not dead connections.
  auto bad = client->Query("no_such_pred(X)", {}, net::kReportNone);
  EXPECT_FALSE(bad.ok());
  auto after = client->ExecuteSql("SELECT * FROM sys.sessions");
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

TEST_F(NetServerTest, PipelinedResponsesMatchByRequestId) {
  auto client = Connect();
  ASSERT_TRUE(client->Consult("p(a, one). p(b, two). p(c, three).\n").ok());

  // Three distinct in-flight batches, collected in reverse order: each
  // response must carry its own answer, proving request_id matching (and
  // the parked-frame path) rather than arrival-order luck.
  testbed::QueryOptions options;
  auto id1 = client->SendQueryBatch({"p(a, W)"}, options);
  auto id2 = client->SendQueryBatch({"p(b, W)"}, options);
  auto id3 = client->SendQueryBatch({"p(c, W)"}, options);
  ASSERT_TRUE(id1.ok() && id2.ok() && id3.ok());

  auto r3 = client->ReceiveResultSets(*id3);
  auto r1 = client->ReceiveResultSets(*id1);
  auto r2 = client->ReceiveResultSets(*id2);
  ASSERT_TRUE(r3.ok() && r1.ok() && r2.ok());
  ASSERT_EQ((*r1)[0].rows.size(), 1u);
  EXPECT_EQ((*r1)[0].rows[0][0].as_string(), "one");
  EXPECT_EQ((*r2)[0].rows[0][0].as_string(), "two");
  EXPECT_EQ((*r3)[0].rows[0][0].as_string(), "three");
}

TEST_F(NetServerTest, SysConnectionsShowsLiveConnections) {
  auto client = Connect();
  ASSERT_TRUE(client->Consult("p(a, b).\n").ok());
  ASSERT_TRUE(client->Query("p(a, W)", {}, net::kReportNone).ok());

  auto rows = client->ExecuteSql(
      "SELECT connection_id, queries FROM sys.connections");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][1].as_int(), 1);

  // A second connection appears; closing it removes its row.
  {
    auto other = Connect();
    auto two = client->ExecuteSql("SELECT connection_id FROM sys.connections");
    ASSERT_TRUE(two.ok());
    EXPECT_EQ(two->rows.size(), 2u);
  }
  // The destructor's CloseSession is synchronous on the wire, but the
  // server-side teardown races the next query; poll briefly.
  for (int i = 0; i < 100; ++i) {
    auto left = client->ExecuteSql("SELECT connection_id FROM sys.connections");
    ASSERT_TRUE(left.ok());
    if (left->rows.size() == 1u) return;
    usleep(10 * 1000);
  }
  FAIL() << "closed connection still listed in sys.connections";
}

TEST_F(NetServerTest, MutationsPropagateAcrossConnections) {
  auto writer = Connect();
  auto reader = Connect();
  ASSERT_TRUE(writer->Consult("anc(X,Y) :- par(X,Y).\npar(a,b).\n").ok());
  auto rs = reader->Query("anc(a, W)", {}, net::kReportNone);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 1u);
  // Writer adds a fact; the reader's COW session refreshes on next query.
  ASSERT_TRUE(writer->AddFacts("par", {{Value("a"), Value("c")}}).ok());
  rs = reader->Query("anc(a, W)", {}, net::kReportNone);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 2u);
}

}  // namespace
}  // namespace dkb::net
