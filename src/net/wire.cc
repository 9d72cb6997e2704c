#include "net/wire.h"

#include <cstring>
#include <utility>

namespace dkb::net {

bool IsRequestType(uint8_t type) {
  return type >= static_cast<uint8_t>(MsgType::kHello) &&
         type <= static_cast<uint8_t>(MsgType::kStats);
}

namespace {

constexpr std::pair<MsgType, WalRecordKind> kMutationRequests[] = {
    {MsgType::kConsult, WalRecordKind::kConsult},
    {MsgType::kAddRule, WalRecordKind::kAddRule},
    {MsgType::kRetractRule, WalRecordKind::kRetractRule},
    {MsgType::kDefineBase, WalRecordKind::kDefineBase},
    {MsgType::kAddFacts, WalRecordKind::kAddFacts},
    {MsgType::kSql, WalRecordKind::kSql},
    {MsgType::kUpdateStored, WalRecordKind::kUpdateStored},
    {MsgType::kClearWorkspace, WalRecordKind::kClearWorkspace},
};

}  // namespace

std::optional<WalRecordKind> MutationKind(MsgType type) {
  for (const auto& [request, kind] : kMutationRequests) {
    if (request == type) return kind;
  }
  return std::nullopt;
}

MsgType MutationRequest(WalRecordKind kind) {
  for (const auto& [request, mutation] : kMutationRequests) {
    if (mutation == kind) return request;
  }
  return MsgType::kError;  // unreachable: every kind has a request
}

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "Hello";
    case MsgType::kConsult: return "Consult";
    case MsgType::kAddRule: return "AddRule";
    case MsgType::kRetractRule: return "RetractRule";
    case MsgType::kDefineBase: return "DefineBase";
    case MsgType::kAddFacts: return "AddFacts";
    case MsgType::kPrepare: return "Prepare";
    case MsgType::kExecute: return "Execute";
    case MsgType::kQuery: return "Query";
    case MsgType::kSql: return "Sql";
    case MsgType::kUpdateStored: return "UpdateStored";
    case MsgType::kClearWorkspace: return "ClearWorkspace";
    case MsgType::kListRules: return "ListRules";
    case MsgType::kCloseSession: return "CloseSession";
    case MsgType::kStats: return "Stats";
    case MsgType::kHelloOk: return "HelloOk";
    case MsgType::kOk: return "Ok";
    case MsgType::kResultSets: return "ResultSets";
    case MsgType::kPrepared: return "Prepared";
    case MsgType::kRuleList: return "RuleList";
    case MsgType::kUpdated: return "Updated";
    case MsgType::kStatsOk: return "StatsOk";
    case MsgType::kError: return "Error";
  }
  return "Unknown";
}

std::string EncodeFrame(MsgType type, uint32_t request_id,
                        std::string_view payload) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(kFrameHeaderLen + payload.size()));
  w.U8(static_cast<uint8_t>(type));
  w.U32(request_id);
  std::string out = w.Take();
  out.append(payload.data(), payload.size());
  return out;
}

FrameDecoder::Next FrameDecoder::Pop(Frame* out) {
  if (!error_.ok()) return Next::kError;
  // Reclaim the consumed prefix once it dominates the buffer, so a
  // long-lived connection does not grow its buffer without bound.
  if (pos_ > 4096 && pos_ * 2 > buffer_.size()) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  const size_t avail = buffer_.size() - pos_;
  if (avail < 4) return Next::kNeedMore;
  uint32_t len = 0;
  std::memcpy(&len, buffer_.data() + pos_, 4);
  if (len < kFrameHeaderLen) {
    error_ = Status::ProtocolError(
        "frame length " + std::to_string(len) + " below the " +
        std::to_string(kFrameHeaderLen) + "-byte frame header");
    error_kind_ = ErrorKind::kBelowHeader;
    return Next::kError;
  }
  if (len > max_frame_len_) {
    error_ = Status::ProtocolError(
        "frame length " + std::to_string(len) + " exceeds the " +
        std::to_string(max_frame_len_) + "-byte limit");
    error_kind_ = ErrorKind::kOverCap;
    return Next::kError;
  }
  if (avail < 4 + static_cast<size_t>(len)) return Next::kNeedMore;
  const char* p = buffer_.data() + pos_ + 4;
  out->type = static_cast<MsgType>(static_cast<uint8_t>(p[0]));
  uint32_t request_id = 0;
  std::memcpy(&request_id, p + 1, 4);
  out->request_id = request_id;
  out->payload.assign(p + kFrameHeaderLen, len - kFrameHeaderLen);
  pos_ += 4 + static_cast<size_t>(len);
  return Next::kFrame;
}

// ---------------------------------------------------------------------------
// Composite payloads

void EncodeQueryOptions(WireWriter* w, const WireQueryOptions& opts) {
  const testbed::QueryOptions& o = opts.options;
  w->U8(o.use_magic ? 1 : 0);
  w->U8(o.supplementary ? 1 : 0);
  w->U8(o.adaptive_magic ? 1 : 0);
  w->U8(static_cast<uint8_t>(o.strategy));
  w->U8(o.use_cache ? 1 : 0);
  w->U8(static_cast<uint8_t>(o.explain));
  w->U8(o.collect_trace ? 1 : 0);
  w->U8(opts.report_formats);
  w->U32(static_cast<uint32_t>(o.EffectivePolicy().lfp_parallelism));
  // Trace context (v2): propagated so the server's spans join the
  // client's trace instead of starting an anonymous one.
  w->U64(opts.trace_id);
  w->U64(opts.parent_span_id);
  w->U8(opts.sampled ? 1 : 0);
}

bool DecodeQueryOptions(WireReader* r, WireQueryOptions* opts) {
  uint8_t use_magic = 0;
  uint8_t supplementary = 0;
  uint8_t adaptive = 0;
  uint8_t strategy = 0;
  uint8_t use_cache = 0;
  uint8_t explain = 0;
  uint8_t collect_trace = 0;
  uint32_t parallelism = 0;
  uint8_t sampled = 0;
  if (!r->U8(&use_magic) || !r->U8(&supplementary) || !r->U8(&adaptive) ||
      !r->U8(&strategy) || !r->U8(&use_cache) || !r->U8(&explain) ||
      !r->U8(&collect_trace) || !r->U8(&opts->report_formats) ||
      !r->U32(&parallelism) || !r->U64(&opts->trace_id) ||
      !r->U64(&opts->parent_span_id) || !r->U8(&sampled)) {
    return false;
  }
  opts->sampled = sampled != 0;
  if (strategy > static_cast<uint8_t>(lfp::LfpStrategy::kNativeTc) ||
      explain > static_cast<uint8_t>(testbed::ExplainMode::kAnalyze)) {
    return false;
  }
  testbed::QueryOptions& o = opts->options;
  o.use_magic = use_magic != 0;
  o.supplementary = supplementary != 0;
  o.adaptive_magic = adaptive != 0;
  o.strategy = static_cast<lfp::LfpStrategy>(strategy);
  o.use_cache = use_cache != 0;
  o.explain = static_cast<testbed::ExplainMode>(explain);
  o.collect_trace = collect_trace != 0;
  o.WithParallelism(static_cast<int>(parallelism));
  return true;
}

void EncodeResultSet(WireWriter* w, const WireResultSet& rs) {
  w->Cols(rs.schema);
  w->U32(static_cast<uint32_t>(rs.rows.size()));
  for (const Tuple& row : rs.rows) w->Row(row);
  w->I64(rs.rows_affected);
  w->I64(rs.compile_us);
  w->I64(rs.exec_us);
  w->U8(rs.from_cache ? 1 : 0);
  w->Str(rs.report_text);
  w->Str(rs.report_json);
  w->Str(rs.report_chrome);
}

bool DecodeResultSet(WireReader* r, WireResultSet* rs) {
  uint32_t nrows = 0;
  if (!r->Cols(&rs->schema) || !r->U32(&nrows)) return false;
  // Each encoded row needs at least its 2-byte arity; anything claiming
  // more rows than remaining bytes is malformed, not a huge allocation.
  if (nrows > r->remaining() / 2) return false;
  rs->rows.clear();
  rs->rows.reserve(nrows);
  for (uint32_t i = 0; i < nrows; ++i) {
    Tuple row;
    if (!r->Row(&row)) return false;
    rs->rows.push_back(std::move(row));
  }
  uint8_t from_cache = 0;
  if (!r->I64(&rs->rows_affected) || !r->I64(&rs->compile_us) ||
      !r->I64(&rs->exec_us) || !r->U8(&from_cache) ||
      !r->Str(&rs->report_text) || !r->Str(&rs->report_json) ||
      !r->Str(&rs->report_chrome)) {
    return false;
  }
  rs->from_cache = from_cache != 0;
  return true;
}

void EncodeSpanNode(WireWriter* w, const trace::SpanNode& node) {
  w->Str(node.name);
  w->I64(node.start_us);
  w->I64(node.end_us);
  w->U32(node.tid);
  w->U16(static_cast<uint16_t>(node.tags.size()));
  for (const trace::TraceTag& tag : node.tags) {
    w->Str(tag.key);
    w->Str(tag.value);
    w->U8(tag.is_number ? 1 : 0);
  }
  w->U32(static_cast<uint32_t>(node.children.size()));
  for (const trace::SpanNode& child : node.children) {
    EncodeSpanNode(w, child);
  }
}

bool DecodeSpanNode(WireReader* r, trace::SpanNode* node, int depth) {
  if (depth >= kMaxSpanDepth) return false;
  uint16_t ntags = 0;
  if (!r->Str(&node->name) || !r->I64(&node->start_us) ||
      !r->I64(&node->end_us) || !r->U32(&node->tid) || !r->U16(&ntags)) {
    return false;
  }
  node->tags.clear();
  node->tags.reserve(ntags);
  for (uint16_t i = 0; i < ntags; ++i) {
    trace::TraceTag tag;
    uint8_t is_number = 0;
    if (!r->Str(&tag.key) || !r->Str(&tag.value) || !r->U8(&is_number)) {
      return false;
    }
    tag.is_number = is_number != 0;
    node->tags.push_back(std::move(tag));
  }
  uint32_t nchildren = 0;
  if (!r->U32(&nchildren)) return false;
  // Every encoded child costs at least its (empty) name length + times +
  // tid + tag and child counts; a count beyond remaining bytes is
  // malformed, not an allocation request.
  if (nchildren > r->remaining() / 4) return false;
  node->children.clear();
  node->children.reserve(nchildren);
  for (uint32_t i = 0; i < nchildren; ++i) {
    trace::SpanNode child;
    if (!DecodeSpanNode(r, &child, depth + 1)) return false;
    node->children.push_back(std::move(child));
  }
  return true;
}

void EncodeTraceSection(WireWriter* w,
                        const std::vector<WireResultSet>& sets) {
  bool any = false;
  for (const WireResultSet& rs : sets) any = any || rs.trace != nullptr;
  if (!any) {
    w->U32(0);
    return;
  }
  w->U32(static_cast<uint32_t>(sets.size()));
  for (const WireResultSet& rs : sets) {
    w->U8(rs.trace != nullptr ? 1 : 0);
    if (rs.trace != nullptr) EncodeSpanNode(w, *rs.trace);
  }
}

bool DecodeTraceSection(WireReader* r, std::vector<WireResultSet>* sets) {
  if (r->remaining() == 0) return true;  // no section: no traces
  uint32_t count = 0;
  if (!r->U32(&count)) return false;
  if (count == 0) return true;
  if (count != sets->size()) return false;
  for (WireResultSet& rs : *sets) {
    uint8_t present = 0;
    if (!r->U8(&present)) return false;
    if (present == 0) continue;
    auto node = std::make_shared<trace::SpanNode>();
    if (!DecodeSpanNode(r, node.get())) return false;
    rs.trace = std::move(node);
  }
  return true;
}

std::string EncodeStatsRequest(uint8_t sections) {
  WireWriter w;
  w.U8(sections);
  return w.Take();
}

bool DecodeStatsRequest(std::string_view payload, uint8_t* sections) {
  WireReader r(payload);
  return r.U8(sections) && r.Done() &&
         (*sections & ~kStatsAll) == 0 && *sections != 0;
}

void EncodeStatsReply(WireWriter* w, const StatsReply& reply) {
  w->U8(reply.sections);
  if ((reply.sections & kStatsServer) != 0) {
    w->U32(static_cast<uint32_t>(reply.server.size()));
    for (const metrics::MetricSample& s : reply.server) {
      w->Str(s.name);
      w->Str(s.kind);
      w->I64(s.value);
      w->I64(s.sum);
      w->I64(s.max);
      w->I64(s.p50);
      w->I64(s.p99);
    }
  }
  if ((reply.sections & kStatsConnections) != 0) {
    w->U32(static_cast<uint32_t>(reply.connections.size()));
    for (const WireConnectionRow& c : reply.connections) {
      w->I64(c.connection_id);
      w->Str(c.peer);
      w->I64(c.session_id);
      w->I64(c.frames_received);
      w->I64(c.bytes_in);
      w->I64(c.bytes_out);
      w->I64(c.queries);
      w->I64(c.requests);
      w->I64(c.errors);
      w->I64(c.age_us);
    }
  }
  if ((reply.sections & kStatsPrometheus) != 0) {
    w->Str(reply.prometheus);
  }
}

bool DecodeStatsReply(WireReader* r, StatsReply* reply) {
  if (!r->U8(&reply->sections)) return false;
  if ((reply->sections & ~kStatsAll) != 0) return false;
  if ((reply->sections & kStatsServer) != 0) {
    uint32_t n = 0;
    if (!r->U32(&n)) return false;
    if (n > r->remaining() / 8) return false;
    reply->server.clear();
    reply->server.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      metrics::MetricSample s;
      if (!r->Str(&s.name) || !r->Str(&s.kind) || !r->I64(&s.value) ||
          !r->I64(&s.sum) || !r->I64(&s.max) || !r->I64(&s.p50) ||
          !r->I64(&s.p99)) {
        return false;
      }
      reply->server.push_back(std::move(s));
    }
  }
  if ((reply->sections & kStatsConnections) != 0) {
    uint32_t n = 0;
    if (!r->U32(&n)) return false;
    if (n > r->remaining() / 8) return false;
    reply->connections.clear();
    reply->connections.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      WireConnectionRow c;
      if (!r->I64(&c.connection_id) || !r->Str(&c.peer) ||
          !r->I64(&c.session_id) || !r->I64(&c.frames_received) ||
          !r->I64(&c.bytes_in) || !r->I64(&c.bytes_out) ||
          !r->I64(&c.queries) || !r->I64(&c.requests) ||
          !r->I64(&c.errors) || !r->I64(&c.age_us)) {
        return false;
      }
      reply->connections.push_back(std::move(c));
    }
  }
  if ((reply->sections & kStatsPrometheus) != 0) {
    if (!r->Str(&reply->prometheus)) return false;
  }
  return r->Done();
}

std::string EncodeErrorPayload(const Status& status) {
  WireWriter w;
  w.U16(ErrorCodeToWire(status.code()));
  w.Str(status.message());
  return w.Take();
}

Status DecodeErrorPayload(std::string_view payload) {
  WireReader r(payload);
  uint16_t wire = 0;
  std::string message;
  if (!r.U16(&wire) || !r.Str(&message) || !r.Done()) {
    return Status::ProtocolError("malformed Error frame payload");
  }
  ErrorCode code = ErrorCodeFromWire(wire);
  if (code == ErrorCode::kOk) code = ErrorCode::kInternal;
  return Status(code, std::move(message));
}

}  // namespace dkb::net
