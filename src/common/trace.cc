#include "common/trace.h"

#include <atomic>
#include <cstdio>

#include "common/str_util.h"

namespace dkb::trace {

TraceSpan::TraceSpan(const TraceContext* ctx, std::string name,
                     Clock::time_point start)
    : ctx_(ctx),
      name_(std::move(name)),
      tid_(TraceContext::CurrentThreadId()),
      start_us_(ctx->OffsetUs(start)) {}

TraceSpan* TraceSpan::AddChild(std::string name, Clock::time_point start) {
  auto child = std::make_unique<TraceSpan>(ctx_, std::move(name), start);
  TraceSpan* raw = child.get();
  MutexLock lock(mu_);
  children_.push_back(std::move(child));
  return raw;
}

void TraceSpan::Adopt(std::unique_ptr<TraceSpan> child) {
  if (child == nullptr) return;
  MutexLock lock(mu_);
  children_.push_back(std::move(child));
}

std::vector<const TraceSpan*> TraceSpan::children() const {
  MutexLock lock(mu_);
  std::vector<const TraceSpan*> out;
  out.reserve(children_.size());
  for (const auto& child : children_) out.push_back(child.get());
  return out;
}

void TraceSpan::Tag(std::string key, std::string value) {
  tags_.push_back({std::move(key), std::move(value), /*is_number=*/false});
}

void TraceSpan::Tag(std::string key, int64_t value) {
  tags_.push_back(
      {std::move(key), std::to_string(value), /*is_number=*/true});
}

void TraceSpan::Tag(std::string key, double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  tags_.push_back({std::move(key), buf, /*is_number=*/true});
}

void TraceSpan::End(Clock::time_point end) {
  int64_t expected = -1;
  end_us_.compare_exchange_strong(expected, ctx_->OffsetUs(end),
                                  std::memory_order_relaxed);
}

TraceContext::TraceContext(std::string root_name) : epoch_(Clock::now()) {
  // The root is created after epoch_, so its start offset is ~0.
  root_ = std::make_unique<TraceSpan>(this, std::move(root_name));
}

uint32_t TraceContext::CurrentThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

SpanNode SnapshotSpan(const TraceSpan& span, int64_t base_us) {
  SpanNode node;
  node.name = span.name();
  node.start_us = base_us + span.start_us();
  node.end_us = base_us + span.end_us();
  node.tid = span.tid();
  node.tags = span.tags();
  const std::vector<const TraceSpan*> children = span.children();
  node.children.reserve(children.size());
  for (const TraceSpan* child : children) {
    node.children.push_back(SnapshotSpan(*child, base_us));
  }
  return node;
}

namespace {

void RenderTagsJson(const std::vector<TraceTag>& tags, std::string* out) {
  for (size_t i = 0; i < tags.size(); ++i) {
    const TraceTag& tag = tags[i];
    if (i > 0) *out += ", ";
    *out += "\"" + JsonEscape(tag.key) + "\": ";
    if (tag.is_number) {
      *out += tag.value;
    } else {
      *out += "\"" + JsonEscape(tag.value) + "\"";
    }
  }
}

void RenderTextRec(const SpanNode& span, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%lld us",
                static_cast<long long>(span.duration_us()));
  *out += span.name + "  " + buf;
  for (const TraceTag& tag : span.tags) {
    *out += "  " + tag.key + "=" + tag.value;
  }
  *out += "\n";
  for (const SpanNode& child : span.children) {
    RenderTextRec(child, depth + 1, out);
  }
}

void RenderJsonRec(const SpanNode& span, std::string* out) {
  *out += "{\"name\": \"" + JsonEscape(span.name) + "\"";
  *out += ", \"start_us\": " + std::to_string(span.start_us);
  *out += ", \"dur_us\": " + std::to_string(span.duration_us());
  *out += ", \"tid\": " + std::to_string(span.tid);
  if (!span.tags.empty()) {
    *out += ", \"tags\": {";
    RenderTagsJson(span.tags, out);
    *out += "}";
  }
  if (!span.children.empty()) {
    *out += ", \"children\": [";
    for (size_t i = 0; i < span.children.size(); ++i) {
      if (i > 0) *out += ", ";
      RenderJsonRec(span.children[i], out);
    }
    *out += "]";
  }
  *out += "}";
}

void RenderChromeRec(const SpanNode& span, bool* first, std::string* out) {
  if (!*first) *out += ",\n";
  *first = false;
  *out += "    {\"ph\": \"X\", \"pid\": 1, \"tid\": " +
          std::to_string(span.tid) + ", \"name\": \"" +
          JsonEscape(span.name) + "\", \"ts\": " +
          std::to_string(span.start_us) + ", \"dur\": " +
          std::to_string(span.duration_us());
  if (!span.tags.empty()) {
    *out += ", \"args\": {";
    RenderTagsJson(span.tags, out);
    *out += "}";
  }
  *out += "}";
  for (const SpanNode& child : span.children) {
    RenderChromeRec(child, first, out);
  }
}

}  // namespace

std::string RenderText(const SpanNode& node) {
  std::string out;
  RenderTextRec(node, 0, &out);
  return out;
}

std::string RenderJson(const SpanNode& node) {
  std::string out;
  RenderJsonRec(node, &out);
  return out;
}

std::string RenderChromeTrace(const SpanNode& node) {
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  RenderChromeRec(node, &first, &out);
  out += "\n  ],\n  \"displayTimeUnit\": \"ms\"\n}\n";
  return out;
}

}  // namespace dkb::trace
