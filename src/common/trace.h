#ifndef DKB_COMMON_TRACE_H_
#define DKB_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "common/timer.h"

namespace dkb::trace {

using Clock = std::chrono::steady_clock;

class TraceContext;

/// One key=value annotation on a span. Values are stored as strings;
/// numeric tags are rendered without quotes in JSON (is_number).
struct TraceTag {
  std::string key;
  std::string value;
  bool is_number = false;
};

/// One timed region of query processing, forming a tree: the root covers
/// the whole query, children cover phases (compile.setup, execute,
/// node:anc, iteration, ...). Times are microsecond offsets from the
/// owning TraceContext's epoch (steady clock), so spans from different
/// threads share one timeline.
///
/// Thread safety: AddChild/Adopt lock the span, so pool threads may attach
/// children to a shared parent concurrently; children() hands out a locked
/// snapshot. End() is an atomic first-write-wins stamp. Tags are
/// owner-thread operations (each span is written by the thread that created
/// it); readers (rendering) must run after execution has settled.
class TraceSpan {
 public:
  TraceSpan(const TraceContext* ctx, std::string name,
            Clock::time_point start = Clock::now());

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  const std::string& name() const { return name_; }
  int64_t start_us() const { return start_us_; }
  /// End offset; equals start_us() until End() is called. Atomic so a
  /// renderer or sys-view reader racing a late End() observes either "not
  /// ended" or the final stamp, never a torn value.
  int64_t end_us() const {
    int64_t e = end_us_.load(std::memory_order_relaxed);
    return e < 0 ? start_us_ : e;
  }
  int64_t duration_us() const { return end_us() - start_us_; }
  uint32_t tid() const { return tid_; }
  /// The context owning this span's timeline (for Detach from deep layers).
  const TraceContext* context() const { return ctx_; }
  const std::vector<TraceTag>& tags() const { return tags_; }
  /// Point-in-time snapshot of the child list, taken under the span lock.
  /// The pointers stay valid for the span's lifetime (children are owned by
  /// the span and never removed); the vector itself is a copy, so callers
  /// never hold a reference into the guarded container.
  std::vector<const TraceSpan*> children() const DKB_EXCLUDES(mu_);

  /// Starts a child span at `start` and returns it (owned by this span).
  TraceSpan* AddChild(std::string name, Clock::time_point start = Clock::now())
      DKB_EXCLUDES(mu_);

  /// Attaches an already-built span subtree (created via
  /// TraceContext::Detach) as the last child. Used by the parallel LFP
  /// scheduler to merge per-node spans in program order regardless of the
  /// order pool threads finished in.
  void Adopt(std::unique_ptr<TraceSpan> child) DKB_EXCLUDES(mu_);

  void Tag(std::string key, std::string value);
  void Tag(std::string key, int64_t value);
  void Tag(std::string key, double value);

  /// Stamps the end time; idempotent (the first call wins).
  void End(Clock::time_point end = Clock::now());

 private:
  const TraceContext* ctx_;
  std::string name_;
  uint32_t tid_;
  int64_t start_us_;
  /// -1 until End(); written once (first End() wins, enforced with a CAS).
  std::atomic<int64_t> end_us_{-1};
  /// Owner-thread only: tags are written by the thread that created the
  /// span, before it shares the span; readers run after execution settles.
  std::vector<TraceTag> tags_;
  mutable Mutex mu_;
  /// Pool threads attach children to a shared parent concurrently.
  std::vector<std::unique_ptr<TraceSpan>> children_ DKB_GUARDED_BY(mu_);
};

/// A span tree as plain values: what a TraceSpan tree looks like once
/// execution has settled. SpanNode is the unit the wire protocol encodes
/// (src/net/wire.h) and the renderers below consume, so a tree snapshotted
/// on a server, shipped over TCP, and rendered by a remote client produces
/// byte-identical output to rendering the live tree in-process.
struct SpanNode {
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
  uint32_t tid = 0;
  std::vector<TraceTag> tags;
  std::vector<SpanNode> children;

  int64_t duration_us() const { return end_us - start_us; }
};

/// Deep-copies a settled TraceSpan tree into plain values. `base_us` is
/// added to every start/end offset, which lets a caller graft a subtree
/// recorded on its own timeline (a fresh TraceContext) into an enclosing
/// tree: pass the enclosing timeline's offset at the moment the subtree's
/// context was created.
SpanNode SnapshotSpan(const TraceSpan& span, int64_t base_us = 0);

/// Renderers over the value tree; TraceContext::Render* delegate here, so
/// these are the single source of truth for all three formats.
std::string RenderText(const SpanNode& node);
std::string RenderJson(const SpanNode& node);
std::string RenderChromeTrace(const SpanNode& node);

/// Owns one span tree and the steady-clock epoch its offsets are measured
/// from. A null TraceContext* (tracing disabled, the default) costs a
/// single pointer test at every instrumentation site.
class TraceContext {
 public:
  explicit TraceContext(std::string root_name);

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  TraceSpan* root() { return root_.get(); }
  const TraceSpan* root() const { return root_.get(); }

  /// Microseconds from this context's creation to `t`.
  int64_t OffsetUs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
        .count();
  }

  /// The steady-clock instant all of this context's offsets are measured
  /// from. Lets an enclosing timeline (the server's per-request spans)
  /// compute the base offset for grafting this tree via SnapshotSpan.
  Clock::time_point epoch() const { return epoch_; }

  /// Starts a parentless span on this context's timeline; attach it later
  /// with TraceSpan::Adopt.
  std::unique_ptr<TraceSpan> Detach(std::string name) const {
    return std::make_unique<TraceSpan>(this, std::move(name));
  }

  /// Small sequential id for the calling thread (stable per thread,
  /// process-wide; the main thread that first traces is usually 0).
  static uint32_t CurrentThreadId();

  /// Indented tree rendering: name, duration, tags.
  std::string RenderText() const { return trace::RenderText(Snapshot()); }

  /// Nested-object JSON: {"name": ..., "start_us": ..., "dur_us": ...,
  /// "tid": ..., "tags": {...}, "children": [...]}.
  std::string RenderJson() const { return trace::RenderJson(Snapshot()); }

  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto):
  /// {"traceEvents": [{"ph": "X", "name": ..., "ts": ..., "dur": ...}]}.
  std::string RenderChromeTrace() const {
    return trace::RenderChromeTrace(Snapshot());
  }

  /// Value-tree copy of the whole trace (see SnapshotSpan).
  SpanNode Snapshot() const { return SnapshotSpan(*root_); }

 private:
  Clock::time_point epoch_;
  std::unique_ptr<TraceSpan> root_;
};

/// The one instrumentation primitive: a costed region timed once. It reads
/// the clock on entry and on exit, adds the nanoseconds between to
/// *bucket_ns when a bucket is given, and when `parent` is non-null opens
/// the child span `name` stamped with those same two instants. With both
/// null it reads no clock and builds no string.
class ScopedPhase {
 public:
  ScopedPhase(TraceSpan* parent, std::string_view name,
              int64_t* bucket_ns = nullptr)
      : bucket_ns_(bucket_ns) {
    if (parent == nullptr && bucket_ns == nullptr) return;
    start_ = Clock::now();
    if (parent != nullptr) span_ = parent->AddChild(std::string(name), start_);
  }
  /// A scope that feeds `bucket_ns` and opens no span.
  explicit ScopedPhase(int64_t* bucket_ns)
      : ScopedPhase(nullptr, {}, bucket_ns) {}
  /// A scope of the phase of `stats` that `us` reports (Stats::kPhases).
  template <typename Stats>
  ScopedPhase(TraceSpan* parent, Stats* stats, int64_t Stats::*us)
      : ScopedPhase(parent, PhaseOf(us).name, &(stats->*PhaseOf(us).ns)) {}

  ~ScopedPhase() {
    if (span_ == nullptr && bucket_ns_ == nullptr) return;
    const Clock::time_point end = Clock::now();
    if (bucket_ns_ != nullptr) {
      *bucket_ns_ += std::chrono::nanoseconds(end - start_).count();
    }
    if (span_ != nullptr) span_->End(end);
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  TraceSpan* get() const { return span_; }

  template <typename V>
  void Tag(std::string key, V value) {
    if (span_ != nullptr) span_->Tag(std::move(key), std::move(value));
  }

 private:
  int64_t* bucket_ns_;
  TraceSpan* span_ = nullptr;
  Clock::time_point start_;
};

}  // namespace dkb::trace

#endif  // DKB_COMMON_TRACE_H_
