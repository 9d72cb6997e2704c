#include "common/interner.h"

#include "common/metrics.h"

namespace dkb {

StringDict::~StringDict() {
  // Chunks are allocated in id order, so the first null ends the list.
  for (std::atomic<EntryRec*>& chunk : chunks_) {
    EntryRec* slab = chunk.load(std::memory_order_relaxed);
    if (slab == nullptr) break;
    delete[] slab;
  }
}

uint32_t StringDict::Intern(std::string_view s) {
  Segment& seg = segments_[SegmentOf(std::hash<std::string_view>{}(s))];
  {
    ReaderLock lock(seg.mu);
    auto it = seg.ids.find(s);
    if (it != seg.ids.end()) return it->second;
  }
  WriterLock lock(seg.mu);
  auto it = seg.ids.find(s);
  if (it != seg.ids.end()) return it->second;

  // Allocation is cross-segment state; all else is per-segment.
  MutexLock alloc(alloc_mu_);
  const uint32_t id = size_.load(std::memory_order_relaxed);
  if (id >= kMaxChunks * kChunkSize) {
    // Dictionary full (≈67M distinct strings): keep the process alive by
    // recycling the last slot. Values interned past this point alias, so we
    // stop handing out new ids instead — callers fall back to the inline
    // representation via the kInvalidId sentinel.
    return kInvalidId;
  }
  const uint32_t chunk = id >> kChunkBits;
  EntryRec* slab = chunks_[chunk].load(std::memory_order_relaxed);
  if (slab == nullptr) {
    slab = new EntryRec[kChunkSize];
    chunks_[chunk].store(slab, std::memory_order_release);
  }
  EntryRec& entry = slab[id & (kChunkSize - 1)];
  entry.str.assign(s.data(), s.size());
  // The contract is std::hash<std::string> agreement (see HashOf); hash the
  // owned string rather than assuming string/string_view hashes coincide.
  entry.hash = std::hash<std::string>{}(entry.str);
  seg.ids.emplace(std::string_view(entry.str), id);
  // Publish the entry: readers that see size_ > id observe a complete slot.
  size_.store(id + 1, std::memory_order_release);

  static metrics::Gauge& gauge =
      metrics::GlobalMetrics().gauge("dkb.common.interner_size");
  gauge.Set(static_cast<int64_t>(id) + 1);
  return id;
}

uint32_t StringDict::Find(std::string_view s) const {
  const Segment& seg = segments_[SegmentOf(std::hash<std::string_view>{}(s))];
  ReaderLock lock(seg.mu);
  auto it = seg.ids.find(s);
  return it == seg.ids.end() ? kInvalidId : it->second;
}

std::array<size_t, StringDict::kSegments> StringDict::SegmentSizes() const {
  std::array<size_t, kSegments> sizes{};
  for (size_t i = 0; i < kSegments; ++i) {
    ReaderLock lock(segments_[i].mu);
    sizes[i] = segments_[i].ids.size();
  }
  return sizes;
}

StringDict& GlobalStringDict() {
  // Leaked on purpose: interned ids live in Values of arbitrary lifetime
  // (including other static-duration objects), so the dictionary must
  // outlive every consumer.
  static StringDict* dict = new StringDict();
  return *dict;
}

}  // namespace dkb
