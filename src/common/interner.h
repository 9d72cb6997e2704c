#ifndef DKB_COMMON_INTERNER_H_
#define DKB_COMMON_INTERNER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/sync.h"

namespace dkb {

/// Process-wide string dictionary backing Value's interned-VARCHAR
/// representation (DictRef). Interning maps each distinct string to a dense
/// uint32 id; ids are stable for the process lifetime and entries are never
/// removed, so two interned values are equal iff their ids are equal.
///
/// Each entry stores the string's content hash (std::hash<std::string> of
/// the content), so hashing an interned value is an O(1) table lookup that
/// agrees with hashing the same string un-interned — hash containers can mix
/// both representations freely.
///
/// Thread safety: the dedup map is segmented by content hash into
/// kSegments independently locked shards — Intern takes a shared lock on
/// its segment for the hit path and an exclusive one to insert, so
/// concurrent interning of distinct strings contends only on the short
/// id-allocation critical section (alloc_mu_). Get/HashOf are lock-free.
/// Entries live in fixed-size chunks whose slots are fully constructed
/// before the entry count is published (release store), so a reader that
/// obtained an id — necessarily after its publication — always observes a
/// complete entry via the acquire load in Get.
class StringDict {
 public:
  /// Sentinel for "not interned"; never returned by Intern.
  static constexpr uint32_t kInvalidId = 0xFFFFFFFFu;

  /// Dedup-map segments (lock shards). Power of two so segment selection is
  /// a mask of the content hash.
  static constexpr size_t kSegments = 16;

  StringDict() = default;
  ~StringDict();
  StringDict(const StringDict&) = delete;
  StringDict& operator=(const StringDict&) = delete;

  /// Returns the id for `s`, interning it on first sight.
  uint32_t Intern(std::string_view s);

  /// The id of `s` if it is already interned, else kInvalidId; never
  /// inserts (a read-only statement's constants leave no entry behind).
  uint32_t Find(std::string_view s) const;

  /// Content of an interned string; the reference is stable for the
  /// process lifetime. Requires a valid id previously returned by Intern.
  const std::string& Get(uint32_t id) const { return Entry(id).str; }

  /// Precomputed std::hash<std::string> of the content (O(1)).
  size_t HashOf(uint32_t id) const { return Entry(id).hash; }

  /// Number of distinct strings interned so far.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Distinct strings per dedup segment (sys.shards reports one row each).
  /// Each segment is read under its own lock; the array as a whole is not a
  /// consistent snapshot.
  std::array<size_t, kSegments> SegmentSizes() const;

 private:
  struct EntryRec {
    std::string str;
    size_t hash = 0;
  };

  static constexpr uint32_t kChunkBits = 12;  // 4096 entries per chunk
  static constexpr uint32_t kChunkSize = 1u << kChunkBits;
  static constexpr uint32_t kMaxChunks = 1u << 14;  // ~67M strings

  const EntryRec& Entry(uint32_t id) const {
    // The caller holds an id, which was published by the release store of
    // size_ in Intern; the acquire load here (or in size()) establishes the
    // happens-before edge for the entry's contents.
    return chunks_[id >> kChunkBits].load(std::memory_order_acquire)
        [id & (kChunkSize - 1)];
  }

  struct Segment {
    mutable SharedMutex mu;
    // Dedup map; keys view into chunk-owned strings (stable addresses).
    std::unordered_map<std::string_view, uint32_t> ids DKB_GUARDED_BY(mu);
  };

  static size_t SegmentOf(size_t content_hash) {
    // The low bits feed unordered_map bucketing inside the segment; use
    // higher bits for segment selection so the two don't correlate.
    return (content_hash >> 7) & (kSegments - 1);
  }

  std::array<Segment, kSegments> segments_;
  // Serializes id allocation and chunk publication across segments.
  // Acquired after a segment lock, never the other way around.
  Mutex alloc_mu_;
  // Lock-free read path: chunk pointers and the entry count are published
  // with release stores under alloc_mu_ and read with acquire loads
  // anywhere (see Entry above). They are deliberately NOT guarded by a
  // mutex — the atomics themselves carry the synchronization, and
  // Get/HashOf must stay lock-free for the executor's hot paths.
  std::array<std::atomic<EntryRec*>, kMaxChunks> chunks_ = {};
  std::atomic<uint32_t> size_{0};
};

/// The dictionary every interned Value resolves through.
StringDict& GlobalStringDict();

}  // namespace dkb

#endif  // DKB_COMMON_INTERNER_H_
