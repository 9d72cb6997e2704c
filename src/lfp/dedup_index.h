#ifndef DKB_LFP_DEDUP_INDEX_H_
#define DKB_LFP_DEDUP_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/row_batch.h"
#include "storage/tuple.h"

namespace dkb::lfp {

/// The distinct rows of one shard of an IDB relation, for the semi-naive
/// termination step: a row derived in an iteration is new iff Insert
/// accepts it. The index only grows during a clique's fixpoint run, like
/// the append-only relation it mirrors, so each iteration probes only the
/// rows it derived instead of re-reading the accumulated relation; a program
/// instance clears it between runs.
///
/// Rows are keyed on their value ids: an integer is its own id and an
/// interned VARCHAR its dictionary id (equal strings share one id), so a
/// probe hashes and compares fixed-width words without materializing a
/// Tuple. A column holds one type, so ids of different kinds never meet in
/// one key position. Storage interns every VARCHAR it stores; the rare row
/// with a NULL or an un-interned string (dictionary full) goes to a
/// Tuple-keyed side set instead, because such a row can only equal another
/// row of its kind.
class DedupIndex {
 public:
  explicit DedupIndex(size_t arity) : arity_(arity) {}

  /// Adds visible row `i` of `batch` (which has `arity` columns); returns
  /// false, changing nothing, if an equal row is already present.
  bool Insert(const RowBatch& batch, size_t i);

  /// Distinct rows held.
  size_t size() const { return rows_ + odd_.size(); }

  /// Forgets every row, keeping the slot table's capacity for the next run.
  void Clear();

  /// Bytes of key and slot storage allocated.
  size_t ApproxBytes() const {
    return keys_.capacity() * sizeof(uint64_t) +
           slots_.capacity() * sizeof(uint32_t);
  }

 private:
  /// Doubles the slot table and re-places every row.
  void Grow();
  /// Slot where the key at `words` lives, or the empty slot it would take.
  size_t Find(const uint64_t* words, uint64_t hash) const;

  size_t arity_;
  std::vector<uint64_t> keys_;   // arity_ words per row, in insertion order
  std::vector<uint32_t> slots_;  // open addressing: row number + 1; 0 = free
  size_t rows_ = 0;
  std::unordered_set<Tuple, TupleHash> odd_;
  std::vector<uint64_t> scratch_;
};

}  // namespace dkb::lfp

#endif  // DKB_LFP_DEDUP_INDEX_H_
