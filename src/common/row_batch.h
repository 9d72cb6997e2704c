#ifndef DKB_COMMON_ROW_BATCH_H_
#define DKB_COMMON_ROW_BATCH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/value.h"

namespace dkb {

/// A row: fixed-length vector of values (declared here to keep RowBatch in
/// common/; storage/tuple.h re-exports the alias with its hash helpers).
using Tuple = std::vector<Value>;

/// The execution engine's unit of data flow: up to ~kCapacity rows stored
/// column-major (one std::vector<Value> per column) plus an optional
/// selection vector.
///
/// Physical rows are what AppendRow stored; the selection vector, when
/// active, names the visible subset as physical indexes in ascending order.
/// All logical accessors (size / At / CopyRowTo / MaterializeTuple) resolve
/// through the selection, so downstream operators never see filtered-out
/// rows. Filters narrow a batch in place with ComposeSelection instead of
/// copying survivors — with interned VARCHARs the values behind a batch are
/// cheap to copy, but not copying at all is cheaper still.
///
/// A batch may exceed kCapacity (joins append every match for a probe
/// batch); the cap is the producer's target, not an invariant.
class RowBatch {
 public:
  /// Target rows per batch; chosen so a batch of int64/interned values
  /// stays ~32KB per column group (L1/L2-friendly) while amortizing the
  /// per-batch virtual dispatch to noise.
  static constexpr size_t kCapacity = 1024;

  RowBatch() = default;

  /// Clears rows and selection and sets the column count. Column storage is
  /// retained across Reset so steady-state batches never reallocate.
  void Reset(size_t num_columns) {
    if (cols_.size() != num_columns) cols_.resize(num_columns);
    for (auto& col : cols_) col.clear();
    sel_.clear();
    sel_active_ = false;
  }

  size_t num_columns() const { return cols_.size(); }

  /// Rows stored, ignoring the selection.
  size_t physical_size() const { return cols_.empty() ? 0 : cols_[0].size(); }

  /// Visible rows (through the selection).
  size_t size() const {
    return sel_active_ ? sel_.size() : physical_size();
  }
  bool empty() const { return size() == 0; }

  bool full() const { return physical_size() >= kCapacity; }

  /// Physical index of visible row `i`.
  size_t PhysicalIndex(size_t i) const { return sel_active_ ? sel_[i] : i; }

  /// Value at visible row `i`, column `c`.
  const Value& At(size_t i, size_t c) const {
    return cols_[c][PhysicalIndex(i)];
  }

  /// Column accessors addressed by *physical* row index (for vectorized
  /// expression kernels that iterate a selection themselves).
  const std::vector<Value>& column(size_t c) const { return cols_[c]; }
  std::vector<Value>& column(size_t c) { return cols_[c]; }

  void AppendRow(const Tuple& row) {
    for (size_t c = 0; c < cols_.size(); ++c) cols_[c].push_back(row[c]);
  }
  void AppendRow(Tuple&& row) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      cols_[c].push_back(std::move(row[c]));
    }
  }
  /// Appends visible row `i` of `other`, which has the same column count.
  void AppendRowOf(const RowBatch& other, size_t i) {
    const size_t p = other.PhysicalIndex(i);
    for (size_t c = 0; c < cols_.size(); ++c) {
      cols_[c].push_back(other.cols_[c][p]);
    }
  }
  /// Appends the concatenation of `left` and visible row `i` of `right`
  /// (hash/index join output).
  void AppendConcat(const Tuple& left, const RowBatch& right, size_t i) {
    size_t c = 0;
    for (; c < left.size(); ++c) cols_[c].push_back(left[c]);
    for (size_t rc = 0; rc < right.num_columns(); ++rc, ++c) {
      cols_[c].push_back(right.At(i, rc));
    }
  }
  void AppendConcat(const Tuple& left, const Tuple& right) {
    size_t c = 0;
    for (; c < left.size(); ++c) cols_[c].push_back(left[c]);
    for (size_t rc = 0; rc < right.size(); ++rc, ++c) {
      cols_[c].push_back(right[rc]);
    }
  }

  /// Copies visible row `i` into *out (resizing it to the column count).
  void CopyRowTo(size_t i, Tuple* out) const {
    const size_t p = PhysicalIndex(i);
    out->resize(cols_.size());
    for (size_t c = 0; c < cols_.size(); ++c) (*out)[c] = cols_[c][p];
  }

  Tuple MaterializeTuple(size_t i) const {
    Tuple t;
    CopyRowTo(i, &t);
    return t;
  }

  /// Narrows visibility to the given *logical* row indexes (ascending).
  /// Composes with any active selection, so filters stack.
  void ComposeSelection(const std::vector<uint32_t>& keep) {
    std::vector<uint32_t> next;
    next.reserve(keep.size());
    for (uint32_t i : keep) {
      next.push_back(static_cast<uint32_t>(PhysicalIndex(i)));
    }
    sel_ = std::move(next);
    sel_active_ = true;
  }

  /// Keeps only the first `n` visible rows.
  void Truncate(size_t n) {
    if (n >= size()) return;
    if (!sel_active_) {
      sel_.resize(n);
      for (size_t i = 0; i < n; ++i) sel_[i] = static_cast<uint32_t>(i);
      sel_active_ = true;
    } else {
      sel_.resize(n);
    }
  }

  bool selection_active() const { return sel_active_; }

  /// Debug rendering: one line per visible row, values '|'-separated, with
  /// a physical/visible count header. Not for user-facing output.
  std::string ToString() const;

 private:
  std::vector<std::vector<Value>> cols_;
  std::vector<uint32_t> sel_;
  bool sel_active_ = false;
};

}  // namespace dkb

#endif  // DKB_COMMON_ROW_BATCH_H_
