#include "lfp/dedup_index.h"

#include <algorithm>
#include <cstring>

namespace dkb::lfp {

namespace {

/// splitmix64's finalizer: spreads every input bit over the word.
uint64_t Mix(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t HashWords(const uint64_t* words, size_t n) {
  uint64_t h = n;
  for (size_t i = 0; i < n; ++i) h = Mix(h ^ words[i]);
  return h;
}

}  // namespace

size_t DedupIndex::Find(const uint64_t* words, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  size_t slot = static_cast<size_t>(hash) & mask;
  while (slots_[slot] != 0) {
    const uint64_t* key = keys_.data() + (slots_[slot] - 1) * arity_;
    if (std::memcmp(key, words, arity_ * sizeof(uint64_t)) == 0) break;
    slot = (slot + 1) & mask;
  }
  return slot;
}

void DedupIndex::Grow() {
  slots_.assign(slots_.empty() ? 16 : slots_.size() * 2, 0);
  for (size_t r = 0; r < rows_; ++r) {
    const uint64_t* key = keys_.data() + r * arity_;
    slots_[Find(key, HashWords(key, arity_))] = static_cast<uint32_t>(r + 1);
  }
}

bool DedupIndex::Insert(const RowBatch& batch, size_t i) {
  scratch_.resize(arity_);
  for (size_t c = 0; c < arity_; ++c) {
    const Value& v = batch.At(i, c);
    if (v.is_int()) {
      scratch_[c] = static_cast<uint64_t>(v.as_int());
    } else if (v.is_interned()) {
      scratch_[c] = v.interned_id();
    } else {
      return odd_.insert(batch.MaterializeTuple(i)).second;
    }
  }
  if (2 * (rows_ + 1) > slots_.size()) Grow();
  const size_t slot = Find(scratch_.data(), HashWords(scratch_.data(), arity_));
  if (slots_[slot] != 0) return false;
  keys_.insert(keys_.end(), scratch_.begin(), scratch_.end());
  slots_[slot] = static_cast<uint32_t>(++rows_);
  return true;
}

void DedupIndex::Clear() {
  keys_.clear();
  std::fill(slots_.begin(), slots_.end(), 0);
  rows_ = 0;
  odd_.clear();
}

}  // namespace dkb::lfp
