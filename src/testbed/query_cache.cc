#include "testbed/query_cache.h"

#include <memory>
#include <utility>

namespace dkb::testbed {

std::shared_ptr<const km::CompiledQuery> QueryCache::Lookup(
    const std::string& key) {
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return it->second.compiled;
}

std::shared_ptr<const km::CompiledQuery> QueryCache::Insert(
    const std::string& key, km::CompiledQuery compiled,
    std::set<std::string> dependencies) {
  auto program =
      std::make_shared<const km::CompiledQuery>(std::move(compiled));
  Entry replaced;  // freed after the lock is released
  MutexLock lock(mu_);
  Entry& entry = entries_[key];
  replaced = std::move(entry);
  entry = Entry{program, std::move(dependencies), nullptr};
  return program;
}

std::unique_ptr<lfp::ProgramInstance> QueryCache::CheckOut(
    const std::string& key, const km::CompiledQuery* compiled) {
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.compiled.get() != compiled) {
    return nullptr;
  }
  return std::move(it->second.idle);
}

void QueryCache::CheckIn(const std::string& key,
                         const km::CompiledQuery* compiled,
                         std::unique_ptr<lfp::ProgramInstance> instance) {
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.compiled.get() == compiled &&
      it->second.idle == nullptr) {
    it->second.idle = std::move(instance);
  }
}

void QueryCache::DropInstances() {
  MutexLock lock(mu_);
  for (auto& [key, entry] : entries_) entry.idle.reset();
}

void QueryCache::InvalidateOn(const std::set<std::string>& updated_preds) {
  MutexLock lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    bool hit = false;
    for (const std::string& p : updated_preds) {
      if (it->second.dependencies.count(p) > 0) {
        hit = true;
        break;
      }
    }
    if (hit) {
      ++stats_.invalidated;
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void QueryCache::Clear() {
  MutexLock lock(mu_);
  entries_.clear();
}

}  // namespace dkb::testbed
