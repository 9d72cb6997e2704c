#include "catalog/catalog.h"

#include <algorithm>

#include "common/str_util.h"

namespace dkb {

std::string Catalog::Key(const std::string& name) { return AsciiLower(name); }

bool IsSystemTableName(const std::string& name) {
  return StartsWith(AsciiLower(name), "sys.");
}

Result<ScanSource*> Catalog::CreateTable(const std::string& name,
                                         Schema schema) {
  return CreateTable(name, std::move(schema), default_shards_);
}

Result<ScanSource*> Catalog::CreateTable(const std::string& name,
                                         Schema schema, size_t shard_count) {
  if (IsSystemTableName(name)) {
    return Status::InvalidArgument("schema 'sys' is reserved for system views");
  }
  if (base_ != nullptr) {
    return Status::FailedPrecondition("cannot create table " + name +
                                      " in a read-only session overlay");
  }
  std::string key = Key(name);
  WriterLock lock(mu_);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table " + name + " already exists");
  }
  std::shared_ptr<ScanSource> table =
      MakeSource(name, std::move(schema), shard_count);
  if (epochs_ != nullptr) table->EnableVersioning(epochs_);
  ScanSource* raw = table.get();
  tables_.emplace(std::move(key), std::move(table));
  BumpSchemaVersion();
  return raw;
}

Status Catalog::DropTable(const std::string& name) {
  WriterLock lock(mu_);
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) {
    return Status::NotFound("table " + name + " does not exist");
  }
  // Shared ownership: running plans and overlay pins keep the storage
  // alive; the name is gone immediately.
  tables_.erase(it);
  BumpSchemaVersion();
  return Status::OK();
}

Result<ScanSource*> Catalog::GetSource(const std::string& name) const {
  std::string key = Key(name);
  {
    ReaderLock lock(mu_);
    auto it = tables_.find(key);
    if (it != tables_.end()) return it->second.get();
    auto pit = pinned_bases_.find(key);
    if (pit != pinned_bases_.end()) return pit->second.get();
  }
  if (base_ != nullptr) {
    DKB_ASSIGN_OR_RETURN(std::shared_ptr<ScanSource> src,
                         base_->GetSourceShared(name));
    ScanSource* raw = src.get();
    WriterLock lock(mu_);
    pinned_bases_.emplace(std::move(key), std::move(src));
    return raw;
  }
  return Status::NotFound("table " + name + " does not exist");
}

Result<std::shared_ptr<ScanSource>> Catalog::GetSourceShared(
    const std::string& name) const {
  ReaderLock lock(mu_);
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) {
    return Status::NotFound("table " + name + " does not exist");
  }
  return it->second;
}

std::vector<std::shared_ptr<ScanSource>> Catalog::SnapshotTables() const {
  ReaderLock lock(mu_);
  std::vector<std::shared_ptr<ScanSource>> out;
  out.reserve(tables_.size());
  for (const auto& [key, table] : tables_) out.push_back(table);
  return out;
}

void Catalog::ClearPinnedBases() {
  WriterLock lock(mu_);
  pinned_bases_.clear();
}

bool Catalog::HasTable(const std::string& name) const {
  {
    ReaderLock lock(mu_);
    if (tables_.count(Key(name)) > 0) return true;
  }
  return base_ != nullptr && base_->HasTable(name);
}

Status Catalog::RegisterVirtualTable(const std::string& name, Schema schema,
                                     VirtualTableProvider provider) {
  if (provider == nullptr) {
    return Status::InvalidArgument("virtual table " + name +
                                   " needs a provider");
  }
  std::string key = Key(name);
  WriterLock lock(mu_);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table " + name + " already exists");
  }
  // Re-registration overwrites: a session clone re-registers the same views
  // against the shared data sources after every snapshot refresh.
  virtuals_[key] = VirtualEntry{std::move(schema), std::move(provider)};
  BumpSchemaVersion();
  return Status::OK();
}

Result<ResolvedSource> Catalog::ResolveScanSource(
    const std::string& name) const {
  VirtualTableProvider provider;
  {
    ReaderLock lock(mu_);
    auto it = tables_.find(Key(name));
    if (it != tables_.end()) {
      ResolvedSource source;
      source.source = it->second.get();
      source.owned = it->second;  // survives a concurrent DROP
      source.read_epoch = read_epoch();
      return source;
    }
    auto vit = virtuals_.find(Key(name));
    if (vit != virtuals_.end()) provider = vit->second.provider;
  }
  if (provider != nullptr) {
    // Materialize outside the catalog lock: providers read recorder/session
    // state guarded by their own mutexes. Snapshots are unversioned, so the
    // default kLatestEpoch reads them correctly at any pinned epoch.
    DKB_ASSIGN_OR_RETURN(std::shared_ptr<const Table> snapshot, provider());
    ResolvedSource source;
    source.source = snapshot.get();
    source.owned = std::move(snapshot);
    source.snapshot = true;
    return source;
  }
  if (base_ != nullptr) {
    DKB_ASSIGN_OR_RETURN(ResolvedSource source,
                         base_->ResolveScanSource(name));
    // Stored base tables must be read at the session's pinned epoch.
    // (Virtual hits on the base are unversioned snapshots; overriding their
    // epoch is harmless.)
    source.read_epoch = read_epoch();
    return source;
  }
  return Status::NotFound("table " + name + " does not exist");
}

Status Catalog::CreateIndex(const std::string& table_name,
                            const std::string& index_name,
                            const std::vector<std::string>& column_names,
                            bool ordered) {
  DKB_ASSIGN_OR_RETURN(ScanSource * table, GetSource(table_name));
  std::vector<size_t> cols;
  cols.reserve(column_names.size());
  for (const std::string& cname : column_names) {
    auto idx = table->schema().FindColumn(cname);
    if (!idx.has_value()) {
      return Status::NotFound("column " + cname + " not in table " +
                              table_name);
    }
    cols.push_back(*idx);
  }
  DKB_RETURN_IF_ERROR(table->AddIndexSpec(index_name, cols, ordered));
  BumpSchemaVersion();
  return Status::OK();
}

std::vector<std::string> Catalog::TableNames() const {
  if (base_ != nullptr) return base_->TableNames();  // overlays hold none
  ReaderLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [key, table] : tables_) names.push_back(table->name());
  return names;
}

size_t Catalog::num_tables() const {
  if (base_ != nullptr) return base_->num_tables();
  ReaderLock lock(mu_);
  return tables_.size();
}

}  // namespace dkb
