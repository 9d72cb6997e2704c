#ifndef DKB_KM_NAMING_H_
#define DKB_KM_NAMING_H_

#include <string>

namespace dkb::km {

/// Relation-naming conventions shared by the Stored DKB manager, the code
/// generator, and the run time library.
///
/// Base (EDB) predicate p   -> catalog table edb_p (columns c0..c{k-1})
/// Derived (IDB) predicate p -> idb_p (columns c0..c{k-1})
/// Naive's temporaries       -> #p_new (the recomputed relation) and
///                              #p_diff (its termination check)
/// Semi-naive windows        -> #p_delta / #p_prev: slot windows over idb_p
///
/// Only edb_p names a catalog table; the rest name relations an LFP run
/// owns and binds ahead of the catalog (lfp::RunRelations).

inline std::string EdbTableName(const std::string& pred) {
  return "edb_" + pred;
}

inline std::string IdbTableName(const std::string& pred) {
  return "idb_" + pred;
}

inline std::string IdbColumnName(size_t i) { return "c" + std::to_string(i); }

inline std::string DeltaTableName(const std::string& pred) {
  return "#" + pred + "_delta";
}

inline std::string PrevTableName(const std::string& pred) {
  return "#" + pred + "_prev";
}

inline std::string NewTableName(const std::string& pred) {
  return "#" + pred + "_new";
}

inline std::string DiffTableName(const std::string& pred) {
  return "#" + pred + "_diff";
}

}  // namespace dkb::km

#endif  // DKB_KM_NAMING_H_
