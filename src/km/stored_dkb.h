#ifndef DKB_KM_STORED_DKB_H_
#define DKB_KM_STORED_DKB_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "km/type_checker.h"
#include "rdbms/database.h"

namespace dkb::km {

/// Stored D/KB Manager (paper §3.2.3 / §4.1).
///
/// Both the intensional database (rules) and the extensional database
/// (facts) live inside the relational DBMS:
///
///   idbrel(predname, arity)                IDB data dictionary
///   idbcol(predname, colnum, coltype)      IDB column types
///   rulesource(headpredname, ruleid, ruletext)  source form of rules
///   reachablepreds(frompredname, topredname)    compiled form: transitive
///                                               closure of the stored PCG
///   edbrel(predname, arity)                EDB data dictionary
///   edbcol(predname, colnum, coltype)      EDB column types
///   edb_<pred>(c0, ..., ck)                one relation per base predicate
///
/// Indexes are placed on rulesource(headpredname),
/// reachablepreds(frompredname) and reachablepreds(topredname) — the paper
/// found these make relevant-rule extraction insensitive to the total
/// number of stored rules (Test 1).
class StoredDkb {
 public:
  struct Options {
    /// Maintain `reachablepreds` (compiled-form rule storage). When false,
    /// only `rulesource` is kept and extraction walks the rule graph with
    /// repeated dictionary queries (paper Fig 15's "without compiled form").
    bool compiled_rule_storage = true;
    /// Create a hash index on the first column of every EDB relation
    /// (access path for bound-first-argument queries like ancestor^bf).
    bool index_edb_first_column = true;
  };

  explicit StoredDkb(Database* db) : StoredDkb(db, Options{}) {}
  StoredDkb(Database* db, Options options);

  StoredDkb(const StoredDkb&) = delete;
  StoredDkb& operator=(const StoredDkb&) = delete;

  /// Creates the dictionary/rule relations and their indexes.
  Status Initialize();

  /// Rebuilds this manager's in-memory state (base-predicate cache, next
  /// rule id) from an already-populated database — used after loading a
  /// session snapshot instead of Initialize().
  Status RestoreFromDatabase();

  const Options& options() const { return options_; }
  Database* db() { return db_; }

  // -------------------------------------------------------------------------
  // Extensional database
  // -------------------------------------------------------------------------

  /// Creates the edb_<pred> relation and registers it in the EDB dictionary.
  Status DefineBasePredicate(const std::string& pred,
                             const PredicateTypes& types);

  /// True if `pred` is a registered base predicate.
  bool HasBasePredicate(const std::string& pred) const;

  /// Bulk-loads facts through the embedded interface. The facts are checked
  /// with CheckFacts first, so they apply whole or not at all.
  Status InsertFacts(const std::string& pred,
                     const std::vector<Tuple>& tuples);

  /// The checks InsertFacts makes ahead of any write: NotFound if `pred` is
  /// no base predicate, InvalidArgument if a row's arity differs from the
  /// predicate's, TypeError if a non-NULL value's type differs from its
  /// column's, else OK.
  Status CheckFacts(const std::string& pred,
                    const std::vector<Tuple>& tuples) const;

  /// The check DefineBasePredicate makes ahead of any write: AlreadyExists
  /// if `pred` is a base predicate, its relation's name is taken or the
  /// stored rules derive it (idbrel lists it), else OK.
  Status CheckNewBasePredicate(const std::string& pred);

  /// Deletes all facts of `pred` (relation and dictionary entry remain).
  Status ClearFacts(const std::string& pred);

  /// Reads the EDB data dictionary for `preds` via SQL (the paper's t_read
  /// operation). Unknown predicates are simply absent from the result.
  Result<std::map<std::string, PredicateTypes>> ReadEdbDictionary(
      const std::set<std::string>& preds);

  /// Reads the IDB data dictionary for `preds` via SQL.
  Result<std::map<std::string, PredicateTypes>> ReadIdbDictionary(
      const std::set<std::string>& preds);

  // -------------------------------------------------------------------------
  // Intensional database (rule storage)
  // -------------------------------------------------------------------------

  /// Extracts all stored rules relevant to `preds`: rules whose head is in
  /// `preds` or reachable from a predicate of `preds` (paper §4.1).
  /// With compiled_rule_storage this is the paper's single indexed
  /// rulesource ⋈ reachablepreds query; without it, an iterative frontier
  /// walk issuing one rulesource query per level.
  Result<std::vector<datalog::Rule>> ExtractRelevantRules(
      const std::set<std::string>& preds);

  /// Appends one rule to rulesource (skips structurally identical
  /// duplicates). Returns true if stored, false if it already existed.
  Result<bool> StoreRuleSource(const datalog::Rule& rule);

  Result<int64_t> NumStoredRules();

  /// Replaces the IDB dictionary entries of all `preds` with four
  /// statements total.
  Status UpsertIdbDictionaryBatch(
      const std::map<std::string, PredicateTypes>& preds);

  /// Adds the reachablepreds rows (from, to) not already recorded, with one
  /// lookup plus one multi-row insert. Rule storage is add-only, so
  /// reachability grows monotonically and merging is sufficient.
  Status MergeReachableBatch(
      const std::map<std::string, std::set<std::string>>& pairs);

  /// Predicates reachable from `preds` according to reachablepreds.
  Result<std::set<std::string>> StoredReachable(
      const std::set<std::string>& preds);

  /// Predicates that can reach one of `preds` according to reachablepreds
  /// (the rules affected upstream by an update to `preds`).
  Result<std::set<std::string>> StoredUpstream(
      const std::set<std::string>& preds);

  /// Stored rules whose head predicate is in `preds` (no closure).
  Result<std::vector<datalog::Rule>> RulesForHeads(
      const std::set<std::string>& preds);

 private:
  Database* db_;
  Options options_;
  int64_t next_rule_id_ = 1;
  std::set<std::string> base_preds_;  // cache of EDB dictionary keys
  // Dictionary-access statements reused across every StoreRuleSource call
  // (prepared lazily on first use; the rulesource schema never changes).
  PreparedStatement select_rule_by_head_;
  PreparedStatement insert_rule_;
  // CheckNewBasePredicate's idbrel probe, prepared on first use.
  PreparedStatement select_idb_pred_;
};

}  // namespace dkb::km

#endif  // DKB_KM_STORED_DKB_H_
