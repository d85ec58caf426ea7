#ifndef WFRM_REL_PREPARED_H_
#define WFRM_REL_PREPARED_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/lru_cache.h"
#include "common/result.h"
#include "rel/sql_ast.h"

namespace wfrm::rel {

class Executor;

/// A SELECT statement planned once and executed many times: the parsed
/// AST plus the catalog version it was validated against. Parameters
/// (`[Name]`) are bound at execution time, so one prepared query serves
/// every enforcement of the same shape — the Figure 13/14/15 view +
/// union query parses once per shape instead of once per call.
///
/// Immutable after construction; share freely across threads.
class PreparedQuery {
 public:
  PreparedQuery(std::string sql, SelectPtr stmt, uint64_t catalog_version)
      : sql_(std::move(sql)),
        stmt_(std::move(stmt)),
        catalog_version_(catalog_version) {}

  PreparedQuery(const PreparedQuery&) = delete;
  PreparedQuery& operator=(const PreparedQuery&) = delete;

  const std::string& sql() const { return sql_; }
  const SelectStatement& stmt() const { return *stmt_; }

  /// Database::catalog_version() at preparation time. A mismatch means a
  /// relation was created/replaced/dropped since: name resolution may
  /// now bind differently, so cached plans must be re-prepared.
  uint64_t catalog_version() const { return catalog_version_; }

 private:
  std::string sql_;
  SelectPtr stmt_;
  uint64_t catalog_version_;
};

/// Outcome of one PlanCache probe.
enum class PlanLookup {
  kHit,   // Entry present at the current catalog version.
  kMiss,  // No entry under the SQL text, or one planned against an older
          // catalog (dropped; counted in invalidations()).
};

/// Bounded LRU of prepared queries keyed by SQL text. An entry is served
/// only while its recorded catalog version matches the database's
/// current one; a DDL change (e.g. a view re-registration) silently
/// re-prepares on the next lookup. Thread-safe; entries are shared
/// immutable plans, so a hit is one mutex-guarded map probe plus a
/// shared_ptr copy.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 64) : cache_(capacity) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan for `sql`, preparing (and caching) it
  /// through `exec` on a miss or after a catalog change. `outcome`
  /// (optional) reports how the probe was served.
  Result<std::shared_ptr<const PreparedQuery>> GetOrPrepare(
      const Executor& exec, const std::string& sql,
      PlanLookup* outcome = nullptr);

  size_t size() const { return cache_.size(); }
  size_t capacity() const { return cache_.capacity(); }
  void Clear() { cache_.Clear(); }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Subset of misses() caused by a catalog-version mismatch.
  uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }

 private:
  LruCache<PreparedQuery> cache_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace wfrm::rel

#endif  // WFRM_REL_PREPARED_H_
