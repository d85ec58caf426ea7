#include "rel/prepared.h"

#include <utility>

#include "rel/executor.h"

namespace wfrm::rel {

Result<std::shared_ptr<const PreparedQuery>> PlanCache::GetOrPrepare(
    const Executor& exec, const std::string& sql, PlanLookup* outcome) {
  const uint64_t version = exec.db()->catalog_version();
  CacheLookup lookup;
  std::shared_ptr<const PreparedQuery> plan = cache_.Get(
      sql,
      [version](const PreparedQuery& p) {
        return p.catalog_version() == version;
      },
      &lookup);
  if (plan != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (outcome != nullptr) *outcome = PlanLookup::kHit;
    return plan;
  }
  if (lookup == CacheLookup::kStale) {
    invalidations_.fetch_add(1, std::memory_order_relaxed);
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (outcome != nullptr) *outcome = PlanLookup::kMiss;

  // Prepare outside the cache lock: parsing is the expensive part and
  // concurrent misses on different shapes should not serialize. Two
  // threads racing on the same SQL both prepare; last insert wins.
  WFRM_ASSIGN_OR_RETURN(plan, exec.Prepare(sql));
  cache_.Put(sql, plan);
  return plan;
}

}  // namespace wfrm::rel
