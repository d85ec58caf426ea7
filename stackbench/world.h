// Generated inputs for the stack benchmark: the synthetic world rendered
// as RDL/PL text, the query pools the load generator draws from, and the
// independent in-memory reference world every sampled answer is checked
// against.
#ifndef WFRM_STACKBENCH_WORLD_H_
#define WFRM_STACKBENCH_WORLD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/resource_manager.h"
#include "policy/synthetic.h"

namespace stackbench {

/// A resource as the ledger and the checks name it ("role7:res_7_3").
std::string RefKey(const wfrm::org::ResourceRef& ref);

/// The sorted RefKeys of an outcome's candidates.
std::vector<std::string> CandidateKeys(
    const wfrm::core::QueryOutcome& outcome);

/// One synthetic world: the SyntheticWorkload itself doubles as the
/// reference (non-durable, rewrite/retrieval caches and the compiled
/// path off), and its RDL/PL rendering is what the cluster loads.
class World {
 public:
  static wfrm::Result<std::unique_ptr<World>> Build(
      const wfrm::policy::SyntheticConfig& config);

  const std::string& rdl() const { return rdl_; }
  const std::string& pl() const { return pl_; }

  /// The leaf activity no generated query names; policy churn adds and
  /// removes requirements on it, so churn never changes an answer.
  const std::string& reserved_activity() const { return reserved_; }

  /// Which random query texts QueryPool keeps.
  struct PoolFilter {
    /// Keep only queries on resource types at least this deep (root = 0).
    size_t min_resource_depth = 0;
    /// With max_candidates > 0, keep only texts whose reference answer
    /// has between min_candidates and max_candidates resources.
    size_t min_candidates = 0;
    size_t max_candidates = 0;
  };

  /// `n` distinct random query texts (RandomQuery(...).ToString()), none
  /// on the reserved activity. When `cover` is non-null it receives the
  /// first kept text of every distinct (resource type, activity) pair.
  wfrm::Result<std::vector<std::string>> QueryPool(
      size_t n, std::mt19937& rng, const PoolFilter& filter,
      std::vector<std::string>* cover = nullptr);

  /// The reference answer for `text`: sorted candidate keys, empty when
  /// no resource qualifies. Memoized; thread-safe.
  wfrm::Result<std::vector<std::string>> Reference(const std::string& text);

 private:
  World() = default;

  std::unique_ptr<wfrm::policy::SyntheticWorkload> w_;
  std::unique_ptr<wfrm::core::ResourceManager> rm_;
  std::string rdl_;
  std::string pl_;
  std::string reserved_;
  std::mutex memo_mu_;
  std::map<std::string, std::vector<std::string>> memo_;
};

/// Zipf(s) rank sampler over [0, n): P(rank r) ∝ 1 / (r+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t operator()(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace stackbench

#endif  // WFRM_STACKBENCH_WORLD_H_
