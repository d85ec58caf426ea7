#include "world.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/strings.h"
#include "org/rdl_dump.h"
#include "policy/pl_dump.h"

namespace stackbench {

using namespace wfrm;  // NOLINT

std::string RefKey(const org::ResourceRef& ref) {
  return AsciiToLower(ref.type) + ":" + ref.id;
}

std::vector<std::string> CandidateKeys(const core::QueryOutcome& outcome) {
  std::vector<std::string> keys;
  keys.reserve(outcome.candidates.size());
  for (const org::ResourceRef& ref : outcome.candidates) {
    keys.push_back(RefKey(ref));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

Result<std::unique_ptr<World>> World::Build(
    const policy::SyntheticConfig& config) {
  std::unique_ptr<World> world(new World());
  WFRM_ASSIGN_OR_RETURN(world->w_, policy::SyntheticWorkload::Build(config));
  WFRM_ASSIGN_OR_RETURN(world->rdl_, org::DumpRdl(world->w_->org()));
  WFRM_ASSIGN_OR_RETURN(world->pl_, policy::DumpPl(world->w_->store()));
  // The reference answers from first principles: no rewrite LRU, no
  // retrieval EpochCaches, no compiled tables.
  world->w_->store().set_cache_enabled(false);
  world->w_->store().set_compiled_enabled(false);
  world->rm_ = std::make_unique<core::ResourceManager>(&world->w_->org(),
                                                       &world->w_->store());
  world->reserved_ =
      policy::SyntheticWorkload::ActivityName(config.num_activities - 1);
  return world;
}

Result<std::vector<std::string>> World::QueryPool(
    size_t n, std::mt19937& rng, const PoolFilter& filter,
    std::vector<std::string>* cover) {
  std::vector<std::string> pool;
  std::set<std::string> seen;
  std::set<std::pair<std::string, std::string>> pairs;
  // The query space is large (|R| x leaves x case values), so distinct
  // texts run out only for absurd `n`; the attempt cap turns that into
  // an error instead of a hang.
  const size_t max_attempts = 64 * n + 4096;
  for (size_t attempt = 0; pool.size() < n && attempt < max_attempts;
       ++attempt) {
    WFRM_ASSIGN_OR_RETURN(rql::RqlQuery query, w_->RandomQuery(rng));
    if (EqualsIgnoreCase(query.activity(), reserved_)) continue;
    WFRM_ASSIGN_OR_RETURN(size_t depth,
                          w_->org().resources().DepthOf(query.resource()));
    if (depth < filter.min_resource_depth) continue;
    std::string text = query.ToString();
    if (!seen.insert(text).second) continue;
    if (filter.max_candidates > 0) {
      WFRM_ASSIGN_OR_RETURN(std::vector<std::string> found, Reference(text));
      if (found.size() < filter.min_candidates ||
          found.size() > filter.max_candidates) {
        continue;
      }
    }
    if (cover != nullptr &&
        pairs.emplace(query.resource(), query.activity()).second) {
      cover->push_back(text);
    }
    pool.push_back(std::move(text));
  }
  if (pool.size() < n) {
    return Status::Internal("query pool: only " + std::to_string(pool.size()) +
                            " of " + std::to_string(n) + " texts generated");
  }
  return pool;
}

Result<std::vector<std::string>> World::Reference(const std::string& text) {
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto it = memo_.find(text);
    if (it != memo_.end()) return it->second;
  }
  WFRM_ASSIGN_OR_RETURN(core::QueryOutcome outcome, rm_->Submit(text));
  std::vector<std::string> keys;
  if (outcome.ok()) keys = CandidateKeys(outcome);
  std::lock_guard<std::mutex> lock(memo_mu_);
  memo_[text] = keys;
  return keys;
}

ZipfSampler::ZipfSampler(size_t n, double s) {
  cdf_.reserve(n);
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::operator()(std::mt19937_64& rng) const {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<size_t>(it - cdf_.begin());
}

}  // namespace stackbench
