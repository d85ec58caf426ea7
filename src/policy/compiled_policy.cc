#include "policy/compiled_policy.h"

#include <algorithm>

#include "policy/policy_store.h"

namespace wfrm::policy {

std::vector<RelevantRequirement> CompiledPolicyTable::Probe(
    const std::vector<std::pair<std::string, std::string>>& encoded_spec)
    const {
  std::vector<int64_t> counts(pids.size(), 0);
  for (const auto& [attr, enc] : encoded_spec) {
    auto it = std::lower_bound(partitions.begin(), partitions.end(), attr,
                               [](const AttrPartition& p,
                                  const std::string& a) {
                                 return p.attribute < a;
                               });
    if (it == partitions.end() || it->attribute != attr) continue;
    const AttrPartition& p = *it;
    // Rows with lo <= enc form a prefix of the lo-sorted arrays.
    const size_t end = static_cast<size_t>(
        std::upper_bound(p.lo.begin(), p.lo.end(), enc) - p.lo.begin());
    for (size_t i = 0; i < end; ++i) {
      const bool lo_ok = p.lo_incl[i] != 0 || p.lo[i] < enc;
      const bool hi_ok =
          enc < p.hi[i] || (enc == p.hi[i] && p.hi_incl[i] != 0);
      counts[p.entry[i]] += static_cast<int64_t>(lo_ok && hi_ok);
    }
  }
  std::vector<RelevantRequirement> out;
  for (size_t i = 0; i < pids.size(); ++i) {
    if (num_intervals[i] == 0 || counts[i] == num_intervals[i]) {
      out.push_back(
          RelevantRequirement{pids[i], groups[i], where_clauses[i]});
    }
  }
  return out;
}

}  // namespace wfrm::policy
