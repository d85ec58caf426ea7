#ifndef WFRM_POLICY_COMPILED_POLICY_H_
#define WFRM_POLICY_COMPILED_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wfrm::policy {

struct RelevantRequirement;

/// The requirement policies applicable to one (resource, activity) pair,
/// lowered out of the relational representation into flat struct-of-arrays
/// interval tables.
///
/// Layout: one entry per candidate policy row (sorted by PID), and per
/// attribute a partition of that candidate set's interval rows sorted by
/// encoded lower bound. A warm Enforce probe is then, per bound
/// attribute, one binary search plus a branch-light linear scan bumping a
/// per-entry enclosure counter — no tree walk, no SQL, no locks. The
/// table is immutable once built and shared via shared_ptr, cached with
/// the store's mutation epoch it was built at, so any policy or hierarchy
/// change simply abandons it.
class CompiledPolicyTable {
 public:
  struct AttrPartition {
    std::string attribute;  // Canonical declared spelling.
    // Parallel arrays sorted by `lo` (order-preserving encoded bounds,
    // key_encoding.h).
    std::vector<std::string> lo;
    std::vector<std::string> hi;
    std::vector<uint8_t> lo_incl;
    std::vector<uint8_t> hi_incl;
    std::vector<uint32_t> entry;  // Index into the entry arrays.
  };

  // Entry arrays, sorted by PID so probe output needs no sort.
  std::vector<int64_t> pids;
  std::vector<int64_t> groups;
  std::vector<int64_t> num_intervals;
  std::vector<std::string> where_clauses;
  // Partitions sorted by attribute (probed by binary search).
  std::vector<AttrPartition> partitions;
  /// PolicyStore::epoch() the table was built at; served only while the
  /// epoch has not moved.
  uint64_t epoch = 0;

  /// §4.2 probe over an encoded specification (canonical attribute →
  /// EncodeKey'd value): counts enclosing intervals per entry and emits
  /// the entries whose intervals all enclose the specification, or that
  /// constrain no interval — exactly the Figure 15 union, sorted by PID.
  /// Thread-safe (const, immutable data).
  std::vector<RelevantRequirement> Probe(
      const std::vector<std::pair<std::string, std::string>>& encoded_spec)
      const;
};

}  // namespace wfrm::policy

#endif  // WFRM_POLICY_COMPILED_POLICY_H_
