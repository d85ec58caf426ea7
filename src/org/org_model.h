#ifndef WFRM_ORG_ORG_MODEL_H_
#define WFRM_ORG_ORG_MODEL_H_

#include <cstdint>
#include <map>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "org/hierarchy.h"
#include "rel/database.h"
#include "rel/executor.h"

namespace wfrm::org {

/// Identifies a resource instance: its exact (most specific) type plus
/// its unique Id value.
struct ResourceRef {
  std::string type;
  std::string id;

  bool operator==(const ResourceRef& other) const {
    return EqualsIgnoreCase(type, other.type) && id == other.id;
  }
  bool operator<(const ResourceRef& other) const {
    const int c = CompareIgnoreCase(type, other.type);
    return c != 0 ? c < 0 : id < other.id;
  }
  std::string ToString() const { return type + ":" + id; }
};

/// The organization model of the resource manager (paper §2.2–2.3):
///
/// * a resource hierarchy whose types ("roles") each own a table of
///   resource instances (exact-type membership — a Programmer row lives
///   in Programmer, not in Engineer; super-type queries reach it through
///   the qualification rewriting, per §4.1);
/// * an activity hierarchy (no instances — activities are described in
///   RQL queries);
/// * relationship tables (Figure 3: BelongsTo, Manages, ...), plus views
///   over them (ReportsTo = BelongsTo ⋈ Manages).
///
/// Every resource table implicitly starts with an `Id STRING` column.
///
/// Thread safety: instance reads (GetResource, CountResources,
/// ResourceSchema) take a shared lock; definition and instance writers
/// take an exclusive one. Callers running ad-hoc queries against `db()`
/// concurrently with writers must hold `ReadLock()` for the duration
/// (the resource manager's query executor does).
class OrgModel {
 public:
  OrgModel();

  TypeHierarchy& resources() { return resources_; }
  const TypeHierarchy& resources() const { return resources_; }
  TypeHierarchy& activities() { return activities_; }
  const TypeHierarchy& activities() const { return activities_; }

  rel::Database& db() { return db_; }
  const rel::Database& db() const { return db_; }

  /// Declares a resource type and creates its instance table.
  Status DefineResourceType(const std::string& name, const std::string& parent,
                            std::vector<AttributeDef> attributes = {});

  /// Declares an activity type (attribute definitions only).
  Status DefineActivityType(const std::string& name, const std::string& parent,
                            std::vector<AttributeDef> attributes = {});

  /// Inserts a resource instance. `values` maps attribute name → value;
  /// missing attributes become NULL; unknown attributes fail. `id` must
  /// be unique within the type.
  Result<ResourceRef> AddResource(const std::string& type,
                                  const std::string& id,
                                  const std::map<std::string, rel::Value>& values);

  /// Fetches the full row of a resource; NotFound if absent.
  Result<rel::Row> GetResource(const ResourceRef& ref) const;

  /// The relational schema of a resource type's table (Id + inherited +
  /// own attributes).
  Result<rel::Schema> ResourceSchema(const std::string& type) const;

  /// Declares a relationship table, e.g. BelongsTo(Employee, Unit).
  Status DefineRelationship(const std::string& name,
                            std::vector<rel::Column> columns);

  /// Adds a tuple to a relationship.
  Status AddRelationshipTuple(const std::string& name, rel::Row row);

  /// Registers a view over relationships from SQL text (paper §2.2:
  /// "views may be created on relationships to facilitate query
  /// expressions").
  Status DefineView(const std::string& name,
                    std::vector<std::string> column_names,
                    std::string_view select_sql);

  /// Number of instances stored for `type` (exact type only).
  Result<size_t> CountResources(const std::string& type) const;

  /// Shared lock over the instance/relationship tables, for callers that
  /// read `db()` directly (query execution). Writers are excluded while
  /// any such lock is held; readers run concurrently.
  std::shared_lock<std::shared_mutex> ReadLock() const {
    return std::shared_lock<std::shared_mutex>(mu_);
  }

  /// Monotone edit counter over the two hierarchies — the part of the
  /// org model that policy retrieval depends on. Instance inserts do not
  /// bump it (they cannot change which policies are relevant).
  uint64_t hierarchy_version() const {
    return resources_.version() + activities_.version();
  }

 private:
  TypeHierarchy resources_;
  TypeHierarchy activities_;
  rel::Database db_;
  /// Guards db_ tables/views against concurrent definition or instance
  /// mutation. The hierarchies carry their own internal locks.
  mutable std::shared_mutex mu_;
};

}  // namespace wfrm::org

#endif  // WFRM_ORG_ORG_MODEL_H_
