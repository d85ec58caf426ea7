#include "rel/sql_ast.h"

#include "common/strings.h"

namespace wfrm::rel {

const char* AggregateFnToString(AggregateFn fn) {
  switch (fn) {
    case AggregateFn::kNone:
      return "";
    case AggregateFn::kCountStar:
    case AggregateFn::kCount:
      return "Count";
    case AggregateFn::kSum:
      return "Sum";
    case AggregateFn::kMin:
      return "Min";
    case AggregateFn::kMax:
      return "Max";
    case AggregateFn::kAvg:
      return "Avg";
  }
  return "";
}

SelectItem SelectItem::Clone() const {
  SelectItem out;
  out.is_star = is_star;
  out.aggregate = aggregate;
  out.expr = expr ? expr->Clone() : nullptr;
  out.alias = alias;
  return out;
}

std::string SelectItem::ToString() const {
  std::string out;
  if (is_star) {
    out += '*';
  } else if (aggregate == AggregateFn::kCountStar) {
    out += "Count(*)";
  } else if (aggregate != AggregateFn::kNone) {
    out += AggregateFnToString(aggregate);
    out += '(';
    out += expr->ToString();
    out += ')';
  } else {
    out += expr->ToString();
  }
  if (!alias.empty()) {
    out += " As ";
    out += alias;
  }
  return out;
}

SelectPtr SelectStatement::Clone() const {
  auto out = std::make_unique<SelectStatement>();
  out->distinct = distinct;
  out->items.reserve(items.size());
  for (const auto& it : items) out->items.push_back(it.Clone());
  out->from = from;
  out->where = where ? where->Clone() : nullptr;
  if (connect_by) out->connect_by = connect_by->Clone();
  out->group_by = group_by;
  out->having = having ? having->Clone() : nullptr;
  out->order_by.reserve(order_by.size());
  for (const OrderKey& k : order_by) out->order_by.push_back(k.Clone());
  out->limit = limit;
  out->union_next = union_next ? union_next->Clone() : nullptr;
  return out;
}

std::string SelectStatement::ToString() const {
  std::string out = "Select ";
  if (distinct) out += "Distinct ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i].ToString();
  }
  out += " From ";
  for (size_t i = 0; i < from.size(); ++i) {
    if (i > 0) out += ", ";
    out += from[i].ToString();
  }
  if (where) out += " Where " + where->ToString();
  if (connect_by) {
    out += " Start With " + connect_by->start_with->ToString();
    out += " Connect By " + connect_by->connect->ToString();
  }
  if (!group_by.empty()) {
    out += " Group By " + Join(group_by, ", ");
  }
  if (having) out += " Having " + having->ToString();
  if (!order_by.empty()) {
    out += " Order By ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += order_by[i].expr->ToString();
      if (order_by[i].descending) out += " Desc";
    }
  }
  if (limit) out += " Limit " + std::to_string(*limit);
  if (union_next) out += " Union " + union_next->ToString();
  return out;
}

}  // namespace wfrm::rel
