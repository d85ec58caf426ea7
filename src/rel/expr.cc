#include "rel/expr.h"

#include "rel/sql_ast.h"

namespace wfrm::rel {

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "And";
    case BinaryOp::kOr:
      return "Or";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kLike:
      return "Like";
  }
  return "?";
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

BinaryOp SwapComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;  // = and != are symmetric.
  }
}

BinaryOp NegateComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return BinaryOp::kNe;
    case BinaryOp::kNe:
      return BinaryOp::kEq;
    case BinaryOp::kLt:
      return BinaryOp::kGe;
    case BinaryOp::kLe:
      return BinaryOp::kGt;
    case BinaryOp::kGt:
      return BinaryOp::kLe;
    case BinaryOp::kGe:
      return BinaryOp::kLt;
    default:
      return op;
  }
}

namespace {

// Precedence for parenthesization in ToString: higher binds tighter.
int Precedence(BinaryOp op) {
  switch (op) {
    case BinaryOp::kOr:
      return 1;
    case BinaryOp::kAnd:
      return 2;
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
    case BinaryOp::kLike:
      return 3;
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
      return 4;
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
      return 5;
  }
  return 6;
}

std::string ChildToString(const Expr& child, int parent_prec) {
  if (child.kind() == Expr::Kind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(child);
    if (Precedence(b.op()) < parent_prec) {
      std::string out = "(";
      out += child.ToString();
      out += ')';
      return out;
    }
  }
  return child.ToString();
}

}  // namespace

std::string BinaryExpr::ToString() const {
  int prec = Precedence(op_);
  return ChildToString(*left_, prec) + " " + BinaryOpToString(op_) + " " +
         ChildToString(*right_, prec);
}

std::string UnaryExpr::ToString() const {
  std::string out;
  switch (op_) {
    case UnaryOp::kNot:
      out += "Not (";
      break;
    case UnaryOp::kNeg:
      out += '-';
      break;
    case UnaryOp::kPrior:
      out += "Prior ";
      break;
  }
  out += operand_->ToString();
  if (op_ == UnaryOp::kNot) out += ')';
  return out;
}

ExprPtr InListExpr::Clone() const {
  std::vector<ExprPtr> list;
  list.reserve(haystack_.size());
  for (const auto& e : haystack_) list.push_back(e->Clone());
  return std::make_unique<InListExpr>(needle_->Clone(), std::move(list));
}

std::string InListExpr::ToString() const {
  std::string out = needle_->ToString() + " In (";
  for (size_t i = 0; i < haystack_.size(); ++i) {
    if (i > 0) out += ", ";
    out += haystack_[i]->ToString();
  }
  return out + ")";
}

SubqueryExpr::SubqueryExpr(std::unique_ptr<SelectStatement> select)
    : Expr(Kind::kSubquery), select_(std::move(select)) {}

SubqueryExpr::~SubqueryExpr() = default;

ExprPtr SubqueryExpr::Clone() const {
  return std::make_unique<SubqueryExpr>(select_->Clone());
}

std::string SubqueryExpr::ToString() const {
  std::string out = "(";
  out += select_->ToString();
  out += ')';
  return out;
}

InSubqueryExpr::InSubqueryExpr(ExprPtr needle,
                               std::unique_ptr<SelectStatement> select)
    : Expr(Kind::kInSubquery),
      needle_(std::move(needle)),
      select_(std::move(select)) {}

InSubqueryExpr::~InSubqueryExpr() = default;

ExprPtr InSubqueryExpr::Clone() const {
  return std::make_unique<InSubqueryExpr>(needle_->Clone(), select_->Clone());
}

std::string InSubqueryExpr::ToString() const {
  return needle_->ToString() + " In (" + select_->ToString() + ")";
}

ExprPtr FunctionExpr::Clone() const {
  std::vector<ExprPtr> args;
  args.reserve(args_.size());
  for (const auto& a : args_) args.push_back(a->Clone());
  return std::make_unique<FunctionExpr>(name_, std::move(args), star_);
}

std::string FunctionExpr::ToString() const {
  if (star_) return name_ + "(*)";
  std::string out = name_ + "(";
  for (size_t i = 0; i < args_.size(); ++i) {
    if (i > 0) out += ", ";
    out += args_[i]->ToString();
  }
  return out + ")";
}

ExprPtr MakeLiteral(Value v) { return std::make_unique<LiteralExpr>(std::move(v)); }

ExprPtr MakeColumnRef(std::string name) {
  return std::make_unique<ColumnRefExpr>("", std::move(name));
}

ExprPtr MakeColumnRef(std::string qualifier, std::string name) {
  return std::make_unique<ColumnRefExpr>(std::move(qualifier), std::move(name));
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr l, ExprPtr r) {
  return std::make_unique<BinaryExpr>(op, std::move(l), std::move(r));
}

ExprPtr MakeComparison(std::string column, BinaryOp op, Value v) {
  return MakeBinary(op, MakeColumnRef(std::move(column)),
                    MakeLiteral(std::move(v)));
}

ExprPtr AndExprs(ExprPtr a, ExprPtr b) {
  if (!a) return b;
  if (!b) return a;
  return MakeBinary(BinaryOp::kAnd, std::move(a), std::move(b));
}

}  // namespace wfrm::rel
