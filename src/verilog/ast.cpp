#include "verilog/ast.h"

#include <utility>

namespace noodle::verilog {

// ---------------------------------------------------------------------------
// Expr
// ---------------------------------------------------------------------------

ExprPtr Expr::clone() const {
  auto copy = std::make_unique<Expr>();
  copy->kind = kind;
  copy->value = value;
  copy->width = width;
  copy->name = name;
  copy->operands.reserve(operands.size());
  for (const auto& op : operands) copy->operands.push_back(op ? op->clone() : nullptr);
  return copy;
}

ExprPtr Expr::number(std::uint64_t value, int width) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Number;
  e->value = value;
  e->width = width;
  return e;
}

ExprPtr Expr::ident(std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Identifier;
  e->name = std::move(name);
  return e;
}

ExprPtr Expr::unary(std::string op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Unary;
  e->name = std::move(op);
  e->operands.push_back(std::move(operand));
  return e;
}

ExprPtr Expr::binary(std::string op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Binary;
  e->name = std::move(op);
  e->operands.push_back(std::move(lhs));
  e->operands.push_back(std::move(rhs));
  return e;
}

ExprPtr Expr::ternary(ExprPtr cond, ExprPtr then_e, ExprPtr else_e) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Ternary;
  e->operands.push_back(std::move(cond));
  e->operands.push_back(std::move(then_e));
  e->operands.push_back(std::move(else_e));
  return e;
}

ExprPtr Expr::index(ExprPtr base, ExprPtr idx) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Index;
  e->operands.push_back(std::move(base));
  e->operands.push_back(std::move(idx));
  return e;
}

ExprPtr Expr::range(ExprPtr base, ExprPtr msb, ExprPtr lsb) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Range;
  e->operands.push_back(std::move(base));
  e->operands.push_back(std::move(msb));
  e->operands.push_back(std::move(lsb));
  return e;
}

ExprPtr Expr::concat(std::vector<ExprPtr> parts) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Concat;
  e->operands = std::move(parts);
  return e;
}

ExprPtr Expr::replicate(ExprPtr count, ExprPtr part) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Replicate;
  e->operands.push_back(std::move(count));
  e->operands.push_back(std::move(part));
  return e;
}

// ---------------------------------------------------------------------------
// Stmt
// ---------------------------------------------------------------------------

CaseItem CaseItem::clone() const {
  CaseItem copy;
  copy.labels.reserve(labels.size());
  for (const auto& l : labels) copy.labels.push_back(l ? l->clone() : nullptr);
  copy.body = body ? body->clone() : nullptr;
  return copy;
}

StmtPtr Stmt::clone() const {
  auto copy = std::make_unique<Stmt>();
  copy->kind = kind;
  copy->cond = cond ? cond->clone() : nullptr;
  copy->then_branch = then_branch ? then_branch->clone() : nullptr;
  copy->else_branch = else_branch ? else_branch->clone() : nullptr;
  copy->body.reserve(body.size());
  for (const auto& s : body) copy->body.push_back(s ? s->clone() : nullptr);
  copy->case_items.reserve(case_items.size());
  for (const auto& item : case_items) copy->case_items.push_back(item.clone());
  copy->lhs = lhs ? lhs->clone() : nullptr;
  copy->rhs = rhs ? rhs->clone() : nullptr;
  copy->for_init = for_init ? for_init->clone() : nullptr;
  copy->for_step = for_step ? for_step->clone() : nullptr;
  return copy;
}

StmtPtr Stmt::block(std::vector<StmtPtr> stmts) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::Block;
  s->body = std::move(stmts);
  return s;
}

StmtPtr Stmt::if_stmt(ExprPtr cond, StmtPtr then_branch, StmtPtr else_branch) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::If;
  s->cond = std::move(cond);
  s->then_branch = std::move(then_branch);
  s->else_branch = std::move(else_branch);
  return s;
}

StmtPtr Stmt::case_stmt(ExprPtr subject, std::vector<CaseItem> items) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::Case;
  s->cond = std::move(subject);
  s->case_items = std::move(items);
  return s;
}

StmtPtr Stmt::for_stmt(StmtPtr init, ExprPtr cond, StmtPtr step, StmtPtr body) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::For;
  s->for_init = std::move(init);
  s->cond = std::move(cond);
  s->for_step = std::move(step);
  s->body.push_back(std::move(body));
  return s;
}

StmtPtr Stmt::blocking(ExprPtr lhs, ExprPtr rhs) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::BlockingAssign;
  s->lhs = std::move(lhs);
  s->rhs = std::move(rhs);
  return s;
}

StmtPtr Stmt::non_blocking(ExprPtr lhs, ExprPtr rhs) {
  auto s = std::make_unique<Stmt>();
  s->kind = StmtKind::NonBlockingAssign;
  s->lhs = std::move(lhs);
  s->rhs = std::move(rhs);
  return s;
}

StmtPtr Stmt::null_stmt() { return std::make_unique<Stmt>(); }

// ---------------------------------------------------------------------------
// Module items
// ---------------------------------------------------------------------------

NetDecl NetDecl::clone() const {
  NetDecl copy;
  copy.kind = kind;
  copy.name = name;
  copy.range = range;
  copy.init = init ? init->clone() : nullptr;
  return copy;
}

ParamDecl ParamDecl::clone() const {
  ParamDecl copy;
  copy.local = local;
  copy.name = name;
  copy.value = value ? value->clone() : nullptr;
  return copy;
}

ContAssign ContAssign::clone() const {
  ContAssign copy;
  copy.lhs = lhs ? lhs->clone() : nullptr;
  copy.rhs = rhs ? rhs->clone() : nullptr;
  return copy;
}

AlwaysBlock AlwaysBlock::clone() const {
  AlwaysBlock copy;
  copy.star = star;
  copy.sensitivity = sensitivity;
  copy.body = body ? body->clone() : nullptr;
  return copy;
}

bool AlwaysBlock::is_sequential() const noexcept {
  for (const auto& item : sensitivity) {
    if (item.edge != EdgeKind::None) return true;
  }
  return false;
}

InitialBlock InitialBlock::clone() const {
  InitialBlock copy;
  copy.body = body ? body->clone() : nullptr;
  return copy;
}

Instance Instance::clone() const {
  Instance copy;
  copy.module_name = module_name;
  copy.instance_name = instance_name;
  copy.connections.reserve(connections.size());
  for (const auto& conn : connections) {
    copy.connections.push_back(
        PortConnection{conn.port, conn.actual ? conn.actual->clone() : nullptr});
  }
  return copy;
}

Module Module::clone() const {
  Module copy;
  copy.name = name;
  copy.params.reserve(params.size());
  for (const auto& p : params) copy.params.push_back(p.clone());
  copy.ports = ports;
  copy.nets.reserve(nets.size());
  for (const auto& n : nets) copy.nets.push_back(n.clone());
  copy.assigns.reserve(assigns.size());
  for (const auto& a : assigns) copy.assigns.push_back(a.clone());
  copy.always_blocks.reserve(always_blocks.size());
  for (const auto& b : always_blocks) copy.always_blocks.push_back(b.clone());
  copy.initial_blocks.reserve(initial_blocks.size());
  for (const auto& b : initial_blocks) copy.initial_blocks.push_back(b.clone());
  copy.instances.reserve(instances.size());
  for (const auto& inst : instances) copy.instances.push_back(inst.clone());
  return copy;
}

const PortDecl* Module::find_port(const std::string& port_name) const {
  for (const auto& p : ports) {
    if (p.name == port_name) return &p;
  }
  return nullptr;
}

const NetDecl* Module::find_net(const std::string& net_name) const {
  for (const auto& n : nets) {
    if (n.name == net_name) return &n;
  }
  return nullptr;
}

int Module::width_of(const std::string& signal) const {
  if (const PortDecl* p = find_port(signal)) return p->range ? p->range->width() : 1;
  if (const NetDecl* n = find_net(signal)) return n->range ? n->range->width() : 1;
  return 0;
}

}  // namespace noodle::verilog
