#include "verilog/parser.h"

#include <algorithm>
#include <utility>

#include "verilog/lexer.h"

namespace noodle::verilog {

ParseError::ParseError(const std::string& message, int line, int column)
    : std::runtime_error(message + " at line " + std::to_string(line) + ", column " +
                         std::to_string(column)),
      line_(line),
      column_(column) {}

namespace {

// ---------------------------------------------------------------------------
// Operator tables — generated at compile time from the punct spellings so the
// hot path dispatches on PunctId while the semantics stay written as the
// original per-spelling rules.
// ---------------------------------------------------------------------------

/// Binding powers for binary operators, higher binds tighter. Mirrors the
/// Verilog-2001 precedence table for the supported operator set.
constexpr int binary_precedence_of(std::string_view op) {
  if (op == "||") return 1;
  if (op == "&&") return 2;
  if (op == "|") return 3;
  if (op == "^" || op == "~^" || op == "^~") return 4;
  if (op == "&") return 5;
  if (op == "==" || op == "!=" || op == "===" || op == "!==") return 6;
  if (op == "<" || op == "<=" || op == ">" || op == ">=") return 7;
  if (op == "<<" || op == ">>" || op == "<<<" || op == ">>>") return 8;
  if (op == "+" || op == "-") return 9;
  if (op == "*" || op == "/" || op == "%") return 10;
  return 0;  // not a binary operator
}

constexpr bool is_unary_op_of(std::string_view op) {
  return op == "!" || op == "~" || op == "&" || op == "|" || op == "^" || op == "~&" ||
         op == "~|" || op == "~^" || op == "-" || op == "+";
}

// Index 0 is the "not a table punct" id.
constexpr auto kBinaryPrecedence = [] {
  std::array<std::uint8_t, kPunctSpellings.size() + 1> table{};
  for (std::size_t i = 0; i < kPunctSpellings.size(); ++i) {
    table[i + 1] = static_cast<std::uint8_t>(binary_precedence_of(kPunctSpellings[i]));
  }
  return table;
}();

constexpr auto kIsUnaryOp = [] {
  std::array<bool, kPunctSpellings.size() + 1> table{};
  for (std::size_t i = 0; i < kPunctSpellings.size(); ++i) {
    table[i + 1] = is_unary_op_of(kPunctSpellings[i]);
  }
  return table;
}();

constexpr PunctId kPLParen = punct_id_of("(");
constexpr PunctId kPRParen = punct_id_of(")");
constexpr PunctId kPLBracket = punct_id_of("[");
constexpr PunctId kPRBracket = punct_id_of("]");
constexpr PunctId kPLBrace = punct_id_of("{");
constexpr PunctId kPRBrace = punct_id_of("}");
constexpr PunctId kPComma = punct_id_of(",");
constexpr PunctId kPSemi = punct_id_of(";");
constexpr PunctId kPColon = punct_id_of(":");
constexpr PunctId kPQuestion = punct_id_of("?");
constexpr PunctId kPAssign = punct_id_of("=");
constexpr PunctId kPLe = punct_id_of("<=");
constexpr PunctId kPAt = punct_id_of("@");
constexpr PunctId kPHash = punct_id_of("#");
constexpr PunctId kPDot = punct_id_of(".");
constexpr PunctId kPStar = punct_id_of("*");
constexpr PunctId kPPlus = punct_id_of("+");
constexpr PunctId kPMinus = punct_id_of("-");
constexpr PunctId kPSlash = punct_id_of("/");
constexpr PunctId kPPercent = punct_id_of("%");
constexpr PunctId kPShl = punct_id_of("<<");
constexpr PunctId kPShr = punct_id_of(">>");
constexpr PunctId kPTilde = punct_id_of("~");
constexpr PunctId kPBang = punct_id_of("!");

std::string spelling_of(PunctId id) { return std::string(kPunctSpellings[id - 1]); }

}  // namespace

// ---------------------------------------------------------------------------
// FastParser — the single grammar implementation. Parses into the arena AST
// through a ParserWorkspace; sibling lists are built on the workspace's
// scratch stacks with a mark/commit discipline (a production records the
// stack size, pushes its children, then copies [mark, end) into the arena
// and pops back to the mark), which nests safely and keeps steady-state
// parsing free of heap traffic.
// ---------------------------------------------------------------------------

class FastParser {
 public:
  FastParser(ParserWorkspace& ws, std::string_view source)
      : ws_(ws), arena_(ws.arena_), symbols_(*ws.symbols_) {
    reset_scratch();
    lex_into(source, ws_.tokens_);
  }

  const fast::SourceFile* parse_file() {
    while (!peek().is(TokenKind::End)) {
      ws_.module_stack_.push_back(parse_module_decl());
    }
    if (ws_.module_stack_.empty()) {
      throw ParseError("source contains no modules", 1, 1);
    }
    auto* file = arena_.create<fast::SourceFile>();
    file->modules = commit(ws_.module_stack_, 0);
    return file;
  }

 private:
  // --- scratch plumbing ---
  void reset_scratch() {
    // A previous parse may have thrown mid-production; start clean. The
    // arena and every stack keep their capacity (grow-only workspace).
    arena_.reset();
    ws_.expr_stack_.clear();
    ws_.stmt_stack_.clear();
    ws_.case_stack_.clear();
    ws_.sens_stack_.clear();
    ws_.param_stack_.clear();
    ws_.port_stack_.clear();
    ws_.net_stack_.clear();
    ws_.assign_stack_.clear();
    ws_.always_stack_.clear();
    ws_.initial_stack_.clear();
    ws_.inst_stack_.clear();
    ws_.conn_stack_.clear();
    ws_.module_stack_.clear();
    ws_.param_values_.clear();
    pos_ = 0;
  }

  template <typename T>
  std::span<const T> commit(std::vector<T>& stack, std::size_t mark) {
    const std::size_t count = stack.size() - mark;
    const T* copy = arena_.copy_array(stack.data() + mark, count);
    stack.resize(mark);
    return std::span<const T>(copy, count);
  }

  std::span<const fast::Expr* const> operands(std::initializer_list<const fast::Expr*> ops) {
    const fast::Expr** arr = arena_.alloc_array<const fast::Expr*>(ops.size());
    std::size_t i = 0;
    for (const fast::Expr* op : ops) arr[i++] = op;
    return std::span<const fast::Expr* const>(arr, ops.size());
  }

  util::Symbol intern(std::string_view text) { return symbols_.intern(text); }

  static fast::SrcLoc loc_of(const Token& t) noexcept { return {t.line, t.column}; }

  // --- token plumbing ---
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, ws_.tokens_.size() - 1);
    return ws_.tokens_[i];
  }
  const Token& advance() {
    const Token& t = ws_.tokens_[pos_];
    if (pos_ + 1 < ws_.tokens_.size()) ++pos_;
    return t;
  }
  [[noreturn]] void fail(const std::string& message) const {
    const Token& t = peek();
    throw ParseError(
        message + " (got '" + (t.is(TokenKind::End) ? "<eof>" : std::string(t.text)) + "')",
        t.line, t.column);
  }
  const Token& expect_punct(PunctId p) {
    if (peek().punct != p) fail("expected '" + spelling_of(p) + "'");
    return advance();
  }
  const Token& expect_keyword(std::string_view kw) {
    if (!peek().is_keyword(kw)) fail("expected '" + std::string(kw) + "'");
    return advance();
  }
  util::Symbol expect_identifier(std::string_view what) {
    // string_view parameter: the error message is only materialized on the
    // failure path, so the hot path stays allocation-free even for long
    // diagnostics like "sensitivity signal".
    if (!peek().is(TokenKind::Identifier)) fail("expected " + std::string(what));
    return intern(advance().text);
  }
  bool accept_punct(PunctId p) {
    if (peek().punct == p) {
      advance();
      return true;
    }
    return false;
  }
  bool accept_keyword(std::string_view kw) {
    if (peek().is_keyword(kw)) {
      advance();
      return true;
    }
    return false;
  }

  // --- nesting bound (kMaxNestingDepth) ---
  [[noreturn]] void fail_too_deep() const {
    fail("nesting deeper than " + std::to_string(kMaxNestingDepth) + " levels");
  }

  /// One level of parser recursion, held for the duration of a recursive
  /// production. Nested parentheses, unary operators and statements recurse
  /// before any node of theirs exists, so this bounds the parser's own stack.
  class RecursionScope {
   public:
    explicit RecursionScope(FastParser& parser) : parser_(parser) {
      if (parser_.depth_ == kMaxNestingDepth) parser_.fail_too_deep();
      ++parser_.depth_;
    }
    RecursionScope(const RecursionScope&) = delete;
    RecursionScope& operator=(const RecursionScope&) = delete;
    ~RecursionScope() { --parser_.depth_; }

   private:
    FastParser& parser_;
  };

  /// Sets a finished node's height: one more than its tallest child. Loops
  /// fold `a+b+c...` and `a[i][j]...` into left-deep trees without
  /// recursing, so the height, not the recursion depth, is what bounds the
  /// walkers that recurse over the tree.
  template <class Node>
  void set_height(Node& node, std::uint32_t tallest_child) const {
    if (tallest_child >= kMaxNestingDepth) fail_too_deep();
    node.height = tallest_child + 1;
  }

  const fast::Expr* finish(fast::Expr* e) const {
    std::uint32_t tallest = 0;
    for (const fast::Expr* op : e->operands) tallest = std::max(tallest, op->height);
    set_height(*e, tallest);
    return e;
  }

  const fast::Stmt* finish(fast::Stmt* s) const {
    std::uint32_t tallest = 0;
    const auto grow = [&tallest](const auto* child) {
      if (child != nullptr) tallest = std::max(tallest, child->height);
    };
    grow(s->cond);
    grow(s->then_branch);
    grow(s->else_branch);
    grow(s->lhs);
    grow(s->rhs);
    grow(s->for_init);
    grow(s->for_step);
    for (const fast::Stmt* child : s->body) grow(child);
    for (const fast::CaseItem& item : s->case_items) {
      grow(item.body);
      for (const fast::Expr* label : item.labels) grow(label);
    }
    set_height(*s, tallest);
    return s;
  }

  // --- constant evaluation (for ranges and parameter values) ---
  std::int64_t* param_value(util::Symbol name) {
    // Linear scan: module parameter lists are tiny, and a flat vector keeps
    // the steady-state parse allocation-free (unlike a node-based map).
    for (auto& [sym, value] : ws_.param_values_) {
      if (sym == name) return &value;
    }
    return nullptr;
  }

  std::int64_t eval_const(const fast::Expr& e) const {
    switch (e.kind) {
      case ExprKind::Number:
        return static_cast<std::int64_t>(e.value);
      case ExprKind::Identifier: {
        for (const auto& [sym, value] : ws_.param_values_) {
          if (sym == e.name) return value;
        }
        throw ParseError("'" + std::string(symbols_.text(e.name)) +
                             "' is not a constant parameter",
                         peek().line, peek().column);
      }
      case ExprKind::Unary: {
        const std::int64_t v = eval_const(*e.operands[0]);
        if (e.op == kPMinus) return -v;
        if (e.op == kPPlus) return v;
        if (e.op == kPTilde) return ~v;
        if (e.op == kPBang) return v == 0 ? 1 : 0;
        break;
      }
      case ExprKind::Binary: {
        const std::int64_t a = eval_const(*e.operands[0]);
        const std::int64_t b = eval_const(*e.operands[1]);
        if (e.op == kPPlus) return a + b;
        if (e.op == kPMinus) return a - b;
        if (e.op == kPStar) return a * b;
        if (e.op == kPSlash) return b == 0 ? 0 : a / b;
        if (e.op == kPPercent) return b == 0 ? 0 : a % b;
        if (e.op == kPShl) return a << b;
        if (e.op == kPShr) return a >> b;
        break;
      }
      case ExprKind::Ternary:
        return eval_const(*e.operands[0]) != 0 ? eval_const(*e.operands[1])
                                               : eval_const(*e.operands[2]);
      default:
        break;
    }
    throw ParseError("expression is not constant", peek().line, peek().column);
  }

  // --- expressions ---
  const fast::Expr* parse_primary() {
    const Token& t = peek();
    if (t.is(TokenKind::Number)) {
      advance();
      auto* e = arena_.create<fast::Expr>();
      e->kind = ExprKind::Number;
      e->value = t.value;
      e->width = t.width;
      e->loc = loc_of(t);
      return e;
    }
    if (t.is(TokenKind::Identifier)) {
      advance();
      auto* ident = arena_.create<fast::Expr>();
      ident->kind = ExprKind::Identifier;
      ident->name = intern(t.text);
      ident->loc = loc_of(t);
      const fast::Expr* e = ident;
      // Postfix selects: a[3], a[7:0], possibly chained (a[i][j] is outside
      // the subset because memories are, but indexing a range result isn't).
      while (peek().punct == kPLBracket) {
        advance();
        const fast::Expr* first = parse_expression();
        if (accept_punct(kPColon)) {
          const fast::Expr* lsb = parse_expression();
          expect_punct(kPRBracket);
          auto* range = arena_.create<fast::Expr>();
          range->kind = ExprKind::Range;
          range->loc = e->loc;
          range->operands = operands({e, first, lsb});
          e = finish(range);
        } else {
          expect_punct(kPRBracket);
          auto* index = arena_.create<fast::Expr>();
          index->kind = ExprKind::Index;
          index->loc = e->loc;
          index->operands = operands({e, first});
          e = finish(index);
        }
      }
      return e;
    }
    if (t.punct == kPLParen) {
      advance();
      const fast::Expr* e = parse_expression();
      expect_punct(kPRParen);
      return e;
    }
    if (t.punct == kPLBrace) {
      advance();
      const fast::Expr* first = parse_expression();
      if (peek().punct == kPLBrace) {
        // Replication {N{expr}}
        advance();
        const fast::Expr* part = parse_expression();
        expect_punct(kPRBrace);
        expect_punct(kPRBrace);
        auto* rep = arena_.create<fast::Expr>();
        rep->kind = ExprKind::Replicate;
        rep->loc = loc_of(t);
        rep->operands = operands({first, part});
        return finish(rep);
      }
      const std::size_t mark = ws_.expr_stack_.size();
      ws_.expr_stack_.push_back(first);
      while (accept_punct(kPComma)) ws_.expr_stack_.push_back(parse_expression());
      expect_punct(kPRBrace);
      auto* concat = arena_.create<fast::Expr>();
      concat->kind = ExprKind::Concat;
      concat->loc = loc_of(t);
      concat->operands = commit(ws_.expr_stack_, mark);
      return finish(concat);
    }
    fail("expected expression");
  }

  const fast::Expr* parse_unary() {
    const Token& t = peek();
    if (t.is(TokenKind::Punct) && kIsUnaryOp[t.punct]) {
      const RecursionScope scope(*this);
      const PunctId op = advance().punct;
      auto* e = arena_.create<fast::Expr>();
      e->kind = ExprKind::Unary;
      e->op = op;
      e->loc = loc_of(t);
      e->operands = operands({parse_unary()});
      return finish(e);
    }
    return parse_primary();
  }

  const fast::Expr* parse_binary(int min_precedence) {
    const fast::Expr* lhs = parse_unary();
    while (true) {
      const Token& t = peek();
      if (!t.is(TokenKind::Punct)) return lhs;
      const int prec = kBinaryPrecedence[t.punct];
      if (prec == 0 || prec < min_precedence) return lhs;
      const PunctId op = advance().punct;
      const fast::Expr* rhs = parse_binary(prec + 1);  // left associative
      auto* e = arena_.create<fast::Expr>();
      e->kind = ExprKind::Binary;
      e->op = op;
      e->loc = lhs->loc;
      e->operands = operands({lhs, rhs});
      lhs = finish(e);
    }
  }

  const fast::Expr* parse_expression() {
    const RecursionScope scope(*this);
    const fast::Expr* cond = parse_binary(1);
    if (accept_punct(kPQuestion)) {
      const fast::Expr* then_e = parse_expression();
      expect_punct(kPColon);
      const fast::Expr* else_e = parse_expression();
      auto* e = arena_.create<fast::Expr>();
      e->kind = ExprKind::Ternary;
      e->loc = cond->loc;
      e->operands = operands({cond, then_e, else_e});
      return finish(e);
    }
    return cond;
  }

  // --- ranges / declarations ---
  std::optional<BitRange> parse_optional_range() {
    if (peek().punct != kPLBracket) return std::nullopt;
    advance();
    const fast::Expr* msb_expr = parse_expression();
    expect_punct(kPColon);
    const fast::Expr* lsb_expr = parse_expression();
    expect_punct(kPRBracket);
    BitRange range;
    range.msb = static_cast<int>(eval_const(*msb_expr));
    range.lsb = static_cast<int>(eval_const(*lsb_expr));
    return range;
  }

  // --- statements ---
  const fast::Stmt* new_stmt(StmtKind kind) {
    auto* s = arena_.create<fast::Stmt>();
    s->kind = kind;
    return s;
  }

  const fast::Stmt* parse_statement() {
    const RecursionScope scope(*this);
    const Token& t = peek();

    if (t.is_keyword("begin")) {
      advance();
      const std::size_t mark = ws_.stmt_stack_.size();
      while (!peek().is_keyword("end")) {
        if (peek().is(TokenKind::End)) fail("unterminated begin block");
        ws_.stmt_stack_.push_back(parse_statement());
      }
      advance();  // end
      auto* s = arena_.create<fast::Stmt>();
      s->kind = StmtKind::Block;
      s->loc = loc_of(t);
      s->body = commit(ws_.stmt_stack_, mark);
      return finish(s);
    }

    if (t.is_keyword("if")) {
      advance();
      expect_punct(kPLParen);
      const fast::Expr* cond = parse_expression();
      expect_punct(kPRParen);
      const fast::Stmt* then_branch = parse_statement();
      const fast::Stmt* else_branch = nullptr;
      if (accept_keyword("else")) else_branch = parse_statement();
      auto* s = arena_.create<fast::Stmt>();
      s->kind = StmtKind::If;
      s->loc = loc_of(t);
      s->cond = cond;
      s->then_branch = then_branch;
      s->else_branch = else_branch;
      return finish(s);
    }

    if (t.is_keyword("case") || t.is_keyword("casez") || t.is_keyword("casex")) {
      advance();
      expect_punct(kPLParen);
      const fast::Expr* subject = parse_expression();
      expect_punct(kPRParen);
      const std::size_t item_mark = ws_.case_stack_.size();
      while (!peek().is_keyword("endcase")) {
        if (peek().is(TokenKind::End)) fail("unterminated case statement");
        fast::CaseItem item;
        if (accept_keyword("default")) {
          accept_punct(kPColon);
        } else {
          const std::size_t label_mark = ws_.expr_stack_.size();
          ws_.expr_stack_.push_back(parse_expression());
          while (accept_punct(kPComma)) ws_.expr_stack_.push_back(parse_expression());
          expect_punct(kPColon);
          // Commit before the body parse so nested cases nest their marks.
          item.labels = commit(ws_.expr_stack_, label_mark);
        }
        item.body = parse_statement();
        ws_.case_stack_.push_back(item);
      }
      advance();  // endcase
      auto* s = arena_.create<fast::Stmt>();
      s->kind = StmtKind::Case;
      s->loc = loc_of(t);
      s->cond = subject;
      s->case_items = commit(ws_.case_stack_, item_mark);
      return finish(s);
    }

    if (t.is_keyword("for")) {
      advance();
      expect_punct(kPLParen);
      const fast::Stmt* init = parse_assign_core();
      expect_punct(kPSemi);
      const fast::Expr* cond = parse_expression();
      expect_punct(kPSemi);
      const fast::Stmt* step = parse_assign_core();
      expect_punct(kPRParen);
      const std::size_t mark = ws_.stmt_stack_.size();
      ws_.stmt_stack_.push_back(parse_statement());
      auto* s = arena_.create<fast::Stmt>();
      s->kind = StmtKind::For;
      s->loc = loc_of(t);
      s->for_init = init;
      s->cond = cond;
      s->for_step = step;
      s->body = commit(ws_.stmt_stack_, mark);  // single element, as in ast.h
      return finish(s);
    }

    if (t.is(TokenKind::SystemName)) {
      // System tasks ($display, $finish, ...) carry no structural signal for
      // detection; consume through the terminating semicolon.
      advance();
      if (accept_punct(kPLParen)) {
        int depth = 1;
        while (depth > 0) {
          if (peek().is(TokenKind::End)) fail("unterminated system task call");
          if (peek().punct == kPLParen) ++depth;
          if (peek().punct == kPRParen) --depth;
          advance();
        }
      }
      expect_punct(kPSemi);
      return new_stmt(StmtKind::Null);
    }

    if (t.punct == kPSemi) {
      advance();
      return new_stmt(StmtKind::Null);
    }

    const fast::Stmt* assign = parse_assign_core();
    expect_punct(kPSemi);
    return assign;
  }

  /// Parses `lhs = rhs` or `lhs <= rhs` without the trailing semicolon
  /// (shared by statements and for-loop init/step).
  const fast::Stmt* parse_assign_core() {
    const fast::Expr* lhs = parse_primary();  // identifier/select/concat targets
    if (accept_punct(kPAssign)) {
      auto* s = arena_.create<fast::Stmt>();
      s->kind = StmtKind::BlockingAssign;
      s->loc = lhs->loc;
      s->lhs = lhs;
      s->rhs = parse_expression();
      return finish(s);
    }
    if (accept_punct(kPLe)) {
      auto* s = arena_.create<fast::Stmt>();
      s->kind = StmtKind::NonBlockingAssign;
      s->loc = lhs->loc;
      s->lhs = lhs;
      s->rhs = parse_expression();
      return finish(s);
    }
    fail("expected '=' or '<=' in assignment");
  }

  // --- module items ---
  PortDir parse_port_dir() {
    if (accept_keyword("input")) return PortDir::Input;
    if (accept_keyword("output")) return PortDir::Output;
    if (accept_keyword("inout")) return PortDir::Inout;
    fail("expected port direction");
  }

  void parse_param_assignment(bool local) {
    fast::ParamDecl param;
    param.local = local;
    param.name = expect_identifier("parameter name");
    expect_punct(kPAssign);
    param.value = parse_expression();
    const std::int64_t value = eval_const(*param.value);
    if (std::int64_t* existing = param_value(param.name)) {
      *existing = value;
    } else {
      ws_.param_values_.emplace_back(param.name, value);
    }
    ws_.param_stack_.push_back(param);
  }

  void parse_always_block(fast::SrcLoc loc) {
    fast::AlwaysBlock block;
    block.loc = loc;
    expect_punct(kPAt);
    if (accept_punct(kPStar)) {
      block.star = true;
    } else {
      expect_punct(kPLParen);
      if (accept_punct(kPStar)) {
        block.star = true;
      } else {
        const std::size_t mark = ws_.sens_stack_.size();
        while (true) {
          fast::SensItem item;
          if (accept_keyword("posedge")) item.edge = EdgeKind::Posedge;
          else if (accept_keyword("negedge")) item.edge = EdgeKind::Negedge;
          item.signal = expect_identifier("sensitivity signal");
          ws_.sens_stack_.push_back(item);
          if (accept_keyword("or") || accept_punct(kPComma)) continue;
          break;
        }
        block.sensitivity = commit(ws_.sens_stack_, mark);
      }
      expect_punct(kPRParen);
    }
    block.body = parse_statement();
    ws_.always_stack_.push_back(block);
  }

  void parse_net_decl(NetKind kind) {
    std::optional<BitRange> range;
    if (kind != NetKind::Integer) {
      accept_keyword("signed");
      range = parse_optional_range();
    }
    while (true) {
      fast::NetDecl net;
      net.kind = kind;
      net.range = range;
      net.loc = loc_of(peek());
      net.name = expect_identifier("net name");
      if (accept_punct(kPAssign)) net.init = parse_expression();
      ws_.net_stack_.push_back(net);
      if (!accept_punct(kPComma)) break;
    }
    expect_punct(kPSemi);
  }

  /// Non-ANSI in-body port direction declaration: `input [7:0] a, b;`
  /// Also upgrades header-declared ports with their direction/range, and
  /// registers an `output reg` as both port and reg net.
  void parse_port_direction_decl(std::size_t port_mark, PortDir dir) {
    NetKind net = NetKind::Wire;
    if (accept_keyword("reg")) net = NetKind::Reg;
    else accept_keyword("wire");
    accept_keyword("signed");
    const std::optional<BitRange> range = parse_optional_range();
    while (true) {
      const fast::SrcLoc name_loc = loc_of(peek());
      const util::Symbol name = expect_identifier("port name");
      bool found = false;
      for (std::size_t i = port_mark; i < ws_.port_stack_.size(); ++i) {
        fast::PortDecl& port = ws_.port_stack_[i];
        if (port.name == name) {
          port.dir = dir;
          port.net = net;
          port.range = range;
          port.loc = name_loc;
          found = true;
          break;
        }
      }
      if (!found) {
        ws_.port_stack_.push_back(fast::PortDecl{dir, net, name, range, name_loc});
      }
      if (net == NetKind::Reg) {
        fast::NetDecl decl;
        decl.kind = NetKind::Reg;
        decl.name = name;
        decl.range = range;
        decl.loc = name_loc;
        ws_.net_stack_.push_back(decl);
      }
      if (!accept_punct(kPComma)) break;
    }
    expect_punct(kPSemi);
  }

  void parse_instance() {
    fast::Instance inst;
    inst.loc = loc_of(peek());
    inst.module_name = intern(advance().text);  // already verified Identifier
    inst.instance_name = expect_identifier("instance name");
    expect_punct(kPLParen);
    const std::size_t mark = ws_.conn_stack_.size();
    if (peek().punct != kPRParen) {
      while (true) {
        fast::PortConnection conn;
        if (accept_punct(kPDot)) {
          conn.port = expect_identifier("port name");
          expect_punct(kPLParen);
          if (peek().punct != kPRParen) conn.actual = parse_expression();
          expect_punct(kPRParen);
        } else {
          conn.actual = parse_expression();  // positional
        }
        ws_.conn_stack_.push_back(conn);
        if (!accept_punct(kPComma)) break;
      }
    }
    expect_punct(kPRParen);
    expect_punct(kPSemi);
    inst.connections = commit(ws_.conn_stack_, mark);
    ws_.inst_stack_.push_back(inst);
  }

  fast::Module parse_module_decl() {
    ws_.param_values_.clear();
    const fast::SrcLoc loc = loc_of(peek());
    expect_keyword("module");
    fast::Module module;
    module.loc = loc;
    module.name = expect_identifier("module name");

    const std::size_t param_mark = ws_.param_stack_.size();
    const std::size_t port_mark = ws_.port_stack_.size();
    const std::size_t net_mark = ws_.net_stack_.size();
    const std::size_t assign_mark = ws_.assign_stack_.size();
    const std::size_t always_mark = ws_.always_stack_.size();
    const std::size_t initial_mark = ws_.initial_stack_.size();
    const std::size_t inst_mark = ws_.inst_stack_.size();

    // Optional parameter header: #(parameter W = 8, ...)
    if (accept_punct(kPHash)) {
      expect_punct(kPLParen);
      while (true) {
        accept_keyword("parameter");
        parse_param_assignment(/*local=*/false);
        if (!accept_punct(kPComma)) break;
      }
      expect_punct(kPRParen);
    }

    // Port header: ANSI declarations or a plain name list.
    if (accept_punct(kPLParen)) {
      if (peek().punct != kPRParen) {
        const bool ansi = peek().is(TokenKind::Keyword) &&
                          (peek().is_keyword("input") || peek().is_keyword("output") ||
                           peek().is_keyword("inout"));
        if (ansi) {
          PortDir dir = PortDir::Input;
          NetKind net = NetKind::Wire;
          std::optional<BitRange> range;
          while (true) {
            if (peek().is_keyword("input") || peek().is_keyword("output") ||
                peek().is_keyword("inout")) {
              dir = parse_port_dir();
              net = NetKind::Wire;
              if (accept_keyword("reg")) net = NetKind::Reg;
              else accept_keyword("wire");
              accept_keyword("signed");
              range = parse_optional_range();
            }
            const fast::SrcLoc name_loc = loc_of(peek());
            const util::Symbol name = expect_identifier("port name");
            ws_.port_stack_.push_back(fast::PortDecl{dir, net, name, range, name_loc});
            if (net == NetKind::Reg) {
              fast::NetDecl decl;
              decl.kind = NetKind::Reg;
              decl.name = name;
              decl.range = range;
              decl.loc = name_loc;
              ws_.net_stack_.push_back(decl);
            }
            if (!accept_punct(kPComma)) break;
          }
        } else {
          while (true) {
            const fast::SrcLoc name_loc = loc_of(peek());
            const util::Symbol name = expect_identifier("port name");
            ws_.port_stack_.push_back(
                fast::PortDecl{PortDir::Input, NetKind::Wire, name, std::nullopt, name_loc});
            if (!accept_punct(kPComma)) break;
          }
        }
      }
      expect_punct(kPRParen);
    }
    expect_punct(kPSemi);

    // Module body.
    while (!peek().is_keyword("endmodule")) {
      const Token& t = peek();
      if (t.is(TokenKind::End)) fail("unterminated module");

      if (t.is_keyword("parameter") || t.is_keyword("localparam")) {
        const bool local = t.is_keyword("localparam");
        advance();
        while (true) {
          parse_param_assignment(local);
          if (!accept_punct(kPComma)) break;
        }
        expect_punct(kPSemi);
      } else if (t.is_keyword("input")) {
        advance();
        parse_port_direction_decl(port_mark, PortDir::Input);
      } else if (t.is_keyword("output")) {
        advance();
        parse_port_direction_decl(port_mark, PortDir::Output);
      } else if (t.is_keyword("inout")) {
        advance();
        parse_port_direction_decl(port_mark, PortDir::Inout);
      } else if (t.is_keyword("wire")) {
        advance();
        parse_net_decl(NetKind::Wire);
      } else if (t.is_keyword("reg")) {
        advance();
        parse_net_decl(NetKind::Reg);
      } else if (t.is_keyword("integer")) {
        advance();
        parse_net_decl(NetKind::Integer);
      } else if (t.is_keyword("assign")) {
        advance();
        while (true) {
          fast::ContAssign assign;
          assign.loc = loc_of(peek());
          assign.lhs = parse_primary();
          expect_punct(kPAssign);
          assign.rhs = parse_expression();
          ws_.assign_stack_.push_back(assign);
          if (!accept_punct(kPComma)) break;
        }
        expect_punct(kPSemi);
      } else if (t.is_keyword("always")) {
        advance();
        parse_always_block(loc_of(t));
      } else if (t.is_keyword("initial")) {
        advance();
        fast::InitialBlock block;
        block.body = parse_statement();
        ws_.initial_stack_.push_back(block);
      } else if (t.is(TokenKind::Identifier)) {
        parse_instance();
      } else {
        fail("unexpected token in module body");
      }
    }
    advance();  // endmodule

    module.params = commit(ws_.param_stack_, param_mark);
    module.ports = commit(ws_.port_stack_, port_mark);
    module.nets = commit(ws_.net_stack_, net_mark);
    module.assigns = commit(ws_.assign_stack_, assign_mark);
    module.always_blocks = commit(ws_.always_stack_, always_mark);
    module.initial_blocks = commit(ws_.initial_stack_, initial_mark);
    module.instances = commit(ws_.inst_stack_, inst_mark);
    return module;
  }

  ParserWorkspace& ws_;
  util::Arena& arena_;
  util::SymbolTable& symbols_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open recursive productions (RecursionScope)
};

// ---------------------------------------------------------------------------
// ParserWorkspace
// ---------------------------------------------------------------------------

ParserWorkspace::ParserWorkspace(std::size_t max_retained_symbols)
    : symbols_(std::make_shared<util::SymbolTable>()),
      max_retained_symbols_(std::max(max_retained_symbols,
                                     std::size_t{kPreinternedSymbolCount} + 1)) {
  preintern_verilog_symbols(*symbols_);
}

void ParserWorkspace::reset_symbols() {
  symbols_->reset();
  preintern_verilog_symbols(*symbols_);
}

const fast::SourceFile& ParserWorkspace::parse(std::string_view source) {
  // Retention trim between parses (never mid-parse, so every symbol a
  // parse mints stays valid for its tree's whole lifetime). Keeps a
  // long-lived worker's pool bounded under arbitrarily diverse inputs.
  if (symbols_->size() > max_retained_symbols_) reset_symbols();
  return *FastParser(*this, source).parse_file();
}

const fast::Module& ParserWorkspace::parse_single(std::string_view source) {
  const fast::SourceFile& file = parse(source);
  if (file.modules.size() != 1) {
    throw ParseError("expected exactly one module, found " +
                         std::to_string(file.modules.size()),
                     1, 1);
  }
  return file.modules.front();
}

// ---------------------------------------------------------------------------
// Arena AST -> owning AST conversion (the classic entry points).
// ---------------------------------------------------------------------------

namespace {

std::string sym_text(const util::SymbolTable& sy, util::Symbol sym) {
  return sym == util::kNoSymbol ? std::string() : std::string(sy.text(sym));
}

ExprPtr convert(const fast::Expr& e, const util::SymbolTable& sy) {
  auto out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->value = e.value;
  out->width = e.width;
  if (e.kind == ExprKind::Identifier) {
    out->name = sym_text(sy, e.name);
  } else if (e.kind == ExprKind::Unary || e.kind == ExprKind::Binary) {
    out->name = spelling_of(e.op);
  }
  out->operands.reserve(e.operands.size());
  for (const fast::Expr* child : e.operands) {
    out->operands.push_back(child ? convert(*child, sy) : nullptr);
  }
  return out;
}

StmtPtr convert(const fast::Stmt& s, const util::SymbolTable& sy) {
  auto out = std::make_unique<Stmt>();
  out->kind = s.kind;
  if (s.cond) out->cond = convert(*s.cond, sy);
  if (s.then_branch) out->then_branch = convert(*s.then_branch, sy);
  if (s.else_branch) out->else_branch = convert(*s.else_branch, sy);
  out->body.reserve(s.body.size());
  for (const fast::Stmt* child : s.body) {
    out->body.push_back(child ? convert(*child, sy) : nullptr);
  }
  out->case_items.reserve(s.case_items.size());
  for (const fast::CaseItem& item : s.case_items) {
    CaseItem owned;
    owned.labels.reserve(item.labels.size());
    for (const fast::Expr* label : item.labels) {
      owned.labels.push_back(label ? convert(*label, sy) : nullptr);
    }
    if (item.body) owned.body = convert(*item.body, sy);
    out->case_items.push_back(std::move(owned));
  }
  if (s.lhs) out->lhs = convert(*s.lhs, sy);
  if (s.rhs) out->rhs = convert(*s.rhs, sy);
  if (s.for_init) out->for_init = convert(*s.for_init, sy);
  if (s.for_step) out->for_step = convert(*s.for_step, sy);
  return out;
}

}  // namespace

Module to_owned(const fast::Module& m, const util::SymbolTable& sy) {
  Module out;
  out.name = sym_text(sy, m.name);
  out.params.reserve(m.params.size());
  for (const fast::ParamDecl& p : m.params) {
    ParamDecl owned;
    owned.local = p.local;
    owned.name = sym_text(sy, p.name);
    if (p.value) owned.value = convert(*p.value, sy);
    out.params.push_back(std::move(owned));
  }
  out.ports.reserve(m.ports.size());
  for (const fast::PortDecl& p : m.ports) {
    out.ports.push_back(PortDecl{p.dir, p.net, sym_text(sy, p.name), p.range});
  }
  out.nets.reserve(m.nets.size());
  for (const fast::NetDecl& n : m.nets) {
    NetDecl owned;
    owned.kind = n.kind;
    owned.name = sym_text(sy, n.name);
    owned.range = n.range;
    if (n.init) owned.init = convert(*n.init, sy);
    out.nets.push_back(std::move(owned));
  }
  out.assigns.reserve(m.assigns.size());
  for (const fast::ContAssign& a : m.assigns) {
    ContAssign owned;
    if (a.lhs) owned.lhs = convert(*a.lhs, sy);
    if (a.rhs) owned.rhs = convert(*a.rhs, sy);
    out.assigns.push_back(std::move(owned));
  }
  out.always_blocks.reserve(m.always_blocks.size());
  for (const fast::AlwaysBlock& b : m.always_blocks) {
    AlwaysBlock owned;
    owned.star = b.star;
    owned.sensitivity.reserve(b.sensitivity.size());
    for (const fast::SensItem& item : b.sensitivity) {
      owned.sensitivity.push_back(SensItem{item.edge, sym_text(sy, item.signal)});
    }
    if (b.body) owned.body = convert(*b.body, sy);
    out.always_blocks.push_back(std::move(owned));
  }
  out.initial_blocks.reserve(m.initial_blocks.size());
  for (const fast::InitialBlock& b : m.initial_blocks) {
    InitialBlock owned;
    if (b.body) owned.body = convert(*b.body, sy);
    out.initial_blocks.push_back(std::move(owned));
  }
  out.instances.reserve(m.instances.size());
  for (const fast::Instance& inst : m.instances) {
    Instance owned;
    owned.module_name = sym_text(sy, inst.module_name);
    owned.instance_name = sym_text(sy, inst.instance_name);
    owned.connections.reserve(inst.connections.size());
    for (const fast::PortConnection& conn : inst.connections) {
      owned.connections.push_back(PortConnection{
          sym_text(sy, conn.port), conn.actual ? convert(*conn.actual, sy) : nullptr});
    }
    out.instances.push_back(std::move(owned));
  }
  return out;
}

SourceFile to_owned(const fast::SourceFile& file, const util::SymbolTable& sy) {
  SourceFile out;
  out.modules.reserve(file.modules.size());
  for (const fast::Module& m : file.modules) out.modules.push_back(to_owned(m, sy));
  return out;
}

namespace {

ParserWorkspace& thread_parser_workspace() {
  // One workspace per thread: the classic owning entry points reuse its
  // token buffer/arena across calls, so even they stop re-heap-allocating
  // the front end. The returned owned AST copies everything it needs.
  thread_local ParserWorkspace workspace;
  return workspace;
}

}  // namespace

SourceFile parse_source(std::string_view source) {
  ParserWorkspace& ws = thread_parser_workspace();
  return to_owned(ws.parse(source), *ws.symbols());
}

Module parse_module(std::string_view source) {
  ParserWorkspace& ws = thread_parser_workspace();
  return to_owned(ws.parse_single(source), *ws.symbols());
}

}  // namespace noodle::verilog
