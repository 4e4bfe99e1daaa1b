#include "rcs/script/parser.hpp"

#include "rcs/common/error.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/script/lexer.hpp"

namespace rcs::script {

namespace {
constexpr std::string_view kVerbNames[] = {"add",  "remove", "start", "stop",
                                           "wire", "unwire", "set",   "log"};
constexpr std::string_view kBuiltinNames[] = {"exists", "started", "wired",
                                              "property", "typeof"};
}  // namespace

Verb verb_named(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kVerbNames); ++i) {
    if (kVerbNames[i] == name) return static_cast<Verb>(i);
  }
  return Verb::kUnknown;
}

const char* to_string(Verb verb) {
  const auto i = static_cast<std::size_t>(verb);
  return i < std::size(kVerbNames) ? kVerbNames[i].data() : "?";
}

Builtin builtin_named(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kBuiltinNames); ++i) {
    if (kBuiltinNames[i] == name) return static_cast<Builtin>(i);
  }
  return Builtin::kUnknown;
}

namespace {

/// Recursive-descent parser pulling one token of lookahead from the lexer.
class Parser {
 public:
  explicit Parser(std::string_view source) : lexer_(source), token_(lexer_.next()) {}

  Script parse_script() {
    Script script;
    if (at_keyword("script")) {
      advance();
      script.name = expect(TokenKind::kIdent, "script name").text;
      expect(TokenKind::kLBrace, "'{' after script name");
      script.statements = parse_statements_until(TokenKind::kRBrace);
      expect(TokenKind::kRBrace, "'}' closing script body");
    } else {
      script.statements = parse_statements_until(TokenKind::kEnd);
    }
    expect(TokenKind::kEnd, "end of script");
    return script;
  }

 private:
  /// Expressions and if-blocks parse recursively. Input nested deeper than
  /// this is rejected rather than allowed to overflow the stack.
  static constexpr int kMaxDepth = 256;

  /// One level of recursion, counted for the duration of a parse call.
  class Nested {
   public:
    explicit Nested(Parser& parser) : parser_(parser) {
      if (++parser_.depth_ > kMaxDepth) parser_.fail("nesting too deep");
    }
    ~Nested() { --parser_.depth_; }
    Nested(const Nested&) = delete;
    Nested& operator=(const Nested&) = delete;

   private:
    Parser& parser_;
  };

  /// A malformed token anywhere in the source outranks a grammar error, so
  /// the rest of the source is lexed first: that throws the first lexical
  /// error, if there is one.
  [[noreturn]] void fail(const std::string& message) {
    while (lexer_.next().kind != TokenKind::kEnd) {
    }
    const Token& got = peek();
    const std::string text =
        got.kind == TokenKind::kString ? got.string_value() : std::string(got.text);
    throw ScriptException(strf("parse error (line ", got.line, "): ", message,
                               ", got ", to_string(got.kind),
                               text.empty() ? "" : strf(" '", text, "'")));
  }

  const Token& peek() const { return token_; }
  /// Consume the current token and return it.
  Token advance() {
    Token consumed = token_;
    token_ = lexer_.next();
    return consumed;
  }

  bool match(TokenKind kind) {
    if (peek().kind != kind) return false;
    advance();
    return true;
  }

  Token expect(TokenKind kind, const char* what) {
    if (peek().kind != kind) fail(strf("expected ", what));
    return advance();
  }

  bool at_keyword(const char* word) const {
    return peek().kind == TokenKind::kKeyword && peek().text == word;
  }

  std::vector<StmtPtr> parse_statements_until(TokenKind stop) {
    std::vector<StmtPtr> statements;
    while (peek().kind != stop && peek().kind != TokenKind::kEnd) {
      statements.push_back(parse_statement());
    }
    return statements;
  }

  std::vector<StmtPtr> parse_block() {
    expect(TokenKind::kLBrace, "'{'");
    auto body = parse_statements_until(TokenKind::kRBrace);
    expect(TokenKind::kRBrace, "'}'");
    return body;
  }

  StmtPtr parse_statement() {
    const int line = peek().line;
    if (at_keyword("if")) return parse_if();
    if (at_keyword("let")) {
      advance();
      std::string name(expect(TokenKind::kIdent, "variable name").text);
      expect(TokenKind::kAssign, "'=' in let binding");
      auto expr = parse_expr();
      expect(TokenKind::kSemicolon, "';' after let binding");
      auto stmt = std::make_unique<Stmt>();
      stmt->line = line;
      stmt->node = LetStmt{std::move(name), std::move(expr)};
      return stmt;
    }
    if (at_keyword("require")) {
      advance();
      auto condition = parse_expr();
      expect(TokenKind::kSemicolon, "';' after require");
      auto stmt = std::make_unique<Stmt>();
      stmt->line = line;
      stmt->node = RequireStmt{std::move(condition)};
      return stmt;
    }
    // Verb statement: ident(args); The messages naming the verb are built
    // only when the check fails: this runs on every statement.
    const std::string_view verb = expect(TokenKind::kIdent, "statement").text;
    if (!match(TokenKind::kLParen)) {
      fail(strf("expected '(' after verb '", verb, "'"));
    }
    auto args = parse_args();
    expect(TokenKind::kRParen, "')' closing argument list");
    if (!match(TokenKind::kSemicolon)) {
      fail(strf("expected ';' after ", verb, "(...)"));
    }
    auto stmt = std::make_unique<Stmt>();
    stmt->line = line;
    stmt->node = VerbStmt{verb_named(verb), std::string(verb), std::move(args)};
    return stmt;
  }

  StmtPtr parse_if() {
    const Nested nested(*this);
    const int line = peek().line;
    advance();  // 'if'
    expect(TokenKind::kLParen, "'(' after if");
    auto condition = parse_expr();
    expect(TokenKind::kRParen, "')' closing if condition");
    auto then_body = parse_block();
    std::vector<StmtPtr> else_body;
    if (at_keyword("else")) {
      advance();
      if (at_keyword("if")) {
        else_body.push_back(parse_if());
      } else {
        else_body = parse_block();
      }
    }
    auto stmt = std::make_unique<Stmt>();
    stmt->line = line;
    stmt->node =
        IfStmt{std::move(condition), std::move(then_body), std::move(else_body)};
    return stmt;
  }

  std::vector<ExprPtr> parse_args() {
    std::vector<ExprPtr> args;
    if (peek().kind == TokenKind::kRParen) return args;
    args.reserve(4);  // the most any verb takes (wire, unwire)
    args.push_back(parse_expr());
    while (match(TokenKind::kComma)) args.push_back(parse_expr());
    return args;
  }

  // expr := and ('||' and)*
  ExprPtr parse_expr() {
    auto lhs = parse_and();
    while (peek().kind == TokenKind::kOr) {
      const int line = advance().line;
      auto rhs = parse_and();
      lhs = make_binary(line, BinaryExpr::Op::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr parse_and() {
    auto lhs = parse_equality();
    while (peek().kind == TokenKind::kAnd) {
      const int line = advance().line;
      auto rhs = parse_equality();
      lhs = make_binary(line, BinaryExpr::Op::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr parse_equality() {
    auto lhs = parse_unary();
    while (peek().kind == TokenKind::kEq || peek().kind == TokenKind::kNeq) {
      const auto op = peek().kind == TokenKind::kEq ? BinaryExpr::Op::kEq
                                                    : BinaryExpr::Op::kNeq;
      const int line = advance().line;
      auto rhs = parse_unary();
      lhs = make_binary(line, op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr parse_unary() {
    const Nested nested(*this);
    if (peek().kind == TokenKind::kNot) {
      const int line = advance().line;
      auto operand = parse_unary();
      auto expr = std::make_unique<Expr>();
      expr->line = line;
      expr->node = NotExpr{std::move(operand)};
      return expr;
    }
    return parse_primary();
  }

  ExprPtr parse_primary() {
    const Token& token = peek();
    auto expr = std::make_unique<Expr>();
    expr->line = token.line;
    switch (token.kind) {
      case TokenKind::kString:
        expr->node = LiteralExpr{Value(advance().string_value())};
        return expr;
      case TokenKind::kInt:
        expr->node = LiteralExpr{Value(advance().int_value)};
        return expr;
      case TokenKind::kFloat:
        expr->node = LiteralExpr{Value(advance().float_value)};
        return expr;
      case TokenKind::kKeyword:
        if (token.text == "true") {
          expr->node = LiteralExpr{Value(true)};
          advance();
          return expr;
        }
        if (token.text == "false") {
          expr->node = LiteralExpr{Value(false)};
          advance();
          return expr;
        }
        if (token.text == "null") {
          expr->node = LiteralExpr{Value{}};
          advance();
          return expr;
        }
        fail("unexpected keyword in expression");
      case TokenKind::kIdent: {
        const std::string_view name = advance().text;
        if (match(TokenKind::kLParen)) {
          auto args = parse_args();
          expect(TokenKind::kRParen, "')' closing call");
          expr->node =
              CallExpr{builtin_named(name), std::string(name), std::move(args)};
        } else {
          expr->node = VarExpr{std::string(name)};
        }
        return expr;
      }
      case TokenKind::kLParen: {
        advance();
        auto inner = parse_expr();
        expect(TokenKind::kRParen, "')'");
        return inner;
      }
      default:
        fail("expected expression");
    }
  }

  static ExprPtr make_binary(int line, BinaryExpr::Op op, ExprPtr lhs, ExprPtr rhs) {
    auto expr = std::make_unique<Expr>();
    expr->line = line;
    expr->node = BinaryExpr{op, std::move(lhs), std::move(rhs)};
    return expr;
  }

  Lexer lexer_;
  Token token_;  // the lookahead
  int depth_{0};
};

}  // namespace

Script parse(std::string_view source) {
  return Parser(source).parse_script();
}

}  // namespace rcs::script
