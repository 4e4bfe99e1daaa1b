// RScript abstract syntax tree.
//
// A script is an optional header (`script <name> { ... }`) or a bare
// statement list. Statements are the reconfiguration verbs operating on a
// composite (add/remove/start/stop/wire/unwire/set), plus let-bindings,
// require-assertions, if/else, and log. Expressions are literals, variables,
// builtin introspection calls (exists/started/wired/property/typeof) and
// boolean combinators.
//
// The parser resolves every verb and builtin name to an enum and builds every
// literal's Value once, so running a script looks up no name but its
// variables. An unknown verb or builtin still parses (it carries its spelling)
// and fails when it runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "rcs/common/value.hpp"

namespace rcs::script {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct LiteralExpr {
  Value value;
};

struct VarExpr {
  std::string name;
};

enum class Builtin : std::uint8_t {
  kExists,
  kStarted,
  kWired,
  kProperty,
  kTypeof,
  kUnknown,
};

/// The builtin spelled `name`; kUnknown for any other name.
[[nodiscard]] Builtin builtin_named(std::string_view name);

/// Builtin introspection function call, e.g. exists("syncBefore").
struct CallExpr {
  Builtin builtin;
  std::string function;  // the spelling, for error messages
  std::vector<ExprPtr> args;
};

struct NotExpr {
  ExprPtr operand;
};

struct BinaryExpr {
  enum class Op { kEq, kNeq, kAnd, kOr };
  Op op;
  ExprPtr lhs;
  ExprPtr rhs;
};

struct Expr {
  int line{0};
  std::variant<LiteralExpr, VarExpr, CallExpr, NotExpr, BinaryExpr> node;
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// The statement verbs. The ones before kLog are reconfiguration operations,
/// counted in ExecutionStats.
enum class Verb : std::uint8_t {
  kAdd,
  kRemove,
  kStart,
  kStop,
  kWire,
  kUnwire,
  kSet,
  kLog,
  kUnknown,
};
inline constexpr std::size_t kReconfigVerbs = static_cast<std::size_t>(Verb::kLog);

/// The verb spelled `name`; kUnknown for any other name.
[[nodiscard]] Verb verb_named(std::string_view name);
/// The spelling of a known verb.
[[nodiscard]] const char* to_string(Verb verb);

/// A reconfiguration verb or log(): add/remove/start/stop/wire/unwire/set/log.
struct VerbStmt {
  Verb verb;
  std::string name;  // the spelling, for error messages
  std::vector<ExprPtr> args;
};

struct LetStmt {
  std::string name;
  ExprPtr expr;
};

/// `require <expr>;` — aborts the transaction if the condition is false.
struct RequireStmt {
  ExprPtr condition;
};

struct IfStmt {
  ExprPtr condition;
  std::vector<StmtPtr> then_body;
  std::vector<StmtPtr> else_body;
};

struct Stmt {
  int line{0};
  std::variant<VerbStmt, LetStmt, RequireStmt, IfStmt> node;
};

struct Script {
  std::string name;  // from the `script <name> { ... }` header, may be empty
  std::vector<StmtPtr> statements;
};

}  // namespace rcs::script
