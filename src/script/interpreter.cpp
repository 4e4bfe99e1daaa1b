#include "rcs/script/interpreter.hpp"

#include "rcs/common/error.hpp"
#include "rcs/common/logging.hpp"
#include "rcs/common/strf.hpp"
#include "rcs/script/parser.hpp"
#include "rcs/script/session.hpp"

namespace rcs::script {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw ScriptException(strf("script error (line ", line, "): ", message));
}

/// Runs statements. Literal and variable operands are used in place; only a
/// computed value (a builtin call, a comparison) is built, into a scratch
/// slot owned by the caller. Operands are evaluated last to first.
class Execution {
 public:
  Execution(ReconfigSession& session, const Value& bindings)
      : session_(session) {
    if (!bindings.is_null()) bindings_ = &bindings.as_map();
  }

  void run(const std::vector<StmtPtr>& statements) {
    for (const auto& stmt : statements) execute(*stmt);
  }

 private:
  void execute(const Stmt& stmt) {
    std::visit([&](const auto& node) { execute_node(stmt.line, node); },
               stmt.node);
  }

  void execute_node(int line, const VerbStmt& stmt) {
    const auto expect_arity = [&](std::size_t n) {
      if (stmt.args.size() != n) {
        fail(line, strf(stmt.name, ": expected ", n, " argument(s), got ",
                        stmt.args.size()));
      }
    };
    Value scratch[4];
    const auto arg = [&](std::size_t i) -> const Value& {
      return evaluate(*stmt.args[i], scratch[i]);
    };
    const auto str = [&](std::size_t i) -> const std::string& {
      const Value& v = arg(i);
      if (!v.is_string()) {
        fail(line, strf(stmt.name, ": argument ", i + 1, " must be a string, got ",
                        v.type_name()));
      }
      return v.as_string();
    };

    switch (stmt.verb) {
      case Verb::kAdd: {
        expect_arity(2);
        const std::string& instance = str(1);
        session_.add(str(0), instance);
        return;
      }
      case Verb::kRemove:
        expect_arity(1);
        session_.remove(str(0));
        return;
      case Verb::kStart:
        expect_arity(1);
        session_.start(str(0));
        return;
      case Verb::kStop:
        expect_arity(1);
        session_.stop(str(0));
        return;
      case Verb::kWire: {
        expect_arity(4);
        const std::string& service = str(3);
        const std::string& to = str(2);
        const std::string& reference = str(1);
        session_.wire(str(0), reference, to, service);
        return;
      }
      case Verb::kUnwire: {
        expect_arity(2);
        const std::string& reference = str(1);
        session_.unwire(str(0), reference);
        return;
      }
      case Verb::kSet: {
        expect_arity(3);
        Value value = arg(2);
        const std::string& key = str(1);
        session_.set_property(str(0), key, std::move(value));
        return;
      }
      case Verb::kLog: {
        expect_arity(1);
        const Value& message = arg(0);
        log().info("rscript", message.is_string() ? message.as_string()
                                                  : message.to_string());
        return;
      }
      case Verb::kUnknown:
        break;
    }
    fail(line, strf("unknown verb '", stmt.name, "'"));
  }

  void execute_node(int /*line*/, const LetStmt& stmt) {
    Value scratch;
    const Value& value = evaluate(*stmt.expr, scratch);
    variables_[stmt.name] = value;
  }

  void execute_node(int line, const RequireStmt& stmt) {
    if (!test(*stmt.condition)) fail(line, "require condition failed");
  }

  void execute_node(int /*line*/, const IfStmt& stmt) {
    run(test(*stmt.condition) ? stmt.then_body : stmt.else_body);
  }

  /// The value of `expr`: a literal or variable in place, anything else
  /// computed into `scratch`. Valid until the next let or scratch reuse.
  const Value& evaluate(const Expr& expr, Value& scratch) {
    return std::visit(
        [&](const auto& node) -> const Value& {
          return evaluate_node(expr.line, node, scratch);
        },
        expr.node);
  }

  bool test(const Expr& expr) {
    Value scratch;
    return truthy(evaluate(expr, scratch));
  }

  const Value& evaluate_node(int /*line*/, const LiteralExpr& node, Value&) {
    return node.value;
  }

  const Value& evaluate_node(int line, const VarExpr& node, Value&) {
    if (const auto it = variables_.find(node.name); it != variables_.end()) {
      return it->second;
    }
    if (bindings_ != nullptr) {
      if (const auto it = bindings_->find(node.name); it != bindings_->end()) {
        return it->second;
      }
    }
    fail(line, strf("undefined variable '", node.name, "'"));
  }

  const Value& evaluate_node(int line, const CallExpr& node, Value& scratch) {
    const comp::Composite& composite = session_.composite();
    Value operands[2];
    const auto str_arg = [&](std::size_t i) -> const std::string& {
      if (i >= node.args.size()) {
        fail(line, strf(node.function, ": missing argument ", i + 1));
      }
      const Value& v = evaluate(*node.args[i], operands[i]);
      if (!v.is_string()) {
        fail(line, strf(node.function, ": argument ", i + 1, " must be a string"));
      }
      return v.as_string();
    };

    switch (node.builtin) {
      case Builtin::kExists:
        return scratch = Value(composite.has(str_arg(0)));
      case Builtin::kStarted: {
        const std::string& name = str_arg(0);
        return scratch = Value(composite.has(name) && composite.child(name).started());
      }
      case Builtin::kWired: {
        const std::string& reference = str_arg(1);
        return scratch = Value(composite.is_wired(str_arg(0), reference));
      }
      case Builtin::kProperty: {
        const std::string& key = str_arg(1);
        return scratch = composite.property(str_arg(0), key);
      }
      case Builtin::kTypeof: {
        const std::string& name = str_arg(0);
        if (!composite.has(name)) return scratch = Value{};
        return scratch = Value(composite.child(name).type_name());
      }
      case Builtin::kUnknown:
        break;
    }
    fail(line, strf("unknown function '", node.function, "'"));
  }

  const Value& evaluate_node(int /*line*/, const NotExpr& node, Value& scratch) {
    return scratch = Value(!test(*node.operand));
  }

  const Value& evaluate_node(int /*line*/, const BinaryExpr& node, Value& scratch) {
    switch (node.op) {
      case BinaryExpr::Op::kEq:
      case BinaryExpr::Op::kNeq: {
        Value operands[2];
        const Value& rhs = evaluate(*node.rhs, operands[1]);
        const bool equal = evaluate(*node.lhs, operands[0]) == rhs;
        return scratch = Value(node.op == BinaryExpr::Op::kEq ? equal : !equal);
      }
      case BinaryExpr::Op::kAnd:
        // Short-circuit.
        return scratch = Value(test(*node.lhs) && test(*node.rhs));
      case BinaryExpr::Op::kOr:
        return scratch = Value(test(*node.lhs) || test(*node.rhs));
    }
    throw LogicError("unreachable binary op");
  }

  static bool truthy(const Value& value) {
    if (value.is_bool()) return value.as_bool();
    if (value.is_null()) return false;
    if (value.is_int()) return value.as_int() != 0;
    if (value.is_string()) return !value.as_string().empty();
    return true;
  }

  ReconfigSession& session_;
  const ValueMap* bindings_{nullptr};
  // Let-bound variables; they shadow bindings of the same name.
  std::map<std::string, Value, std::less<>> variables_;
};

}  // namespace

ExecutionStats Interpreter::run(const Script& script, comp::Composite& composite,
                                const Value& bindings) {
  ReconfigSession session(composite, script.statements.size());
  try {
    Execution execution(session, bindings);
    execution.run(script.statements);
    session.commit();  // validates integrity constraints; may roll back+throw
  } catch (const ScriptException&) {
    // Session destructor / commit already rolled back.
    throw;
  } catch (const Error& e) {
    // Component-model violation mid-script: roll back and wrap, preserving
    // the paper's contract that a failed reconfiguration surfaces as a
    // ScriptException with the architecture unchanged.
    session.rollback();
    throw ScriptException(strf("reconfiguration failed: ", e.what(),
                               " (transaction rolled back)"));
  }
  ExecutionStats stats;
  stats.ops = session.op_count();
  const auto& by_verb = session.ops_by_verb();
  for (std::size_t i = 0; i < by_verb.size(); ++i) {
    if (by_verb[i] > 0) stats.by_verb.emplace(to_string(static_cast<Verb>(i)), by_verb[i]);
  }
  return stats;
}

ExecutionStats Interpreter::run_source(std::string_view source,
                                       comp::Composite& composite,
                                       const Value& bindings) {
  const Script script = parse(source);
  return run(script, composite, bindings);
}

}  // namespace rcs::script
