#include "rcs/script/parser.hpp"

#include <gtest/gtest.h>

#include "rcs/common/error.hpp"

namespace rcs::script {
namespace {

const VerbStmt& as_verb(const StmtPtr& stmt) {
  return std::get<VerbStmt>(stmt->node);
}

TEST(Parser, BareStatementList) {
  const Script script = parse(R"(
    stop("syncBefore");
    remove("syncBefore");
  )");
  EXPECT_TRUE(script.name.empty());
  ASSERT_EQ(script.statements.size(), 2u);
  EXPECT_EQ(as_verb(script.statements[0]).verb, Verb::kStop);
  EXPECT_EQ(as_verb(script.statements[1]).verb, Verb::kRemove);
}

TEST(Parser, NamedScriptHeader) {
  const Script script = parse(R"(
    script pbr_to_lfr {
      stop("syncBefore");
    }
  )");
  EXPECT_EQ(script.name, "pbr_to_lfr");
  ASSERT_EQ(script.statements.size(), 1u);
}

TEST(Parser, VerbArgumentsAreExpressions) {
  const Script script = parse(R"(wire("fwd", "next", "echo", "svc");)");
  const auto& verb = as_verb(script.statements[0]);
  ASSERT_EQ(verb.args.size(), 4u);
  EXPECT_EQ(std::get<LiteralExpr>(verb.args[2]->node).value.as_string(), "echo");
}

TEST(Parser, LetAndVariableReference) {
  const Script script = parse(R"(
    let role = "master";
    set("protocol", "role", role);
  )");
  ASSERT_EQ(script.statements.size(), 2u);
  const auto& let = std::get<LetStmt>(script.statements[0]->node);
  EXPECT_EQ(let.name, "role");
  const auto& verb = as_verb(script.statements[1]);
  EXPECT_TRUE(std::holds_alternative<VarExpr>(verb.args[2]->node));
}

TEST(Parser, RequireWithCall) {
  const Script script = parse(R"(require exists("protocol");)");
  const auto& require = std::get<RequireStmt>(script.statements[0]->node);
  const auto& call = std::get<CallExpr>(require.condition->node);
  EXPECT_EQ(call.function, "exists");
  ASSERT_EQ(call.args.size(), 1u);
}

TEST(Parser, IfElseChain) {
  const Script script = parse(R"(
    if (exists("a")) {
      stop("a");
    } else if (exists("b")) {
      stop("b");
    } else {
      log("neither");
    }
  )");
  const auto& outer = std::get<IfStmt>(script.statements[0]->node);
  EXPECT_EQ(outer.then_body.size(), 1u);
  ASSERT_EQ(outer.else_body.size(), 1u);
  const auto& inner = std::get<IfStmt>(outer.else_body[0]->node);
  EXPECT_EQ(inner.then_body.size(), 1u);
  EXPECT_EQ(inner.else_body.size(), 1u);
}

TEST(Parser, BooleanPrecedenceOrBindsLoosest) {
  // a && b || c  parses as  (a && b) || c
  const Script script = parse(R"(require exists("a") && exists("b") || exists("c");)");
  const auto& require = std::get<RequireStmt>(script.statements[0]->node);
  const auto& or_expr = std::get<BinaryExpr>(require.condition->node);
  EXPECT_EQ(or_expr.op, BinaryExpr::Op::kOr);
  const auto& lhs = std::get<BinaryExpr>(or_expr.lhs->node);
  EXPECT_EQ(lhs.op, BinaryExpr::Op::kAnd);
}

TEST(Parser, EqualityAndNegation) {
  const Script script = parse(R"(require !(typeof("x") == "t.a");)");
  const auto& require = std::get<RequireStmt>(script.statements[0]->node);
  const auto& negation = std::get<NotExpr>(require.condition->node);
  const auto& eq = std::get<BinaryExpr>(negation.operand->node);
  EXPECT_EQ(eq.op, BinaryExpr::Op::kEq);
}

TEST(Parser, ParenthesizedExpression) {
  const Script script = parse(R"(require (true || false) && true;)");
  const auto& require = std::get<RequireStmt>(script.statements[0]->node);
  const auto& and_expr = std::get<BinaryExpr>(require.condition->node);
  EXPECT_EQ(and_expr.op, BinaryExpr::Op::kAnd);
  EXPECT_EQ(std::get<BinaryExpr>(and_expr.lhs->node).op, BinaryExpr::Op::kOr);
}

TEST(Parser, KeywordLiterals) {
  const Script script = parse(R"(set("c", "k", true); set("c", "k", null);)");
  EXPECT_TRUE(std::get<LiteralExpr>(as_verb(script.statements[0]).args[2]->node)
                  .value.as_bool());
  EXPECT_TRUE(std::get<LiteralExpr>(as_verb(script.statements[1]).args[2]->node)
                  .value.is_null());
}

TEST(Parser, StatementLineNumbersRecorded) {
  const Script script = parse("stop(\"a\");\n\nstop(\"b\");");
  EXPECT_EQ(script.statements[0]->line, 1);
  EXPECT_EQ(script.statements[1]->line, 3);
}

TEST(Parser, MissingSemicolonThrows) {
  EXPECT_THROW((void)parse(R"(stop("a"))"), ScriptException);
}

TEST(Parser, MissingParenThrows) {
  EXPECT_THROW((void)parse(R"(stop "a";)"), ScriptException);
  EXPECT_THROW((void)parse(R"(stop("a";)"), ScriptException);
}

/// The message of the ScriptException `source` raises.
std::string parse_error(const std::string& source) {
  try {
    (void)parse(source);
  } catch (const ScriptException& e) {
    return e.what();
  }
  return "(parsed)";
}

TEST(Parser, VerbStatementErrorMessagesNameTheVerb) {
  EXPECT_EQ(parse_error(R"(add "t.a", "a";)"),
            "parse error (line 1): expected '(' after verb 'add', got string 't.a'");
  EXPECT_EQ(parse_error("stop(\"a\");\nadd(\"t.a\", \"a\")"),
            "parse error (line 2): expected ';' after add(...), got end of script");
}

TEST(Parser, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  EXPECT_NO_THROW((void)parse("require " + std::string(200, '!') + "true;"));
  for (const char* open : {"!", "(", "exists("}) {
    std::string deep = "require ";
    for (int i = 0; i < 100000; ++i) deep += open;
    deep += "true;";
    EXPECT_THROW((void)parse(deep), ScriptException) << open;
  }
  std::string ifs;
  for (int i = 0; i < 100000; ++i) ifs += "if (true) {";
  EXPECT_THROW((void)parse(ifs), ScriptException);
}

TEST(Parser, DanglingBraceThrows) {
  EXPECT_THROW((void)parse("script x { stop(\"a\");"), ScriptException);
  EXPECT_THROW((void)parse("}"), ScriptException);
}

TEST(Parser, KeywordAsExpressionThrows) {
  EXPECT_THROW((void)parse("require let;"), ScriptException);
}

TEST(Parser, ErrorMessagesCarryLineNumbers) {
  try {
    (void)parse("stop(\"a\");\nbroken here");
    FAIL() << "expected ScriptException";
  } catch (const ScriptException& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Parser, EmptyScriptIsValid) {
  EXPECT_TRUE(parse("").statements.empty());
  EXPECT_TRUE(parse("script empty {}").statements.empty());
}

TEST(Parser, TrailingTokensAfterScriptBodyThrow) {
  EXPECT_THROW((void)parse("script x {} stop(\"a\");"), ScriptException);
}

}  // namespace
}  // namespace rcs::script
