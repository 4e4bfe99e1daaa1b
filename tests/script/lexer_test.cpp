#include "rcs/script/lexer.hpp"

#include <gtest/gtest.h>

#include "rcs/common/error.hpp"

namespace rcs::script {
namespace {

TEST(Lexer, EmptySourceYieldsEnd) {
  const auto tokens = tokenize("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kEnd);
}

TEST(Lexer, IdentifiersAndKeywords) {
  const auto tokens = tokenize("add let syncBefore if else require");
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdent);
  EXPECT_EQ(tokens[0].text, "add");
  EXPECT_EQ(tokens[1].kind, TokenKind::kKeyword);
  EXPECT_EQ(tokens[2].kind, TokenKind::kIdent);
  EXPECT_EQ(tokens[3].kind, TokenKind::kKeyword);
  EXPECT_EQ(tokens[4].kind, TokenKind::kKeyword);
  EXPECT_EQ(tokens[5].kind, TokenKind::kKeyword);
}

TEST(Lexer, DottedIdentifiers) {
  const auto tokens = tokenize("ftm.syncBefore.lfr");
  EXPECT_EQ(tokens[0].kind, TokenKind::kIdent);
  EXPECT_EQ(tokens[0].text, "ftm.syncBefore.lfr");
}

TEST(Lexer, StringLiteralsWithEscapes) {
  const auto tokens = tokenize(R"("hello" "a\"b" "tab\there" "back\\slash")");
  EXPECT_EQ(tokens[0].string_value(), "hello");
  EXPECT_EQ(tokens[1].string_value(), "a\"b");
  EXPECT_EQ(tokens[2].string_value(), "tab\there");
  EXPECT_EQ(tokens[3].string_value(), "back\\slash");
}

TEST(Lexer, Numbers) {
  const auto tokens = tokenize("42 -7 3.5 -0.25");
  EXPECT_EQ(tokens[0].kind, TokenKind::kInt);
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_EQ(tokens[1].int_value, -7);
  EXPECT_EQ(tokens[2].kind, TokenKind::kFloat);
  EXPECT_DOUBLE_EQ(tokens[2].float_value, 3.5);
  EXPECT_DOUBLE_EQ(tokens[3].float_value, -0.25);
}

TEST(Lexer, OperatorsAndPunctuation) {
  const auto tokens = tokenize("(){};,== != && || ! =");
  const TokenKind expected[] = {
      TokenKind::kLParen, TokenKind::kRParen, TokenKind::kLBrace,
      TokenKind::kRBrace, TokenKind::kSemicolon, TokenKind::kComma,
      TokenKind::kEq,     TokenKind::kNeq,    TokenKind::kAnd,
      TokenKind::kOr,     TokenKind::kNot,    TokenKind::kAssign,
      TokenKind::kEnd};
  ASSERT_EQ(tokens.size(), std::size(expected));
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    EXPECT_EQ(tokens[i].kind, expected[i]) << "token " << i;
  }
}

TEST(Lexer, CommentsAreSkipped) {
  const auto tokens = tokenize("add // this is ignored\nremove");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "add");
  EXPECT_EQ(tokens[1].text, "remove");
  EXPECT_EQ(tokens[1].line, 2);
}

TEST(Lexer, LineNumbersTracked) {
  const auto tokens = tokenize("a\nb\n\nc");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[2].line, 4);
}

TEST(Lexer, UnterminatedStringThrowsWithLine) {
  try {
    (void)tokenize("\n\n\"oops");
    FAIL() << "expected ScriptException";
  } catch (const ScriptException& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("unterminated"), std::string::npos);
  }
}

TEST(Lexer, NewlineInsideStringThrows) {
  EXPECT_THROW((void)tokenize("\"a\nb\""), ScriptException);
}

TEST(Lexer, UnknownCharacterThrows) {
  EXPECT_THROW((void)tokenize("add @ remove"), ScriptException);
}

TEST(Lexer, SingleAmpersandThrows) {
  EXPECT_THROW((void)tokenize("a & b"), ScriptException);
  EXPECT_THROW((void)tokenize("a | b"), ScriptException);
}

TEST(Lexer, BadEscapeThrows) {
  EXPECT_THROW((void)tokenize(R"("bad\q")"), ScriptException);
}

TEST(Lexer, MalformedNumberThrows) {
  EXPECT_THROW((void)tokenize("1.2.3"), ScriptException);
}

}  // namespace
}  // namespace rcs::script
