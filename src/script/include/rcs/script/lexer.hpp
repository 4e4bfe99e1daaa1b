// RScript lexer.
//
// RScript is this library's equivalent of FScript (Léger et al.): a small
// imperative language for architecture reconfiguration. Transition packages
// carry RScript sources; the interpreter executes them transactionally
// against a Composite.
//
// Token classes: identifiers/keywords, string literals ("..."), integer and
// float literals, punctuation ( ) { } , ; and operators == != && || ! =.
// Comments run from '//' to end of line. Line numbers are tracked for
// error reporting.
//
// Tokens are views into the source, which must outlive them: the lexer
// builds no string and no Value. The parser pulls one token at a time and
// builds each literal once, in the AST.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rcs::script {

enum class TokenKind {
  kIdent,     // add, myVar, pbr_to_lfr ...
  kKeyword,   // let require if else true false null script
  kString,    // "text"
  kInt,       // 42
  kFloat,     // 1.5
  kLParen,
  kRParen,
  kLBrace,
  kRBrace,
  kComma,
  kSemicolon,
  kEq,        // ==
  kNeq,       // !=
  kAnd,       // &&
  kOr,        // ||
  kNot,       // !
  kAssign,    // =
  kEnd,
};

[[nodiscard]] const char* to_string(TokenKind kind);

struct Token {
  TokenKind kind{TokenKind::kEnd};
  /// Identifier/keyword name, number spelling, or the body of a string
  /// literal between its quotes, still escaped when `escaped` is set.
  std::string_view text;
  int line{1};
  bool escaped{false};    // kString: the body holds a backslash escape
  std::int64_t int_value{0};  // kInt
  double float_value{0};      // kFloat

  /// A kString token's decoded text.
  [[nodiscard]] std::string string_value() const;
};

/// Pulls tokens from a source one at a time; throws ScriptException on
/// malformed input (unterminated string, unknown character, bad escape,
/// malformed or out-of-range number). After kEnd it keeps returning kEnd.
class Lexer {
 public:
  explicit Lexer(std::string_view source) : source_(source) {}

  [[nodiscard]] Token next();

 private:
  std::string_view source_;
  std::size_t pos_{0};
  int line_{1};
};

/// Every token of `source`, ending with kEnd; throws as Lexer::next does.
[[nodiscard]] std::vector<Token> tokenize(std::string_view source);

}  // namespace rcs::script
