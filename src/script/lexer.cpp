#include "rcs/script/lexer.hpp"

#include <cctype>
#include <stdexcept>

#include "rcs/common/error.hpp"
#include "rcs/common/strf.hpp"

namespace rcs::script {

const char* to_string(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kKeyword: return "keyword";
    case TokenKind::kString: return "string";
    case TokenKind::kInt: return "int";
    case TokenKind::kFloat: return "float";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kComma: return "','";
    case TokenKind::kSemicolon: return "';'";
    case TokenKind::kEq: return "'=='";
    case TokenKind::kNeq: return "'!='";
    case TokenKind::kAnd: return "'&&'";
    case TokenKind::kOr: return "'||'";
    case TokenKind::kNot: return "'!'";
    case TokenKind::kAssign: return "'='";
    case TokenKind::kEnd: return "end of script";
  }
  return "?";
}

std::string Token::string_value() const {
  if (!escaped) return std::string(text);
  // The lexer has checked every escape.
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\') {
      out += text[i];
      continue;
    }
    switch (text[++i]) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      default: out += text[i]; break;  // '"' or '\\'
    }
  }
  return out;
}

namespace {
[[noreturn]] void fail(int line, const std::string& message) {
  throw ScriptException(strf("parse error (line ", line, "): ", message));
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

bool is_keyword(std::string_view word) {
  return word == "let" || word == "require" || word == "if" || word == "else" ||
         word == "true" || word == "false" || word == "null" ||
         word == "script";
}
}  // namespace

Token Lexer::next() {
  const std::string_view source = source_;
  const std::size_t n = source.size();
  std::size_t& i = pos_;
  Token token;
  const auto punct = [&](TokenKind kind, std::size_t length) {
    token.kind = kind;
    token.line = line_;
    i += length;
    return token;
  };

  while (i < n) {
    const char c = source[i];
    if (c == '\n') {
      ++line_;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      while (i < n && source[i] != '\n') ++i;
      continue;
    }
    token.line = line_;
    if (is_ident_start(c)) {
      const std::size_t start = i;
      while (i < n && is_ident_char(source[i])) ++i;
      token.text = source.substr(start, i - start);
      token.kind = is_keyword(token.text) ? TokenKind::kKeyword : TokenKind::kIdent;
      return token;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(source[i + 1])))) {
      const std::size_t start = i;
      if (c == '-') ++i;
      bool is_float = false;
      while (i < n && (std::isdigit(static_cast<unsigned char>(source[i])) ||
                       source[i] == '.')) {
        if (source[i] == '.') {
          if (is_float) fail(line_, "malformed number");
          is_float = true;
        }
        ++i;
      }
      token.text = source.substr(start, i - start);
      const std::string spelling(token.text);
      try {
        if (is_float) {
          token.kind = TokenKind::kFloat;
          token.float_value = std::stod(spelling);
        } else {
          token.kind = TokenKind::kInt;
          token.int_value = std::stoll(spelling);
        }
      } catch (const std::out_of_range&) {
        fail(line_, strf("number out of range '", spelling, "'"));
      }
      return token;
    }
    if (c == '"') {
      const std::size_t start = ++i;
      while (true) {
        if (i >= n) fail(line_, "unterminated string literal");
        const char d = source[i];
        if (d == '"') break;
        if (d == '\n') fail(line_, "unterminated string literal");
        if (d == '\\') {
          if (i + 1 >= n) fail(line_, "dangling escape");
          const char e = source[i + 1];
          if (e != 'n' && e != 't' && e != '"' && e != '\\') {
            fail(line_, strf("unknown escape '\\", e, "'"));
          }
          token.escaped = true;
          i += 2;
          continue;
        }
        ++i;
      }
      token.kind = TokenKind::kString;
      token.text = source.substr(start, i - start);
      ++i;  // closing quote
      return token;
    }
    const bool pair = i + 1 < n;
    switch (c) {
      case '(': return punct(TokenKind::kLParen, 1);
      case ')': return punct(TokenKind::kRParen, 1);
      case '{': return punct(TokenKind::kLBrace, 1);
      case '}': return punct(TokenKind::kRBrace, 1);
      case ',': return punct(TokenKind::kComma, 1);
      case ';': return punct(TokenKind::kSemicolon, 1);
      case '=':
        if (pair && source[i + 1] == '=') return punct(TokenKind::kEq, 2);
        return punct(TokenKind::kAssign, 1);
      case '!':
        if (pair && source[i + 1] == '=') return punct(TokenKind::kNeq, 2);
        return punct(TokenKind::kNot, 1);
      case '&':
        if (pair && source[i + 1] == '&') return punct(TokenKind::kAnd, 2);
        fail(line_, "expected '&&'");
      case '|':
        if (pair && source[i + 1] == '|') return punct(TokenKind::kOr, 2);
        fail(line_, "expected '||'");
      default:
        fail(line_, strf("unexpected character '", c, "'"));
    }
  }
  return punct(TokenKind::kEnd, 0);
}

std::vector<Token> tokenize(std::string_view source) {
  Lexer lexer(source);
  std::vector<Token> tokens;
  do {
    tokens.push_back(lexer.next());
  } while (tokens.back().kind != TokenKind::kEnd);
  return tokens;
}

}  // namespace rcs::script
