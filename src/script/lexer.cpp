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

bool is_keyword(const std::string& word) {
  return word == "let" || word == "require" || word == "if" || word == "else" ||
         word == "true" || word == "false" || word == "null" ||
         word == "script";
}
}  // namespace

std::vector<Token> tokenize(std::string_view source) {
  std::vector<Token> tokens;
  // Generated scripts average one token per ~5.2 bytes. Reserving one per
  // kTokenBytes covers them, so the vector never regrows (moving every
  // token) while it fills.
  constexpr std::size_t kTokenBytes = 4;
  tokens.reserve(source.size() / kTokenBytes + 1);
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = source.size();

  auto push = [&](TokenKind kind, std::string text = {}, Value literal = {}) {
    tokens.push_back(Token{kind, std::move(text), std::move(literal), line});
  };

  while (i < n) {
    const char c = source[i];
    if (c == '\n') {
      ++line;
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
    if (is_ident_start(c)) {
      std::size_t start = i;
      while (i < n && is_ident_char(source[i])) ++i;
      std::string word(source.substr(start, i - start));
      const TokenKind kind =
          is_keyword(word) ? TokenKind::kKeyword : TokenKind::kIdent;
      push(kind, std::move(word));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(source[i + 1])))) {
      std::size_t start = i;
      if (c == '-') ++i;
      bool is_float = false;
      while (i < n && (std::isdigit(static_cast<unsigned char>(source[i])) ||
                       source[i] == '.')) {
        if (source[i] == '.') {
          if (is_float) fail(line, "malformed number");
          is_float = true;
        }
        ++i;
      }
      std::string text(source.substr(start, i - start));
      Value literal;
      try {
        literal = is_float ? Value(std::stod(text))
                           : Value(std::int64_t{std::stoll(text)});
      } catch (const std::out_of_range&) {
        fail(line, strf("number out of range '", text, "'"));
      }
      push(is_float ? TokenKind::kFloat : TokenKind::kInt, std::move(text),
           std::move(literal));
      continue;
    }
    if (c == '"') {
      ++i;
      std::string text;
      bool closed = false;
      while (i < n) {
        const char d = source[i];
        if (d == '"') {
          closed = true;
          ++i;
          break;
        }
        if (d == '\n') fail(line, "unterminated string literal");
        if (d == '\\') {
          if (i + 1 >= n) fail(line, "dangling escape");
          const char e = source[i + 1];
          switch (e) {
            case 'n': text += '\n'; break;
            case 't': text += '\t'; break;
            case '"': text += '"'; break;
            case '\\': text += '\\'; break;
            default: fail(line, strf("unknown escape '\\", e, "'"));
          }
          i += 2;
          continue;
        }
        text += d;
        ++i;
      }
      if (!closed) fail(line, "unterminated string literal");
      Value literal(text);
      push(TokenKind::kString, std::move(text), std::move(literal));
      continue;
    }
    switch (c) {
      case '(': push(TokenKind::kLParen); ++i; continue;
      case ')': push(TokenKind::kRParen); ++i; continue;
      case '{': push(TokenKind::kLBrace); ++i; continue;
      case '}': push(TokenKind::kRBrace); ++i; continue;
      case ',': push(TokenKind::kComma); ++i; continue;
      case ';': push(TokenKind::kSemicolon); ++i; continue;
      case '=':
        if (i + 1 < n && source[i + 1] == '=') {
          push(TokenKind::kEq);
          i += 2;
        } else {
          push(TokenKind::kAssign);
          ++i;
        }
        continue;
      case '!':
        if (i + 1 < n && source[i + 1] == '=') {
          push(TokenKind::kNeq);
          i += 2;
        } else {
          push(TokenKind::kNot);
          ++i;
        }
        continue;
      case '&':
        if (i + 1 < n && source[i + 1] == '&') {
          push(TokenKind::kAnd);
          i += 2;
          continue;
        }
        fail(line, "expected '&&'");
      case '|':
        if (i + 1 < n && source[i + 1] == '|') {
          push(TokenKind::kOr);
          i += 2;
          continue;
        }
        fail(line, "expected '||'");
      default:
        fail(line, strf("unexpected character '", c, "'"));
    }
  }
  push(TokenKind::kEnd);
  return tokens;
}

}  // namespace rcs::script
