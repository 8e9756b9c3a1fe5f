#include "query/lexer.h"

#include <array>
#include <cctype>
#include <charconv>
#include <limits>
#include <system_error>

#include "common/string_util.h"

namespace horus::query {

namespace {
// string_view entries: a compare checks the length before any byte.
constexpr std::array<std::string_view, 24> kKeywords = {
    "MATCH",  "WHERE",    "WITH",  "RETURN", "ORDER",  "BY",
    "ASC",    "DESC",     "AS",    "AND",    "OR",     "NOT",
    "CONTAINS", "STARTS", "ENDS",  "UNWIND", "CALL",   "YIELD",
    "TRUE",   "FALSE",    "NULL",  "DISTINCT", "LIMIT", "IN",
};
}  // namespace

bool is_keyword(std::string_view upper) {
  for (const std::string_view k : kKeywords) {
    if (upper == k) return true;
  }
  return false;
}

std::vector<Token> tokenize(std::string_view text) {
  std::vector<Token> out;
  out.reserve(text.size() / 4 + 2);  // one allocation for typical queries
  std::size_t i = 0;
  const std::size_t n = text.size();

  auto fail = [&](const std::string& what) -> void {
    throw QueryError("query lex error at byte " + std::to_string(i) + ": " +
                     what);
  };

  while (i < n) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments: // to end of line.
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      while (i < n && text[i] != '\n') ++i;
      continue;
    }

    Token tok;
    tok.offset = i;

    // Parameters: $name.
    if (c == '$') {
      ++i;
      std::size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(text[i])) ||
                       text[i] == '_')) {
        ++i;
      }
      if (i == start) fail("expected parameter name after '$'");
      tok.kind = TokenKind::kParam;
      tok.text = std::string(text.substr(start, i - start));
      out.push_back(std::move(tok));
      continue;
    }

    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(text[i])) ||
                       text[i] == '_')) {
        ++i;
      }
      const std::string_view word = text.substr(start, i - start);
      // No keyword is longer than eight letters.
      char upper[8];
      bool keyword = false;
      if (word.size() <= sizeof(upper)) {
        for (std::size_t k = 0; k < word.size(); ++k) {
          upper[k] = static_cast<char>(
              std::toupper(static_cast<unsigned char>(word[k])));
        }
        keyword = is_keyword(std::string_view(upper, word.size()));
      }
      if (keyword) {
        tok.kind = TokenKind::kKeyword;
        tok.text.assign(upper, word.size());
      } else {
        tok.kind = TokenKind::kIdent;
        tok.text = std::string(word);
      }
      out.push_back(std::move(tok));
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = i;
      bool is_float = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(text[i]))) ++i;
      // "1..3" is integer, dot-dot, integer — not a float.
      if (i + 1 < n && text[i] == '.' && text[i + 1] == '.') {
        // fall through as integer; '..' is lexed on the next iteration
      } else if (i < n && text[i] == '.' && i + 1 < n &&
          std::isdigit(static_cast<unsigned char>(text[i + 1]))) {
        is_float = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(text[i]))) ++i;
      }
      const std::string_view num = text.substr(start, i - start);
      if (is_float) {
        tok.kind = TokenKind::kFloat;
        std::from_chars(num.begin(), num.end(), tok.float_value);
      } else {
        tok.kind = TokenKind::kInteger;
        tok.text = std::string(num);
        const auto ec =
            std::from_chars(num.begin(), num.end(), tok.int_value).ec;
        // 2^63 only fits negated (INT64_MIN); the parser checks that.
        if (ec == std::errc::result_out_of_range) {
          if (num != kInt64MinMagnitude) {
            fail("integer literal " + std::string(num) + " out of range");
          }
          tok.int_value = std::numeric_limits<std::int64_t>::min();
        }
      }
      out.push_back(std::move(tok));
      continue;
    }

    if (c == '\'' || c == '"') {
      const char quote = c;
      ++i;
      std::string s;
      while (true) {
        if (i >= n) fail("unterminated string literal");
        const char q = text[i];
        if (q == quote) {
          ++i;
          break;
        }
        if (q == '\\' && i + 1 < n) {
          const char esc = text[i + 1];
          switch (esc) {
            case 'n': s += '\n'; break;
            case 't': s += '\t'; break;
            case '\\': s += '\\'; break;
            case '\'': s += '\''; break;
            case '"': s += '"'; break;
            default: s += esc;
          }
          i += 2;
          continue;
        }
        s += q;
        ++i;
      }
      tok.kind = TokenKind::kString;
      tok.text = std::move(s);
      out.push_back(std::move(tok));
      continue;
    }

    auto two = [&](char a, char b) {
      return c == a && i + 1 < n && text[i + 1] == b;
    };

    if (two('-', '-') && i + 2 < n && text[i + 2] == '>') {
      tok.kind = TokenKind::kArrowRight;
      i += 3;
    } else if (two('<', '-') && i + 2 < n && text[i + 2] == '-') {
      tok.kind = TokenKind::kArrowLeft;
      i += 3;
    } else if (two('<', '>')) {
      tok.kind = TokenKind::kNeq;
      i += 2;
    } else if (two('<', '=')) {
      tok.kind = TokenKind::kLe;
      i += 2;
    } else if (two('>', '=')) {
      tok.kind = TokenKind::kGe;
      i += 2;
    } else if (two('.', '.')) {
      tok.kind = TokenKind::kDotDot;
      i += 2;
    } else {
      switch (c) {
        case '(': tok.kind = TokenKind::kLParen; break;
        case ')': tok.kind = TokenKind::kRParen; break;
        case '{': tok.kind = TokenKind::kLBrace; break;
        case '}': tok.kind = TokenKind::kRBrace; break;
        case '[': tok.kind = TokenKind::kLBracket; break;
        case ']': tok.kind = TokenKind::kRBracket; break;
        case ',': tok.kind = TokenKind::kComma; break;
        case ':': tok.kind = TokenKind::kColon; break;
        case '.': tok.kind = TokenKind::kDot; break;
        case '*': tok.kind = TokenKind::kStar; break;
        case '/': tok.kind = TokenKind::kSlash; break;
        case '%': tok.kind = TokenKind::kPercent; break;
        case '=': tok.kind = TokenKind::kEq; break;
        case '<': tok.kind = TokenKind::kLt; break;
        case '>': tok.kind = TokenKind::kGt; break;
        case '+': tok.kind = TokenKind::kPlus; break;
        case '-': tok.kind = TokenKind::kDash; break;
        default:
          fail(std::string("unexpected character '") + c + "'");
      }
      ++i;
    }
    out.push_back(std::move(tok));
  }

  Token end;
  end.kind = TokenKind::kEnd;
  end.offset = n;
  out.push_back(std::move(end));
  return out;
}

}  // namespace horus::query
