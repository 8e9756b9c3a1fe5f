// Tokenizer for the Horus query language (a Cypher dialect).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace horus::query {

class QueryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class TokenKind {
  kIdent,     // foo, horus.getCausalGraph (dotted names are split)
  kKeyword,   // MATCH, WHERE, ... (uppercased)
  kInteger,
  kFloat,
  kString,    // 'single' or "double" quoted
  kLParen, kRParen, kLBrace, kRBrace, kLBracket, kRBracket,
  kComma, kColon, kDot, kStar, kSlash, kPercent,
  kEq, kNeq, kLt, kLe, kGt, kGe,
  kPlus,
  kDotDot,      // ..  (hop ranges in -[*1..3]->)
  kParam,       // $name
  kArrowRight,  // -->
  kArrowLeft,   // <--
  kDash,        // -   (minus, and relationship syntax)
  kEnd,
};

/// The magnitude of INT64_MIN: the one integer literal past INT64_MAX the
/// lexer accepts, valid only after a unary minus (the parser checks).
inline constexpr std::string_view kInt64MinMagnitude = "9223372036854775808";

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;       // identifier/keyword/string payload; integer digits
  std::int64_t int_value = 0;  // INT64_MIN for kInt64MinMagnitude
  double float_value = 0;
  std::size_t offset = 0; // byte offset for error messages
};

/// Keywords recognized (case-insensitive in source, canonical upper-case in
/// Token::text).
[[nodiscard]] bool is_keyword(std::string_view upper);

/// Tokenizes the query text; throws QueryError on malformed input.
[[nodiscard]] std::vector<Token> tokenize(std::string_view text);

}  // namespace horus::query
