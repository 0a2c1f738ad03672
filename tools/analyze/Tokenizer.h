//===- tools/analyze/Tokenizer.h - C++ token stream -------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-pass C++ tokenizer every rule of dmeta-analyze reads: line
/// rules the sanitized text, symbol-aware rules the token stream. One scan
/// of a source file produces both views:
///
///  - Tokens: identifiers, numbers, string/char literals, punctuation and
///    preprocessor directives, each stamped with its 1-based line and the
///    brace/paren nesting depth at its position, so rules can reason about
///    scope extents (loop bodies, capture lists, argument lists) instead
///    of matching raw text.
///  - SanitizedLines: the file line by line with comment text removed and
///    string/char literal contents blanked, so substring rules cannot be
///    tripped by prose or fixture data. Block comments and raw string
///    literals carry state across lines.
///
/// The tokenizer is deliberately not a preprocessor: it does not expand
/// macros or follow includes. `#include` directives are surfaced as
/// dedicated tokens (with the target path and a system/project flag) for
/// the include-graph builder; other directives surface their name and then
/// tokenize their argument text normally, so `#define NAME` yields the
/// macro name as an identifier token.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_TOOLS_ANALYZE_TOKENIZER_H
#define DMETABENCH_TOOLS_ANALYZE_TOKENIZER_H

#include <cstddef>
#include <string>
#include <vector>

namespace dmb {
namespace analyze {

enum class TokKind {
  Ident,     ///< identifier or keyword
  Number,    ///< numeric literal (integer or floating, any base)
  String,    ///< string literal; Text holds the *contents* (no quotes)
  CharLit,   ///< character literal; contents dropped
  Punct,     ///< punctuation; multi-char operators ::, ->, <<, >> combined
  Include,   ///< #include directive; Text holds the target path
  Directive, ///< any other preprocessor directive; Text holds its name
};

/// One lexed token. Depth fields record the nesting *surrounding* the
/// token: an opening brace's own BraceDepth is the depth outside it, and
/// the matching closing brace carries the same value.
struct Token {
  TokKind Kind;
  int Line = 0;         ///< 1-based source line of the token's first char
  std::string Text;     ///< spelling (see TokKind for literal handling)
  int BraceDepth = 0;   ///< {} nesting at the token
  int ParenDepth = 0;   ///< () nesting at the token
  bool SystemInclude = false; ///< Include only: <...> rather than "..."
};

/// The two views of one source file produced by a single scan.
struct TokenizedSource {
  std::vector<Token> Tokens;
  std::vector<std::string> SanitizedLines;
};

/// Tokenizes \p Content (one whole file).
TokenizedSource tokenize(const std::string &Content);

/// Splits \p Content into lines (LF or CRLF; final line without newline
/// kept). Shared by the engines so raw and sanitized views line up.
std::vector<std::string> splitLines(const std::string &Content);

/// True for [A-Za-z0-9_].
bool isIdentChar(char C);

/// Index of the token matching the opener at \p OpenIdx ('(' -> ')',
/// '[' -> ']', '{' -> '}', '<' -> '>' counting '>>' as two closers), or
/// Tokens.size() when unbalanced. For '<' the search gives up on tokens
/// that cannot appear inside a template argument list (';' or '{'), so it
/// is safe to call on a less-than that might not open a template.
size_t matchForward(const std::vector<Token> &Tokens, size_t OpenIdx);

} // namespace analyze
} // namespace dmb

#endif // DMETABENCH_TOOLS_ANALYZE_TOKENIZER_H
