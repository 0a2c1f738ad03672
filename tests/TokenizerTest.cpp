//===- tests/TokenizerTest.cpp - Unit tests for analyze/Tokenizer ---------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// The tokenizer underpins every rule of dmeta-analyze; a token split in
// the wrong place silently changes what every rule sees. These tests pin the lexing
// of the constructs that historically broke: C++14 digit separators,
// user-defined-literal suffixes, and raw strings with encoding prefixes
// or delimiters containing quotes.
//
//===----------------------------------------------------------------------===//

#include "analyze/Tokenizer.h"
#include <gtest/gtest.h>

using namespace dmb::analyze;

namespace {

/// Renders a token stream as "Kind|text" words for compact comparison.
std::string spell(const std::string &Src) {
  std::string Out;
  for (const Token &T : tokenize(Src).Tokens) {
    if (!Out.empty())
      Out += ' ';
    switch (T.Kind) {
    case TokKind::Ident:
      Out += "i:";
      break;
    case TokKind::Number:
      Out += "n:";
      break;
    case TokKind::String:
      Out += "s:";
      break;
    case TokKind::CharLit:
      Out += "c:";
      break;
    case TokKind::Punct:
      Out += "p:";
      break;
    case TokKind::Include:
      Out += "inc:";
      break;
    case TokKind::Directive:
      Out += "dir:";
      break;
    }
    Out += T.Text;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Digit separators
//===----------------------------------------------------------------------===//

TEST(Tokenizer, DigitSeparatorsStayOneNumberToken) {
  EXPECT_EQ("i:int i:x p:= n:1'000'000 p:;", spell("int x = 1'000'000;"));
  EXPECT_EQ("n:0b1010'0011", spell("0b1010'0011"));
  EXPECT_EQ("n:0xFF'AA'00", spell("0xFF'AA'00"));
}

TEST(Tokenizer, DigitSeparatorWithSuffixAndNeighbours) {
  // The separator must not open a char literal, even with a literal
  // suffix attached or a real char literal adjacent in the argument list.
  EXPECT_EQ("n:1'000ull", spell("1'000ull"));
  EXPECT_EQ("i:f p:( n:1'000 p:, c: p:)", spell("f(1'000, 'x')"));
  EXPECT_EQ("i:case n:0x1'000 p::", spell("case 0x1'000:"));
}

TEST(Tokenizer, DigitSeparatorSurvivesInSanitizedView) {
  std::vector<std::string> San =
      tokenize("int x = 1'000'000;\n").SanitizedLines;
  ASSERT_EQ(1u, San.size());
  EXPECT_EQ("int x = 1'000'000;", San[0]);
}

//===----------------------------------------------------------------------===//
// User-defined literals
//===----------------------------------------------------------------------===//

TEST(Tokenizer, NumericUdlIsPartOfTheNumber) {
  EXPECT_EQ("i:auto i:d p:= n:10ms p:;", spell("auto d = 10ms;"));
  EXPECT_EQ("n:1.5_km", spell("1.5_km"));
}

TEST(Tokenizer, StringUdlSuffixDoesNotBecomeAnIdentifier) {
  // "abc"sv used to lex as a String followed by a spurious Ident "sv",
  // which variable-tracking rules could then treat as a name.
  EXPECT_EQ("i:auto i:s p:= s:abc p:;", spell("auto s = \"abc\"sv;"));
  EXPECT_EQ("s:abc", spell("\"abc\"_w"));
}

TEST(Tokenizer, CharUdlSuffixDoesNotBecomeAnIdentifier) {
  EXPECT_EQ("c:", spell("'a'_tag"));
}

TEST(Tokenizer, CharLiteralKeepsItsQuotesInTheSanitizedView) {
  // Dropping the quotes entirely glued the neighbours together: f('x')
  // sanitized to f() and substring rules saw calls that are not there.
  std::vector<std::string> San = tokenize("f('x');\n").SanitizedLines;
  ASSERT_EQ(1u, San.size());
  EXPECT_EQ("f('');", San[0]);
}

//===----------------------------------------------------------------------===//
// Raw strings
//===----------------------------------------------------------------------===//

TEST(Tokenizer, RawStringBasicAndCustomDelimiter) {
  EXPECT_EQ("s:hi", spell("R\"(hi)\""));
  EXPECT_EQ("s:a)\" b", spell("R\"xy(a)\" b)xy\""));
}

TEST(Tokenizer, RawStringDelimiterContainingAQuote) {
  // d-chars exclude parens, backslash and whitespace — not quotes. The
  // terminator must be matched as the full )delim" sequence.
  EXPECT_EQ("s:hi", spell("R\"q\"(hi)q\"\""));
  // Content containing a prefix of the terminator must not end the
  // literal early.
  EXPECT_EQ("s:a)q\" b", spell("R\"q\"(a)q\" b)q\"\""));
}

TEST(Tokenizer, EncodingPrefixedRawStringsLexAsOneLiteral) {
  // LR"(hi)" used to lex as Ident "LR" plus a mis-parsed plain string
  // whose contents leaked parentheses into the token stream.
  EXPECT_EQ("s:hi", spell("LR\"(hi)\""));
  EXPECT_EQ("s:hi", spell("u8R\"(hi)\""));
  EXPECT_EQ("s:hi", spell("uR\"(hi)\""));
  EXPECT_EQ("s:hi", spell("UR\"(hi)\""));
  // Braces in mis-lexed raw contents used to corrupt depth tracking;
  // pin that the brace depth after the literal is unchanged.
  TokenizedSource TS = tokenize("void f() { auto r = LR\"({{{)\"; g(); }");
  ASSERT_FALSE(TS.Tokens.empty());
  EXPECT_EQ(0, TS.Tokens.back().BraceDepth);
}

TEST(Tokenizer, RawStringWithUdlSuffix) {
  EXPECT_EQ("s:hi", spell("R\"(hi)\"_w"));
}

TEST(Tokenizer, PrefixedPlainLiteralsStillLex) {
  EXPECT_EQ("s:abc", spell("L\"abc\""));
  EXPECT_EQ("s:abc", spell("u8\"abc\""));
  EXPECT_EQ("c:", spell("L'a'"));
  // A lone u/L identifier is not a literal prefix.
  EXPECT_EQ("i:int i:u p:= n:1 p:;", spell("int u = 1;"));
  EXPECT_EQ("i:int i:L p:;", spell("int L;"));
}

TEST(Tokenizer, MultiLineRawStringKeepsLineNumbers) {
  TokenizedSource TS = tokenize("auto r = R\"(a\nb)\";\nint x;\n");
  ASSERT_GE(TS.Tokens.size(), 4u);
  // The token after the raw string is on line 2 (the literal spans 1-2).
  const Token &X = TS.Tokens[TS.Tokens.size() - 3];
  EXPECT_EQ("int", X.Text);
  EXPECT_EQ(3, X.Line);
  ASSERT_EQ(3u, TS.SanitizedLines.size());
}

} // namespace
