//===- tools/analyze/Tokenizer.cpp ----------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analyze/Tokenizer.h"

using namespace dmb;
using namespace dmb::analyze;

bool dmb::analyze::isIdentChar(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
         (C >= '0' && C <= '9') || C == '_';
}

std::vector<std::string> dmb::analyze::splitLines(const std::string &Content) {
  std::vector<std::string> Lines;
  std::string Cur;
  for (char C : Content) {
    if (C == '\n') {
      Lines.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Lines.push_back(Cur);
  return Lines;
}

namespace {

/// The scan state threaded through the whole file. Owns both output views
/// so one pass fills them consistently.
class Scanner {
public:
  explicit Scanner(const std::string &Content) : Src(Content) {}

  TokenizedSource run() {
    while (!atEnd())
      step();
    flushLine();
    return std::move(Out);
  }

private:
  bool atEnd() const { return I >= Src.size(); }
  char cur() const { return Src[I]; }
  char peek(size_t N = 1) const {
    return I + N < Src.size() ? Src[I + N] : '\0';
  }

  void emitSan(char C) { San += C; }

  void advance() {
    if (Src[I] == '\n') {
      Out.SanitizedLines.push_back(San);
      San.clear();
      ++Line;
      AtLineStart = true;
    }
    ++I;
  }

  void flushLine() {
    if (!San.empty() || !Out.SanitizedLines.empty() || !Out.Tokens.empty()) {
      // Mirror splitLines(): a trailing newline does not open a new line.
      if (!San.empty())
        Out.SanitizedLines.push_back(San);
    }
    San.clear();
  }

  void push(TokKind K, int TokLine, std::string Text, bool System = false) {
    Token T;
    T.Kind = K;
    T.Line = TokLine;
    T.Text = std::move(Text);
    T.BraceDepth = BraceDepth;
    T.ParenDepth = ParenDepth;
    T.SystemInclude = System;
    Out.Tokens.push_back(std::move(T));
  }

  /// Consumes a // or /* comment. Sanitized view drops the text entirely.
  void comment() {
    if (peek() == '/') {
      while (!atEnd() && cur() != '\n')
        ++I; // skip without emitting; newline handled by caller loop
      return;
    }
    // Block comment; may span lines.
    I += 2;
    while (!atEnd()) {
      if (cur() == '*' && peek() == '/') {
        I += 2;
        return;
      }
      advance();
    }
  }

  /// Consumes a user-defined-literal suffix ("abc"sv, 'a'_tag, R"(x)"_w)
  /// directly after a literal's closing quote. The suffix is part of the
  /// literal token, not a separate identifier: rules tracking variable
  /// names must never see `sv` or `_km` as a name.
  void udlSuffix() {
    while (!atEnd() && isIdentChar(cur())) {
      emitSan(cur());
      ++I;
    }
  }

  /// Consumes a plain "..." string literal, emitting "" to the sanitized
  /// view and a String token with the contents.
  void stringLit() {
    int StartLine = Line;
    emitSan('"');
    ++I; // opening quote
    std::string Text;
    while (!atEnd() && cur() != '\n') {
      if (cur() == '\\' && I + 1 < Src.size()) {
        Text += Src[I];
        Text += Src[I + 1];
        I += 2;
        continue;
      }
      if (cur() == '"') {
        ++I;
        emitSan('"');
        udlSuffix();
        push(TokKind::String, StartLine, std::move(Text));
        return;
      }
      Text += cur();
      ++I;
    }
    // Unterminated (or multi-line via splice, which we do not support):
    // emit what we have.
    push(TokKind::String, StartLine, std::move(Text));
  }

  /// Consumes R"delim(...)delim", possibly spanning lines. The delimiter
  /// may itself contain quotes (any character but parentheses, backslash
  /// and whitespace is a valid d-char), so the terminator is matched as
  /// the full )delim" sequence — never by scanning for a bare quote.
  void rawStringLit() {
    int StartLine = Line;
    emitSan('"');
    I += 2; // R"
    std::string Delim;
    while (!atEnd() && cur() != '(' && cur() != '\n') {
      Delim += cur();
      ++I;
    }
    if (!atEnd() && cur() == '(')
      ++I; // (
    std::string Term = ")" + Delim + "\"";
    std::string Text;
    while (!atEnd()) {
      if (Src.compare(I, Term.size(), Term) == 0) {
        I += Term.size();
        emitSan('"');
        udlSuffix();
        push(TokKind::String, StartLine, std::move(Text));
        return;
      }
      Text += cur();
      advance();
    }
    push(TokKind::String, StartLine, std::move(Text));
  }

  /// Consumes a 'x' character literal. Contents are dropped but the
  /// quotes stay in the sanitized view, so `f('x')` sanitizes to `f('')`
  /// rather than gluing the neighbours together.
  void charLit() {
    int StartLine = Line;
    emitSan('\'');
    ++I; // opening quote
    while (!atEnd() && cur() != '\n') {
      if (cur() == '\\' && I + 1 < Src.size()) {
        I += 2;
        continue;
      }
      if (cur() == '\'') {
        ++I;
        emitSan('\'');
        udlSuffix();
        break;
      }
      ++I;
    }
    push(TokKind::CharLit, StartLine, "");
  }

  void identifier() {
    int StartLine = Line;
    size_t Start = I;
    while (!atEnd() && isIdentChar(cur())) {
      emitSan(cur());
      ++I;
    }
    push(TokKind::Ident, StartLine, Src.substr(Start, I - Start));
  }

  void number() {
    int StartLine = Line;
    size_t Start = I;
    while (!atEnd()) {
      char C = cur();
      if (isIdentChar(C) || C == '.') {
        // Exponent signs: 1e-5, 0x1p+3.
        if ((C == 'e' || C == 'E' || C == 'p' || C == 'P') &&
            (peek() == '+' || peek() == '-')) {
          emitSan(C);
          ++I;
          emitSan(cur());
          ++I;
          continue;
        }
        emitSan(C);
        ++I;
        continue;
      }
      // Digit separator, but only between digits: 1'000'000.
      if (C == '\'' && isIdentChar(peek())) {
        emitSan(C);
        ++I;
        continue;
      }
      break;
    }
    push(TokKind::Number, StartLine, Src.substr(Start, I - Start));
  }

  /// Handles a preprocessor directive starting at the current '#'.
  void directive() {
    int StartLine = Line;
    emitSan('#');
    ++I;
    while (!atEnd() && (cur() == ' ' || cur() == '\t')) {
      emitSan(cur());
      ++I;
    }
    std::string Name;
    while (!atEnd() && isIdentChar(cur())) {
      Name += cur();
      emitSan(cur());
      ++I;
    }
    if (Name != "include") {
      if (!Name.empty())
        push(TokKind::Directive, StartLine, Name);
      return; // rest of the line tokenizes normally
    }
    while (!atEnd() && (cur() == ' ' || cur() == '\t')) {
      emitSan(cur());
      ++I;
    }
    if (atEnd())
      return;
    char Open = cur();
    if (Open != '"' && Open != '<') {
      push(TokKind::Directive, StartLine, Name);
      return; // computed include (macro); not our concern
    }
    char Close = Open == '"' ? '"' : '>';
    emitSan(Open);
    ++I;
    // Include targets stay visible in the sanitized view (they are code,
    // not data): the raw-assert rule matches "#include <cassert>" there.
    std::string Target;
    while (!atEnd() && cur() != Close && cur() != '\n') {
      Target += cur();
      emitSan(cur());
      ++I;
    }
    if (!atEnd() && cur() == Close) {
      emitSan(Close);
      ++I;
    }
    push(TokKind::Include, StartLine, Target, /*System=*/Open == '<');
  }

  /// Emits a punctuation token, combining the multi-char operators the
  /// rules care about (::, ->, <<, >>). Template brackets stay single so
  /// matchForward can count them; '>>' is handled there as two closers.
  void punct() {
    int StartLine = Line;
    char C = cur();
    std::string Text(1, C);
    char N = peek();
    if ((C == ':' && N == ':') || (C == '-' && N == '>') ||
        (C == '<' && N == '<') || (C == '>' && N == '>'))
      Text += N;
    for (char E : Text)
      emitSan(E);
    I += Text.size();
    if (Text == "{")
      ++PendingBrace;
    else if (Text == "}")
      BraceDepth = BraceDepth > 0 ? BraceDepth - 1 : 0;
    else if (Text == "(")
      ++PendingParen;
    else if (Text == ")")
      ParenDepth = ParenDepth > 0 ? ParenDepth - 1 : 0;
    push(TokKind::Punct, StartLine, Text);
    BraceDepth += PendingBrace;
    ParenDepth += PendingParen;
    PendingBrace = PendingParen = 0;
  }

  void step() {
    char C = cur();
    if (C == '\n') {
      advance();
      return;
    }
    if (C == ' ' || C == '\t' || C == '\r' || C == '\f' || C == '\v') {
      emitSan(C == '\r' ? ' ' : C);
      ++I;
      return;
    }
    if (C == '/' && (peek() == '/' || peek() == '*')) {
      comment();
      return;
    }
    if (AtLineStart && C == '#') {
      AtLineStart = false;
      directive();
      return;
    }
    AtLineStart = false;
    // Literal prefixes: an optional encoding prefix (u8, u, U, L),
    // optionally followed by R for raw strings, in front of a quote.
    // The prefix is consumed as part of the literal so `LR"(a)"` and
    // `u8R"(a)"` lex as one String token rather than an identifier
    // followed by a mis-parsed plain string.
    if (I == 0 || !isIdentChar(Src[I - 1])) {
      size_t P = I;
      if (Src[P] == 'u' && P + 1 < Src.size() && Src[P + 1] == '8')
        P += 2;
      else if (Src[P] == 'u' || Src[P] == 'U' || Src[P] == 'L')
        P += 1;
      if (P < Src.size() && Src[P] == 'R' && P + 1 < Src.size() &&
          Src[P + 1] == '"') {
        I = P;
        rawStringLit();
        return;
      }
      if (P > I && P < Src.size() && Src[P] == '"') {
        I = P;
        stringLit();
        return;
      }
      if (P > I && P < Src.size() && Src[P] == '\'') {
        I = P;
        charLit();
        return;
      }
    }
    if (C == '"') {
      stringLit();
      return;
    }
    if (C == '\'') {
      charLit();
      return;
    }
    if (isIdentChar(C) && !(C >= '0' && C <= '9')) {
      identifier();
      return;
    }
    if (C >= '0' && C <= '9') {
      number();
      return;
    }
    punct();
  }

  const std::string &Src;
  size_t I = 0;
  int Line = 1;
  bool AtLineStart = true;
  int BraceDepth = 0, ParenDepth = 0;
  int PendingBrace = 0, PendingParen = 0;
  std::string San;
  TokenizedSource Out;
};

} // namespace

TokenizedSource dmb::analyze::tokenize(const std::string &Content) {
  TokenizedSource Out = Scanner(Content).run();
  // Keep the sanitized view aligned with splitLines() of the raw text:
  // one entry per raw line.
  std::vector<std::string> Raw = splitLines(Content);
  while (Out.SanitizedLines.size() < Raw.size())
    Out.SanitizedLines.push_back("");
  if (Out.SanitizedLines.size() > Raw.size())
    Out.SanitizedLines.resize(Raw.size());
  return Out;
}

size_t dmb::analyze::matchForward(const std::vector<Token> &Tokens,
                                  size_t OpenIdx) {
  if (OpenIdx >= Tokens.size() || Tokens[OpenIdx].Kind != TokKind::Punct)
    return Tokens.size();
  const std::string &Open = Tokens[OpenIdx].Text;
  std::string Close;
  if (Open == "(")
    Close = ")";
  else if (Open == "[")
    Close = "]";
  else if (Open == "{")
    Close = "}";
  else if (Open == "<")
    Close = ">";
  else
    return Tokens.size();

  bool Angle = Open == "<";
  int Depth = 1;
  for (size_t I = OpenIdx + 1; I < Tokens.size(); ++I) {
    const Token &T = Tokens[I];
    if (T.Kind != TokKind::Punct)
      continue;
    if (Angle) {
      // A template argument list cannot contain these; bail out so a
      // comparison operator is not chased across the whole file.
      if (T.Text == ";" || T.Text == "{")
        return Tokens.size();
      if (T.Text == "<")
        ++Depth;
      else if (T.Text == ">") {
        if (--Depth == 0)
          return I;
      } else if (T.Text == ">>") {
        Depth -= 2;
        if (Depth <= 0)
          return I;
      } else if (T.Text == "<<")
        Depth += 2;
      continue;
    }
    if (T.Text == Open)
      ++Depth;
    else if (T.Text == Close) {
      if (--Depth == 0)
        return I;
    }
  }
  return Tokens.size();
}
