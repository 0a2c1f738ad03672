//===- tools/analyze/IncludeGraph.cpp -------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analyze/IncludeGraph.h"
#include <algorithm>

using namespace dmb;
using namespace dmb::analyze;

namespace {

std::string dirName(const std::string &RelPath) {
  size_t Slash = RelPath.rfind('/');
  return Slash == std::string::npos ? std::string() : RelPath.substr(0, Slash);
}

} // namespace

int dmb::analyze::layerBand(const std::string &RelPath) {
  if (RelPath.starts_with("src/support/"))
    return 0;
  if (RelPath.starts_with("src/sim/"))
    return 1;
  if (RelPath.starts_with("src/fs/") || RelPath.starts_with("src/dfs/") ||
      RelPath.starts_with("src/cluster/") ||
      RelPath.starts_with("src/workload/"))
    return 2;
  if (RelPath.starts_with("src/core/") ||
      RelPath.starts_with("src/analysis/") ||
      RelPath.starts_with("src/chart/"))
    return 3;
  if (RelPath.starts_with("src/dmetabench/"))
    return 4;
  if (RelPath.starts_with("bench/") || RelPath.starts_with("tests/") ||
      RelPath.starts_with("tools/") || RelPath.starts_with("examples/"))
    return 5;
  return -1;
}

IncludeGraph::IncludeGraph(const std::vector<SourceFile> &Files)
    : Files(Files) {
  for (const SourceFile &F : Files)
    ByPath[F.RelPath] = &F;
  for (const SourceFile &F : Files) {
    std::vector<Edge> &Out = Edges[F.RelPath];
    for (const Token &T : F.Toks.Tokens) {
      if (T.Kind != TokKind::Include || T.SystemInclude)
        continue;
      // Project includes are written relative to a -I root (src/, tools/,
      // bench/) or to the including file's own directory.
      std::string Resolved;
      for (const std::string &Cand :
           {"src/" + T.Text, "tools/" + T.Text, "bench/" + T.Text,
            dirName(F.RelPath).empty() ? T.Text
                                       : dirName(F.RelPath) + "/" + T.Text,
            T.Text}) {
        if (ByPath.count(Cand)) {
          Resolved = Cand;
          break;
        }
      }
      if (!Resolved.empty())
        Out.push_back({Resolved, T.Line});
    }
    std::vector<std::string> &Targets = EdgeTargets[F.RelPath];
    for (const Edge &E : Out)
      Targets.push_back(E.Target);
  }
}

const std::vector<std::string> &
IncludeGraph::edges(const std::string &RelPath) const {
  static const std::vector<std::string> Empty;
  auto It = EdgeTargets.find(RelPath);
  return It == EdgeTargets.end() ? Empty : It->second;
}

void IncludeGraph::check(std::vector<Finding> &Out) const {
  for (const SourceFile &F : Files) {
    checkLayering(F, Out);
    checkUnusedIncludes(F, Out);
  }
  checkCycles(Out);
}

void IncludeGraph::checkLayering(const SourceFile &F,
                                 std::vector<Finding> &Out) const {
  int FromBand = layerBand(F.RelPath);
  if (FromBand < 0)
    return;
  auto It = Edges.find(F.RelPath);
  if (It == Edges.end())
    return;
  for (const Edge &E : It->second) {
    int ToBand = layerBand(E.Target);
    if (ToBand < 0 || ToBand <= FromBand)
      continue;
    const std::string &Raw = static_cast<size_t>(E.Line - 1) < F.RawLines.size()
                                 ? F.RawLines[E.Line - 1]
                                 : F.RelPath;
    if (allowedOnLine(Raw, "layering"))
      continue;
    Out.push_back({F.RelPath, E.Line, "layering",
                   "include of '" + E.Target + "' (band " +
                       std::to_string(ToBand) + ") from band " +
                       std::to_string(FromBand) +
                       " inverts the layer DAG; move the shared code down "
                       "or the dependent code up"});
  }
}

void IncludeGraph::checkCycles(std::vector<Finding> &Out) const {
  // Iterative DFS with an explicit color map; each cycle is reported once,
  // at the lexicographically smallest file on it, so reruns are stable.
  std::map<std::string, int> Color; // 0 new, 1 on stack, 2 done
  std::set<std::string> Reported;
  std::vector<std::string> Stack;

  // Recursive lambda via explicit stack of (node, next-edge-index).
  for (const SourceFile &F : Files) {
    if (Color[F.RelPath])
      continue;
    std::vector<std::pair<std::string, size_t>> Work;
    Work.push_back({F.RelPath, 0});
    Color[F.RelPath] = 1;
    Stack.push_back(F.RelPath);
    while (!Work.empty()) {
      auto &[Node, EdgeIdx] = Work.back();
      const std::vector<std::string> &Succ = edges(Node);
      if (EdgeIdx >= Succ.size()) {
        Color[Node] = 2;
        Stack.pop_back();
        Work.pop_back();
        continue;
      }
      const std::string &Next = Succ[EdgeIdx++];
      int C = Color[Next];
      if (C == 0) {
        Color[Next] = 1;
        Stack.push_back(Next);
        Work.push_back({Next, 0});
      } else if (C == 1) {
        // Found a back edge: the cycle is Stack[pos(Next) .. end].
        auto PosIt = std::find(Stack.begin(), Stack.end(), Next);
        std::vector<std::string> Cycle(PosIt, Stack.end());
        std::string Anchor = *std::min_element(Cycle.begin(), Cycle.end());
        std::string Path;
        // Rotate so the report starts at the anchor.
        size_t Start = std::find(Cycle.begin(), Cycle.end(), Anchor) -
                       Cycle.begin();
        for (size_t I = 0; I <= Cycle.size(); ++I) {
          if (I)
            Path += " -> ";
          Path += Cycle[(Start + I) % Cycle.size()];
        }
        if (Reported.insert(Path).second)
          Out.push_back({Anchor, 0, "include-cycle",
                         "include cycle: " + Path});
      }
    }
  }
}

std::set<std::string> IncludeGraph::declaredSymbols(const SourceFile &F) {
  std::set<std::string> Syms;
  const std::vector<Token> &T = F.Toks.Tokens;
  int TemplateDepth = 0; // inside template<...> parameter lists
  // The include-guard macro is plumbing, not interface: a name #defined
  // right after being #ifndef'd must not make a header look like it
  // declares something (that would defeat the umbrella exemption).
  std::set<std::string> GuardNames;
  for (size_t I = 0; I + 1 < T.size(); ++I)
    if (T[I].Kind == TokKind::Directive && T[I].Text == "ifndef" &&
        T[I + 1].Kind == TokKind::Ident)
      GuardNames.insert(T[I + 1].Text);
  for (size_t I = 0; I < T.size(); ++I) {
    const Token &Tok = T[I];
    if (Tok.Kind == TokKind::Directive && Tok.Text == "define") {
      if (I + 1 < T.size() && T[I + 1].Kind == TokKind::Ident &&
          !GuardNames.count(T[I + 1].Text))
        Syms.insert(T[I + 1].Text);
      continue;
    }
    if (Tok.Kind != TokKind::Ident)
      continue;
    // Skip template parameter lists: `template <class T, typename U>`
    // must not export T and U.
    if (Tok.Text == "template" && I + 1 < T.size() &&
        T[I + 1].Kind == TokKind::Punct && T[I + 1].Text == "<") {
      size_t Close = matchForward(T, I + 1);
      if (Close < T.size()) {
        I = Close;
        continue;
      }
    }
    (void)TemplateDepth;
    if (Tok.Text == "class" || Tok.Text == "struct" || Tok.Text == "union" ||
        Tok.Text == "enum") {
      size_t J = I + 1;
      if (J < T.size() && T[J].Kind == TokKind::Ident &&
          (T[J].Text == "class" || T[J].Text == "struct"))
        ++J; // enum class
      // Skip attributes: class [[nodiscard]] Name
      while (J + 1 < T.size() && T[J].Kind == TokKind::Punct &&
             T[J].Text == "[")
        J = matchForward(T, J) + 1;
      if (J < T.size() && T[J].Kind == TokKind::Ident) {
        Syms.insert(T[J].Text);
        // Enum members are usable by the includer via Name::Member.
        if (Tok.Text == "enum") {
          size_t K = J;
          while (K < T.size() && !(T[K].Kind == TokKind::Punct &&
                                   (T[K].Text == "{" || T[K].Text == ";")))
            ++K;
          if (K < T.size() && T[K].Text == "{") {
            size_t End = matchForward(T, K);
            for (size_t M = K + 1; M < End && M < T.size(); ++M)
              if (T[M].Kind == TokKind::Ident &&
                  (T[M - 1].Text == "{" || T[M - 1].Text == ","))
                Syms.insert(T[M].Text);
          }
        }
      }
      continue;
    }
    if (Tok.Text == "using") {
      if (I + 2 < T.size() && T[I + 1].Kind == TokKind::Ident &&
          T[I + 2].Kind == TokKind::Punct && T[I + 2].Text == "=")
        Syms.insert(T[I + 1].Text);
      continue;
    }
    if (Tok.Text == "typedef") {
      size_t J = I + 1;
      while (J < T.size() && !(T[J].Kind == TokKind::Punct && T[J].Text == ";"))
        ++J;
      if (J > I + 1 && T[J - 1].Kind == TokKind::Ident)
        Syms.insert(T[J - 1].Text);
      continue;
    }
    // Function, method, constant and member declarations: an identifier
    // followed by '(' / '=' / ';' whose predecessor looks like a type
    // (identifier, '>', '*', '&', '::' chain). Depth <= 2 keeps local
    // variables in inline bodies (depth >= 3) out.
    if (Tok.BraceDepth <= 2 && I > 0 && I + 1 < T.size()) {
      const Token &Prev = T[I - 1];
      const Token &Next = T[I + 1];
      bool TypeBefore =
          Prev.Kind == TokKind::Ident ||
          (Prev.Kind == TokKind::Punct &&
           (Prev.Text == ">" || Prev.Text == "*" || Prev.Text == "&" ||
            Prev.Text == "]")); // ']' closes an attribute
      bool DeclAfter = Next.Kind == TokKind::Punct &&
                       (Next.Text == "(" || Next.Text == "=" ||
                        Next.Text == ";" || Next.Text == "{" ||
                        Next.Text == "[");
      if (TypeBefore && DeclAfter)
        Syms.insert(Tok.Text);
    }
  }
  return Syms;
}

void IncludeGraph::checkUnusedIncludes(const SourceFile &F,
                                       std::vector<Finding> &Out) const {
  auto It = Edges.find(F.RelPath);
  if (It == Edges.end() || It->second.empty())
    return;

  // A pure re-export header (the DMetabench.h umbrella pattern): many
  // project includes and no declarations of its own. Its includes ARE its
  // interface; skip it.
  if (It->second.size() >= 5 && declaredSymbols(F).empty())
    return;

  // Identifiers the file itself references.
  std::set<std::string> Used;
  for (const Token &T : F.Toks.Tokens)
    if (T.Kind == TokKind::Ident)
      Used.insert(T.Text);

  for (const Edge &E : It->second) {
    auto TargetIt = ByPath.find(E.Target);
    if (TargetIt == ByPath.end())
      continue;
    // A .cpp including its own header is definitional, not a dependency.
    const std::string &Tgt = E.Target;
    if (Tgt.size() > 2 && F.RelPath.size() > 4 &&
        Tgt.substr(0, Tgt.size() - 2) ==
            F.RelPath.substr(0, F.RelPath.size() - 4))
      continue;
    std::set<std::string> Declared = declaredSymbols(*TargetIt->second);
    // An umbrella target declares nothing itself; what an includer gets
    // from it is the union of its direct includes, so credit those.
    if (Declared.empty()) {
      for (const std::string &Sub : edges(E.Target)) {
        auto SubIt = ByPath.find(Sub);
        if (SubIt == ByPath.end())
          continue;
        std::set<std::string> SubSyms = declaredSymbols(*SubIt->second);
        Declared.insert(SubSyms.begin(), SubSyms.end());
      }
    }
    bool UsedAny = false;
    for (const std::string &S : Declared)
      if (Used.count(S)) {
        UsedAny = true;
        break;
      }
    if (UsedAny)
      continue;
    const std::string &Raw = static_cast<size_t>(E.Line - 1) < F.RawLines.size()
                                 ? F.RawLines[E.Line - 1]
                                 : std::string();
    if (allowedOnLine(Raw, "unused-include"))
      continue;
    Out.push_back({F.RelPath, E.Line, "unused-include",
                   "no symbol declared in '" + E.Target +
                       "' is referenced here; drop the include (or keep it "
                       "with a justified allow if it re-exports)"});
  }
}
