//===- tests/SupportTest.cpp - Unit tests for src/support -----------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/Error.h"
#include "support/FlatTable.h"
#include "support/Format.h"
#include "support/Interner.h"
#include "support/Random.h"
#include "support/Result.h"
#include "support/TextTable.h"
#include <gtest/gtest.h>
#include <map>
#include <set>
#include <unordered_map>

using namespace dmb;

namespace {

TEST(Error, NamesAreCanonical) {
  EXPECT_STREQ("OK", fsErrorName(FsError::Ok));
  EXPECT_STREQ("EEXIST", fsErrorName(FsError::Exists));
  EXPECT_STREQ("ENOENT", fsErrorName(FsError::NoEnt));
  EXPECT_STREQ("EXDEV", fsErrorName(FsError::XDev));
  EXPECT_STREQ("ENOTEMPTY", fsErrorName(FsError::NotEmpty));
  EXPECT_STREQ("ESTALE", fsErrorName(FsError::Stale));
}

TEST(Error, ExhaustiveNameRoundTrip) {
  // Runtime twin of dmeta-analyze's error-table check: every code has a
  // distinct canonical name that parses back to the same code.
  std::set<std::string> Seen;
  for (unsigned I = 0; I < NumFsErrors; ++I) {
    FsError E = static_cast<FsError>(I);
    const char *Name = fsErrorName(E);
    EXPECT_STRNE("UNKNOWN", Name) << "code " << I;
    EXPECT_TRUE(Seen.insert(Name).second) << "duplicate name " << Name;
    FsError Back = FsError::Ok;
    ASSERT_TRUE(fsErrorFromName(Name, Back)) << Name;
    EXPECT_EQ(E, Back) << Name;
  }
  EXPECT_EQ(NumFsErrors, Seen.size());
  FsError Out = FsError::Ok;
  EXPECT_FALSE(fsErrorFromName("ENOSYS", Out));
  EXPECT_FALSE(fsErrorFromName("", Out));
  EXPECT_FALSE(fsErrorFromName("eexist", Out));
}

TEST(Error, FromNameRejectsUnknownNames) {
  // A failed lookup must reject near-misses exactly and leave the
  // out-parameter untouched, so callers can trust it after a false return.
  FsError Out = FsError::Stale;
  EXPECT_FALSE(fsErrorFromName("UNKNOWN", Out)); // fallback render, not a name
  EXPECT_FALSE(fsErrorFromName("ENOEN", Out));   // prefix of ENOENT
  EXPECT_FALSE(fsErrorFromName("ENOENTX", Out)); // trailing garbage
  EXPECT_FALSE(fsErrorFromName("ENOENT ", Out)); // trailing whitespace
  EXPECT_FALSE(fsErrorFromName(" ENOENT", Out)); // leading whitespace
  EXPECT_FALSE(fsErrorFromName("Ok", Out));      // enum spelling, not the name
  EXPECT_EQ(FsError::Stale, Out);
}

TEST(Result, HoldsValue) {
  Result<int> R = 42;
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(42, *R);
  EXPECT_EQ(FsError::Ok, R.error());
  EXPECT_EQ(42, R.valueOr(7));
}

TEST(Result, HoldsError) {
  Result<int> R = FsError::NoEnt;
  EXPECT_FALSE(R.ok());
  EXPECT_EQ(FsError::NoEnt, R.error());
  EXPECT_EQ(7, R.valueOr(7));
}

TEST(Result, MoveOnlyPayload) {
  Result<std::unique_ptr<int>> R = std::make_unique<int>(5);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(5, **R);
}

TEST(Format, Printf) {
  EXPECT_EQ("x=3 y=abc", format("x=%d y=%s", 3, "abc"));
  EXPECT_EQ("", format("%s", ""));
  EXPECT_EQ("3.14", format("%.2f", 3.14159));
}

TEST(Format, JoinSplit) {
  std::vector<std::string> Parts = {"a", "b", "c"};
  EXPECT_EQ("a/b/c", join(Parts, "/"));
  EXPECT_EQ(Parts, split("a/b/c", '/'));
  std::vector<std::string> WithEmpty = {"", "x", ""};
  EXPECT_EQ(WithEmpty, split("/x/", '/'));
  EXPECT_EQ(std::vector<std::string>{""}, split("", '/'));
}

TEST(Format, StartsWith) {
  EXPECT_TRUE(startsWith("/mnt/nfs/test", "/mnt/nfs"));
  EXPECT_FALSE(startsWith("/mnt", "/mnt/nfs"));
}

TEST(Random, Deterministic) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, SeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 2);
}

TEST(Random, UniformInUnitInterval) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    double U = R.uniform();
    EXPECT_GE(U, 0.0);
    EXPECT_LT(U, 1.0);
  }
}

TEST(Random, ExponentialMean) {
  Rng R(11);
  double Sum = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I)
    Sum += R.exponential(3.0);
  EXPECT_NEAR(3.0, Sum / N, 0.1);
}

TEST(Random, NormalMoments) {
  Rng R(13);
  double Sum = 0, SumSq = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I) {
    double X = R.normal(10.0, 2.0);
    Sum += X;
    SumSq += X * X;
  }
  double Mean = Sum / N;
  double Var = SumSq / N - Mean * Mean;
  EXPECT_NEAR(10.0, Mean, 0.1);
  EXPECT_NEAR(4.0, Var, 0.3);
}

TEST(Random, BelowStaysInRange) {
  Rng R(17);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 1000; ++I) {
    uint64_t V = R.below(5);
    EXPECT_LT(V, 5u);
    Seen.insert(V);
  }
  EXPECT_EQ(5u, Seen.size());
}

TEST(Interner, IdsAreDenseAndStable) {
  Interner I;
  EXPECT_EQ(0u, I.intern("volume"));
  EXPECT_EQ(1u, I.intern("scratch"));
  // Re-interning returns the existing id.
  EXPECT_EQ(0u, I.intern("volume"));
  EXPECT_EQ(2u, I.size());
  EXPECT_EQ("volume", I.name(0));
  EXPECT_EQ("scratch", I.name(1));
}

TEST(Interner, FindDoesNotIntern) {
  Interner I;
  EXPECT_EQ(Interner::None, I.find("volume"));
  EXPECT_EQ(0u, I.size());
  I.intern("volume");
  EXPECT_EQ(0u, I.find("volume"));
  EXPECT_EQ(Interner::None, I.find("volum"));
}

TEST(Interner, NamesStayValidAcrossGrowth) {
  // The names live in a deque that never moves them; references must
  // survive arbitrarily many later interns (growth moves the table's
  // entries, not the names).
  Interner I;
  I.intern("first");
  const std::string *First = &I.name(0);
  for (int K = 0; K < 1000; ++K)
    I.intern("vol" + std::to_string(K));
  EXPECT_EQ(First, &I.name(0));
  EXPECT_EQ("first", I.name(0));
  EXPECT_EQ(1001u, I.size());
  EXPECT_EQ(500u, I.find("vol499"));
}

//===----------------------------------------------------------------------===//
// FlatTable
//===----------------------------------------------------------------------===//

struct Named {
  std::string Key;
  uint64_t Value = 0;
};

struct Numbered {
  uint64_t Key = 0;
  uint64_t Value = 0;
};

/// Sends every key to one of four homes at the end of any table of 8+
/// slots (a string by its length, an integer by its residue mod 4), so
/// keys share a hash, probes collide and clusters wrap around to slot 0.
struct CollidingHash {
  uint64_t operator()(std::string_view S) const { return ~0ull - S.size() % 4; }
  uint64_t operator()(uint64_t K) const { return ~0ull - K % 4; }
};

using CollidingTable = FlatTable<Named, &Named::Key, CollidingHash>;

/// The table holds exactly what \p M holds.
template <typename Table, typename Model>
void expectSame(const Table &T, const Model &M) {
  ASSERT_EQ(M.size(), T.size());
  for (const auto &[K, V] : M) {
    const auto *E = T.find(K);
    ASSERT_NE(nullptr, E) << K;
    EXPECT_EQ(V, E->Value) << K;
  }
  size_t Seen = 0;
  T.forEach([&](const auto &E) {
    auto It = M.find(E.Key);
    ASSERT_NE(M.end(), It) << E.Key;
    EXPECT_EQ(It->second, E.Value);
    ++Seen;
  });
  EXPECT_EQ(M.size(), Seen);
}

/// Seeded churn of a colliding-hash table of \p Entry against
/// std::unordered_map, over the 600 keys KeyOf(0..599).
template <typename Entry, typename KeyFn> void churnAgainstModel(KeyFn KeyOf) {
  using Key = decltype(Entry::Key);
  Rng R(20261017);
  FlatTable<Entry, &Entry::Key, CollidingHash> T;
  std::unordered_map<Key, uint64_t> Model;
  const Key Absent = KeyOf(600); // never inserted, shares a hash
  size_t MaxSlots = 0;
  for (int Step = 0; Step < 20000; ++Step) {
    Key K = KeyOf(R.below(600));
    uint64_t Roll = R.below(100);
    if (Roll < 45) {
      auto [E, Added] = T.tryEmplace(K);
      EXPECT_EQ(Added, Model.count(K) == 0);
      E->Value = Step;
      Model[K] = Step;
    } else if (Roll < 70) {
      EXPECT_EQ(Model.erase(K) == 1, T.erase(K));
    } else if (Roll < 85) {
      // Erase through a found entry: no second hash.
      if (const Entry *E = T.find(K))
        T.erase(E);
      Model.erase(K);
    } else if (Roll < 98) {
      auto [E, Added] = T.insert(Entry{K, uint64_t(Step)});
      EXPECT_EQ(Added, Model.count(K) == 0);
      Model.emplace(K, Step);
      EXPECT_EQ(Model[K], E->Value);
    } else if (Roll < 99) {
      uint64_t Odd = T.eraseIf([](const Entry &E) { return E.Value % 2; });
      uint64_t ModelOdd = std::erase_if(
          Model, [](const auto &KV) { return KV.second % 2; });
      EXPECT_EQ(ModelOdd, Odd);
    } else if (R.below(20) == 0) {
      T.clear();
      Model.clear();
      EXPECT_EQ(0u, T.slotCount());
    }
    MaxSlots = std::max(MaxSlots, T.slotCount());
    EXPECT_EQ(nullptr, T.find(Absent)); // every probe ends at a free slot
    if (Step % 97 == 0)
      expectSame(T, Model);
  }
  expectSame(T, Model);
  EXPECT_GE(MaxSlots, 512u); // grew well past the first 8 slots
}

TEST(FlatTable, MatchesUnorderedMapUnderSeededChurnWithCollidingHash) {
  // String keys of lengths 2..4, so each hash is shared by hundreds.
  churnAgainstModel<Named>([](uint64_t I) { return "k" + std::to_string(I); });
  // Integer keys that differ in their high bits too; 150 share each hash.
  churnAgainstModel<Numbered>([](uint64_t I) { return I << 33 | I; });
}

TEST(FlatTable, BackwardShiftDeletionWrapsAroundTheSlotArray) {
  CollidingTable T;
  // Four-character keys share one hash whose home is the last slot: the
  // cluster runs from slot 7 over 0, 1 and 2.
  for (const char *K : {"aaa1", "aaa2", "aaa3", "aaa4"})
    T.tryEmplace(K).first->Value = 1;
  ASSERT_EQ(8u, T.slotCount());
  // Erase the cluster's head, then a middle member: what follows shifts
  // back across the wrap and stays reachable.
  EXPECT_TRUE(T.erase("aaa1"));
  EXPECT_TRUE(T.erase("aaa3"));
  EXPECT_FALSE(T.erase("aaa3"));
  EXPECT_EQ(nullptr, T.find("aaa1"));
  EXPECT_EQ(nullptr, T.find("aaa3"));
  ASSERT_NE(nullptr, T.find("aaa2"));
  ASSERT_NE(nullptr, T.find("aaa4"));
  // Refill: the new key lands in the shifted cluster and is found.
  T.tryEmplace("aaa5").first->Value = 2;
  EXPECT_EQ(2u, T.find("aaa5")->Value);
  EXPECT_EQ(3u, T.size());
}

TEST(FlatTable, StabilityRule) {
  FlatTable<Named, &Named::Key> T;
  for (int I = 0; I < 100; ++I)
    T.tryEmplace("name" + std::to_string(I)).first->Value = I;
  std::map<std::string, const Named *> Where;
  T.forEach([&Where](const Named &E) { Where[E.Key] = &E; });
  // find() moves nothing.
  for (int Round = 0; Round < 3; ++Round)
    for (const auto &[K, P] : Where)
      EXPECT_EQ(P, T.find(K));
  // erase() moves nothing either.
  const Named *Victim = T.find("name42");
  T.erase(Victim);
  Where.erase("name42");
  for (const auto &[K, P] : Where)
    EXPECT_EQ(P, T.find(K)) << K;
  // The next insertion reuses the erased entry, value-initialized.
  auto [Fresh, Added] = T.tryEmplace("fresh");
  ASSERT_TRUE(Added);
  EXPECT_EQ(Victim, Fresh);
  EXPECT_EQ(0u, Fresh->Value);
  EXPECT_EQ("fresh", Fresh->Key);
  EXPECT_EQ(100u, T.entryCount());
}

TEST(FlatTable, ChurnAtConstantSizeReusesFreedEntries) {
  FlatTable<Named, &Named::Key> T;
  for (int I = 0; I < 1000; ++I)
    T.tryEmplace("a-name-longer-than-the-small-buffer-" + std::to_string(I));
  size_t Entries = T.entryCount();
  size_t Slots = T.slotCount();
  // Erase one, add one: the freed entry and slot are reused, so neither
  // array grows.
  for (int I = 1000; I < 20000; ++I) {
    std::string Old = "a-name-longer-than-the-small-buffer-";
    Old += std::to_string(I - 1000);
    ASSERT_TRUE(T.erase(Old));
    ASSERT_TRUE(
        T.insert(Named{"b" + std::to_string(I), uint64_t(I)}).second);
    ASSERT_TRUE(T.erase("b" + std::to_string(I)));
    std::string New = "a-name-longer-than-the-small-buffer-";
    New += std::to_string(I);
    ASSERT_TRUE(T.tryEmplace(New).second);
  }
  EXPECT_EQ(1000u, T.size());
  EXPECT_EQ(Entries, T.entryCount());
  EXPECT_EQ(Slots, T.slotCount());
  EXPECT_NE(nullptr, T.find("a-name-longer-than-the-small-buffer-19999"));
  EXPECT_EQ(nullptr, T.find("a-name-longer-than-the-small-buffer-18999"));
}

TEST(TextTable, AlignsColumns) {
  TextTable T;
  T.setHeader({"name", "ops/s"});
  T.addRow({"NFS", "5000"});
  T.addRow({"Lustre", "12000"});
  std::string Out = T.render();
  EXPECT_NE(std::string::npos, Out.find("name"));
  EXPECT_NE(std::string::npos, Out.find("Lustre"));
  EXPECT_NE(std::string::npos, Out.find("12000"));
  EXPECT_EQ(2u, T.numRows());
  // Numeric cells are right-aligned: "5000" is preceded by a space pad.
  EXPECT_NE(std::string::npos, Out.find(" 5000"));
}

} // namespace
