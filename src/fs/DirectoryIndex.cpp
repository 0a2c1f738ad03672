//===- fs/DirectoryIndex.cpp ----------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "fs/DirectoryIndex.h"
#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <unordered_set>

using namespace dmb;

DirectoryIndex::~DirectoryIndex() = default;

const char *dmb::dirIndexKindName(DirIndexKind K) {
  switch (K) {
  case DirIndexKind::Linear:
    return "linear";
  case DirIndexKind::Hashed:
    return "hashed";
  case DirIndexKind::BTree:
    return "btree";
  }
  return "unknown";
}

namespace {

/// UFS-style directory: a flat list of entries scanned front to back
/// (thesis Fig. 2.4). Lookup cost is the number of entries compared.
class LinearDirectory : public DirectoryIndex {
public:
  const DirEntry *lookup(std::string_view Name,
                         OpCost &Cost) const override {
    for (size_t I = 0, E = Entries.size(); I != E; ++I) {
      ++Cost.DirEntriesScanned;
      if (Entries[I].Name == Name)
        return &Entries[I];
    }
    return nullptr;
  }

  void insert(DirEntry Entry, OpCost &Cost) override {
    // Creation must first prove uniqueness: a full scan.
    Cost.DirEntriesScanned += Entries.size();
    ++Cost.DirEntriesWritten;
    Entries.push_back(std::move(Entry));
  }

  bool erase(std::string_view Name, OpCost &Cost) override {
    for (size_t I = 0, E = Entries.size(); I != E; ++I) {
      ++Cost.DirEntriesScanned;
      if (Entries[I].Name == Name) {
        ++Cost.DirEntriesWritten;
        Entries.erase(Entries.begin() + static_cast<ptrdiff_t>(I));
        return true;
      }
    }
    return false;
  }

  void list(std::vector<DirEntry> &Out, OpCost &Cost) const override {
    Cost.DirEntriesScanned += Entries.size();
    Out.insert(Out.end(), Entries.begin(), Entries.end());
  }

  size_t size() const override { return Entries.size(); }

private:
  std::vector<DirEntry> Entries;
};

/// Hash and equality of directory entries by name, transparent to a
/// std::string_view so lookups need no key object.
struct EntryNameHash {
  using is_transparent = void;
  size_t operator()(std::string_view Name) const {
    return std::hash<std::string_view>{}(Name);
  }
  size_t operator()(const DirEntry &E) const { return (*this)(E.Name); }
};

std::string_view entryName(std::string_view Name) { return Name; }
std::string_view entryName(const DirEntry &E) { return E.Name; }

struct EntryNameEq {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A &X, const B &Y) const {
    return entryName(X) == entryName(Y);
  }
};

struct EntryNameLess {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A &X, const B &Y) const {
    return entryName(X) < entryName(Y);
  }
};

/// WAFL-style hashed directory: expected O(1) lookups with a small constant
/// number of probed entries.
class HashedDirectory : public DirectoryIndex {
public:
  const DirEntry *lookup(std::string_view Name,
                         OpCost &Cost) const override {
    ++Cost.DirEntriesScanned;
    auto It = Set.find(Name);
    return It == Set.end() ? nullptr : &*It;
  }

  void insert(DirEntry Entry, OpCost &Cost) override {
    ++Cost.DirEntriesScanned;
    ++Cost.DirEntriesWritten;
    Set.insert(std::move(Entry));
  }

  bool erase(std::string_view Name, OpCost &Cost) override {
    ++Cost.DirEntriesScanned;
    auto It = Set.find(Name);
    if (It == Set.end())
      return false;
    Set.erase(It);
    ++Cost.DirEntriesWritten;
    return true;
  }

  void list(std::vector<DirEntry> &Out, OpCost &Cost) const override {
    Cost.DirEntriesScanned += Set.size();
    // Deterministic listing order: sort by name (real readdir order for a
    // hash directory is arbitrary; sorting keeps simulations reproducible).
    size_t Start = Out.size();
    Out.insert(Out.end(), Set.begin(), Set.end());
    std::sort(Out.begin() + static_cast<ptrdiff_t>(Start), Out.end(),
              EntryNameLess());
  }

  size_t size() const override { return Set.size(); }

private:
  std::unordered_set<DirEntry, EntryNameHash, EntryNameEq> Set;
};

/// XFS/ext3-style tree directory: O(log n) lookups.
class BTreeDirectory : public DirectoryIndex {
public:
  const DirEntry *lookup(std::string_view Name,
                         OpCost &Cost) const override {
    Cost.DirEntriesScanned += logCost();
    auto It = Set.find(Name);
    return It == Set.end() ? nullptr : &*It;
  }

  void insert(DirEntry Entry, OpCost &Cost) override {
    Cost.DirEntriesScanned += logCost();
    ++Cost.DirEntriesWritten;
    Set.insert(std::move(Entry));
  }

  bool erase(std::string_view Name, OpCost &Cost) override {
    Cost.DirEntriesScanned += logCost();
    auto It = Set.find(Name);
    if (It == Set.end())
      return false;
    Set.erase(It);
    ++Cost.DirEntriesWritten;
    return true;
  }

  void list(std::vector<DirEntry> &Out, OpCost &Cost) const override {
    Cost.DirEntriesScanned += Set.size();
    Out.insert(Out.end(), Set.begin(), Set.end());
  }

  size_t size() const override { return Set.size(); }

private:
  uint64_t logCost() const {
    size_t N = Set.size();
    if (N < 2)
      return 1;
    return static_cast<uint64_t>(std::ceil(std::log2(double(N)))) + 1;
  }

  std::set<DirEntry, EntryNameLess> Set;
};

} // namespace

std::unique_ptr<DirectoryIndex> dmb::makeDirectoryIndex(DirIndexKind Kind) {
  switch (Kind) {
  case DirIndexKind::Linear:
    return std::make_unique<LinearDirectory>();
  case DirIndexKind::Hashed:
    return std::make_unique<HashedDirectory>();
  case DirIndexKind::BTree:
    return std::make_unique<BTreeDirectory>();
  }
  return nullptr;
}
