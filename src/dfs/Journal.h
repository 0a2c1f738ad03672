//===- dfs/Journal.h - Metadata write-ahead journal ---------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Metadata logging as in thesis \S 2.7.1: a write-ahead change log for
/// namespace mutations. With asynchronous logging "some metadata
/// operations might be lost, but the file system can still be made
/// consistent" — replaying the committed prefix of the journal into a
/// fresh store reconstructs a consistent namespace after a crash.
///
/// Only logical namespace operations are journaled; file *data* beyond
/// the existence/size recorded by creates is not (data durability needs
/// fsync, \S 2.6.4).
///
/// Records live in chunked storage, so an append never copies the log,
/// and name their volume by an id the journal interns.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_JOURNAL_H
#define DMETABENCH_DFS_JOURNAL_H

#include "dfs/Message.h"
#include "fs/LocalFileSystem.h"
#include "support/Interner.h"
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

namespace dmb {

/// Redo log of namespace mutations, per server (records carry their
/// volume).
class MetadataJournal {
public:
  /// One logged mutation.
  struct Record {
    uint64_t Seq = 0;
    MetaRequest Req;
    SimTime At = 0;
    uint32_t VolId = 0; ///< the record's volume, as this journal interned it
    bool Persisted = false; ///< stable write finished (may still be held)
    bool Committed = false;
    bool Discarded = false; ///< lost in a crash; can no longer commit
  };

  /// True when \p Req can be re-executed from the log (path-based
  /// namespace mutations; handle-based data ops cannot).
  static bool isJournalable(const MetaRequest &Req);

  /// Appends a record; returns its sequence number, or nullopt when the
  /// operation is not journalable.
  std::optional<uint64_t> append(std::string_view Volume,
                                 const MetaRequest &Req, SimTime Now);

  /// Marks \p Seq's stable write as finished. A record only *commits*
  /// (becomes replayable, visible to isCommitted(), eligible for the
  /// onCommit hook) once every earlier non-discarded record of the same
  /// volume has committed too: a redo log is only usable up to its first
  /// hole, so the committed set must stay a per-volume log prefix even
  /// when a multi-threaded server finishes stable writes out of append
  /// order. Out-of-order persists are held and released in log order.
  void commit(uint64_t Seq);

  /// True when \p Seq exists and has been committed (false for pending,
  /// held-out-of-order, or discarded records).
  bool isCommitted(uint64_t Seq) const {
    return Seq != 0 && Seq <= Records.size() && Records[Seq - 1].Committed;
  }

  /// True when \p Seq exists and was discarded by a crash.
  bool isDiscarded(uint64_t Seq) const {
    return Seq != 0 && Seq <= Records.size() && Records[Seq - 1].Discarded;
  }

  /// Registers the single commit observer: fires once per record, in
  /// per-volume log order, when the record commits. Servers park replies
  /// or dirty-op accounting on this to ack in prefix order.
  void onCommit(std::function<void(uint64_t)> Hook) {
    CommitHook = std::move(Hook);
  }

  /// Marks everything not lost to a crash as durable (synchronous-journal
  /// mode). Discarded records stay discarded: resurrecting them would
  /// replay operations whose effects a crash already destroyed.
  void commitAll();

  /// Re-executes the committed records for \p Volume into \p Fs in log
  /// order. Replay is idempotent per record; errors are ignored (redo
  /// into a fresh store cannot conflict).
  void replay(std::string_view Volume, LocalFileSystem &Fs) const;

  /// Invalidates the uncommitted records of \p Volume (what a crash
  /// destroys); returns how many were lost.
  size_t discardUncommitted(std::string_view Volume);

  size_t size() const { return Records.size(); }
  size_t committedCount() const;
  /// Records for \p Volume that were appended but not committed — what a
  /// crash loses under asynchronous logging. Persisted records held
  /// behind an unpersisted predecessor count too: on disk the log has a
  /// hole before them, so a crash cannot use them.
  size_t uncommittedCount(std::string_view Volume) const;

private:
  /// Commits the longest committable prefix of volume \p VolId starting at
  /// its frontier, firing CommitHook per newly committed record.
  void advanceFrontier(uint32_t VolId);

  /// In log order; a deque never moves or copies its records.
  std::deque<Record> Records;
  uint64_t NextSeq = 1;
  Interner VolumeIds;
  /// Per volume id: the index into Records below which every record of
  /// that volume is committed or discarded.
  std::vector<size_t> Frontier;
  std::function<void(uint64_t)> CommitHook;
};

} // namespace dmb

#endif // DMETABENCH_DFS_JOURNAL_H
