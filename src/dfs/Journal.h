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
/// A record is compact, like a Lustre changelog record (type, target,
/// parent, name): the fixed fields of the request it logs, and the
/// Path, Path2 and Value bytes in an append-only arena. Records and arena
/// live in fixed-size chunks, so an append never copies the log, and a
/// record's position is its sequence number. It names its volume by an
/// id the journal interns.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_JOURNAL_H
#define DMETABENCH_DFS_JOURNAL_H

#include "dfs/Message.h"
#include "fs/LocalFileSystem.h"
#include "support/Interner.h"
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

namespace dmb {

/// Redo log of namespace mutations, per server (records carry their
/// volume).
class MetadataJournal {
public:
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
    return exists(Seq) && record(Seq).Committed;
  }

  /// True when \p Seq exists and was discarded by a crash.
  bool isDiscarded(uint64_t Seq) const {
    return exists(Seq) && record(Seq).Discarded;
  }

  /// True when \p Seq's stable write finished: it committed, is held
  /// behind an earlier record, or was held when a crash discarded it.
  bool isPersisted(uint64_t Seq) const {
    return exists(Seq) && record(Seq).Persisted;
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

  size_t size() const { return Count; }
  size_t committedCount() const;
  /// Records for \p Volume that were appended but not committed — what a
  /// crash loses under asynchronous logging. Persisted records held
  /// behind an unpersisted predecessor count too: on disk the log has a
  /// hole before them, so a crash cannot use them.
  size_t uncommittedCount(std::string_view Volume) const;

private:
  /// One logged mutation: the fields of its request that
  /// FileServer::execute reads for a journalable op. Fh, Bytes and the
  /// retransmit identity are not among them.
  struct Record {
    SimTime At = 0;
    SimTime Atime = 0;
    SimTime Mtime = 0;
    const char *Bytes = nullptr; ///< Path, Path2 and Value, in the arena
    uint32_t PathLen = 0;
    uint32_t Path2Len = 0;
    uint32_t ValueLen = 0;
    Cred Creds;
    uint32_t Flags = 0;
    uint32_t Mode = 0;
    uint32_t Uid = 0;
    uint32_t Gid = 0;
    uint32_t VolId = 0; ///< the record's volume, as this journal interned it
    MetaOp Op = MetaOp::Stat;
    bool Persisted = false; ///< stable write finished (may still be held)
    bool Committed = false;
    bool Discarded = false; ///< lost in a crash; can no longer commit
  };
  static_assert(sizeof(Record) == 80,
                "a journal record keeps only the fixed fields of a request");

  static constexpr size_t RecordsPerChunk = 1024;
  static constexpr size_t ArenaChunkBytes = 64 * 1024;

  bool exists(uint64_t Seq) const { return Seq != 0 && Seq <= Count; }
  /// The record at 0-based log position \p I.
  Record &at(size_t I) {
    return RecordChunks[I / RecordsPerChunk][I % RecordsPerChunk];
  }
  const Record &at(size_t I) const {
    return RecordChunks[I / RecordsPerChunk][I % RecordsPerChunk];
  }
  const Record &record(uint64_t Seq) const { return at(Seq - 1); }
  /// \p N bytes of arena, contiguous and never moved.
  char *allocBytes(size_t N);
  /// Fills \p Req with \p R's request, reusing its strings' buffers.
  static void rebuild(const Record &R, MetaRequest &Req);

  /// Commits the longest committable prefix of volume \p VolId starting at
  /// its frontier, firing CommitHook per newly committed record.
  void advanceFrontier(uint32_t VolId);

  /// Records in log order, in chunks that never move.
  std::vector<std::unique_ptr<Record[]>> RecordChunks;
  size_t Count = 0;
  /// The arena: chunks that are filled front to back and never freed.
  std::vector<std::unique_ptr<char[]>> ArenaChunks;
  char *ArenaNext = nullptr;
  size_t ArenaLeft = 0;
  Interner VolumeIds;
  /// Per volume id: the index into the log below which every record of
  /// that volume is committed or discarded.
  std::vector<size_t> Frontier;
  std::function<void(uint64_t)> CommitHook;
};

} // namespace dmb

#endif // DMETABENCH_DFS_JOURNAL_H
