//===- dfs/Journal.cpp -----------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/Journal.h"
#include "dfs/FileServer.h"
#include "support/Assert.h"
#include <algorithm>

using namespace dmb;

bool MetadataJournal::isJournalable(const MetaRequest &Req) {
  switch (Req.Op) {
  case MetaOp::Mkdir:
  case MetaOp::Rmdir:
  case MetaOp::Unlink:
  case MetaOp::Remove:
  case MetaOp::Rename:
  case MetaOp::Link:
  case MetaOp::Symlink:
  case MetaOp::Chmod:
  case MetaOp::Chown:
  case MetaOp::Utimes:
  case MetaOp::Setxattr:
    return true;
  case MetaOp::Open:
    // Creating opens are replayed as create+close.
    return (Req.Flags & OpenCreate) != 0;
  default:
    return false;
  }
}

char *MetadataJournal::allocBytes(size_t N) {
  if (N > ArenaLeft) {
    // The rest of the current chunk stays unused: a record's bytes are
    // contiguous.
    size_t Size = std::max(N, ArenaChunkBytes);
    ArenaChunks.push_back(std::make_unique_for_overwrite<char[]>(Size));
    ArenaNext = ArenaChunks.back().get();
    ArenaLeft = Size;
  }
  char *P = ArenaNext;
  ArenaNext += N;
  ArenaLeft -= N;
  return P;
}

std::optional<uint64_t> MetadataJournal::append(std::string_view Volume,
                                                const MetaRequest &Req,
                                                SimTime Now) {
  if (!isJournalable(Req))
    return std::nullopt;
  uint32_t VolId = VolumeIds.intern(Volume);
  if (VolId >= Frontier.size())
    Frontier.resize(VolId + 1, 0);
  if (Count % RecordsPerChunk == 0)
    RecordChunks.push_back(std::make_unique<Record[]>(RecordsPerChunk));
  Record &R = at(Count++);
  R.At = Now;
  R.Atime = Req.Atime;
  R.Mtime = Req.Mtime;
  R.PathLen = static_cast<uint32_t>(Req.Path.size());
  R.Path2Len = static_cast<uint32_t>(Req.Path2.size());
  R.ValueLen = static_cast<uint32_t>(Req.Value.size());
  char *Bytes = allocBytes(Req.Path.size() + Req.Path2.size() +
                           Req.Value.size());
  R.Bytes = Bytes;
  Bytes = std::copy(Req.Path.begin(), Req.Path.end(), Bytes);
  Bytes = std::copy(Req.Path2.begin(), Req.Path2.end(), Bytes);
  std::copy(Req.Value.begin(), Req.Value.end(), Bytes);
  R.Creds = Req.Creds;
  R.Flags = Req.Flags;
  R.Mode = Req.Mode;
  R.Uid = Req.Uid;
  R.Gid = Req.Gid;
  R.VolId = VolId;
  R.Op = Req.Op;
  return Count;
}

void MetadataJournal::rebuild(const Record &R, MetaRequest &Req) {
  Req.Op = R.Op;
  Req.Creds = R.Creds;
  const char *Bytes = R.Bytes;
  Req.Path.assign(Bytes, R.PathLen);
  Bytes += R.PathLen;
  Req.Path2.assign(Bytes, R.Path2Len);
  Bytes += R.Path2Len;
  Req.Value.assign(Bytes, R.ValueLen);
  Req.Flags = R.Flags;
  Req.Mode = R.Mode;
  Req.Uid = R.Uid;
  Req.Gid = R.Gid;
  Req.Atime = R.Atime;
  Req.Mtime = R.Mtime;
}

void MetadataJournal::commit(uint64_t Seq) {
  // Sequence numbers are dense and 1-based.
  if (!exists(Seq))
    return;
  Record &R = at(Seq - 1);
  if (R.Discarded || R.Persisted)
    return;
  R.Persisted = true;
  advanceFrontier(R.VolId);
}

void MetadataJournal::advanceFrontier(uint32_t VolId) {
  size_t I = Frontier[VolId];
  while (I < Count) {
    // Re-index each iteration: the hook may append records before control
    // returns here.
    Record &R = at(I);
    if (R.VolId != VolId || R.Discarded || R.Committed) {
      ++I;
      continue;
    }
    if (!R.Persisted)
      break; // hole: later persisted records stay held
    R.Committed = true;
    uint64_t Seq = ++I;
    Frontier[VolId] = I;
    if (CommitHook) {
      CommitHook(Seq);
      // The hook may have committed further records of this volume (and
      // moved its frontier), or interned a volume and so moved Frontier.
      I = Frontier[VolId];
    }
  }
  Frontier[VolId] = I;
}

size_t MetadataJournal::discardUncommitted(std::string_view Volume) {
  uint32_t VolId = VolumeIds.find(Volume);
  size_t N = 0;
  for (size_t I = 0; I != Count; ++I)
    if (Record &R = at(I); !R.Committed && !R.Discarded && R.VolId == VolId) {
      R.Discarded = true;
      ++N;
    }
  return N;
}

void MetadataJournal::commitAll() {
  for (size_t I = 0; I != Count; ++I)
    if (Record &R = at(I); !R.Discarded) {
      R.Persisted = true;
      R.Committed = true;
    }
}

size_t MetadataJournal::committedCount() const {
  size_t N = 0;
  for (size_t I = 0; I != Count; ++I)
    if (at(I).Committed)
      ++N;
  return N;
}

size_t MetadataJournal::uncommittedCount(std::string_view Volume) const {
  uint32_t VolId = VolumeIds.find(Volume);
  size_t N = 0;
  for (size_t I = 0; I != Count; ++I)
    if (const Record &R = at(I);
        !R.Committed && !R.Discarded && R.VolId == VolId)
      ++N;
  return N;
}

void MetadataJournal::replay(std::string_view Volume,
                             LocalFileSystem &Fs) const {
  uint32_t VolId = VolumeIds.find(Volume);
  MetaRequest Req; // rebuilt per record, its buffers reused
  for (size_t I = 0; I != Count; ++I) {
    const Record &R = at(I);
    if (!R.Committed || R.VolId != VolId)
      continue;
    rebuild(R, Req);
    OpCost Cost;
    MetaReply Reply = FileServer::execute(Fs, Req, R.At, Cost);
    // A successful creating open leaves a handle; close it right away.
    if (R.Op == MetaOp::Open && Reply.ok()) {
      OpCtx Ctx;
      Ctx.Creds = R.Creds;
      Ctx.Now = R.At;
      [[maybe_unused]] FsError CloseErr = Fs.close(Ctx, Reply.Fh);
      DMB_ASSERT(CloseErr == FsError::Ok,
                 "journal replay: closing a just-opened handle failed");
    }
  }
}
