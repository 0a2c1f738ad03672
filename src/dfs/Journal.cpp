//===- dfs/Journal.cpp -----------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/Journal.h"
#include "dfs/FileServer.h"
#include "support/Assert.h"

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

std::optional<uint64_t> MetadataJournal::append(std::string_view Volume,
                                                const MetaRequest &Req,
                                                SimTime Now) {
  if (!isJournalable(Req))
    return std::nullopt;
  uint32_t VolId = VolumeIds.intern(Volume);
  if (VolId >= Frontier.size())
    Frontier.resize(VolId + 1, 0);
  Record &R = Records.emplace_back();
  R.Seq = NextSeq++;
  R.Req = Req;
  R.At = Now;
  R.VolId = VolId;
  return R.Seq;
}

void MetadataJournal::commit(uint64_t Seq) {
  // Sequence numbers are dense and 1-based.
  if (Seq == 0 || Seq > Records.size())
    return;
  Record &R = Records[Seq - 1];
  if (R.Discarded || R.Persisted)
    return;
  R.Persisted = true;
  advanceFrontier(R.VolId);
}

void MetadataJournal::advanceFrontier(uint32_t VolId) {
  size_t I = Frontier[VolId];
  while (I < Records.size()) {
    // Re-index each iteration: the hook may append records before control
    // returns here.
    Record &R = Records[I];
    if (R.VolId != VolId || R.Discarded || R.Committed) {
      ++I;
      continue;
    }
    if (!R.Persisted)
      break; // hole: later persisted records stay held
    R.Committed = true;
    uint64_t Seq = R.Seq;
    Frontier[VolId] = ++I;
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
  for (Record &R : Records)
    if (!R.Committed && !R.Discarded && R.VolId == VolId) {
      R.Discarded = true;
      ++N;
    }
  return N;
}

void MetadataJournal::commitAll() {
  for (Record &R : Records)
    if (!R.Discarded) {
      R.Persisted = true;
      R.Committed = true;
    }
}

size_t MetadataJournal::committedCount() const {
  size_t N = 0;
  for (const Record &R : Records)
    if (R.Committed)
      ++N;
  return N;
}

size_t MetadataJournal::uncommittedCount(std::string_view Volume) const {
  uint32_t VolId = VolumeIds.find(Volume);
  size_t N = 0;
  for (const Record &R : Records)
    if (!R.Committed && !R.Discarded && R.VolId == VolId)
      ++N;
  return N;
}

void MetadataJournal::replay(std::string_view Volume,
                             LocalFileSystem &Fs) const {
  uint32_t VolId = VolumeIds.find(Volume);
  for (const Record &R : Records) {
    if (!R.Committed || R.VolId != VolId)
      continue;
    OpCost Cost;
    MetaReply Reply = FileServer::execute(Fs, R.Req, R.At, Cost);
    // A successful creating open leaves a handle; close it right away.
    if (R.Req.Op == MetaOp::Open && Reply.ok()) {
      OpCtx Ctx;
      Ctx.Creds = R.Req.Creds;
      Ctx.Now = R.At;
      [[maybe_unused]] FsError CloseErr = Fs.close(Ctx, Reply.Fh);
      DMB_ASSERT(CloseErr == FsError::Ok,
                 "journal replay: closing a just-opened handle failed");
    }
  }
}
