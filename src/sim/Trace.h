//===- sim/Trace.h - Per-operation span tracing ------------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Operation-level tracing: one record per benchmark operation, carrying
/// the simulated timestamps of the hops an operation takes through the
/// client/server machinery (client submit, network out, server queue
/// entry, service start/end, reply delivery). The thesis's interval logs
/// (\S 3.2.5) show *how many* operations finished per 0.1 s; these spans
/// show *where the time inside one operation went* — the per-hop
/// attribution that turns a throughput dip into a diagnosis (e.g. \S 4.6:
/// is a slow create paying network round trips or server service time?).
///
/// The sink is passive storage. Components never talk to it directly:
/// they record through the owning Scheduler (traceBegin / traceStamp /
/// traceFinish), which guarantees every timestamp is read from that
/// scheduler's simulated clock — dmeta-analyze's trace-clock rule enforces
/// this. Tracing is off unless a sink is attached, and recording never
/// schedules events, so enabling it cannot change simulated timing.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_SIM_TRACE_H
#define DMETABENCH_SIM_TRACE_H

#include "sim/Time.h"
#include "support/Interner.h"
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dmb {

/// The span boundaries recorded for one traced operation, in causal order
/// for a synchronous RPC. Write-back models may deliver the reply before
/// service ends; the record keeps whatever order really happened.
enum class TracePoint : uint8_t {
  Submit,       ///< client submitted the request (after client CPU work)
  NetOut,       ///< request left the client (RPC slot granted / on wire)
  QueueEnter,   ///< request arrived at the server (enters the CPU queue)
  ServiceStart, ///< a server execution unit picked the request up
  ServiceEnd,   ///< server finished servicing (commit included)
  Deliver,      ///< reply callback delivered to the submitter
};

/// Number of TracePoint values (array dimension).
constexpr size_t NumTracePoints = 6;

/// Timestamp value meaning "this point was never reached".
constexpr SimTime TraceUnset = -1;

/// One operation's span record.
struct OpTraceRecord {
  uint64_t Id = 0;
  /// Operation name; must point at storage outliving the sink (the
  /// metaOpName() string table in practice).
  const char *Op = "";
  /// The sink's interned id for Op (see OpTraceSink::opName()). Analysis
  /// passes group records by this id instead of re-hashing the name for
  /// every record.
  uint32_t OpId = 0;
  SimTime At[NumTracePoints] = {TraceUnset, TraceUnset, TraceUnset,
                                TraceUnset, TraceUnset, TraceUnset};

  bool has(TracePoint P) const {
    return At[static_cast<size_t>(P)] != TraceUnset;
  }
  SimTime at(TracePoint P) const { return At[static_cast<size_t>(P)]; }
  bool delivered() const { return has(TracePoint::Deliver); }
};

/// Collects span records for one scheduler's operations. Attach with
/// Scheduler::setTraceSink(); ids are handed out by beginOp() and flow
/// through the event graph (see Scheduler). Stamps against unknown ids
/// (id 0, or an id from another sink) are ignored, so late background
/// work — a write-back commit after its benchmark finished — stays safe.
class OpTraceSink {
public:
  /// Opens a record for one operation; stamps Submit at \p Now. Returns
  /// the new record's id (never 0).
  uint64_t beginOp(const char *Op, SimTime Now);

  /// Records \p P at \p Now for record \p Id. First stamp wins, except
  /// ServiceStart/ServiceEnd where the last stamp wins — an operation
  /// forwarded between servers (GX indirect volumes) is "in service" until
  /// the last hop finishes.
  void stamp(uint64_t Id, TracePoint P, SimTime Now);

  /// Records reply delivery at \p Now. The record stays addressable:
  /// stamps may still arrive after delivery (write-back commits).
  void finishOp(uint64_t Id, SimTime Now) {
    stamp(Id, TracePoint::Deliver, Now);
  }

  /// Every record opened so far, in beginOp() order.
  const std::vector<OpTraceRecord> &records() const { return Records; }

  /// Records not yet delivered (in-flight operations).
  size_t liveOps() const;

  /// Drops all records (between sweep points of a bench). Keeps the
  /// record storage and the op-name table: ids stay valid across sweeps
  /// and the next run records into already-sized memory.
  void clear() { Records.clear(); }

  /// Pre-sizes record storage for an expected operation count, so a
  /// benchmark of known size records without reallocation.
  void reserveOps(size_t Expected) { Records.reserve(Expected); }

  /// \name Interned operation names
  /// @{
  /// Number of distinct op names seen (ids are 0 .. opCount()-1).
  uint32_t opCount() const { return OpNames.size(); }
  /// The name behind an OpTraceRecord::OpId.
  const std::string &opName(uint32_t OpId) const { return OpNames.name(OpId); }
  /// The id of \p Op, or Interner::None when no record used it.
  uint32_t opId(std::string_view Op) const { return OpNames.find(Op); }
  /// @}

private:
  uint32_t internOp(const char *Op);

  std::vector<OpTraceRecord> Records;
  Interner OpNames;
  /// beginOp() is on the per-operation hot path and its name almost always
  /// arrives as the same static string (metaOpName's table), so a tiny
  /// pointer -> id cache makes re-interning a pointer comparison.
  std::vector<std::pair<const char *, uint32_t>> OpPtrIds;
};

} // namespace dmb

#endif // DMETABENCH_SIM_TRACE_H
