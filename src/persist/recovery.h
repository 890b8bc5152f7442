#ifndef DDC_PERSIST_RECOVERY_H_
#define DDC_PERSIST_RECOVERY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/clusterer.h"
#include "core/params.h"
#include "persist/wal.h"

namespace ddc {

/// \file
/// Crash recovery: reassembling the pre-crash clustering from a durability
/// directory (RUNMETA.json + WAL segments).
///
/// The live structures (grids, CC forests, IncDBSCAN graphs) are never
/// written to disk. Every algorithm here is deterministic in its op stream
/// and assigns ids monotonically, so replaying the whole log into a fresh
/// clusterer of the logged method reproduces the pre-crash clustering
/// bit-identically, and a writer could resume appending where the log ends.
/// A torn record at the tail of the last segment is truncated (those ops
/// were never acknowledged). Everything else is a hard error: corruption
/// anywhere earlier, a log whose first segment does not start at seq 1, and
/// a logged op the replay contradicts (an insert assigned another id, a
/// delete of an id that is not alive). Recovery never skips over
/// acknowledged data or accepts a bad CRC.

/// Provenance of a durability directory, stored as RUNMETA.json next to the
/// WAL segments so `--recover` is self-contained: it tells recovery which
/// method and parameters produced the log it is about to replay.
struct RunMeta {
  std::string method;    // Full method spec.
  std::string scenario;  // Scenario spec the run executed (provenance).
  uint64_t seed = 0;     // Workload seed (lets --recover-verify rebuild it).
  DbscanParams params;   // Effective params (bit-exact round trip).
};

/// Writes `dir`/RUNMETA.json atomically. False (with *error) on failure.
bool WriteRunMeta(const std::string& dir, const RunMeta& meta,
                  std::string* error);

/// Reads `dir`/RUNMETA.json. False with an actionable *error naming the
/// file and field on a missing file, unparsable JSON, a missing or
/// malformed field, or params that DbscanParams::RangeError rejects.
bool ReadRunMeta(const std::string& dir, RunMeta* meta, std::string* error);

struct RecoveryResult {
  /// Fresh clusterer of the run's method with every logged op re-applied.
  std::unique_ptr<Clusterer> clusterer;
  /// The replayed ops, in order (inserts carry their validated ids).
  std::vector<WalOp> ops;
  WalReplayReport wal;

  /// Human-readable recovery log: tail truncation, replay extent.
  std::vector<std::string> notes;
};

/// Recovers from `dir` (which holds RUNMETA.json and wal-*.log files):
/// replays the WAL into a fresh clusterer of `meta.method`, checking every
/// logged insert against the id the replay assigns and every logged delete
/// against the ids alive at that point (a mismatch means the log does not
/// belong to this method/params). False (with *error) when the log is
/// unusable; `result->clusterer` is then null.
bool Recover(const std::string& dir, const RunMeta& meta,
             RecoveryResult* result, std::string* error);

/// ReadRunMeta + Recover in one step.
bool RecoverFromDir(const std::string& dir, RecoveryResult* result,
                    RunMeta* meta, std::string* error);

}  // namespace ddc

#endif  // DDC_PERSIST_RECOVERY_H_
