#ifndef DDC_PERSIST_WAL_H_
#define DDC_PERSIST_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/io.h"
#include "geom/point.h"

namespace ddc {

/// \file
/// Write-ahead log of the applied update stream: an append-only,
/// segment-rotating sequence of length-prefixed, CRC-checksummed records.
/// One record per applied insert/delete, written *after* the clusterer
/// applied the op (so an insert record carries the id the clusterer
/// assigned) and made durable per the configured fsync policy before the op
/// is acknowledged. Replaying the logged prefix into a fresh clusterer of
/// the same method reproduces the pre-crash clustering bit-identically —
/// ids are assigned monotonically by insertion order, and every algorithm
/// in this repo is deterministic in its op stream.
///
/// On-disk layout (all integers little-endian):
///
///   segment file  wal-<first_seq, 16 hex digits>.log
///     [8]  magic "DDCWAL01"
///     [8]  first_seq of this segment
///     [4]  CRC32 of the first_seq field
///     records...
///
///   record
///     [4]  payload length (<= kWalMaxRecordBytes)
///     [4]  CRC32 of the payload
///     [n]  payload (EncodeWalOp)
///
/// A torn tail — a record whose length field, payload, or CRC the crash cut
/// short — is detected by the reader and cleanly truncated; a corrupt
/// record anywhere *before* the tail is a hard error (recovery refuses to
/// skip over acknowledged data). A bad CRC is never silently applied.

/// One logged operation.
struct WalOp {
  enum class Type : uint8_t { kInsert = 1, kDelete = 2 };

  Type type = Type::kInsert;
  /// Position in the logged stream, 1-based, assigned by the writer.
  uint64_t seq = 0;
  /// Insert: the PointId the clusterer assigned (replay validates against
  /// it). Delete: the id being deleted.
  PointId id = kInvalidPoint;
  /// Insert only.
  int dim = 0;
  Point point;

  friend bool operator==(const WalOp& a, const WalOp& b) {
    return a.type == b.type && a.seq == b.seq && a.id == b.id &&
           a.dim == b.dim && (a.type == Type::kDelete || a.point == b.point);
  }
};

/// Upper bound on a record payload; a length field beyond it is corruption,
/// not a huge record (the largest legitimate payload is an insert at
/// kMaxDim, well under 100 bytes).
inline constexpr uint32_t kWalMaxRecordBytes = 4096;

/// Serializes `op` into the record payload format.
std::string EncodeWalOp(const WalOp& op);

/// Parses a record payload; false on malformed input (bad type, dim out of
/// [1, kMaxDim], length mismatch).
bool DecodeWalOp(std::string_view payload, WalOp* op);

/// Appends one framed record (length + CRC + payload) to `file`.
bool AppendWalRecord(WritableFile& file, std::string_view payload);

/// Segment file name for the segment starting at `first_seq`.
std::string WalSegmentName(uint64_t first_seq);

class WalWriter {
 public:
  struct Options {
    /// Rotate to a new segment once the current one reaches this size.
    int64_t segment_bytes = 1 << 20;
    /// fsync policy: 0 = never (buffered writes still reach the OS per
    /// append, so a SIGKILL loses nothing — only a power failure can);
    /// 1 = fsync every record; N > 1 = group commit, fsync once every N
    /// records (and on Close).
    int sync_every = 0;
    /// Segment file opener; tests interpose fault injection here.
    WritableFileFactory factory;
  };

  /// Logs into `dir` (created if missing). Refuses a directory that already
  /// contains WAL segments — a writer never appends to a log it did not
  /// write (recovery owns old logs). Check ok() after construction.
  WalWriter(const std::string& dir, const Options& options);

  ~WalWriter();

  /// Assigns the next seq to `op` (in place), appends the record, and
  /// applies the durability policy. True when the record is accepted and —
  /// under sync_every == 1 — durable. False latches the first error.
  bool Append(WalOp& op);

  /// Forces buffered records to stable storage (group-commit flush point).
  bool Sync();

  /// Sync + close the current segment. Idempotent.
  bool Close();

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  /// Sequence number the next Append will assign.
  uint64_t next_seq() const { return next_seq_; }
  int64_t bytes_written() const { return total_bytes_; }
  int segments_opened() const { return segments_opened_; }

 private:
  bool OpenSegment(uint64_t first_seq);
  void Latch(const std::string& error);

  Options options_;
  std::string dir_;

  std::unique_ptr<WritableFile> file_;
  uint64_t next_seq_ = 1;
  int unsynced_records_ = 0;
  int64_t total_bytes_ = 0;
  int segments_opened_ = 0;
  std::string error_;
};

/// What a replay saw: how far it got and how (or whether) the tail ended.
struct WalReplayReport {
  int64_t records = 0;
  int segments = 0;
  /// Sequence number of the last applied record (0 when none).
  uint64_t last_seq = 0;

  /// True when a torn/corrupt tail was cleanly truncated. The fields below
  /// name the cut: file, byte offset of the offending record, and why.
  bool truncated = false;
  std::string truncated_file;
  int64_t truncated_offset = 0;
  std::string truncation_reason;
};

/// Replays every valid record of the log in `dir`, in sequence order,
/// through `fn`. A torn/corrupt record in the *last* segment truncates the
/// tail (reported, not an error); corruption anywhere else — a bad CRC in a
/// non-final segment, a missing or duplicated segment (the first one
/// included: a log starts at seq 1), a header that does not match its file
/// name — returns false with an actionable description in *error naming
/// the file and offset. An empty directory replays zero records
/// successfully.
bool ReplayWal(const std::string& dir,
               const std::function<void(const WalOp&)>& fn,
               WalReplayReport* report, std::string* error);

/// Replays one segment file: ReplayWal's per-segment reader.
/// `expect_first_seq` (0 = accept the header's value) pins the header;
/// `is_last` selects tail-truncation semantics (true) or
/// hard-error-on-corruption (false).
bool ReplayWalFile(const std::string& path, uint64_t expect_first_seq,
                   bool is_last, const std::function<void(const WalOp&)>& fn,
                   WalReplayReport* report, std::string* error);

/// The wal-*.log segment files in `dir`, sorted by first_seq parsed from
/// the name. False on an unparsable segment name or duplicate first_seq.
bool ListWalSegments(const std::string& dir, std::vector<std::string>* paths,
                     std::string* error);

}  // namespace ddc

#endif  // DDC_PERSIST_WAL_H_
