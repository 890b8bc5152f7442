#ifndef DDC_COMMON_IO_H_
#define DDC_COMMON_IO_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

namespace ddc {

/// \file
/// Error-checked file I/O for everything this repo persists: BENCH
/// documents, metrics/trace dumps, RUNMETA and the write-ahead log.
/// The std::ofstream idiom the early writers used reports nothing on short
/// writes and swallows ENOSPC until close; these helpers capture errno at
/// the failing call and latch it, so a caller that checks once at the end
/// still learns about the first failure and its cause.

/// Abstract append-only byte sink. Implementations latch their first error:
/// after any call returns false, every later call returns false and
/// `error()` describes the original failure. The write-ahead log writes
/// through this interface so tests can interpose fault injection
/// (persist/fault_file.h) without touching the production code path.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  /// Appends `n` bytes. False on failure (error latched).
  virtual bool Append(const void* data, size_t n) = 0;
  bool Append(std::string_view s) { return Append(s.data(), s.size()); }

  /// Pushes buffered bytes to the OS (no durability guarantee).
  virtual bool Flush() = 0;

  /// Flush + fsync: bytes are on stable storage when this returns true.
  virtual bool Sync() = 0;

  /// Flushes and closes; false when the flush or close fails. Idempotent.
  virtual bool Close() = 0;

  /// False once any operation failed.
  virtual bool ok() const = 0;

  /// Description of the first failure ("" while ok): operation, path, and
  /// strerror of the captured errno.
  virtual const std::string& error() const = 0;

  /// Bytes successfully accepted by Append so far.
  virtual int64_t bytes_written() const = 0;
};

/// Buffered POSIX file writer — the production WritableFile. Writes go
/// through a userspace buffer (default 64 KiB) flushed with full-write
/// loops, so short writes are retried and a true failure (ENOSPC, EIO, …)
/// is reported with its errno instead of vanishing.
class BufferedFile final : public WritableFile {
 public:
  enum class Mode { kTruncate, kAppend };

  /// Opens `path` (O_CREAT); null on failure, with the reason in *error.
  static std::unique_ptr<BufferedFile> Open(const std::string& path,
                                            Mode mode = Mode::kTruncate,
                                            std::string* error = nullptr);

  ~BufferedFile() override;

  bool Append(const void* data, size_t n) override;
  using WritableFile::Append;
  bool Flush() override;
  bool Sync() override;
  bool Close() override;
  bool ok() const override { return error_.empty(); }
  const std::string& error() const override { return error_; }
  int64_t bytes_written() const override { return bytes_written_; }

  const std::string& path() const { return path_; }

 private:
  BufferedFile(int fd, std::string path);

  bool WriteFully(const void* data, size_t n);
  void LatchError(const char* op, int err);

  int fd_ = -1;
  std::string path_;
  std::string buffer_;
  std::string error_;
  int64_t bytes_written_ = 0;
};

/// Opens a WritableFile at `path`, truncating. The indirection point the
/// WAL rotates segments through; tests substitute fault-injecting
/// implementations.
using WritableFileFactory =
    std::function<std::unique_ptr<WritableFile>(const std::string& path)>;

/// The default factory: BufferedFile::Open. A failed open still returns a
/// non-null file whose every operation fails with the open error, so
/// callers only ever check ok().
WritableFileFactory DefaultFileFactory();

/// Writes `contents` to `path` in one error-checked pass (truncating).
/// False on any failure, with the reason in *error (may be null).
bool WriteFile(const std::string& path, std::string_view contents,
               std::string* error = nullptr);

/// Durable atomic replacement: writes to `path.tmp`, fsyncs, renames over
/// `path`, fsyncs the directory. Readers never observe a torn file; a crash
/// leaves either the old content or the new. Used for manifests.
bool WriteFileAtomic(const std::string& path, std::string_view contents,
                     std::string* error = nullptr);

/// Reads the whole of `path` into *out. False (and *error) on failure.
bool ReadFileToString(const std::string& path, std::string* out,
                      std::string* error = nullptr);

/// Little-endian integer append/read helpers of the WAL record format:
/// explicit byte composition, so the on-disk format is identical on any
/// host endianness.
inline void AppendLe32(std::string& out, uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

inline void AppendLe64(std::string& out, uint64_t v) {
  AppendLe32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  AppendLe32(out, static_cast<uint32_t>(v >> 32));
}

inline void AppendLeDouble(std::string& out, double v) {
  AppendLe64(out, std::bit_cast<uint64_t>(v));
}

inline uint32_t ReadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline uint64_t ReadLe64(const unsigned char* p) {
  return static_cast<uint64_t>(ReadLe32(p)) |
         (static_cast<uint64_t>(ReadLe32(p + 4)) << 32);
}

inline double ReadLeDouble(const unsigned char* p) {
  return std::bit_cast<double>(ReadLe64(p));
}

}  // namespace ddc

#endif  // DDC_COMMON_IO_H_
