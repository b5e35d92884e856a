// Crash-safe file writes and filesystem probes.
//
// Checkpoints are only useful if a crash mid-write cannot leave a torn file
// where a good one used to be. Every write here goes through AtomicFile:
// bytes are appended to `<path>.tmp` as they are produced (a checkpoint
// streams out in bounded chunks, never held whole), then publish() fsyncs
// and renames into place, so readers observe either the old complete file
// or the new complete file, never a prefix. publish_rotating() adds a
// last-known-good fallback: the previous complete file survives as
// `<path>.prev`, so even a corrupted *head* (bad sector, fsync lie) degrades
// to the prior snapshot instead of a fresh start. write_file_atomic and
// write_file_rotating publish a body held in memory in one append. A file
// published here is only ever replaced by rename, never truncated in place,
// which is what lets MappedFile map one for reading.
//
// Every failure path here returns a typed Error (kIo / kNoSpace), and every
// syscall is a fault-injection site (src/faultinject/) — short writes,
// failed rename/fsync and ENOSPC are injected from the same lines the real
// failures would take, which is how the robustness tests drive this code
// into its corners deterministically. Each site is consulted once per file,
// however many appends it takes, so `enospc@k` is the k-th file.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/error.h"

namespace ccfuzz {

/// One file written in appends and published whole. The constructor opens
/// `<path>.tmp` (created or truncated); the parent directory must exist.
/// Errors are sticky: after the first, appends do nothing and publish()
/// returns it, leaving the tmp file as a crash would and the target
/// untouched. Destroyed unpublished, it closes the tmp file and leaves it.
class AtomicFile {
 public:
  /// `sync` false skips the fsync (tests, throwaway files).
  explicit AtomicFile(std::string path, bool sync = true);
  ~AtomicFile();
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  /// Writes `bytes` after those appended before.
  void append(std::string_view bytes);
  /// Fsyncs (unless `sync` is off), closes and renames the tmp file into
  /// place. ENOSPC surfaces as Error::Code::kNoSpace, other failures as kIo.
  Error publish();
  /// publish(), preserving the file being replaced as `<path>.prev`. The
  /// rotation happens between two renames (never a copy), so a crash at any
  /// point leaves at least one complete snapshot: the new head, the old
  /// head, or the old head demoted to `.prev`. A failure demoting the old
  /// head is tolerated (the new head still lands); a failure landing the
  /// new head is returned typed, with the old head as `.prev` (an injected
  /// one strikes first, leaving the head and `.prev` as they were).
  Error publish_rotating();

 private:
  Error finish(bool rotate);
  void fail(Error e);

  std::string path_;
  std::string tmp_;
  int fd_ = -1;
  bool sync_ = true;
  bool short_write_ = false;  ///< the injected short write is due
  Error error_;
};

/// `body` published at `path` through one AtomicFile.
Error write_file_atomic(const std::string& path, std::string_view body,
                        bool sync = true);
/// write_file_atomic through AtomicFile::publish_rotating().
Error write_file_rotating(const std::string& path, std::string_view body,
                          bool sync = true);

/// A file mapped read-only, as long as it was when opened. Only files that
/// are replaced by rename may be mapped: truncating a mapped file in place
/// would fault its readers.
class MappedFile {
 public:
  /// Maps `path`; a typed kIo error when it cannot be opened or mapped.
  static Result<MappedFile> open(const std::string& path);
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&&) = delete;
  ~MappedFile();

  std::string_view text() const { return {data_, size_}; }

 private:
  MappedFile(const char* data, std::size_t size) : data_(data), size_(size) {}

  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Free bytes available to unprivileged writers on the filesystem holding
/// `path` (statvfs f_bavail). Typed kIo error when the path cannot be
/// statted.
Result<std::uint64_t> free_bytes(const std::string& path);

/// Repairs a line-oriented append file after a crash: when the file's final
/// line is torn (no trailing '\n'), truncates it back to the end of the
/// last complete line so appending resumes on a clean boundary. Returns the
/// number of bytes dropped — 0 for a clean, empty, or missing file.
Result<std::uint64_t> truncate_torn_tail(const std::string& path);

}  // namespace ccfuzz
