// Crash-safe file writes and filesystem probes.
//
// Checkpoints are only useful if a crash mid-write cannot leave a torn file
// where a good one used to be. write_file_atomic writes to `<path>.tmp`,
// fsyncs, and renames into place — readers observe either the old complete
// file or the new complete file, never a prefix. write_file_rotating adds a
// last-known-good fallback: the previous complete file survives as
// `<path>.prev`, so even a corrupted *head* (bad sector, fsync lie) degrades
// to the prior snapshot instead of a fresh start.
//
// Every failure path here returns a typed Error (kIo / kNoSpace), and every
// syscall is a fault-injection site (src/faultinject/) — short writes,
// failed rename/fsync and ENOSPC are injected from the same lines the real
// failures would take, which is how the robustness tests drive this code
// into its corners deterministically.
#pragma once

#include <cstdint>
#include <string>

#include "util/error.h"

namespace ccfuzz {

/// Writes `body` to `path` via write-to-temp + fsync + rename. The parent
/// directory must exist. `sync` skips the fsync (tests, throwaway files).
/// ENOSPC surfaces as Error::Code::kNoSpace, other failures as kIo.
Error write_file_atomic(const std::string& path, const std::string& body,
                        bool sync = true);

/// write_file_atomic, preserving the file being replaced as `<path>.prev`.
/// The rotation happens between two renames (never a copy), so a crash at
/// any point leaves at least one complete snapshot: the new head, the old
/// head, or the old head demoted to `.prev`. A failure demoting the old
/// head is tolerated (the new head still lands); a failure landing the new
/// head is returned typed with the old head still in place.
Error write_file_rotating(const std::string& path, const std::string& body,
                          bool sync = true);

/// The file at `path`, as long as it was when opened (files here are
/// replaced by rename, never grown in place), read in one pass. Typed kIo
/// error when it cannot be opened or read.
Result<std::string> read_file(const std::string& path);

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
