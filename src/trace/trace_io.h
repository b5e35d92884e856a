// Plain-text trace serialization, for saving adversarial traces found by
// the fuzzer and replaying them later (regression tests, figure scripts).
//
// Format v2: a `# ccfuzz-trace v2` magic line, then the `# kind`,
// `# duration_ns` and `# stamps N` records in that order, then the N
// nanosecond timestamps as deltas, each from the stamp before it (the first
// from 0), 16 per line, separated by single spaces. Deltas take about half
// the bytes of absolute stamps, and a trace is most of every checkpoint.
// write_trace() writes only v2. The readers also take v1 (the same records
// without `# stamps`, then one absolute stamp per line) and the magic-less
// v1 of the oldest files, which opens with `# kind`. Parsed through
// util/record.
//
// Two API tiers: the try_* functions return Result<Trace> with a typed
// Error (kVersion for format skew, kParse/kCorrupt for mangled bytes) and
// never throw — campaign load paths use these so a truncated file after a
// crash degrades instead of aborting. The original throwing functions wrap
// them for callers that want exceptions (tests, one-shot tools).
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace.h"
#include "util/error.h"
#include "util/record.h"

namespace ccfuzz::trace {

/// Appends `t` to `w`.
void write_trace(record::Writer& w, const Trace& t);

/// Writes `t` to `path` (overwrites) through write_file_atomic, without an
/// fsync: `path` holds the old file or the whole new one, never a prefix.
/// Throws std::runtime_error on failure (ENOSPC, a short write, ...).
void save_trace(const std::string& path, const Trace& t);

/// Parses a trace file from `is` without throwing. Error codes: kVersion for
/// a `# ccfuzz-trace` magic naming an unsupported version, kParse for
/// syntactically mangled lines, kTruncated for a missing header or fewer
/// stamps than `# stamps` counts, kCorrupt (`line N:`) for a negative
/// duration, the first stamp outside [0, duration) or below the one above
/// it, a delta that would pass the duration, or more stamps than counted.
/// The magic is optional (a file may open with `# kind`); after the first
/// line, `#` lines that are not trace records are comments. The record tags
/// (`ccfuzz-trace`, `kind`, `duration_ns`, `stamps`) are reserved in every
/// version: a v1 file's `# stamps …` line is a record there too, and fails.
Result<Trace> try_read_trace(std::istream& is);

/// Parses a trace block embedded in an enclosing record stream: the magic
/// is required, comments are not allowed, and the block ends at the
/// enclosing format's `# end …` line, which is left for the caller.
Result<Trace> try_read_trace(record::Reader& r);

/// Loads a trace from `path` without throwing (kIo if unreadable).
Result<Trace> try_load_trace(const std::string& path);

/// Parses a trace from `is`. Throws std::runtime_error on malformed input.
Trace read_trace(std::istream& is);

/// Loads a trace from `path`. Throws std::runtime_error on failure.
Trace load_trace(const std::string& path);

}  // namespace ccfuzz::trace
