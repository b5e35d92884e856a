#include "trace/trace_io.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "util/fs.h"

namespace ccfuzz::trace {

namespace {

constexpr std::string_view kMagic = "ccfuzz-trace";
/// Deltas per v2 stamp line.
constexpr std::size_t kStampsPerLine = 16;
/// At most this many stamps are reserved before any is read, so a corrupt
/// `# stamps` count cannot demand the heap; a longer trace grows past it.
constexpr std::size_t kReserveLimit = std::size_t{1} << 20;

}  // namespace

void write_trace(record::Writer& w, const Trace& t) {
  w << "# ccfuzz-trace v2\n";
  w << "# kind " << (t.kind == TraceKind::kLink ? "link" : "traffic") << "\n";
  w << "# duration_ns " << t.duration.ns() << "\n";
  w << "# stamps " << t.stamps.size() << "\n";
  std::int64_t last = 0;
  for (std::size_t i = 0; i < t.stamps.size(); ++i) {
    const std::int64_t ns = t.stamps[i].ns();
    const bool line_ends =
        (i + 1) % kStampsPerLine == 0 || i + 1 == t.stamps.size();
    w << ns - last << (line_ends ? '\n' : ' ');
    last = ns;
  }
}

void save_trace(const std::string& path, const Trace& t) {
  record::Writer w;
  write_trace(w, t);
  if (Error e = write_file_atomic(path, w.str(), /*sync=*/false)) {
    throw std::runtime_error("cannot write trace file: " + e.message);
  }
}

namespace {

/// In standalone files any `#` line that is not one of the trace's own
/// records is a comment.
bool is_comment(std::string_view line) {
  if (line[0] != '#') return false;
  const std::string_view tag = record::tag_of(line);
  return tag != kMagic && tag != "kind" && tag != "duration_ns" &&
         tag != "stamps";
}

/// The records after the magic: kind, duration, in v2 the stamp count, then
/// the stamp lines up to the enclosing block's `# end` line (left for the
/// caller) or the end of the stream. A v1 line holds one stamp; a v2 line
/// holds deltas, each from the stamp before it (the first from 0). A
/// negative duration, or a stamp before the one above it or outside
/// [0, duration), is kCorrupt at its line: a v1 line cut short mid-number
/// reads as a smaller stamp, and fails there. In v2, a delta that would pass
/// the duration is kCorrupt before it is added, so no sum overflows; more
/// stamps than the count are kCorrupt, and fewer kTruncated.
Result<Trace> read_body(record::Reader& r, bool deltas) {
  Trace t;
  std::size_t kind = 0;
  std::int64_t ns = 0;
  r.expect("kind").one_of({"traffic", "link"}, kind).done();
  r.read("duration_ns", ns);
  if (ns < 0) r.fail(Error::corrupt(r.at() + "trace: negative duration"));
  t.kind = kind == 0 ? TraceKind::kTraffic : TraceKind::kLink;
  t.duration = TimeNs(ns);
  const std::int64_t duration = ns;
  std::size_t count = 0;
  if (deltas && r.read("stamps", count)) {
    t.stamps.reserve(std::min(count, kReserveLimit));
  }
  const auto corrupt = [&](const std::string& what) {
    r.fail(Error::corrupt(r.at() + "trace: " + what));
  };
  std::int64_t last = 0;
  for (std::string_view line; r.peek(line) && record::tag_of(line) != "end";) {
    r.bare();
    do {
      r >> ns;
      if (!deltas) r.done();  // v1: one stamp per line
      if (!r.ok()) break;
      if (deltas && t.stamps.size() == count) {
        corrupt("more than " + std::to_string(count) + " stamps");
      } else if (deltas && ns > duration - 1 - last) {
        corrupt("delta " + std::to_string(ns) + " from stamp " +
                std::to_string(last) + " passes the duration");
      } else {
        if (deltas) ns += last;
        if (ns < 0 || ns >= duration) {
          corrupt("stamp " + std::to_string(ns) + " outside [0, duration)");
        } else if (ns < last) {
          corrupt("stamp " + std::to_string(ns) +
                  " before the stamp above it");
        }
      }
      if (!r.ok()) break;
      t.stamps.emplace_back(ns);
      last = ns;
    } while (r.more());
  }
  if (r.ok() && deltas && t.stamps.size() < count) {
    r.fail(Error::truncated(r.at() + "trace: " +
                            std::to_string(t.stamps.size()) + " of " +
                            std::to_string(count) + " stamps"));
  }
  if (!r.ok()) return r.error();
  return t;
}

}  // namespace

Result<Trace> try_read_trace(record::Reader& r) {
  std::size_t version = 0;
  r.header(kMagic, {"v1", "v2"}, version);
  return read_body(r, /*deltas=*/version == 1);
}

Result<Trace> try_read_trace(std::istream& is) {
  record::Reader r(is, is_comment);
  // Magic-less files (written before the magic existed) are v1 and open
  // with `kind`.
  std::string_view first;
  if (r.peek(first) && record::tag_of(first) == kMagic) {
    return try_read_trace(r);
  }
  return read_body(r, /*deltas=*/false);
}

Result<Trace> try_load_trace(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Error::io("cannot open trace file: " + path);
  return try_read_trace(f);
}

Trace read_trace(std::istream& is) {
  Result<Trace> r = try_read_trace(is);
  if (!r) throw std::runtime_error(r.error().message);
  return std::move(*r);
}

Trace load_trace(const std::string& path) {
  Result<Trace> r = try_load_trace(path);
  if (!r) throw std::runtime_error(r.error().message);
  return std::move(*r);
}

}  // namespace ccfuzz::trace
