#include "trace/trace_io.h"

#include <fstream>
#include <stdexcept>

#include "util/fs.h"

namespace ccfuzz::trace {

void write_trace(record::Writer& w, const Trace& t) {
  w << "# ccfuzz-trace v1\n";
  w << "# kind " << (t.kind == TraceKind::kLink ? "link" : "traffic") << "\n";
  w << "# duration_ns " << t.duration.ns() << "\n";
  for (const TimeNs s : t.stamps) {
    w << s.ns() << '\n';
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

constexpr std::string_view kMagic = "ccfuzz-trace";

/// In standalone files any `#` line that is not one of the trace's own
/// records is a comment.
bool is_comment(std::string_view line) {
  if (line[0] != '#') return false;
  const std::string_view tag = record::tag_of(line);
  return tag != kMagic && tag != "kind" && tag != "duration_ns";
}

/// The records after the magic: kind, duration, then one stamp per line up
/// to the enclosing block's `# end` line (left for the caller) or the end
/// of the stream. A negative duration, or a stamp before the one above it
/// or outside [0, duration), is kCorrupt at its line: a line cut short
/// mid-number reads as a smaller stamp, and fails there.
Result<Trace> read_body(record::Reader& r) {
  Trace t;
  std::size_t kind = 0;
  std::int64_t ns = 0;
  r.expect("kind").one_of({"traffic", "link"}, kind).done();
  r.read("duration_ns", ns);
  if (ns < 0) r.fail(Error::corrupt(r.at() + "trace: negative duration"));
  t.kind = kind == 0 ? TraceKind::kTraffic : TraceKind::kLink;
  t.duration = TimeNs(ns);
  std::int64_t last = 0;
  for (std::string_view line; r.peek(line) && record::tag_of(line) != "end";) {
    if (!(r.bare() >> ns).done()) break;
    const bool outside = ns < 0 || ns >= t.duration.ns();
    if (outside || ns < last) {
      r.fail(Error::corrupt(r.at() + "trace: stamp " + std::to_string(ns) +
                            (outside ? " outside [0, duration)"
                                     : " before the stamp above it")));
      break;
    }
    t.stamps.emplace_back(ns);
    last = ns;
  }
  if (!r.ok()) return r.error();
  return t;
}

}  // namespace

Result<Trace> try_read_trace(record::Reader& r) {
  r.header(kMagic, "v1");
  return read_body(r);
}

Result<Trace> try_read_trace(std::istream& is) {
  record::Reader r(is, is_comment);
  // Magic-less files (written before the magic existed) open with `kind`.
  std::string_view first;
  if (r.peek(first) && record::tag_of(first) == kMagic) {
    return try_read_trace(r);
  }
  return read_body(r);
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
