#include "triage/bundle.h"

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "campaign/report.h"
#include "trace/hash.h"
#include "trace/trace_io.h"
#include "util/fs.h"
#include "util/record.h"

namespace ccfuzz::triage {

namespace {

/// Round-trippable double formatting (%.17g): replay compares against a
/// tolerance anyway, but the recorded score should not lose bits in transit.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  // Appended rather than prepended: see record::Reader::line.
  return std::string("\"").append(campaign::json_escape(s)).append("\"");
}

/// Reads what to_json writes, its keys in any order.
Result<BundleManifest> read_manifest(record::Reader& r) {
  BundleManifest m;
  r.object({{"ccfuzz_finding", &m.version}, {"id", &m.id},
            {"source", &m.source}, {"cell", &m.cell}, {"cca", &m.cca},
            {"mode", &m.mode}, {"score", &m.score},
            {"scenario_hash", &m.scenario_hash},
            {"duration_ms", &m.duration_ms},
            {"original_events", &m.original_events},
            {"minimized_events", &m.minimized_events},
            {"original_score", &m.original_score},
            {"expected_score", &m.expected_score},
            {"tolerance", &m.tolerance},
            {"expect_quarantined", &m.expect_quarantined},
            {"confirm_runs", &m.confirm_runs}, {"flaky", &m.flaky},
            {"truncated", &m.truncated},
            {"classification", &m.classification},
            {"invariant_violations", &m.invariant_violations}});
  r.eof();
  // A version read before any error wins: other versions may use other keys.
  if (m.version != 1) {
    return Error::version("unsupported finding version " +
                          std::to_string(m.version));
  }
  if (!r.ok()) return r.error();
  if (m.id.size() != 16) {
    return Error::corrupt("bundle id is not a 16-hex hash: " + m.id);
  }
  if (m.duration_ms <= 0) {
    return Error::corrupt("non-positive duration_ms in manifest");
  }
  return m;
}

}  // namespace

std::string bundle_id(const std::string& cell, std::uint64_t trace_hash) {
  return trace::hash_hex(
      trace::fnv1a_u64(trace::fnv1a_str(trace::kFnvOffset, cell), trace_hash));
}

std::string to_json(const BundleManifest& m) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"ccfuzz_finding\": " << m.version << ",\n";
  os << "  \"id\": " << quoted(m.id) << ",\n";
  os << "  \"source\": " << quoted(m.source) << ",\n";
  os << "  \"cell\": " << quoted(m.cell) << ",\n";
  os << "  \"cca\": " << quoted(m.cca) << ",\n";
  os << "  \"mode\": " << quoted(m.mode) << ",\n";
  os << "  \"score\": " << quoted(m.score) << ",\n";
  os << "  \"scenario_hash\": " << quoted(m.scenario_hash) << ",\n";
  os << "  \"duration_ms\": " << m.duration_ms << ",\n";
  os << "  \"original_events\": " << m.original_events << ",\n";
  os << "  \"minimized_events\": " << m.minimized_events << ",\n";
  os << "  \"original_score\": " << fmt_double(m.original_score) << ",\n";
  os << "  \"expected_score\": " << fmt_double(m.expected_score) << ",\n";
  os << "  \"tolerance\": " << fmt_double(m.tolerance) << ",\n";
  os << "  \"expect_quarantined\": " << (m.expect_quarantined ? "true" : "false")
     << ",\n";
  os << "  \"confirm_runs\": " << m.confirm_runs << ",\n";
  os << "  \"flaky\": " << (m.flaky ? "true" : "false") << ",\n";
  os << "  \"truncated\": " << (m.truncated ? "true" : "false") << ",\n";
  os << "  \"classification\": " << quoted(m.classification) << ",\n";
  os << "  \"invariant_violations\": " << m.invariant_violations << "\n";
  os << "}\n";
  return os.str();
}

Result<BundleManifest> parse_manifest(const std::string& body) {
  record::Reader r(body);
  return read_manifest(r);
}

Result<BundleManifest> load_manifest(const std::string& dir) {
  const std::string path = dir + "/" + kManifestFile;
  std::ifstream is(path, std::ios::binary);
  if (!is) return Error::io("cannot open " + path);
  record::Reader r(is);
  return read_manifest(r);
}

Error save_bundle(const std::string& dir, const BundleManifest& m,
                  const trace::Trace& original, const trace::Trace& minimized) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Error::io("cannot create " + dir + ": " + ec.message());
  try {
    trace::save_trace(dir + "/" + kOriginalTraceFile, original);
    trace::save_trace(dir + "/" + kMinimizedTraceFile, minimized);
  } catch (const std::exception& e) {
    return Error::io(std::string("cannot write bundle traces: ") + e.what());
  }
  // The manifest lands last and atomically: a bundle with a manifest is
  // complete by construction.
  return write_file_atomic(dir + "/" + kManifestFile, to_json(m));
}

}  // namespace ccfuzz::triage
