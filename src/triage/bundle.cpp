#include "triage/bundle.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>

#include "campaign/report.h"
#include "trace/hash.h"
#include "trace/trace_io.h"
#include "util/fs.h"

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
  return "\"" + campaign::json_escape(s) + "\"";
}

}  // namespace

std::string bundle_id(const std::string& cell, std::uint64_t trace_hash) {
  std::uint64_t h = trace::kFnvOffset;
  for (char c : cell) {
    h ^= static_cast<unsigned char>(c);
    h *= trace::kFnvPrime;
  }
  h = trace::fnv1a_u64(h, trace_hash);
  return trace::hash_hex(h);
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
  std::istringstream is(body);
  std::string line;
  if (!std::getline(is, line) || line != "{") {
    return Error::parse("manifest missing '{'");
  }
  // Collect `  "key": value` lines (trailing comma optional on the last).
  std::map<std::string, std::string> kv;
  bool closed = false;
  while (std::getline(is, line)) {
    if (line == "}") {
      closed = true;
      break;
    }
    if (line.rfind("  \"", 0) != 0) {
      return Error::parse("manifest line not a key: " + line);
    }
    const std::size_t key_end = line.find("\": ", 3);
    if (key_end == std::string::npos) {
      return Error::parse("manifest line missing separator: " + line);
    }
    std::string key = line.substr(3, key_end - 3);
    std::string value = line.substr(key_end + 3);
    if (!value.empty() && value.back() == ',') value.pop_back();
    if (value.empty()) {
      return Error::parse("manifest key without value: " + key);
    }
    kv[std::move(key)] = std::move(value);
  }
  if (!closed) return Error::truncated("manifest missing closing '}'");

  const auto raw = [&](const char* key) -> Result<std::string> {
    auto it = kv.find(key);
    if (it == kv.end()) {
      return Error::truncated(std::string("manifest missing key: ") + key);
    }
    return it->second;
  };
  const auto str = [&](const char* key) -> Result<std::string> {
    Result<std::string> v = raw(key);
    if (!v) return v.error();
    if (v->size() < 2 || v->front() != '"' || v->back() != '"') {
      return Error::parse(std::string("manifest key not a string: ") + key);
    }
    return campaign::json_unescape(
        std::string_view(*v).substr(1, v->size() - 2));
  };
  const auto integer = [&](const char* key) -> Result<std::int64_t> {
    Result<std::string> v = raw(key);
    if (!v) return v.error();
    char* end = nullptr;
    const long long n = std::strtoll(v->c_str(), &end, 10);
    if (end == v->c_str() || *end != '\0') {
      return Error::parse(std::string("manifest key not an integer: ") + key);
    }
    return static_cast<std::int64_t>(n);
  };
  const auto real = [&](const char* key) -> Result<double> {
    Result<std::string> v = raw(key);
    if (!v) return v.error();
    char* end = nullptr;
    const double d = std::strtod(v->c_str(), &end);
    if (end == v->c_str() || *end != '\0') {
      return Error::parse(std::string("manifest key not a number: ") + key);
    }
    return d;
  };
  const auto boolean = [&](const char* key) -> Result<bool> {
    Result<std::string> v = raw(key);
    if (!v) return v.error();
    if (*v == "true") return true;
    if (*v == "false") return false;
    return Error::parse(std::string("manifest key not a bool: ") + key);
  };

  BundleManifest m;
  {
    Result<std::int64_t> v = integer("ccfuzz_finding");
    if (!v) return v.error();
    if (*v != 1) {
      return Error::version("unsupported finding version " +
                            std::to_string(*v));
    }
    m.version = static_cast<int>(*v);
  }
#define CCFUZZ_FIELD(parser, key, member)             \
  {                                                   \
    auto v = parser(key);                             \
    if (!v) return v.error();                         \
    m.member = *v;                                    \
  }
  CCFUZZ_FIELD(str, "id", id)
  CCFUZZ_FIELD(str, "source", source)
  CCFUZZ_FIELD(str, "cell", cell)
  CCFUZZ_FIELD(str, "cca", cca)
  CCFUZZ_FIELD(str, "mode", mode)
  CCFUZZ_FIELD(str, "score", score)
  CCFUZZ_FIELD(str, "scenario_hash", scenario_hash)
  CCFUZZ_FIELD(integer, "duration_ms", duration_ms)
  CCFUZZ_FIELD(integer, "original_events", original_events)
  CCFUZZ_FIELD(integer, "minimized_events", minimized_events)
  CCFUZZ_FIELD(real, "original_score", original_score)
  CCFUZZ_FIELD(real, "expected_score", expected_score)
  CCFUZZ_FIELD(real, "tolerance", tolerance)
  CCFUZZ_FIELD(boolean, "expect_quarantined", expect_quarantined)
  CCFUZZ_FIELD(integer, "confirm_runs", confirm_runs)
  CCFUZZ_FIELD(boolean, "flaky", flaky)
  CCFUZZ_FIELD(boolean, "truncated", truncated)
  CCFUZZ_FIELD(str, "classification", classification)
  CCFUZZ_FIELD(integer, "invariant_violations", invariant_violations)
#undef CCFUZZ_FIELD
  if (m.id.size() != 16) {
    return Error::corrupt("bundle id is not a 16-hex hash: " + m.id);
  }
  if (m.duration_ms <= 0) {
    return Error::corrupt("non-positive duration_ms in manifest");
  }
  return m;
}

Result<BundleManifest> load_manifest(const std::string& dir) {
  const std::string path = dir + "/" + kManifestFile;
  std::ifstream is(path, std::ios::binary);
  if (!is) return Error::io("cannot open " + path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return parse_manifest(ss.str());
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
