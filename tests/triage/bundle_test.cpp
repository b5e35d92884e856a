// Bundle manifest format: exact round-trips, strict-parser rejection of
// torn/corrupt/foreign input (the same machine-format discipline as the
// checkpoint codec), and on-disk bundle save/load.
#include "triage/bundle.h"

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "trace/hash.h"
#include "trace/trace_io.h"

namespace ccfuzz::triage {
namespace {

namespace stdfs = std::filesystem;

BundleManifest sample() {
  BundleManifest m;
  m.id = "0123456789abcdef";
  m.source = "winner";
  m.cell = "reno.traffic.low-utilization";
  m.cca = "reno";
  m.mode = "traffic";
  m.score = "low-utilization";
  m.scenario_hash = "fedcba9876543210";
  m.duration_ms = 2000;
  m.original_events = 1500;
  m.minimized_events = 12;
  m.original_score = 0.73125;
  m.expected_score = 0.719993712345678901;  // needs %.17g to survive
  m.tolerance = 0.0146250000000000002;
  m.expect_quarantined = false;
  m.confirm_runs = 3;
  m.flaky = false;
  m.truncated = false;
  m.classification = "cca-weakness";
  m.invariant_violations = 0;
  return m;
}

void expect_same(const BundleManifest& in, const Result<BundleManifest>& out) {
  ASSERT_TRUE(out) << out.error().message;
  EXPECT_EQ(out->id, in.id);
  EXPECT_EQ(out->source, in.source);
  EXPECT_EQ(out->cell, in.cell);
  EXPECT_EQ(out->cca, in.cca);
  EXPECT_EQ(out->mode, in.mode);
  EXPECT_EQ(out->score, in.score);
  EXPECT_EQ(out->scenario_hash, in.scenario_hash);
  EXPECT_EQ(out->duration_ms, in.duration_ms);
  EXPECT_EQ(out->original_events, in.original_events);
  EXPECT_EQ(out->minimized_events, in.minimized_events);
  EXPECT_EQ(out->original_score, in.original_score);
  EXPECT_EQ(out->expected_score, in.expected_score);  // bit-exact via %.17g
  EXPECT_EQ(out->tolerance, in.tolerance);
  EXPECT_EQ(out->expect_quarantined, in.expect_quarantined);
  EXPECT_EQ(out->confirm_runs, in.confirm_runs);
  EXPECT_EQ(out->flaky, in.flaky);
  EXPECT_EQ(out->truncated, in.truncated);
  EXPECT_EQ(out->classification, in.classification);
  EXPECT_EQ(out->invariant_violations, in.invariant_violations);
  // Serialization is canonical: a round-trip re-serializes byte-identically.
  EXPECT_EQ(to_json(*out), to_json(in));
}

TEST(BundleManifest, RoundTripsExactly) {
  const BundleManifest in = sample();
  expect_same(in, parse_manifest(to_json(in)));
}

// sample() as the first (v1) writer wrote it. A writer and reader that drift
// together still pass RoundTripsExactly; bundles already on disk would not
// load. The reordered copy holds the reader to free key order.
constexpr const char* kV1Manifest = R"({
  "ccfuzz_finding": 1,
  "id": "0123456789abcdef",
  "source": "winner",
  "cell": "reno.traffic.low-utilization",
  "cca": "reno",
  "mode": "traffic",
  "score": "low-utilization",
  "scenario_hash": "fedcba9876543210",
  "duration_ms": 2000,
  "original_events": 1500,
  "minimized_events": 12,
  "original_score": 0.73124999999999996,
  "expected_score": 0.71999371234567888,
  "tolerance": 0.014625000000000001,
  "expect_quarantined": false,
  "confirm_runs": 3,
  "flaky": false,
  "truncated": false,
  "classification": "cca-weakness",
  "invariant_violations": 0
}
)";
constexpr const char* kV1ManifestReordered = R"({
  "invariant_violations": 0,
  "classification": "cca-weakness",
  "scenario_hash": "fedcba9876543210",
  "tolerance": 0.014625000000000001,
  "id": "0123456789abcdef",
  "truncated": false,
  "cca": "reno",
  "minimized_events": 12,
  "expected_score": 0.71999371234567888,
  "source": "winner",
  "flaky": false,
  "mode": "traffic",
  "original_events": 1500,
  "confirm_runs": 3,
  "score": "low-utilization",
  "duration_ms": 2000,
  "expect_quarantined": false,
  "cell": "reno.traffic.low-utilization",
  "original_score": 0.73124999999999996,
  "ccfuzz_finding": 1
}
)";

TEST(BundleManifest, LiteralV1ManifestLoadsInAnyKeyOrder) {
  for (const char* body : {kV1Manifest, kV1ManifestReordered}) {
    SCOPED_TRACE(body);
    const Result<BundleManifest> out = parse_manifest(body);
    expect_same(sample(), out);
    if (out) {
      EXPECT_EQ(to_json(*out), kV1Manifest);
    }
  }
}

TEST(BundleManifest, EscapedCellNamesSurvive) {
  BundleManifest in = sample();
  in.cell = "odd \"cell\"\twith\nnoise\\";
  Result<BundleManifest> out = parse_manifest(to_json(in));
  ASSERT_TRUE(out) << out.error().message;
  EXPECT_EQ(out->cell, in.cell);
}

TEST(BundleManifest, TornBodyIsTruncatedNotParse) {
  const std::string body = to_json(sample());
  // Drop the closing brace and everything after the last key line: the torn
  // tail a crash mid-write would leave (atomic writes prevent this for the
  // manifest itself, but doctor must still classify a hand-damaged one).
  const std::string torn = body.substr(0, body.rfind("  \"classification\""));
  Result<BundleManifest> out = parse_manifest(torn);
  ASSERT_FALSE(out);
  EXPECT_EQ(out.error().code, Error::Code::kTruncated);
}

TEST(BundleManifest, MissingKeyIsTruncated) {
  std::string body = to_json(sample());
  const std::size_t pos = body.find("  \"confirm_runs\": 3,\n");
  ASSERT_NE(pos, std::string::npos);
  body.erase(pos, std::string("  \"confirm_runs\": 3,\n").size());
  Result<BundleManifest> out = parse_manifest(body);
  ASSERT_FALSE(out);
  EXPECT_EQ(out.error().code, Error::Code::kTruncated);
}

TEST(BundleManifest, ForeignVersionIsRejectedTyped) {
  std::string body = to_json(sample());
  const std::size_t pos = body.find("\"ccfuzz_finding\": 1");
  ASSERT_NE(pos, std::string::npos);
  body.replace(pos, 19, "\"ccfuzz_finding\": 2");
  Result<BundleManifest> out = parse_manifest(body);
  ASSERT_FALSE(out);
  EXPECT_EQ(out.error().code, Error::Code::kVersion);
}

TEST(BundleManifest, GarbageIsParseError) {
  EXPECT_EQ(parse_manifest("not a manifest\n").error().code,
            Error::Code::kParse);
  std::string body = to_json(sample());
  const std::size_t pos = body.find("\"duration_ms\": 2000");
  ASSERT_NE(pos, std::string::npos);
  body.replace(pos, 19, "\"duration_ms\": bogus");
  EXPECT_EQ(parse_manifest(body).error().code, Error::Code::kParse);
  // A \u escape without four hex digits once loaded as a NUL byte.
  std::string bad_escape = to_json(sample());
  const std::string cell = "\"cell\": \"reno.traffic.low-utilization\"";
  const std::size_t at = bad_escape.find(cell);
  ASSERT_NE(at, std::string::npos);
  bad_escape.replace(at, cell.size(), "\"cell\": \"a\\uzzzz\"");
  EXPECT_EQ(parse_manifest(bad_escape).error().code, Error::Code::kParse);
  // Each of these once loaded: confirm_runs narrowed to 1, a repeated key
  // whose last value won, an unknown key, and bytes after the closing brace.
  const std::string good = to_json(sample());
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string out = good;
    const std::size_t where = out.find(from);
    EXPECT_NE(where, std::string::npos) << from;
    if (where != std::string::npos) out.replace(where, from.size(), to);
    return out;
  };
  for (const std::string& bad :
       {with("\"confirm_runs\": 3,", "\"confirm_runs\": 4294967297,"),
        with("  \"cca\"", "  \"cell\": \"other\",\n  \"cca\""),
        with("  \"cca\"", "  \"colour\": \"red\",\n  \"cca\""),
        good + "trailing\n"}) {
    EXPECT_EQ(parse_manifest(bad).error().code, Error::Code::kParse) << bad;
  }
}

TEST(BundleManifest, SemanticCorruptionIsTyped) {
  BundleManifest bad_id = sample();
  bad_id.id = "short";
  EXPECT_EQ(parse_manifest(to_json(bad_id)).error().code,
            Error::Code::kCorrupt);

  BundleManifest bad_duration = sample();
  bad_duration.duration_ms = 0;
  EXPECT_EQ(parse_manifest(to_json(bad_duration)).error().code,
            Error::Code::kCorrupt);
}

TEST(BundleId, StableAndCollisionResistant) {
  const std::string a = bundle_id("reno.traffic.low-utilization", 42);
  EXPECT_EQ(a.size(), 16u);
  EXPECT_EQ(a, "f712fff463fc7033");  // bundle directories on disk use it
  EXPECT_EQ(a, bundle_id("reno.traffic.low-utilization", 42));
  EXPECT_NE(a, bundle_id("cubic.traffic.low-utilization", 42));
  EXPECT_NE(a, bundle_id("reno.traffic.low-utilization", 43));
}

TEST(Bundle, SaveLoadRoundTripsOnDisk) {
  const stdfs::path dir =
      stdfs::temp_directory_path() /
      ("ccfuzz_bundle_" + std::to_string(::getpid()));
  stdfs::remove_all(dir);

  trace::Trace original;
  original.kind = trace::TraceKind::kTraffic;
  original.duration = TimeNs::seconds(2);
  for (int i = 0; i < 20; ++i) original.stamps.push_back(TimeNs::millis(i));
  trace::Trace minimized = original;
  minimized.stamps.resize(3);

  BundleManifest m = sample();
  m.original_events = original.stamps.size();
  m.minimized_events = minimized.stamps.size();
  ASSERT_FALSE(save_bundle(dir.string(), m, original, minimized));

  Result<BundleManifest> loaded = load_manifest(dir.string());
  ASSERT_TRUE(loaded) << loaded.error().message;
  EXPECT_EQ(loaded->id, m.id);
  EXPECT_EQ(trace::load_trace((dir / kOriginalTraceFile).string()).stamps,
            original.stamps);
  EXPECT_EQ(trace::load_trace((dir / kMinimizedTraceFile).string()).stamps,
            minimized.stamps);

  std::error_code ec;
  stdfs::remove_all(dir, ec);
}

TEST(Bundle, LoadFromMissingDirectoryIsIo) {
  Result<BundleManifest> out = load_manifest("/nonexistent/ccfuzz/bundle");
  ASSERT_FALSE(out);
  EXPECT_EQ(out.error().code, Error::Code::kIo);
}

}  // namespace
}  // namespace ccfuzz::triage
