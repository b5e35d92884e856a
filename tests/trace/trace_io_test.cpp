// Tests for trace text serialization.
#include "trace/trace_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace ccfuzz::trace {
namespace {

Trace sample_trace() {
  Trace t;
  t.kind = TraceKind::kTraffic;
  t.duration = TimeNs::seconds(5);
  t.stamps = {TimeNs::millis(1), TimeNs::millis(500), TimeNs::millis(4999)};
  return t;
}

TEST(TraceIo, RoundTripThroughStream) {
  const Trace t = sample_trace();
  record::Writer w;
  write_trace(w, t);
  std::stringstream ss(w.str());
  const Trace r = read_trace(ss);
  EXPECT_EQ(r.kind, t.kind);
  EXPECT_EQ(r.duration, t.duration);
  EXPECT_EQ(r.stamps, t.stamps);
}

TEST(TraceIo, RoundTripLinkKind) {
  Trace t = sample_trace();
  t.kind = TraceKind::kLink;
  record::Writer w;
  write_trace(w, t);
  std::stringstream ss(w.str());
  EXPECT_EQ(read_trace(ss).kind, TraceKind::kLink);
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  Trace t;
  t.kind = TraceKind::kLink;
  t.duration = TimeNs::seconds(1);
  record::Writer w;
  write_trace(w, t);
  std::stringstream ss(w.str());
  const Trace r = read_trace(ss);
  EXPECT_TRUE(r.stamps.empty());
  EXPECT_EQ(r.duration, TimeNs::seconds(1));
}

TEST(TraceIo, RejectsMissingHeader) {
  std::stringstream ss("123\n456\n");
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsUnknownKind) {
  std::stringstream ss("# kind bogus\n# duration_ns 10\n");
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsUnsortedStamps) {
  std::stringstream ss("# kind link\n# duration_ns 1000000000\n500\n100\n");
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsStampOutsideWindow) {
  std::stringstream ss("# kind link\n# duration_ns 1000\n2000\n");
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

TEST(TraceIo, RejectsGarbageTimestampLine) {
  std::stringstream ss("# kind link\n# duration_ns 1000\nabc\n");
  EXPECT_THROW(read_trace(ss), std::runtime_error);
}

TEST(TraceIo, StandaloneFilesAcceptCommentLines) {
  std::stringstream ss(
      "# ccfuzz-trace v1\n# hand-edited\n# kind link\n# duration_ns 1000\n"
      "# note: one stamp\n5\n");
  const Trace r = read_trace(ss);
  EXPECT_EQ(r.kind, TraceKind::kLink);
  EXPECT_EQ(r.stamps, std::vector<TimeNs>{TimeNs(5)});
}

TEST(TraceIo, FileRoundTrip) {
  const Trace t = sample_trace();
  const std::string path = ::testing::TempDir() + "/ccfuzz_trace_io_test.txt";
  save_trace(path, t);
  const Trace r = load_trace(path);
  EXPECT_EQ(r.stamps, t.stamps);
}

TEST(TraceIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_trace("/nonexistent/path/trace.txt"), std::runtime_error);
}

// --- Structured (non-throwing) parse errors ----------------------------------
// Every way a trace file can be mangled maps to a typed Error, so loaders in
// crash-recovery paths (checkpoint restore, archive resume) can distinguish
// "wrong version" from "crash-truncated" from "bit rot" and degrade
// accordingly instead of dying on a bare exception.

TEST(TraceIoErrors, WrittenTracesCarryTheVersionMagic) {
  record::Writer w;
  write_trace(w, sample_trace());
  std::stringstream ss(w.str());
  std::string first;
  std::getline(ss, first);
  EXPECT_EQ(first, "# ccfuzz-trace v1");
}

TEST(TraceIoErrors, FutureVersionIsKVersion) {
  std::stringstream ss("# ccfuzz-trace v9\n# kind link\n# duration_ns 10\n");
  const auto r = try_read_trace(ss);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Error::Code::kVersion);
}

TEST(TraceIoErrors, MissingHeaderIsKTruncated) {
  std::stringstream empty("");
  EXPECT_EQ(try_read_trace(empty).error().code, Error::Code::kTruncated);
  std::stringstream kind_only("# kind link\n");
  EXPECT_EQ(try_read_trace(kind_only).error().code, Error::Code::kTruncated);
}

TEST(TraceIoErrors, GarbageIsKParse) {
  std::stringstream bad_kind("# kind bogus\n# duration_ns 10\n");
  EXPECT_EQ(try_read_trace(bad_kind).error().code, Error::Code::kParse);
  std::stringstream bad_duration("# kind link\n# duration_ns ten\n");
  EXPECT_EQ(try_read_trace(bad_duration).error().code, Error::Code::kParse);
  std::stringstream bad_stamp("# kind link\n# duration_ns 1000\nabc\n");
  EXPECT_EQ(try_read_trace(bad_stamp).error().code, Error::Code::kParse);
  std::stringstream trailing("# kind link\n# duration_ns 1000 junk\n");
  EXPECT_EQ(try_read_trace(trailing).error().code, Error::Code::kParse);
}

TEST(TraceIoErrors, MalformedTraceIsKCorrupt) {
  // Each names the line of the first stamp (or duration) out of place; the
  // cut one is a line cut short mid-number.
  for (const auto& [text, line] : std::vector<std::pair<std::string, int>>{
           {"# kind link\n# duration_ns 1000000000\n500\n100\n", 4},
           {"# kind link\n# duration_ns 1000\n2000\n", 3},
           {"# kind link\n# duration_ns 1000\n-1\n", 3},
           {"# kind link\n# duration_ns -5\n", 2},
           {"# kind link\n# duration_ns 1000000\n4700\n51200\n5", 5}}) {
    std::stringstream is(text);
    const Result<Trace> r = try_read_trace(is);
    ASSERT_FALSE(r) << text;
    EXPECT_EQ(r.error().code, Error::Code::kCorrupt) << text;
    EXPECT_TRUE(r.error().message.starts_with(
        "line " + std::to_string(line) + ": trace: "))
        << r.error().message;
  }
}

TEST(TraceIoErrors, MissingFileIsKIo) {
  const auto r = try_load_trace("/nonexistent/path/trace.txt");
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().code, Error::Code::kIo);
  EXPECT_NE(r.error().message.find("trace.txt"), std::string::npos);
}

}  // namespace
}  // namespace ccfuzz::trace
