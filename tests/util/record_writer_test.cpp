// record::Writer against std::ostringstream as the oracle: the checkpoint
// family was written through streams at setprecision(17) (doubles) and
// std::hex (hex words), and the Writer must give the same bytes for every
// value, so files written before and after it stay byte-identical. Its
// integer kernel is also checked against std::to_chars, and a Writer that
// spills to a sink against one that keeps everything.
#include "util/record.h"

#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

namespace ccfuzz::record {
namespace {

using Dbl = std::numeric_limits<double>;

/// Formats one value through `<<` on a Writer and on a string stream.
class Oracle {
 public:
  Oracle() { os_ << std::setprecision(17); }

  template <typename T>
  std::string stream(const T& v) {
    os_.str("");
    os_ << v;
    return os_.str();
  }
  template <typename T>
  static std::string writer(const T& v) {
    Writer w;
    w << v;
    return w.str();
  }

 private:
  std::ostringstream os_;
};

TEST(RecordWriter, DoublesMatchTheStreamOnRandomBitPatterns) {
  Oracle o;
  std::mt19937_64 rng(0xC0FFEE);
  for (int i = 0; i < 300'000; ++i) {
    const std::uint64_t bits = rng();
    const double v = std::bit_cast<double>(bits);
    ASSERT_EQ(o.writer(v), o.stream(v)) << "bits " << std::hex << bits;
  }
}

TEST(RecordWriter, DoublesMatchTheStreamOnDecimalValues) {
  // Scores, rates and delays are short decimals, not random bit patterns.
  Oracle o;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 100'000; ++i) {
    const auto n = static_cast<std::int64_t>(rng() % 2'000'001) - 1'000'000;
    for (const double scale : {1.0, 1e-3, 1e-6, 1e5, 1e12, 1e-300}) {
      const double v = static_cast<double>(n) * scale;
      ASSERT_EQ(o.writer(v), o.stream(v)) << n << " * " << scale;
    }
  }
}

TEST(RecordWriter, DoublesMatchTheStreamOnEdgeValues) {
  Oracle o;
  const std::vector<double> edges = {
      0.0, -0.0, Dbl::infinity(), -Dbl::infinity(), Dbl::quiet_NaN(),
      -Dbl::quiet_NaN(), Dbl::signaling_NaN(),
      std::bit_cast<double>(std::uint64_t{0x7ff0'0000'0000'0001}),
      std::bit_cast<double>(std::uint64_t{0xfff8'0000'dead'beef}),
      Dbl::denorm_min(), -Dbl::denorm_min(), Dbl::min(), -Dbl::min(),
      std::bit_cast<double>(std::uint64_t{0x000f'ffff'ffff'ffff}),
      Dbl::max(), Dbl::lowest(), Dbl::epsilon(), 1.0, -1.0, 0.1, 0.5, 1e-5,
      1e-4, 9.9999999999999991e-5, 1e16, 1e17, 123456789012345678.0,
      -1.2345678901234567, 0.73125, -2.5e-7, 1e300, -1e300};
  for (const double v : edges) {
    EXPECT_EQ(o.writer(v), o.stream(v))
        << "bits " << std::hex << std::bit_cast<std::uint64_t>(v);
  }
}

/// What std::to_chars writes for `v`, in base 10.
template <typename N>
std::string to_chars_of(N v) {
  char buf[24];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

TEST(RecordWriter, IntegersMatchTheStream) {
  // The Writer's two-digit kernel against std::to_chars and the stream, at
  // every digit-length boundary, the 32-bit limits and the 64-bit ones.
  Oracle o;
  using I64 = std::numeric_limits<std::int64_t>;
  using U64 = std::numeric_limits<std::uint64_t>;
  std::vector<std::uint64_t> unsigned_edges = {
      0, 1, 9, 10, 99, 100, 99'999'999, 100'000'000, 100'000'001,
      (std::uint64_t{1} << 32) - 1, std::uint64_t{1} << 32,
      (std::uint64_t{1} << 32) + 1, static_cast<std::uint64_t>(I64::max()),
      static_cast<std::uint64_t>(I64::max()) + 1, U64::max() - 1, U64::max()};
  for (std::uint64_t p = 10; p <= U64::max() / 10; p *= 10) {
    for (const std::uint64_t v : {p - 1, p, p + 1, 10 * p - 1}) {
      unsigned_edges.push_back(v);
    }
  }
  for (const std::uint64_t u : unsigned_edges) {
    EXPECT_EQ(o.writer(u), to_chars_of(u));
    EXPECT_EQ(o.writer(u), o.stream(u));
    if (u <= static_cast<std::uint64_t>(I64::max())) {
      for (const std::int64_t v : {static_cast<std::int64_t>(u),
                                   -static_cast<std::int64_t>(u)}) {
        EXPECT_EQ(o.writer(v), to_chars_of(v));
        EXPECT_EQ(o.writer(v), o.stream(v));
      }
    }
  }
  for (const std::int64_t v : {I64::min(), I64::min() + 1, I64::max()}) {
    EXPECT_EQ(o.writer(v), to_chars_of(v));
    EXPECT_EQ(o.writer(v), o.stream(v));
  }
  const int int_min = std::numeric_limits<int>::min();
  EXPECT_EQ(o.writer(int_min), o.stream(int_min));
  const std::size_t size = 1'234'567;
  EXPECT_EQ(o.writer(size), o.stream(size));
  // Random values of every length: a random word shifted right 0..63 bits.
  std::mt19937_64 rng(11);
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t u = rng() >> (rng() % 64);
    const auto v = static_cast<std::int64_t>(rng());
    ASSERT_EQ(o.writer(u), to_chars_of(u));
    ASSERT_EQ(o.writer(v), to_chars_of(v));
    ASSERT_EQ(o.writer(static_cast<std::int64_t>(u)),
              to_chars_of(static_cast<std::int64_t>(u)));
  }
  for (int i = 0; i < 10'000; ++i) {
    const auto v = static_cast<std::int64_t>(rng());
    ASSERT_EQ(o.writer(v), o.stream(v));
  }
}

/// Formats a few records of every kind the checkpoint family writes.
void write_records(Writer& w) {
  const std::uint64_t words[] = {0, 0xdeadbeef, ~std::uint64_t{0}};
  for (int i = 0; i < 200; ++i) {
    w << "# stamp " << i * 1'000'003 << ' ' << -i << ' ' << (i % 2 == 0)
      << ' ' << static_cast<std::uint8_t>(i) << ' ' << i * 0.1 << '\n';
    w << "# words ";
    w.hex(words) << '\n';
  }
}

TEST(RecordWriter, SpillingWriterHandsOverTheSameBytesInBoundedChunks) {
  Writer whole;
  write_records(whole);
  for (const std::size_t bound : {std::size_t{1}, std::size_t{64},
                                  std::size_t{4096}, Writer::kSpillBytes}) {
    SCOPED_TRACE(bound);
    std::vector<std::string> chunks;
    Writer w([&](std::string_view bytes) { chunks.emplace_back(bytes); },
             bound);
    write_records(w);
    w.flush();
    EXPECT_TRUE(w.str().empty());
    w.flush();  // nothing left: no empty chunk
    std::string joined;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      ASSERT_FALSE(chunks[i].empty());
      // Every spill but the flush's reaches the bound, and passes it by
      // less than one append: here at most the 27-byte hex field.
      if (i + 1 < chunks.size()) {
        EXPECT_GE(chunks[i].size(), bound);
      }
      EXPECT_LT(chunks[i].size(), bound + 27);
      joined += chunks[i];
    }
    EXPECT_EQ(joined, whole.str());
  }
}

TEST(RecordWriter, SmallFieldsAreNumbersNotCharacters) {
  // A stream writes a uint8_t as a character, so the stream writers
  // promoted it; a Writer writes the number. A bool is 0/1 in both.
  Oracle o;
  for (const std::uint8_t v : {std::uint8_t{0}, std::uint8_t{7},
                               std::uint8_t{' '}, std::uint8_t{255}}) {
    EXPECT_EQ(o.writer(v), o.stream(+v));
  }
  EXPECT_EQ(o.writer(true), o.stream(true));
  EXPECT_EQ(o.writer(false), o.stream(false));
  EXPECT_EQ(o.writer('x'), "x");
  EXPECT_EQ(o.writer("# tag"), "# tag");
}

TEST(RecordWriter, HexWordsMatchTheStream) {
  std::mt19937_64 rng(3);
  std::vector<std::uint64_t> words = {
      0, 1, 0xabcdef, std::numeric_limits<std::uint64_t>::max()};
  for (int i = 0; i < 1000; ++i) words.push_back(rng() >> (rng() % 64));
  std::ostringstream os;
  os << std::hex;
  for (std::size_t i = 0; i < words.size(); ++i) {
    os << (i == 0 ? "" : " ") << words[i];
  }
  Writer w;
  w.hex(words);
  EXPECT_EQ(w.str(), os.str());

  Writer none;
  none.hex({});
  EXPECT_EQ(none.str(), "");
}

}  // namespace
}  // namespace ccfuzz::record
