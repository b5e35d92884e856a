// record::Reader::blocks: blocks read by sub-readers, on the pool or not,
// leave the Reader where one Reader reading them in place would stand, with
// its values and its errors.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "util/record.h"

namespace ccfuzz::record {
namespace {

/// Block i is `# a <i> <k>` and then k close lines. A block of two is split
/// at its first close line, so the block after it is looked for one line
/// early: it, and every block after it, reads again in place.
const std::string kText =
    "# head\n"
    "# a 0 1\n# end x\n"
    "# a 1 2\n# end x\n# end x\n"
    "\n"
    "# a 2 1\n# end x\n"
    "# tail 7\n";

struct Outcome {
  std::vector<int> closes = std::vector<int>(3, -1);
  int tail = -1;
  Error error;
};

Outcome read_all(Reader& r, bool parallel) {
  Outcome out;
  r.expect("head").done();
  r.blocks("x", 3, parallel, [&](Reader& b, std::size_t i) {
    std::size_t idx = 0;
    int k = 0;
    b.read("a", idx, k);
    if (idx != i) b.fail(Error::corrupt("block out of order"));
    for (int j = 0; j < k; ++j) b.end("x");
    out.closes[i] = k;
  });
  r.read("tail", out.tail);
  r.eof();
  out.error = r.error();
  return out;
}

Outcome in_memory(const std::string& text, bool parallel) {
  Reader r(text);
  return read_all(r, parallel);
}

Outcome in_place(const std::string& text) {
  std::istringstream is(text);
  Reader r(is);
  return read_all(r, /*parallel=*/false);
}

TEST(RecordReader, BlocksReadLikeOneReaderInPlace) {
  for (const bool parallel : {true, false}) {
    const Outcome o = in_memory(kText, parallel);
    EXPECT_FALSE(o.error) << o.error.message;
    EXPECT_EQ(o.closes, (std::vector<int>{1, 2, 1}));
    EXPECT_EQ(o.tail, 7);
  }
}

TEST(RecordReader, BlockErrorsAreTheInPlaceErrors) {
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"# a 2 1", "# a 2 x"},      // the block read again in place
           {"# a 0 1", "# a 0 x"},      // the first block
           {"# a 1 2", "# a 1 3"},      // a close too few
           {"# tail 7", "# end x"},     // a close too many
           {"# a 2 1\n# end x\n", ""},  // a block missing
       }) {
    std::string text = kText;
    text.replace(text.find(from), from.size(), to);
    const Outcome ref = in_place(text);
    ASSERT_TRUE(ref.error) << text;
    for (const bool parallel : {true, false}) {
      const Outcome o = in_memory(text, parallel);
      EXPECT_EQ(o.error.code, ref.error.code) << text;
      EXPECT_EQ(o.error.message, ref.error.message) << text;
    }
  }
}

}  // namespace
}  // namespace ccfuzz::record
