// Line-oriented records for the checkpoint family of on-disk formats:
// trace, population member, fuzzer state, elite archive and checkpoint.
//
// A record line is `# <tag>` plus fields, each after exactly one space. A
// format opens with `# <magic> <version>`; a nested block closes with
// `# end <what>`. Blank lines are skipped. One Reader is passed down the
// nesting, so an embedded block is parsed in place.
//
// Errors are sticky: the Reader keeps the first one and every later read is
// a no-op, so a block reads as straight-line code checked once. Every
// framing error is built here: kParse (foreign magic, unexpected tag, wrong
// field count, unparsable field), kVersion (known magic, other version),
// kTruncated (input ends where a record is due). Callers add the semantic
// errors they own (kMismatch, kCorrupt) through fail().
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/error.h"

namespace ccfuzz::record {

/// Writes `words` in lowercase hex, space-separated.
void write_hex(std::ostream& os, std::span<const std::uint64_t> words);

/// Hex-word fields, one per word: `r >> Hex(array)`, `r >> Hex(&word, 1)`.
using Hex = std::span<std::uint64_t>;

/// The tag of a record line, or "" when `line` is not one.
std::string_view tag_of(std::string_view line);

/// Reads one stream, one record at a time: expect() (or bare()) starts a
/// line, `>>` reads its fields left to right, done() checks none is left.
class Reader {
 public:
  /// After the first line, which names the format, lines for which
  /// `comment` is true are skipped (standalone trace files).
  explicit Reader(std::istream& is,
                  bool (*comment)(std::string_view) = nullptr)
      : is_(is), comment_(comment) {}

  /// The first error met; kOk while every read has succeeded.
  const Error& error() const { return error_; }
  bool ok() const { return error_.ok(); }
  /// Records `e` unless an earlier error stands.
  void fail(Error e);

  /// Reads the `# <magic> <version>` line.
  void header(std::string_view magic, std::string_view version);
  /// Starts the next line, which must carry `tag`.
  Reader& expect(std::string_view tag);
  /// Starts the next line as untagged fields (trace stamps).
  Reader& bare();
  /// The next field: bool as 0/1; integers in decimal, unsigned ones
  /// rejecting a sign; doubles as written with 17 digits; Hex; a
  /// vector<double> as a count, then its values.
  template <typename T>
  Reader& operator>>(T&& out);
  /// The next field, which must be one of `words`; `index` is its place.
  Reader& one_of(std::initializer_list<std::string_view> words,
                 std::size_t& index);
  /// The rest of the line, verbatim and non-empty (a name with spaces).
  Reader& rest(std::string& out);
  /// Fails on fields left over; true while no error stands.
  bool done();
  /// expect(tag), whose fields must be exactly `out...`.
  template <typename... T>
  bool read(std::string_view tag, T&&... out) {
    (expect(tag) >> ... >> out);
    return done();
  }

  /// Reads `# end <what>`.
  void end(std::string_view what);
  /// Reads to the end; the last line must be `# end <what>` (kTruncated).
  void footer(std::string_view what);
  /// Fails unless nothing but blank lines remains.
  void eof();
  /// The next line, left unread; false at the end or after an error.
  bool peek(std::string_view& line);

 private:
  bool fetch();
  Reader& start(std::string_view rest, bool sep);
  std::string_view take();
  void fail_parse(const std::string& what);
  std::string at() const;
  template <typename N>
  void number(N& out, int base = 10);

  std::istream& is_;
  bool (*comment_)(std::string_view);
  std::string line_;
  std::size_t line_no_ = 0;
  bool started_ = false;  ///< the first non-blank line is fetched
  bool held_ = false;     ///< line_ is fetched and not yet read
  std::string_view rest_;  ///< unread fields of the current line
  bool sep_ = false;  ///< the next field follows a space (not a bare start)
  Error error_;
};

template <typename N>
void Reader::number(N& out, int base) {
  const std::string_view f = take();
  if (!ok()) return;
  std::from_chars_result res;
  if constexpr (std::is_floating_point_v<N>) {
    res = std::from_chars(f.data(), f.data() + f.size(), out);
  } else {
    res = std::from_chars(f.data(), f.data() + f.size(), out, base);
  }
  if (res.ec != std::errc{} || res.ptr != f.data() + f.size()) {
    fail_parse("bad field '" + std::string(f) + "'");
  }
}

template <typename T>
Reader& Reader::operator>>(T&& out) {
  using V = std::remove_cvref_t<T>;
  if constexpr (std::is_same_v<V, Hex>) {
    for (std::uint64_t& w : out) number(w, 16);
  } else if constexpr (std::is_same_v<V, std::vector<double>>) {
    std::size_t n = 0;
    number(n);
    // Each field follows one space: the count cannot exceed them.
    if (ok() && n > static_cast<std::size_t>(
                        std::count(rest_.begin(), rest_.end(), ' '))) {
      fail_parse("count " + std::to_string(n) + " exceeds the fields");
    }
    out.resize(ok() ? n : 0);
    for (double& d : out) number(d);
  } else if constexpr (std::is_same_v<V, bool>) {
    std::size_t v = 0;
    one_of({"0", "1"}, v);
    out = v == 1;
  } else {
    number(out);
  }
  return *this;
}

}  // namespace ccfuzz::record
