// Line-oriented readers for every on-disk format, and the one writer of the
// checkpoint family. The checkpoint family (trace, member, fuzzer state,
// elite archive, checkpoint) is records: `# <tag>` plus fields, each after
// one space, opened by `# <magic> <version>`, a nested block closed by
// `# end <what>`. A Writer builds such a file in one string or, given a
// sink, in a buffer it hands to the sink each time it passes a fixed bound
// (kSpillBytes), so a checkpoint streams to disk through about 1 MiB of
// memory however large it is. Integers are written through a two-digit
// table, byte for byte what std::to_chars writes; doubles as %.17g, through
// std::to_chars, and read back exactly. The JSON family (shard plan, shard
// summary, finding manifest) is machine-written JSON, one key or inline
// object per line; indentation is skipped, and a line ends in a comma
// exactly when another item of its object or array follows. A shard
// summary's CSV twin is read as RFC 4180 rows. Blank lines are skipped. One
// Reader is passed down the nesting, so an embedded block parses in place;
// a checkpoint is read from its mapped file, not copied.
//
// Errors are sticky: the Reader keeps the first one and every later read is
// a no-op, so a block reads as straight-line code checked once. Every
// framing error is built here: kParse (foreign magic, unexpected tag, line
// or key, wrong field count, unparsable or out-of-range field, content after
// the end), kVersion (known magic, other version), kTruncated (input ends
// where a line is due, or an object lacks a key). Callers add the semantic
// errors they own (kMismatch, kCorrupt) through fail(), at() naming the
// line.
//
// A Reader of a string can hand a run of blocks to sub-readers (blocks()):
// each reads the text from its block's start to the end, numbering lines on
// from where its block starts, so a block reads there exactly as it would in
// place. Once blocks 0..i-1 have read cleanly, each ending at its `# end`
// line, block i starts where the one Reader would have, and its error, line
// number included, is the one Reader's.
#pragma once

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "util/error.h"

namespace ccfuzz::record {

/// Builds one file of the checkpoint family. `<<` appends text as it is,
/// integers in decimal (bool as 0/1, uint8_t as a number, not a character)
/// and doubles as %.17g, which round-trips every IEEE-754 value and is what
/// parse_number() reads; hex() appends hex-word fields. No locale, no stream
/// state: the bytes depend only on the values.
class Writer {
 public:
  /// Takes the bytes a spilling Writer hands over, in order.
  using Sink = std::function<void(std::string_view)>;
  /// A spilling Writer's bound.
  static constexpr std::size_t kSpillBytes = std::size_t{1} << 20;

  /// Builds the file in one string: str() is all of it.
  Writer() = default;
  /// Spills: once an append leaves `spill_at` bytes or more in the buffer,
  /// they go to `sink` and the buffer empties, keeping its capacity, so it
  /// never holds more than the bound plus one append. flush() hands over
  /// the rest. Tests vary `spill_at`; the program writes at kSpillBytes.
  explicit Writer(Sink sink, std::size_t spill_at = kSpillBytes);

  Writer& operator<<(std::string_view text) {
    buf_.append(text);
    return spill();
  }
  Writer& operator<<(char c) {
    buf_.push_back(c);
    return spill();
  }
  template <std::integral N>
    requires(!std::is_same_v<N, char>)
  Writer& operator<<(N v) {
    if constexpr (std::is_same_v<N, bool>) {
      buf_.push_back(v ? '1' : '0');
      return spill();
    } else if constexpr (std::is_signed_v<N>) {
      return integer(static_cast<std::int64_t>(v));
    } else {
      return integer(static_cast<std::uint64_t>(v));
    }
  }
  Writer& operator<<(double v);
  /// Appends `words` in lowercase hex, space-separated.
  Writer& hex(std::span<const std::uint64_t> words);

  /// What has been written and not handed to the sink: all of it, without
  /// one.
  const std::string& str() const { return buf_; }
  /// Hands what is buffered to the sink, if there is one.
  void flush();

 private:
  Writer& spill() {
    if (buf_.size() >= spill_at_) flush();
    return *this;
  }
  // Out of line: a record writes dozens of numbers, and an inlined digit
  // loop would be copied into every write site.
  Writer& integer(std::int64_t v);
  Writer& integer(std::uint64_t v);

  std::string buf_;
  Sink sink_;
  std::size_t spill_at_ = SIZE_MAX;  ///< never reached without a sink
};

/// Hex-word fields, one per word: `r >> Hex(array)`, `r >> Hex(&word, 1)`.
using Hex = std::span<std::uint64_t>;

/// The tag of a record line, or "" when `line` is not one.
std::string_view tag_of(std::string_view line);

/// Parses all of `text` as one number: the parser for every number the
/// program reads from a file, flag or spec. Integers in base `base` (an
/// unsigned type rejects a sign), doubles as %.17g writes them. False, with
/// `out` untouched, on empty text, trailing junk or an out-of-range value.
template <typename N>
bool parse_number(std::string_view text, N& out, int base = 10) {
  N v{};
  const char* end = text.data() + text.size();
  std::from_chars_result res;
  if constexpr (std::is_floating_point_v<N>) {
    res = std::from_chars(text.data(), end, v);
  } else {
    res = std::from_chars(text.data(), end, v, base);
  }
  if (res.ec != std::errc{} || res.ptr != end) return false;
  out = v;
  return true;
}

/// One key of a JSON object and where its value goes.
struct Field {
  std::string_view key;
  std::variant<bool*, int*, std::int64_t*, std::uint64_t*, double*,
               std::string*>
      out;
};

/// Reads one stream, one line at a time. A record line starts with expect()
/// (or bare()), `>>` reads its fields left to right, and done() checks none
/// is left; a JSON `"<key>": <value>` line starts with key().
class Reader {
 public:
  /// After the first line, which names the format, lines for which
  /// `comment` is true are skipped (standalone trace files).
  explicit Reader(std::istream& is,
                  bool (*comment)(std::string_view) = nullptr)
      : is_(&is), comment_(comment) {}
  /// Reads `text` instead of a stream.
  explicit Reader(std::string_view text) : text_(text) {}

  /// The first error met; kOk while every read has succeeded.
  const Error& error() const { return error_; }
  bool ok() const { return error_.ok(); }
  /// Records `e` unless an earlier error stands.
  void fail(Error e);
  /// Records kParse at the current line: a value out of its field's range.
  void fail_parse(const std::string& what);
  /// `line <n>: `, the current line, for a caller's semantic error.
  std::string at() const;

  /// Reads the `# <magic> <version>` line.
  void header(std::string_view magic, std::string_view version);
  /// Reads a `# <magic> <version>` line whose version is one of `versions`;
  /// `index` is its place.
  void header(std::string_view magic,
              std::initializer_list<std::string_view> versions,
              std::size_t& index);
  /// Starts the next line, which must carry `tag`.
  Reader& expect(std::string_view tag);
  /// Starts the next line as untagged fields (trace stamps).
  Reader& bare();
  /// The next field: bool as 0/1 (true/false in JSON); numbers through
  /// parse_number(); Hex; a vector<double> as a count, then its values; a
  /// std::string as a JSON string.
  template <typename T>
  Reader& operator>>(T&& out);
  /// The next field, which must be one of `words`; `index` is its place.
  Reader& one_of(std::initializer_list<std::string_view> words,
                 std::size_t& index);
  /// The rest of the line, verbatim and non-empty (a name with spaces).
  Reader& rest(std::string& out);
  /// True while the current line has fields left and no error stands.
  bool more() const { return ok() && !rest_.empty(); }
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
  /// Reads `n` blocks in a row, each closed by a `# end <what>` line, as
  /// `read(block, i)` for block i: the outcome is that of calling
  /// read(*this, i) for i = 0..n-1, but each block found in the text gets a
  /// sub-reader of its own (see the top of this file), and they run on the
  /// thread pool when `parallel`, so `read` must write only block i's
  /// results. Afterwards this Reader stands after the last block, or holds
  /// the error of the first block that failed. A Reader of a stream reads
  /// every block in place.
  void blocks(std::string_view what, std::size_t n, bool parallel,
              const std::function<void(Reader&, std::size_t)>& read);
  /// Reads to the end; the last line must be `# end <what>` (kTruncated).
  void footer(std::string_view what);
  /// Fails unless nothing but blank lines remains.
  void eof();
  /// The next line, left unread; false at the end or after an error.
  bool peek(std::string_view& line);

  /// Reads the next line, which must be exactly `text` (a CSV header).
  void line(std::string_view text);
  /// Reads a CSV row, verbatim and without its final newline; a quoted field
  /// may span lines.
  void csv_row(std::string& row);

  /// Read the lines that open and close an object or array: `{`, `]`.
  void open(std::string_view text) { json(Item::kOpen); lit(text); done(); }
  void close(std::string_view text) { json(Item::kClose); lit(text); done(); }
  /// True when the next line, unindented, starts with `prefix`.
  bool next_is(std::string_view prefix);
  /// Starts a `"<name>": <value>` line; `>>` reads the value.
  Reader& key(std::string_view name) {
    json(Item::kValue);
    lit('"' + std::string(name) + "\": ");
    return *this;
  }
  /// Reads a one-line object of `fields` in order: `{"a": 1, "b": 2}`.
  void inline_object(std::initializer_list<Field> fields);
  /// Reads `{`, one key line per field in any order, `}`. A missing key is
  /// kTruncated; an unknown or repeated one kParse.
  void object(std::initializer_list<Field> fields);
  /// Appends the next line, and a newline, to `out` as written.
  void verbatim(std::string& out);

 private:
  /// A JSON line's place in its object or array, for the comma rule.
  enum class Item : std::uint8_t { kOpen, kValue, kClose, kVerbatim };
  /// After an opening line, or an item that ends in a comma or not.
  enum class Comma : std::uint8_t { kFirst, kMore, kLast };

  bool getline();
  bool fetch();
  bool due(const std::string& what);
  Reader& start(std::string_view rest, bool sep);
  bool json(Item item);
  void lit(std::string_view text);
  void string(std::string& out);
  std::string_view take();
  template <typename N>
  void number(N& out, int base = 10);

  std::istream* is_ = nullptr;
  std::string_view text_;  ///< unread input when reading a string
  bool (*comment_)(std::string_view) = nullptr;
  std::string line_;
  std::size_t line_no_ = 0;
  bool started_ = false;  ///< the first non-blank line is fetched
  bool held_ = false;     ///< line_ is fetched and not yet read
  std::string_view rest_;  ///< unread fields of the current line
  bool sep_ = false;  ///< the next field follows a space (not a bare start)
  bool json_ = false;  ///< the current line is JSON
  Comma comma_ = Comma::kFirst;
  Error error_;
};

template <typename N>
void Reader::number(N& out, int base) {
  const std::string_view f = take();
  if (ok() && !parse_number(f, out, base)) {
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
    json_ ? one_of({"false", "true"}, v) : one_of({"0", "1"}, v);
    out = v == 1;
  } else if constexpr (std::is_same_v<V, std::string>) {
    string(out);
  } else {
    number(out);
  }
  return *this;
}

}  // namespace ccfuzz::record
