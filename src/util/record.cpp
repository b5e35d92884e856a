#include "util/record.h"

#include <array>
#include <cstring>
#include <istream>

#include "campaign/report.h"
#include "util/thread_pool.h"

namespace ccfuzz::record {
namespace {

std::string_view unindented(std::string_view line) {
  line.remove_prefix(std::min(line.find_first_not_of(' '), line.size()));
  return line;
}

/// Appends what std::to_chars(…, args...) writes.
template <typename... Args>
void append_chars(std::string& out, Args... args) {
  // The longest, a %.17g double like "-2.2250738585072014e-308", has 24.
  char tmp[32];
  out.append(tmp, std::to_chars(tmp, tmp + sizeof tmp, args...).ptr);
}

/// "00" "01" … "99": two decimal digits per lookup.
constexpr auto kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (int i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

/// Writes `v` in decimal so that it ends at `end`; returns its first digit.
char* decimal_before(char* end, std::uint64_t v) {
  for (; v >= 100; v /= 100) {
    end -= 2;
    std::memcpy(end, &kDigitPairs[2 * (v % 100)], 2);
  }
  if (v >= 10) {
    end -= 2;
    std::memcpy(end, &kDigitPairs[2 * v], 2);
  } else {
    *--end = static_cast<char>('0' + v);
  }
  return end;
}

}  // namespace

Writer::Writer(Sink sink, std::size_t spill_at)
    : sink_(std::move(sink)), spill_at_(spill_at) {
  // The bound and one append past it fit, so the buffer does not move.
  buf_.reserve(2 * spill_at_);
}

void Writer::flush() {
  if (buf_.empty() || !sink_) return;
  sink_(buf_);
  buf_.clear();
}

Writer& Writer::integer(std::int64_t v) {
  // 19 digits and a sign. The magnitude of INT64_MIN is an unsigned value.
  char tmp[20];
  const auto magnitude = v < 0 ? 0 - static_cast<std::uint64_t>(v)
                               : static_cast<std::uint64_t>(v);
  char* first = decimal_before(tmp + sizeof tmp, magnitude);
  if (v < 0) *--first = '-';
  buf_.append(first, tmp + sizeof tmp);
  return spill();
}

Writer& Writer::integer(std::uint64_t v) {
  char tmp[20];
  buf_.append(decimal_before(tmp + sizeof tmp, v), tmp + sizeof tmp);
  return spill();
}

Writer& Writer::operator<<(double v) {
  append_chars(buf_, v, std::chars_format::general, 17);
  return spill();
}

Writer& Writer::hex(std::span<const std::uint64_t> words) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (i != 0) buf_.push_back(' ');
    append_chars(buf_, words[i], 16);
  }
  return spill();
}

std::string_view tag_of(std::string_view line) {
  if (line.size() < 3 || line[0] != '#' || line[1] != ' ') return {};
  line.remove_prefix(2);
  return line.substr(0, line.find(' '));
}

void Reader::fail(Error e) {
  if (error_.ok()) error_ = std::move(e);
}

std::string Reader::at() const {
  return "line " + std::to_string(line_no_) + ": ";
}

void Reader::fail_parse(const std::string& what) {
  fail(Error::parse(at() + what + " in '" + line_ + "'"));
}

bool Reader::getline() {
  if (is_) return static_cast<bool>(std::getline(*is_, line_));
  if (text_.empty()) return false;
  const std::size_t n = std::min(text_.find('\n'), text_.size());
  line_.assign(text_.substr(0, n));
  text_.remove_prefix(std::min(n + 1, text_.size()));
  return true;
}

bool Reader::fetch() {
  while (!held_ && getline()) {
    ++line_no_;
    held_ = !line_.empty() && !(started_ && comment_ && comment_(line_));
  }
  started_ = started_ || held_;
  return held_;
}

bool Reader::due(const std::string& what) {
  if (ok() && !fetch()) {
    fail(Error::truncated(at() + "input ends where " + what + " is due"));
  }
  return ok();
}

bool Reader::peek(std::string_view& line) {
  if (!ok() || !fetch()) return false;
  line = line_;
  return true;
}

Reader& Reader::start(std::string_view rest, bool sep) {
  held_ = false;
  rest_ = ok() ? rest : std::string_view();
  sep_ = sep;
  json_ = false;
  return *this;
}

void Reader::header(std::string_view magic, std::string_view version) {
  expect(magic);
  // rest_ is empty or starts with the space after the tag.
  if (ok() && (rest_.size() != version.size() + 1 ||
               rest_.substr(1) != version)) {
    fail(Error::version(at() + "unsupported version, expected " +
                        std::string(version) + ": '" + line_ + "'"));
  }
  rest_ = {};
}

Reader& Reader::expect(std::string_view tag) {
  if (due("'# " + std::string(tag) + "'") && tag_of(line_) != tag) {
    fail_parse("expected '# " + std::string(tag) + "'");
  }
  return start(std::string_view(line_).substr(ok() ? 2 + tag.size() : 0),
               true);
}

Reader& Reader::bare() {
  due("a value");
  return start(line_, false);
}

std::string_view Reader::take() {
  if (!ok()) return {};
  std::string_view f;
  if (json_) {
    // A JSON value runs to the `, ` before the next key or to the `}` of an
    // inline object.
    f = rest_.substr(0, rest_.find_first_of(",}"));
  } else {
    if (rest_.empty()) {
      fail_parse("missing field");
      return {};
    }
    if (sep_) rest_.remove_prefix(1);  // rest_ starts at the separator
    sep_ = true;
    f = rest_.substr(0, rest_.find(' '));
  }
  rest_.remove_prefix(f.size());
  if (f.empty()) fail_parse("empty field");
  return f;
}

Reader& Reader::one_of(std::initializer_list<std::string_view> words,
                       std::size_t& index) {
  const std::string_view f = take();
  const auto it = std::find(words.begin(), words.end(), f);
  if (ok() && it == words.end()) {
    fail_parse("unexpected '" + std::string(f) + "'");
  }
  if (ok()) index = static_cast<std::size_t>(it - words.begin());
  return *this;
}

Reader& Reader::rest(std::string& out) {
  if (ok() && rest_.size() < 2) fail_parse("missing value");
  if (ok()) out.assign(rest_.substr(1));
  rest_ = {};
  return *this;
}

bool Reader::done() {
  if (ok() && !rest_.empty()) fail_parse("unexpected fields");
  return ok();
}

void Reader::end(std::string_view what) {
  std::size_t unused = 0;
  expect("end").one_of({what}, unused).done();
}

void Reader::blocks(std::string_view what, std::size_t n, bool parallel,
                    const std::function<void(Reader&, std::size_t)>& read) {
  // Block i+1 starts after the first close line at or after block i's start;
  // the last block found may run to the end of the text without one.
  std::vector<Reader> subs;
  std::vector<const char*> ends;  // where block i's close line ends
  if (ok() && !is_ && !held_) {
    const std::string close = "# end " + std::string(what);
    std::string_view text = text_;
    std::size_t line_no = line_no_;
    while (subs.size() < n && ends.size() == subs.size()) {
      Reader& sub = subs.emplace_back(text);
      sub.line_no_ = line_no;
      sub.started_ = started_;
      for (bool closed = false; !closed && !text.empty(); ++line_no) {
        const std::size_t len = std::min(text.find('\n'), text.size());
        closed = text.substr(0, len) == close;
        text.remove_prefix(std::min(len + 1, text.size()));
        if (closed) ends.push_back(text.data());
      }
    }
  }
  maybe_parallel_for(parallel, subs.size(),
                     [&](std::size_t i) { read(subs[i], i); });
  // Take the blocks over in order. A block that read cleanly ends at its
  // close line unless its records accept that line; should one do so, the
  // next block's start is not where this Reader stands, and the blocks from
  // there on read again in place.
  std::size_t i = 0;
  while (i < subs.size()) {
    const bool next_starts_here = i < ends.size() && !subs[i].held_ &&
                                  subs[i].text_.data() == ends[i];
    *this = std::move(subs[i++]);
    rest_ = {};  // it viewed the moved line
    if (!ok() || !next_starts_here) break;
  }
  for (; i < n && ok(); ++i) read(*this, i);
}

void Reader::footer(std::string_view what) {
  const std::string want = "# end " + std::string(what);
  bool closed = false;
  for (std::string_view line; peek(line); held_ = false) closed = line == want;
  if (!closed) fail(Error::truncated(at() + "missing '" + want + "'"));
}

void Reader::eof() {
  if (ok() && fetch()) fail_parse("unexpected content after the end");
}

void Reader::line(std::string_view text) {
  // Appended, not "'" + std::string(text): GCC 12 misreads that prepend as
  // an overlapping copy (-Wrestrict) in optimized builds.
  const std::string want = std::string("'").append(text).append("'");
  if (due(want) && line_ != text) fail_parse("expected " + want);
  start({}, false);
}

void Reader::csv_row(std::string& row) {
  if (!due("a CSV row")) return;
  held_ = false;
  // An odd count of quotes leaves a quoted field open (RFC 4180).
  for (row = line_; std::count(row.begin(), row.end(), '"') % 2;
       row += line_) {
    if (!getline()) {
      fail(Error::truncated(at() + "input ends inside a quoted CSV field"));
      return;
    }
    ++line_no_;
    row += '\n';
  }
}

bool Reader::json(Item item) {
  due("a line");
  std::string_view s = unindented(line_);
  const bool comma = item != Item::kOpen && s.ends_with(',');
  if (comma) s.remove_suffix(1);
  const bool closing = item == Item::kClose;
  if (ok() && item != Item::kVerbatim &&
      comma_ == (closing ? Comma::kMore : Comma::kLast)) {
    fail_parse(closing ? "',' before a close" : "no ',' on the line before");
  }
  start(s, false);
  json_ = true;
  comma_ = item == Item::kOpen ? Comma::kFirst
           : comma             ? Comma::kMore
                               : Comma::kLast;
  return ok();
}

void Reader::lit(std::string_view text) {
  if (ok() && !rest_.starts_with(text)) {
    fail_parse("expected '" + std::string(text) + "'");
  }
  if (ok()) rest_.remove_prefix(text.size());
}

void Reader::string(std::string& out) {
  // The closing quote is the first one no backslash escapes.
  std::size_t end = rest_.starts_with('"') ? 1 : rest_.size();
  while (end < rest_.size() && rest_[end] != '"') {
    end += rest_[end] == '\\' ? 2 : 1;
  }
  Result<std::string> s =
      end < rest_.size() ? campaign::json_unescape(rest_.substr(1, end - 1))
                         : Error::parse("expected a string");
  if (ok() && !s) fail_parse(s.error().message);
  if (!ok()) return;
  out = std::move(*s);
  rest_.remove_prefix(end + 1);
}

bool Reader::next_is(std::string_view prefix) {
  std::string_view l;
  return peek(l) && unindented(l).starts_with(prefix);
}

void Reader::inline_object(std::initializer_list<Field> fields) {
  json(Item::kValue);
  lit("{");
  for (const Field& f : fields) {
    lit((&f == fields.begin() ? "\"" : ", \"") + std::string(f.key) + "\": ");
    std::visit([this](auto* out) { *this >> *out; }, f.out);
  }
  lit("}");
  done();
}

void Reader::object(std::initializer_list<Field> fields) {
  open("{");
  std::vector<bool> seen(fields.size());
  while (ok() && !next_is("}")) {
    json(Item::kValue);
    const std::size_t end = rest_.find("\": ", 1);
    if (ok() && (!rest_.starts_with('"') || end == std::string_view::npos)) {
      fail_parse("expected a key");
    }
    if (!ok()) break;
    const std::string_view k = rest_.substr(1, end - 1);
    rest_.remove_prefix(end + 3);
    std::size_t i = 0;
    while (i < fields.size() && fields.begin()[i].key != k) ++i;
    if (ok() && (i == fields.size() || seen[i])) {
      fail_parse((i == fields.size() ? "unknown key '" : "repeated key '") +
                 std::string(k) + "'");
    }
    if (!ok()) break;
    seen[i] = true;
    std::visit([this](auto* out) { *this >> *out; }, fields.begin()[i].out);
    done();
  }
  close("}");
  const auto i = std::find(seen.begin(), seen.end(), false) - seen.begin();
  if (ok() && i < std::ssize(seen)) {
    fail(Error::truncated(at() + "missing key '" +
                          std::string(fields.begin()[i].key) + "'"));
  }
}

void Reader::verbatim(std::string& out) {
  if (json(Item::kVerbatim)) out.append(line_) += '\n';
  rest_ = {};
}

}  // namespace ccfuzz::record
