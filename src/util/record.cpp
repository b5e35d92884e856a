#include "util/record.h"

#include <istream>
#include <ostream>

namespace ccfuzz::record {

void write_hex(std::ostream& os, std::span<const std::uint64_t> words) {
  os << std::hex;
  for (std::size_t i = 0; i < words.size(); ++i) {
    os << (i == 0 ? "" : " ") << words[i];
  }
  os << std::dec;
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

bool Reader::fetch() {
  while (!held_ && std::getline(is_, line_)) {
    ++line_no_;
    held_ = !line_.empty() && !(started_ && comment_ && comment_(line_));
  }
  started_ = started_ || held_;
  return held_;
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
  if (ok() && !fetch()) {
    fail(Error::truncated(at() + "input ends where '# " + std::string(tag) +
                          "' is due"));
  }
  if (ok() && tag_of(line_) != tag) {
    fail_parse("expected '# " + std::string(tag) + "'");
  }
  return start(std::string_view(line_).substr(ok() ? 2 + tag.size() : 0),
               true);
}

Reader& Reader::bare() {
  if (ok() && !fetch()) {
    fail(Error::truncated(at() + "input ends where a value is due"));
  }
  return start(line_, false);
}

std::string_view Reader::take() {
  if (!ok()) return {};
  if (rest_.empty()) {
    fail_parse("missing field");
    return {};
  }
  if (sep_) rest_.remove_prefix(1);  // rest_ starts at the separator
  sep_ = true;
  const std::string_view f = rest_.substr(0, rest_.find(' '));
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

void Reader::footer(std::string_view what) {
  const std::string want = "# end " + std::string(what);
  bool closed = false;
  for (std::string_view line; peek(line); held_ = false) closed = line == want;
  if (!closed) fail(Error::truncated(at() + "missing '" + want + "'"));
}

void Reader::eof() {
  if (ok() && fetch()) fail_parse("unexpected content after the end");
}

}  // namespace ccfuzz::record
