// Rewrites v2 trace blocks as v1, the encoding written before stamps became
// deltas: tests feed the result to the readers (old files still load) and
// check it against the v1 byte goldens (only the stamp encoding changed).
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

namespace ccfuzz::trace {

/// `bytes` with each v2 trace block in it rewritten as v1: absolute stamps,
/// one per line, and no `# stamps` record. Every other line is kept as it
/// is, so a checkpoint, archive or standalone trace stays one.
inline std::string to_v1(const std::string& bytes) {
  std::istringstream in(bytes);
  std::string out;
  std::size_t due = 0;  // stamps of the current block not yet rewritten
  std::int64_t last = 0;
  for (std::string line; std::getline(in, line);) {
    if (line == "# ccfuzz-trace v2") {
      out += "# ccfuzz-trace v1\n";
    } else if (line.starts_with("# stamps ")) {
      due = std::stoull(line.substr(9));
      last = 0;
    } else if (due > 0) {
      std::istringstream deltas(line);
      for (std::int64_t d = 0; due > 0 && deltas >> d; --due) {
        last += d;
        out += std::to_string(last) + '\n';
      }
    } else {
      out += line + '\n';
    }
  }
  return out;
}

}  // namespace ccfuzz::trace
