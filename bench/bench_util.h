// Shared helpers for the figure benches.
//
// Every figure harness prints CSV to stdout so the paper's plots can be
// regenerated with any plotting tool. GA sizes are environment-tunable:
// defaults keep `for b in build/bench/*` minutes-scale; paper-scale runs
// set CCFUZZ_POP=500 CCFUZZ_ISLANDS=20 CCFUZZ_GENERATIONS=40.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/logging.h"
#include "util/record.h"

namespace ccfuzz::bench {

/// The integer in environment variable `name`, or `fallback` when it is
/// unset or empty. A value that is not wholly a number warns and falls back.
inline long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  long parsed = 0;
  if (!record::parse_number(v, parsed)) {
    CCFUZZ_LOG_WARN("%s='%s' is not a number; using %ld", name, v, fallback);
    return fallback;
  }
  return parsed;
}

/// Prints the standard bench banner with scaling hints.
inline void banner(const char* figure, const char* what) {
  std::printf("# %s — %s\n", figure, what);
  std::printf("# scale with CCFUZZ_POP / CCFUZZ_ISLANDS / CCFUZZ_GENERATIONS "
              "(paper: 500 / 20 / ~40)\n");
}

}  // namespace ccfuzz::bench
