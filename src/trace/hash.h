// Stable trace fingerprints.
//
// The campaign layer keys its evaluation cache and dedupes findings by
// trace content. FNV-1a over the kind, duration and event times is stable
// across runs and platforms (byte order is fixed explicitly), so hashes can
// be persisted in reports and compared between campaign runs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "trace/trace.h"

namespace ccfuzz::trace {

/// 64-bit FNV-1a offset basis / prime (public-domain constants).
inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x00000100000001B3ULL;

/// Folds a 64-bit word into an FNV-1a state, least-significant byte first.
constexpr std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

/// Folds the bytes of `s` into an FNV-1a state.
constexpr std::uint64_t fnv1a_str(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Content hash of a trace: FNV-1a over (kind, duration, every stamp).
/// Two traces hash equal iff they would drive identical simulations, so the
/// campaign evaluation cache can return a cached Evaluation for a repeat
/// genome (64-bit collisions are negligible at campaign scales).
std::uint64_t hash(const Trace& t);

/// `h` as 16 lowercase hex digits — the finding id used in reports.
std::string hash_hex(std::uint64_t h);

}  // namespace ccfuzz::trace
