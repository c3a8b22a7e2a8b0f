// Small text helpers shared by the sweep and service layers: the error
// out-parameter idiom, splitting on a separator, fixed-width hex and the
// FNV-1a 64 hash behind job ids, `spec_hash` and checkpoint headers. Their
// output is part of the on-disk formats (spool ids, checkpoint headers), so
// it must never change.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace explframe {

/// Store `what` into `*error` when error is non-null; returns false so a
/// failing path can `return set_error(error, "...")`.
inline bool set_error(std::string* error, const std::string& what) {
  if (error) *error = what;
  return false;
}

/// `text` cut at every `sep`. Empty pieces (leading, trailing or doubled
/// separators) are kept so a strict parser can reject them.
inline std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  std::size_t pos;
  while ((pos = text.find(sep, start)) != std::string::npos) {
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  out.push_back(text.substr(start));
  return out;
}

/// `value` as 16 lower-case hex digits, zero-padded.
inline std::string hex16(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, value >>= 4) out[i] = digits[value & 0xf];
  return out;
}

/// FNV-1a 64 of `text`.
inline std::uint64_t fnv1a64(std::string_view text) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace explframe
