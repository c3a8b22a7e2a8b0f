// Key=value configuration files (".scn" scenario files and friends).
//
// The format is deliberately tiny — one `key = value` pair per line, `#`
// comments, no sections, no quoting — so a scenario is fully described by a
// flat, diffable text file and serialization is trivially canonical:
// re-serializing a parsed file reproduces the emitter's output byte for
// byte (comments and blank lines are not preserved; key order is).
//
//   # ExplFrame scenario
//   cipher = aes128
//   trials = 8
//
// Parsing is strict: a line that is not blank, a comment or a well-formed
// pair is an error, as is a duplicate key. Schema-level validation (unknown
// keys, value ranges) is the caller's job; KvReader tracks which keys a
// reader consumed so "unknown key" errors come for free.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace explframe {

/// Strict decimal uint64 parse: digits only — no sign, blanks or trailing
/// junk — and overflow-checked. Nullopt on anything else. The shared
/// value parser for kv-derived text (axis ranges, checkpoint records).
std::optional<std::uint64_t> parse_u64(const std::string& text) noexcept;

/// Copy of `s` with leading/trailing whitespace removed (the same
/// trimming KvFile applies to keys and values).
std::string trim_copy(const std::string& s);

/// An ordered key=value document. Keys are unique ([A-Za-z0-9_.-]+);
/// values are arbitrary single-line strings (leading/trailing blanks
/// trimmed). Insertion order is preserved and is the serialization order.
class KvFile {
 public:
  /// Parse `text`. On failure returns nullopt and, if `error` is non-null,
  /// fills it with a "line N: ..." message. Failures: a non-comment line
  /// without '=', an empty or ill-formed key, a duplicate key.
  static std::optional<KvFile> parse(const std::string& text,
                                     std::string* error = nullptr);

  /// Canonical text form: `key = value\n` per entry, insertion order.
  std::string serialize() const;

  /// Insert `key` (or overwrite its value, keeping its position). The
  /// value must be single-line (CHECK-enforced) and is stored trimmed, so
  /// every stored value is closed under serialize -> parse.
  void set(const std::string& key, std::string value);
  /// The value of `key`, or nullptr if absent.
  const std::string* find(const std::string& key) const noexcept;
  bool contains(const std::string& key) const noexcept {
    return find(key) != nullptr;
  }

  const std::vector<std::pair<std::string, std::string>>& entries()
      const noexcept {
    return entries_;
  }
  std::size_t size() const noexcept { return entries_.size(); }

  /// True iff `key` is non-empty and made of [A-Za-z0-9_.-] only.
  static bool valid_key(const std::string& key) noexcept;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Schema-aware read cursor over a KvFile: typed getters that record the
/// first conversion error and mark keys as consumed, so after reading a
/// whole schema the caller can reject leftovers as unknown keys.
///
///   KvReader r(kv);
///   cfg.trials = r.get_u32("trials", cfg.trials);
///   if (auto err = r.finish()) ...  // malformed value or unknown key
class KvReader {
 public:
  explicit KvReader(const KvFile& file) : file_(&file) {
    consumed_.resize(file.size(), false);
  }

  /// Each getter returns the parsed value, or `fallback` when the key is
  /// absent or malformed (the first malformed value is recorded as the
  /// error). Integer getters parse with parse_u64, so signs, blanks,
  /// prefixes, trailing junk and overflow are all malformed; get_bool
  /// accepts true/false/yes/no/1/0.
  std::string get_string(const std::string& key, const std::string& fallback);
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback);
  std::uint32_t get_u32(const std::string& key, std::uint32_t fallback);
  bool get_bool(const std::string& key, bool fallback);

  /// Record a schema-level error against `key` (e.g. an enum name the
  /// caller failed to map). Keeps the first error only.
  void fail(const std::string& key, const std::string& what);

  /// Nullopt if every key was consumed and every value parsed; otherwise
  /// the first error ("key 'x': bad unsigned integer 'y'" or
  /// "unknown key 'z'").
  std::optional<std::string> finish() const;

 private:
  const std::string* take(const std::string& key);

  const KvFile* file_;
  std::vector<bool> consumed_;
  std::optional<std::string> error_;
};

}  // namespace explframe
