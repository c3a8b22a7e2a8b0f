#include "support/config.hpp"

#include <cctype>
#include <limits>

#include "support/check.hpp"

namespace explframe {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

}  // namespace

std::optional<std::uint64_t> parse_u64(const std::string& text) noexcept {
  if (text.empty() || text.size() > 20) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
      return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

std::string trim_copy(const std::string& s) { return trim(s); }

bool KvFile::valid_key(const std::string& key) noexcept {
  if (key.empty()) return false;
  for (const char c : key) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                    c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::optional<KvFile> KvFile::parse(const std::string& text,
                                    std::string* error) {
  const auto fail = [&](std::size_t line, const std::string& what) {
    if (error) *error = "line " + std::to_string(line) + ": " + what;
    return std::nullopt;
  };

  KvFile out;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;

    const std::size_t eq = stripped.find('=');
    if (eq == std::string::npos)
      return fail(line_no, "expected 'key = value', got '" + stripped + "'");
    const std::string key = trim(stripped.substr(0, eq));
    if (!valid_key(key))
      return fail(line_no, "bad key '" + key + "'");
    if (out.contains(key))
      return fail(line_no, "duplicate key '" + key + "'");
    out.entries_.emplace_back(key, trim(stripped.substr(eq + 1)));
  }
  return out;
}

std::string KvFile::serialize() const {
  std::string out;
  for (const auto& [key, value] : entries_) {
    out += key;
    out += " = ";
    out += value;
    out += '\n';
  }
  return out;
}

void KvFile::set(const std::string& key, std::string value) {
  EXPLFRAME_CHECK_MSG(valid_key(key), "KvFile::set: invalid key");
  // Keep values closed under serialize -> parse: an embedded newline would
  // corrupt the file and surrounding blanks would be trimmed on re-parse,
  // so a multi-line value is a programming error and blanks are
  // canonicalized here.
  EXPLFRAME_CHECK_MSG(value.find('\n') == std::string::npos &&
                          value.find('\r') == std::string::npos,
                      "KvFile::set: value must be single-line");
  value = trim(value);
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  entries_.emplace_back(key, std::move(value));
}

const std::string* KvFile::find(const std::string& key) const noexcept {
  for (const auto& [k, v] : entries_)
    if (k == key) return &v;
  return nullptr;
}

// ---- KvReader --------------------------------------------------------------

const std::string* KvReader::take(const std::string& key) {
  const auto& entries = file_->entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].first == key) {
      consumed_[i] = true;
      return &entries[i].second;
    }
  }
  return nullptr;
}

void KvReader::fail(const std::string& key, const std::string& what) {
  if (!error_) error_ = "key '" + key + "': " + what;
}

std::string KvReader::get_string(const std::string& key,
                                 const std::string& fallback) {
  const std::string* v = take(key);
  return v ? *v : fallback;
}

std::uint64_t KvReader::get_u64(const std::string& key,
                                std::uint64_t fallback) {
  const std::string* v = take(key);
  if (!v) return fallback;
  const auto parsed = parse_u64(*v);
  if (!parsed) {
    fail(key, "bad unsigned integer '" + *v + "'");
    return fallback;
  }
  return *parsed;
}

std::uint32_t KvReader::get_u32(const std::string& key,
                                std::uint32_t fallback) {
  const std::uint64_t wide = get_u64(key, fallback);
  if (wide > std::numeric_limits<std::uint32_t>::max()) {
    fail(key, "value " + std::to_string(wide) + " exceeds 32 bits");
    return fallback;
  }
  return static_cast<std::uint32_t>(wide);
}

bool KvReader::get_bool(const std::string& key, bool fallback) {
  const std::string* v = take(key);
  if (!v) return fallback;
  if (*v == "true" || *v == "yes" || *v == "1") return true;
  if (*v == "false" || *v == "no" || *v == "0") return false;
  fail(key, "bad boolean '" + *v + "' (want true/false)");
  return fallback;
}

std::optional<std::string> KvReader::finish() const {
  if (error_) return error_;
  const auto& entries = file_->entries();
  for (std::size_t i = 0; i < entries.size(); ++i)
    if (!consumed_[i]) return "unknown key '" + entries[i].first + "'";
  return std::nullopt;
}

}  // namespace explframe
