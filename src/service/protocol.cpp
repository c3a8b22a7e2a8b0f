#include "service/protocol.hpp"

#include <vector>

#include "support/config.hpp"
#include "support/text.hpp"

namespace explframe::service {

namespace {

constexpr char kMagic[] = "explsimd-request";
constexpr char kVersion[] = "v1";

}  // namespace

const char* to_string(JobKind kind) noexcept {
  switch (kind) {
    case JobKind::kScenario:
      return "scenario";
    case JobKind::kSweep:
      return "sweep";
  }
  return "scenario";
}

std::optional<JobKind> job_kind_from_string(const std::string& name) noexcept {
  if (name == "scenario") return JobKind::kScenario;
  if (name == "sweep") return JobKind::kSweep;
  return std::nullopt;
}

std::string JobRequest::serialize() const {
  std::string out = std::string(kMagic) + " " + kVersion +
                    " kind=" + to_string(kind) + " name=" + name;
  if (threads != 0) out += " threads=" + std::to_string(threads);
  return out;
}

std::optional<JobRequest> JobRequest::parse(const std::string& line,
                                            std::string* error) {
  const auto fail = [&](const std::string& what) -> std::optional<JobRequest> {
    set_error(error, what);
    return std::nullopt;
  };

  if (line.find('\n') != std::string::npos ||
      line.find('\r') != std::string::npos)
    return fail("request must be a single line");
  const auto tokens = split(line, ' ');
  if (tokens.size() < 2 || tokens[0] != kMagic)
    return fail("not an explsimd request (expected '" + std::string(kMagic) +
                " " + kVersion + " ...')");
  if (tokens[1] != kVersion)
    return fail("unsupported request version '" + tokens[1] + "'");

  JobRequest request;
  bool saw_kind = false;
  bool saw_name = false;
  bool saw_threads = false;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.empty()) return fail("stray blank in request line");
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
      return fail("malformed field '" + token + "' (want key=value)");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "kind") {
      if (saw_kind) return fail("duplicate field 'kind'");
      const auto kind = job_kind_from_string(value);
      if (!kind)
        return fail("unknown kind '" + value +
                    "' (want scenario or sweep)");
      request.kind = *kind;
      saw_kind = true;
    } else if (key == "name") {
      if (saw_name) return fail("duplicate field 'name'");
      if (!KvFile::valid_key(value))
        return fail("malformed name '" + value +
                    "' (want [A-Za-z0-9_.-]+)");
      request.name = value;
      saw_name = true;
    } else if (key == "threads") {
      if (saw_threads) return fail("duplicate field 'threads'");
      const auto threads = parse_u64(value);
      if (!threads || *threads > 256)
        return fail("bad threads value '" + value + "' (want 0..256)");
      request.threads = static_cast<std::uint32_t>(*threads);
      saw_threads = true;
    } else {
      return fail("unknown field '" + key + "'");
    }
  }
  if (!saw_kind) return fail("missing field 'kind'");
  if (!saw_name) return fail("missing field 'name'");
  return request;
}

std::optional<std::string> job_id(const JobRequest& request,
                                  const scenario::Registry& scenarios,
                                  const sweep::Registry& sweeps,
                                  std::string* error) {
  if (request.kind == JobKind::kScenario) {
    const scenario::Scenario* s = scenarios.find(request.name);
    if (!s) {
      set_error(error, "no scenario named '" + request.name + "'");
      return std::nullopt;
    }
    return "scn-" + hex16(fnv1a64(s->to_scn()));
  }
  const sweep::SweepSpec* spec = sweeps.find(request.name);
  if (!spec) {
    set_error(error, "no sweep named '" + request.name + "'");
    return std::nullopt;
  }
  return "swp-" + hex16(spec->spec_hash(scenarios));
}

}  // namespace explframe::service
