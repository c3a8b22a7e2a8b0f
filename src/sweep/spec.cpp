#include "sweep/spec.hpp"

#include <cctype>
#include <limits>

#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/text.hpp"

namespace explframe::sweep {

namespace {

/// One axis may expand to at most this many values, and a grid to at most
/// this many points — a typo like `1:1000000:+1` should be a parse error,
/// not an hour of CI time.
constexpr std::size_t kMaxAxisValues = 1024;
constexpr std::size_t kMaxPoints = 4096;

/// Keys that define a scenario's *identity* rather than its configuration;
/// the sweep owns these per point, so neither overrides nor axes may touch
/// them (and sweeping `seed` would fight the spec's seed mode).
bool is_reserved_scenario_key(const std::string& key) noexcept {
  return key == "name" || key == "title" || key == "description" ||
         key == "paper_ref" || key == "seed";
}

bool has_whitespace(const std::string& s) noexcept {
  for (const char c : s)
    if (std::isspace(static_cast<unsigned char>(c))) return true;
  return false;
}

std::string join_values(const std::vector<std::string>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += values[i];
  }
  return out;
}

}  // namespace

const char* to_string(SeedMode mode) noexcept {
  return mode == SeedMode::kShared ? "shared" : "derived";
}

std::optional<SeedMode> seed_mode_from_string(
    const std::string& name) noexcept {
  if (name == "shared") return SeedMode::kShared;
  if (name == "derived") return SeedMode::kDerived;
  return std::nullopt;
}

std::uint64_t derive_point_seed(std::uint64_t base_seed,
                                std::size_t index) noexcept {
  // Mix the index into the seed before the SplitMix64 scramble so nearby
  // base seeds / indices land in unrelated xoshiro streams.
  SplitMix64 sm(base_seed ^
                (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(index) +
                                          1)));
  return sm.next();
}

std::optional<std::vector<std::string>> expand_axis_values(
    const std::string& text, std::string* error) {
  const auto fail = [&](const std::string& what)
      -> std::optional<std::vector<std::string>> {
    set_error(error, what);
    return std::nullopt;
  };

  // Range syntax: lo:hi:x<factor> (geometric) or lo:hi:+<step> (linear).
  if (text.find(':') != std::string::npos) {
    const std::size_t c1 = text.find(':');
    const std::size_t c2 = text.find(':', c1 + 1);
    if (c2 == std::string::npos || text.find(':', c2 + 1) != std::string::npos)
      return fail("range must be lo:hi:x<factor> or lo:hi:+<step>: '" + text +
                  "'");
    const auto lo = parse_u64(trim_copy(text.substr(0, c1)));
    const auto hi = parse_u64(trim_copy(text.substr(c1 + 1, c2 - c1 - 1)));
    const std::string step_text = trim_copy(text.substr(c2 + 1));
    if (!lo || !hi || step_text.size() < 2)
      return fail("bad range '" + text + "'");
    if (*lo > *hi)
      return fail("empty range '" + text + "' (lo > hi)");
    const auto step = parse_u64(step_text.substr(1));
    std::vector<std::string> values;
    if (step_text[0] == 'x') {
      if (!step || *step < 2)
        return fail("geometric factor must be an integer >= 2: '" + text +
                    "'");
      if (*lo == 0)
        return fail("geometric range needs lo >= 1 (0 never advances): '" +
                    text + "'");
      for (std::uint64_t v = *lo;; v *= *step) {
        values.push_back(std::to_string(v));
        if (values.size() > kMaxAxisValues)
          return fail("axis expands to more than " +
                      std::to_string(kMaxAxisValues) + " values: '" + text +
                      "'");
        if (v > *hi / *step || v * *step > *hi) break;
      }
    } else if (step_text[0] == '+') {
      if (!step || *step < 1)
        return fail("linear step must be an integer >= 1: '" + text + "'");
      for (std::uint64_t v = *lo;; v += *step) {
        values.push_back(std::to_string(v));
        if (values.size() > kMaxAxisValues)
          return fail("axis expands to more than " +
                      std::to_string(kMaxAxisValues) + " values: '" + text +
                      "'");
        if (*hi - v < *step) break;  // v <= hi here; avoids underflow.
      }
    } else {
      return fail("range step must start with 'x' or '+': '" + text + "'");
    }
    return values;
  }

  // Comma-list syntax.
  std::vector<std::string> values;
  for (const std::string& piece : split(text, ',')) {
    const std::string value = trim_copy(piece);
    if (value.empty())
      return fail("empty axis value in '" + text + "'");
    if (has_whitespace(value))
      return fail("axis value '" + value + "' must not contain whitespace");
    for (const std::string& seen : values)
      if (seen == value)
        return fail("duplicate axis value '" + value + "'");
    values.push_back(value);
    if (values.size() > kMaxAxisValues)
      return fail("axis expands to more than " +
                  std::to_string(kMaxAxisValues) + " values");
  }
  if (values.empty()) return fail("axis has no values");
  return values;
}

std::size_t SweepSpec::point_count() const noexcept {
  if (axes.empty()) return 0;
  std::size_t n = 1;
  for (const Axis& axis : axes) n *= axis.values.size();
  return n;
}

std::string SweepSpec::to_sweep() const {
  KvFile kv;
  kv.set("name", name);
  kv.set("title", title);
  kv.set("description", description);
  kv.set("paper_ref", paper_ref);
  kv.set("base", base);
  kv.set("seed_mode", to_string(seed_mode));
  for (const auto& [key, value] : base_overrides) kv.set("base." + key, value);
  for (const Axis& axis : axes) kv.set("axis." + axis.key,
                                       join_values(axis.values));
  return kv.serialize();
}

std::optional<SweepSpec> SweepSpec::from_sweep(const std::string& text,
                                               std::string* error) {
  const auto kv = KvFile::parse(text, error);
  if (!kv) return std::nullopt;

  const auto fail = [&](const std::string& what) -> std::optional<SweepSpec> {
    set_error(error, what);
    return std::nullopt;
  };

  SweepSpec spec;
  for (const auto& [key, value] : kv->entries()) {
    if (key == "name") {
      spec.name = value;
    } else if (key == "title") {
      spec.title = value;
    } else if (key == "description") {
      spec.description = value;
    } else if (key == "paper_ref") {
      spec.paper_ref = value;
    } else if (key == "base") {
      spec.base = value;
    } else if (key == "seed_mode") {
      const auto mode = seed_mode_from_string(value);
      if (!mode)
        return fail("key 'seed_mode': unknown mode '" + value +
                    "' (want shared|derived)");
      spec.seed_mode = *mode;
    } else if (key.rfind("base.", 0) == 0) {
      const std::string field = key.substr(5);
      if (field.empty() || is_reserved_scenario_key(field))
        return fail("key '" + key + "': '" + field +
                    "' cannot be overridden by a sweep");
      spec.base_overrides.emplace_back(field, value);
    } else if (key.rfind("axis.", 0) == 0) {
      const std::string field = key.substr(5);
      if (field.empty() || is_reserved_scenario_key(field))
        return fail("key '" + key + "': '" + field + "' cannot be swept");
      std::string axis_error;
      const auto values = expand_axis_values(value, &axis_error);
      if (!values) return fail("key '" + key + "': " + axis_error);
      spec.axes.push_back(Axis{field, *values});
    } else {
      return fail("unknown key '" + key + "'");
    }
  }

  if (spec.name.empty() || !KvFile::valid_key(spec.name))
    return fail("key 'name': missing or not a valid identifier");
  if (spec.title.empty()) return fail("key 'title': missing");
  if (spec.base.empty()) return fail("key 'base': missing");
  if (spec.axes.empty()) return fail("a sweep needs at least one axis.<key>");
  if (spec.axes.size() > 3)
    return fail("a sweep supports at most 3 axes (got " +
                std::to_string(spec.axes.size()) + ")");
  for (const auto& [key, value] : spec.base_overrides)
    for (const Axis& axis : spec.axes)
      if (axis.key == key)
        return fail("key '" + key + "' is both overridden (base." + key +
                    ") and swept (axis." + key + ")");
  if (spec.point_count() > kMaxPoints)
    return fail("grid expands to " + std::to_string(spec.point_count()) +
                " points (max " + std::to_string(kMaxPoints) + ")");
  return spec;
}

std::optional<scenario::Scenario> SweepSpec::base_scenario(
    const scenario::Registry& registry, std::string* error) const {
  const auto fail = [&](const std::string& what)
      -> std::optional<scenario::Scenario> {
    set_error(error, what);
    return std::nullopt;
  };

  const scenario::Scenario* found = registry.find(base);
  if (!found)
    return fail("key 'base': no registered scenario named '" + base + "'");
  if (base_overrides.empty()) return *found;

  // The canonical .scn text writes every key explicitly, so applying an
  // override is a plain KvFile::set and Scenario::from_scn revalidates the
  // result (unknown keys, bad values, broken invariants) for free.
  auto kv = KvFile::parse(found->to_scn());
  EXPLFRAME_CHECK(kv.has_value());
  for (const auto& [key, value] : base_overrides) {
    if (!kv->contains(key))
      return fail("key 'base." + key + "': not a scenario key");
    kv->set(key, value);
  }
  std::string scn_error;
  const auto scenario = scenario::Scenario::from_scn(kv->serialize(),
                                                     &scn_error);
  if (!scenario) return fail("base override: " + scn_error);
  return scenario;
}

std::optional<std::vector<SweepPoint>> SweepSpec::expand(
    const scenario::Registry& registry, std::string* error) const {
  const auto base_scn = base_scenario(registry, error);
  if (!base_scn) return std::nullopt;

  const auto base_kv = KvFile::parse(base_scn->to_scn());
  EXPLFRAME_CHECK(base_kv.has_value());

  const std::size_t total = point_count();
  std::size_t digits = 1;
  for (std::size_t n = total > 0 ? total - 1 : 0; n >= 10; n /= 10) ++digits;
  if (digits < 2) digits = 2;

  std::vector<SweepPoint> points;
  points.reserve(total);
  // Row-major expansion: odometer over the axes, last axis fastest.
  std::vector<std::size_t> at(axes.size(), 0);
  for (std::size_t index = 0; index < total; ++index) {
    SweepPoint point;
    point.index = index;
    KvFile kv = *base_kv;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const std::string& value = axes[a].values[at[a]];
      point.coords.emplace_back(axes[a].key, value);
      if (!point.id.empty()) point.id += ',';
      point.id += axes[a].key + "=" + value;
      kv.set(axes[a].key, value);
    }

    std::string number = std::to_string(index);
    number.insert(0, digits - number.size(), '0');
    kv.set("name", name + ".p" + number);
    kv.set("title", point.id);

    std::string scn_error;
    auto scenario = scenario::Scenario::from_scn(kv.serialize(), &scn_error);
    if (!scenario) {
      set_error(error, "point " + point.id + ": " + scn_error);
      return std::nullopt;
    }
    if (seed_mode == SeedMode::kDerived)
      scenario->seed = derive_point_seed(base_scn->seed, index);
    point.scenario = std::move(*scenario);
    points.push_back(std::move(point));

    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++at[a] < axes[a].values.size()) break;
      at[a] = 0;
    }
  }
  return points;
}

std::uint64_t SweepSpec::spec_hash(const scenario::Registry& registry) const {
  std::string base_error;
  const auto base_scn = base_scenario(registry, &base_error);
  EXPLFRAME_CHECK_MSG(base_scn.has_value(),
                      "spec_hash needs a resolvable base scenario");
  // A 0xff byte after each text so (a, b) and (a + b, "") differ.
  return fnv1a64(to_sweep() + '\xff' + base_scn->to_scn() + '\xff');
}

}  // namespace explframe::sweep
