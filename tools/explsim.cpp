// explsim — the unified experiment driver over the scenario registry.
//
//   explsim list                      # the scenario catalogue
//   explsim describe <name> [--scn]   # handbook entry / canonical .scn text
//   explsim run <name|file.scn>       # run one scenario, print its report
//   explsim all [--check]             # (re)generate docs/results/, or verify
//
//   explsim sweep list                # the ablation-grid catalogue
//   explsim sweep describe <name> [--sweep]
//   explsim sweep run <name|file.sweep> [--resume] [--shard=I/N]
//   explsim sweep merge <name|file.sweep> <ckpt...> [--out=DIR]
//   explsim sweep all [--check]       # (re)generate docs/results/sweeps/
//   explsim sweep all --shard=I/N --out=DIR     # one shard of every grid
//   explsim sweep all --merge-from=DIR [--check]  # reassemble + verify
//
// `run` accepts either a registered name or a path (anything containing
// '/' or ending in ".scn"/".sweep" is treated as a path), so a registered
// experiment can be exported with `describe --scn`/`--sweep`, edited and
// re-run without recompiling. Each command takes only the options usage
// lists for it; any other option, or a number that is not plain decimal
// digits, is a usage error (exit 2) before any work.
//
// `all` regenerates the reproduction handbook (docs/results/ for
// scenarios, docs/results/sweeps/ for grids): markdown + CSV per entry
// plus a README.md index. With --check nothing is written; the regenerated
// bytes are compared against the checked-in files and any drift is a
// non-zero exit — the CI gate that keeps the handbook in sync with code.
//
// Sweeps checkpoint each completed grid point (fsynced, one record per
// line) next to their output; an interrupted `sweep run`/`sweep all`
// rerun with --resume skips the recorded points and still emits
// byte-identical reports. A checkpoint is bound to the spec hash — edit
// the spec (or its base scenario, or any seed) and the resume refuses.
//
// `--shard=I/N` runs only the round-robin subset i % N == I-1 of a grid's
// points and *keeps* the checkpoint on completion — the checkpoint is the
// shard's output. `sweep merge` (one grid) and `sweep all --merge-from`
// (every grid) reassemble shard checkpoints into reports byte-identical
// to an unsharded run: spec hashes are validated, torn final lines
// tolerated, identical duplicate records deduplicated, conflicting ones
// refused, and a missing point is an error naming it.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "io/fs.hpp"
#include "scenario/debug.hpp"
#include "scenario/registry.hpp"
#include "scenario/report.hpp"
#include "support/config.hpp"
#include "support/table.hpp"
#include "sweep/registry.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"

using namespace explframe;
using namespace explframe::scenario;

namespace {

int usage(std::ostream& os, int code) {
  os << "usage: explsim <command> [options]\n"
        "\n"
        "scenario commands:\n"
        "  list                      list registered scenarios\n"
        "  describe <name> [--scn]   show one scenario (--scn: canonical\n"
        "                            .scn text only, suitable for a file)\n"
        "  run <name|file.scn>      run one scenario and print its report\n"
        "      [--threads=N]         worker threads (wall-clock only)\n"
        "      [--out=DIR]           also write <name>.md + <name>.csv\n"
        "  all [--out=DIR]           run every scenario and write the\n"
        "                            handbook (default DIR: docs/results)\n"
        "      [--check]             write nothing; fail on any byte of\n"
        "                            drift vs the checked-in reports\n"
        "      [--threads=N]         worker threads (wall-clock only)\n"
        "  debug <name|file.scn>     time-travel debugger: replay one trial\n"
        "                            event by event over machine snapshots\n"
        "      [--trial=N]           trial to reproduce (default 0)\n"
        "      REPL: step [n] | run-until <event> | rewind [n] |\n"
        "            bisect-flip <byte> | status | events | help | quit\n"
        "\n"
        "sweep commands (multi-dimensional scenario grids):\n"
        "  sweep list                list registered sweeps\n"
        "  sweep describe <name> [--sweep]\n"
        "                            show one sweep (--sweep: canonical\n"
        "                            .sweep text only)\n"
        "  sweep run <name|file.sweep>\n"
        "                            run one grid and print its summary\n"
        "      [--out=DIR]           also write <name>.md + <name>.csv\n"
        "      [--threads=N]         point-stealing workers (wall-clock\n"
        "                            only; results are identical)\n"
        "      [--checkpoint=PATH]   completed-point log (default:\n"
        "                            <name>.ckpt next to the output)\n"
        "      [--resume]            skip points recorded in the\n"
        "                            checkpoint instead of starting over\n"
        "      [--shard=I/N]         run only round-robin shard I of N\n"
        "                            (1-based) and keep the checkpoint —\n"
        "                            it is the shard's output for merge\n"
        "  sweep merge <name|file.sweep> <ckpt...>\n"
        "                            reassemble shard checkpoints into one\n"
        "                            grid; reports are byte-identical to\n"
        "                            an unsharded run\n"
        "      [--out=DIR]           also write <name>.md + <name>.csv\n"
        "  sweep all [--out=DIR]     run every sweep and write the grids\n"
        "                            (default DIR: docs/results/sweeps)\n"
        "      [--check]             write nothing; fail on drift\n"
        "      [--threads=N] [--resume]\n"
        "      [--shard=I/N]         run shard I of every grid, writing\n"
        "                            <name>.shard-I-of-N.ckpt under --out\n"
        "      [--merge-from=DIR]    skip execution; merge every grid's\n"
        "                            shard checkpoints found in DIR (with\n"
        "                            --check: verify the merged reports\n"
        "                            against the committed goldens)\n";
  return code;
}

// Both helpers route through the io::FileSystem seam, with the default
// bounded retry on transient errors. Golden/report emission uses the
// non-durable io::write_file — these artifacts are committed to git, so
// the diff (not fsync) is the safety net; the daemon's spool, where
// durability IS the contract, uses io::durable_write instead.
std::optional<std::string> read_file(const std::string& path) {
  std::string content;
  const io::Status read = io::with_retry(io::kDefaultRetryAttempts, [&] {
    return io::real().read_file(path, &content);
  });
  if (!read.ok()) return std::nullopt;
  return content;
}

bool write_file(const std::string& path, const std::string& content) {
  return io::with_retry(io::kDefaultRetryAttempts, [&] {
           return io::write_file(io::real(), path, content);
         })
      .ok();
}

/// True when a `run` operand names a file rather than a registry entry.
bool is_path_operand(const std::string& operand, const char* extension) {
  if (operand.find('/') != std::string::npos) return true;
  const std::size_t n = std::strlen(extension);
  return operand.size() > n &&
         operand.compare(operand.size() - n, n, extension) == 0;
}

std::optional<Scenario> resolve_scenario(const std::string& operand) {
  if (is_path_operand(operand, ".scn")) {
    const auto text = read_file(operand);
    if (!text) {
      std::cerr << "explsim: cannot read '" << operand << "'\n";
      return std::nullopt;
    }
    std::string error;
    const auto s = Scenario::from_scn(*text, &error);
    if (!s) {
      std::cerr << "explsim: " << operand << ": " << error << "\n";
      return std::nullopt;
    }
    return s;
  }
  const Scenario* s = Registry::builtin().find(operand);
  if (!s) {
    std::cerr << "explsim: no scenario named '" << operand
              << "' (try: explsim list)\n";
    return std::nullopt;
  }
  return *s;
}

std::optional<sweep::SweepSpec> resolve_sweep(const std::string& operand) {
  if (is_path_operand(operand, ".sweep")) {
    const auto text = read_file(operand);
    if (!text) {
      std::cerr << "explsim: cannot read '" << operand << "'\n";
      return std::nullopt;
    }
    std::string error;
    const auto spec = sweep::SweepSpec::from_sweep(*text, &error);
    if (!spec) {
      std::cerr << "explsim: " << operand << ": " << error << "\n";
      return std::nullopt;
    }
    return spec;
  }
  const sweep::SweepSpec* spec = sweep::Registry::builtin().find(operand);
  if (!spec) {
    std::cerr << "explsim: no sweep named '" << operand
              << "' (try: explsim sweep list)\n";
    return std::nullopt;
  }
  return *spec;
}

int cmd_list() {
  Table t({"scenario", "cipher", "defence", "trials", "title"});
  for (const Scenario& s : Registry::builtin().all())
    t.row(s.name, crypto::to_string(s.cipher), to_string(s.defence), s.trials,
          s.title);
  t.print(std::cout);
  std::cout << t.rows() << " scenarios. `explsim describe <name>` for the "
            << "full entry, `explsim run <name>` to reproduce it.\n";
  return 0;
}

int cmd_describe(const std::string& name, bool scn_only) {
  const Scenario* s = Registry::builtin().find(name);
  if (!s) {
    std::cerr << "explsim: no scenario named '" << name << "'\n";
    return 1;
  }
  if (scn_only) {
    std::cout << s->to_scn();
    return 0;
  }
  std::cout << s->title << "\n\n" << s->description << "\n\npaper ref: "
            << s->paper_ref << "\n\ncanonical .scn (explsim describe " << name
            << " --scn > my.scn):\n\n" << s->to_scn();
  return 0;
}

/// Print the human-facing sweep summary for one finished scenario.
void print_summary(const ScenarioResult& result) {
  const attack::CampaignAggregate& agg = result.aggregate;
  std::cout << "\n== " << result.scenario.name << ": "
            << result.scenario.title << " ==\n\n";
  agg.phase_table().print(std::cout);
  std::cout << "mean rows templated: " << agg.rows_scanned.mean();
  if (agg.ciphertexts_used.count() > 0)
    std::cout << "; mean ciphertexts to key: " << agg.ciphertexts_used.mean();
  std::cout << "; mean simulated attack s: " << agg.sim_seconds.mean()
            << "\nmean simulated templating s: "
            << agg.template_sim_seconds.mean() << " ("
            << agg.template_wall_seconds << " host s total)\n"
            << "wall clock: " << agg.wall_seconds << " s ("
            << agg.trials_per_second() << " trials/sec)\n";
}

int cmd_run(const std::string& operand, std::uint32_t threads,
            const std::string& out_dir) {
  const auto s = resolve_scenario(operand);
  if (!s) return 1;
  const ScenarioResult result = run_scenario(*s, threads);
  print_summary(result);
  if (!out_dir.empty()) {
    const std::string md = out_dir + "/" + s->name + ".md";
    const std::string csv = out_dir + "/" + s->name + ".csv";
    if (!write_file(md, markdown_report(result)) ||
        !write_file(csv, csv_report(result))) {
      std::cerr << "explsim: cannot write reports under '" << out_dir
                << "'\n";
      return 1;
    }
    std::cout << "wrote " << md << " and " << csv << "\n";
  }
  return 0;
}

/// The `explsim debug` REPL over one scenario::DebugSession. A thin
/// readline/print wrapper: every line is parsed and executed by the
/// library's scenario::execute_debug_command (which the property tests
/// fuzz), so the binary and the tests exercise the same parser.
int cmd_debug(const std::string& operand, std::uint32_t trial) {
  const auto s = resolve_scenario(operand);
  if (!s) return 1;
  std::cout << "templating trial " << trial << " of " << s->name << "...\n";
  DebugSession session(*s, trial);
  std::cout << session.status();
  if (!session.template_found()) return 0;
  std::cout << "commands: step [n] | run-until <event> | rewind [n] | "
               "bisect-flip <byte> | status | events | help | quit\n";

  std::string line;
  while (std::cout << "(explsim) " << std::flush &&
         std::getline(std::cin, line)) {
    const auto outcome = execute_debug_command(session, line);
    switch (outcome.kind) {
      case DebugCommandOutcome::Kind::kQuit:
        return 0;
      case DebugCommandOutcome::Kind::kEmpty:
        break;
      case DebugCommandOutcome::Kind::kError:
        std::cout << "error: " << outcome.output << "\n";
        break;
      case DebugCommandOutcome::Kind::kOk:
        std::cout << outcome.output;
        break;
    }
  }
  return 0;
}

/// Shared tail of every `all --check`: report issues or success.
int finish_check(const std::vector<std::string>& issues, std::size_t total,
                 const char* regenerate_command) {
  for (const std::string& issue : issues) std::cerr << issue << "\n";
  if (!issues.empty()) {
    std::cerr << issues.size() << " report(s) out of date — regenerate with "
              << "`" << regenerate_command << "` and commit the diff.\n";
    return 1;
  }
  std::cout << "all " << total << " handbook files match.\n";
  return 0;
}

int write_files(
    const std::vector<std::pair<std::string, std::string>>& files) {
  for (const auto& [path, content] : files) {
    if (!write_file(path, content)) {
      std::cerr << "explsim: cannot write '" << path
                << "' (run from the repo root, or pass --out=DIR)\n";
      return 1;
    }
  }
  return 0;
}

int cmd_all(const std::string& out_dir, bool check, std::uint32_t threads) {
  std::vector<ScenarioResult> results;
  std::vector<std::pair<std::string, std::string>> files;  // path, content
  for (const Scenario& s : Registry::builtin().all()) {
    std::cout << (check ? "checking " : "running ") << s.name << "..."
              << std::flush;
    results.push_back(run_scenario(s, threads));
    std::cout << " done (" << results.back().aggregate.wall_seconds
              << " s)\n";
    files.emplace_back(out_dir + "/" + s.name + ".md",
                       markdown_report(results.back()));
    files.emplace_back(out_dir + "/" + s.name + ".csv",
                       csv_report(results.back()));
  }
  files.emplace_back(out_dir + "/README.md", markdown_index(results));

  if (check)
    return finish_check(sweep::check_generated_files(files, out_dir),
                        files.size(), "explsim all");
  if (const int rc = write_files(files)) return rc;
  std::cout << "wrote " << files.size() << " files under " << out_dir
            << "\n";
  return 0;
}

// ---- sweep subcommands -----------------------------------------------------

int cmd_sweep_list() {
  Table t({"sweep", "base", "axes", "points", "title"});
  for (const sweep::SweepSpec& spec : sweep::Registry::builtin().all()) {
    std::string axes;
    for (const sweep::Axis& axis : spec.axes) {
      if (!axes.empty()) axes += " x ";
      axes += axis.key + "(" + std::to_string(axis.values.size()) + ")";
    }
    t.row(spec.name, spec.base, axes, spec.point_count(), spec.title);
  }
  t.print(std::cout);
  std::cout << t.rows() << " sweeps. `explsim sweep describe <name>` for "
            << "the grid, `explsim sweep run <name>` to reproduce it.\n";
  return 0;
}

int cmd_sweep_describe(const std::string& name, bool sweep_only) {
  const sweep::SweepSpec* spec = sweep::Registry::builtin().find(name);
  if (!spec) {
    std::cerr << "explsim: no sweep named '" << name << "'\n";
    return 1;
  }
  if (sweep_only) {
    std::cout << spec->to_sweep();
    return 0;
  }
  std::cout << spec->title << "\n\n" << spec->description << "\n\npaper ref: "
            << spec->paper_ref << "\n\n";
  std::string error;
  const auto points = spec->expand(Registry::builtin(), &error);
  if (!points) {
    std::cerr << "explsim: " << error << "\n";
    return 1;
  }
  Table t({"point", "id", "scenario", "seed"});
  for (const sweep::SweepPoint& p : *points)
    t.row(p.index, p.id, p.scenario.name, p.scenario.seed);
  t.print(std::cout);
  std::cout << "\ncanonical .sweep (explsim sweep describe " << name
            << " --sweep > my.sweep):\n\n" << spec->to_sweep();
  return 0;
}

/// A 1-based --shard=I/N selection (1/1 when the flag is absent).
struct ShardArg {
  std::uint32_t index = 1;
  std::uint32_t count = 1;

  bool sharded() const { return count > 1; }
};

/// The canonical shard-checkpoint filename, the naming contract between
/// `sweep all --shard` (writer) and `sweep all --merge-from` (reader).
std::string shard_checkpoint_path(const std::string& dir,
                                  const std::string& sweep_name,
                                  const ShardArg& shard) {
  return dir + "/" + sweep_name + ".shard-" + std::to_string(shard.index) +
         "-of-" + std::to_string(shard.count) + ".ckpt";
}

/// Run one sweep with per-point progress lines; nullopt on error (already
/// printed). The checkpoint is only engaged when a path is supplied.
std::optional<sweep::SweepResult> run_one_sweep(
    const sweep::SweepSpec& spec, std::uint32_t threads,
    const std::string& checkpoint, bool resume, const ShardArg& shard) {
  sweep::SweepRunOptions options;
  options.threads = threads;
  options.checkpoint_path = checkpoint;
  options.resume = resume;
  options.shard_index = shard.index - 1;
  options.shard_count = shard.count;
  const std::size_t total = spec.point_count();
  options.on_point = [&](const sweep::SweepPoint& point,
                         const sweep::PointRecord& record, bool resumed) {
    std::cout << "  [" << point.index + 1 << "/" << total << "] " << point.id
              << ": " << record.successes() << "/" << record.trials.size()
              << (resumed ? " (resumed from checkpoint)" : "") << "\n";
  };
  std::string error;
  auto result =
      sweep::run_sweep(spec, Registry::builtin(), options, &error);
  if (!result) {
    std::cerr << "explsim: " << error << "\n";
    return std::nullopt;
  }
  return result;
}

int cmd_sweep_run(const std::string& operand, std::uint32_t threads,
                  const std::string& out_dir, std::string checkpoint,
                  bool resume, const ShardArg& shard) {
  const auto spec = resolve_sweep(operand);
  if (!spec) return 1;
  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
  }
  if (checkpoint.empty()) {
    const std::string dir = out_dir.empty() ? "." : out_dir;
    checkpoint = shard.sharded()
                     ? shard_checkpoint_path(dir, spec->name, shard)
                     : dir + "/" + spec->name + ".ckpt";
  }
  std::cout << "sweep " << spec->name << ": " << spec->point_count()
            << " points";
  if (shard.sharded())
    std::cout << ", shard " << shard.index << "/" << shard.count;
  std::cout << "\n";
  const auto result = run_one_sweep(*spec, threads, checkpoint, resume, shard);
  if (!result) return 1;
  std::cout << "done in " << result->wall_seconds << " s ("
            << result->resumed_points << " point(s) resumed)\n";
  if (shard.sharded()) {
    // A shard's records cover only its subset: the checkpoint is the
    // deliverable, and reports come from `sweep merge` over all shards.
    std::cout << "shard checkpoint kept at " << checkpoint
              << " — merge all " << shard.count
              << " shards with `explsim sweep merge " << operand
              << " <ckpt...>`\n";
    return 0;
  }
  if (!out_dir.empty()) {
    const std::string md = out_dir + "/" + spec->name + ".md";
    const std::string csv = out_dir + "/" + spec->name + ".csv";
    if (!write_file(md, sweep::sweep_markdown(*result)) ||
        !write_file(csv, sweep::sweep_csv(*result))) {
      std::cerr << "explsim: cannot write reports under '" << out_dir
                << "'\n";
      return 1;
    }
    std::cout << "wrote " << md << " and " << csv << "\n";
  }
  return 0;
}

int cmd_sweep_merge(const std::string& operand,
                    const std::vector<std::string>& checkpoints,
                    const std::string& out_dir) {
  const auto spec = resolve_sweep(operand);
  if (!spec) return 1;
  std::string error;
  const auto result = sweep::merge_checkpoints(*spec, Registry::builtin(),
                                               checkpoints, &error);
  if (!result) {
    std::cerr << "explsim: " << error << "\n";
    return 1;
  }
  std::cout << "merged " << checkpoints.size() << " checkpoint(s): "
            << result->records.size() << "/" << result->points.size()
            << " points of sweep " << spec->name << "\n";
  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const std::string md = out_dir + "/" + spec->name + ".md";
    const std::string csv = out_dir + "/" + spec->name + ".csv";
    if (!write_file(md, sweep::sweep_markdown(*result)) ||
        !write_file(csv, sweep::sweep_csv(*result))) {
      std::cerr << "explsim: cannot write reports under '" << out_dir
                << "'\n";
      return 1;
    }
    std::cout << "wrote " << md << " and " << csv << "\n";
  }
  return 0;
}

/// Every shard checkpoint for `sweep_name` in `dir`, sorted: the
/// `<name>.shard-I-of-N.ckpt` files `sweep all --shard` writes, plus a
/// plain `<name>.ckpt` (an unsharded checkpoint merges fine too).
std::vector<std::string> find_shard_checkpoints(
    const std::string& dir, const std::string& sweep_name) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string file = entry.path().filename().string();
    if (file.size() < 5 || file.compare(file.size() - 5, 5, ".ckpt") != 0)
      continue;
    if (file == sweep_name + ".ckpt" ||
        file.rfind(sweep_name + ".shard-", 0) == 0)
      paths.push_back(entry.path().generic_string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

int cmd_sweep_all(const std::string& out_dir, bool check,
                  std::uint32_t threads, bool resume, const ShardArg& shard,
                  const std::string& merge_from) {
  if (shard.sharded() && !merge_from.empty()) {
    std::cerr << "explsim: --shard and --merge-from are mutually exclusive "
              << "(run shards first, then merge)\n";
    return 2;
  }
  if (shard.sharded() && check) {
    std::cerr << "explsim: --check needs a full grid; run every shard, then "
              << "`sweep all --merge-from=DIR --check`\n";
    return 2;
  }

  // Shard mode: run shard I of every registered grid, leaving one
  // checkpoint per grid under out_dir. No reports — those come from the
  // merge step once every shard has run.
  if (shard.sharded()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    for (const sweep::SweepSpec& spec : sweep::Registry::builtin().all()) {
      std::cout << "running " << spec.name << " shard " << shard.index << "/"
                << shard.count << " (" << spec.point_count() << " points)\n";
      const std::string checkpoint =
          shard_checkpoint_path(out_dir, spec.name, shard);
      if (!run_one_sweep(spec, threads, checkpoint, resume, shard)) return 1;
    }
    std::cout << "shard " << shard.index << "/" << shard.count
              << " checkpoints written under " << out_dir << "\n";
    return 0;
  }

  if (!check) {
    // Executing (or merging) writes checkpoints/reports under out_dir.
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
  }
  std::vector<sweep::SweepResult> results;
  for (const sweep::SweepSpec& spec : sweep::Registry::builtin().all()) {
    if (!merge_from.empty()) {
      // Merge mode: reassemble this grid from its shard checkpoints
      // instead of executing anything.
      const auto checkpoints = find_shard_checkpoints(merge_from, spec.name);
      std::cout << (check ? "checking " : "merging ") << spec.name << " from "
                << checkpoints.size() << " checkpoint(s)\n";
      std::string error;
      auto result = sweep::merge_checkpoints(spec, Registry::builtin(),
                                             checkpoints, &error);
      if (!result) {
        std::cerr << "explsim: " << error << "\n";
        return 1;
      }
      results.push_back(std::move(*result));
      continue;
    }
    std::cout << (check ? "checking " : "running ") << spec.name << " ("
              << spec.point_count() << " points)\n";
    // --check must not leave state behind; otherwise checkpoint next to
    // the outputs so a killed regeneration resumes with --resume.
    const std::string checkpoint =
        check ? std::string() : out_dir + "/" + spec.name + ".ckpt";
    auto result = run_one_sweep(spec, threads, checkpoint, resume, shard);
    if (!result) return 1;
    results.push_back(std::move(*result));
  }
  const auto files = sweep::sweep_files(results, out_dir);

  if (check)
    return finish_check(sweep::check_generated_files(files, out_dir),
                        files.size(), "explsim sweep all");
  if (const int rc = write_files(files)) return rc;
  std::cout << "wrote " << files.size() << " files under " << out_dir
            << "\n";
  return 0;
}

/// The flags `command` passes on to its cmd_* function (value flags by
/// name, without "=VALUE"). Any other flag on its command line is a usage
/// error, reported before any work.
std::vector<std::string_view> flags_taken(bool is_sweep,
                                          const std::string& command) {
  if (is_sweep) {
    if (command == "describe") return {"--sweep"};
    if (command == "run")
      return {"--threads", "--out", "--checkpoint", "--resume", "--shard"};
    if (command == "merge") return {"--out"};
    if (command == "all")
      return {"--out",    "--check", "--threads",
              "--resume", "--shard", "--merge-from"};
    return {};
  }
  if (command == "describe") return {"--scn"};
  if (command == "run") return {"--threads", "--out"};
  if (command == "debug") return {"--trial"};
  if (command == "all") return {"--out", "--check", "--threads"};
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(std::cerr, 2);
  std::string command = argv[1];
  int first_option = 2;
  const bool is_sweep = command == "sweep";
  if (is_sweep) {
    if (argc < 3) return usage(std::cerr, 2);
    command = argv[2];
    first_option = 3;
  }

  std::vector<std::string> operands;
  bool scn_only = false;
  bool sweep_only = false;
  bool check = false;
  bool resume = false;
  std::uint32_t threads = 0;
  std::uint32_t trial = 0;
  std::string out_dir;
  std::string checkpoint;
  std::string merge_from;
  ShardArg shard;
  const std::vector<std::string_view> taken = flags_taken(is_sweep, command);
  for (int i = first_option; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      operands.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    if (std::find(taken.begin(), taken.end(), flag) == taken.end()) {
      std::cerr << "explsim: '" << (is_sweep ? "sweep " : "") << command
                << "' does not take option '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
    if (arg == "--scn") {
      scn_only = true;
    } else if (arg == "--sweep") {
      sweep_only = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--resume") {
      resume = true;
    } else if (eq == std::string::npos) {
      // A value flag without its "=VALUE".
      std::cerr << "explsim: malformed option '" << arg << "'\n";
      return usage(std::cerr, 2);
    } else if (flag == "--threads") {
      const auto parsed = parse_u64(value);
      if (!parsed || *parsed == 0 || *parsed > 256) {
        std::cerr << "explsim: bad --threads value '" << value
                  << "' (want 1..256)\n";
        return 2;
      }
      threads = static_cast<std::uint32_t>(*parsed);
    } else if (flag == "--trial") {
      const auto parsed = parse_u64(value);
      if (!parsed || *parsed > 1'000'000) {
        std::cerr << "explsim: bad --trial value '" << value << "'\n";
        return 2;
      }
      trial = static_cast<std::uint32_t>(*parsed);
    } else if (flag == "--out") {
      out_dir = value;
    } else if (flag == "--checkpoint") {
      checkpoint = value;
    } else if (flag == "--merge-from") {
      merge_from = value;
    } else if (flag == "--shard") {
      // --shard=I/N, 1-based: shard I of N round-robin shards.
      const std::size_t slash = value.find('/');
      const auto index = parse_u64(value.substr(0, slash));
      const auto count = slash == std::string::npos
                             ? std::nullopt
                             : parse_u64(value.substr(slash + 1));
      if (!index || !count || *count > 1024 || *index == 0 ||
          *index > *count) {
        std::cerr << "explsim: bad --shard value '" << value
                  << "' (want I/N with 1 <= I <= N <= 1024)\n";
        return 2;
      }
      shard.index = static_cast<std::uint32_t>(*index);
      shard.count = static_cast<std::uint32_t>(*count);
    } else {
      // A boolean flag given a value ("--check=1").
      std::cerr << "explsim: malformed option '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
  }

  if (is_sweep) {
    if (command == "list" && operands.empty()) return cmd_sweep_list();
    if (command == "describe" && operands.size() == 1)
      return cmd_sweep_describe(operands[0], sweep_only);
    if (command == "run" && operands.size() == 1)
      return cmd_sweep_run(operands[0], threads, out_dir, checkpoint, resume,
                           shard);
    if (command == "merge" && operands.size() >= 2)
      return cmd_sweep_merge(
          operands[0],
          std::vector<std::string>(operands.begin() + 1, operands.end()),
          out_dir);
    if (command == "all" && operands.empty())
      return cmd_sweep_all(
          out_dir.empty() ? "docs/results/sweeps" : out_dir, check, threads,
          resume, shard, merge_from);
    return usage(std::cerr, 2);
  }

  if (command == "list" && operands.empty()) return cmd_list();
  if (command == "describe" && operands.size() == 1)
    return cmd_describe(operands[0], scn_only);
  if (command == "run" && operands.size() == 1)
    return cmd_run(operands[0], threads, out_dir);
  if (command == "debug" && operands.size() == 1)
    return cmd_debug(operands[0], trial);
  if (command == "all" && operands.empty())
    return cmd_all(out_dir.empty() ? "docs/results" : out_dir, check,
                   threads);
  if (command == "help" || command == "--help") return usage(std::cout, 0);
  return usage(std::cerr, 2);
}
