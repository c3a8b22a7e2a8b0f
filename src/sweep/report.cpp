#include "sweep/report.hpp"

#include <algorithm>
#include <filesystem>

#include "support/table.hpp"

namespace explframe::sweep {

std::string sweep_csv(const SweepResult& result) {
  std::vector<std::string> headers{"point"};
  for (const Axis& axis : result.spec.axes) headers.push_back(axis.key);
  headers.emplace_back("trial");
  TrialRow::append_csv_headers(headers);

  Table t(headers);
  for (const PointRecord& record : result.records) {
    const SweepPoint& point = result.points[record.index];
    for (std::size_t trial = 0; trial < record.trials.size(); ++trial) {
      std::vector<std::string> cells{Table::to_cell(record.index)};
      for (const auto& [key, value] : point.coords) cells.push_back(value);
      cells.push_back(Table::to_cell(trial));
      record.trials[trial].append_csv_cells(cells);
      t.add_row(std::move(cells));
    }
  }
  return t.render(TableFormat::kCsv);
}

std::string sweep_markdown(const SweepResult& result) {
  const SweepSpec& spec = result.spec;

  std::string out;
  out += "# " + spec.title + "\n\n";
  out += "Sweep `" + spec.name + "` — base scenario `" + spec.base +
         "`, seeds " +
         (spec.seed_mode == SeedMode::kShared
              ? std::string("shared across points (paired ablation)")
              : std::string("derived per point (independent populations)")) +
         ".";
  if (!spec.paper_ref.empty()) out += " Paper ref: " + spec.paper_ref + ".";
  out += "\n\n";
  if (!spec.description.empty()) out += spec.description + "\n\n";

  out += "## Configuration\n\n";
  out += "Reproduce with `explsim sweep run " + spec.name +
         "`; the canonical `.sweep` form (save it, edit it, `explsim sweep "
         "run <file>`):\n\n";
  out += "```ini\n" + spec.to_sweep() + "```\n\n";

  out += "## Grid\n\n";
  std::vector<std::string> headers{"point"};
  for (const Axis& axis : spec.axes) headers.push_back(axis.key);
  for (const char* column :
       {"success", "ciphertexts to key", "rows templated", "sim seconds"})
    headers.emplace_back(column);
  Table grid(headers);
  for (const PointRecord& record : result.records) {
    const SweepPoint& point = result.points[record.index];
    const attack::TrialTally stats = attack::TrialTally::of(record.trials);
    std::vector<std::string> cells{Table::to_cell(record.index)};
    for (const auto& [key, value] : point.coords) cells.push_back(value);
    cells.push_back(std::to_string(stats.succeeded) + "/" +
                    std::to_string(stats.trials));
    cells.push_back(samples_cell(stats.ciphertexts_used));
    cells.push_back(samples_cell(stats.rows_scanned));
    cells.push_back(samples_cell(stats.sim_seconds));
    grid.add_row(std::move(cells));
  }
  out += grid.render(TableFormat::kMarkdown);
  out += "\n";

  // One marginal per axis: every value aggregated across the other axes.
  for (std::size_t a = 0; a < spec.axes.size(); ++a) {
    const Axis& axis = spec.axes[a];
    out += "## Marginal: `" + axis.key + "`\n\n";
    Table marginal({axis.key, "points", "trials", "success",
                    "ciphertexts to key", "rows templated"});
    for (const std::string& value : axis.values) {
      attack::TrialTally stats;
      std::size_t points = 0;
      for (const PointRecord& record : result.records) {
        if (result.points[record.index].coords[a].second != value) continue;
        ++points;
        for (const TrialRow& trial : record.trials) stats.add(trial);
      }
      marginal.row(value, points, stats.trials,
                   rate_cell(stats.succeeded, stats.trials),
                   samples_cell(stats.ciphertexts_used),
                   samples_cell(stats.rows_scanned));
    }
    out += marginal.render(TableFormat::kMarkdown);
    out += "\n";
  }

  // For two axes the whole grid fits one success-rate pivot.
  if (spec.axes.size() == 2) {
    const Axis& rows = spec.axes[0];
    const Axis& cols = spec.axes[1];
    out += "## Success pivot: `" + rows.key + "` x `" + cols.key + "`\n\n";
    std::vector<std::string> headers{rows.key + " \\ " + cols.key};
    for (const std::string& value : cols.values) headers.push_back(value);
    Table pivot(headers);
    for (const std::string& row_value : rows.values) {
      std::vector<std::string> cells{row_value};
      for (const std::string& col_value : cols.values) {
        attack::TrialTally stats;
        for (const PointRecord& record : result.records) {
          const SweepPoint& point = result.points[record.index];
          if (point.coords[0].second != row_value ||
              point.coords[1].second != col_value)
            continue;
          for (const TrialRow& trial : record.trials) stats.add(trial);
        }
        cells.push_back(std::to_string(stats.succeeded) + "/" +
                        std::to_string(stats.trials));
      }
      pivot.add_row(std::move(cells));
    }
    out += pivot.render(TableFormat::kMarkdown);
    out += "\n";
  }

  out +=
      "*Generated by `explsim` from the sweep registry — do not edit; "
      "regenerate with `explsim sweep all`.*\n";
  return out;
}

std::string sweeps_index(const std::vector<SweepResult>& results) {
  std::string out;
  out += "# Sweep grids\n\n";
  out +=
      "One ablation grid per registered sweep, generated by `explsim sweep "
      "all`. Like the per-scenario reports one directory up, every number "
      "is derived from the simulation alone, so regeneration is "
      "byte-identical and CI enforces it with `explsim sweep all --check`. "
      "Interrupted runs resume from their checkpoint (`explsim sweep run "
      "<name> --resume`) and still reproduce these bytes exactly.\n\n";
  Table t({"sweep", "title", "base", "axes", "points", "trials", "success",
           "report"});
  for (const SweepResult& r : results) {
    std::string axes;
    for (const Axis& axis : r.spec.axes) {
      if (!axes.empty()) axes += ", ";
      axes += "`" + axis.key + "` (" + std::to_string(axis.values.size()) +
              ")";
    }
    attack::TrialTally stats;
    for (const PointRecord& record : r.records)
      for (const TrialRow& trial : record.trials) stats.add(trial);
    t.row("`" + r.spec.name + "`", r.spec.title, "`" + r.spec.base + "`",
          axes, r.points.size(), stats.trials,
          std::to_string(stats.succeeded) + "/" + std::to_string(stats.trials),
          "[md](" + r.spec.name + ".md), [csv](" + r.spec.name + ".csv)");
  }
  out += t.render(TableFormat::kMarkdown);
  out +=
      "\n*Regenerate: `cmake --build build && ./build/explsim sweep all`.*\n";
  return out;
}

std::vector<std::pair<std::string, std::string>> sweep_files(
    const std::vector<SweepResult>& results, const std::string& dir) {
  std::vector<std::pair<std::string, std::string>> files;
  for (const SweepResult& r : results) {
    files.emplace_back(dir + "/" + r.spec.name + ".md", sweep_markdown(r));
    files.emplace_back(dir + "/" + r.spec.name + ".csv", sweep_csv(r));
  }
  files.emplace_back(dir + "/README.md", sweeps_index(results));
  return files;
}

std::vector<std::string> check_generated_files(
    const std::vector<std::pair<std::string, std::string>>& files,
    const std::string& dir, io::FileSystem* fs) {
  io::FileSystem& the_fs = fs != nullptr ? *fs : io::real();
  std::vector<std::string> issues;
  for (const auto& [path, content] : files) {
    std::string on_disk;
    const io::Status read = io::with_retry(
        io::kDefaultRetryAttempts,
        [&] { return the_fs.read_file(path, &on_disk); });
    if (!read.ok()) {
      issues.push_back("MISSING " + path +
                       (read.is_not_found() ? "" : " (" + read.message() + ")"));
      continue;
    }
    if (on_disk != content)
      issues.push_back("DRIFT   " + path +
                       " (regenerated report differs from the checked-in "
                       "golden)");
  }
  // A renamed or deleted entry must take its old reports with it: any
  // .md/.csv in the directory we did not just regenerate would silently
  // keep shipping stale numbers.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string path = entry.path().generic_string();
    const std::string ext = entry.path().extension().string();
    if (!entry.is_regular_file() || (ext != ".md" && ext != ".csv")) continue;
    const bool generated =
        std::any_of(files.begin(), files.end(),
                    [&](const auto& f) { return f.first == path; });
    if (!generated)
      issues.push_back("ORPHAN  " + path +
                       " (no registered entry generates this file)");
  }
  std::sort(issues.begin(), issues.end());
  return issues;
}

}  // namespace explframe::sweep
