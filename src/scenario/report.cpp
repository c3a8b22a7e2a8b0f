#include "scenario/report.hpp"

#include "support/table.hpp"

namespace explframe::scenario {

ScenarioResult run_scenario(const Scenario& s,
                            std::uint32_t threads_override) {
  attack::RunnerConfig cfg = s.runner_config();
  if (threads_override > 0) cfg.threads = threads_override;
  attack::CampaignRunner runner(cfg);
  return ScenarioResult{s, runner.run()};
}

std::string markdown_report(const ScenarioResult& result) {
  const Scenario& s = result.scenario;
  const attack::CampaignAggregate& agg = result.aggregate;

  std::string out;
  out += "# " + s.title + "\n\n";
  out += "Scenario `" + s.name + "` — paper ref: " + s.paper_ref + ".\n\n";
  out += s.description + "\n\n";
  out += "## Configuration\n\n";
  out += "Reproduce with `explsim run " + s.name +
         "`; the canonical `.scn` form (save it, edit it, `explsim run "
         "<file>`):\n\n";
  out += "```ini\n" + s.to_scn() + "```\n\n";

  out += "## Phase outcomes\n\n";
  out += agg.phase_table().render(TableFormat::kMarkdown);
  out += "\n";

  out += "## Aggregate statistics\n\n";
  Table stats({"metric", "value"});
  stats.row("trials", agg.trials);
  stats.row("overall success", rate_cell(agg.succeeded, agg.trials));
  stats.row("rows templated (all trials)", samples_cell(agg.rows_scanned));
  stats.row("ciphertexts to unique key (successful trials)",
            samples_cell(agg.ciphertexts_used));
  stats.row("simulated attack seconds", samples_cell(agg.sim_seconds));
  out += stats.render(TableFormat::kMarkdown);
  out += "\n";

  out += "## Failure stages\n\n";
  Table stages({"stage", "trials"});
  for (const auto& [stage, count] : agg.failure_stages)
    stages.row(stage, count);
  out += stages.render(TableFormat::kMarkdown);
  out += "\n";
  out +=
      "*Generated by `explsim` from the scenario registry — do not edit; "
      "regenerate with `explsim all`.*\n";
  return out;
}

std::string csv_report(const ScenarioResult& result) {
  std::vector<std::string> headers{"trial"};
  attack::TrialRow::append_csv_headers(headers);
  Table t(headers);
  for (std::size_t i = 0; i < result.aggregate.reports.size(); ++i) {
    std::vector<std::string> cells{Table::to_cell(i)};
    attack::TrialRow::from_report(result.aggregate.reports[i])
        .append_csv_cells(cells);
    t.add_row(std::move(cells));
  }
  return t.render(TableFormat::kCsv);
}

std::string markdown_index(const std::vector<ScenarioResult>& results) {
  std::string out;
  out += "# Reproduction handbook\n\n";
  out +=
      "One report per registered scenario, generated by `explsim all`. "
      "Every number is derived from the simulation alone (no wall-clock "
      "values), so regenerating with the same seeds reproduces these files "
      "byte for byte — CI enforces exactly that with `explsim all "
      "--check`.\n\n";
  out +=
      "Multi-dimensional ablation grids over these scenarios live in "
      "[sweeps/](sweeps/README.md), generated by `explsim sweep all` under "
      "the same byte-stability contract (`explsim sweep all --check` in "
      "CI). Sweeps checkpoint each completed grid point, so an interrupted "
      "run resumes with `--resume` and still reproduces the same bytes; a "
      "checkpoint is invalidated by any change to the sweep spec, its "
      "seeds or its base scenario (the spec hash), and stale goldens are "
      "caught by `--check`. The task-oriented guide to all of this is "
      "[docs/HANDBOOK.md](../HANDBOOK.md).\n\n";
  Table t({"scenario", "title", "cipher", "defence", "trials", "success",
           "report"});
  for (const ScenarioResult& r : results) {
    t.row("`" + r.scenario.name + "`", r.scenario.title,
          crypto::to_string(r.scenario.cipher), to_string(r.scenario.defence),
          r.scenario.trials,
          Table::percent(r.aggregate.success_rate()),
          "[md](" + r.scenario.name + ".md), [csv](" + r.scenario.name +
              ".csv)");
  }
  out += t.render(TableFormat::kMarkdown);
  out += "\n*Regenerate: `cmake --build build && ./build/explsim all`.*\n";
  return out;
}

}  // namespace explframe::scenario
