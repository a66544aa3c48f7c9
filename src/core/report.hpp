// Report exports: turn experiment grids and sweeps into CSV (for plotting)
// and Markdown (for docs) — the machinery behind `aptsim report`, which
// regenerates the reproduced paper tables as files.
#pragma once

#include <string>
#include <vector>

#include "core/experiments.hpp"

namespace apt::core {

/// Which quantity of a Grid to export.
enum class GridValue { Makespan, LambdaTotal, AlternativeCount };

const char* to_string(GridValue value) noexcept;

/// CSV with one row per experiment and one column per policy, plus a
/// trailing "avg" row. Columns: experiment,<policy names...>.
std::string grid_to_csv(const Grid& grid, GridValue value);

/// GitHub-flavoured Markdown table of the same layout.
std::string grid_to_markdown(const Grid& grid, GridValue value);

/// CSV of an α sweep: alpha,rate_gbps,avg_makespan_ms,avg_lambda_ms.
std::string sweep_to_csv(const std::vector<AlphaSweepPoint>& points);

/// Writes the full reproduction bundle into `directory` (created by the
/// caller): per-type grid CSVs for makespan/λ at the given α plus the α
/// sweep CSVs. Returns the written file names (relative to `directory`).
std::vector<std::string> write_report_bundle(const std::string& directory,
                                             double alpha = 4.0);

}  // namespace apt::core
