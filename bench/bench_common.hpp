// Shared formatting helpers for the table/figure reproduction binaries.
//
// Every bench prints (a) the regenerated table/figure rows in the thesis's
// layout and (b) the paper's qualitative expectation, so a reader can judge
// the reproduction from the bench's output alone.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.hpp"
#include "util/string_utils.hpp"
#include "util/table_printer.hpp"

namespace apt::bench {

inline void heading(const std::string& title) {
  std::cout << "\n==================================================\n"
            << title << "\n"
            << "==================================================\n";
}

inline void note(const std::string& text) { std::cout << text << "\n"; }

/// Parses a bench's only arguments, an optional `--jobs N` (default 1: the
/// serial baseline; 0 means one job per hardware thread). Exits 2 with a
/// message on anything else or on a malformed value, so a misspelt flag
/// cannot run the bench with its defaults.
inline std::size_t jobs_from_args(int argc, char** argv) {
  if (argc == 1) return 1;
  std::string error = "expected no arguments or --jobs N";
  if (argc == 3 && std::strcmp(argv[1], "--jobs") == 0) {
    try {
      return static_cast<std::size_t>(util::parse_uint(argv[2]));
    } catch (const std::exception& e) {
      error = std::string("--jobs: ") + e.what();
    }
  }
  std::cerr << argv[0] << ": error: " << error << "\n";
  std::exit(2);
}

/// Wall-clock timer for the before/after speedup numbers the benches print.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void report_wall_clock(double elapsed_ms, std::size_t jobs) {
  std::cout << "wall-clock: " << util::format_double(elapsed_ms, 1)
            << " ms (--jobs " << jobs << ")\n";
}

/// Prints a grid as the thesis prints Tables 8-12: one row per experiment,
/// one column per policy, a separator, then the per-column average. The
/// value accessor selects makespan or λ.
inline void print_grid(const core::Grid& grid,
                       double core::Cell::*value,
                       const std::string& unit) {
  std::vector<std::string> header = {"Graph"};
  for (const auto& name : grid.policy_names) header.push_back(name);
  util::TablePrinter table(header);
  for (std::size_t g = 0; g < grid.experiment_count(); ++g) {
    std::vector<std::string> row = {std::to_string(g + 1)};
    for (std::size_t p = 0; p < grid.policy_count(); ++p)
      row.push_back(util::format_double(grid.cells[g][p].*value, 0));
    table.add_row(std::move(row));
  }
  table.add_separator();
  std::vector<std::string> avg = {"avg"};
  for (std::size_t p = 0; p < grid.policy_count(); ++p) {
    double sum = 0.0;
    for (std::size_t g = 0; g < grid.experiment_count(); ++g)
      sum += grid.cells[g][p].*value;
    avg.push_back(util::format_double(
        sum / static_cast<double>(grid.experiment_count()), 0));
  }
  table.add_row(std::move(avg));
  std::cout << table.to_string();
  std::cout << "(all values in " << unit << ")\n";
}

}  // namespace apt::bench
