// The kernel-cost lookup table (thesis §3.1, Table 3 / Table 14).
//
// Every scheduling policy in the paper consults a table of measured kernel
// execution times, keyed by (kernel name, data size) and giving one time per
// processor category. This module provides that table as a first-class value
// type with CSV round-tripping and the queries the policies need
// (best processor, sorted alternatives, execution time).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lut/proc_type.hpp"

namespace apt::lut {

/// Execution times (milliseconds) of one kernel at one data size on each
/// processor category.
struct Entry {
  std::string kernel;      ///< canonical lower-case kernel name, e.g. "mm"
  std::uint64_t data_size; ///< problem size in elements (as in Table 14)
  std::array<double, kNumProcTypes> time_ms{};  ///< indexed by ProcType

  double time(ProcType type) const noexcept { return time_ms[index_of(type)]; }
};

/// Immutable-after-build table of Entry rows with exact and nearest-size
/// queries. Kernel names are canonicalised to lower case.
class LookupTable {
 public:
  LookupTable() = default;

  /// Adds a row; throws std::invalid_argument on duplicate (kernel,size)
  /// or non-positive times.
  void add(Entry entry);

  std::size_t size() const noexcept { return ordered_.size(); }
  bool empty() const noexcept { return ordered_.empty(); }

  /// The row for an already-canonical kernel name (as add() and
  /// dag::Dag::add_node store it), or null: one index probe, no
  /// canonicalisation, no throw. Every other exact query canonicalises
  /// its name and then calls this.
  const Entry* find(std::string_view kernel,
                    std::uint64_t data_size) const noexcept;

  bool contains(const std::string& kernel, std::uint64_t data_size) const;

  /// Exact lookup; throws std::out_of_range if the row is absent.
  const Entry& at(const std::string& kernel, std::uint64_t data_size) const;

  /// Exact execution time; throws std::out_of_range if absent.
  double exec_time_ms(const std::string& kernel, std::uint64_t data_size,
                      ProcType type) const;

  /// Entry for the kernel whose data size is nearest (in log-space when both
  /// sizes are positive) to `data_size`. Throws std::out_of_range when the
  /// kernel has no rows at all.
  const Entry& nearest(const std::string& kernel, std::uint64_t data_size) const;

  /// Processor category with minimal execution time for the row
  /// (ties broken toward the lower ProcType index, i.e. CPU < GPU < FPGA).
  ProcType best_processor(const std::string& kernel,
                          std::uint64_t data_size) const;

  /// All processor categories sorted by ascending execution time for the row
  /// (stable tie-break on ProcType index).
  std::vector<ProcType> processors_by_time(const std::string& kernel,
                                           std::uint64_t data_size) const;

  /// Ratio of worst to best time for the row: a per-kernel measure of the
  /// system's degree of heterogeneity (≥ 1).
  double heterogeneity(const std::string& kernel,
                       std::uint64_t data_size) const;

  /// Distinct kernel names, sorted.
  std::vector<std::string> kernels() const;

  /// Data sizes available for a kernel, ascending; empty if unknown kernel.
  std::vector<std::uint64_t> sizes_for(const std::string& kernel) const;

  /// All rows in insertion order.
  const std::vector<Entry>& entries() const noexcept { return ordered_; }

  /// CSV round-trip. Columns: kernel,data_size,cpu_ms,gpu_ms,fpga_ms.
  std::string to_csv() const;
  static LookupTable from_csv(const std::string& text);
  static LookupTable from_csv_file(const std::string& path);
  void save_csv_file(const std::string& path) const;

 private:
  /// Enters row `row` of ordered_ into index_ (which has a free slot).
  void index_row(std::size_t row);

  /// Open addressing with linear probing over a power-of-two array, at
  /// most half full: each slot holds a row of ordered_ plus one, or 0 where
  /// a probe for an absent (kernel, size) ends.
  std::vector<std::size_t> index_;
  std::vector<Entry> ordered_;
};

/// Canonical kernel short names used throughout the project
/// (Table 5 / Appendix key of the thesis).
namespace kernels {
inline constexpr const char* kMatMul = "mm";    ///< Matrix-matrix multiplication
inline constexpr const char* kMatInv = "mi";    ///< Matrix inverse
inline constexpr const char* kCholesky = "cd";  ///< Cholesky decomposition
inline constexpr const char* kNeedlemanWunsch = "nw";
inline constexpr const char* kBfs = "bfs";
inline constexpr const char* kSrad = "srad";
inline constexpr const char* kGem = "gem";
}  // namespace kernels

/// Summary of a table's degree of heterogeneity (the quantity the thesis
/// argues α must be tuned to): geometric mean over all rows of the
/// worst/best execution-time ratio. 1 = homogeneous; the paper table is
/// extremely heterogeneous (dominated by mm's 10^6 GPU advantage).
double geometric_mean_heterogeneity(const LookupTable& table);

/// Median per-row heterogeneity ratio — robust to mm's extreme rows.
double median_heterogeneity(const LookupTable& table);

/// Canonicalises a kernel name: trims, lower-cases, and maps the long names
/// used in the thesis tables ("Matrix Multiplication", "Cholesky
/// Decomposition", ...) onto the short names above. Unknown names pass
/// through lower-cased.
std::string canonical_kernel_name(const std::string& name);

}  // namespace apt::lut
