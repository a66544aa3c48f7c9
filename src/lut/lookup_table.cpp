#include "lut/lookup_table.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/string_utils.hpp"

namespace apt::lut {

ProcType proc_type_from_string(const std::string& name) {
  const std::string n = util::to_lower(util::trim(name));
  if (n == "cpu") return ProcType::CPU;
  if (n == "gpu") return ProcType::GPU;
  if (n == "fpga") return ProcType::FPGA;
  throw std::invalid_argument("proc_type_from_string: unknown type '" + name + "'");
}

std::string canonical_kernel_name(const std::string& name) {
  std::string n = util::to_lower(util::trim(name));
  // Collapse spaces/hyphens so "Matrix - Matrix Multiplication" variants match.
  std::string squeezed;
  for (char c : n) {
    if (c == ' ' || c == '-' || c == '_') continue;
    squeezed.push_back(c);
  }
  if (squeezed == "matrixmultiplication" || squeezed == "matrixmatrixmultiplication" ||
      squeezed == "matmul" || squeezed == "mat.mat.multi." || squeezed == "mm")
    return kernels::kMatMul;
  if (squeezed == "matrixinverse" || squeezed == "matrixinversion" || squeezed == "mi")
    return kernels::kMatInv;
  if (squeezed == "choleskydecomposition" || squeezed == "choleskydeco." ||
      squeezed == "choleskydecomp." || squeezed == "cholesky" || squeezed == "cd")
    return kernels::kCholesky;
  if (squeezed == "needlemanwunsch" || squeezed == "nw") return kernels::kNeedlemanWunsch;
  if (squeezed == "breadthfirstsearch" || squeezed == "bfs") return kernels::kBfs;
  if (squeezed == "specklereducinganisotropicdiffusion" || squeezed == "srad")
    return kernels::kSrad;
  if (squeezed == "gaussianelectrostaticmodel" || squeezed == "gem")
    return kernels::kGem;
  return n;
}

void LookupTable::add(Entry entry) {
  entry.kernel = canonical_kernel_name(entry.kernel);
  if (entry.kernel.empty())
    throw std::invalid_argument("LookupTable::add: empty kernel name");
  for (const double t : entry.time_ms) {
    if (!(t > 0.0) || !std::isfinite(t))
      throw std::invalid_argument(
          "LookupTable::add: times must be positive and finite (kernel '" +
          entry.kernel + "')");
  }
  if (find(entry.kernel, entry.data_size) != nullptr)
    throw std::invalid_argument("LookupTable::add: duplicate row for kernel '" +
                                entry.kernel + "' size " +
                                std::to_string(entry.data_size));
  index_.emplace(Key{entry.kernel, entry.data_size}, ordered_.size());
  ordered_.push_back(std::move(entry));
}

const Entry* LookupTable::find(std::string_view kernel,
                               std::uint64_t data_size) const noexcept {
  const auto it = index_.find(std::pair{kernel, data_size});
  return it == index_.end() ? nullptr : &ordered_[it->second];
}

bool LookupTable::contains(const std::string& kernel,
                           std::uint64_t data_size) const {
  return find(canonical_kernel_name(kernel), data_size) != nullptr;
}

const Entry& LookupTable::at(const std::string& kernel,
                             std::uint64_t data_size) const {
  if (const Entry* e = find(canonical_kernel_name(kernel), data_size))
    return *e;
  throw std::out_of_range("LookupTable: no row for kernel '" + kernel +
                          "' size " + std::to_string(data_size));
}

double LookupTable::exec_time_ms(const std::string& kernel,
                                 std::uint64_t data_size, ProcType type) const {
  return at(kernel, data_size).time(type);
}

const Entry& LookupTable::nearest(const std::string& kernel,
                                  std::uint64_t data_size) const {
  const std::string name = canonical_kernel_name(kernel);
  const Entry* best = nullptr;
  double best_dist = 0.0;
  for (const Entry& e : ordered_) {
    if (e.kernel != name) continue;
    // log-space distance keeps "nearest" scale-aware across decades of sizes.
    const double a = std::log(static_cast<double>(std::max<std::uint64_t>(e.data_size, 1)));
    const double b = std::log(static_cast<double>(std::max<std::uint64_t>(data_size, 1)));
    const double dist = std::abs(a - b);
    if (best == nullptr || dist < best_dist) {
      best = &e;
      best_dist = dist;
    }
  }
  if (best == nullptr)
    throw std::out_of_range("LookupTable::nearest: unknown kernel '" + kernel + "'");
  return *best;
}

ProcType LookupTable::best_processor(const std::string& kernel,
                                     std::uint64_t data_size) const {
  const Entry& e = at(kernel, data_size);
  ProcType best = ProcType::CPU;
  for (ProcType p : kAllProcTypes) {
    if (e.time(p) < e.time(best)) best = p;
  }
  return best;
}

std::vector<ProcType> LookupTable::processors_by_time(
    const std::string& kernel, std::uint64_t data_size) const {
  const Entry& e = at(kernel, data_size);
  std::vector<ProcType> order(kAllProcTypes.begin(), kAllProcTypes.end());
  std::stable_sort(order.begin(), order.end(), [&](ProcType a, ProcType b) {
    return e.time(a) < e.time(b);
  });
  return order;
}

double LookupTable::heterogeneity(const std::string& kernel,
                                  std::uint64_t data_size) const {
  const Entry& e = at(kernel, data_size);
  const auto [mn, mx] =
      std::minmax_element(e.time_ms.begin(), e.time_ms.end());
  return *mx / *mn;
}

std::vector<std::string> LookupTable::kernels() const {
  std::vector<std::string> out;
  for (const Entry& e : ordered_) {
    if (std::find(out.begin(), out.end(), e.kernel) == out.end())
      out.push_back(e.kernel);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint64_t> LookupTable::sizes_for(
    const std::string& kernel) const {
  const std::string name = canonical_kernel_name(kernel);
  std::vector<std::uint64_t> out;
  for (const Entry& e : ordered_) {
    if (e.kernel == name) out.push_back(e.data_size);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string LookupTable::to_csv() const {
  util::CsvTable table({"kernel", "data_size", "cpu_ms", "gpu_ms", "fpga_ms"});
  for (const Entry& e : ordered_) {
    table.add_row({e.kernel, std::to_string(e.data_size),
                   util::format_double(e.time(ProcType::CPU), 6),
                   util::format_double(e.time(ProcType::GPU), 6),
                   util::format_double(e.time(ProcType::FPGA), 6)});
  }
  return util::to_csv_string(table);
}

LookupTable LookupTable::from_csv(const std::string& text) {
  const util::CsvTable table = util::parse_csv(text, /*has_header=*/true);
  LookupTable lut;
  const std::size_t k = table.column_index("kernel");
  const std::size_t d = table.column_index("data_size");
  const std::size_t c = table.column_index("cpu_ms");
  const std::size_t g = table.column_index("gpu_ms");
  const std::size_t f = table.column_index("fpga_ms");
  for (const auto& row : table.rows()) {
    Entry e;
    e.kernel = row.at(k);
    e.data_size = util::parse_uint(row.at(d));
    e.time_ms[index_of(ProcType::CPU)] = util::parse_double(row.at(c));
    e.time_ms[index_of(ProcType::GPU)] = util::parse_double(row.at(g));
    e.time_ms[index_of(ProcType::FPGA)] = util::parse_double(row.at(f));
    lut.add(std::move(e));
  }
  return lut;
}

LookupTable LookupTable::from_csv_file(const std::string& path) {
  const util::CsvTable table = util::read_csv_file(path, /*has_header=*/true);
  return from_csv(util::to_csv_string(table));
}

void LookupTable::save_csv_file(const std::string& path) const {
  util::CsvTable table = util::parse_csv(to_csv(), /*has_header=*/true);
  util::write_csv_file(table, path);
}

double geometric_mean_heterogeneity(const LookupTable& table) {
  if (table.empty())
    throw std::invalid_argument("geometric_mean_heterogeneity: empty table");
  double log_sum = 0.0;
  for (const Entry& e : table.entries())
    log_sum += std::log(table.heterogeneity(e.kernel, e.data_size));
  return std::exp(log_sum / static_cast<double>(table.size()));
}

double median_heterogeneity(const LookupTable& table) {
  if (table.empty())
    throw std::invalid_argument("median_heterogeneity: empty table");
  std::vector<double> ratios;
  ratios.reserve(table.size());
  for (const Entry& e : table.entries())
    ratios.push_back(table.heterogeneity(e.kernel, e.data_size));
  std::sort(ratios.begin(), ratios.end());
  const std::size_t n = ratios.size();
  return n % 2 == 1 ? ratios[n / 2]
                    : (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0;
}

}  // namespace apt::lut
