#include "lut/lookup_table.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/string_utils.hpp"

namespace apt::lut {

ProcType proc_type_from_string(const std::string& name) {
  const std::string n = util::to_lower(util::trim(name));
  if (n == "cpu") return ProcType::CPU;
  if (n == "gpu") return ProcType::GPU;
  if (n == "fpga") return ProcType::FPGA;
  throw std::invalid_argument("proc_type_from_string: unknown type '" + name + "'");
}

namespace {

/// Every spelling canonical_kernel_name maps, in the squeezed form it
/// compares (trimmed, lower-case, no ' ', '-' or '_'): the long names of
/// the thesis tables and each short name itself.
struct Alias {
  std::string_view spelling;
  std::string_view canonical;
};
constexpr Alias kAliases[] = {
    {"matrixmultiplication", kernels::kMatMul},
    {"matrixmatrixmultiplication", kernels::kMatMul},
    {"matmul", kernels::kMatMul},
    {"mat.mat.multi.", kernels::kMatMul},
    {"mm", kernels::kMatMul},
    {"matrixinverse", kernels::kMatInv},
    {"matrixinversion", kernels::kMatInv},
    {"mi", kernels::kMatInv},
    {"choleskydecomposition", kernels::kCholesky},
    {"choleskydeco.", kernels::kCholesky},
    {"choleskydecomp.", kernels::kCholesky},
    {"cholesky", kernels::kCholesky},
    {"cd", kernels::kCholesky},
    {"needlemanwunsch", kernels::kNeedlemanWunsch},
    {"nw", kernels::kNeedlemanWunsch},
    {"breadthfirstsearch", kernels::kBfs},
    {"bfs", kernels::kBfs},
    {"specklereducinganisotropicdiffusion", kernels::kSrad},
    {"srad", kernels::kSrad},
    {"gaussianelectrostaticmodel", kernels::kGem},
    {"gem", kernels::kGem},
};

/// The length of the shortest spelling that maps to another name: a
/// shorter squeezed name maps to itself.
constexpr std::size_t shortest_renaming_alias() {
  std::size_t shortest = std::string_view::npos;
  for (const Alias& a : kAliases)
    if (a.spelling != a.canonical) shortest = std::min(shortest, a.spelling.size());
  return shortest;
}
constexpr std::size_t kShortestRenamingAlias = shortest_renaming_alias();

/// The canonical name a squeezed spelling maps to, or empty if none.
std::string_view alias_target(std::string_view squeezed) noexcept {
  for (const Alias& a : kAliases)
    if (squeezed == a.spelling) return a.canonical;
  return {};
}

/// Whether `name` is its own trimmed, lower-cased and squeezed form.
bool is_squeezed_lower(const std::string& name) noexcept {
  if (!name.empty() && (std::isspace(static_cast<unsigned char>(name.front())) ||
                        std::isspace(static_cast<unsigned char>(name.back()))))
    return false;
  for (const char c : name) {
    const auto u = static_cast<unsigned char>(c);
    if (c == ' ' || c == '-' || c == '_' || std::tolower(u) != u) return false;
  }
  return true;
}

/// Hash of a (kernel, size) key: FNV-1a over the name, the size folded
/// in, then SplitMix64's mix so the low bits index_ masks with depend on
/// every input bit.
std::uint64_t key_hash(std::string_view kernel,
                       std::uint64_t data_size) noexcept {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : kernel) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return util::SplitMix64(h ^ data_size).next();
}

}  // namespace

std::string canonical_kernel_name(const std::string& name) {
  // Already canonical (the paper's short names, synthetic "synN", and every
  // name add_node stored): no copies, and no scan below the shortest alias.
  if (is_squeezed_lower(name)) {
    if (name.size() < kShortestRenamingAlias) return name;
    const std::string_view target = alias_target(name);
    return target.empty() ? name : std::string(target);
  }
  std::string n = util::to_lower(util::trim(name));
  // Collapse spaces/hyphens so "Matrix - Matrix Multiplication" variants match.
  std::string squeezed;
  for (char c : n) {
    if (c == ' ' || c == '-' || c == '_') continue;
    squeezed.push_back(c);
  }
  const std::string_view target = alias_target(squeezed);
  return target.empty() ? n : std::string(target);
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
  ordered_.push_back(std::move(entry));
  if (2 * ordered_.size() <= index_.size()) {
    index_row(ordered_.size() - 1);
    return;
  }
  index_.assign(std::max<std::size_t>(16, 2 * index_.size()), 0);
  for (std::size_t row = 0; row < ordered_.size(); ++row) index_row(row);
}

void LookupTable::index_row(std::size_t row) {
  const std::size_t mask = index_.size() - 1;
  std::size_t s = key_hash(ordered_[row].kernel, ordered_[row].data_size) & mask;
  while (index_[s] != 0) s = (s + 1) & mask;
  index_[s] = row + 1;
}

const Entry* LookupTable::find(std::string_view kernel,
                               std::uint64_t data_size) const noexcept {
  if (index_.empty()) return nullptr;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t s = key_hash(kernel, data_size) & mask;; s = (s + 1) & mask) {
    if (index_[s] == 0) return nullptr;
    const Entry& e = ordered_[index_[s] - 1];
    if (e.data_size == data_size && e.kernel == kernel) return &e;
  }
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
