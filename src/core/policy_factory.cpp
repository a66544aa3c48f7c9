#include "core/policy_factory.hpp"

#include <functional>
#include <stdexcept>

#include "core/apt.hpp"
#include "core/apt_ranked.hpp"
#include "policies/ag.hpp"
#include "policies/batch_mode.hpp"
#include "policies/heft.hpp"
#include "policies/met.hpp"
#include "policies/olb.hpp"
#include "policies/peft.hpp"
#include "policies/random_policy.hpp"
#include "policies/spn.hpp"
#include "policies/ss.hpp"
#include "util/string_utils.hpp"

namespace apt::core {

namespace {

/// A registry row plus what the header-visible PolicyInfo omits: the
/// factory itself, the placeholder name of the optional argument (for
/// known_policy_specs), and concrete advertised variants ("ag:recent").
struct Entry {
  PolicyInfo info;
  std::string param;  ///< "<param>" placeholder name; empty = no argument
  std::vector<std::string> advertised;  ///< extra concrete specs to list
  std::function<std::unique_ptr<sim::Policy>(const std::string& arg)> make;
};

std::unique_ptr<sim::Policy> make_ag(policies::AgQueueEstimate estimate,
                                     bool comm_aware) {
  policies::AgOptions options;
  options.estimate = estimate;
  options.comm_aware = comm_aware;
  return std::make_unique<policies::AdaptiveGreedy>(options);
}

/// APT-Q's planning quantile. Fixed rather than spec-settable: the point of
/// the variant is one canonical tail-aware column next to APT/APT-C in
/// every ablation, not another free parameter to sweep.
constexpr double kAptQQuantile = 0.95;

const std::vector<Entry>& registry() {
  static const std::vector<Entry> table = [] {
    std::vector<Entry> t;
    const auto alpha_of = [](const std::string& arg) {
      return arg.empty() ? 4.0 : util::parse_double(arg);
    };
    t.push_back({{"apt", {}, "apt[:alpha]",
                  "Alternative Processor within Threshold (the paper's "
                  "policy; alpha >= 1, default 4)",
                  true},
                 "alpha",
                 {},
                 [alpha_of](const std::string& arg) {
                   return std::make_unique<Apt>(alpha_of(arg));
                 }});
    t.push_back({{"apt-c", {"aptc"}, "apt-c[:alpha]",
                  "APT pricing transfers with predicted link backlog "
                  "(TransferEstimate::total_ms); == APT on ideal fabrics",
                  true, true},
                 "alpha",
                 {},
                 [alpha_of](const std::string& arg) {
                   AptOptions options;
                   options.alpha = alpha_of(arg);
                   options.comm_aware = true;
                   return std::make_unique<Apt>(options);
                 }});
    t.push_back({{"apt-q", {"aptq"}, "apt-q[:alpha]",
                  "APT ranking by the p95 cost quantile under the run's "
                  "noise spec; == APT-C when noise is off",
                  true, true},
                 "alpha",
                 {},
                 [alpha_of](const std::string& arg) {
                   AptOptions options;
                   options.alpha = alpha_of(arg);
                   options.comm_aware = true;
                   options.rank_quantile = kAptQQuantile;
                   return std::make_unique<Apt>(options);
                 }});
    t.push_back({{"apt-r", {"aptr"}, "apt-r[:alpha]",
                  "APT with the remaining-time extension (waits when "
                  "draining p_min beats the alternative)",
                  true},
                 "alpha",
                 {},
                 [alpha_of](const std::string& arg) {
                   return std::make_unique<Apt>(
                       AptOptions{alpha_of(arg), true, true});
                 }});
    t.push_back({{"apt-ranked", {"aptranked"}, "apt-ranked[:alpha]",
                  "APT serving the ready set in HEFT upward-rank order",
                  false},
                 "alpha",
                 {},
                 [alpha_of](const std::string& arg) {
                   return std::make_unique<AptRanked>(alpha_of(arg));
                 }});
    t.push_back({{"met", {}, "met",
                  "Minimum Execution Time (waits for the best processor)",
                  true},
                 "",
                 {},
                 [](const std::string&) {
                   return std::make_unique<policies::Met>();
                 }});
    t.push_back({{"spn", {}, "spn", "Shortest Process Next", true},
                 "",
                 {},
                 [](const std::string&) {
                   return std::make_unique<policies::Spn>();
                 }});
    t.push_back({{"ss", {}, "ss", "Serial Scheduling (one processor)", true},
                 "",
                 {},
                 [](const std::string&) {
                   return std::make_unique<policies::SerialScheduling>();
                 }});
    t.push_back({{"ag", {}, "ag[:recent]",
                  "Adaptive Greedy FIFO queues (sum-of-queued estimator; "
                  ":recent for the Eq. (2) rolling average)",
                  true},
                 "",
                 {"ag:recent"},
                 [](const std::string& arg) {
                   if (arg.empty())
                     return make_ag(policies::AgQueueEstimate::SumOfQueued,
                                    false);
                   if (arg == "recent")
                     return make_ag(policies::AgQueueEstimate::RecentAverage,
                                    false);
                   throw std::invalid_argument(
                       "make_policy: unknown AG variant '" + arg + "'");
                 }});
    t.push_back({{"ag-net", {"agnet"}, "ag-net[:recent]",
                  "Adaptive Greedy with fabric-backlog-aware transfer "
                  "delay (TransferEstimate::total_ms); == AG on ideal "
                  "fabrics",
                  true, true},
                 "",
                 {},
                 [](const std::string& arg) {
                   if (arg.empty())
                     return make_ag(policies::AgQueueEstimate::SumOfQueued,
                                    true);
                   if (arg == "recent")
                     return make_ag(policies::AgQueueEstimate::RecentAverage,
                                    true);
                   throw std::invalid_argument(
                       "make_policy: unknown AG variant '" + arg + "'");
                 }});
    t.push_back({{"olb", {}, "olb", "Opportunistic Load Balancing", true},
                 "",
                 {},
                 [](const std::string&) {
                   return std::make_unique<policies::Olb>();
                 }});
    t.push_back({{"minmin", {"min-min"}, "minmin",
                  "Min-Min batch heuristic (Braun et al.)", true},
                 "",
                 {},
                 [](const std::string&) {
                   return std::make_unique<policies::BatchMode>(
                       policies::BatchRule::MinMin);
                 }});
    t.push_back({{"maxmin", {"max-min"}, "maxmin",
                  "Max-Min batch heuristic (Braun et al.)", true},
                 "",
                 {},
                 [](const std::string&) {
                   return std::make_unique<policies::BatchMode>(
                       policies::BatchRule::MaxMin);
                 }});
    t.push_back({{"sufferage", {}, "sufferage",
                  "Sufferage batch heuristic (Braun et al.)", true},
                 "",
                 {},
                 [](const std::string&) {
                   return std::make_unique<policies::BatchMode>(
                       policies::BatchRule::Sufferage);
                 }});
    t.push_back({{"heft", {}, "heft",
                  "Heterogeneous Earliest Finish Time (static list "
                  "schedule)",
                  false},
                 "",
                 {},
                 [](const std::string&) {
                   return std::make_unique<policies::Heft>();
                 }});
    t.push_back({{"peft", {}, "peft",
                  "Predict Earliest Finish Time (static, OCT table)",
                  false},
                 "",
                 {},
                 [](const std::string&) {
                   return std::make_unique<policies::Peft>();
                 }});
    t.push_back({{"random", {}, "random[:seed]",
                  "Uniform random assignment (seeded; default 42)", true},
                 "seed",
                 {},
                 [](const std::string& arg) {
                   const std::uint64_t seed =
                       arg.empty() ? 42 : util::parse_uint(arg);
                   return std::make_unique<policies::RandomPolicy>(seed);
                 }});
    return t;
  }();
  return table;
}

const Entry* find_entry(const std::string& head) {
  for (const Entry& e : registry()) {
    if (e.info.head == head) return &e;
    for (const std::string& alias : e.info.aliases)
      if (alias == head) return &e;
  }
  return nullptr;
}

/// The registered head closest to `head` by util::did_you_mean; an alias
/// match suggests its canonical head.
std::string did_you_mean(const std::string& head) {
  std::vector<std::string> names;
  for (const Entry& e : registry()) {
    names.push_back(e.info.head);
    names.insert(names.end(), e.info.aliases.begin(), e.info.aliases.end());
  }
  const std::string match = util::did_you_mean(head, names);
  return match.empty() ? match : find_entry(match)->info.head;
}

}  // namespace

const std::vector<PolicyInfo>& policy_registry() {
  static const std::vector<PolicyInfo> infos = [] {
    std::vector<PolicyInfo> v;
    for (const Entry& e : registry()) v.push_back(e.info);
    return v;
  }();
  return infos;
}

const PolicyInfo* find_policy_info(const std::string& spec) {
  std::string head = util::to_lower(util::trim(spec));
  if (const auto colon = head.find(':'); colon != std::string::npos)
    head.resize(colon);
  const Entry* e = find_entry(head);
  return e ? &e->info : nullptr;
}

std::unique_ptr<sim::Policy> make_policy(const std::string& spec) {
  const std::string lowered = util::to_lower(util::trim(spec));
  std::string head = lowered;
  std::string arg;
  if (const auto colon = lowered.find(':'); colon != std::string::npos) {
    head = lowered.substr(0, colon);
    arg = lowered.substr(colon + 1);
  }
  if (const Entry* e = find_entry(head)) return e->make(arg);
  std::string msg = "make_policy: unknown policy spec '" + spec + "'";
  if (const std::string suggestion = did_you_mean(head); !suggestion.empty())
    msg += " (did you mean '" + suggestion + "'?)";
  msg += "; run 'aptsim policies' for the full list";
  throw std::invalid_argument(msg);
}

std::vector<std::string> known_policy_specs() {
  std::vector<std::string> specs;
  for (const Entry& e : registry()) {
    specs.push_back(e.info.head);
    if (!e.param.empty()) specs.push_back(e.info.head + ":<" + e.param + ">");
    for (const std::string& extra : e.advertised) specs.push_back(extra);
  }
  return specs;
}

std::vector<std::string> parse_policy_list(const std::string& csv) {
  std::vector<std::string> specs;
  for (const auto& token : util::split(csv, ',')) {
    const std::string spec = util::trim(token);
    if (spec.empty()) continue;
    // "{seed}" placeholders resolve per cell later (resolve_policy_spec);
    // validate with a stand-in value so "random:{seed}" passes here while
    // a typo'd head still dies with the did-you-mean message.
    std::string probe = spec;
    static const std::string kPlaceholder = "{seed}";
    for (std::size_t at = probe.find(kPlaceholder); at != std::string::npos;
         at = probe.find(kPlaceholder, at)) {
      probe.replace(at, kPlaceholder.size(), "0");
      ++at;
    }
    make_policy(probe);  // throws with did-you-mean on typos
    specs.push_back(spec);
  }
  return specs;
}

std::vector<std::unique_ptr<sim::Policy>> paper_policy_set(double apt_alpha) {
  std::vector<std::unique_ptr<sim::Policy>> set;
  set.push_back(std::make_unique<Apt>(apt_alpha));
  set.push_back(std::make_unique<policies::Met>());
  set.push_back(std::make_unique<policies::Spn>());
  set.push_back(std::make_unique<policies::SerialScheduling>());
  set.push_back(std::make_unique<policies::AdaptiveGreedy>());
  set.push_back(std::make_unique<policies::Heft>());
  set.push_back(std::make_unique<policies::Peft>());
  return set;
}

}  // namespace apt::core
