#include "core/resource_accounting.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

namespace amoeba::core {

ServiceUsage service_usage(iaas::VirtualMachine* vm,
                           serverless::ServerlessPlatform& serverless,
                           std::optional<serverless::FunctionId> fn,
                           double now) {
  ServiceUsage u;
  if (vm != nullptr) {
    u.cpu_core_seconds = vm->rented_core_seconds(now);
    u.memory_mb_seconds = vm->rented_memory_mb_seconds(now);
  }
  if (fn.has_value()) {
    u += {serverless.cpu_core_seconds(*fn),
          serverless.memory_mb_seconds(*fn, now)};
  }
  return u;
}

std::vector<int> split_container_budget(const std::vector<int>& asks,
                                        int budget) {
  if (asks.empty()) return {};
  for (const int a : asks) AMOEBA_EXPECTS_MSG(a >= 1, "asks must be >= 1");
  const std::int64_t total =
      std::accumulate(asks.begin(), asks.end(), std::int64_t{0});
  if (total <= budget) return asks;  // everyone fits: no arbitration needed
  const auto n = static_cast<std::int64_t>(asks.size());
  AMOEBA_EXPECTS_MSG(budget >= n,
                     "budget cannot guarantee one container per service");

  // Guarantee 1 container each, then split the spare proportionally to the
  // excess ask (ask-1) with the largest-remainder method. Integer-exact and
  // deterministic: remainder ties go to the lower index.
  const std::int64_t spare = budget - n;
  const std::int64_t excess_total = total - n;  // > spare since total > budget
  std::vector<int> grants(asks.size(), 1);
  std::vector<std::pair<std::int64_t, std::size_t>> remainders;
  remainders.reserve(asks.size());
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < asks.size(); ++i) {
    const std::int64_t num = spare * (asks[i] - 1);
    grants[i] += static_cast<int>(num / excess_total);
    assigned += num / excess_total;
    remainders.emplace_back(num % excess_total, i);
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  for (std::int64_t k = 0; k < spare - assigned; ++k) {
    grants[remainders[static_cast<std::size_t>(k)].second] += 1;
  }
  return grants;
}

}  // namespace amoeba::core
