// Cross-platform resource accounting (paper Figs. 11, 13, 14).
//
// IaaS usage is what the maintainer *rents*: the VM's full core/memory
// allocation for every second it is up, busy or not. Serverless usage is
// what the queries *consume*: actual compute core-seconds plus the
// container-memory reservation integral (busy, idle-warm, and prewarmed
// containers all hold memory — the honest cost of the prewarm strategy).
#pragma once

#include <optional>
#include <vector>

#include "iaas/vm.hpp"
#include "serverless/platform.hpp"

namespace amoeba::core {

struct ServiceUsage {
  double cpu_core_seconds = 0.0;
  double memory_mb_seconds = 0.0;

  ServiceUsage& operator+=(const ServiceUsage& o) {
    cpu_core_seconds += o.cpu_core_seconds;
    memory_mb_seconds += o.memory_mb_seconds;
    return *this;
  }
};

/// Combined usage of a service across both platforms through `now`: the
/// VM it rents (`vm`, nullptr if it has none) plus what its containers
/// consumed (`fn`, nullopt if it is no function on `serverless`). The IaaS
/// term is taken first and the serverless term added to it.
[[nodiscard]] ServiceUsage service_usage(
    iaas::VirtualMachine* vm, serverless::ServerlessPlatform& serverless,
    std::optional<serverless::FunctionId> fn, double now);

/// Shared-pool admission arbitration: split a node-wide container budget
/// across services asking for `asks[i]` containers each (their per-service
/// n_max if they ran alone). If the asks fit, everyone gets what they asked
/// for. Otherwise every service is guaranteed 1 container (no starvation)
/// and the remainder is divided proportionally to the excess ask
/// (ask_i - 1) by the largest-remainder method, ties broken by lower index
/// — fully deterministic. Grants never exceed asks; with budget >=
/// #services the grants sum to min(budget, sum(asks)).
std::vector<int> split_container_budget(const std::vector<int>& asks,
                                        int budget);

}  // namespace amoeba::core
