// Container lifecycle model for the serverless platform.
//
// A container belongs to exactly one function (OpenWhisk semantics), holds
// its memory reservation from creation to destruction, and executes at most
// one invocation at a time (paper §V-A: "most serverless platforms allow
// only one execution at a time in a container").
#pragma once

#include <cstdint>

#include "sim/engine.hpp"

namespace amoeba::serverless {

using ContainerId = std::uint64_t;

/// Handle of a function registered on the serverless platform: its dense
/// index in registration order. Below the platform's API edge every
/// per-function table is a vector indexed by it.
enum class FunctionId : std::uint32_t {};

enum class ContainerState : std::uint8_t {
  kStarting,  ///< cold start in progress (memory already reserved)
  kIdle,      ///< warm, waiting for work; keep-alive deadline pending
  kBusy,      ///< executing one invocation
};

struct Container {
  ContainerId id = 0;
  FunctionId function{};
  ContainerState state = ContainerState::kStarting;
  double memory_mb = 0.0;
  sim::Time created_at = 0.0;
  sim::Time ready_at = 0.0;            ///< when the cold start finished
  sim::Time idle_since = 0.0;          ///< valid while state == kIdle
  std::uint64_t invocations_served = 0;
};

}  // namespace amoeba::serverless
