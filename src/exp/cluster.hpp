// Cluster-scale multi-service runs — the paper's §VII-A regime at full
// breadth: N concurrently *managed* microservices on one shared node.
//
// `run_cluster` is a thin adapter over the shared-node driver
// (shared_node.hpp): each tenant becomes a one-stage flow whose end-to-end
// target is the tenant's QoS target and whose root stream is the tenant's
// phase-shifted diurnal trace. Every tenant therefore gets its own
// AmoebaRuntime (monitor, controller, execution engine) over the ONE
// serverless platform, ONE IaaS platform and ONE event engine, and its
// discriminant input P is *caused by the live co-tenants* — including the
// other monitors' probe traffic — through the shared FairShareResources.
// My switch to serverless raises your measured pressure, which can flip
// your switch: exactly the coupling where naive per-service controllers
// oscillate. The driver also owns the shared-pool arbitration: a meter
// reserve, then core::split_container_budget over the tenants' solo asks.
//
// What the adapter adds: tenants keep their profile names, report their
// own QoS target and violation fraction, and may keep their QueryRecords.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/shared_node.hpp"
#include "exp/table.hpp"

namespace amoeba::exp {

/// One managed tenant of the cluster.
struct ClusterServiceSpec {
  workload::FunctionProfile profile;
  core::ServiceArtifacts artifacts;
  /// Diurnal phase offset in [0, 1): 0.5 puts this tenant's rush half a
  /// period after an unshifted one. Aligned phases (all equal) are the
  /// worst case for the contention loop.
  double phase = 0.0;
};

struct ClusterRunOptions : SharedNodeOptions {
  /// Keep every per-service QueryRecord in the result.
  bool keep_records = false;
};

/// Per-tenant outcome of a cluster run.
struct ClusterServiceResult : StageResultBase {
  double qos_target_s = 0.0;
  std::vector<workload::QueryRecord> records;  ///< if keep_records
  std::uint64_t queries = 0;
  std::vector<core::SwitchEvent> switches;

  [[nodiscard]] double violation_fraction() const {
    return latencies.fraction_above(qos_target_s);
  }
};

struct ClusterRunResult : SharedNodeResult {
  std::vector<ClusterServiceResult> services;
  /// Σ over services of their cross-platform usage.
  core::ServiceUsage services_usage;

  /// Total rented/consumed core-hours, meters included.
  [[nodiscard]] double total_core_hours() const {
    return core_hours_with(services_usage);
  }
  [[nodiscard]] double total_memory_gb_hours() const {
    return memory_gb_hours_with(services_usage);
  }
  /// Lookup by tenant name (nullptr when absent).
  [[nodiscard]] const ClusterServiceResult* find(
      const std::string& name) const {
    return find_named(services, name);
  }
};

/// Run N managed services concurrently on one shared node.
[[nodiscard]] ClusterRunResult run_cluster(
    const std::vector<ClusterServiceSpec>& specs,
    const ClusterConfig& cluster, const core::MeterCalibration& calibration,
    const ClusterRunOptions& opt);

/// N tenant profiles cycling the FunctionBench suite (float, matmul,
/// linpack, dd, cloud_stor, float#5, ...), each renamed "<base>#<i>" and
/// scaled to `peak_fraction` of its solo peak so N tenants fit a node one
/// full-peak service saturates.
[[nodiscard]] std::vector<workload::FunctionProfile> cluster_tenants(
    int n, double peak_fraction);

/// Human-readable per-service table with a trailing TOTAL row.
[[nodiscard]] Table cluster_table(const ClusterRunResult& r);

}  // namespace amoeba::exp
