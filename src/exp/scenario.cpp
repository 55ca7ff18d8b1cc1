#include "exp/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/queueing.hpp"
#include "exp/node_driver.hpp"

namespace amoeba::exp {

namespace {

/// The ablation `system` stands for, applied to a tuned config.
void ablate(core::AmoebaConfig& cfg, DeploySystem system) {
  if (system == DeploySystem::kAmoebaNoM) cfg.estimator.enable_pca = false;
  if (system == DeploySystem::kAmoebaNoP) cfg.engine.enable_prewarm = false;
}

}  // namespace

ClusterConfig default_cluster() {
  ClusterConfig c;
  c.serverless.cores = 40.0;
  c.serverless.pool_memory_mb = 32768.0;  // 128 containers at 256 MB
  c.serverless.disk_bps = 2.0e9;
  c.serverless.net_bps = 3.125e9;
  c.serverless.container_core_cap = 1.0;
  c.serverless.cpu_interference = 0.35;  // shared-LLC/membw degradation
  c.serverless.io_efficiency = 0.85;     // overlay-fs / container IO tax
  c.serverless.cold_start_mean_s = 1.0;
  c.serverless.cold_start_cv = 0.25;
  // The experiment day is compressed (600 s ≈ 24 h), so the keep-alive is
  // compressed with it: 10 s here ≈ a 24-minute OpenWhisk-style TTL. Cold
  // starts deliberately stay at real-world magnitude (1 s) — they are the
  // adversary Eq. 7/8 defend against.
  c.serverless.keep_alive_s = 10.0;
  c.iaas.disk_bps = 2.0e9;
  c.iaas.net_bps = 3.125e9;
  c.iaas.vm_boot_s = 30.0;
  c.seed = 42;
  return c;
}

iaas::VmSpec just_enough_vm(const workload::FunctionProfile& profile,
                            const ClusterConfig& cluster) {
  constexpr double kHeadroom = 1.15;
  const double service_s =
      profile.ideal_iaas_latency(cluster.iaas.disk_bps, cluster.iaas.net_bps);
  const double mu = 1.0 / service_s;
  const auto servers = core::queueing::min_servers(
      profile.peak_load_qps, mu, profile.qos_target_s, core::kQosPercentile);
  AMOEBA_EXPECTS_MSG(servers.has_value(),
                     "no VM size can meet the QoS target: " + profile.name);
  const int cores = static_cast<int>(std::ceil(*servers * kHeadroom));
  iaas::VmSpec spec;
  spec.cores = cores;
  spec.memory_mb = 1024.0 + profile.memory_mb * cores;
  spec.boot_s = cluster.iaas.vm_boot_s;
  return spec;
}

workload::DiurnalTraceConfig diurnal_for(
    const workload::FunctionProfile& profile, double period_s, double phase) {
  workload::DiurnalTraceConfig cfg;
  cfg.period_s = period_s;
  cfg.peak_qps = profile.peak_load_qps;
  cfg.trough_fraction = 0.25;
  cfg.peak_width = 0.055;
  cfg.phase = phase;
  cfg.noise_cv = 0.05;
  cfg.noise_interval_s = std::max(10.0, period_s / 200.0);
  return cfg;
}

const char* to_string(DeploySystem s) noexcept {
  switch (s) {
    case DeploySystem::kAmoeba: return "Amoeba";
    case DeploySystem::kAmoebaNoM: return "Amoeba-NoM";
    case DeploySystem::kAmoebaNoP: return "Amoeba-NoP";
    case DeploySystem::kNameko: return "Nameko";
    case DeploySystem::kOpenWhisk: return "OpenWhisk";
  }
  return "?";
}

std::vector<workload::FunctionProfile> background_suite(
    double peak_fraction) {
  return {workload::as_background(workload::make_float(), peak_fraction),
          workload::as_background(workload::make_dd(), peak_fraction),
          workload::as_background(workload::make_cloud_stor(), peak_fraction)};
}

core::AmoebaConfig default_amoeba_config(DeploySystem system) {
  core::AmoebaConfig cfg;
  // The margins absorb what the discriminant cannot see: the load keeps
  // rising through the hysteresis window and the 30 s VM boot, so the
  // switch back to IaaS must fire well before λ_max is reached.
  cfg.controller.to_serverless_margin = 0.60;
  cfg.controller.to_iaas_margin = 0.80;
  cfg.controller.hysteresis_ticks = 2;
  cfg.engine.mirror_fraction = 0.08;
  cfg.engine.prewarm.headroom = 1.25;
  cfg.monitor.sample_period_s = 5.0;
  cfg.estimator.min_samples = 24;
  // Cover 2 hysteresis ticks + the 30 s VM boot.
  cfg.load_anticipation_s = 40.0;
  ablate(cfg, system);
  return cfg;
}

ManagedRunResult run_managed(const workload::FunctionProfile& foreground,
                             DeploySystem system, const ClusterConfig& cluster,
                             const core::MeterCalibration& calibration,
                             const core::ServiceArtifacts& artifacts,
                             const ManagedRunOptions& opt) {
  SimNode node(cluster, opt);
  serverless::ServerlessPlatform& sp = node.sp;

  // Background tenants live directly on the shared serverless platform.
  if (opt.with_background) {
    std::uint64_t k = 0;
    for (const auto& bg : background_suite(opt.background_peak_fraction)) {
      const serverless::FunctionId fn = sp.register_function(bg);
      node.add_stream(
          bg, 0.17 * static_cast<double>(k + 1), 0xb67u + k, 100 + k,
          [&sp, fn] { sp.submit(fn, [](const workload::QueryRecord&) {}); },
          /*start_now=*/true);
      ++k;
    }
  }

  // Foreground service under the chosen deployment system.
  ManagedRunResult result;
  result.qos_target_s = foreground.qos_target_s;
  // User queries past warm-up, and their full records if asked for.
  const workload::QueryCompletionFn fg_observer =
      [&result, warmup_s = opt.warmup_s,
       keep = opt.keep_records](const workload::QueryRecord& rec) {
        if (rec.arrival < warmup_s) return;
        result.latencies.add(rec.latency());
        if (keep) result.records.push_back(rec);
      };

  core::AmoebaRuntime* runtime = nullptr;
  workload::ArrivalFn fg_arrival;
  std::function<void()> nameko_boot;  // must outlive the event loop
  // The foreground's handles, for its usage: a VM, a function, or both.
  iaas::VirtualMachine* fg_vm = nullptr;
  std::optional<serverless::FunctionId> fg_fn;

  switch (system) {
    case DeploySystem::kNameko: {
      iaas::VirtualMachine& vm = node.ip.register_service(
          foreground, just_enough_vm(foreground, cluster));
      fg_vm = &vm;
      // Injected boot failures: keep rebooting until the VM sticks, and
      // shed arrivals while it is down (a pure-IaaS outage loses queries).
      // Fault-free, the first boot sticks before the load starts.
      nameko_boot = [&engine = node.engine, &vm, &nameko_boot] {
        vm.boot([] {}, [&engine, &nameko_boot] {
          engine.schedule_in(1.0, [&nameko_boot] { nameko_boot(); });
        });
      };
      nameko_boot();
      fg_arrival = [&vm, fg_observer] {
        if (vm.state() == iaas::VmState::kRunning) vm.submit(fg_observer);
      };
      break;
    }
    case DeploySystem::kOpenWhisk: {
      const serverless::FunctionId fn = sp.register_function(foreground);
      fg_fn = fn;
      fg_arrival = [&sp, fn, fg_observer] { sp.submit(fn, fg_observer); };
      break;
    }
    default: {
      // An override replaces the tuning, not the system's ablation.
      core::AmoebaConfig cfg =
          opt.amoeba.value_or(default_amoeba_config(system));
      ablate(cfg, system);
      cfg.timeline_period_s = opt.timeline_period_s;
      const auto vm_spec = just_enough_vm(foreground, cluster);
      runtime = &node.start_runtime(cfg, calibration, foreground, vm_spec,
                                    artifacts, n_max_for(vm_spec), 3);
      fg_vm = &runtime->execution_engine().vm();
      fg_fn = runtime->execution_engine().function();
      fg_arrival = [runtime, fg_observer] { runtime->submit(fg_observer); };
      break;
    }
  }
  node.add_stream(foreground, 0.0, 0x51u, 7, std::move(fg_arrival));

  node.run_day(result);

  result.queries = result.latencies.size();
  result.usage = core::service_usage(fg_vm, sp, fg_fn, node.duration_s);
  if (runtime != nullptr) {
    result.switches = runtime->switch_events();
    result.switch_aborts = runtime->execution_engine().switch_aborts();
    result.switch_retries = runtime->execution_engine().switch_retries();
    if (runtime->timeline_period() > 0.0) result.timeline = runtime->timeline();
  }
  return result;
}

}  // namespace amoeba::exp
