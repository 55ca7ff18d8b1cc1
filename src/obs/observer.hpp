// Observability facade handed to the runtime and platforms.
//
// A default-constructed Observer is fully disabled: every instrumentation
// site guards with `if (obs && obs->trace_on())` etc., so a null pointer or
// a disabled observer costs one branch per site and allocates nothing
// (null-sink fast path). Constructing with an ObsConfig enables the three
// components — tracer, metrics registry, decision audit log — individually.
//
// Determinism contract: the observer only ever appends to in-memory buffers.
// It must never schedule simulation events or draw randomness, so enabling
// it cannot change the engine's event-trace hash.
#pragma once

#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace amoeba::obs {

struct ObsConfig {
  bool trace = true;
  bool metrics = true;
  bool audit = true;
};

class Observer {
 public:
  /// Disabled observer (null sink).
  Observer() : tracer_(0) {}

  explicit Observer(const ObsConfig& cfg)
      : trace_on_(cfg.trace),
        metrics_on_(cfg.metrics),
        audit_on_(cfg.audit) {}

  [[nodiscard]] bool trace_on() const noexcept { return trace_on_; }
  [[nodiscard]] bool metrics_on() const noexcept { return metrics_on_; }
  [[nodiscard]] bool audit_on() const noexcept { return audit_on_; }
  [[nodiscard]] bool enabled() const noexcept {
    return trace_on_ || metrics_on_ || audit_on_;
  }

  [[nodiscard]] Tracer& tracer() noexcept { return tracer_; }
  [[nodiscard]] const Tracer& tracer() const noexcept { return tracer_; }
  [[nodiscard]] MetricsRegistry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const MetricsRegistry& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] AuditLog& audit() noexcept { return audit_; }
  [[nodiscard]] const AuditLog& audit() const noexcept { return audit_; }

 private:
  bool trace_on_ = false;
  bool metrics_on_ = false;
  bool audit_on_ = false;
  Tracer tracer_;
  MetricsRegistry metrics_;
  AuditLog audit_;
};

}  // namespace amoeba::obs
