#include "sim/counting_resource.hpp"

namespace amoeba::sim {

CountingResource::CountingResource(Engine& engine, double capacity)
    : engine_(engine), capacity_(capacity) {
  AMOEBA_EXPECTS(capacity > 0.0);
  mark_ = engine_.now();
}

bool CountingResource::try_acquire(double amount) {
  AMOEBA_EXPECTS_VALS(amount >= 0.0, amount);
  if (in_use_ + amount > capacity_ + 1e-9) return false;
  held_unit_seconds(engine_.now());
  in_use_ += amount;
  AMOEBA_INVARIANT_VALS(in_use_ <= capacity_ + 1e-6, in_use_, capacity_);
  return true;
}

void CountingResource::release(double amount) {
  AMOEBA_EXPECTS_VALS(amount >= 0.0, amount);
  AMOEBA_EXPECTS_MSG(amount <= in_use_ + 1e-9, "releasing more than held");
  held_unit_seconds(engine_.now());
  in_use_ -= amount;
  if (in_use_ < 0.0) in_use_ = 0.0;
  AMOEBA_INVARIANT_VALS(in_use_ >= 0.0 && in_use_ <= capacity_ + 1e-6,
                        in_use_, capacity_);
}

double CountingResource::held_unit_seconds(Time now) const noexcept {
  if (now > mark_) {
    integral_ += in_use_ * (now - mark_);
    mark_ = now;
  }
  return integral_;
}

}  // namespace amoeba::sim
