#include "workload/load_generator.hpp"

namespace amoeba::workload {

PoissonLoadGenerator::PoissonLoadGenerator(sim::Engine& engine, sim::Rng rng,
                                           RateFn rate, double max_rate,
                                           ArrivalFn on_arrival)
    : engine_(engine),
      rng_(rng),
      rate_(std::move(rate)),
      max_rate_(max_rate),
      on_arrival_(std::move(on_arrival)) {
  AMOEBA_EXPECTS(max_rate > 0.0);
  AMOEBA_EXPECTS(rate_ != nullptr);
  AMOEBA_EXPECTS(on_arrival_ != nullptr);
}

PoissonLoadGenerator::PoissonLoadGenerator(sim::Engine& engine, sim::Rng rng,
                                           const DiurnalTrace& trace,
                                           ArrivalFn on_arrival)
    : PoissonLoadGenerator(
          engine, rng, [&trace](double t) { return trace.rate(t); },
          trace.max_rate(), std::move(on_arrival)) {
  trace_ = &trace;
}

PoissonLoadGenerator::~PoissonLoadGenerator() {
  running_ = false;
  if (pending_ != sim::kNoEvent) engine_.cancel(pending_);
}

void PoissonLoadGenerator::start() {
  if (running_) return;
  running_ = true;
  schedule_next();
}

void PoissonLoadGenerator::stop() {
  running_ = false;
  if (pending_ == sim::kNoEvent) return;
  engine_.cancel(pending_);
  pending_ = sim::kNoEvent;
  // The walk drew candidates past now. Replay it from its start and stop
  // right after the gap of the first candidate not yet due, which leaves
  // the rng where one event per candidate would have left it: a later
  // start() continues the same stream.
  rng_ = walk_rng_;
  double t = walk_start_;
  while (true) {
    t += rng_.exponential(max_rate_);
    if (t > engine_.now()) break;
    const double lambda = rate_(t);
    if (lambda > 0.0) (void)rng_.uniform();
  }
}

RateBounds PoissonLoadGenerator::envelope(double t) const {
  if (trace_ != nullptr) return trace_->rate_bounds(t);
  return {0.0, max_rate_ * (1.0 + kRateSlack)};
}

double PoissonLoadGenerator::exact_rate(double t, const RateBounds& env) {
  ++exact_rate_calls_;
  const double lambda = rate_(t);
  AMOEBA_ASSERT_MSG(lambda <= max_rate_ * (1.0 + kRateSlack),
                    "rate function exceeded its declared bound");
  AMOEBA_ASSERT_MSG(env.lo <= lambda && lambda <= env.hi,
                    "rate left its envelope");
  return lambda;
}

void PoissonLoadGenerator::schedule_next() {
  // Lewis-Shedler thinning: candidate arrivals at rate max_rate_, each
  // accepted with probability rate(t)/max_rate_. The candidates are drawn
  // here, in a loop, and only the accepted one becomes an event. After
  // kMaxRejections rejections in a row the last candidate becomes an event
  // that emits nothing and resumes the walk, so an all-zero rate still lets
  // the engine run dry.
  //
  // The squeeze: with lo <= rate(t) <= hi, a uniform u below lo/max_rate_
  // accepts and one at or above hi/max_rate_ rejects whatever rate(t) is
  // (dividing by max_rate_ is monotone under rounding), so only u in the
  // band between needs rate(t). lo > 0 implies rate(t) > 0, so u is drawn
  // exactly when thinning on rate(t) alone draws it: the draws, decisions
  // and arrival times do not depend on the envelope.
  walk_rng_ = rng_;
  walk_start_ = engine_.now();
  double t = walk_start_;
  bool accept = false;
  for (int candidate = 0; candidate < kMaxRejections && !accept;
       ++candidate) {
    t += rng_.exponential(max_rate_);
    ++candidates_;
    const RateBounds env = envelope(t);
    if (env.lo > 0.0) {
      const double u = rng_.uniform();
      accept = u < env.lo / max_rate_ ||
               (u < env.hi / max_rate_ && u < exact_rate(t, env) / max_rate_);
    } else {
      const double lambda = exact_rate(t, env);
      accept = lambda > 0.0 && rng_.uniform() < lambda / max_rate_;
    }
  }
  pending_ = engine_.schedule(t, [this, accept] {
    pending_ = sim::kNoEvent;
    if (!running_) return;
    if (accept) {
      ++emitted_;
      on_arrival_();
    }
    if (running_) schedule_next();
  });
}

ConstantLoadGenerator::ConstantLoadGenerator(sim::Engine& engine, sim::Rng rng,
                                             double rate_qps,
                                             ArrivalFn on_arrival)
    : engine_(engine), rng_(rng), rate_(rate_qps),
      on_arrival_(std::move(on_arrival)) {
  AMOEBA_EXPECTS(rate_qps > 0.0);
  AMOEBA_EXPECTS(on_arrival_ != nullptr);
}

void ConstantLoadGenerator::start() {
  if (running_) return;
  running_ = true;
  schedule_next();
}

void ConstantLoadGenerator::stop() {
  running_ = false;
  if (pending_ != sim::kNoEvent) {
    engine_.cancel(pending_);
    pending_ = sim::kNoEvent;
  }
}

void ConstantLoadGenerator::set_rate(double rate_qps) {
  AMOEBA_EXPECTS(rate_qps > 0.0);
  rate_ = rate_qps;
}

void ConstantLoadGenerator::schedule_next() {
  const double gap = rng_.exponential(rate_);
  pending_ = engine_.schedule_in(gap, [this] {
    pending_ = sim::kNoEvent;
    if (!running_) return;
    ++emitted_;
    on_arrival_();
    if (running_) schedule_next();
  });
}

}  // namespace amoeba::workload
