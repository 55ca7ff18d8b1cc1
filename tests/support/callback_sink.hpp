// Completion callbacks for FairShareResource streams in tests.
//
// The resource reports a drained stream to a sim::StreamSink by key. Tests
// that want a lambda per stream open it through a CallbackSink, which keeps
// each callback in a reused table under the stream's key and calls it when
// the stream completes.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/fair_share.hpp"

namespace amoeba::sim::testing {

/// Must outlive the streams it opened (the resource's sink rule). A closed
/// stream's callback stays in the table until the sink is destroyed.
class CallbackSink final : public StreamSink {
 public:
  /// Open a stream on `resource` (a FairShareResource, or any resource
  /// with its open signature) that calls `on_complete` when it drains.
  template <typename Resource>
  StreamId open(Resource& resource, double work, double cap,
                std::function<void()> on_complete,
                StreamTag tag = kUntagged) {
    std::uint32_t key = 0;
    if (free_keys_.empty()) {
      key = static_cast<std::uint32_t>(callbacks_.size());
      callbacks_.push_back(std::move(on_complete));
    } else {
      key = free_keys_.back();
      free_keys_.pop_back();
      callbacks_[key] = std::move(on_complete);
    }
    return resource.open(work, cap, *this, key, tag);
  }

  void stream_done(std::uint32_t key) override {
    // Out of the table first: the callback may open streams that take
    // this key or grow the table.
    std::function<void()> fn = std::move(callbacks_[key]);
    callbacks_[key] = nullptr;
    free_keys_.push_back(key);
    fn();
  }

 private:
  std::vector<std::function<void()>> callbacks_;
  std::vector<std::uint32_t> free_keys_;
};

}  // namespace amoeba::sim::testing
