// A global allocation counter for the allocation-count tests.
//
// counting_new.cpp replaces the global `operator new` family for the whole
// executable it is linked into, so it lives in its own test binary
// (amoeba_alloc_tests), never in amoeba_tests.
#pragma once

#include <cstdint>

namespace amoeba::testing {

/// Heap allocations made through any `operator new` since program start.
[[nodiscard]] std::uint64_t allocations() noexcept;

}  // namespace amoeba::testing
