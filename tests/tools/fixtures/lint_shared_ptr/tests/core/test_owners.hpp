// Tests may share ownership: the ban covers src/ only.
#pragma once

#include <memory>

inline std::shared_ptr<int> shared_in_a_test() {
  return std::make_shared<int>(1);
}
