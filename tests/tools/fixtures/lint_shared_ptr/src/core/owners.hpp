// Seeded violations for the shared-ownership ban: a std::shared_ptr member
// and a std::make_shared call are findings (this comment is not); an
// escaped line and a std::unique_ptr are clean.
#pragma once

#include <memory>

namespace fixture::core {

struct Record {
  int id = 0;
};

struct Holder {
  std::shared_ptr<Record> shared;
  std::unique_ptr<Record> owned;
};

inline Holder make_holder() {
  Holder h;
  h.shared = std::make_shared<Record>();
  h.owned = std::make_unique<Record>();
  return h;
}

inline auto escaped() {
  return std::make_shared<Record>();  // lint: allow — fixture escape
}

}  // namespace fixture::core
