// Seeded violation for the on-disk-state ban: an #include <filesystem> is a
// finding; this comment naming <filesystem>, a commented-out include and
// <fstream> are clean.
#pragma once

#include <filesystem>
#include <fstream>
// #include <filesystem>

namespace fixture::exp {

inline bool exists(const char* path) { return std::filesystem::exists(path); }

}  // namespace fixture::exp
