// Tests may touch the disk: the ban covers src/ only.
#pragma once

#include <filesystem>

inline bool temp_dir_exists() {
  return std::filesystem::exists(std::filesystem::temp_directory_path());
}
