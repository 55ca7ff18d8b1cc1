// Command-line helper shared by every flag parser: the library's
// (--jobs, the observability export flags) and the bench binaries'.
#pragma once

#include <string>
#include <string_view>

#include "common/assert.hpp"

namespace amoeba {

/// The value of the value-taking flag at argv[i], i.e. argv[i + 1]. A flag
/// given as the last argument, or followed by another "--flag", is a usage
/// error: otherwise it would be silently dropped, or take that flag as its
/// value (`--trace-out --metrics-out m.jsonl` would write a file named
/// "--metrics-out").
[[nodiscard]] inline std::string flag_value(int argc, char** argv, int i) {
  const bool present =
      i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--";
  AMOEBA_EXPECTS_MSG(present, std::string(argv[i]) + " expects a value");
  return present ? std::string(argv[i + 1]) : std::string();
}

}  // namespace amoeba
