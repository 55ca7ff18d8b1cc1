// Plain-text table output for the figure and table benches.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/assert.hpp"

namespace amoeba::exp {

/// Fixed-width ASCII table, printed like the rows of a paper table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  void print(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t cols() const noexcept { return headers_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formatting helpers.
[[nodiscard]] std::string fmt_fixed(double x, int precision = 3);
[[nodiscard]] std::string fmt_percent(double fraction, int precision = 1);

/// Standard bench banner: experiment id + the Table II cluster description.
void print_banner(std::ostream& os, const std::string& experiment,
                  const std::string& what);

}  // namespace amoeba::exp
