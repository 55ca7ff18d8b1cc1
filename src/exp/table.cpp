#include "exp/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <utility>

namespace amoeba::exp {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  AMOEBA_EXPECTS(!headers_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  AMOEBA_EXPECTS_MSG(cells.size() == headers_.size(),
                     "row width must match header width");
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    os << "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << ' ' << std::left << std::setw(static_cast<int>(widths[c]))
         << cells[c] << " |";
    }
    os << '\n';
  };
  auto print_rule = [&] {
    os << "+";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      os << std::string(widths[c] + 2, '-') << '+';
    }
    os << '\n';
  };
  print_rule();
  print_row(headers_);
  print_rule();
  for (const auto& row : rows_) print_row(row);
  print_rule();
}

std::string fmt_fixed(double x, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << x;
  return os.str();
}

std::string fmt_percent(double fraction, int precision) {
  return fmt_fixed(fraction * 100.0, precision) + "%";
}

void print_banner(std::ostream& os, const std::string& experiment,
                  const std::string& what) {
  os << "==============================================================\n"
     << " " << experiment << " — " << what << "\n"
     << " cluster: 40-core node, 32 GB container pool, NVMe 2 GB/s,\n"
     << "          25 GbE; cold start ~1 s; containers 256 MB (Table II)\n"
     << "==============================================================\n";
}

}  // namespace amoeba::exp
