#include "harness/table.hpp"

#include <cstdio>
#include <cstdlib>

#include "support/config.hpp"

namespace ssq::harness {

table::table(std::vector<std::string> columns) : cols_(std::move(columns)) {}

void table::add_row(std::vector<cell> cells) {
  SSQ_ASSERT(cells.size() == cols_.size(), "row width mismatch");
  rows_.push_back(std::move(cells));
}

void table::set_meta(const std::string &key, const std::string &value) {
  for (auto &kv : meta_) {
    if (kv.first == key) {
      kv.second = value;
      return;
    }
  }
  meta_.emplace_back(key, value);
}

std::string table::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

void table::print() const {
  std::vector<std::size_t> w(cols_.size());
  for (std::size_t c = 0; c < cols_.size(); ++c) w[c] = cols_[c].size();
  for (const auto &r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c)
      if (r[c].text.size() > w[c]) w[c] = r[c].text.size();

  auto line = [&](const std::vector<cell> &cells) {
    for (std::size_t c = 0; c < cells.size(); ++c)
      std::printf("%s%*s", c ? "  " : "", static_cast<int>(w[c]),
                  cells[c].text.c_str());
    std::printf("\n");
  };
  line({cols_.begin(), cols_.end()});
  std::size_t total = 0;
  for (std::size_t c = 0; c < cols_.size(); ++c) total += w[c] + (c ? 2 : 0);
  for (std::size_t i = 0; i < total; ++i) std::printf("-");
  std::printf("\n");
  for (const auto &r : rows_) line(r);
}

namespace {

bool is_plain_number(const std::string &s) {
  if (s.empty()) return false;
  char *end = nullptr;
  (void)std::strtod(s.c_str(), &end);
  return end && *end == '\0';
}

void json_string(FILE *f, const std::string &s) {
  std::fputc('"', f);
  for (char ch : s) {
    if (ch == '"' || ch == '\\') std::fputc('\\', f);
    std::fputc(ch, f);
  }
  std::fputc('"', f);
}

} // namespace

bool table::write_json(const std::string &path) const {
  FILE *f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\n");
  if (!meta_.empty()) {
    std::fprintf(f, "  \"meta\": {");
    for (std::size_t i = 0; i < meta_.size(); ++i) {
      if (i) std::fprintf(f, ", ");
      json_string(f, meta_[i].first);
      std::fprintf(f, ": ");
      json_string(f, meta_[i].second);
    }
    std::fprintf(f, "},\n");
  }
  std::fprintf(f, "  \"columns\": [");
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    if (c) std::fprintf(f, ", ");
    json_string(f, cols_[c]);
  }
  std::fprintf(f, "],\n  \"rows\": [");
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const auto &row = rows_[r];
    std::fprintf(f, "%s\n    {", r ? "," : "");
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) std::fprintf(f, ", ");
      json_string(f, cols_[c]);
      std::fprintf(f, ": ");
      if (is_plain_number(row[c].text))
        std::fprintf(f, "%s", row[c].text.c_str());
      else
        json_string(f, row[c].text);
    }
    bool spread = false;
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (row[c].q1.empty()) continue;
      std::fputs(spread ? ", " : ", \"spread\": {", f);
      spread = true;
      json_string(f, cols_[c]);
      std::fprintf(f, ": [%s, %s]", row[c].q1.c_str(), row[c].q3.c_str());
    }
    std::fputs(spread ? "}}" : "}", f);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  return true;
}

} // namespace ssq::harness
