// Paper-style results table: one row per concurrency level, one column per
// algorithm, printed aligned to stdout and optionally written as JSON (the
// series scripts/plot_figures.py and scripts/bench_compare.py consume).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "harness/stats.hpp"

namespace ssq::harness {

class table {
 public:
  // One cell: its text and, when it summarises samples, their quartiles.
  struct cell {
    cell(std::string s) : text(std::move(s)) {}
    cell(const char *s) : text(s) {}
    // The median as text, and [q1, q3] as the cell's spread.
    cell(const summary &s, int precision = 1)
        : text(fmt(s.median, precision)), q1(fmt(s.q1, precision)),
          q3(fmt(s.q3, precision)) {}

    std::string text;
    std::string q1, q3; // empty: no spread
  };

  explicit table(std::vector<std::string> columns);

  void add_row(std::vector<cell> cells);

  // Provenance attached to the JSON header (build mode, git revision, ...).
  // Insertion-ordered; setting an existing key overwrites its value.
  void set_meta(const std::string &key, const std::string &value);

  // Aligned plain-text rendering of the cells' text.
  void print() const;

  // JSON object {"meta": {...}, "columns": [...], "rows": [{col: cell, ...,
  // "spread": {col: [q1, q3], ...}}, ...]} ("meta" omitted when empty;
  // scripts/bench_compare.py keys on it to refuse apples-to-oranges
  // comparisons; "spread" omitted in a row with no summarised cell). Cells
  // that parse as plain numbers are emitted unquoted so downstream tooling
  // reads the series without coercion. Returns false on I/O failure.
  bool write_json(const std::string &path) const;

  static std::string fmt(double v, int precision = 1);

 private:
  std::vector<std::string> cols_;
  std::vector<std::vector<cell>> rows_;
  std::vector<std::pair<std::string, std::string>> meta_;
};

} // namespace ssq::harness
