// ssq-lint driver.
//
//   ssq-lint [options] <file>...
//
//   --expect=FILE   compare diagnostics against FILE (one `name:line:check`
//                   per line, `#` comments); exit 0 iff they match exactly.
//                   This is how the ctest fixtures assert behavior.
//   --check=NAME    report only diagnostics of check NAME (all checks still
//                   run; the filter applies to the output and exit status).
//
// Output format: path:line: [check] message
#include "lint.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Expected {
  std::string file;
  int line;
  std::string check;
  bool operator<(const Expected &o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    return check < o.check;
  }
  bool operator==(const Expected &o) const {
    return file == o.file && line == o.line && check == o.check;
  }
};

std::string basename_of(const std::string &path) {
  auto pos = path.find_last_of('/');
  return pos == std::string::npos ? path : path.substr(pos + 1);
}

bool read_file(const std::string &path, std::string &out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

std::vector<Expected> parse_expect(const std::string &text) {
  std::vector<Expected> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    auto last = line.find_last_not_of(" \t\r");
    line = line.substr(first, last - first + 1);
    auto c1 = line.find(':');
    auto c2 = line.find(':', c1 == std::string::npos ? c1 : c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) {
      std::fprintf(stderr, "ssq-lint: bad expect line: %s\n", line.c_str());
      continue;
    }
    Expected e;
    e.file = line.substr(0, c1);
    e.line = std::atoi(line.substr(c1 + 1, c2 - c1 - 1).c_str());
    e.check = line.substr(c2 + 1);
    out.push_back(e);
  }
  return out;
}

} // namespace

int main(int argc, char **argv) {
  std::string expect_path;
  std::string check_filter;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--expect=", 0) == 0) {
      expect_path = a.substr(9);
    } else if (a.rfind("--check=", 0) == 0) {
      check_filter = a.substr(8);
    } else if (a == "--help" || a == "-h") {
      std::fprintf(stderr,
                   "usage: ssq-lint [--expect=FILE] [--check=NAME] <file>...\n");
      return 2;
    } else {
      files.push_back(a);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "ssq-lint: no input files\n");
    return 2;
  }

  std::vector<ssqlint::Diagnostic> diags;
  for (const std::string &f : files) {
    std::string src;
    if (!read_file(f, src)) {
      std::fprintf(stderr, "ssq-lint: cannot read %s\n", f.c_str());
      return 2;
    }
    ssqlint::FileModel model = ssqlint::build_model(f, src);
    auto d = ssqlint::run_checks(model);
    diags.insert(diags.end(), d.begin(), d.end());
  }
  if (!check_filter.empty())
    diags.erase(std::remove_if(diags.begin(), diags.end(),
                               [&](const ssqlint::Diagnostic &d) {
                                 return d.check != check_filter;
                               }),
                diags.end());
  std::sort(diags.begin(), diags.end());

  if (!expect_path.empty()) {
    std::string etext;
    if (!read_file(expect_path, etext)) {
      std::fprintf(stderr, "ssq-lint: cannot read %s\n", expect_path.c_str());
      return 2;
    }
    std::vector<Expected> want = parse_expect(etext);
    std::sort(want.begin(), want.end());
    std::vector<Expected> got;
    for (const auto &d : diags)
      got.push_back({basename_of(d.file), d.line, d.check});
    std::sort(got.begin(), got.end());
    bool ok = true;
    for (const auto &w : want)
      if (std::find(got.begin(), got.end(), w) == got.end()) {
        std::fprintf(stderr, "MISSING   %s:%d:%s\n", w.file.c_str(), w.line,
                     w.check.c_str());
        ok = false;
      }
    for (const auto &g : got)
      if (std::find(want.begin(), want.end(), g) == want.end()) {
        std::fprintf(stderr, "UNEXPECTED %s:%d:%s\n", g.file.c_str(), g.line,
                     g.check.c_str());
        ok = false;
      }
    if (!ok) {
      for (const auto &d : diags)
        std::fprintf(stderr, "%s:%d: [%s] %s\n", d.file.c_str(), d.line,
                     d.check.c_str(), d.message.c_str());
      return 1;
    }
    std::printf("ssq-lint: %zu expected diagnostic(s) matched\n", want.size());
    return 0;
  }

  for (const auto &d : diags)
    std::printf("%s:%d: [%s] %s\n", d.file.c_str(), d.line, d.check.c_str(),
                d.message.c_str());
  if (diags.empty()) std::printf("ssq-lint: clean\n");
  return diags.empty() ? 0 : 1;
}
