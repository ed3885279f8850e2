#include "harness/options.hpp"

#include <cstdlib>
#include <string_view>

namespace ssq::harness {

options options::parse(int argc, char **argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    if (a.substr(0, 2) != "--") continue;
    a.remove_prefix(2);
    const auto eq = a.find('=');
    o.kv_[std::string(a.substr(0, eq))] =
        eq == a.npos ? "1" : std::string(a.substr(eq + 1)); // "1": bare flag
  }
  return o;
}

bool options::has(const std::string &key) const { return kv_.count(key) != 0; }

std::string options::get(const std::string &key,
                         const std::string &dflt) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? dflt : it->second;
}

std::int64_t options::get_int(const std::string &key,
                              std::int64_t dflt) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? dflt : std::strtoll(it->second.c_str(), nullptr, 10);
}

double options::get_double(const std::string &key, double dflt) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? dflt : std::strtod(it->second.c_str(), nullptr);
}

std::vector<int> options::get_int_list(const std::string &key,
                                       std::vector<int> dflt) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return dflt;
  std::vector<int> out;
  const char *p = it->second.c_str();
  while (*p) {
    char *end;
    long v = std::strtol(p, &end, 10);
    if (end == p) break;
    out.push_back(static_cast<int>(v));
    p = (*end == ',') ? end + 1 : end;
  }
  return out.empty() ? dflt : out;
}

} // namespace ssq::harness
