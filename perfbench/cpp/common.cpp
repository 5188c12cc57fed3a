#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>


namespace perfbench {

std::string Json::number(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

std::string Json::quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Json::object(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += quote(fields[i].first) + ": " + fields[i].second;
  }
  return out + "}";
}

std::string Json::array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + "]";
}

std::string json_numbers(const std::vector<double>& values) {
  std::vector<std::string> items;
  for (const double v : values) items.push_back(Json::number(v));
  return Json::array(items);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

std::uint64_t parameter_hash(const std::vector<gddr::nn::Parameter*>& params) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const gddr::nn::Parameter* p : params) {
    for (const float f : p->value.data()) {
      unsigned char bytes[sizeof(float)];
      std::memcpy(bytes, &f, sizeof(float));
      for (const unsigned char b : bytes) {
        h ^= b;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

}  // namespace perfbench
