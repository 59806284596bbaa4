#include "obs/emit.hpp"

#include <cstdio>

namespace adv::obs {
namespace {

using Sample = MetricsRegistry::Sample;

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

bool write_file(const std::filesystem::path& path, const std::string& text) {
  std::FILE* f = std::fopen(path.string().c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "obs: cannot write %s\n", path.string().c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

std::string samples_to_json(const std::vector<Sample>& samples) {
  std::string out = "{\n  \"unit\": \"ns\",\n  \"metrics\": [\n";
  bool first = true;
  for (const Sample& s : samples) {
    if (!first) out += ",\n";
    first = false;
    out += "    {\"key\": \"" + escape(s.key) + "\", ";
    switch (s.kind) {
      case Sample::Kind::Counter:
        out += "\"kind\": \"counter\", \"value\": " + std::to_string(s.value);
        break;
      case Sample::Kind::Gauge:
        out += "\"kind\": \"gauge\", \"value\": " + fmt_double(s.gauge_value);
        break;
      case Sample::Kind::Timer:
        out += "\"kind\": \"timer\", \"count\": " + std::to_string(s.count) +
               ", \"total_ns\": " + std::to_string(s.total_ns) +
               ", \"min_ns\": " + std::to_string(s.min_ns) +
               ", \"max_ns\": " + std::to_string(s.max_ns) + ", \"mean_ns\": " +
               fmt_double(s.count ? static_cast<double>(s.total_ns) /
                                        static_cast<double>(s.count)
                                  : 0.0);
        break;
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string to_json(const MetricsRegistry& registry, std::string_view prefix) {
  return samples_to_json(registry.snapshot(prefix));
}

bool write_json(const std::filesystem::path& path,
                const MetricsRegistry& registry, std::string_view prefix) {
  return write_file(path, to_json(registry, prefix));
}

bool write_json(const std::filesystem::path& path, std::string_view prefix) {
  return write_json(path, MetricsRegistry::global(), prefix);
}

}  // namespace adv::obs
