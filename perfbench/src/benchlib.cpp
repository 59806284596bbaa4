#include "benchlib.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

namespace perfbench {

// --- percentiles ---------------------------------------------------------

std::size_t samples_beyond(std::size_t n, double pct) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
  return n - std::clamp<std::size_t>(rank, 1, n);
}

std::optional<double> supported_percentile(std::vector<double> samples,
                                           double pct,
                                           std::size_t min_beyond) {
  const std::size_t n = samples.size();
  if (n == 0 || samples_beyond(n, pct) < min_beyond) return std::nullopt;
  const std::size_t idx = n - samples_beyond(n, pct) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

namespace {

double median(std::vector<double> v) {
  std::nth_element(v.begin(),
                   v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2),
                   v.end());
  return v[v.size() / 2];
}

}  // namespace

std::optional<double> windowed_percentile(const std::vector<double>& samples,
                                          double pct, std::size_t windows,
                                          std::size_t min_beyond) {
  if (windows == 0 || samples.size() < windows) return std::nullopt;
  const std::size_t per = samples.size() / windows;
  std::vector<double> values;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(w * per);
    const auto end = w + 1 == windows
                         ? samples.end()
                         : begin + static_cast<std::ptrdiff_t>(per);
    const auto v = supported_percentile({begin, end}, pct, min_beyond);
    if (!v) return std::nullopt;
    values.push_back(*v);
  }
  return median(std::move(values));
}

double windowed_rate(const std::vector<double>& done_s, double t0, double t1,
                     std::size_t windows) {
  const double width = (t1 - t0) / static_cast<double>(windows);
  std::vector<double> counts(windows, 0.0);
  for (const double t : done_s) {
    if (t < t0 || t >= t1) continue;
    const auto w = static_cast<std::size_t>((t - t0) / width);
    counts[std::min(w, windows - 1)] += 1.0;
  }
  return median(std::move(counts)) / width;
}

// --- open-loop schedules -------------------------------------------------

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<Arrival> poisson_schedule(std::uint64_t seed, std::uint64_t stream,
                                      double rate_per_s, double duration_s,
                                      std::size_t pool_size) {
  std::vector<Arrival> out;
  if (rate_per_s <= 0.0 || pool_size == 0) return out;
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull ^ (stream + 1) * 0xD6E8FEB86659FD93ull;
  const auto uniform = [&state] {
    // 53 random bits -> (0, 1]; never 0, so log() stays finite.
    return (static_cast<double>(splitmix64(state) >> 11) + 1.0) * 0x1.0p-53;
  };
  std::vector<std::uint32_t> round(pool_size);
  double t = 0.0;
  for (std::size_t n = 0;; ++n) {
    t += -std::log(uniform()) / rate_per_s;
    if (t >= duration_s) break;
    const std::size_t slot = n % pool_size;
    if (slot == 0) {  // deal a new round: Fisher-Yates over the pool
      for (std::size_t i = 0; i < pool_size; ++i) {
        round[i] = static_cast<std::uint32_t>(i);
      }
      for (std::size_t i = pool_size - 1; i > 0; --i) {
        std::swap(round[i], round[splitmix64(state) % (i + 1)]);
      }
    }
    out.push_back({t, round[slot]});
  }
  return out;
}

// --- the max_rps rule ----------------------------------------------------

std::vector<double> geometric_ladder(double lo, double ratio,
                                     std::size_t rungs) {
  std::vector<double> out(rungs);
  for (std::size_t k = 0; k < rungs; ++k) {
    out[k] = lo * std::pow(ratio, static_cast<double>(k));
  }
  return out;
}

double lateness_growth_ms(const std::vector<double>& lateness_ms) {
  const std::size_t n = lateness_ms.size();
  if (n < 8) return 0.0;
  const auto q = static_cast<std::ptrdiff_t>(n / 4);
  double m[4];
  for (std::ptrdiff_t k = 0; k < 4; ++k) {
    const auto begin = lateness_ms.begin() + k * q;
    m[k] = median({begin, k == 3 ? lateness_ms.end() : begin + q});
  }
  const bool rising = m[0] <= m[1] && m[1] <= m[2] && m[2] <= m[3];
  return rising ? m[3] - m[0] : 0.0;
}

StepVerdict judge_step(const StepSamples& s, double pct, double limit_ms,
                       double growth_tol_ms) {
  StepVerdict v;
  v.latency_ms = supported_percentile(s.latency_ms, pct);
  v.lateness_growth_ms = lateness_growth_ms(s.lateness_ms);
  if (s.failed > 0) {
    v.reason = std::to_string(s.failed) + " failed";
  } else if (!v.latency_ms) {
    v.reason = "too few samples";
  } else if (*v.latency_ms > limit_ms) {
    v.reason = "latency over limit";
  } else if (v.lateness_growth_ms > growth_tol_ms) {
    v.reason = "generator lateness grew";
  }
  v.pass = v.reason.empty();
  return v;
}

std::optional<std::size_t> bisect_ladder(
    std::size_t rungs, const std::function<bool(std::size_t)>& probe) {
  // Invariant: every rung < lo passes (as far as probed), every rung >= hi
  // fails; the answer is lo - 1.
  std::size_t lo = 0, hi = rungs;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (probe(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return std::nullopt;
  return lo - 1;
}

// --- span tracer ---------------------------------------------------------

namespace {

const Clock::time_point& epoch() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

thread_local std::uint64_t t_current = 0;

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - epoch()).count();
}

Tracer& Tracer::global() {
  static Tracer t;
  return t;
}

std::uint64_t Tracer::next_id() {
  std::lock_guard lock(mu_);
  return ++next_id_;
}

void Tracer::close(SpanRecord rec) {
  std::lock_guard lock(mu_);
  spans_.push_back(std::move(rec));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

Span::Span(const char* name, std::uint64_t request,
           std::optional<std::uint64_t> parent) {
  Tracer& tr = Tracer::global();
  if (!tr.enabled()) return;
  active_ = true;
  rec_.name = name;
  rec_.request = request;
  rec_.parent = parent ? *parent : t_current;
  rec_.id = tr.next_id();
  saved_current_ = t_current;
  t_current = rec_.id;
  rec_.start_s = now_s();
}

Span::~Span() {
  if (!active_) return;
  rec_.end_s = now_s();
  t_current = saved_current_;
  Tracer::global().close(std::move(rec_));
}

double union_measure(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0, cur_a = 0.0, cur_b = 0.0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (!open || a > cur_b) {
      if (open) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (open) total += cur_b - cur_a;
  return total;
}

std::vector<double> self_times(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_s, s.end_s);
  }
  std::vector<double> out;
  out.reserve(spans.size());
  for (const auto& s : spans) {
    const double dur = s.end_s - s.start_s;
    const auto it = children.find(s.id);
    out.push_back(it == children.end()
                      ? dur
                      : dur - union_measure(it->second, s.start_s, s.end_s));
  }
  return out;
}

std::vector<std::pair<std::string, double>> self_time_by_layer(
    const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string& n = spans[i].name;
    by_layer[n.substr(0, n.find('.'))] += self[i];
  }
  return {by_layer.begin(), by_layer.end()};
}

std::string spans_json(const std::vector<SpanRecord>& spans) {
  std::string out = "[\n";
  char buf[160];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out += "  {\"name\": \"";
    append_escaped(out, s.name);
    std::snprintf(buf, sizeof(buf),
                  "\", \"start_s\": %.9f, \"end_s\": %.9f, \"id\": %llu, "
                  "\"parent\": %llu, \"request\": %llu}",
                  s.start_s, s.end_s, static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request));
    out += buf;
    out += i + 1 < spans.size() ? ",\n" : "\n";
  }
  out += "]\n";
  return out;
}

}  // namespace perfbench
