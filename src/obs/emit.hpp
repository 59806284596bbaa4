// JSON emission of MetricsRegistry snapshots, following the repo's
// BENCH_*.json convention (bench/micro_benchmarks writes BENCH_gemm.json
// the same way: a small object with a header field and an array of
// records, one line each).
#pragma once

#include <filesystem>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace adv::obs {

/// Serializes the metrics whose key starts with `prefix` (empty = all) as
///   {"unit": "ns", "metrics": [ {"key": ..., "kind": "counter"|"gauge"|
///    "timer", ...}, ... ]}
/// Counters carry "value"; gauges carry "value" (double); timers carry
/// "count", "total_ns", "min_ns", "max_ns", "mean_ns".
/// Metric keys are JSON-escaped (quotes, backslashes, control characters
/// — keys may embed attack tags or filesystem paths) and emitted in the
/// registry's stable order (counters, gauges, timers; each sorted by
/// key), so dumps of equivalent registries diff cleanly.
std::string to_json(const MetricsRegistry& registry,
                    std::string_view prefix = {});

/// Serializes an explicit sample list in the same format as to_json, in
/// the order given.
std::string samples_to_json(
    const std::vector<MetricsRegistry::Sample>& samples);

/// Writes to_json(registry, prefix) to `path`. Returns false (and prints
/// to stderr) if the file cannot be written.
bool write_json(const std::filesystem::path& path,
                const MetricsRegistry& registry, std::string_view prefix = {});

/// Global-registry convenience.
bool write_json(const std::filesystem::path& path,
                std::string_view prefix = {});

}  // namespace adv::obs
