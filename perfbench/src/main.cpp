// perfbench: one workload run of the freshness-and-cost benchmark.
//
//   perfbench --workload <fig2_xml|fig2_delta> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-file <path>]
//
// Prints one line per metric, then, as the last line of standard output,
// one JSON object: {"correct", "attempted", "failed", "metrics"}.  Exits
// non-zero without that line when the run cannot produce its metrics.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common/strings.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>]\n",
               why);
  return 2;
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const std::string_view value = argv[++i];
    const auto number = ganglia::parse_u64(value);
    if (flag == "--workload") {
      config.workload = std::string(value);
      have_workload = true;
    } else if (flag == "--trace-file") {
      config.trace_file = std::string(value);
    } else if (flag == "--seconds") {
      const auto seconds = ganglia::parse_double(value);
      if (!seconds || !(*seconds > 0)) return usage("bad --seconds");
      config.seconds = *seconds;
    } else if (!number) {
      return usage("flag value must be a whole number");
    } else if (flag == "--seed") {
      config.seed = *number;
    } else if (flag == "--trace") {
      if (*number > 1) return usage("--trace is 0 or 1");
      config.trace = *number == 1;
    } else {
      return usage("unknown flag");
    }
  }
  if (!have_workload) return usage("--workload is required");

  const perfbench::RunResult result = perfbench::run_workload(config);
  if (!result.error.empty()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", config.workload.c_str(),
                 result.error.c_str());
    return 1;
  }

  std::printf("# %s seed=%llu seconds=%g trace=%d\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (const std::string& note : result.notes) std::printf("# %s\n", note.c_str());
  std::string json = ganglia::strprintf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      result.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    if (!perfbench::valid_metric_name(m.name) || !std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: bad metric %s\n", m.name.c_str());
      return 1;
    }
    std::printf("%-32s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    json += ganglia::strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                               i == 0 ? "" : ", ", m.name.c_str(), m.value,
                               json_escape(m.unit).c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
