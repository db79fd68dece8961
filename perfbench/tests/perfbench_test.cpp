// Self-tests for the benchmark's own code: the oracle, the percentile rule,
// metric names, and a tiny-size smoke run of every workload.
#include <gtest/gtest.h>

#include <cmath>
#include <regex>
#include <set>

#include "oracle.hpp"
#include "requests.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

ganglia::gmetad::Testbed small_tree(bool federation) {
  auto spec = ganglia::gmetad::fig2_spec(6, ganglia::gmetad::Mode::n_level);
  spec.soft_state = true;
  spec.federation = federation;
  return ganglia::gmetad::Testbed(spec);
}

TEST(Oracle, RootMatchesTheModelAfterEachRound) {
  for (const bool federation : {false, true}) {
    auto testbed = small_tree(federation);
    testbed.cluster("meteor").set_down_hosts(2);
    for (int round = 0; round < 3; ++round) {
      testbed.run_round();
      const Model model = build_model(testbed);
      EXPECT_EQ(model.total.hosts_down, 2u);
      EXPECT_EQ(compare(model.total, store_fold(testbed.node("root"))),
                std::nullopt)
          << "federation=" << federation << " round " << round;
      EXPECT_EQ(check_dump(testbed.node("root").dump_xml(), model), std::nullopt);
    }
  }
}

TEST(Oracle, RejectsPerturbedFolds) {
  auto testbed = small_tree(false);
  testbed.run_round();
  const Model model = build_model(testbed);
  const Fold root = store_fold(testbed.node("root"));
  ASSERT_EQ(compare(model.total, root), std::nullopt);

  Fold value = root;
  value.metrics.at("load_one").sum += 0.01;  // one served value off by 0.01
  EXPECT_NE(compare(model.total, value), std::nullopt);

  Fold host = root;
  host.hosts_up -= 1;
  host.hosts_down += 1;
  EXPECT_NE(compare(model.total, host), std::nullopt);

  Fold count = root;
  count.metrics.at("cpu_num").num += 1;
  EXPECT_NE(compare(model.total, count), std::nullopt);

  Fold missing = root;
  missing.metrics.erase("mem_free");
  EXPECT_NE(compare(model.total, missing), std::nullopt);

  // A root one round behind the leaves is stale, not equal.
  testbed.clock().advance_seconds(15);
  EXPECT_NE(compare(build_model(testbed).total, root), std::nullopt);
}

TEST(Oracle, ModelFoldsServedTextNotTypedValues) {
  auto testbed = small_tree(false);
  testbed.run_round();
  const ganglia::Cluster cluster = testbed.cluster("math-alpha").snapshot();
  double typed = 0;
  for (const auto& [name, host] : cluster.hosts) {
    typed += host.find_metric("load_one")->numeric;
  }
  const Fold fold = fold_served(cluster);
  // The emulator keeps unrounded doubles; the wire carries %.2f text.
  EXPECT_NE(fold.metrics.at("load_one").sum, typed);
}

TEST(Stats, PercentileNeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_needed(50), 20u);
  EXPECT_EQ(samples_needed(90), 100u);
  EXPECT_EQ(samples_needed(99), 1000u);
  EXPECT_FALSE(percentile_supported(90, 99));
  EXPECT_TRUE(percentile_supported(90, 100));
  EXPECT_FALSE(percentile_supported(99, 999));
  EXPECT_TRUE(percentile_supported(99, 1000));
  EXPECT_FALSE(percentile_supported(50, 19));

  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  EXPECT_EQ(percentile(values, 90), 90.0);  // exactly 10 samples beyond
  EXPECT_EQ(percentile(values, 50), 50.0);
  EXPECT_EQ(percentile(values, 99), std::nullopt);
  values.pop_back();
  EXPECT_EQ(percentile(values, 90), std::nullopt);
}

TEST(Requests, AdhocPlansAreValidAndMostlyDistinct) {
  auto testbed = small_tree(false);
  testbed.run_rounds(2);
  ReadMix mix(root_view(testbed.spec()), 7);
  std::set<std::string> adhoc;
  std::size_t counts[kReadClasses] = {};
  for (int i = 0; i < 4000; ++i) {
    const ReadRequest r = mix.next();
    ++counts[static_cast<std::size_t>(r.cls)];
    if (r.cls == ReadClass::adhoc) adhoc.insert(r.target);
  }
  EXPECT_NEAR(counts[0] / 4000.0, 0.65, 0.03);
  EXPECT_NEAR(counts[1] / 4000.0, 0.25, 0.03);
  EXPECT_NEAR(counts[2] / 4000.0, 0.10, 0.03);
  // Far more distinct plans than the 512-entry response cache holds.
  EXPECT_GT(adhoc.size(), 0.95 * static_cast<double>(counts[1]));
  EXPECT_GT(adhoc.size(), 512u);
}

void expect_clean_run(const std::string& workload, bool trace) {
  RunConfig config;
  config.workload = workload;
  config.seed = 11;
  config.seconds = 2.5;
  config.trace = trace;
  config.hosts_per_cluster = 5;
  config.setups = 2;
  const RunResult result = run_workload(config);
  ASSERT_EQ(result.error, "") << workload;
  EXPECT_GT(result.attempted, 100u);
  EXPECT_EQ(result.failed, 0u) << workload << " failed_frac must be 0";
  EXPECT_FALSE(result.metrics.empty());
  const std::regex name_rule("[A-Za-z0-9_.-]+");
  for (const Metric& m : result.metrics) {
    EXPECT_TRUE(std::regex_match(m.name, name_rule)) << m.name;
    EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
    EXPECT_TRUE(std::isfinite(m.value)) << m.name;
  }
}

TEST(Smoke, EveryWorkloadRunsCleanAtTinySize) {
  for (const std::string& workload : workload_names()) {
    expect_clean_run(workload, /*trace=*/false);
  }
}

TEST(Smoke, EveryWorkloadTracesCleanAtTinySize) {
  for (const std::string& workload : workload_names()) {
    expect_clean_run(workload, /*trace=*/true);
  }
}

TEST(MetricNames, RuleRejectsOtherCharacters) {
  EXPECT_TRUE(valid_metric_name("gmetad.poll_self_ms.root"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("serve p99"));
  EXPECT_FALSE(valid_metric_name("cpu/round"));
}

}  // namespace
}  // namespace perfbench
