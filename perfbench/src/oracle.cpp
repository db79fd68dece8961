#include "oracle.hpp"

#include <charconv>
#include <cmath>

#include "common/strings.hpp"

namespace perfbench {

using ganglia::Cluster;
using ganglia::SummaryInfo;

void Fold::merge(const Fold& other) {
  hosts_up += other.hosts_up;
  hosts_down += other.hosts_down;
  for (const auto& [name, m] : other.metrics) {
    MetricFold& mine = metrics[name];
    mine.sum += m.sum;
    mine.num += m.num;
  }
}

Fold fold_served(const Cluster& cluster) {
  Fold out;
  for (const auto& [name, host] : cluster.hosts) {
    if (!host.is_up()) {
      ++out.hosts_down;
      continue;
    }
    ++out.hosts_up;
    for (const ganglia::Metric& metric : host.metrics) {
      if (!metric.is_numeric()) continue;
      double value = 0.0;
      const std::string& text = metric.value;
      if (std::from_chars(text.data(), text.data() + text.size(), value).ec !=
          std::errc{}) {
        continue;  // unparsable text never reaches a summary either
      }
      MetricFold& m = out.metrics[metric.name];
      m.sum += value;
      ++m.num;
    }
  }
  return out;
}

Fold fold_summary(const SummaryInfo& summary) {
  Fold out;
  out.hosts_up = summary.hosts_up;
  out.hosts_down = summary.hosts_down;
  for (const auto& [name, m] : summary.metrics) {
    out.metrics[name] = MetricFold{m.sum, m.num};
  }
  return out;
}

Model build_model(ganglia::gmetad::Testbed& testbed) {
  Model model;
  const auto& nodes = testbed.spec().nodes;
  for (const auto& node : nodes) {
    for (const std::string& name : node.cluster_names) {
      const Fold fold = fold_served(testbed.cluster(name).snapshot());
      model.total.merge(fold);
      if (&node == &nodes.front()) model.root_local.merge(fold);
    }
  }
  return model;
}

Fold store_fold(const ganglia::gmetad::Gmetad& root) {
  SummaryInfo total;
  for (const auto& snapshot : root.store().all()) {
    total.merge(snapshot->summary());
  }
  return fold_summary(total);
}

std::optional<std::string> compare(const Fold& expected, const Fold& got) {
  if (expected.hosts_up != got.hosts_up ||
      expected.hosts_down != got.hosts_down) {
    return ganglia::strprintf(
        "hosts up/down %llu/%llu, expected %llu/%llu",
        static_cast<unsigned long long>(got.hosts_up),
        static_cast<unsigned long long>(got.hosts_down),
        static_cast<unsigned long long>(expected.hosts_up),
        static_cast<unsigned long long>(expected.hosts_down));
  }
  if (expected.metrics.size() != got.metrics.size()) {
    return ganglia::strprintf("%zu metrics, expected %zu", got.metrics.size(),
                              expected.metrics.size());
  }
  for (const auto& [name, want] : expected.metrics) {
    const auto it = got.metrics.find(name);
    if (it == got.metrics.end()) return "metric " + name + " missing";
    const MetricFold& have = it->second;
    const double tol = kSumRelTol * std::max(1.0, std::fabs(want.sum));
    if (have.num != want.num || !(std::fabs(have.sum - want.sum) <= tol)) {
      return ganglia::strprintf("metric %s sum %.17g num %llu, expected %.17g num %llu",
                                name.c_str(), have.sum,
                                static_cast<unsigned long long>(have.num),
                                want.sum,
                                static_cast<unsigned long long>(want.num));
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_dump(std::string_view xml, const Model& model) {
  auto report = ganglia::parse_report(xml);
  if (!report.ok()) return "dump does not parse: " + report.error().to_string();
  if (report->grids.size() != 1) return std::string("dump has no root grid");
  if (auto bad = compare(model.total,
                         fold_summary(report->grids.front().summarize()))) {
    return "dump: " + *bad;
  }
  return std::nullopt;
}

namespace {

std::optional<Fold> fold_json_summary(const json::Value& summary) {
  const json::Value* up = summary.get("hosts_up");
  const json::Value* down = summary.get("hosts_down");
  const json::Value* metrics = summary.get("metrics");
  if (up == nullptr || down == nullptr || metrics == nullptr ||
      up->kind != json::Value::Kind::number ||
      down->kind != json::Value::Kind::number ||
      metrics->kind != json::Value::Kind::object) {
    return std::nullopt;
  }
  Fold out;
  out.hosts_up = static_cast<std::uint64_t>(up->number);
  out.hosts_down = static_cast<std::uint64_t>(down->number);
  for (const auto& [name, m] : metrics->object) {
    const json::Value* sum = m.get("sum");
    const json::Value* num = m.get("num");
    if (sum == nullptr || num == nullptr ||
        sum->kind != json::Value::Kind::number ||
        num->kind != json::Value::Kind::number) {
      return std::nullopt;
    }
    out.metrics[name] =
        MetricFold{sum->number, static_cast<std::uint64_t>(num->number)};
  }
  return out;
}

// Summary-form children of one grid object (clusters and nested grids).
bool fold_json_children(const json::Value& grid, Fold& out) {
  for (const char* key : {"clusters", "grids"}) {
    const json::Value* list = grid.get(key);
    if (list == nullptr || list->kind != json::Value::Kind::array) return false;
    for (const json::Value& child : list->array) {
      const json::Value* summary = child.get("summary");
      if (summary == nullptr) return false;
      auto fold = fold_json_summary(*summary);
      if (!fold) return false;
      out.merge(*fold);
    }
  }
  return true;
}

}  // namespace

std::optional<Fold> fold_json_tree(const json::Value& doc) {
  const json::Value* grids = doc.get("grids");
  if (grids == nullptr || grids->kind != json::Value::Kind::array ||
      grids->array.size() != 1) {
    return std::nullopt;
  }
  Fold out;
  if (!fold_json_children(grids->array.front(), out)) return std::nullopt;
  return out;
}

std::optional<std::string> check_api_summary(int status, std::string_view body,
                                             const Model& model) {
  if (status != 200) return ganglia::strprintf("summary read status %d", status);
  const auto doc = json::parse(body);
  if (!doc) return std::string("summary read is not JSON");
  const auto fold = fold_json_tree(*doc);
  if (!fold) return std::string("summary read has no summary tree");
  if (auto bad = compare(model.total, *fold)) return "summary read: " + *bad;
  return std::nullopt;
}

std::optional<std::string> check_api_query(int status, std::string_view body,
                                           const Model& model) {
  if (status != 200) return ganglia::strprintf("query read status %d", status);
  const auto doc = json::parse(body);
  if (!doc) return std::string("query read is not JSON");
  const json::Value* query = doc->get("QUERY");
  const json::Value* columns = query ? query->get("COLUMNS") : nullptr;
  const json::Value* rows = query ? query->get("ROWS") : nullptr;
  if (columns == nullptr || rows == nullptr ||
      columns->kind != json::Value::Kind::array ||
      rows->kind != json::Value::Kind::array || rows->array.size() != 1) {
    return std::string("query read has no single-row result");
  }
  std::size_t value_col = columns->array.size();
  for (std::size_t i = 0; i < columns->array.size(); ++i) {
    if (columns->array[i].string == "VALUE") value_col = i;
  }
  const json::Value& row = rows->array.front();
  if (value_col >= row.array.size() ||
      row.array[value_col].kind != json::Value::Kind::number) {
    return std::string("query read row has no VALUE");
  }
  const auto it = model.root_local.metrics.find("load_one");
  const double want = it == model.root_local.metrics.end() ? 0.0 : it->second.sum;
  const double have = row.array[value_col].number;
  if (!(std::fabs(have - want) <= kSumRelTol * std::max(1.0, std::fabs(want)))) {
    return ganglia::strprintf("query read load_one sum %.17g, expected %.17g",
                              have, want);
  }
  return std::nullopt;
}

}  // namespace perfbench
