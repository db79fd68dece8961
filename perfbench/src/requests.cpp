#include "requests.hpp"

#include <map>

#include "common/strings.hpp"
#include "gmon/metrics.hpp"
#include "json_lite.hpp"
#include "oracle.hpp"
#include "xml/ganglia.hpp"

namespace perfbench {

using ganglia::strprintf;

RootView root_view(const ganglia::gmetad::TestbedSpec& spec) {
  RootView view;
  view.hosts_per_cluster = spec.hosts_per_cluster;
  std::map<std::string, const ganglia::gmetad::TestbedNodeSpec*> nodes;
  for (const auto& node : spec.nodes) nodes.emplace(node.name, &node);
  const auto subtree_clusters = [&](const auto& self,
                                    const std::string& name) -> std::uint64_t {
    const auto* node = nodes.at(name);
    std::uint64_t n = node->cluster_names.size();
    for (const std::string& child : node->children) n += self(self, child);
    return n;
  };
  const auto& root = spec.nodes.front();
  for (const std::string& cluster : root.cluster_names) {
    view.sources.emplace_back(cluster, spec.hosts_per_cluster);
    view.local_clusters.push_back(cluster);
  }
  for (const std::string& child : root.children) {
    view.sources.emplace_back(
        child, subtree_clusters(subtree_clusters, child) * spec.hosts_per_cluster);
  }
  view.total_hosts =
      subtree_clusters(subtree_clusters, root.name) * spec.hosts_per_cluster;
  return view;
}

std::string adhoc_query(std::uint64_t draw) {
  ganglia::Rng rng(draw);
  std::vector<std::string_view> numeric;
  for (const auto& def : ganglia::gmon::standard_metrics()) {
    if (ganglia::metric_type_is_numeric(def.type)) numeric.push_back(def.name);
  }
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(static_cast<std::uint32_t>(n)));
  };
  static constexpr std::string_view kGroups[] = {"host", "cluster", "source",
                                                 "none"};
  static constexpr std::string_view kAggs[] = {"sum", "avg", "min", "max",
                                               "count"};
  static constexpr std::string_view kOps[] = {"%3C", "%3C%3D", "%3E", "%3E%3D"};
  std::string q = "/api/v1/query?metric=" + std::string(numeric[pick(numeric.size())]);
  q += "&group=" + std::string(kGroups[pick(4)]);
  q += "&agg=" + std::string(kAggs[pick(5)]);
  switch (pick(3)) {
    case 0: q += strprintf("&top=%zu", 1 + pick(50)); break;
    case 1: q += strprintf("&limit=%zu&order=key", 1 + pick(50)); break;
    default: break;
  }
  if (pick(3) == 0) q += pick(2) == 0 ? "&up=1" : "&from=/root-alpha";
  // A quarter of the plans read RRD history; where= applies to live plans
  // only, so the others may carry a condition.
  if (pick(4) == 0) {
    q += strprintf("&last=%zu&cf=max", 60 + 15 * pick(240));
  } else if (pick(2) == 0) {
    q += "&where=" + std::string(numeric[pick(numeric.size())]) +
         std::string(kOps[pick(4)]) + std::to_string(pick(1000));
  }
  return q;
}

ReadMix::ReadMix(RootView view, std::uint64_t seed)
    : view_(std::move(view)), rng_(seed) {}

std::size_t ReadMix::pick(std::size_t n) {
  return static_cast<std::size_t>(
      rng_.next_below(static_cast<std::uint32_t>(n)));
}

ReadRequest ReadMix::next() {
  ReadRequest r;
  const std::size_t roll = pick(100);
  if (roll < 65) {
    r.cls = ReadClass::dashboard;
    const std::size_t which = pick(2 + view_.sources.size());
    if (which == 0) {
      r.kind = ReplyKind::json_tree;
      r.target = "/api/v1/?filter=summary";
      r.hosts = view_.total_hosts;
    } else if (which == 1) {
      r.kind = ReplyKind::html_meta;
      r.target = "/ui/meta";
    } else {
      const auto& [source, hosts] = view_.sources[which - 2];
      r.kind = ReplyKind::json_source;
      r.target = "/api/v1/" + source + "?filter=summary";
      r.subject = source;
      r.hosts = hosts;
    }
  } else if (roll < 90) {
    r.cls = ReadClass::adhoc;
    r.kind = ReplyKind::json_query;
    r.target = adhoc_query(rng_.next_u64());
  } else {
    r.cls = ReadClass::drilldown;
    r.subject = view_.local_clusters[pick(view_.local_clusters.size())];
    r.hosts = view_.hosts_per_cluster;
    switch (pick(3)) {
      case 0:
        r.kind = ReplyKind::xml_host;
        r.host = "compute-0-" +
                 std::to_string(pick(view_.hosts_per_cluster)) + ".local";
        r.target = "/xml/" + r.subject + "/" + r.host;
        break;
      case 1:
        r.kind = ReplyKind::xml_summary;
        r.target = "/xml/" + r.subject + "?filter=summary";
        break;
      default:
        r.kind = ReplyKind::xml_cluster;
        r.target = "/xml/" + r.subject;
        break;
    }
  }
  return r;
}

namespace {

const ganglia::Cluster* find_cluster(const ganglia::Report& report,
                                     std::string_view name) {
  for (const ganglia::Grid& grid : report.grids) {
    for (const ganglia::Cluster& cluster : grid.clusters) {
      if (cluster.name == name) return &cluster;
    }
  }
  return nullptr;
}

}  // namespace

std::optional<std::string> check_reply(const ReadRequest& request, int status,
                                       std::string_view body) {
  if (status != 200) return strprintf("status %d", status);
  switch (request.kind) {
    case ReplyKind::json_tree: {
      const auto doc = json::parse(body);
      const auto fold = doc ? fold_json_tree(*doc) : std::nullopt;
      if (!fold) return std::string("not a JSON summary tree");
      if (fold->hosts_up + fold->hosts_down != request.hosts) {
        return std::string("tree summary counts the wrong hosts");
      }
      return std::nullopt;
    }
    case ReplyKind::json_source: {
      const auto doc = json::parse(body);
      const auto fold = doc ? fold_json_tree(*doc) : std::nullopt;
      if (!fold) return std::string("not a JSON summary tree");
      if (fold->hosts_up + fold->hosts_down != request.hosts) {
        return "summary of " + request.subject + " counts the wrong hosts";
      }
      return std::nullopt;
    }
    case ReplyKind::html_meta:
      if (!body.starts_with("<!DOCTYPE html>") ||
          !ganglia::trim(body).ends_with("</html>") ||
          body.find("meta view") == std::string_view::npos) {
        return std::string("not the meta view page");
      }
      return std::nullopt;
    case ReplyKind::json_query: {
      const auto doc = json::parse(body);
      const json::Value* query = doc ? doc->get("QUERY") : nullptr;
      const json::Value* rows = query ? query->get("ROWS") : nullptr;
      if (rows == nullptr || rows->kind != json::Value::Kind::array ||
          query->get("PLAN") == nullptr) {
        return std::string("not a QUERY result");
      }
      return std::nullopt;
    }
    case ReplyKind::xml_host:
    case ReplyKind::xml_summary:
    case ReplyKind::xml_cluster: {
      auto report = ganglia::parse_report(body);
      if (!report.ok()) return "XML does not parse: " + report.error().to_string();
      const ganglia::Cluster* cluster = find_cluster(*report, request.subject);
      if (cluster == nullptr) return "no cluster " + request.subject;
      if (request.kind == ReplyKind::xml_host) {
        const auto it = cluster->hosts.find(request.host);
        if (cluster->hosts.size() != 1 || it == cluster->hosts.end() ||
            it->second.metrics.empty()) {
          return "host " + request.host + " missing";
        }
      } else if (request.kind == ReplyKind::xml_summary) {
        const auto summary = cluster->summarize();
        if (!cluster->is_summary_form() ||
            summary.hosts_up + summary.hosts_down != request.hosts) {
          return "summary of " + request.subject + " is wrong";
        }
      } else if (cluster->hosts.size() != request.hosts) {
        return "cluster " + request.subject + " has the wrong host count";
      }
      return std::nullopt;
    }
  }
  return std::string("unknown reply kind");
}

}  // namespace perfbench
