// The serve workload's read mix, generated from the seed.
//
//   dashboard  65%  /api/v1/?filter=summary, /ui/meta,
//                   /api/v1/<source>?filter=summary
//   adhoc      25%  /api/v1/query plans drawn from a space far larger than
//                   the gateway's 512-entry response cache
//   drilldown  10%  /xml/<cluster>/<host>, /xml/<cluster>?filter=summary,
//                   /xml/<cluster>
//
// Each request carries what its reply must look like, so every reply is
// checked (check_reply) without consulting the monitor.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "gmetad/testbed.hpp"

namespace perfbench {

enum class ReadClass : std::uint8_t { dashboard, adhoc, drilldown };
inline constexpr std::size_t kReadClasses = 3;

enum class ReplyKind : std::uint8_t {
  json_tree,     ///< /api/v1/?filter=summary
  json_source,   ///< /api/v1/<source>?filter=summary
  html_meta,     ///< /ui/meta
  json_query,    ///< /api/v1/query
  xml_host,      ///< /xml/<cluster>/<host>
  xml_summary,   ///< /xml/<cluster>?filter=summary
  xml_cluster,   ///< /xml/<cluster>
};

struct ReadRequest {
  ReadClass cls = ReadClass::dashboard;
  ReplyKind kind = ReplyKind::json_tree;
  std::string target;
  std::string subject;          ///< source or cluster the reply must carry
  std::string host;             ///< xml_host only
  std::uint64_t hosts = 0;      ///< hosts the subject must count (up + down)
};

/// What the root serves: its sources, their host counts, and the clusters
/// it holds at full detail.
struct RootView {
  std::vector<std::pair<std::string, std::uint64_t>> sources;
  std::vector<std::string> local_clusters;
  std::uint64_t hosts_per_cluster = 0;
  std::uint64_t total_hosts = 0;
};
RootView root_view(const ganglia::gmetad::TestbedSpec& spec);

/// An endless request stream in the fixed class mix, deterministic in
/// its seed (each client draws from its own stream).
class ReadMix {
 public:
  ReadMix(RootView view, std::uint64_t seed);
  ReadRequest next();

 private:
  std::size_t pick(std::size_t n);

  RootView view_;
  ganglia::Rng rng_;
};

/// One ad hoc /api/v1/query target (a valid plan: it never draws a 400/422).
std::string adhoc_query(std::uint64_t draw);

/// nullopt when a 200 reply's body is the document `request` expects.
std::optional<std::string> check_reply(const ReadRequest& request, int status,
                                       std::string_view body);

}  // namespace perfbench
