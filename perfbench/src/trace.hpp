// Span tracing from the benchmark's side of each layer boundary.
//
// Nothing in the monitor is instrumented.  Instead the traced run
//  * re-registers a timing wrapper over every in-memory service the
//    Testbed registered (InMemTransport::register_service replaces), so
//    each emulator report, child dump and delta publish becomes a span;
//  * spans each Gmetad::poll_once the round makes, and links every service
//    span to the poll that caused it (polls run one node at a time, so the
//    poll in progress is the cause);
//  * spans the three freshness reads.
// Spans stay in memory and are written out once, at exit, as a Chrome
// trace-event file.
//
// The stage replay re-runs one poll's stages on inputs captured in the
// traced run -- parse, summarise, archive, fragment priming, publish --
// through the same public calls the poll path makes, timing each stage.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gmetad/testbed.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  round,          ///< one whole round of the tree (trace root)
  poll,           ///< Gmetad::poll_once of one node
  gmon_report,    ///< PseudoGmond::service() / federation_service()
  gmetad_dump,    ///< child Gmetad::dump_service()
  fed_publish,    ///< child Gmetad::federation_service()
  interactive,    ///< Gmetad::interactive_service()
  read_dump,      ///< root dump_xml()
  read_summary,   ///< Gateway::route("/api/v1/?filter=summary")
  read_query,     ///< Gateway::route("/api/v1/query?...")
};
inline constexpr std::size_t kSpanKinds = 9;
const char* span_kind_name(SpanKind kind);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< causing span (0 = none)
  std::uint64_t trace = 0;   ///< round the span belongs to
  SpanKind kind = SpanKind::round;
  std::uint32_t subject = 0; ///< interned node/cluster name
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t bytes = 0;
};

std::int64_t now_ns();

class Tracer {
 public:
  /// Name -> small id.  Not thread-safe: intern every name before service
  /// calls can record spans (wrap_services does).
  std::uint32_t intern(const std::string& name);
  const std::string& name(std::uint32_t subject) const { return names_.at(subject); }

  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(const Span& span);

  /// The poll in progress, which causes every service call made now:
  /// its span id and the polling node's interned name.
  void set_cause(std::uint64_t span, std::uint32_t node) {
    cause_node_.store(node);
    cause_.store(span);
  }
  std::uint64_t cause() const { return cause_.load(); }
  std::uint32_t cause_node() const { return cause_node_.load(); }
  void set_trace(std::uint64_t trace) { trace_.store(trace); }
  std::uint64_t trace() const { return trace_.load(); }

  /// Spans recorded so far (call once tracing has stopped).
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON of every span.
  bool write(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> cause_{0};
  std::atomic<std::uint32_t> cause_node_{0};
  std::atomic<std::uint64_t> trace_{0};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Bytes one source served to one poller in one round, kept for the replay.
struct Capture {
  std::mutex mutex;
  bool enabled = false;
  /// (polling node, source) -> served XML.
  std::map<std::pair<std::string, std::string>, std::string> xml;
};

/// Wrap every service the testbed registered.  XML bodies served to a
/// poll are copied into `capture` while capture->enabled is set.
void wrap_services(ganglia::gmetad::Testbed& testbed, Tracer& tracer,
                   Capture* capture);

/// One traced round: what Testbed::run_round() does, with a round span and
/// a span around each node's poll_once.
void traced_round(ganglia::gmetad::Testbed& testbed, Tracer& tracer);

/// Total length of the union of [start, end) intervals.
std::int64_t union_ns(std::vector<std::pair<std::int64_t, std::int64_t>> spans);

/// Per-node poll self time: each poll span minus the part of its interval
/// that the service spans it caused cover.  node name -> ns summed.
std::map<std::string, std::int64_t> poll_self_ns(const Tracer& tracer,
                                                 std::uint64_t first_trace);

// -- stage replay ----------------------------------------------------------

/// One captured round: for every (polling node, source) the XML the source
/// served, and the clock second the round ran at.
struct CapturedRound {
  std::int64_t now = 0;
  std::map<std::pair<std::string, std::string>, std::string> xml;
};

struct ReplayTimes {
  std::size_t rounds = 0;       ///< rounds timed (the first warms archives)
  double parse_ns = 0;
  double parsed_bytes = 0;
  double summarize_ns = 0;
  double archive_ns = 0;
  double prime_ns = 0;
  double publish_ns = 0;
};

/// Replay the poll stages of every captured round in order, per node, into
/// fresh archivers and stores.  Round 0 only warms the archives.
ReplayTimes replay_stages(const ganglia::gmetad::TestbedSpec& spec,
                          const std::vector<CapturedRound>& rounds);

}  // namespace perfbench
