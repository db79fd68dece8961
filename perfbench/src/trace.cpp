#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "gmetad/archiver.hpp"
#include "gmetad/render/fragments.hpp"

namespace perfbench {

using ganglia::gmetad::Testbed;

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::round: return "round";
    case SpanKind::poll: return "gmetad.poll_once";
    case SpanKind::gmon_report: return "gmon.report";
    case SpanKind::gmetad_dump: return "gmetad.dump";
    case SpanKind::fed_publish: return "fed.publish";
    case SpanKind::interactive: return "gmetad.interactive";
    case SpanKind::read_dump: return "render.dump";
    case SpanKind::read_summary: return "http.api_summary";
    case SpanKind::read_query: return "query.api_query";
  }
  return "?";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t Tracer::intern(const std::string& name) {
  const auto [it, fresh] =
      ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (fresh) names_.push_back(name);
  return it->second;
}

void Tracer::record(const Span& span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(span);
}

bool Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"traceEvents\":[", out);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"bytes\":%llu}}",
                 i == 0 ? "" : ",", span_kind_name(s.kind),
                 names_.at(s.subject).c_str(),
                 static_cast<unsigned long long>(s.trace),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.bytes));
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

namespace {

ganglia::net::ServiceFn traced(Tracer& tracer, SpanKind kind,
                               const std::string& subject,
                               ganglia::net::ServiceFn inner, Capture* capture) {
  const std::uint32_t id = tracer.intern(subject);
  return [&tracer, kind, id, inner = std::move(inner),
          capture](std::string_view request) -> ganglia::Result<std::string> {
    Span span;
    span.id = tracer.next_id();
    span.parent = tracer.cause();
    span.trace = tracer.trace();
    span.kind = kind;
    span.subject = id;
    const std::uint32_t poller = tracer.cause_node();
    span.start_ns = now_ns();
    auto reply = inner(request);
    span.end_ns = now_ns();
    span.bytes = reply.ok() ? reply->size() : 0;
    tracer.record(span);
    if (capture != nullptr && reply.ok() && span.parent != 0) {
      std::lock_guard lock(capture->mutex);
      if (capture->enabled) {
        capture->xml[{tracer.name(poller), tracer.name(id)}] = *reply;
      }
    }
    return reply;
  };
}

}  // namespace

void wrap_services(Testbed& testbed, Tracer& tracer, Capture* capture) {
  auto& fabric = testbed.transport();
  const auto& spec = testbed.spec();
  for (const auto& node : spec.nodes) {
    for (const std::string& cluster : node.cluster_names) {
      auto& emulator = testbed.cluster(cluster);
      fabric.register_service(
          Testbed::gmond_address(cluster),
          traced(tracer, SpanKind::gmon_report, cluster, emulator.service(),
                 capture));
      if (spec.federation) {
        fabric.register_service(
            Testbed::gmond_federation_address(cluster),
            traced(tracer, SpanKind::gmon_report, cluster,
                   emulator.federation_service(), nullptr));
      }
    }
  }
  for (const auto& node : spec.nodes) {
    auto& gmetad = testbed.node(node.name);
    fabric.register_service(
        Testbed::dump_address(node.name),
        traced(tracer, SpanKind::gmetad_dump, node.name, gmetad.dump_service(),
               capture));
    fabric.register_service(
        Testbed::interactive_address(node.name),
        traced(tracer, SpanKind::interactive, node.name,
               gmetad.interactive_service(), nullptr));
    if (spec.federation) {
      fabric.register_service(
          Testbed::federation_address(node.name),
          traced(tracer, SpanKind::fed_publish, node.name,
                 gmetad.federation_service(), nullptr));
    }
  }
}

void traced_round(Testbed& testbed, Tracer& tracer) {
  Span round;
  round.id = tracer.next_id();
  round.trace = round.id;
  round.kind = SpanKind::round;
  round.subject = tracer.intern(testbed.spec().nodes.front().name);
  tracer.set_trace(round.id);
  round.start_ns = now_ns();
  testbed.clock().advance_seconds(
      static_cast<double>(testbed.spec().poll_interval_s));
  for (const std::string& name : testbed.poll_order()) {
    Span poll;
    poll.id = tracer.next_id();
    poll.parent = round.id;
    poll.trace = round.id;
    poll.kind = SpanKind::poll;
    poll.subject = tracer.intern(name);
    tracer.set_cause(poll.id, poll.subject);
    poll.start_ns = now_ns();
    testbed.node(name).poll_once();
    poll.end_ns = now_ns();
    tracer.set_cause(0, 0);
    tracer.record(poll);
  }
  round.end_ns = now_ns();
  tracer.record(round);
}

std::int64_t union_ns(std::vector<std::pair<std::int64_t, std::int64_t>> spans) {
  std::sort(spans.begin(), spans.end());
  std::int64_t total = 0;
  std::int64_t covered_to = std::numeric_limits<std::int64_t>::min();
  for (const auto& [start, end] : spans) {
    const std::int64_t from = std::max(start, covered_to);
    if (end > from) total += end - from;
    covered_to = std::max(covered_to, end);
  }
  return total;
}

std::map<std::string, std::int64_t> poll_self_ns(const Tracer& tracer,
                                                 std::uint64_t first_trace) {
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : tracer.spans()) {
    if (s.trace >= first_trace && s.parent != 0 && s.kind != SpanKind::poll &&
        s.kind != SpanKind::round) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, std::int64_t> self;
  for (const Span& s : tracer.spans()) {
    if (s.kind != SpanKind::poll || s.trace < first_trace) continue;
    std::int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      // Clip to the poll's own interval before taking the union.
      for (auto& [start, end] : it->second) {
        start = std::max(start, s.start_ns);
        end = std::min(end, s.end_ns);
      }
      covered = union_ns(std::move(it->second));
    }
    self[tracer.name(s.subject)] += (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

ReplayTimes replay_stages(const ganglia::gmetad::TestbedSpec& spec,
                          const std::vector<CapturedRound>& rounds) {
  using ganglia::gmetad::Archiver;
  using ganglia::gmetad::ArchiverOptions;
  using ganglia::gmetad::SourceSnapshot;
  using ganglia::gmetad::Store;
  struct NodeState {
    std::unique_ptr<Archiver> archiver;
    Store store;
  };
  std::map<std::string, NodeState> nodes;
  for (const auto& node : spec.nodes) {
    nodes[node.name].archiver = std::make_unique<Archiver>(ArchiverOptions{
        spec.poll_interval_s, spec.poll_interval_s * 8, "", 0});
  }
  const bool n_level = spec.mode == ganglia::gmetad::Mode::n_level;

  ReplayTimes out;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const bool timed = r > 0;
    const std::int64_t now = rounds[r].now;
    const auto add = [&](double& slot, std::int64_t from, std::int64_t to) {
      if (timed) slot += static_cast<double>(to - from);
    };
    for (const auto& [key, xml] : rounds[r].xml) {
      const auto& [node_name, source] = key;
      NodeState& node = nodes.at(node_name);
      const std::int64_t t0 = now_ns();
      auto report = ganglia::parse_report(xml);
      const std::int64_t t1 = now_ns();
      if (!report.ok()) continue;
      add(out.parse_ns, t0, t1);
      if (timed) out.parsed_bytes += static_cast<double>(xml.size());

      // Summarise: N-level reduces remote grids to summary form, then the
      // snapshot computes its reductions eagerly.
      if (n_level) {
        for (ganglia::Grid& grid : report->grids) {
          if (!grid.is_summary_form()) {
            grid.summary = grid.summarize();
            grid.clusters.clear();
            grid.grids.clear();
          }
        }
      }
      auto snapshot = std::make_shared<SourceSnapshot>(
          source, std::move(*report), now, /*eager_summary=*/n_level);
      const std::int64_t t2 = now_ns();
      add(out.summarize_ns, t1, t2);

      if (spec.archive_enabled && n_level) {
        node.archiver->record_summary(source, snapshot->summary(), now);
        for (const ganglia::Cluster& cluster : snapshot->clusters()) {
          node.archiver->record_cluster(source, cluster, now);
          node.archiver->record_summary(source + "/" + cluster.name,
                                        snapshot->cluster_summary(cluster), now);
        }
      }
      const std::int64_t t3 = now_ns();
      add(out.archive_ns, t2, t3);

      ganglia::gmetad::render::prime_fragments(*snapshot, spec.mode);
      const std::int64_t t4 = now_ns();
      add(out.prime_ns, t3, t4);

      node.store.publish(std::move(snapshot));
      add(out.publish_ns, t4, now_ns());
    }
    // Round epilogue of every node: the grid's own summary archive.
    if (spec.archive_enabled && n_level) {
      for (auto& [name, node] : nodes) {
        const std::int64_t t0 = now_ns();
        ganglia::SummaryInfo total;
        for (const auto& snapshot : node.store.all()) {
          total.merge(snapshot->summary());
        }
        node.archiver->record_summary(name, total, now);
        add(out.archive_ns, t0, now_ns());
      }
    }
    if (timed) ++out.rounds;
  }
  return out;
}

}  // namespace perfbench
