#include "workloads.hpp"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "common/strings.hpp"
#include "gmetad/testbed.hpp"
#include "http/gateway.hpp"
#include "http_test_util.hpp"
#include "net/tcp.hpp"
#include "oracle.hpp"
#include "requests.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using ganglia::gmetad::Gmetad;
using ganglia::gmetad::Testbed;
using ganglia::gmetad::TestbedSpec;
using SteadyClock = std::chrono::steady_clock;

/// Closed-loop read clients (dashboards and parents waiting on replies).
constexpr std::size_t kClients = 2;
/// Write cadence: one round of the whole tree after every 150 replies,
/// about one round every 400 ms on a 4-vCPU VM.
constexpr std::uint64_t kRepliesPerRound = 150;
/// Rounds whose inputs the traced run keeps for the stage replay: the
/// first warms the replay's archives, the rest are timed.
constexpr std::size_t kCaptureRounds = 5;
/// Rounds each half of a traced run needs for a supported median.
constexpr std::size_t kTracedHalfRounds = 20;
constexpr std::size_t kMaxLoggedFailures = 5;

struct Workload {
  std::string_view name;
  bool federation;  ///< delta federation on every edge
};

constexpr Workload kWorkloads[] = {
    {"fig2_xml", false},
    {"fig2_delta", true},
};

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// The core the serve side (the read clients and the gateway's threads)
/// runs on: the last one this process may use, or -1 when unknown.  On one
/// core a request's hand-offs between client, reactor and worker are
/// context switches; spread over idle vCPUs of a shared VM each is a
/// wake-up whose latency varied several-fold between runs.
int serve_core() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &set)) return cpu;
  }
  return -1;
}

/// Run the calling thread on `cpu` only (no-op for -1).
void pin_to(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

using ganglia::http::testutil::ClientResponse;

/// One closed-loop keep-alive connection to the root's gateway: the next
/// request goes out only after the previous reply was read in full.  It
/// dials again after an error or a reply that carries Connection: close
/// (the server's per-connection request budget).
class Client {
 public:
  Client(ganglia::net::Transport& transport, std::string address)
      : transport_(transport), address_(std::move(address)) {}

  ganglia::Status connect() {
    auto stream = transport_.connect(address_, 10 * ganglia::kMicrosPerSecond);
    if (!stream.ok()) return stream.error();
    stream_ = std::move(*stream);
    return {};
  }

  ganglia::Result<ClientResponse> get(const std::string& target) {
    if (!stream_) {
      if (auto st = connect(); !st.ok()) return st.error();
    }
    const std::string request =
        "GET " + target + " HTTP/1.1\r\nHost: perfbench\r\n\r\n";
    auto reply = [&]() -> ganglia::Result<ClientResponse> {
      if (auto st = stream_->write_all(request); !st.ok()) return st.error();
      return ganglia::http::testutil::read_response(*stream_);
    }();
    if (!reply.ok() || ganglia::iequals(reply->header("Connection"), "close")) {
      stream_.reset();
    }
    return reply;
  }

 private:
  ganglia::net::Transport& transport_;
  std::string address_;
  std::unique_ptr<ganglia::net::Stream> stream_;
};

/// Failure counter shared by the writer and the reader threads; the first
/// few are described on stderr.
class Failures {
 public:
  void add(const std::string& what) {
    std::lock_guard lock(mutex_);
    if (++count_ <= kMaxLoggedFailures) {
      std::fprintf(stderr, "perfbench: failed: %s\n", what.c_str());
    }
  }
  std::uint64_t count() const {
    std::lock_guard lock(mutex_);
    return count_;
  }

 private:
  mutable std::mutex mutex_;
  std::uint64_t count_ = 0;
};

/// Turn-taking between the closed-loop readers and the writer: the readers
/// send `replies_per_round` requests, then wait while the writer runs one
/// round, then send the next batch.  This way the response cache sees the
/// same number of reads between publishes at any machine speed, and reads
/// never share the cores with a round (on a few shared cores that would
/// measure the scheduler, not the gateway).  Each side is woken only when
/// its turn comes, not on every reply.
class Turns {
 public:
  explicit Turns(std::uint64_t replies_per_round) : quota_(replies_per_round) {}

  /// Reader: wait for a request slot in the current batch; false once
  /// stopped.
  bool begin_read() {
    std::unique_lock lock(mutex_);
    readers_cv_.wait(lock, [&] { return stopped_ || granted_ < quota_; });
    if (stopped_) return false;
    ++granted_;
    ++in_flight_;
    return true;
  }
  void end_read() {
    std::lock_guard lock(mutex_);
    if (--in_flight_ == 0 && granted_ == quota_) writer_cv_.notify_one();
  }

  /// Writer: wait until the batch's replies are all in.  The wall time
  /// from here to end_write() is write time, not read time.
  void begin_write() {
    std::unique_lock lock(mutex_);
    writer_cv_.wait(lock, [&] { return granted_ == quota_ && in_flight_ == 0; });
    write_start_ = SteadyClock::now();
  }
  void end_write() {
    std::lock_guard lock(mutex_);
    write_seconds_ += seconds_since(write_start_);
    granted_ = 0;
    readers_cv_.notify_all();
  }

  void stop() {
    std::lock_guard lock(mutex_);
    stopped_ = true;
    readers_cv_.notify_all();
  }
  double write_seconds() const {
    std::lock_guard lock(mutex_);
    return write_seconds_;
  }

 private:
  const std::uint64_t quota_;
  mutable std::mutex mutex_;
  std::condition_variable readers_cv_;
  std::condition_variable writer_cv_;
  std::uint64_t granted_ = 0;
  std::uint64_t in_flight_ = 0;
  bool stopped_ = false;
  SteadyClock::time_point write_start_;
  double write_seconds_ = 0;
};

/// One set-up: the tree warmed to steady state, the root's gateway served
/// over TCP loopback, and the read clients connected.  Members are
/// destroyed clients first, tree last.
struct Bed {
  int serve_cpu = serve_core();
  ganglia::net::TcpTransport tcp;
  std::unique_ptr<Testbed> testbed;
  std::unique_ptr<ganglia::http::GatewayServer> server;
  std::vector<std::unique_ptr<Client>> clients;

  Gmetad& root() { return testbed->node(testbed->spec().nodes.front().name); }
  ganglia::http::Gateway& gateway() { return server->gateway(); }

  std::uint64_t bytes_polled() {
    std::uint64_t total = 0;
    for (const auto& node : testbed->spec().nodes) {
      total += testbed->node(node.name).bytes_polled();
    }
    return total;
  }
};

TestbedSpec make_spec(const RunConfig& config, const Workload& workload) {
  TestbedSpec spec = ganglia::gmetad::fig2_spec(config.hosts_per_cluster,
                                                ganglia::gmetad::Mode::n_level);
  spec.seed = config.seed;
  spec.soft_state = true;
  spec.archive_enabled = true;
  spec.federation = workload.federation;
  return spec;
}

bool sessions_live(Testbed& testbed) {
  const std::int64_t now = testbed.clock().now_seconds();
  for (const auto& node : testbed.spec().nodes) {
    for (const auto* source : testbed.node(node.name).sources()) {
      if (source->session_mode(now) != "delta") return false;
    }
  }
  return true;
}

/// Build one Bed: construction, warm-up rounds through the first full
/// fetches (and, with federation, until every delta session is live),
/// server start and client connects.
std::string set_up(const RunConfig& config, const Workload& workload, Bed& bed) {
  bed.testbed = std::make_unique<Testbed>(make_spec(config, workload));
  // A few hosts per cluster are down, drawn from the seed, so the oracle's
  // hosts_down check has something to count.
  ganglia::Rng rng(config.seed ^ 0xd0d0d0d0ULL);
  for (const auto& node : bed.testbed->spec().nodes) {
    for (const std::string& cluster : node.cluster_names) {
      bed.testbed->cluster(cluster).set_down_hosts(rng.next_below(4));
    }
  }
  bed.testbed->run_rounds(2);
  if (workload.federation) {
    for (int extra = 0; !sessions_live(*bed.testbed); ++extra) {
      if (extra == 4) return "delta sessions never became live";
      bed.testbed->run_round();
    }
  }
  bed.server = std::make_unique<ganglia::http::GatewayServer>(
      bed.root(), bed.testbed->clock());
  // The gateway's threads inherit the starting thread's core.
  cpu_set_t all;
  pthread_getaffinity_np(pthread_self(), sizeof all, &all);
  pin_to(bed.serve_cpu);
  const auto started = bed.server->start(bed.tcp, "127.0.0.1:0");
  pthread_setaffinity_np(pthread_self(), sizeof all, &all);
  if (!started.ok()) return "gateway start: " + started.error().to_string();
  for (std::size_t i = 0; i < kClients; ++i) {
    auto client = std::make_unique<Client>(bed.tcp, bed.server->address());
    if (auto st = client->connect(); !st.ok()) {
      return "connect: " + st.error().to_string();
    }
    bed.clients.push_back(std::move(client));
  }
  return {};
}

// ------------------------------------------------------------- the writer

/// Trace-side state of a traced writer phase.
struct TraceState {
  Tracer* tracer = nullptr;
  Capture* capture = nullptr;       ///< XML workloads: served bytes
  std::vector<CapturedRound> captured;
  std::map<std::string, std::int64_t> node_cpu_ns;
  double read_ns[3] = {0, 0, 0};    ///< dump, api summary, api query
};

struct WriterStats {
  std::vector<double> fresh_ms;
  std::vector<double> cpu_ms;  ///< process CPU per freshness interval
  std::uint64_t wire_bytes = 0;
  std::size_t rounds = 0;
  double oracle_ms = 0;  ///< time spent checking rounds (outside the samples)
};

template <typename F>
auto read_span(TraceState* trace, SpanKind kind, std::uint32_t subject, int slot,
               F&& read) {
  if (trace == nullptr) return read();
  Span span;
  span.id = trace->tracer->next_id();
  span.trace = trace->tracer->trace();
  span.parent = span.trace;
  span.kind = kind;
  span.subject = subject;
  span.start_ns = now_ns();
  auto result = read();
  span.end_ns = now_ns();
  trace->tracer->record(span);
  trace->read_ns[slot] += static_cast<double>(span.end_ns - span.start_ns);
  return result;
}

/// The XML each source would have served this second, for replaying a
/// delta round (its wire carried row deltas, not XML).
CapturedRound regenerate_inputs(Testbed& testbed) {
  CapturedRound round;
  round.now = testbed.clock().now_seconds();
  for (const auto& node : testbed.spec().nodes) {
    for (const std::string& cluster : node.cluster_names) {
      round.xml[{node.name, cluster}] = testbed.cluster(cluster).report_xml();
    }
    for (const std::string& child : node.children) {
      round.xml[{node.name, child}] = testbed.node(child).dump_xml();
    }
  }
  return round;
}

/// One freshness sample: advance the clock (the leaves' values change),
/// poll the whole tree children-first, then read the root three ways.  The
/// oracle runs afterwards, outside the timed interval.
void fresh_round(Bed& bed, WriterStats& stats, TraceState* trace,
                 Failures& failures) {
  Testbed& testbed = *bed.testbed;
  Gmetad& root = bed.root();
  const auto& nodes = testbed.spec().nodes;
  std::map<std::string, std::int64_t> meter_before;
  if (trace != nullptr) {
    for (const auto& node : nodes) {
      meter_before[node.name] = testbed.node(node.name).cpu_meter().total_ns();
    }
  }
  const bool capturing =
      trace != nullptr && trace->captured.size() < kCaptureRounds;
  if (capturing && trace->capture != nullptr) {
    std::lock_guard lock(trace->capture->mutex);
    trace->capture->enabled = true;
  }
  ganglia::http::Request summary_request;
  summary_request.method = "GET";
  summary_request.target = "/api/v1/?filter=summary";
  ganglia::http::Request query_request;
  query_request.method = "GET";
  query_request.target = std::string(kFreshQueryTarget);
  const std::uint64_t wire_before = bed.bytes_polled();

  const std::int64_t cpu0 = process_cpu_ns();
  const auto t0 = SteadyClock::now();
  if (trace != nullptr) {
    traced_round(testbed, *trace->tracer);
  } else {
    testbed.run_round();
  }
  const std::uint32_t root_id =
      trace != nullptr ? trace->tracer->intern(nodes.front().name) : 0;
  const std::string dump = read_span(trace, SpanKind::read_dump, root_id, 0,
                                     [&] { return root.dump_xml(); });
  const auto summary = read_span(trace, SpanKind::read_summary, root_id, 1, [&] {
    return bed.gateway().route(summary_request);
  });
  const auto query = read_span(trace, SpanKind::read_query, root_id, 2, [&] {
    return bed.gateway().route(query_request);
  });
  const auto t1 = SteadyClock::now();
  const std::int64_t cpu1 = process_cpu_ns();

  stats.fresh_ms.push_back(
      std::chrono::duration<double, std::milli>(t1 - t0).count());
  stats.cpu_ms.push_back(static_cast<double>(cpu1 - cpu0) / 1e6);
  stats.wire_bytes += bed.bytes_polled() - wire_before;
  ++stats.rounds;

  if (trace != nullptr) {
    for (const auto& node : nodes) {
      trace->node_cpu_ns[node.name] +=
          testbed.node(node.name).cpu_meter().total_ns() -
          meter_before[node.name];
    }
    if (capturing) {
      if (trace->capture != nullptr) {
        std::lock_guard lock(trace->capture->mutex);
        trace->capture->enabled = false;
        trace->captured.push_back(
            {testbed.clock().now_seconds(), std::move(trace->capture->xml)});
        trace->capture->xml.clear();
      } else {
        trace->captured.push_back(regenerate_inputs(testbed));
      }
    }
  }

  const auto oracle_start = SteadyClock::now();
  const Model model = build_model(testbed);
  auto bad = compare(model.total, store_fold(root));
  if (!bad) bad = check_dump(dump, model);
  if (!bad) bad = check_api_summary(summary.status, summary.payload(), model);
  if (!bad) bad = check_api_query(query.status, query.payload(), model);
  stats.oracle_ms += std::chrono::duration<double, std::milli>(
                         SteadyClock::now() - oracle_start)
                         .count();
  if (bad) {
    failures.add(ganglia::strprintf("round at t=%lld: ",
                                    static_cast<long long>(
                                        testbed.clock().now_seconds())) +
                 *bad);
  }
}

/// Run rounds, each after a batch of reads, until `seconds` have passed
/// and at least `min_rounds` ran.  A hard cap of four times the nominal
/// length stops a run whose rounds are too slow to reach min_rounds.
std::string run_writer(Bed& bed, double seconds, std::size_t min_rounds,
                       Turns& turns, TraceState* trace, Failures& failures,
                       WriterStats& stats) {
  const auto start = SteadyClock::now();
  const double cap = 4 * seconds + 10;
  for (std::size_t k = 0; seconds_since(start) < seconds || k < min_rounds;
       ++k) {
    if (seconds_since(start) > cap) {
      return ganglia::strprintf("only %zu rounds in %.0f s; %zu needed", k,
                                cap, min_rounds);
    }
    turns.begin_write();
    fresh_round(bed, stats, trace, failures);
    turns.end_write();
  }
  return {};
}

// ------------------------------------------------------------- the readers

struct ReaderStats {
  std::vector<double> latency_us[kReadClasses];
  std::uint64_t requests = 0;
};

void reader_loop(Client& client, ReadMix mix, Turns& turns, ReaderStats& out,
                 Failures& failures) {
  while (turns.begin_read()) {
    const ReadRequest request = mix.next();
    const auto t0 = SteadyClock::now();
    const auto reply = client.get(request.target);
    const auto t1 = SteadyClock::now();
    turns.end_read();
    ++out.requests;
    const auto bad = reply.ok() ? check_reply(request, reply->status, reply->body)
                                : std::optional(reply.error().to_string());
    if (bad) {
      failures.add(request.target + ": " + *bad);
      continue;
    }
    out.latency_us[static_cast<std::size_t>(request.cls)].push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
}

/// Closed-loop readers, one per client, taking turns with the rounds
/// `body` runs; returns the window's read time in seconds (its length
/// less the rounds' write time).
template <typename Body>
double with_readers(Bed& bed, std::uint64_t seed, Turns& turns, Failures& failures,
                    std::vector<ReaderStats>& stats, Body&& body) {
  const RootView view = root_view(bed.testbed->spec());
  stats.assign(bed.clients.size(), ReaderStats{});
  const auto start = SteadyClock::now();
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < bed.clients.size(); ++i) {
      threads.emplace_back([&, i] {
        pin_to(bed.serve_cpu);
        reader_loop(*bed.clients[i],
                    ReadMix(view, seed * 0x9e3779b97f4a7c15ULL + i + 1), turns,
                    stats[i], failures);
      });
    }
    body();
    turns.stop();
  }  // joins the readers
  return seconds_since(start) - turns.write_seconds();
}

// ------------------------------------------------------------- reporting

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::string error;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// A percentile the sample count must support (end-to-end metrics).
  void add_percentile(std::string name, const std::vector<double>& values,
                      double p, std::string unit) {
    const auto v = percentile(values, p);
    if (!v) {
      error = ganglia::strprintf("%s: %zu samples do not support p%g (%zu needed)",
                                 name.c_str(), values.size(), p, samples_needed(p));
      return;
    }
    add(std::move(name), *v, std::move(unit));
  }
  /// A per-layer percentile: 0 with a note when unsupported.
  void add_layer_percentile(std::string name, const std::vector<double>& values,
                            double p, std::string unit) {
    const auto v = percentile(values, p);
    if (!v) {
      notes.push_back(ganglia::strprintf("%s: %zu samples do not support p%g",
                                         name.c_str(), values.size(), p));
    }
    add(std::move(name), v.value_or(0.0), std::move(unit));
  }
};

std::vector<double> all_latencies(const std::vector<ReaderStats>& readers) {
  std::vector<double> out;
  for (const ReaderStats& r : readers) {
    for (const auto& cls : r.latency_us) out.insert(out.end(), cls.begin(), cls.end());
  }
  return out;
}

std::vector<double> class_latencies(const std::vector<ReaderStats>& readers,
                                    ReadClass cls) {
  std::vector<double> out;
  for (const ReaderStats& r : readers) {
    const auto& v = r.latency_us[static_cast<std::size_t>(cls)];
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

struct DeltaCounters {
  std::uint64_t delta_polls = 0;
  std::uint64_t full_polls = 0;
  std::uint64_t resyncs = 0;
};

DeltaCounters delta_counters(Testbed& testbed) {
  DeltaCounters out;
  for (const auto& node : testbed.spec().nodes) {
    for (const auto* source : testbed.node(node.name).sources()) {
      out.delta_polls += source->delta_polls();
      out.full_polls += source->full_polls();
      out.resyncs += source->delta_resyncs();
    }
  }
  return out;
}

/// Per-layer metrics of the traced writer phase.
void report_layers(Report& report, Testbed& testbed, const Tracer& tracer,
                   TraceState& trace, std::size_t rounds,
                   const DeltaCounters& before, const DeltaCounters& after,
                   bool parse_on_path) {
  const double n = static_cast<double>(std::max<std::size_t>(rounds, 1));
  double ns[kSpanKinds] = {};
  double bytes[kSpanKinds] = {};
  double calls[kSpanKinds] = {};
  for (const Span& s : tracer.spans()) {
    const auto k = static_cast<std::size_t>(s.kind);
    ns[k] += static_cast<double>(s.end_ns - s.start_ns);
    bytes[k] += static_cast<double>(s.bytes);
    calls[k] += 1;
  }
  const auto per_round_ms = [&](SpanKind k) {
    return ns[static_cast<std::size_t>(k)] / n / 1e6;
  };
  const auto per_round_kib = [&](SpanKind k) {
    return bytes[static_cast<std::size_t>(k)] / n / 1024.0;
  };
  report.add("gmon.report_ms", per_round_ms(SpanKind::gmon_report), "ms");
  report.add("gmon.report_calls",
             calls[static_cast<std::size_t>(SpanKind::gmon_report)] / n, "count");
  report.add("gmetad.dump_ms", per_round_ms(SpanKind::gmetad_dump), "ms");
  report.add("gmetad.dump_kb", per_round_kib(SpanKind::gmetad_dump), "KiB");
  report.add("fed.publish_ms", per_round_ms(SpanKind::fed_publish), "ms");
  report.add("fed.publish_kb", per_round_kib(SpanKind::fed_publish), "KiB");

  const double deltas = static_cast<double>(after.delta_polls - before.delta_polls);
  const double fulls = static_cast<double>(after.full_polls - before.full_polls);
  report.add("fed.delta_share", deltas + fulls > 0 ? deltas / (deltas + fulls) : 0.0,
             "ratio");
  report.add("fed.resyncs", static_cast<double>(after.resyncs - before.resyncs) / n,
             "count");

  const auto self = poll_self_ns(tracer, 0);
  double self_total = 0;
  for (const std::string& name : testbed.poll_order()) {
    const double ms = (self.contains(name) ? static_cast<double>(self.at(name)) : 0.0) / n / 1e6;
    self_total += ms;
    report.add("gmetad.poll_self_ms." + name, ms, "ms");
  }
  for (const std::string& name : testbed.poll_order()) {
    report.add("gmetad.cpu_ms." + name,
               static_cast<double>(trace.node_cpu_ns[name]) / n / 1e6, "ms");
  }

  const ReplayTimes replay = replay_stages(testbed.spec(), trace.captured);
  const double rr = static_cast<double>(std::max<std::size_t>(replay.rounds, 1));
  const double parse_ms = parse_on_path ? replay.parse_ns / rr / 1e6 : 0.0;
  const double stage_ms[] = {replay.summarize_ns / rr / 1e6,
                             replay.archive_ns / rr / 1e6,
                             replay.prime_ns / rr / 1e6,
                             replay.publish_ns / rr / 1e6};
  report.add("xml.parse_ms", parse_ms, "ms");
  report.add("xml.parse_mb_s",
             parse_on_path && replay.parse_ns > 0
                 ? replay.parsed_bytes / 1e6 / (replay.parse_ns / 1e9)
                 : 0.0,
             "MB/s");
  report.add("gmetad.summarize_ms", stage_ms[0], "ms");
  report.add("rrd.archive_ms", stage_ms[1], "ms");
  report.add("render.prime_ms", stage_ms[2], "ms");
  report.add("gmetad.publish_ms", stage_ms[3], "ms");
  const double replay_total =
      parse_ms + stage_ms[0] + stage_ms[1] + stage_ms[2] + stage_ms[3];
  report.add("gmetad.replay_total_ms", replay_total, "ms");
  report.add("gmetad.poll_self_total_ms", self_total, "ms");
  report.add("gmetad.replay_gap_pct",
             self_total > 0 ? 100.0 * (self_total - replay_total) / self_total : 0.0,
             "%");
  report.notes.push_back(ganglia::strprintf(
      "stage replay over %zu rounds: %.2f ms per round against %.2f ms of "
      "poll_once self time (gap %.1f%%)",
      replay.rounds, replay_total, self_total,
      self_total > 0 ? 100.0 * (self_total - replay_total) / self_total : 0.0));

  report.add("render.dump_ms", trace.read_ns[0] / n / 1e6, "ms");
  report.add("http.api_summary_ms", trace.read_ns[1] / n / 1e6, "ms");
  report.add("query.api_query_ms", trace.read_ns[2] / n / 1e6, "ms");

  double databases = 0;
  double storage = 0;
  for (const auto& node : testbed.spec().nodes) {
    databases += static_cast<double>(testbed.node(node.name).archiver().database_count());
    storage += static_cast<double>(testbed.node(node.name).archiver().storage_bytes());
  }
  report.add("rrd.databases", databases, "count");
  report.add("rrd.storage_mb", storage / (1024.0 * 1024.0), "MiB");
}

struct ServeWindow {
  std::vector<ReaderStats> readers;
  double seconds = 0;
  ganglia::http::CacheStats cache_before, cache_after;
  ganglia::http::HttpServer::Stats server_before, server_after;
};

void report_serve_layers(Report& report, const ServeWindow& w) {
  report.add_layer_percentile("http.dashboard_p50_us",
                              class_latencies(w.readers, ReadClass::dashboard), 50, "us");
  report.add_layer_percentile("http.dashboard_p99_us",
                              class_latencies(w.readers, ReadClass::dashboard), 99, "us");
  report.add_layer_percentile("query.adhoc_p50_us",
                              class_latencies(w.readers, ReadClass::adhoc), 50, "us");
  report.add_layer_percentile("query.adhoc_p99_us",
                              class_latencies(w.readers, ReadClass::adhoc), 99, "us");
  report.add_layer_percentile("http.drilldown_p50_us",
                              class_latencies(w.readers, ReadClass::drilldown), 50, "us");
  report.add_layer_percentile("http.drilldown_p99_us",
                              class_latencies(w.readers, ReadClass::drilldown), 99, "us");
  const double hits = static_cast<double>(w.cache_after.hits - w.cache_before.hits);
  const double misses = static_cast<double>(w.cache_after.misses - w.cache_before.misses);
  report.add("http.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
             "ratio");
  report.add("http.cache_expirations",
             static_cast<double>(w.cache_after.expirations - w.cache_before.expirations),
             "count");
  report.add("http.requests",
             static_cast<double>(w.server_after.requests - w.server_before.requests),
             "count");
  report.add("http.connections", static_cast<double>(w.server_after.connections),
             "count");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Workload& w : kWorkloads) out.emplace_back(w.name);
    return out;
  }();
  return names;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
  });
}

RunResult run_workload(const RunConfig& config) {
  RunResult result;
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (w.name == config.workload) workload = &w;
  }
  if (workload == nullptr) {
    result.error = "unknown workload '" + config.workload + "'";
    return result;
  }
  if (config.seconds <= 0 || config.setups == 0 || config.hosts_per_cluster == 0) {
    result.error = "seconds, setups and hosts must be positive";
    return result;
  }

  // Declared before the Bed: services wrapped for tracing refer to it.
  Tracer tracer;
  Capture capture;
  Failures failures;
  std::unique_ptr<Bed> bed;
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < config.setups; ++i) {
    // One tree alive at a time; handing the freed tree back to the OS keeps
    // peak_rss_mb the peak of one set-up, not of how earlier ones fragmented.
    bed.reset();
    malloc_trim(0);
    auto fresh = std::make_unique<Bed>();
    const auto start = SteadyClock::now();
    if (std::string error = set_up(config, *workload, *fresh); !error.empty()) {
      result.error = "set-up: " + error;
      return result;
    }
    setup_s.push_back(seconds_since(start));
    bed = std::move(fresh);
  }

  Report report;
  WriterStats writer;           // untraced rounds
  WriterStats traced_writer;    // traced rounds (trace runs only)
  TraceState trace;
  DeltaCounters delta_before, delta_after;
  ServeWindow serve;
  std::string error;

  // Reads take turns with the rounds for the whole run; every round is a
  // freshness sample, and its publishes invalidate the response cache.
  Turns turns(kRepliesPerRound);
  serve.cache_before = bed->gateway().cache().stats();
  serve.server_before = bed->server->server().stats();
  serve.seconds = with_readers(*bed, config.seed, turns, failures, serve.readers, [&] {
    if (!config.trace) {
      error = run_writer(*bed, config.seconds, samples_needed(90), turns, nullptr,
                         failures, writer);
      return;
    }
    // Untraced half first (the overhead baseline), then the traced half.
    error = run_writer(*bed, config.seconds / 2, kTracedHalfRounds, turns,
                       nullptr, failures, writer);
    if (!error.empty()) return;
    trace.tracer = &tracer;
    trace.capture = workload->federation ? nullptr : &capture;
    wrap_services(*bed->testbed, tracer, trace.capture);
    delta_before = delta_counters(*bed->testbed);
    error = run_writer(*bed, config.seconds / 2, kTracedHalfRounds, turns,
                       &trace, failures, traced_writer);
    delta_after = delta_counters(*bed->testbed);
  });
  serve.cache_after = bed->gateway().cache().stats();
  serve.server_after = bed->server->server().stats();
  if (!error.empty()) {
    result.error = error;
    return result;
  }

  std::uint64_t requests = 0;
  for (const ReaderStats& r : serve.readers) requests += r.requests;
  const std::size_t rounds = writer.rounds + traced_writer.rounds;
  result.attempted = rounds + requests;
  result.failed = failures.count();
  const std::vector<double> latencies = all_latencies(serve.readers);

  if (!config.trace) {
    const double n = static_cast<double>(writer.rounds);
    report.add("setup_s", median(setup_s), "s");
    report.add_percentile("freshness_ms_p50", writer.fresh_ms, 50, "ms");
    report.add_percentile("freshness_ms_p90", writer.fresh_ms, 90, "ms");
    report.add("cpu_ms_per_round", median(writer.cpu_ms), "ms");
    report.add("wire_kb_per_round", static_cast<double>(writer.wire_bytes) / n / 1024.0,
               "KiB");
    report.add("peak_rss_mb", peak_rss_mib(), "MiB");
    report.add("serve_rps", static_cast<double>(latencies.size()) / serve.seconds, "1/s");
    report.add_percentile("serve_p50_us", latencies, 50, "us");
    report.add_percentile("serve_p99_us", latencies, 99, "us");
  } else {
    report_layers(report, *bed->testbed, tracer, trace, traced_writer.rounds,
                  delta_before, delta_after, !workload->federation);
    report_serve_layers(report, serve);
    const double untraced = median(writer.fresh_ms);
    const double traced_p50 = median(traced_writer.fresh_ms);
    report.add("tracing.overhead_pct",
               untraced > 0 ? 100.0 * (traced_p50 - untraced) / untraced : 0.0, "%");
    if (!config.trace_file.empty() && !tracer.write(config.trace_file)) {
      report.notes.push_back("could not write " + config.trace_file);
    }
  }

  report.notes.push_back(ganglia::strprintf(
      "oracle %.1f ms per round, outside the freshness samples",
      (writer.oracle_ms + traced_writer.oracle_ms) /
          static_cast<double>(std::max<std::size_t>(rounds, 1))));
  report.notes.push_back(ganglia::strprintf(
      "%zu set-ups; %zu rounds (%zu traced); %llu requests over %.2f s; "
      "failed_frac %.6g (%llu of %llu)",
      setup_s.size(), rounds, traced_writer.rounds,
      static_cast<unsigned long long>(requests), serve.seconds,
      result.attempted > 0
          ? static_cast<double>(result.failed) / static_cast<double>(result.attempted)
          : 0.0,
      static_cast<unsigned long long>(result.failed),
      static_cast<unsigned long long>(result.attempted)));
  if (!report.error.empty()) {
    result.error = report.error;
    return result;
  }
  result.metrics = std::move(report.metrics);
  result.notes = std::move(report.notes);
  return result;
}

}  // namespace perfbench
