// Correctness oracle for every benchmark operation.
//
// Poll rounds: after a round, the root's fold over its whole store must
// equal a model fold of the twelve leaf reports as they were served at the
// same clock second.  The model folds the *served text* (each metric's VAL
// string, exactly what the emulator writes on the wire), not the typed
// doubles the emulator keeps, because the monitor only ever sees the text;
// typed values differ in the second decimal.  Host counts must match
// exactly; metric sums must match within kSumRelTol, which only absorbs
// floating-point summation order (the tree adds the same values in a
// different grouping).  A stale root, a lost host or a changed value all
// exceed it.
//
// The three freshness reads are checked against the same model, and every
// served HTTP reply must be a 200 whose body parses as the kind of document
// its route returns.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gmetad/gmetad.hpp"
#include "gmetad/testbed.hpp"
#include "json_lite.hpp"
#include "xml/ganglia.hpp"

namespace perfbench {

/// Relative tolerance on metric sums (summation-order rounding only).
inline constexpr double kSumRelTol = 1e-9;

struct MetricFold {
  double sum = 0.0;
  std::uint64_t num = 0;
};

/// hosts_up / hosts_down plus per-metric sums: the additive reduction the
/// paper's summaries carry.
struct Fold {
  std::uint64_t hosts_up = 0;
  std::uint64_t hosts_down = 0;
  std::map<std::string, MetricFold, std::less<>> metrics;

  void merge(const Fold& other);
};

/// Fold one leaf cluster report from its VAL strings.
Fold fold_served(const ganglia::Cluster& cluster);

/// Fold a summary as the monitor holds it.
Fold fold_summary(const ganglia::SummaryInfo& summary);

/// The model: every leaf cluster of the testbed, folded from what its
/// emulator serves at the current clock second (reports are a pure function
/// of seed and second, so asking again returns what the tree polled).
struct Model {
  Fold total;       ///< all clusters
  Fold root_local;  ///< the root's own clusters
};
Model build_model(ganglia::gmetad::Testbed& testbed);

/// Root's fold over store().all().
Fold store_fold(const ganglia::gmetad::Gmetad& root);

/// nullopt when `got` matches `expected`; otherwise what differs.
std::optional<std::string> compare(const Fold& expected, const Fold& got);

// -- the three freshness reads -------------------------------------------

/// Root dump: parses, and its root grid folds to the model total.
std::optional<std::string> check_dump(std::string_view xml, const Model& model);
/// /api/v1/?filter=summary: 200, JSON, and folds to the model total.
std::optional<std::string> check_api_summary(int status, std::string_view body,
                                             const Model& model);
/// /api/v1/query?metric=load_one&group=none&agg=sum&up=1: 200, JSON, one row
/// whose VALUE is the load_one sum over the live hosts of the root's own
/// clusters.
std::optional<std::string> check_api_query(int status, std::string_view body,
                                           const Model& model);
inline constexpr std::string_view kFreshQueryTarget =
    "/api/v1/query?metric=load_one&group=none&agg=sum&up=1";

/// Fold a gateway JSON tree document (clusters and grids in summary form).
std::optional<Fold> fold_json_tree(const json::Value& doc);

}  // namespace perfbench
