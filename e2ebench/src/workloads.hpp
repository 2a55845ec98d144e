#pragma once

/// \file workloads.hpp
/// \brief The four macro workloads.  Each is a batch run with one caller:
///        the benchmark makes every call after the previous one returns.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.hpp"

namespace e2e {

/// The workload names.
const std::vector<std::string>& workload_names();

/// Cells per round.  The scheduler and gateway cells draw random streams
/// whose cost varies from one cell seed to the next, so a round sums 8
/// independent cells and every run measures the same amount of work within
/// a few percent.  artery-paper's cost hardly depends on its seed, so its
/// round is one cell.
int round_cells(const std::string& workload);

/// Seed of cell \p k of a run with seed \p seed: seed * 100 + k, so the
/// cells of different run seeds never overlap.
std::uint64_t cell_seed(std::uint64_t seed, int k);

/// How one iteration departs from the workload's default shape.
struct Variant {
  /// Problem size relative to the default (the scaling probe uses 0.5).
  double scale = 1.0;
  /// gateway-observed: run the same cell unobserved.
  bool unobserved = false;
  /// artery-paper: alya::ThreadPool size.  The timed pass runs on one
  /// thread: on a shared host the pool's wake-ups make its wall time swing
  /// 2.4x between runs, too much for a bounded end-to-end metric.
  int threads = 1;
  /// Suffix for this variant's checked-op names ("" for the default).
  std::string tag;
};

/// One timed iteration: set-up, then the timed phase.
struct Iteration {
  std::uint64_t cell_seed = 0;
  double setup_s = 0.0;
  double host_s = 0.0;
  /// Digest of the simulated statistics alone, for twin comparisons.
  std::string fingerprint;
  /// Program-reported counts and values the per-layer metrics read.
  std::map<std::string, double> outputs;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Runs one cell of \p workload, recording its checked operations into
/// \p checks and (when \p tracer is enabled) one span per call the
/// benchmark makes into the hpcs libraries.
Iteration run_iteration(const std::string& workload, std::uint64_t cell,
                        const Variant& variant, Tracer& tracer,
                        Checks& checks);

/// The second pass of the traced run: the half-size scaling probe for
/// sched-backfill and gateway-hedged, the unobserved twin for
/// gateway-observed, and a pool of \p threads for artery-paper.
Variant second_variant(const std::string& workload, int threads);

/// A pass: the cells one variant ran and the spans they recorded.
struct Pass {
  Variant variant;
  Tracer tracer;
  std::vector<Iteration> iterations;
};

/// Per-layer metrics of \p workload from its traced main pass and second
/// pass.  Twin passes are also checked cell by cell against the main pass
/// here, under the run seed \p seed.
std::vector<Metric> layer_metrics(const std::string& workload,
                                  std::uint64_t seed, const Pass& main,
                                  const Pass& second, Checks& checks);

}  // namespace e2e
