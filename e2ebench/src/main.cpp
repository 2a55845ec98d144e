// e2ebench: the end-to-end benchmark binary.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --references <file> [--threads <k>] [--spans-out <file>]
//            [--emit-references]
//
// --trace 0 measures the end-to-end metrics of one workload with no
// tracing; its timed phase is reported in calls of a fixed reference
// kernel run beside the cells (see HostSpeed), and in wall seconds.  --trace 1 is the separate traced run: it alternates untraced
// and traced rounds of the selected workload (for the tracing overhead),
// runs its second pass (scaling probe or twin), then runs every other
// workload once traced so each per-layer metric is measured.  --threads
// sets the artery twin's pool size (default min(4, usable CPUs)).
// The last line of standard output is one JSON object.

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

using e2e::Clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string references;
  int threads = 0;
  std::string spans_out;
  bool emit_references = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "e2ebench: " << error << "\n"
            << "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --references <file> [--threads <k>] "
               "[--spans-out <file>] [--emit-references]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_references = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--emit-references") {
      o.emit_references = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--references") {
        o.references = value;
        have_references = true;
      } else if (flag == "--threads") {
        o.threads = std::stoi(value);
      } else if (flag == "--spans-out") {
        o.spans_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  const auto& names = e2e::workload_names();
  if (!have_workload ||
      std::find(names.begin(), names.end(), o.workload) == names.end())
    usage("--workload must name one of the four workloads");
  if (!have_references) usage("--references is required");
  if (!(o.seconds > 0 && o.seconds <= 600)) usage("--seconds out of range");
  if (o.threads < 0 || o.threads > 64) usage("--threads out of range");
  return o;
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// Timings are refused from anything but an optimized, unsanitized build.
std::string build_refusal() {
  const std::string build_type = E2E_BUILD_TYPE;
  std::string sanitize = E2E_SANITIZE;
  std::transform(sanitize.begin(), sanitize.end(), sanitize.begin(),
                 [](unsigned char c) { return std::toupper(c); });
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG undefined)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "e2ebench was compiled with a sanitizer";
#endif
  if (build_type != "Release")
    return "build type is '" + build_type + "', not Release";
  if (!sanitize.empty() && sanitize != "OFF" && sanitize != "FALSE" &&
      sanitize != "0" && sanitize != "NO")
    return "hpcs libraries built with HPCS_SANITIZE=" + sanitize;
  return {};
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// Share of the timed phase spent on reference calls (see HostSpeed).
constexpr double kReferenceShare = 0.05;

/// Tracks the host's speed through a run.  Before each cell and after the
/// last cell of a round it runs reference calls (e2e::reference_call_s)
/// for kReferenceShare of the previous cell's timed phase, at least one,
/// after one untimed call that brings the kernel's data back into cache.
/// A shared host's speed swings by tens of percent over seconds to
/// minutes, and the reference calls beside a cell slow down with it, so
/// a round's timed phase over its mean reference call is steady where
/// its wall time is not.
class HostSpeed {
 public:
  void sample() {
    const auto start = Clock::now();
    (void)e2e::reference_call_s();
    do {
      calls_s_ += e2e::reference_call_s();
      ++calls_;
    } while (e2e::seconds_since(start) < kReferenceShare * last_cell_s_);
  }
  void cell_done(double host_s) { last_cell_s_ = host_s; }
  /// Mean seconds per reference call since the last take().
  double take() {
    const double mean = calls_s_ / calls_;
    calls_s_ = 0.0;
    calls_ = 0;
    return mean;
  }

 private:
  double last_cell_s_ = 0.0;
  double calls_s_ = 0.0;
  int calls_ = 0;
};

/// One round: every cell of the run once.
struct Round {
  double setup_s = 0.0;  ///< summed set-up wall time of the cells
  double host_s = 0.0;   ///< summed timed-phase wall time of the cells
  double ref_call_s = 0.0;  ///< mean reference call beside the cells
  /// Timed phase in reference calls: host_s / ref_call_s.
  double host_ref() const { return host_s / ref_call_s; }
};

/// Runs one round of \p workload, appending its cells to \p cells.
Round run_round(const std::string& workload, std::uint64_t seed,
                const e2e::Variant& variant, e2e::Tracer& tracer,
                e2e::Checks& checks, HostSpeed& speed,
                std::vector<e2e::Iteration>& cells) {
  Round round;
  for (int k = 0; k < e2e::round_cells(workload); ++k) {
    speed.sample();
    cells.push_back(e2e::run_iteration(workload, e2e::cell_seed(seed, k),
                                       variant, tracer, checks));
    speed.cell_done(cells.back().host_s);
    round.setup_s += cells.back().setup_s;
    round.host_s += cells.back().host_s;
  }
  speed.sample();
  round.ref_call_s = speed.take();
  return round;
}

/// One traced pass of \p workload: a single round under a fresh tracer.
e2e::Pass run_pass(const std::string& workload, std::uint64_t seed,
                   const e2e::Variant& variant, std::uint32_t run_id,
                   e2e::Checks& checks, HostSpeed& speed) {
  e2e::Pass pass{variant, e2e::Tracer(true, run_id), {}};
  (void)run_round(workload, seed, variant, pass.tracer, checks, speed,
                  pass.iterations);
  return pass;
}

/// \p field of every round.
template <class Field>
std::vector<double> each(const std::vector<Round>& rounds, Field field) {
  std::vector<double> out;
  for (const Round& r : rounds) out.push_back(field(r));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::cerr << "e2ebench: refusing to report timings: " << refusal << "\n";
    return 3;
  }
  const int cpus = usable_cpus();
  const int threads = opt.threads > 0 ? opt.threads : std::min(4, cpus);
  e2e::Checks checks;
  try {
    checks.load_references(opt.references);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 2;
  }

#ifdef __clang__
  const char* compiler = "clang ";
#else
  const char* compiler = "gcc ";
#endif
  std::cout << "provenance: compiler=" << compiler << __VERSION__
            << " build=" << E2E_BUILD_TYPE << " flags='" << E2E_CXX_FLAGS
            << "' sanitize=" << E2E_SANITIZE << " nproc=" << cpus
            << " alya_threads=1 alya_pool_twin=" << threads
            << " campaign_jobs=1 seed="
            << opt.seed << " workload=" << opt.workload
            << " trace=" << opt.trace << "\n";

  const e2e::Variant main_variant{};
  std::vector<e2e::Metric> metrics;
  std::vector<e2e::Pass> passes;
  const auto start = Clock::now();
  const auto host_ref = [](const Round& r) { return r.host_ref(); };
  const auto host_s = [](const Round& r) { return r.host_s; };
  const auto setup_s = [](const Round& r) { return r.setup_s; };
  const auto ref_call_ms = [](const Round& r) { return r.ref_call_s * 1e3; };
  try {
    // A warm-up cell (checked, not timed) fills caches and the allocator.
    e2e::Tracer off(false, 0);
    HostSpeed speed;
    speed.cell_done(e2e::run_iteration(opt.workload,
                                       e2e::cell_seed(opt.seed, 0),
                                       main_variant, off, checks)
                        .host_s);
    std::vector<e2e::Iteration> discard;
    if (!opt.trace) {
      // Whole rounds until the time budget is spent.
      std::vector<Round> rounds;
      while (rounds.size() < 3 || e2e::seconds_since(start) < opt.seconds) {
        rounds.push_back(run_round(opt.workload, opt.seed, main_variant, off,
                                   checks, speed, discard));
        discard.clear();
      }
      const double ok_share =
          static_cast<double>(checks.attempted() - checks.failed()) /
          static_cast<double>(std::max(1, checks.attempted()));
      metrics = {
          {"host_ref", e2e::median(each(rounds, host_ref)), "ref"},
          {"setup_s", e2e::median(each(rounds, setup_s)), "s"},
          {"peak_rss_mb", e2e::peak_rss_mb(), "MB"},
          {"success_rate", ok_share, "ratio"},
      };
      std::cout << "rounds of " << e2e::round_cells(opt.workload)
                << " cells: " << rounds.size() << " + 1 warm-up cell\n"
                << "host_s (timed-phase wall time) per round:";
      for (const double v : each(rounds, host_s)) std::cout << ' ' << v;
      std::cout << "\nreference call [ms] per round:";
      for (const double v : each(rounds, ref_call_ms)) std::cout << ' ' << v;
      std::cout << "\nhost_s " << number(e2e::median(each(rounds, host_s)))
                << " s (median round)\n";
    } else {
      // Untraced and traced rounds alternate so drift hits both.
      e2e::Pass main{main_variant, e2e::Tracer(true, 0), {}};
      std::vector<Round> untraced, traced;
      while (traced.size() < 2 || e2e::seconds_since(start) < opt.seconds) {
        untraced.push_back(run_round(opt.workload, opt.seed, main_variant,
                                     off, checks, speed, discard));
        discard.clear();
        traced.push_back(run_round(opt.workload, opt.seed, main_variant,
                                   main.tracer, checks, speed,
                                   main.iterations));
      }
      const double overhead = e2e::median(each(traced, host_ref)) /
                                  e2e::median(each(untraced, host_ref)) -
                              1.0;
      passes.push_back(std::move(main));
      passes.push_back(run_pass(opt.workload, opt.seed,
                                e2e::second_variant(opt.workload, threads), 1,
                                checks, speed));

      // Every other workload once, so every per-layer metric is measured;
      // the selected workload's own metrics are merged last and win.
      std::map<std::string, e2e::Metric> merged;
      std::uint32_t run_id = 2;
      for (const char* other :
           {"gateway-observed", "gateway-hedged", "sched-backfill",
            "artery-paper"}) {
        if (other == opt.workload) continue;
        e2e::Pass a = run_pass(other, opt.seed, main_variant, run_id++,
                               checks, speed);
        e2e::Pass b = run_pass(other, opt.seed,
                               e2e::second_variant(other, threads), run_id++,
                               checks, speed);
        for (e2e::Metric& m :
             e2e::layer_metrics(other, opt.seed, a, b, checks))
          merged[m.name] = std::move(m);
        passes.push_back(std::move(a));
        passes.push_back(std::move(b));
      }
      for (e2e::Metric& m : e2e::layer_metrics(opt.workload, opt.seed,
                                               passes[0], passes[1], checks))
        merged[m.name] = std::move(m);
      merged["bench.trace_overhead"] = {"bench.trace_overhead", overhead,
                                        "ratio"};
      merged["bench.host_s"] = {"bench.host_s",
                                e2e::median(each(untraced, host_s)), "s"};
      merged["bench.ref_call_ms"] = {
          "bench.ref_call_ms", e2e::median(each(untraced, ref_call_ms)),
          "ms"};
      for (auto& [name, m] : merged) metrics.push_back(std::move(m));
      std::cout << "rounds of " << e2e::round_cells(opt.workload)
                << " cells: " << traced.size() << " traced + "
                << untraced.size() << " untraced + 1 warm-up cell; second "
                << "pass 1 round; other workloads 1 round per pass\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }

  if (!passes.empty()) {
    // Self time per span name, summed over the selected workload's passes.
    std::map<std::string, double> self;
    for (int p = 0; p < 2; ++p)
      for (const auto& [name, s] : passes[static_cast<std::size_t>(p)]
                                       .tracer.self_seconds())
        self[name] += s;
    std::vector<std::pair<std::string, double>> rows(self.begin(),
                                                     self.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    std::cout << "self time by span (" << opt.workload << ", both passes):\n";
    for (const auto& [name, s] : rows) {
      char line[160];
      std::snprintf(line, sizeof line, "  %-36s %12.6f s\n", name.c_str(), s);
      std::cout << line;
    }
    if (!opt.spans_out.empty()) {
      std::ofstream out(opt.spans_out);
      out << "[\n";
      for (std::size_t i = 0; i < passes.size(); ++i) {
        if (i) out << ",\n";
        passes[i].tracer.write_json(out);
      }
      out << "]\n";
      if (!out) std::cerr << "e2ebench: could not write " << opt.spans_out
                          << "\n";
    }
  }

  if (opt.emit_references)
    for (const auto& line : checks.seen_lines()) std::cout << line << "\n";
  for (const std::string& miss : checks.log())
    std::cout << "check failed: " << miss << "\n";
  std::cout << "checked operations: " << checks.attempted() << " attempted, "
            << checks.failed() << " failed, " << checks.referenced()
            << " digests matched against references; error_rate "
            << number(static_cast<double>(checks.failed()) /
                      static_cast<double>(std::max(1, checks.attempted())))
            << " ratio\n";
  for (const e2e::Metric& m : metrics) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-30s %16.6g %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::cout << line;
  }

  std::cout << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << checks.attempted()
            << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? ", " : "") << '"' << metrics[i].name
              << "\": {\"value\": " << number(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  std::cout << "}}" << std::endl;
  return 0;
}
