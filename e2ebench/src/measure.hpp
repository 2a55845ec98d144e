#pragma once

/// \file measure.hpp
/// \brief The benchmark's own measuring kit: an in-memory span tracer,
///        output checks, stable digests and small statistics helpers.
///
/// Nothing here reaches into the hpcs libraries: spans are opened and
/// closed by the benchmark around its calls into their public functions, so
/// the per-layer split is measured from outside the program.

#include <chrono>
#include <cstdint>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One timed call.  Spans of one traced run share its run id.
struct Span {
  std::uint32_t name = 0;    ///< index into the tracer's name table
  std::int32_t parent = -1;  ///< enclosing span, -1 at the root
  std::uint32_t run = 0;
  double start_s = 0.0;  ///< since the tracer was created
  double end_s = 0.0;
};

/// Records spans in memory when enabled; a disabled tracer records
/// nothing and its scopes cost one branch.
class Tracer {
 public:
  Tracer(bool enabled, std::uint32_t run_id);

  bool enabled() const noexcept { return enabled_; }
  /// Span-name id; intern once outside hot loops.
  std::uint32_t intern(std::string_view name);

  std::int32_t open(std::uint32_t name);
  void close(std::int32_t span);

  /// Durations of every span named \p name, in recording order.
  std::vector<double> durations(std::string_view name) const;
  /// For each span named \p parent: the summed durations of its direct
  /// children named \p child.
  std::vector<double> child_sums(std::string_view parent,
                                 std::string_view child) const;
  /// Self time (duration minus the time its children cover) summed per
  /// span name, in name order.
  std::vector<std::pair<std::string, double>> self_seconds() const;

  /// {"names": [...], "spans": [[name, parent, run, start_s, end_s]...]}
  void write_json(std::ostream& out) const;

 private:
  bool enabled_;
  std::uint32_t run_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& tracer, std::uint32_t name)
      : tracer_(tracer), span_(tracer.enabled() ? tracer.open(name) : -1) {}
  Scope(Tracer& tracer, std::string_view name)
      : Scope(tracer, tracer.enabled() ? tracer.intern(name) : 0u) {}
  ~Scope() {
    if (span_ >= 0) tracer_.close(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t span_;
};

/// FNV-1a digest over a canonical text rendering of simulated outputs.
class Digest {
 public:
  Digest& add(std::string_view key, double value);
  Digest& add(std::string_view key, std::uint64_t value);
  std::string hex() const;

 private:
  void feed(std::string_view bytes);
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// Outcome of one checked operation (a cell, a solve or a campaign).
struct CheckedOp {
  std::string name;
  std::string digest;  ///< empty when the op has no digest
  std::vector<std::string> misses;

  void require(bool ok, std::string what) {
    if (!ok) misses.push_back(std::move(what));
  }
  bool ok() const noexcept { return misses.empty(); }
};

/// Every checked operation of a run; the error rate is failed / attempted.
class Checks {
 public:
  /// Reference digests: lines "<workload> <seed> <threads|-> <op> <hex>",
  /// where "-" marks an op whose outputs do not depend on the pool size.
  /// \throws std::runtime_error when the file cannot be read or parsed.
  void load_references(const std::string& path);

  /// Checks \p op's digest against the reference for (workload, seed,
  /// threads) when one exists, and against the first digest this run saw
  /// for the same op (a fixed input must give fixed outputs), then
  /// counts it.  \p threads <= 0 marks a pool-independent op.
  void record(const std::string& workload, std::uint64_t seed, int threads,
              CheckedOp op);

  int attempted() const noexcept { return attempted_; }
  int failed() const noexcept { return failed_; }
  int referenced() const noexcept { return referenced_; }
  const std::vector<std::string>& log() const noexcept { return log_; }
  /// The first digest of every op this run checked, as reference lines.
  std::vector<std::string> seen_lines() const;

 private:
  struct Reference {
    std::string key;  ///< "<workload> <seed> <threads|-> <op>"
    std::string digest;
  };
  std::vector<Reference> references_;
  std::vector<Reference> seen_;
  int attempted_ = 0;
  int failed_ = 0;
  int referenced_ = 0;
  std::vector<std::string> log_;
};

/// Stream buffer that discards what it is given and counts the bytes, so
/// artifact serialization is timed without disk noise.
class CountingBuf final : public std::streambuf {
 public:
  std::uint64_t bytes() const noexcept { return bytes_; }

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(ch);
  }

 private:
  std::uint64_t bytes_ = 0;
};

/// One call of the host-speed reference kernel; returns its wall seconds.
/// The kernel does a fixed amount of the kinds of work the hpcs libraries
/// do most: it builds, sorts, formats and aggregates small records (trace
/// export), drains a binary heap of timed events (event loops and
/// queues) and sweeps a 5-point stencil (mesh kernels).  Its inputs are
/// constant and it calls nothing in the hpcs libraries, so a change to the
/// program never changes its cost; only the host's speed does.
double reference_call_s();

double median(std::vector<double> values);
/// Nearest-rank quantile, \p q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// Heap bytes held by live allocations now [MB] (glibc mallinfo2); unlike
/// RSS it falls when objects are freed, so it shows what a phase retains.
double heap_mb();
/// Peak resident set size of this process image [MB].
double peak_rss_mb();

}  // namespace e2e
