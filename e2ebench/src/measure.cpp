#include "measure.hpp"

#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace e2e {

Tracer::Tracer(bool enabled, std::uint32_t run_id)
    : enabled_(enabled), run_(run_id) {}

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t Tracer::open(std::uint32_t name) {
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  const double now = seconds_since(epoch_);
  spans_.push_back(Span{name, parent, run_, now, now});
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t span) {
  spans_[static_cast<std::size_t>(span)].end_s = seconds_since(epoch_);
  // Scopes close in reverse order of opening, so the span is on top.
  stack_.pop_back();
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (names_[s.name] == name) out.push_back(s.end_s - s.start_s);
  return out;
}

std::vector<double> Tracer::child_sums(std::string_view parent,
                                       std::string_view child) const {
  std::map<std::int32_t, double> sums;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (names_[spans_[i].name] == parent)
      sums[static_cast<std::int32_t>(i)] = 0.0;
  for (const Span& s : spans_)
    if (s.parent >= 0 && names_[s.name] == child) {
      const auto it = sums.find(s.parent);
      if (it != sums.end()) it->second += s.end_s - s.start_s;
    }
  std::vector<double> out;
  for (const auto& [id, sum] : sums) out.push_back(sum);
  return out;
}

std::vector<std::pair<std::string, double>> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_s - spans_[i].start_s;
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    by_name[names_[spans_[i].name]] += self[i];
  return {by_name.begin(), by_name.end()};
}

void Tracer::write_json(std::ostream& out) const {
  out << "{\"names\": [";
  for (std::size_t i = 0; i < names_.size(); ++i)
    out << (i ? ", " : "") << '"' << names_[i] << '"';
  out << "],\n\"spans\": [";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf, "%s\n[%u, %d, %u, %.9f, %.9f]",
                  i ? "," : "", s.name, s.parent, s.run, s.start_s, s.end_s);
    out << buf;
  }
  out << "]}\n";
}

void Digest::feed(std::string_view bytes) {
  for (const char c : bytes) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 0x100000001b3ull;
  }
}

Digest& Digest::add(std::string_view key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "=%.17g;", value);
  feed(key);
  feed(buf);
  return *this;
}

Digest& Digest::add(std::string_view key, std::uint64_t value) {
  feed(key);
  feed("=" + std::to_string(value) + ";");
  return *this;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

void Checks::load_references(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read references " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, seed, threads, op, digest;
    if (!(fields >> workload >> seed >> threads >> op >> digest))
      throw std::runtime_error("malformed reference line: " + line);
    references_.push_back(
        {workload + " " + seed + " " + threads + " " + op, digest});
  }
}

void Checks::record(const std::string& workload, std::uint64_t seed,
                    int threads, CheckedOp op) {
  if (!op.digest.empty()) {
    const std::string key = workload + " " + std::to_string(seed) + " " +
                            (threads > 0 ? std::to_string(threads) : "-") +
                            " " + op.name;
    for (const Reference& ref : references_)
      if (ref.key == key) {
        ++referenced_;
        op.require(ref.digest == op.digest,
                   "digest " + op.digest + " != reference " + ref.digest);
      }
    const auto first =
        std::find_if(seen_.begin(), seen_.end(),
                     [&](const Reference& r) { return r.key == key; });
    if (first == seen_.end())
      seen_.push_back({key, op.digest});
    else
      op.require(first->digest == op.digest,
                 "digest " + op.digest + " != this run's first " +
                     first->digest);
  }
  ++attempted_;
  if (!op.ok()) {
    ++failed_;
    for (const std::string& miss : op.misses)
      log_.push_back(workload + "/" + op.name + ": " + miss);
  }
}

std::vector<std::string> Checks::seen_lines() const {
  std::vector<std::string> out;
  for (const Reference& r : seen_) out.push_back(r.key + " " + r.digest);
  return out;
}

double reference_call_s() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };

  struct Record {
    std::uint64_t key;
    double value;
    std::string name;
  };
  std::vector<Record> records;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t r = next();
    records.push_back({r, static_cast<double>(r % 100000) * 1e-3,
                       "span-" + std::to_string(r % 613)});
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.key < b.key; });
  std::string text;
  std::unordered_map<std::string, double> totals;
  char buf[32];
  for (const Record& r : records) {
    text += "{\"name\":\"" + r.name + "\",\"ts\":";
    text.append(buf, std::to_chars(buf, buf + sizeof buf, r.value).ptr);
    text += "},\n";
    totals[r.name] += r.value;
  }

  using Event = std::pair<double, std::uint64_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  double clock = 0.0;
  for (int i = 0; i < 6000; ++i) {
    events.emplace(clock + static_cast<double>(next() % 1000), next());
    if (i % 2) {
      clock = events.top().first;
      events.pop();
    }
  }

  constexpr std::size_t n = 96;
  std::vector<double> u(n * n, 0.0), v(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) u[i] = 1.0;
  for (int sweep = 0; sweep < 12; ++sweep) {
    for (std::size_t i = 1; i + 1 < n; ++i)
      for (std::size_t j = 1; j + 1 < n; ++j)
        v[i * n + j] = 0.25 * (u[(i - 1) * n + j] + u[(i + 1) * n + j] +
                               u[i * n + j - 1] + u[i * n + j + 1]);
    u.swap(v);
  }

  // Keep every result live so the optimizer removes none of the work.
  volatile double sink = static_cast<double>(text.size() + totals.size() +
                                             events.size()) +
                         clock + u[n * n / 2];
  (void)sink;
  return seconds_since(t0);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t i =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(i, values.size() - 1)];
}

double heap_mb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would also
  // count the parent's pages from before exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

}  // namespace e2e
