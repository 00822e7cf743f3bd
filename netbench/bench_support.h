// Support code for the network-path benchmark (netbench.cc): span
// recording, Prometheus exposition parsing, percentiles, and the
// correctness gate that checks every delivered frame against a
// reference computed in-process.
#ifndef GEOSTREAMS_NETBENCH_BENCH_SUPPORT_H_
#define GEOSTREAMS_NETBENCH_BENCH_SUPPORT_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "net/wire_protocol.h"

namespace netbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Spans

/// One timed call: `trace` is the scan's frame id (or -1 for layer
/// replays), `parent` the id of the enclosing span (-1 = root).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;
  int64_t trace = -1;
};

/// In-memory span sink shared by every benchmark thread. Disabled
/// recorders drop spans without taking the lock, so untraced runs pay
/// one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  int64_t Add(std::string name, int64_t start_ns, int64_t end_ns,
              int64_t trace, int64_t parent = -1) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = std::move(name);
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.id = static_cast<int64_t>(spans_.size());
    s.parent = parent;
    s.trace = trace;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  /// Reserves an id for a parent span whose end is not known yet.
  int64_t Open(std::string name, int64_t start_ns, int64_t trace,
               int64_t parent = -1) {
    return Add(std::move(name), start_ns, start_ns, trace, parent);
  }
  void Close(int64_t id, int64_t end_ns) {
    if (!enabled_ || id < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = end_ns;
  }

  std::vector<Span> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Total length of the union of `intervals` clipped to [lo, hi).
inline int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                         int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b <= a) continue;
    covered += b - a;
    cursor = b;
  }
  return covered;
}

/// Self time of every span: its duration minus the part of it that
/// its children cover. Indexed by span id.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (const Span& s : spans) {
    const auto& kids = children[static_cast<size_t>(s.id)];
    self[static_cast<size_t>(s.id)] =
        (s.end_ns - s.start_ns) - CoveredNs(kids, s.start_ns, s.end_ns);
  }
  return self;
}

// ---------------------------------------------------------------------------
// Prometheus text exposition (the METRICS verb's payload)

struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

/// Parses sample lines; comment lines are skipped.
inline std::vector<PromSample> ParseExposition(const std::vector<std::string>& lines) {
  std::vector<PromSample> out;
  for (const std::string& line : lines) {
    if (line.empty() || line[0] == '#') continue;
    PromSample s;
    size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    s.name = line.substr(0, i);
    if (i < line.size() && line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        const size_t eq = line.find('=', i);
        if (eq == std::string::npos || eq + 1 >= line.size()) break;
        const std::string key = line.substr(i, eq - i);
        std::string value;
        size_t j = eq + 2;  // past ="
        while (j < line.size() && line[j] != '"') {
          if (line[j] == '\\' && j + 1 < line.size()) ++j;
          value.push_back(line[j]);
          ++j;
        }
        s.labels[key] = value;
        i = j + 1;
        if (i < line.size() && line[i] == ',') ++i;
      }
      ++i;  // past }
    }
    while (i < line.size() && line[i] == ' ') ++i;
    const std::string number = line.substr(i, line.find(' ', i) - i);
    if (number == "+Inf") {
      s.value = INFINITY;
    } else {
      s.value = std::strtod(number.c_str(), nullptr);
    }
    out.push_back(std::move(s));
  }
  return out;
}

using LabelFilter = std::map<std::string, std::string>;

inline bool Matches(const PromSample& s, const LabelFilter& filter) {
  for (const auto& [k, v] : filter) {
    auto it = s.labels.find(k);
    if (it == s.labels.end() || it->second != v) return false;
  }
  return true;
}

/// Sum of every series of `name` matching `filter`.
inline double PromSum(const std::vector<PromSample>& samples,
                      const std::string& name, const LabelFilter& filter = {}) {
  double total = 0.0;
  for (const PromSample& s : samples) {
    if (s.name == name && Matches(s, filter)) total += s.value;
  }
  return total;
}

/// Quantile of histogram `base` merged over every series matching
/// `filter`, interpolated linearly inside the bucket (Prometheus
/// histogram_quantile semantics). 0 when the histogram is empty.
inline double PromHistQuantile(const std::vector<PromSample>& samples,
                               const std::string& base,
                               const LabelFilter& filter, double q) {
  std::map<double, double> cumulative;  // le -> count (summed over series)
  const std::string bucket = base + "_bucket";
  for (const PromSample& s : samples) {
    if (s.name != bucket || !Matches(s, filter)) continue;
    auto it = s.labels.find("le");
    if (it == s.labels.end()) continue;
    const double le =
        it->second == "+Inf" ? INFINITY : std::strtod(it->second.c_str(), nullptr);
    cumulative[le] += s.value;
  }
  if (cumulative.empty()) return 0.0;
  const double total = cumulative.rbegin()->second;
  if (total <= 0.0) return 0.0;
  const double rank = q * total;
  double prev_le = 0.0;
  double prev_count = 0.0;
  for (const auto& [le, count] : cumulative) {
    if (count >= rank) {
      if (std::isinf(le)) return prev_le;
      const double in_bucket = count - prev_count;
      if (in_bucket <= 0.0) return le;
      return prev_le + (le - prev_le) * (rank - prev_count) / in_bucket;
    }
    prev_le = le;
    prev_count = count;
  }
  return prev_le;
}

// ---------------------------------------------------------------------------
// Correctness gate

/// FNV-1a over the 64-bit patterns of the samples (word-wise, so
/// checking a 512 KB frame costs microseconds, not a byte loop).
inline uint64_t SampleChecksum(const double* data, size_t n) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits;
    std::memcpy(&bits, &data[i], sizeof(bits));
    h ^= bits;
    h *= 1099511628211ull;
  }
  return h;
}

/// What a correct result frame looks like: raw frames by shape and
/// sample checksum, PNG frames byte for byte.
struct RefFrame {
  uint32_t width = 0;
  uint32_t height = 0;
  uint16_t bands = 1;
  bool png = false;
  uint64_t checksum = 0;
  std::vector<uint8_t> png_bytes;
  /// Source cells inside the query's region (the useful share of the
  /// shipped frame).
  uint64_t useful_cells = 0;
};

inline bool FrameMatches(const RefFrame& ref, const geostreams::FrameMessage& got) {
  if (got.png != ref.png) return false;
  if (ref.png) return got.png_bytes == ref.png_bytes;
  if (got.width != ref.width || got.height != ref.height ||
      got.bands != ref.bands) {
    return false;
  }
  return SampleChecksum(got.samples.data(), got.samples.size()) == ref.checksum;
}

/// Tracks, per (query, frame id), which result frames are expected and
/// which arrived. A frame that never arrives, arrives twice, differs
/// from its reference, or was never expected is a failure. Safe to
/// drive from several reader threads.
class Gate {
 public:
  struct Tally {
    uint64_t expected = 0;
    uint64_t ok = 0;
    uint64_t missing = 0;
    uint64_t duplicate = 0;
    uint64_t mismatch = 0;
    uint64_t unexpected = 0;
    uint64_t failed() const { return missing + duplicate + mismatch + unexpected; }
  };
  enum class Verdict { kOk, kMismatch, kDuplicate, kUnexpected };

  void Expect(int query, int64_t frame_id, const RefFrame* ref) {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& e = entries_[{query, frame_id}];
    e.ref = ref;
    ++expected_;
  }

  /// Records one delivered frame; the first arrival of an expected key
  /// counts towards Arrived().
  Verdict Observe(int query, const geostreams::FrameMessage& got) {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = entries_.find({query, got.frame_id});
    if (it == entries_.end()) {
      ++unexpected_;
      return Verdict::kUnexpected;
    }
    Entry& e = it->second;
    if (e.seen++ > 0) return Verdict::kDuplicate;
    const RefFrame* ref = e.ref;
    lock.unlock();
    const bool ok = FrameMatches(*ref, got);
    lock.lock();
    e.ok = ok;
    ++arrived_;
    cv_.notify_all();
    return ok ? Verdict::kOk : Verdict::kMismatch;
  }

  uint64_t Expected() const {
    std::lock_guard<std::mutex> lock(mu_);
    return expected_;
  }

  /// Blocks until `target` expected frames have arrived or
  /// `deadline_ns` (steady clock) passes. True when all arrived.
  bool WaitArrived(uint64_t target, int64_t deadline_ns) {
    std::unique_lock<std::mutex> lock(mu_);
    while (arrived_ < target) {
      const int64_t left = deadline_ns - NowNs();
      if (left <= 0) return false;
      cv_.wait_for(lock, std::chrono::nanoseconds(std::min<int64_t>(left, 50000000)));
    }
    return true;
  }

  Tally Finish() const {
    std::lock_guard<std::mutex> lock(mu_);
    Tally t;
    t.expected = expected_;
    t.unexpected = unexpected_;
    for (const auto& [key, e] : entries_) {
      if (e.seen == 0) {
        ++t.missing;
      } else {
        if (e.seen > 1) t.duplicate += e.seen - 1;
        if (e.ok) {
          ++t.ok;
        } else {
          ++t.mismatch;
        }
      }
    }
    return t;
  }

 private:
  struct Entry {
    const RefFrame* ref = nullptr;
    uint64_t seen = 0;
    bool ok = false;
  };
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::pair<int, int64_t>, Entry> entries_;
  uint64_t expected_ = 0;
  uint64_t arrived_ = 0;
  uint64_t unexpected_ = 0;
};

}  // namespace netbench

#endif  // GEOSTREAMS_NETBENCH_BENCH_SUPPORT_H_
