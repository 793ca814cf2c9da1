// The benchmark's own statistics and response checks, kept free of the library so the
// tests in tests/stats_test.cc exercise exactly the code the benchmark reports with.
//
//   * Exact quantiles over raw samples (nearest rank), never histogram bucket bounds.
//   * The open-loop lane: arrivals are due on a schedule, wait in the client queue while
//     the pipeline is full, and are timed from their due time.
//   * Failure accounting by cause, and the failure share the benchmark reports.
//   * The value format: every stored value embeds its key's hash and a checksum, so a
//     response is checked without the client keeping a copy of the store.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// --- Exact quantiles ---------------------------------------------------------------------------

// Nearest-rank quantile of sorted, non-empty samples: the ceil(q*n)-th smallest.
inline std::uint64_t QuantileOfSorted(const std::vector<std::uint64_t>& sorted, double q) {
  double rank = std::ceil(q * static_cast<double>(sorted.size()));
  std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

// Nearest-rank quantile (q in (0, 1]). Sorts `samples`; returns 0 for an empty set.
inline std::uint64_t ExactQuantile(std::vector<std::uint64_t>& samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  return QuantileOfSorted(samples, q);
}

// True when at least `tail` samples lie strictly beyond quantile q of `n` samples — the
// rule for reporting a percentile as measured rather than as a handful of outliers.
inline bool QuantileSupported(std::size_t n, double q, std::size_t tail = 10) {
  double beyond = std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9);
  return beyond >= static_cast<double>(tail);
}

struct LatencySummary {
  std::size_t samples = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
  bool p99_supported = false;
  bool p999_supported = false;
};

inline LatencySummary Summarize(std::vector<std::uint64_t> samples) {
  LatencySummary s;
  s.samples = samples.size();
  if (samples.empty()) {
    return s;
  }
  std::sort(samples.begin(), samples.end());
  s.p50 = QuantileOfSorted(samples, 0.5);
  s.p99 = QuantileOfSorted(samples, 0.99);
  s.p999 = QuantileOfSorted(samples, 0.999);
  s.p99_supported = QuantileSupported(s.samples, 0.99);
  s.p999_supported = QuantileSupported(s.samples, 0.999);
  return s;
}

// Median over consecutive windows of the exact per-window quantile q. `samples` holds
// (time, value) pairs; windows are [start + k*window, start + (k+1)*window) by time, and
// only windows holding at least `min_samples` samples count. One burst that stalls the
// host moves a few windows, not the median of many. Returns 0 when no window qualifies.
inline std::uint64_t MedianOfWindows(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& samples, std::uint64_t start,
    std::uint64_t window, double q, std::size_t min_samples) {
  std::vector<std::vector<std::uint64_t>> windows;
  for (const auto& [time, value] : samples) {
    std::size_t w = time > start ? static_cast<std::size_t>((time - start) / window) : 0;
    if (w >= windows.size()) {
      windows.resize(w + 1);
    }
    windows[w].push_back(value);
  }
  std::vector<std::uint64_t> per_window;
  for (auto& values : windows) {
    if (values.size() >= min_samples) {
      per_window.push_back(ExactQuantile(values, q));
    }
  }
  return ExactQuantile(per_window, 0.5);
}

// --- Open-loop lane ----------------------------------------------------------------------------
//
// One client connection's view of an open-loop arrival stream. Arrivals are due at
// pre-generated times; at most `pipeline` requests are in flight; an arrival that finds the
// pipeline full waits in the client queue (it is never dropped). Latency runs from the due
// time, so a stall charges every request that arrived during it, and lateness (send - due)
// shows how far the client fell behind its schedule.
class OpenLoopLane {
 public:
  explicit OpenLoopLane(std::size_t pipeline) : pipeline_(pipeline) {}

  // Appends an arrival (due times must be non-decreasing). Returns its index in the lane.
  std::size_t AddArrival(std::uint64_t due_ns) {
    due_.push_back(due_ns);
    return due_.size() - 1;
  }

  std::size_t arrivals() const { return due_.size(); }
  std::size_t sent() const { return next_; }
  std::size_t in_flight() const { return in_flight_; }
  bool done() const { return next_ == due_.size() && in_flight_ == 0; }

  // Index of the next arrival that may be sent at `now`, or -1 when none is due or the
  // pipeline is full.
  long NextSendable(std::uint64_t now) const {
    if (next_ == due_.size() || in_flight_ >= pipeline_ || due_[next_] > now) {
      return -1;
    }
    return static_cast<long>(next_);
  }
  // Due time of the next unsent arrival (UINT64_MAX when all are sent).
  std::uint64_t NextDue() const { return next_ == due_.size() ? UINT64_MAX : due_[next_]; }

  // Marks the next arrival sent at `now`; returns its lateness (now - due).
  std::uint64_t MarkSent(std::uint64_t now) {
    std::size_t index = next_++;
    ++in_flight_;
    return now > due_[index] ? now - due_[index] : 0;
  }

  // Completes sent arrival `index` at `now`; returns its latency from due time.
  std::uint64_t Complete(std::size_t index, std::uint64_t now) {
    --in_flight_;
    return now > due_[index] ? now - due_[index] : 0;
  }

 private:
  std::size_t pipeline_;
  std::vector<std::uint64_t> due_;
  std::size_t next_ = 0;
  std::size_t in_flight_ = 0;
};

// --- Failure accounting ------------------------------------------------------------------------

enum class Outcome {
  kOk,
  kRefused,    // the client could not hand the request to the transport
  kUnsent,     // still queued when the phase's latency limit expired
  kTimeout,    // sent, but unanswered past the latency limit
  kError,      // answered with an error status (or a transport error)
  kMiss,       // a GET of a preloaded key answered "not found"
  kBadValue,   // a value failing its key-hash, length or checksum check
};

struct FailureTally {
  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;
  std::uint64_t unsent = 0;
  std::uint64_t timeout = 0;
  std::uint64_t error = 0;
  std::uint64_t miss = 0;
  std::uint64_t bad_value = 0;

  void Record(Outcome outcome) {
    ++attempted;
    switch (outcome) {
      case Outcome::kOk:
        break;
      case Outcome::kRefused:
        ++refused;
        break;
      case Outcome::kUnsent:
        ++unsent;
        break;
      case Outcome::kTimeout:
        ++timeout;
        break;
      case Outcome::kError:
        ++error;
        break;
      case Outcome::kMiss:
        ++miss;
        break;
      case Outcome::kBadValue:
        ++bad_value;
        break;
    }
  }
  void Merge(const FailureTally& other) {
    attempted += other.attempted;
    refused += other.refused;
    unsent += other.unsent;
    timeout += other.timeout;
    error += other.error;
    miss += other.miss;
    bad_value += other.bad_value;
  }
  std::uint64_t failed() const { return refused + unsent + timeout + error + miss + bad_value; }
  std::uint64_t correct() const { return attempted - failed(); }
  // Failure share as the rule of succession, (failed + 1) / (attempted + 2): the posterior
  // mean failure probability under a uniform prior. It is never 0, so a regression bound
  // taken as a share of it is defined; with no failures it reads 1 / (attempted + 2).
  double FailedShare() const {
    return (static_cast<double>(failed()) + 1.0) / (static_cast<double>(attempted) + 2.0);
  }
};

// --- Value format ------------------------------------------------------------------------------
//
// A value of n >= kFramedMin bytes is [u32 key hash][u32 generation][payload][u32 checksum],
// the checksum covering everything before it. Shorter values are the key hash's bytes
// repeated: fully determined by the key, so they are checked byte for byte.

inline constexpr std::size_t kFramedMin = 12;

// FNV-1a, 32 bit: the key hash values embed.
inline std::uint32_t KeyHash32(std::string_view key) {
  std::uint32_t h = 2166136261u;
  for (char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

// Four independent multiply-xor lanes over 8-byte words, folded at the end: cheap enough
// to check 16 KiB values on the client without dominating its per-request cost.
inline std::uint32_t ValueChecksum(const char* p, std::size_t n) {
  std::uint64_t lane[4] = {0x9E3779B97F4A7C15ull, 0xC2B2AE3D27D4EB4Full,
                           0x165667B19E3779F9ull, 0x27D4EB2F165667C5ull};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int l = 0; l < 4; ++l) {
      std::uint64_t w;
      std::memcpy(&w, p + i + 8 * l, 8);
      lane[l] = (lane[l] ^ w) * 0x100000001B3ull;
    }
  }
  std::uint64_t tail = 0;
  for (std::size_t k = 0; i < n; ++i, ++k) {
    tail ^= static_cast<std::uint64_t>(static_cast<std::uint8_t>(p[i])) << (8 * (k % 8));
    if (k % 8 == 7) {
      lane[0] = (lane[0] ^ tail) * 0x100000001B3ull;
      tail = 0;
    }
  }
  // Rotations (not shifts) and a bijective finalizer: a difference in any lane survives
  // to the 64-bit result, which is then folded to 32 bits.
  auto rotl = [](std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); };
  std::uint64_t h = lane[0] ^ rotl(lane[1], 17) ^ rotl(lane[2], 31) ^ rotl(lane[3], 47) ^
                    rotl(tail, 7) ^ n;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

// Writes the value of `key_hash` at `generation` into dst[0, n). `pattern` supplies the
// payload bytes and must hold at least n bytes.
inline void FillValue(char* dst, std::size_t n, std::uint32_t key_hash, std::uint32_t generation,
                      const char* pattern) {
  if (n < kFramedMin) {
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] = static_cast<char>(key_hash >> (8 * (i % 4)));
    }
    return;
  }
  std::memcpy(dst, &key_hash, 4);
  std::memcpy(dst + 4, &generation, 4);
  std::memcpy(dst + 8, pattern, n - kFramedMin);
  std::uint32_t check = ValueChecksum(dst, n - 4);
  std::memcpy(dst + n - 4, &check, 4);
}

// Checks a value read back for `key_hash`: its length, embedded hash and checksum (or its
// bytes, for short values). Any generation is accepted — a concurrent SET may legitimately
// win the race with a GET.
inline bool VerifyValue(const char* p, std::size_t n, std::size_t expected_len,
                        std::uint32_t key_hash) {
  if (n != expected_len) {
    return false;
  }
  if (n < kFramedMin) {
    for (std::size_t i = 0; i < n; ++i) {
      if (p[i] != static_cast<char>(key_hash >> (8 * (i % 4)))) {
        return false;
      }
    }
    return true;
  }
  std::uint32_t hash;
  std::uint32_t check;
  std::memcpy(&hash, p, 4);
  std::memcpy(&check, p + n - 4, 4);
  return hash == key_hash && check == ValueChecksum(p, n - 4);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
