#pragma once

// The benchmark's own tracing: spans recorded from outside the library,
// around each public call a workload makes. Spans are kept in memory and
// folded into per-layer times when a traced pass ends.

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The spans of one traced pass. The benchmark's spans never nest, so a
/// span's self time is its duration. A layer's time is the wall-clock time
/// during which at least one of its spans was open, on any thread: calls
/// that run concurrently inside a parallel #wl sweep count once, so the
/// figure is the layer's share of the unit's wall time.
class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  void add(const char* layer, Clock::time_point start, Clock::time_point end);
  std::map<std::string, double> layer_seconds() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<std::pair<Clock::time_point,
                                              Clock::time_point>>>
      spans_;  // guarded by mu_
};

/// Installs `trace` as the recording target (nullptr stops recording).
/// Spans opened while no trace is installed cost one atomic load.
void install(Trace* trace);

/// RAII span of layer `<layer>.<op>`; `layer` must be a string literal.
class Span {
 public:
  explicit Span(const char* layer);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* layer_;
  Trace* trace_;
  Trace::Clock::time_point start_;
};

}  // namespace perfbench
