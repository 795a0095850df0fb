#include "spans.hpp"

#include <algorithm>
#include <atomic>

namespace perfbench {

namespace {

std::atomic<Trace*> g_trace{nullptr};

}  // namespace

void Trace::add(const char* layer, Clock::time_point start,
                Clock::time_point end) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_[layer].emplace_back(start, end);
}

std::map<std::string, double> Trace::layer_seconds() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, double> out;
  for (auto [layer, spans] : spans_) {
    std::sort(spans.begin(), spans.end());
    double total = 0.0;
    auto [lo, hi] = spans.front();
    for (const auto& [s, e] : spans) {
      if (s > hi) {
        total += std::chrono::duration<double>(hi - lo).count();
        lo = s;
      }
      hi = std::max(hi, e);
    }
    out[layer] = total + std::chrono::duration<double>(hi - lo).count();
  }
  return out;
}

void install(Trace* trace) { g_trace.store(trace, std::memory_order_release); }

Span::Span(const char* layer)
    : layer_(layer), trace_(g_trace.load(std::memory_order_acquire)) {
  if (trace_ != nullptr) start_ = Trace::Clock::now();
}

Span::~Span() {
  if (trace_ != nullptr) trace_->add(layer_, start_, Trace::Clock::now());
}

}  // namespace perfbench
