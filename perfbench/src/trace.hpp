// Span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own files around each call into
// a capi module; nothing inside the library is instrumented. A span holds
// its name, start, end and parent. Parents come from a per-thread stack of
// open spans, or are passed explicitly when a span opens on another thread
// (the mpisim rank threads). Spans stay in memory until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t nowNs() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct SpanRecord {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0: a root span.
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
};

class Tracer {
public:
    static constexpr std::uint32_t kInherit = 0xFFFFFFFFu;

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /// Opens a span and makes it the current one on this thread; 0 when
    /// tracing is off.
    std::uint32_t open(std::uint32_t parent) {
        if (!enabled_) {
            return 0;
        }
        std::vector<std::uint32_t>& stack = openStack();
        if (parent == kInherit) {
            parent = stack.empty() ? 0 : stack.back();
        }
        std::uint32_t id = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            id = static_cast<std::uint32_t>(spans_.size() + 1);
            spans_.push_back({id, parent, {}, 0, 0});
        }
        stack.push_back(id);
        return id;
    }

    void close(std::uint32_t id, std::string name, std::uint64_t startNs,
               std::uint64_t endNs) {
        if (id == 0) {
            return;
        }
        std::vector<std::uint32_t>& stack = openStack();
        if (!stack.empty() && stack.back() == id) {
            stack.pop_back();
        }
        std::lock_guard<std::mutex> lock(mutex_);
        SpanRecord& span = spans_[id - 1];
        span.name = std::move(name);
        span.startNs = startNs;
        span.endNs = endNs;
    }

    const std::vector<SpanRecord>& spans() const { return spans_; }

private:
    static std::vector<std::uint32_t>& openStack() {
        thread_local std::vector<std::uint32_t> stack;
        return stack;
    }

    bool enabled_ = false;
    std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/// Times a scope. Always measures; records a span only while tracing.
/// Names follow the metric grammar `<layer>.<what>_<unit>[.<detail>]`.
class Span {
public:
    Span(Tracer& tracer, std::string name,
         std::uint32_t parent = Tracer::kInherit)
        : tracer_(&tracer),
          name_(std::move(name)),
          id_(tracer.open(parent)),
          startNs_(nowNs()) {}
    ~Span() { stop(); }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Ends the span (idempotent) and returns its duration in seconds.
    double stop() {
        if (!stopped_) {
            endNs_ = nowNs();
            stopped_ = true;
            tracer_->close(id_, std::move(name_), startNs_, endNs_);
        }
        return static_cast<double>(endNs_ - startNs_) * 1e-9;
    }

    std::uint32_t id() const { return id_; }

private:
    Tracer* tracer_;
    std::string name_;
    std::uint32_t id_;
    std::uint64_t startNs_;
    std::uint64_t endNs_ = 0;
    bool stopped_ = false;
};

}  // namespace perfbench
